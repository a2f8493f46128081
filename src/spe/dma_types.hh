/**
 * @file
 * Types shared between the MFC and the system-level DMA router.
 *
 * The MFC splits DMA commands into EIB-sized lines (<= 128 bytes) and
 * hands them to a LineHandler installed by the cell layer, which routes
 * each line over the EIB to main memory or a remote local store.  This
 * keeps libcellbw_spe free of a dependency on the interconnect and
 * memory models.
 *
 * A LineRequest is trivially copyable: its completion is a LineDone
 * value ({MFC, command slot, bytes, window}), not a closure, so the
 * router parks it in a flight slot and schedules it as-is.
 */

#ifndef CELLBW_SPE_DMA_TYPES_HH
#define CELLBW_SPE_DMA_TYPES_HH

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "util/types.hh"

namespace cellbw::spe
{

/** Direction of a DMA command, from the issuing SPE's point of view. */
enum class DmaDir
{
    Get,    ///< effective address -> local store
    Put,    ///< local store -> effective address
};

/**
 * Why an MFC command failed.  Recoverable faults surface as per-tag
 * status the program polls (Mfc::tagFaultMask / takeFaults) instead of
 * killing the process, mirroring the MFC_FIR/error-status registers of
 * real hardware.
 *
 * Validation errors are permanent: re-issuing the same command fails
 * the same way.  Dropped/Corrupted are transient injected faults; a
 * retry of the identical command may succeed.
 */
enum class MfcError : std::uint8_t
{
    None = 0,
    InvalidSize,    ///< size not 1/2/4/8 or multiple of 16, or > 16 KB
    Misaligned,     ///< LS/EA alignment rules violated
    LsOverrun,      ///< transfer runs past the end of the local store
    BadList,        ///< list with 0 or > maxListElements elements
    Dropped,        ///< injected: command lost, no data moved
    Corrupted,      ///< injected: data moved but damaged in flight
};

constexpr const char *
toString(MfcError e)
{
    switch (e) {
      case MfcError::None:
        return "none";
      case MfcError::InvalidSize:
        return "invalid-size";
      case MfcError::Misaligned:
        return "misaligned";
      case MfcError::LsOverrun:
        return "ls-overrun";
      case MfcError::BadList:
        return "bad-list";
      case MfcError::Dropped:
        return "dropped";
      case MfcError::Corrupted:
        return "corrupted";
    }
    return "?";
}

/** True for faults where re-issuing the same command can succeed. */
constexpr bool
isTransient(MfcError e)
{
    return e == MfcError::Dropped || e == MfcError::Corrupted;
}

/** One element of a DMA list (mfc_getl / mfc_putl). */
struct ListElement
{
    EffAddr ea;
    std::uint32_t size;
};

/**
 * Segment list of a DMA command.  The overwhelmingly common case — a
 * plain get/put — is a single (ea, size) pair, stored inline so that
 * enqueueing a command allocates nothing.  List commands (getl/putl)
 * fall back to vector storage.  Elements are stable for the list's
 * lifetime, so routing code can hold (pointer, count) views into it.
 */
class SegList
{
  public:
    SegList() = default;

    /** Single-element list for a plain get/put: no allocation. */
    SegList(EffAddr ea, std::uint32_t size)
        : single_{ea, size}, count_(1)
    {
    }

    /** Multi-element list for getl/putl. */
    SegList(std::vector<ListElement> elems)
        : list_(std::move(elems)), count_(list_.size())
    {
    }

    const ListElement *
    data() const
    {
        return list_.empty() ? &single_ : list_.data();
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    const ListElement &operator[](std::size_t i) const { return data()[i]; }
    const ListElement *begin() const { return data(); }
    const ListElement *end() const { return data() + count_; }

    /** Copy out to a vector (cold paths only: fault records). */
    std::vector<ListElement> toVector() const { return {begin(), end()}; }

  private:
    ListElement single_{0, 0};
    std::vector<ListElement> list_;
    std::size_t count_ = 0;
};

/** Maximum transfer size of one DMA command or list element. */
constexpr std::uint32_t maxDmaSize = 16 * 1024;

/** Maximum number of elements in one DMA list command. */
constexpr std::uint32_t maxListElements = 2048;

/** EIB packet payload granularity: one cache line. */
constexpr std::uint32_t lineBytes = 128;

/** Number of MFC tag groups. */
constexpr unsigned numTags = 32;

/**
 * Base effective address of the memory-mapped local-store apertures.
 * Lines targeting EAs at or above this are LS-to-LS traffic and do not
 * consume memory tokens in the MFC's resource allocator.
 */
constexpr EffAddr lsApertureBase = 1ull << 40;

class Mfc;

/**
 * Completion of one line, handed back to the MFC that issued it.  A
 * plain value — the issuing MFC, the command's arena slot, the line's
 * size and which token window it holds — so a router can copy it
 * through its stages and into the event queue without type erasure,
 * relocation or reset.  Calling it releases the line's window token
 * and credits its bytes (Mfc::lineDone); defined in spe/mfc.hh.
 */
struct LineDone
{
    Mfc *mfc = nullptr;
    std::uint32_t command = 0;  ///< issuing command's arena slot
    std::uint16_t bytes = 0;
    bool isLs = false;          ///< holds an LS-window slot, not a token

    void operator()() const;
};

/** A single line-sized piece of a DMA command, ready for routing. */
struct LineRequest
{
    unsigned speIndex;          ///< logical index of the issuing SPE
    DmaDir dir;
    EffAddr ea;
    LsAddr lsa;
    std::uint32_t bytes;
    /** Injected fault: the router damages this line's payload. */
    bool corrupt = false;
    /** Call exactly once, when the line has landed. */
    LineDone done;
};

static_assert(std::is_trivially_copyable_v<LineRequest>,
              "routers copy line requests through flight slots and "
              "event captures");

using LineHandler = std::function<void(LineRequest &&)>;

} // namespace cellbw::spe

#endif // CELLBW_SPE_DMA_TYPES_HH
