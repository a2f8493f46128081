/**
 * @file
 * SPE Local Store: 256 KB of software-managed memory.
 *
 * The LS has a single port moving 16 bytes per CPU cycle, shared by the
 * SPU's loads/stores and the MFC's DMA traffic (on real hardware the MFC
 * has priority; here the port simply serializes, which is equivalent for
 * sustained-bandwidth purposes).
 *
 * Storage is a private anonymous mapping: the kernel supplies zero
 * pages on first touch, so constructing an LS writes no bytes and a run
 * pays only for the pages its DMA and SPU code actually write (most
 * experiments use a few tens of KiB of each 256 KiB store).  Untouched
 * bytes read as zero, as they did with eagerly zeroed storage.  A
 * bitmap records which 4 KiB pages have been written; an all-zero
 * write whose pages were never written is dropped, so DMA that only
 * moves zeros faults in no page at all.
 */

#ifndef CELLBW_SPE_LOCAL_STORE_HH
#define CELLBW_SPE_LOCAL_STORE_HH

#include <cstdint>
#include <vector>

#include "sim/sim_object.hh"
#include "util/types.hh"

namespace cellbw::spe
{

struct LocalStoreParams
{
    std::uint32_t sizeBytes = 256 * 1024;
    /** Port width: bytes per CPU cycle. */
    std::uint32_t bytesPerCycle = 16;
    /** Fixed access latency in ticks (SLB/array read). */
    Tick accessLatency = 4;
};

class LocalStore : public sim::SimObject
{
  public:
    LocalStore(std::string name, sim::EventQueue &eq,
               const LocalStoreParams &params);
    ~LocalStore() override;

    std::uint32_t size() const { return params_.sizeBytes; }

    /** @name Data access (bounds-checked). */
    /** @{ */
    void write(LsAddr lsa, const void *src, std::uint32_t size);
    void read(LsAddr lsa, void *dst, std::uint32_t size) const;
    void fill(LsAddr lsa, std::uint8_t value, std::uint32_t size);
    std::uint8_t byteAt(LsAddr lsa) const;
    /** @} */

    /**
     * Reserve port time for @p bytes.  @return the tick at which the
     * access completes (port serialization plus array latency).
     */
    Tick reservePort(std::uint32_t bytes);

    /** Earliest tick at which a new port access could start. */
    Tick portFreeAt() const { return portFreeAt_; }

    std::uint64_t bytesAccessed() const { return bytesAccessed_; }

    /** Bytes per page of the written-page bitmap. */
    static constexpr std::uint32_t kPageBytes = 4096;

    /** Pages a write or fill has reached. */
    std::uint32_t writtenPages() const;

  private:
    void checkRange(LsAddr lsa, std::uint32_t size) const;

    /** @name Written-page bitmap over [lsa, lsa + size), size > 0. */
    /** @{ */
    bool anyWritten(LsAddr lsa, std::uint32_t size) const;
    void markWritten(LsAddr lsa, std::uint32_t size);
    /** @} */

    LocalStoreParams params_;
    /** sizeBytes of zero-on-first-touch mapping (nullptr if empty). */
    std::uint8_t *data_ = nullptr;
    /** One bit per kPageBytes page; set once a write reaches it. */
    std::vector<std::uint64_t> written_;
    Tick portFreeAt_ = 0;
    std::uint64_t bytesAccessed_ = 0;
};

} // namespace cellbw::spe

#endif // CELLBW_SPE_LOCAL_STORE_HH
