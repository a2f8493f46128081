/**
 * @file
 * Sparse byte-addressable backing store for the simulated main-storage
 * domain.
 *
 * DMA in the simulator moves real bytes so tests can assert end-to-end
 * data integrity, exactly like running the paper's codes would.  Storage
 * is allocated in 64 KB pages on first touch.
 */

#ifndef CELLBW_MEM_BACKING_STORE_HH
#define CELLBW_MEM_BACKING_STORE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/types.hh"

namespace cellbw::mem
{

class BackingStore
{
  public:
    explicit BackingStore(std::uint64_t pageBytes = 64 * util::KiB);

    /** Copy @p size bytes from @p src into simulated memory at @p ea. */
    void write(EffAddr ea, const void *src, std::uint64_t size);

    /** Copy @p size bytes out of simulated memory at @p ea into @p dst. */
    void read(EffAddr ea, void *dst, std::uint64_t size) const;

    /** Fill @p size bytes at @p ea with @p value. */
    void fill(EffAddr ea, std::uint8_t value, std::uint64_t size);

    /** Read a single byte (0 if the page was never touched). */
    std::uint8_t byteAt(EffAddr ea) const;

    std::uint64_t pageBytes() const { return pageBytes_; }
    std::size_t touchedPages() const { return pages_.size(); }

    /** Drop all contents. */
    void clear() { pages_.clear(); }

  private:
    std::uint8_t *pageFor(EffAddr ea);
    const std::uint8_t *pageForRead(EffAddr ea) const;

    std::uint64_t pageBytes_;
    unsigned pageShift_;        ///< log2(pageBytes_)
    std::uint64_t pageMask_;    ///< pageBytes_ - 1
    std::unordered_map<std::uint64_t,
                       std::unique_ptr<std::uint8_t[]>> pages_;
};

} // namespace cellbw::mem

#endif // CELLBW_MEM_BACKING_STORE_HH
