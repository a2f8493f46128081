#include "mem/backing_store.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"
#include "util/align.hh"

namespace cellbw::mem
{

BackingStore::BackingStore(std::uint64_t pageBytes)
    : pageBytes_(pageBytes), pageShift_(std::countr_zero(pageBytes)),
      pageMask_(pageBytes - 1)
{
    if (!util::isPow2(pageBytes))
        sim::fatal("backing-store page size must be a power of two");
}

std::uint8_t *
BackingStore::pageFor(EffAddr ea)
{
    std::uint64_t pn = ea >> pageShift_;
    auto it = pages_.find(pn);
    if (it == pages_.end()) {
        // make_unique<T[]> value-initializes: the page starts zeroed.
        it = pages_.emplace(pn, std::make_unique<std::uint8_t[]>(pageBytes_))
                 .first;
    }
    return it->second.get();
}

const std::uint8_t *
BackingStore::pageForRead(EffAddr ea) const
{
    auto it = pages_.find(ea >> pageShift_);
    return it == pages_.end() ? nullptr : it->second.get();
}

void
BackingStore::write(EffAddr ea, const void *src, std::uint64_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(src);
    while (size > 0) {
        std::uint64_t off = ea & pageMask_;
        std::uint64_t chunk = std::min(size, pageBytes_ - off);
        std::memcpy(pageFor(ea) + off, p, chunk);
        ea += chunk;
        p += chunk;
        size -= chunk;
    }
}

void
BackingStore::read(EffAddr ea, void *dst, std::uint64_t size) const
{
    auto *p = static_cast<std::uint8_t *>(dst);
    while (size > 0) {
        std::uint64_t off = ea & pageMask_;
        std::uint64_t chunk = std::min(size, pageBytes_ - off);
        const std::uint8_t *page = pageForRead(ea);
        if (page)
            std::memcpy(p, page + off, chunk);
        else
            std::memset(p, 0, chunk);
        ea += chunk;
        p += chunk;
        size -= chunk;
    }
}

void
BackingStore::fill(EffAddr ea, std::uint8_t value, std::uint64_t size)
{
    while (size > 0) {
        std::uint64_t off = ea & pageMask_;
        std::uint64_t chunk = std::min(size, pageBytes_ - off);
        std::memset(pageFor(ea) + off, value, chunk);
        ea += chunk;
        size -= chunk;
    }
}

std::uint8_t
BackingStore::byteAt(EffAddr ea) const
{
    const std::uint8_t *page = pageForRead(ea);
    return page ? page[ea & pageMask_] : 0;
}

} // namespace cellbw::mem
