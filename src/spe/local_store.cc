#include "spe/local_store.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "sim/logging.hh"
#include "util/align.hh"
#include "util/bytes.hh"

namespace cellbw::spe
{

LocalStore::LocalStore(std::string name, sim::EventQueue &eq,
                       const LocalStoreParams &params)
    : sim::SimObject(std::move(name), eq), params_(params)
{
    if (params_.bytesPerCycle == 0)
        sim::fatal("%s: LS port width must be positive",
                   this->name().c_str());
    if (params_.sizeBytes == 0)
        return;
    void *p = mmap(nullptr, params_.sizeBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        sim::fatal("%s: cannot map a %u-byte local store: %s",
                   this->name().c_str(), params_.sizeBytes,
                   std::strerror(errno));
    }
    data_ = static_cast<std::uint8_t *>(p);
    written_.assign(util::divCeil(params_.sizeBytes, kPageBytes * 64u), 0);
}

LocalStore::~LocalStore()
{
    if (data_)
        munmap(data_, params_.sizeBytes);
}

void
LocalStore::checkRange(LsAddr lsa, std::uint32_t size) const
{
    if (static_cast<std::uint64_t>(lsa) + size > params_.sizeBytes) {
        sim::fatal("%s: LS access [0x%x, +%u) out of the %u-byte store",
                   name().c_str(), lsa, size, params_.sizeBytes);
    }
}

bool
LocalStore::anyWritten(LsAddr lsa, std::uint32_t size) const
{
    for (std::uint32_t pg = lsa / kPageBytes,
                       last = (lsa + size - 1) / kPageBytes;
         pg <= last; ++pg) {
        if (written_[pg / 64] >> (pg % 64) & 1)
            return true;
    }
    return false;
}

void
LocalStore::markWritten(LsAddr lsa, std::uint32_t size)
{
    for (std::uint32_t pg = lsa / kPageBytes,
                       last = (lsa + size - 1) / kPageBytes;
         pg <= last; ++pg)
        written_[pg / 64] |= std::uint64_t{1} << (pg % 64);
}

std::uint32_t
LocalStore::writtenPages() const
{
    std::uint32_t n = 0;
    for (std::uint64_t w : written_)
        n += static_cast<std::uint32_t>(std::popcount(w));
    return n;
}

void
LocalStore::write(LsAddr lsa, const void *src, std::uint32_t size)
{
    checkRange(lsa, size);
    if (size == 0)
        return;
    // Unwritten pages already read as zero; writing zeros to them
    // would only fault the pages in.
    if (!anyWritten(lsa, size) && util::isAllZero(src, size))
        return;
    markWritten(lsa, size);
    std::memcpy(data_ + lsa, src, size);
}

void
LocalStore::read(LsAddr lsa, void *dst, std::uint32_t size) const
{
    checkRange(lsa, size);
    std::memcpy(dst, data_ + lsa, size);
}

void
LocalStore::fill(LsAddr lsa, std::uint8_t value, std::uint32_t size)
{
    checkRange(lsa, size);
    if (size == 0)
        return;
    markWritten(lsa, size);
    std::memset(data_ + lsa, value, size);
}

std::uint8_t
LocalStore::byteAt(LsAddr lsa) const
{
    checkRange(lsa, 1);
    return data_[lsa];
}

Tick
LocalStore::reservePort(std::uint32_t bytes)
{
    Tick service = util::divCeil(bytes, params_.bytesPerCycle);
    Tick start = std::max(curTick(), portFreeAt_);
    portFreeAt_ = start + service;
    bytesAccessed_ += bytes;
    return portFreeAt_ + params_.accessLatency;
}

} // namespace cellbw::spe
