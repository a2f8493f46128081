#include "spe/local_store.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "sim/logging.hh"
#include "util/align.hh"

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

void
LocalStore::write(LsAddr lsa, const void *src, std::uint32_t size)
{
    checkRange(lsa, size);
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
