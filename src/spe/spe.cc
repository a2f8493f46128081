#include "spe/spe.hh"

#include "sim/logging.hh"
#include "util/align.hh"
#include "util/strings.hh"

namespace cellbw::spe
{

Spe::Spe(std::string name, sim::EventQueue &eq, const sim::ClockSpec &clock,
         const SpeParams &params, unsigned logicalIndex)
    : sim::SimObject(std::move(name), eq), logicalIndex_(logicalIndex)
{
    ls_ = std::make_unique<LocalStore>(this->name() + ".ls", eq, params.ls);
    mfc_ = std::make_unique<Mfc>(this->name() + ".mfc", eq, clock,
                                 params.mfc, logicalIndex);
    spu_ = std::make_unique<Spu>(this->name() + ".spu", eq, params.spu,
                                 *ls_);
}

void
Spe::setPhysicalSpe(unsigned phys, unsigned rampPos)
{
    physicalSpe_ = phys;
    rampPos_ = rampPos;
}

LsAddr
Spe::lsAlloc(std::uint32_t bytes, std::uint32_t align)
{
    auto base = static_cast<std::uint32_t>(util::roundUp(lsBrk_, align));
    if (static_cast<std::uint64_t>(base) + bytes > ls_->size()) {
        sim::fatal("%s: LS allocator out of space (%s requested, %u used)",
                   name().c_str(), util::bytesToString(bytes).c_str(),
                   lsBrk_);
    }
    lsBrk_ = base + bytes;
    return base;
}

} // namespace cellbw::spe
