#include "eib/eib.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stats/metrics.hh"
#include "util/align.hh"
#include "util/strings.hh"

namespace cellbw::eib
{

Eib::Eib(std::string name, sim::EventQueue &eq, const sim::ClockSpec &clock,
         const EibParams &params)
    : sim::SimObject(std::move(name), eq), clock_(clock), params_(params)
{
    if (params_.numRings == 0)
        sim::fatal("EIB needs at least one data ring");
    for (unsigned i = 0; i < params_.numRings; ++i) {
        // Even indices run clockwise, odd counter-clockwise, so any ring
        // count >= 2 has both directions available.
        RingDir dir = (i % 2 == 0) ? RingDir::Clockwise
                                   : RingDir::CounterClockwise;
        rings_.push_back(std::make_unique<Ring>(i, dir));
    }
}

double
Eib::rampPeakGBps() const
{
    double bus_hz = clock_.cpuHz / clock_.busPeriodTicks;
    return params_.bytesPerBusCycle * bus_hz / 1e9;
}

Tick
Eib::reserveTransfer(RampPos src, RampPos dst, std::uint32_t bytes)
{
    if (src >= numRamps || dst >= numRamps)
        sim::panic("EIB transfer with bad ramp (%u -> %u)", src, dst);
    if (src == dst)
        sim::panic("EIB transfer to self at ramp %u", src);
    if (bytes == 0)
        sim::panic("EIB transfer of zero bytes");

    unsigned cw = cwHops(src, dst);
    unsigned ccw = ccwHops(src, dst);
    unsigned best_hops = std::min(cw, ccw);

    Tick occ = clock_.busCycles(
        util::divCeil(bytes, params_.bytesPerBusCycle));
    Tick ready = curTick() + clock_.busCycles(params_.cmdLatencyBus);

    Tick hop_lat = clock_.busCycles(params_.hopLatencyBus);
    Ring *best = nullptr;
    Tick best_start = maxTick;
    unsigned n = static_cast<unsigned>(rings_.size());

    if (params_.flowPinning) {
        // Deterministic ring per flow: count the legal rings and hash
        // the (src, dst) pair onto one of them.
        unsigned legal = 0;
        for (unsigned k = 0; k < n; ++k) {
            unsigned dir_hops =
                (rings_[k]->direction() == RingDir::Clockwise) ? cw
                                                               : ccw;
            if (dir_hops == best_hops)
                ++legal;
        }
        unsigned pick = (src * 7 + dst * 3) % legal;
        for (unsigned k = 0; k < n; ++k) {
            Ring *r = rings_[k].get();
            unsigned dir_hops =
                (r->direction() == RingDir::Clockwise) ? cw : ccw;
            if (dir_hops != best_hops)
                continue;
            if (pick-- == 0) {
                best = r;
                best_start = std::max(
                    {r->earliestStart(src, dst, ready, hop_lat),
                     txFreeAt_[src], rxFreeAt_[dst]});
                break;
            }
        }
    } else {
        // Per-packet choice: the ring that can start earliest, rotating
        // preference among ties for fairness.
        for (unsigned k = 0; k < n; ++k) {
            Ring *r = rings_[(k + rrCounter_) % n].get();
            unsigned dir_hops =
                (r->direction() == RingDir::Clockwise) ? cw : ccw;
            // Only the shorter direction is legal (both on a tie).
            if (dir_hops != best_hops)
                continue;
            Tick start = r->earliestStart(src, dst, ready, hop_lat);
            start = std::max({start, txFreeAt_[src], rxFreeAt_[dst]});
            if (start < best_start) {
                best_start = start;
                best = r;
            }
        }
        ++rrCounter_;
    }
    if (!best)
        sim::panic("no legal ring for %s -> %s", rampName(src),
                   rampName(dst));

    best->reserve(src, dst, best_start, occ, hop_lat);
    txFreeAt_[src] = best_start + occ;
    rxFreeAt_[dst] = best_start + occ;
    contentionTicks_ += best_start - ready;
    bytesMoved_ += bytes;
    ++packets_;

    return best_start + occ +
           clock_.busCycles(params_.hopLatencyBus) * best_hops;
}

void
Eib::registerMetrics(stats::MetricsRegistry &reg,
                     const std::string &prefix) const
{
    reg.counter(prefix + ".packets").add(packets_);
    reg.counter(prefix + ".bytes_moved").add(bytesMoved_);
    reg.counter(prefix + ".contention_ticks").add(contentionTicks_);
    for (unsigned i = 0; i < rings_.size(); ++i)
        rings_[i]->registerMetrics(reg,
                                   prefix + util::format(".ring%u", i));
}

} // namespace cellbw::eib
