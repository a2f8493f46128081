/**
 * @file
 * Time-domain conversions.
 *
 * The simulator's tick is one CPU cycle.  The EIB and the MFC data paths
 * run at half the CPU clock ("bus cycles").  All conversions live here
 * so that no model hard-codes 2.1 GHz.
 */

#ifndef CELLBW_SIM_CLOCK_HH
#define CELLBW_SIM_CLOCK_HH

#include <cstdint>

#include "util/types.hh"

namespace cellbw::sim
{

struct ClockSpec
{
    /** CPU frequency in Hz (paper machine: 2.1 GHz). */
    double cpuHz = 2.1e9;

    /** Bus (EIB) cycles are this many CPU cycles long. */
    Tick busPeriodTicks = 2;

    double seconds(Tick t) const { return static_cast<double>(t) / cpuHz; }

    Tick
    fromSeconds(double s) const
    {
        return static_cast<Tick>(s * cpuHz + 0.5);
    }

    Tick fromNs(double ns) const { return fromSeconds(ns * 1e-9); }

    /** Convert bus cycles to ticks. */
    Tick busCycles(Tick n) const { return n * busPeriodTicks; }

    /**
     * Bandwidth in decimal GB/s for @p bytes moved in @p ticks, the
     * figure of merit used throughout the paper.
     */
    double
    bandwidthGBps(std::uint64_t bytes, Tick ticks) const
    {
        if (ticks == 0)
            return 0.0;
        return static_cast<double>(bytes) / seconds(ticks) / 1e9;
    }
};

} // namespace cellbw::sim

#endif // CELLBW_SIM_CLOCK_HH
