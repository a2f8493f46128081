#include "cell/config.hh"

#include <cmath>

#include "sim/logging.hh"
#include "util/strings.hh"

namespace cellbw::cell
{

namespace
{

double
bytesPerTick(double gbps, double cpuHz)
{
    return gbps * 1e9 / cpuHz;
}

/** Read the bandwidth flag @p flag (GB/s) as bytes per tick at
 *  @p cpuHz: it must be finite and > 0. */
double
rateBytesPerTick(const util::Options &opts, const char *flag,
                 double cpuHz)
{
    double gbps = opts.getDouble(flag);
    if (!std::isfinite(gbps) || gbps <= 0.0)
        sim::fatal("--%s must be finite and > 0 (got %g)", flag, gbps);
    return bytesPerTick(gbps, cpuHz);
}

/** Read the latency flag @p flag (ns) as ticks of @p clock: it must be
 *  finite, >= 0 and small enough for a 64-bit tick count. */
Tick
latencyTicks(const util::Options &opts, const char *flag,
             const sim::ClockSpec &clock)
{
    double ns = opts.getDouble(flag);
    if (!std::isfinite(ns) || ns < 0.0)
        sim::fatal("--%s must be finite and >= 0 (got %g)", flag, ns);
    if (ns * 1e-9 * clock.cpuHz >= 0x1p63) {
        sim::fatal("--%s %g ns overflows the tick count at %g GHz", flag,
                   ns, clock.cpuHz / 1e9);
    }
    return clock.fromNs(ns);
}

} // namespace

CellConfig::CellConfig()
{
    // Paper machine: 2.1 GHz, XDR banks.  A bank sustains ~14 GB/s of
    // its 16.8 GB/s ramp peak (refresh & co); its access latency is set
    // so that one MFC's 16-line window sustains ~10 GB/s, the paper's
    // single-SPE measurement.
    memory.bank0.bytesPerTick = bytesPerTick(15.5, clock.cpuHz);
    memory.bank1.bytesPerTick = bytesPerTick(15.5, clock.cpuHz);
    memory.bank0.accessLatency = clock.fromNs(110.0);
    memory.bank1.accessLatency = clock.fromNs(110.0);
    memory.ioLink.bytesPerTick = bytesPerTick(7.0, clock.cpuHz);
    memory.ioLink.crossingLatency = clock.fromNs(40.0);
    // Inter-blade links are an external fabric: narrower and farther
    // than the on-blade IOIF (think an InfiniBand-class interconnect).
    memory.bladeLink.bytesPerTick = bytesPerTick(2.0, clock.cpuHz);
    memory.bladeLink.crossingLatency = clock.fromNs(400.0);
}

double
CellConfig::rampPeakGBps() const
{
    double bus_hz = clock.cpuHz / clock.busPeriodTicks;
    return eib.bytesPerBusCycle * bus_hz / 1e9;
}

double
CellConfig::lsPeakGBps() const
{
    return spe.ls.bytesPerCycle * clock.cpuHz / 1e9;
}

double
CellConfig::pairPeakGBps() const
{
    return 2.0 * rampPeakGBps();
}

AffinityPolicy
affinityFromString(const std::string &s)
{
    std::string v = util::toLower(s);
    if (v == "random")
        return AffinityPolicy::Random;
    if (v == "linear")
        return AffinityPolicy::Linear;
    if (v == "paired")
        return AffinityPolicy::Paired;
    sim::fatal("unknown affinity policy '%s' "
               "(expected random|linear|paired)", s.c_str());
}

const char *
toString(AffinityPolicy a)
{
    switch (a) {
      case AffinityPolicy::Random:
        return "random";
      case AffinityPolicy::Linear:
        return "linear";
      case AffinityPolicy::Paired:
        return "paired";
    }
    return "?";
}

void
CellConfig::registerOptions(util::Options &opts)
{
    opts.addDouble("cpu-ghz", 2.1, "CPU clock in GHz");
    opts.addUint("chips", 1, "Cell chips with active SPEs (1-16)");
    opts.addUint("blades", 0,
                 "blades holding the chips (0 = two chips per blade)");
    opts.addUint("spes", 8, "number of SPEs");
    opts.addUint("rings", 4, "EIB data rings");
    opts.addUint("eib-cmd-latency", 20, "EIB command phase, bus cycles");
    opts.addUint("mfc-queue-depth", 16, "MFC command queue entries");
    opts.addUint("mfc-mem-tokens", 18,
                 "MFC outstanding 128B lines to main memory");
    opts.addUint("mfc-ls-lines", 64,
                 "MFC outstanding 128B lines to LS apertures");
    opts.addUint("dma-elem-overhead", 24,
                 "MFC issue occupancy per DMA command, bus cycles");
    opts.addUint("dma-list-elem-overhead", 2,
                 "extra issue occupancy per DMA-list element, bus cycles");
    opts.addDouble("bank0-gbps", 15.5, "local XDR bank sustained GB/s");
    opts.addDouble("bank1-gbps", 15.5, "remote XDR bank sustained GB/s");
    opts.addDouble("io-gbps", 7.0, "IOIF link GB/s per direction");
    opts.addDouble("ioif-latency", 40.0,
                   "one-way IOIF crossing latency, ns");
    opts.addDouble("blade-link-gbps", 2.0,
                   "inter-blade link GB/s per direction");
    opts.addDouble("blade-latency", 400.0,
                   "one-way inter-blade crossing latency, ns");
    opts.addDouble("mem-latency-ns", 110.0, "bank access latency, ns");
    opts.addBool("mem-row-timing", false,
                 "timing row-buffer model (open page): row hits pay "
                 "CAS only, each activate adds bank occupancy");
    opts.addDouble("mem-row-hit-ns", 30.0,
                   "row-hit (CAS-only) completion latency, ns");
    opts.addDouble("mem-row-miss-ns", 80.0,
                   "precharge+activate occupancy per row miss, ns");
    opts.addUint("mem-row-bytes", 2048, "DRAM row (page) size in bytes");
    opts.addDouble("bank0-share", 0.65,
                   "fraction of interleaved pages on the local bank");
    opts.addString("numa", "interleave",
                   "page placement: interleave|local|remote");
    opts.addBool("flow-pinning", true,
                 "pin each flow to one EIB ring (vs per-packet choice)");
    opts.addString("affinity", "random",
                   "SPE placement policy: random|linear|paired");
    opts.addDouble("fault-drop-rate", 0.0,
                   "P(a DMA command is silently dropped)");
    opts.addDouble("fault-corrupt-rate", 0.0,
                   "P(a DMA command's payload is corrupted in flight)");
    opts.addDouble("fault-delay-rate", 0.0,
                   "P(a DMA command's completion is delayed)");
    opts.addDouble("fault-delay-ns", 950.0,
                   "extra completion latency of a delayed command, ns");
    opts.addUint("fault-seed", 1,
                 "base seed of the fault-injection generators");
    opts.addBool("verify", false,
                 "cross-check every DMA against the backing store");
    opts.addBool("sim-profile", false,
                 "book per-component event counts and self-time into "
                 "the report");
}

CellConfig
CellConfig::fromOptions(const util::Options &opts)
{
    CellConfig cfg;
    const double ghz = opts.getDouble("cpu-ghz");
    cfg.clock.cpuHz = ghz * 1e9;
    if (!std::isfinite(cfg.clock.cpuHz) || cfg.clock.cpuHz <= 0.0)
        sim::fatal("--cpu-ghz must be finite and > 0 (got %g)", ghz);
    cfg.numChips = static_cast<unsigned>(opts.getUint("chips"));
    if (cfg.numChips < 1) {
        sim::fatal("--chips must be at least 1");
    } else if (cfg.numChips > 16) {
        // The flight arena packs the chip index into bits 28-31 of a
        // 32-bit DMA handle (CellSystem::kChipShift), so the handle's
        // chip field caps the cluster at 16 chips.
        sim::fatal("--chips %u exceeds the flight handle's 4-bit chip "
                   "field (max 16 chips)", cfg.numChips);
    }
    cfg.numBlades = static_cast<unsigned>(opts.getUint("blades"));
    {
        auto shape = eib::ClusterShape::of(cfg.numChips, cfg.numBlades);
        if (!shape.valid()) {
            sim::fatal("--blades %u cannot hold %u chips (blades carry "
                       "one or two chips each and none may be empty)",
                       cfg.numBlades, cfg.numChips);
        }
    }
    cfg.numSpes = static_cast<unsigned>(opts.getUint("spes"));
    if (cfg.numSpes == 0 ||
        cfg.numSpes > cfg.numChips * eib::numPhysicalSpes) {
        sim::fatal("--spes must be 1..%u with %u chip(s)",
                   cfg.numChips * eib::numPhysicalSpes, cfg.numChips);
    }
    // Components need at least one of each; say so before any output.
    for (const char *flag : {"rings", "mfc-queue-depth", "mfc-mem-tokens",
                             "mfc-ls-lines"}) {
        if (opts.getUint(flag) == 0)
            sim::fatal("--%s must be at least 1", flag);
    }
    cfg.eib.numRings = static_cast<unsigned>(opts.getUint("rings"));
    cfg.eib.cmdLatencyBus = opts.getUint("eib-cmd-latency");
    cfg.spe.mfc.queueDepth =
        static_cast<unsigned>(opts.getUint("mfc-queue-depth"));
    cfg.spe.mfc.memoryTokens =
        static_cast<unsigned>(opts.getUint("mfc-mem-tokens"));
    cfg.spe.mfc.lsLines =
        static_cast<unsigned>(opts.getUint("mfc-ls-lines"));
    cfg.spe.mfc.elemOverheadBus = opts.getUint("dma-elem-overhead");
    cfg.spe.mfc.listElemOverheadBus =
        opts.getUint("dma-list-elem-overhead");

    cfg.memory.bank0.bytesPerTick =
        rateBytesPerTick(opts, "bank0-gbps", cfg.clock.cpuHz);
    cfg.memory.bank1.bytesPerTick =
        rateBytesPerTick(opts, "bank1-gbps", cfg.clock.cpuHz);
    cfg.memory.ioLink.bytesPerTick =
        rateBytesPerTick(opts, "io-gbps", cfg.clock.cpuHz);
    cfg.memory.ioLink.crossingLatency =
        latencyTicks(opts, "ioif-latency", cfg.clock);
    cfg.memory.bladeLink.bytesPerTick =
        rateBytesPerTick(opts, "blade-link-gbps", cfg.clock.cpuHz);
    cfg.memory.bladeLink.crossingLatency =
        latencyTicks(opts, "blade-latency", cfg.clock);
    cfg.memory.numChips = cfg.numChips;
    cfg.memory.numBlades = cfg.numBlades;
    cfg.memory.bank0.accessLatency =
        latencyTicks(opts, "mem-latency-ns", cfg.clock);
    cfg.memory.bank1.accessLatency = cfg.memory.bank0.accessLatency;
    cfg.memory.bank0.rowTiming = opts.getBool("mem-row-timing");
    cfg.memory.bank0.rowHitLatency =
        latencyTicks(opts, "mem-row-hit-ns", cfg.clock);
    cfg.memory.bank0.rowMissPenalty =
        latencyTicks(opts, "mem-row-miss-ns", cfg.clock);
    cfg.memory.bank0.rowBytes = opts.getUint("mem-row-bytes");
    cfg.memory.bank1.rowTiming = cfg.memory.bank0.rowTiming;
    cfg.memory.bank1.rowHitLatency = cfg.memory.bank0.rowHitLatency;
    cfg.memory.bank1.rowMissPenalty = cfg.memory.bank0.rowMissPenalty;
    cfg.memory.bank1.rowBytes = cfg.memory.bank0.rowBytes;

    const std::string &numa = opts.getString("numa");
    if (numa == "interleave") {
        const double share = opts.getDouble("bank0-share");
        if (!(share >= 0.0 && share <= 1.0))
            sim::fatal("--bank0-share must be in [0, 1] (got %g)", share);
        cfg.numa = mem::NumaPolicy::interleave(share);
    } else if (numa == "local") {
        cfg.numa = mem::NumaPolicy::local();
    } else if (numa == "remote") {
        cfg.numa = mem::NumaPolicy::remote();
    } else {
        sim::fatal("unknown numa policy '%s'", numa.c_str());
    }

    cfg.eib.flowPinning = opts.getBool("flow-pinning");
    cfg.affinity = affinityFromString(opts.getString("affinity"));

    auto &faults = cfg.spe.mfc.faults;
    faults.dropRate = opts.getDouble("fault-drop-rate");
    faults.corruptRate = opts.getDouble("fault-corrupt-rate");
    faults.delayRate = opts.getDouble("fault-delay-rate");
    faults.delayTicks = latencyTicks(opts, "fault-delay-ns", cfg.clock);
    faults.seed = opts.getUint("fault-seed");
    if (faults.dropRate < 0.0 || faults.corruptRate < 0.0 ||
        faults.delayRate < 0.0 ||
        faults.dropRate + faults.corruptRate + faults.delayRate > 1.0) {
        sim::fatal("--fault-*-rate values must be >= 0 and sum to <= 1");
    }
    cfg.verify = opts.getBool("verify");
    cfg.simProfile = opts.getBool("sim-profile");
    return cfg;
}

} // namespace cellbw::cell
