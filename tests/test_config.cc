/** @file Tests for CellConfig option registration and parsing. */

#include <gtest/gtest.h>

#include <string>

#include "cell/config.hh"
#include "test_util.hh"

using namespace cellbw;

namespace
{

cell::CellConfig
parse(std::vector<const char *> args)
{
    util::Options opts("test", "test");
    cell::CellConfig::registerOptions(opts);
    args.insert(args.begin(), "test");
    if (!opts.parse(static_cast<int>(args.size()), args.data()))
        sim::fatal("parse failed");
    return cell::CellConfig::fromOptions(opts);
}

} // namespace

TEST(CellConfig, DefaultsMatchThePaperMachine)
{
    cell::CellConfig cfg;
    EXPECT_DOUBLE_EQ(cfg.clock.cpuHz, 2.1e9);
    EXPECT_EQ(cfg.numSpes, 8u);
    EXPECT_EQ(cfg.numChips, 1u);
    EXPECT_EQ(cfg.eib.numRings, 4u);
    EXPECT_EQ(cfg.spe.mfc.queueDepth, 16u);
    EXPECT_NEAR(cfg.rampPeakGBps(), 16.8, 1e-9);
    EXPECT_NEAR(cfg.lsPeakGBps(), 33.6, 1e-9);
    EXPECT_NEAR(cfg.pairPeakGBps(), 33.6, 1e-9);
    EXPECT_NEAR(cfg.memory.ioLink.bytesPerTick * cfg.clock.cpuHz / 1e9,
                7.0, 1e-6);
}

TEST(CellConfig, FlagsReachTheRightFields)
{
    auto cfg = parse({"--cpu-ghz=3.2", "--spes=4", "--rings=8",
                      "--mfc-queue-depth=8", "--mfc-mem-tokens=10",
                      "--dma-elem-overhead=48", "--bank0-gbps=20",
                      "--io-gbps=5", "--numa=local",
                      "--affinity=paired", "--no-flow-pinning",
                      "--chips=2"});
    EXPECT_DOUBLE_EQ(cfg.clock.cpuHz, 3.2e9);
    EXPECT_EQ(cfg.numSpes, 4u);
    EXPECT_EQ(cfg.numChips, 2u);
    EXPECT_EQ(cfg.eib.numRings, 8u);
    EXPECT_EQ(cfg.spe.mfc.queueDepth, 8u);
    EXPECT_EQ(cfg.spe.mfc.memoryTokens, 10u);
    EXPECT_EQ(cfg.spe.mfc.elemOverheadBus, 48u);
    EXPECT_NEAR(cfg.memory.bank0.bytesPerTick * cfg.clock.cpuHz / 1e9,
                20.0, 1e-6);
    EXPECT_NEAR(cfg.memory.ioLink.bytesPerTick * cfg.clock.cpuHz / 1e9,
                5.0, 1e-6);
    EXPECT_EQ(cfg.numa.kind, mem::NumaPolicy::Kind::LocalOnly);
    EXPECT_EQ(cfg.affinity, cell::AffinityPolicy::Paired);
    EXPECT_FALSE(cfg.eib.flowPinning);
}

TEST(CellConfig, NumaShareFlagControlsInterleave)
{
    auto cfg = parse({"--numa=interleave", "--bank0-share=0.8"});
    EXPECT_EQ(cfg.numa.kind, mem::NumaPolicy::Kind::Interleave);
    EXPECT_DOUBLE_EQ(cfg.numa.bank0Share, 0.8);
    auto remote = parse({"--numa=remote"});
    EXPECT_EQ(remote.numa.kind, mem::NumaPolicy::Kind::RemoteOnly);
}

TEST(CellConfig, BadValuesAreFatal)
{
    EXPECT_THROW(parse({"--spes=0"}), sim::FatalError);
    EXPECT_THROW(parse({"--spes=9"}), sim::FatalError);
    // 17 chips would overflow the flight handle's 4-bit chip field.
    EXPECT_THROW(parse({"--chips=17"}), sim::FatalError);
    // More blades than chips would leave a blade empty; five chips on
    // two blades would need three on one blade.
    EXPECT_THROW(parse({"--chips=2", "--blades=3"}), sim::FatalError);
    EXPECT_THROW(parse({"--chips=5", "--blades=2"}), sim::FatalError);
    EXPECT_THROW(parse({"--numa=bogus"}), sim::FatalError);
    EXPECT_THROW(parse({"--affinity=bogus"}), sim::FatalError);
    EXPECT_THROW(parse({"--placement=bogus"}), sim::FatalError);
    // Two chips raise the SPE ceiling.
    auto cfg = parse({"--chips=2", "--spes=16"});
    EXPECT_EQ(cfg.numSpes, 16u);
}

TEST(CellConfig, NonFiniteOrOutOfRangeMachineValuesAreFatal)
{
    // Each rejection is a FatalError that names the offending flag.
    auto expectFatalNaming = [](std::vector<const char *> args,
                                const std::string &flag) {
        try {
            parse(args);
            ADD_FAILURE() << args[0] << " was accepted";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(flag),
                      std::string::npos)
                << args[0] << ": " << e.what();
        }
    };
    for (const char *bad : {"--cpu-ghz=nan", "--cpu-ghz=0",
                            "--cpu-ghz=-2.1", "--cpu-ghz=inf",
                            "--cpu-ghz=1e300"})
        expectFatalNaming({bad}, "--cpu-ghz");
    const char *latencies[] = {"fault-delay-ns", "mem-latency-ns",
                               "mem-row-hit-ns", "mem-row-miss-ns",
                               "ioif-latency", "blade-latency"};
    for (const char *flag : latencies) {
        for (const char *value : {"nan", "-1", "inf", "1e300"}) {
            std::string arg = std::string("--") + flag + "=" + value;
            expectFatalNaming({arg.c_str()}, std::string("--") + flag);
        }
    }
    const char *rates[] = {"bank0-gbps", "bank1-gbps", "io-gbps",
                           "blade-link-gbps"};
    for (const char *flag : rates) {
        for (const char *value : {"nan", "0", "-1", "inf"}) {
            std::string arg = std::string("--") + flag + "=" + value;
            expectFatalNaming({arg.c_str()}, std::string("--") + flag);
        }
    }
    for (const char *bad : {"--bank0-share=nan", "--bank0-share=-0.1",
                            "--bank0-share=1.5"})
        expectFatalNaming({bad}, "--bank0-share");
    // A component of size zero is rejected while parsing, before any
    // experiment prints its header.
    for (const char *flag : {"rings", "mfc-queue-depth", "mfc-mem-tokens",
                             "mfc-ls-lines"}) {
        const std::string arg = std::string("--") + flag + "=0";
        expectFatalNaming({arg.c_str()}, std::string("--") + flag);
    }
    // Zero latency is a legal (if idealized) machine.
    auto zero = parse({"--mem-latency-ns=0", "--fault-delay-ns=0"});
    EXPECT_EQ(zero.memory.bank0.accessLatency, 0u);
    EXPECT_EQ(zero.spe.mfc.faults.delayTicks, 0u);
}

TEST(CellConfig, ClusterFlagsReachTheRightFields)
{
    auto cfg = parse({"--chips=4", "--blades=2", "--spes=32",
                      "--affinity=linear",
                      "--blade-link-gbps=4", "--blade-latency=200",
                      "--ioif-latency=50"});
    EXPECT_EQ(cfg.numChips, 4u);
    EXPECT_EQ(cfg.numBlades, 2u);
    EXPECT_NEAR(cfg.memory.bladeLink.bytesPerTick * cfg.clock.cpuHz / 1e9,
                4.0, 1e-6);
    EXPECT_EQ(cfg.memory.bladeLink.crossingLatency,
              cfg.clock.fromNs(200.0));
    EXPECT_EQ(cfg.memory.ioLink.crossingLatency, cfg.clock.fromNs(50.0));
    EXPECT_EQ(cfg.memory.numChips, 4u);
    EXPECT_EQ(cfg.memory.numBlades, 2u);

    // Defaults: blades auto-derive.
    auto def = parse({"--chips=8", "--spes=64"});
    EXPECT_EQ(def.numBlades, 0u);
}

TEST(CellConfig, AffinityNamesRoundTrip)
{
    EXPECT_EQ(cell::affinityFromString("random"),
              cell::AffinityPolicy::Random);
    EXPECT_EQ(cell::affinityFromString("LINEAR"),
              cell::AffinityPolicy::Linear);
    EXPECT_STREQ(cell::toString(cell::AffinityPolicy::Paired), "paired");
}

TEST(CellConfig, RowTimingFlagsPlumbToBothBanks)
{
    auto off = parse({});
    EXPECT_FALSE(off.memory.bank0.rowTiming);
    EXPECT_FALSE(off.memory.bank1.rowTiming);
    EXPECT_EQ(off.memory.bank0.rowBytes, 2048u);

    auto cfg = parse({"--mem-row-timing", "--mem-row-hit-ns=20",
                      "--mem-row-miss-ns=60", "--mem-row-bytes=4096"});
    EXPECT_TRUE(cfg.memory.bank0.rowTiming);
    EXPECT_TRUE(cfg.memory.bank1.rowTiming);
    EXPECT_EQ(cfg.memory.bank0.rowBytes, 4096u);
    EXPECT_EQ(cfg.memory.bank1.rowBytes, 4096u);
    EXPECT_EQ(cfg.memory.bank0.rowHitLatency, cfg.clock.fromNs(20.0));
    EXPECT_EQ(cfg.memory.bank0.rowMissPenalty, cfg.clock.fromNs(60.0));
    EXPECT_EQ(cfg.memory.bank1.rowHitLatency,
              cfg.memory.bank0.rowHitLatency);
    EXPECT_EQ(cfg.memory.bank1.rowMissPenalty,
              cfg.memory.bank0.rowMissPenalty);
}
