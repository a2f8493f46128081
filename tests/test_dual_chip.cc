/** @file Tests for the two-chip blade extension: cross-chip SPE pairs
 *        go through the 7 GB/s IOIF, the paper's closing warning. */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/experiments.hh"
#include "test_util.hh"

using namespace cellbw;

namespace
{

cell::CellConfig
twoChips(cell::AffinityPolicy aff = cell::AffinityPolicy::Linear)
{
    cell::CellConfig cfg;
    cfg.numChips = 2;
    cfg.affinity = aff;
    return cfg;
}

/** A pair transfer between logical SPE 0 and 1 at 4 KiB elements. */
double
pairBandwidth(cell::CellSystem &sys)
{
    core::SpeSpeConfig sc;
    sc.numSpes = 2;
    sc.elemBytes = 4096;
    sc.bytesPerStream = 1 * util::MiB;
    return core::runSpeSpe(sys, sc);
}

/** GB/s and simulated ticks of one run. */
struct Outcome
{
    double gbps;
    Tick ticks;
};

/**
 * Run @p body on a system of @p chips chips with every page on bank 0
 * and linear placement, so chip 0's SPEs never cross the blade.
 */
Outcome
chipLocalRun(unsigned chips,
             const std::function<double(cell::CellSystem &)> &body)
{
    cell::CellConfig cfg;
    cfg.numChips = chips;
    cfg.affinity = cell::AffinityPolicy::Linear;
    cfg.numa = mem::NumaPolicy::local();
    cell::CellSystem sys(cfg, 7);
    double gbps = body(sys);
    return {gbps, sys.now()};
}

} // namespace

TEST(DualChip, ChipLocalRunsMatchOneChip)
{
    // Differential gate on the shared routing stages: chip-local
    // traffic on a two-chip system runs exactly as on a single chip.
    std::vector<std::function<double(cell::CellSystem &)>> bodies;
    for (auto op : {core::DmaOp::Get, core::DmaOp::Put}) {
        bodies.push_back([op](cell::CellSystem &sys) {
            core::SpeMemConfig mc;
            mc.numSpes = 4;
            mc.op = op;
            mc.bytesPerSpe = 256 * util::KiB;
            return core::runSpeMem(sys, mc);
        });
    }
    bodies.push_back([](cell::CellSystem &sys) {
        core::SpeSpeConfig sc;
        sc.numSpes = 4;
        sc.bytesPerStream = 256 * util::KiB;
        return core::runSpeSpe(sys, sc);
    });
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        Outcome one = chipLocalRun(1, bodies[i]);
        Outcome two = chipLocalRun(2, bodies[i]);
        ASSERT_GT(one.gbps, 0.0) << "body " << i;
        EXPECT_EQ(one.gbps, two.gbps) << "body " << i;
        EXPECT_EQ(one.ticks, two.ticks) << "body " << i;
    }
}

TEST(DualChip, SixteenSpesComeUp)
{
    auto cfg = twoChips();
    cfg.numSpes = 16;
    cell::CellSystem sys(cfg, 1);
    EXPECT_EQ(sys.numSpes(), 16u);
    EXPECT_EQ(sys.numChips(), 2u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(sys.chipOf(i), 0u);
    for (unsigned i = 8; i < 16; ++i)
        EXPECT_EQ(sys.chipOf(i), 1u);
    EXPECT_THROW(sys.eib(2), sim::FatalError);
}

TEST(DualChip, SingleChipRejectsMoreThanEightSpes)
{
    cell::CellConfig cfg;
    cfg.numSpes = 9;
    EXPECT_THROW(cell::CellSystem(cfg, 1), sim::FatalError);
}

TEST(DualChip, CrossChipDmaDeliversData)
{
    auto cfg = twoChips();
    cfg.numSpes = 16;
    cell::CellSystem sys(cfg, 1);
    // Logical 0 (chip 0) GETs from logical 8 (chip 1).
    sys.spe(8).ls().fill(0, 0x7D, 16 * 1024);
    auto prog_fn = [&]() -> sim::Task {
        auto &s = sys.spe(0);
        s.mfc().get(0, sys.lsEa(8, 0), 16 * 1024, 0);
        co_await s.mfc().tagWait(1u << 0);
    };
    sys.launch(prog_fn());
    sys.run();
    EXPECT_EQ(sys.spe(0).ls().byteAt(0), 0x7D);
    EXPECT_EQ(sys.spe(0).ls().byteAt(16 * 1024 - 1), 0x7D);
    // The data crossed the blade toward chip 0 (the Inbound lane;
    // lanes are named from chip 0's viewpoint).
    EXPECT_EQ(sys.memory().ioLink().bytesSent(mem::IoLink::Dir::Inbound),
              16u * 1024u);
    EXPECT_EQ(sys.memory().ioLink().bytesSent(
                  mem::IoLink::Dir::Outbound), 0u);
    // Both chips' EIBs carried it.
    EXPECT_GT(sys.eib(0).bytesMoved(), 0u);
    EXPECT_GT(sys.eib(1).bytesMoved(), 0u);
}

TEST(DualChip, CrossChipPairIsIoifLimited)
{
    // Same-chip pair: linear placement puts logical 0,1 on chip 0.
    auto cfg_same = twoChips();
    cfg_same.numSpes = 16;
    cell::CellSystem same(cfg_same, 1);
    ASSERT_EQ(same.chipOf(0), same.chipOf(1));
    double bw_same = pairBandwidth(same);

    // Cross-chip pair: put logical 1 on chip 1 by using 2 SPEs with a
    // handcrafted system: logical 0 -> phys 0 (chip 0), logical 1 ->
    // phys 8 (chip 1).  Random placements with seed search.
    double bw_cross = 0.0;
    for (std::uint64_t seed = 1; seed < 64; ++seed) {
        auto cfg = twoChips(cell::AffinityPolicy::Random);
        cfg.numSpes = 2;
        cell::CellSystem sys(cfg, seed);
        if (sys.chipOf(0) == sys.chipOf(1))
            continue;
        bw_cross = pairBandwidth(sys);
        break;
    }
    ASSERT_GT(bw_cross, 0.0) << "no cross-chip placement found";

    EXPECT_GT(bw_same, 0.9 * 33.6);
    // The cross-chip pair is capped by the IOIF: well under half the
    // on-chip peak, and no more than the two directions' 2 x 7 GB/s.
    EXPECT_LT(bw_cross, 15.0);
    EXPECT_GT(bw_cross, 3.0);
}

TEST(DualChip, MemoryOnOwnChipIsLocal)
{
    auto cfg = twoChips();
    cfg.numSpes = 16;
    cfg.numa = mem::NumaPolicy::remote();   // all pages on bank 1
    cell::CellSystem sys(cfg, 1);
    // An SPE on chip 1 reading bank 1 must not cross the blade.
    EffAddr buf = sys.malloc(64 * 1024);
    auto prog_fn = [&]() -> sim::Task {
        auto &s = sys.spe(8);
        for (unsigned off = 0; off < 64 * 1024; off += 16 * 1024) {
            co_await s.mfc().queueSpace();
            s.mfc().get(off, buf + off, 16 * 1024, 0);
        }
        co_await s.mfc().tagWait(1u << 0);
    };
    sys.launch(prog_fn());
    sys.run();
    EXPECT_EQ(sys.memory().ioLink().bytesSent(
                  mem::IoLink::Dir::Inbound), 0u);
    EXPECT_EQ(sys.memory().ioLink().bytesSent(
                  mem::IoLink::Dir::Outbound), 0u);
    EXPECT_EQ(sys.memory().bank(1).bytesServiced(), 64u * 1024u);
}

TEST(DualChip, PairedAffinityKeepsPairsOnOneChip)
{
    auto cfg = twoChips(cell::AffinityPolicy::Paired);
    cfg.numSpes = 16;
    cell::CellSystem sys(cfg, 1);
    for (unsigned p = 0; p < 8; ++p) {
        EXPECT_EQ(sys.chipOf(2 * p), sys.chipOf(2 * p + 1));
        EXPECT_EQ(eib::shortestHops(sys.rampOf(2 * p),
                                    sys.rampOf(2 * p + 1)), 1u);
    }
}

TEST(DualChip, SixteenSpeCouplesScaleAcrossChips)
{
    // With paired affinity all 8 couples are chip-local: aggregate
    // bandwidth approaches 2 chips x 4 couples x 33.6.
    auto cfg = twoChips(cell::AffinityPolicy::Paired);
    cfg.numSpes = 16;
    cell::CellSystem sys(cfg, 1);
    core::SpeSpeConfig sc;
    sc.numSpes = 16;
    sc.elemBytes = 4096;
    sc.bytesPerStream = 512 * util::KiB;
    double bw = core::runSpeSpe(sys, sc);
    EXPECT_GT(bw, 0.9 * 16 * 16.8);
}
