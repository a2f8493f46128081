/** @file Integration/property tests: the experiments reproduce the
 *        paper's qualitative results on small inputs. */

#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "core/runner.hh"
#include "core/worker_pool.hh"

using namespace cellbw;

namespace
{

cell::CellConfig
cfg()
{
    return cell::CellConfig{};
}

double
speMem(unsigned spes, core::DmaOp op, std::uint32_t elem,
       bool list = false, std::uint64_t seed = 1)
{
    cell::CellSystem sys(cfg(), seed);
    core::SpeMemConfig mc;
    mc.numSpes = spes;
    mc.op = op;
    mc.elemBytes = elem;
    mc.useList = list;
    mc.bytesPerSpe = 1 * util::MiB;
    return core::runSpeMem(sys, mc);
}

double
speSpe(core::SpeSpeMode mode, unsigned spes, std::uint32_t elem,
       bool list = false, unsigned syncEvery = 0, std::uint64_t seed = 1)
{
    cell::CellSystem sys(cfg(), seed);
    core::SpeSpeConfig sc;
    sc.mode = mode;
    sc.numSpes = spes;
    sc.elemBytes = elem;
    sc.useList = list;
    sc.syncEvery = syncEvery;
    sc.bytesPerStream = 1 * util::MiB;
    return core::runSpeSpe(sys, sc);
}

double
ppeBw(core::PpeStreamConfig c, std::uint64_t total = 1 * util::MiB)
{
    cell::CellSystem sys(cfg(), 1);
    c.totalBytes = total;
    return core::runPpeStream(sys, c);
}

} // namespace

/* --- Figure 8 shapes ------------------------------------------------ */

TEST(ExpSpeMem, SingleSpeSustainsAboutTenGBs)
{
    double bw = speMem(1, core::DmaOp::Get, 16 * 1024);
    EXPECT_NEAR(bw, 10.0, 1.5);
}

TEST(ExpSpeMem, PutMatchesGetForOneSpe)
{
    double get = speMem(1, core::DmaOp::Get, 16 * 1024);
    double put = speMem(1, core::DmaOp::Put, 16 * 1024);
    EXPECT_NEAR(put, get, 0.35 * get);
}

TEST(ExpSpeMem, TwoSpesNearlyDoubleOneSpe)
{
    double one = speMem(1, core::DmaOp::Get, 16 * 1024);
    double two = speMem(2, core::DmaOp::Get, 16 * 1024);
    EXPECT_GT(two, 1.6 * one);
    // Exceeds what a single bank ramp could provide: both banks in use.
    EXPECT_GT(two, 16.8 * 0.99);
}

TEST(ExpSpeMem, CopyIsAboutThirtyPercentOfPairPeakForOneSpe)
{
    double copy = speMem(1, core::DmaOp::Copy, 16 * 1024);
    EXPECT_NEAR(copy / 33.6, 0.30, 0.08);
}

TEST(ExpSpeMem, EightSpesDoNotBeatFourByMuch)
{
    double four = speMem(4, core::DmaOp::Get, 16 * 1024);
    double eight = speMem(8, core::DmaOp::Get, 16 * 1024);
    EXPECT_LT(eight, 1.1 * four);
}

class SpeMemElemSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SpeMemElemSweep, OneSpeIsFlatAboveHalfKilobyte)
{
    double bw = speMem(1, core::DmaOp::Get, GetParam());
    EXPECT_NEAR(bw, 10.0, 1.6);
}

INSTANTIATE_TEST_SUITE_P(Flat, SpeMemElemSweep,
                         ::testing::Values(512u, 1024u, 2048u, 4096u,
                                           8192u, 16384u));

TEST(ExpSpeMem, TinyElementsDegrade)
{
    double tiny = speMem(1, core::DmaOp::Get, 128);
    double big = speMem(1, core::DmaOp::Get, 4096);
    EXPECT_LT(tiny, 0.7 * big);
}

/* --- Figures 10/12/15 shapes ---------------------------------------- */

TEST(ExpSpeSpe, PairReachesThePeakAtOneKilobyte)
{
    double bw = speSpe(core::SpeSpeMode::Couples, 2, 1024);
    EXPECT_GT(bw, 0.95 * 33.6);
}

TEST(ExpSpeSpe, DmaElemCollapsesBelowOneKilobyte)
{
    double at1k = speSpe(core::SpeSpeMode::Couples, 2, 1024);
    double at128 = speSpe(core::SpeSpeMode::Couples, 2, 128);
    EXPECT_LT(at128, 0.35 * at1k);
}

TEST(ExpSpeSpe, DmaListIsFlatAcrossElementSizes)
{
    double at128 = speSpe(core::SpeSpeMode::Couples, 2, 128, true);
    double at16k = speSpe(core::SpeSpeMode::Couples, 2, 16384, true);
    EXPECT_NEAR(at128, at16k, 0.1 * at16k);
    EXPECT_GT(at128, 0.9 * 33.6);
}

TEST(ExpSpeSpe, DmaListBeatsDmaElemForSmallChunks)
{
    double elem = speSpe(core::SpeSpeMode::Couples, 2, 256);
    double list = speSpe(core::SpeSpeMode::Couples, 2, 256, true);
    EXPECT_GT(list, 2.0 * elem);
}

class SyncDelaySweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SyncDelaySweep, MoreDelayNeverHurts)
{
    auto elem = GetParam();
    double every1 = speSpe(core::SpeSpeMode::Couples, 2, elem, false, 1);
    double every4 = speSpe(core::SpeSpeMode::Couples, 2, elem, false, 4);
    double all = speSpe(core::SpeSpeMode::Couples, 2, elem, false, 0);
    EXPECT_LE(every1, every4 * 1.02);
    EXPECT_LE(every4, all * 1.02);
    EXPECT_GT(all, 1.5 * every1);   // and delaying really matters
}

INSTANTIATE_TEST_SUITE_P(Fig10, SyncDelaySweep,
                         ::testing::Values(1024u, 4096u, 16384u));

TEST(ExpSpeSpe, FourCouplesLoseToConflictsAndVaryWithPlacement)
{
    core::RepeatSpec spec{8, 100};
    core::Sweep sweep(spec);
    sweep.add(cfg(), [](cell::CellSystem &sys) {
        core::SpeSpeConfig sc;
        sc.numSpes = 8;
        sc.elemBytes = 4096;
        sc.bytesPerStream = 1 * util::MiB;
        return core::runSpeSpe(sys, sc);
    });
    const auto &d = sweep.result(0);
    EXPECT_LT(d.mean(), 0.85 * 134.4);      // loses to conflicts
    EXPECT_GT(d.mean(), 0.4 * 134.4);       // but not catastrophically
    EXPECT_GT(d.max() - d.min(), 10.0);     // placement spread
}

TEST(ExpSpeSpe, CycleIsWorseThanCouplesAtEightSpes)
{
    double couples = speSpe(core::SpeSpeMode::Couples, 8, 4096);
    double cycle = speSpe(core::SpeSpeMode::Cycle, 8, 4096);
    EXPECT_LT(cycle, couples);
}

TEST(ExpSpeSpe, TwoSpeCycleHitsThePeak)
{
    double bw = speSpe(core::SpeSpeMode::Cycle, 2, 4096);
    EXPECT_GT(bw, 0.95 * 33.6);
}

TEST(ExpSpeSpe, OddSpeCountIsFatal)
{
    cell::CellSystem sys(cfg(), 1);
    core::SpeSpeConfig sc;
    sc.numSpes = 3;
    EXPECT_THROW(core::runSpeSpe(sys, sc), sim::FatalError);
}

/* --- PPE shapes (Figures 3/4/6) -------------------------------------- */

TEST(ExpPpe, L1LoadHalfPeakAndElementScaling)
{
    double b8 = ppeBw(core::ppeL1Config(1, 8, ppe::MemOp::Load));
    double b16 = ppeBw(core::ppeL1Config(1, 16, ppe::MemOp::Load));
    double b4 = ppeBw(core::ppeL1Config(1, 4, ppe::MemOp::Load));
    EXPECT_NEAR(b8, 16.8, 0.5);
    EXPECT_NEAR(b16, 16.8, 0.5);
    EXPECT_NEAR(b4, 8.4, 0.4);
}

TEST(ExpPpe, L2StoreBeatsL2LoadTwofoldForOneThread)
{
    double load = ppeBw(core::ppeL2Config(1, 16, ppe::MemOp::Load));
    double store = ppeBw(core::ppeL2Config(1, 16, ppe::MemOp::Store));
    EXPECT_NEAR(store / load, 2.0, 0.5);
}

TEST(ExpPpe, TwoThreadsHelpL2SignificantlyButNotL1Loads)
{
    double l2a = ppeBw(core::ppeL2Config(1, 16, ppe::MemOp::Load));
    double l2b = ppeBw(core::ppeL2Config(2, 16, ppe::MemOp::Load));
    EXPECT_GT(l2b, 1.6 * l2a);
    double l1a = ppeBw(core::ppeL1Config(1, 8, ppe::MemOp::Load));
    double l1b = ppeBw(core::ppeL1Config(2, 8, ppe::MemOp::Load));
    EXPECT_NEAR(l1b, l1a, 0.15 * l1a);
}

TEST(ExpPpe, MemoryReadEqualsL2ReadAndWritesAreSlow)
{
    double l2r = ppeBw(core::ppeL2Config(1, 16, ppe::MemOp::Load));
    double memr = ppeBw(core::ppeMemConfig(1, 16, ppe::MemOp::Load),
                      2 * util::MiB);
    double memw = ppeBw(core::ppeMemConfig(1, 16, ppe::MemOp::Store),
                      2 * util::MiB);
    EXPECT_NEAR(memr, l2r, 0.25 * l2r);
    EXPECT_LT(memw, 6.0);
    EXPECT_LT(memw, memr);
}

TEST(ExpPpe, EverythingIsFarBelowSpeDma)
{
    double memr = ppeBw(core::ppeMemConfig(1, 16, ppe::MemOp::Load),
                      2 * util::MiB);
    double dma = speMem(2, core::DmaOp::Get, 16 * 1024);
    EXPECT_GT(dma, 2.5 * memr);
}

TEST(ExpPpe, BadThreadCountIsFatal)
{
    cell::CellSystem sys(cfg(), 1);
    core::PpeStreamConfig c;
    c.threads = 3;
    EXPECT_THROW(core::runPpeStream(sys, c), sim::FatalError);
}

/* --- SPU <-> LS ------------------------------------------------------ */

TEST(ExpSpuLs, QuadwordAccessReachesThePeak)
{
    cell::CellSystem sys(cfg(), 1);
    core::SpuLsConfig lc;
    lc.elemSize = 16;
    lc.totalBytes = 2 * util::MiB;
    double bw = core::runSpuLs(sys, lc);
    EXPECT_GT(bw, 0.95 * 33.6);
}

TEST(ExpSpuLs, ScalarAccessIsFarBelowPeak)
{
    cell::CellSystem sys(cfg(), 1);
    core::SpuLsConfig lc;
    lc.elemSize = 4;
    lc.totalBytes = 2 * util::MiB;
    double bw = core::runSpuLs(sys, lc);
    EXPECT_LT(bw, 0.3 * 33.6);
}

/* --- Random-access workloads (Chen & Bader) ------------------------- */

namespace
{

double
randChase(std::uint32_t elem, bool list, std::uint64_t seed = 1)
{
    cell::CellSystem sys(cfg(), seed);
    core::RandChaseConfig rc;
    rc.elemBytes = elem;
    rc.useList = list;
    rc.bytesPerSpe = 512 * util::KiB;
    return core::runRandChase(sys, rc);
}

} // namespace

TEST(ExpRand, ListGatherBeatsElementGetForSmallElements)
{
    EXPECT_GT(randChase(8, true), 1.5 * randChase(8, false));
    EXPECT_GT(randChase(32, true), 1.5 * randChase(32, false));
}

TEST(ExpRand, CrossoverClosesForLargeElements)
{
    double elem = randChase(2048, false);
    double list = randChase(2048, true);
    EXPECT_GT(elem, 0.8 * list);
    EXPECT_LT(elem, 1.25 * list);
}

TEST(ExpRand, GupsBandwidthGrowsWithGranule)
{
    auto gups = [](std::uint32_t elem) {
        cell::CellSystem sys(cfg(), 1);
        core::RandGupsConfig gc;
        gc.elemBytes = elem;
        gc.bytesPerSpe = 512 * util::KiB;
        return core::runRandGups(sys, gc);
    };
    double g8 = gups(8);
    double g64 = gups(64);
    EXPECT_GT(g64, 4.0 * g8);   // per-command cost amortizes
}

TEST(ExpRand, RowTimingModelPunishesRandomUpdates)
{
    auto gups = [](bool timing) {
        auto c = cfg();
        c.memory.bank0.rowTiming = timing;
        c.memory.bank1.rowTiming = timing;
        cell::CellSystem sys(c, 1);
        core::RandGupsConfig gc;
        gc.elemBytes = 64;
        gc.bytesPerSpe = 512 * util::KiB;
        return core::runRandGups(sys, gc);
    };
    // Every random update activates a new row; with the timing model on
    // the activate/precharge occupancy dominates.
    EXPECT_GT(gups(false), 3.0 * gups(true));
}

TEST(ExpRand, SamplesAreBitIdenticalAcrossJobs)
{
    auto body = [](cell::CellSystem &sys) {
        core::RandGupsConfig gc;
        gc.numSpes = 2;
        gc.elemBytes = 32;
        gc.bytesPerSpe = 256 * util::KiB;
        return core::runRandGups(sys, gc);
    };
    auto chase = [](cell::CellSystem &sys) {
        core::RandChaseConfig rc;
        rc.numSpes = 2;
        rc.useList = true;
        rc.bytesPerSpe = 256 * util::KiB;
        return core::runRandChase(sys, rc);
    };
    core::RepeatSpec spec{4, 42};
    core::WorkerPool pool(4);
    core::Sweep serial(spec);
    core::Sweep threaded(spec, &pool);
    for (core::Sweep *sweep : {&serial, &threaded}) {
        sweep->add(cfg(), body);
        sweep->add(cfg(), chase);
    }
    EXPECT_EQ(serial.result(0).samples(), threaded.result(0).samples());
    EXPECT_EQ(serial.result(1).samples(), threaded.result(1).samples());
}
