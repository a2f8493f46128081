/** @file Tests for the repeat runner, the report helpers and the
 *        experiment op names. */

#include <gtest/gtest.h>

#include "core/report.hh"
#include "core/runner.hh"
#include "core/experiments.hh"

using namespace cellbw;

TEST(Runner, RunsExactlyNTimes)
{
    cell::CellConfig cfg;
    int calls = 0;
    core::RepeatSpec spec{5, 7};
    // The body mutates `calls`, so run inline (no pool).
    core::Sweep sweep(spec);
    sweep.add(cfg, [&](cell::CellSystem &) {
        return static_cast<double>(++calls);
    });
    const auto &d = sweep.result(0);
    EXPECT_EQ(calls, 5);
    EXPECT_EQ(d.count(), 5u);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 5.0);
}

TEST(Runner, SeedsProducePlacementVariety)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec{6, 11};
    std::vector<std::vector<std::uint32_t>> placements;
    // The body appends to `placements`, so run inline (no pool).
    core::Sweep sweep(spec);
    sweep.add(cfg, [&](cell::CellSystem &sys) {
        placements.push_back(sys.placement());
        return 0.0;
    });
    bool any_different = false;
    for (std::size_t i = 1; i < placements.size(); ++i)
        any_different |= placements[i] != placements[0];
    EXPECT_TRUE(any_different);
}

TEST(Runner, SameSeedIsDeterministic)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec{2, 21};
    auto body = [](cell::CellSystem &sys) {
        core::SpeSpeConfig sc;
        sc.numSpes = 4;
        sc.elemBytes = 4096;
        sc.bytesPerStream = 256 * util::KiB;
        return core::runSpeSpe(sys, sc);
    };
    core::Sweep sweep(spec);
    sweep.add(cfg, body);
    sweep.add(cfg, body);
    EXPECT_EQ(sweep.result(0).samples(), sweep.result(1).samples());
}

TEST(Report, ElemSweepMatchesThePaper)
{
    auto sizes = core::elemSweepSizes();
    ASSERT_EQ(sizes.size(), 8u);
    EXPECT_EQ(sizes.front(), 128u);
    EXPECT_EQ(sizes.back(), 16u * 1024u);
    EXPECT_EQ(core::ppeElemSizes(),
              (std::vector<unsigned>{1, 2, 4, 8, 16}));
}

TEST(Report, ElemLabels)
{
    EXPECT_EQ(core::elemLabel(128), "128B");
    EXPECT_EQ(core::elemLabel(1024), "1KiB");
    EXPECT_EQ(core::elemLabel(16 * 1024), "16KiB");
}

TEST(Experiments, OpNamesRoundTrip)
{
    EXPECT_STREQ(core::toString(core::DmaOp::Get), "GET");
    EXPECT_STREQ(core::toString(core::DmaOp::Copy), "GET+PUT");
    EXPECT_STREQ(core::toString(ppe::MemOp::Store), "store");
}
