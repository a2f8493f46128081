/** @file Tests for MFC fence/barrier ordering. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/clock.hh"
#include "sim/task.hh"
#include "spe/mfc.hh"

using namespace cellbw;
using spe::Mfc;

namespace
{

/** Completes lines after a delay and records completion order by EA. */
struct OrderRouter
{
    sim::EventQueue &eq;
    Tick delay = 100;
    std::vector<EffAddr> started = {};
    std::vector<EffAddr> finished = {};

    void
    operator()(spe::LineRequest &&req)
    {
        started.push_back(req.ea);
        auto done = std::move(req.done);
        EffAddr ea = req.ea;
        eq.schedule(delay, [this, ea, done = std::move(done)] {
            finished.push_back(ea);
            done();
        });
    }
};

struct OrderFixture : public ::testing::Test
{
    sim::EventQueue eq;
    sim::ClockSpec clock;
    spe::MfcParams params;
    OrderRouter router{eq};

    std::unique_ptr<Mfc>
    make()
    {
        auto mfc = std::make_unique<Mfc>("mfc", eq, clock, params, 0);
        mfc->setLineHandler(std::ref(router));
        return mfc;
    }

    /** Index of @p ea in router.started, or -1. */
    int
    startIndex(EffAddr ea) const
    {
        for (std::size_t i = 0; i < router.started.size(); ++i)
            if (router.started[i] == ea)
                return static_cast<int>(i);
        return -1;
    }
};

} // namespace

TEST_F(OrderFixture, PlainCommandsOfOneTagMayOverlap)
{
    auto mfc = make();
    mfc->get(0, 0x1000, 128, 0);
    mfc->get(128, 0x2000, 128, 0);
    eq.run();
    // The second command starts before the first finishes: both were
    // started before anything finished.
    ASSERT_EQ(router.started.size(), 2u);
    EXPECT_TRUE(router.finished.empty() ||
                startIndex(0x2000) >= 0);
}

TEST_F(OrderFixture, FenceWaitsForEarlierSameTagCommands)
{
    auto mfc = make();
    mfc->get(0, 0x1000, 128, 0);
    mfc->getf(128, 0x2000, 128, 0);     // fenced
    bool first_finished_before_second_started = false;
    // Observe interleaving as events drain.
    eq.runUntil(router.delay / 2);
    EXPECT_EQ(router.started.size(), 1u);   // fence holds 0x2000 back
    eq.run();
    ASSERT_EQ(router.started.size(), 2u);
    first_finished_before_second_started =
        router.finished.size() >= 1 && router.finished[0] == 0x1000;
    EXPECT_TRUE(first_finished_before_second_started);
}

TEST_F(OrderFixture, FenceIgnoresOtherTagGroups)
{
    auto mfc = make();
    mfc->get(0, 0x1000, 128, 0);        // tag 0
    mfc->getf(128, 0x2000, 128, 5);     // fenced, tag 5: not blocked
    // Both issue within two issue-engine occupancies (2 x 48 ticks),
    // well before the first line completes at router.delay.
    eq.runUntil(router.delay - 1);
    EXPECT_EQ(router.started.size(), 2u);
    eq.run();
}

TEST_F(OrderFixture, BarrierAlsoBlocksLaterCommands)
{
    auto mfc = make();
    mfc->get(0, 0x1000, 128, 0);
    mfc->getb(128, 0x2000, 128, 0);     // barrier
    mfc->get(256, 0x3000, 128, 0);      // must wait for the barrier
    mfc->get(384, 0x4000, 128, 3);      // other tag: free to go
    eq.runUntil(router.delay - 1);
    ASSERT_EQ(router.started.size(), 2u);
    EXPECT_EQ(router.started[0], 0x1000u);
    EXPECT_EQ(router.started[1], 0x4000u);
    eq.run();
    ASSERT_EQ(router.started.size(), 4u);
    // Barrier started after the first completed; the plain command
    // after the barrier started last.
    EXPECT_LT(startIndex(0x2000), startIndex(0x3000));
}

TEST_F(OrderFixture, FencedPutFormsAPipelineStage)
{
    // get A; putf A (must see completed get); classic flush pattern.
    auto mfc = make();
    mfc->get(0, 0x1000, 1024, 2);
    mfc->putf(0, 0x9000, 1024, 2);
    eq.run();
    // All 8 get lines finish before the first put line starts.
    ASSERT_EQ(router.started.size(), 16u);
    int last_get_finish = -1;
    for (std::size_t i = 0; i < router.finished.size(); ++i)
        if (router.finished[i] < 0x9000)
            last_get_finish = static_cast<int>(i);
    // 8 get lines finished first.
    EXPECT_EQ(last_get_finish, 7);
}
