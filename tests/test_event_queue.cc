/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <malloc.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"

using namespace cellbw;

TEST(EventQueue, StartsAtTickZero)
{
    sim::EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, EventsFireInTimestampOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickEventsFireInFifoOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, AppendsToTheDrainingTickFireInFifoOrder)
{
    // The batched drain dispatches a bucket while callbacks append to
    // it: a same-tick schedule from inside an event must fire this
    // tick, after everything already queued, in schedule order — even
    // when the fan-out spills across several bucket chunks.
    sim::EventQueue eq;
    std::vector<int> order;
    constexpr int kFanout = 200;    // several 62-slot chunks
    eq.schedule(5, [&] {
        for (int i = 0; i < kFanout; ++i)
            eq.schedule(0, [&order, i] { order.push_back(i); });
    });
    eq.schedule(5, [&] { order.push_back(-1); });
    EXPECT_EQ(eq.run(), static_cast<std::uint64_t>(kFanout) + 2);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kFanout) + 1);
    EXPECT_EQ(order[0], -1);        // queued before the fan-out landed
    for (int i = 0; i < kFanout; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
    EXPECT_EQ(eq.now(), 5u);        // all of it happened at tick 5
}

TEST(EventQueue, DeepSameTickChainsStayOnTheirTick)
{
    // A chain of zero-delay reschedules must drain before time moves.
    sim::EventQueue eq;
    int depth = 0;
    struct Chain
    {
        sim::EventQueue &eq;
        int &depth;
        void
        step()
        {
            if (++depth < 100)
                eq.schedule(0, [this] { step(); });
        }
    } chain{eq, depth};
    eq.schedule(3, [&] { chain.step(); });
    eq.schedule(4, [&] { EXPECT_EQ(depth, 100); });
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 4u);
}

TEST(EventQueue, ChunkPoolRecyclesAcrossQueueLifetimes)
{
    // Teardown parks bucket chunks in a thread-local pool for the next
    // queue instead of freeing page-sized blocks one by one.  Pure
    // behavior check: repeated build/run/destroy cycles stay correct,
    // including queues destroyed with events still pending.
    long sum = 0;
    for (int round = 0; round < 8; ++round) {
        sim::EventQueue eq;
        for (int i = 0; i < 500; ++i)
            eq.schedule(static_cast<Tick>(i % 97), [&sum] { ++sum; });
        if (round % 2 == 0)
            eq.run();       // odd rounds tear down with pending events
    }
    EXPECT_EQ(sum, 4 * 500);
}

TEST(EventQueue, ChunkPoolIsFreedWhenItsThreadExits)
{
    // Seed sweeps run each copy on a fresh worker thread; the chunks a
    // thread parks at queue teardown must go back to the heap when the
    // thread exits, or every sweep leaks a pool's worth of pages.
    auto work = [] {
        sim::EventQueue eq;
        long sum = 0;
        // One chunk per distinct pending tick: ~1 MiB parked per thread.
        for (int i = 0; i < 256; ++i)
            eq.schedule(static_cast<Tick>(i), [&sum] { ++sum; });
        eq.run();
    };
    auto in_use = [] { return static_cast<long>(mallinfo2().uordblks); };
    std::thread(work).join();   // first thread: lazy runtime state
    const long before = in_use();
    for (int t = 0; t < 4; ++t)
        std::thread(work).join();
    EXPECT_LT(in_use() - before, 64 * 1024);
}

TEST(EventQueue, HandlersMayScheduleMoreEvents)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(1, [&] {
            ++fired;
            eq.schedule(1, [&] { ++fired; });
        });
    });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, ZeroDelayFiresAtCurrentTick)
{
    sim::EventQueue eq;
    Tick seen = maxTick;
    eq.schedule(7, [&] {
        eq.schedule(0, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesNow)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });

    EXPECT_EQ(eq.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);

    // runUntil with no eligible events still advances time.
    EXPECT_EQ(eq.runUntil(25), 0u);
    EXPECT_EQ(eq.now(), 25u);

    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, ScheduleAtAbsoluteTime)
{
    sim::EventQueue eq;
    Tick when = 0;
    eq.scheduleAt(123, [&] { when = eq.now(); });
    eq.run();
    EXPECT_EQ(when, 123u);
}

TEST(EventQueue, ProcessedCountAccumulates)
{
    sim::EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    for (int i = 0; i < 3; ++i)
        eq.schedule(1, [] {});
    eq.run();
    EXPECT_EQ(eq.eventsProcessed(), 8u);
}

TEST(EventQueue, FarFutureEventsBeyondTheBucketWindow)
{
    // Events past the near-future ring land in the overflow level and
    // must still fire in timestamp order.
    sim::EventQueue eq;
    const Tick w = sim::EventQueue::window();
    std::vector<Tick> order;
    eq.schedule(3 * w + 5, [&] { order.push_back(eq.now()); });
    eq.schedule(10, [&] { order.push_back(eq.now()); });
    eq.schedule(w + 1, [&] { order.push_back(eq.now()); });
    eq.schedule(7 * w, [&] { order.push_back(eq.now()); });
    EXPECT_EQ(eq.pending(), 4u);
    eq.run();
    EXPECT_EQ(order, (std::vector<Tick>{10, w + 1, 3 * w + 5, 7 * w}));
    EXPECT_EQ(eq.now(), 7 * w);
}

TEST(EventQueue, SameTickFifoAcrossTheWindowBoundary)
{
    // Two events at the same far tick T: both overflow, and must fire
    // in schedule order after migrating into the ring together.
    sim::EventQueue eq;
    const Tick t = 5 * sim::EventQueue::window() + 17;
    std::vector<int> order;
    eq.scheduleAt(t, [&] { order.push_back(1); });
    eq.scheduleAt(t, [&] { order.push_back(2); });
    eq.scheduleAt(t, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, MigratedEventFiresBeforeLaterDirectScheduleAtSameTick)
{
    // e1 is scheduled far in the future (overflow).  An intermediate
    // event brings T inside the window and schedules e2 for the same
    // tick T.  e1 was scheduled first and must keep firing first.
    sim::EventQueue eq;
    const Tick w = sim::EventQueue::window();
    const Tick t = 2 * w + 100;
    std::vector<int> order;
    eq.scheduleAt(t, [&] { order.push_back(1); });       // far: overflow
    eq.scheduleAt(2 * w, [&] {                           // brings T near
        eq.scheduleAt(t, [&] { order.push_back(2); });   // direct: bucket
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunUntilJumpKeepsFifoForFormerlyFarTicks)
{
    // runUntil() advances now() past the point where a far event's tick
    // enters the window; a direct schedule at that tick afterwards must
    // still fire after the earlier (migrated) event.
    sim::EventQueue eq;
    const Tick w = sim::EventQueue::window();
    const Tick t = 2 * w;
    std::vector<int> order;
    eq.scheduleAt(t, [&] { order.push_back(1); });
    EXPECT_EQ(eq.runUntil(t - 10), 0u);
    EXPECT_EQ(eq.now(), t - 10);
    EXPECT_EQ(eq.pending(), 1u);
    eq.scheduleAt(t, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, LargeCapturesFireCorrectly)
{
    // Captures wider than the inline window take the heap path inside
    // InlineFunction; behaviour must be identical.
    sim::EventQueue eq;
    struct Wide
    {
        std::uint64_t payload[16];
    } wide{};
    wide.payload[15] = 99;
    std::uint64_t seen = 0;
    eq.schedule(5, [wide, &seen] { seen = wide.payload[15]; });
    eq.run();
    EXPECT_EQ(seen, 99u);
}

TEST(EventQueue, MoveOnlyCallbackCapture)
{
    sim::EventQueue eq;
    auto p = std::make_unique<int>(41);
    int out = 0;
    eq.schedule(1, [p = std::move(p), &out] { out = *p + 1; });
    eq.run();
    EXPECT_EQ(out, 42);
}

TEST(EventQueue, ManyTicksSpreadOverManyWindows)
{
    // Stress the ring-wrap and migration logic with a deterministic,
    // irregular schedule far wider than one window.
    sim::EventQueue eq;
    const Tick w = sim::EventQueue::window();
    std::uint64_t sum = 0, expected = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        Tick when = (i * 97) % (4 * w);
        expected += when;
        eq.scheduleAt(when, [&sum, &eq] { sum += eq.now(); });
    }
    EXPECT_EQ(eq.run(), 1000u);
    EXPECT_EQ(sum, expected);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 10u);
    EXPECT_DEATH(eq.scheduleAt(5, [] {}), "past");
}
