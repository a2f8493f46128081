/** @file Unit tests for the conservative partitioned engine. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/parallel.hh"

using namespace cellbw;

namespace
{

constexpr Tick kLook = 100;

} // namespace

TEST(PartitionedEngine, LocalEventsRunWithoutCrossings)
{
    sim::PartitionedEngine eng(2, kLook);
    int fired = 0;
    eng.queue(0).schedule(10, [&] { ++fired; });
    eng.queue(1).schedule(20, [&] { ++fired; });
    eng.queue(1).schedule(20, [&] { ++fired; });
    EXPECT_EQ(eng.run(), 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eng.messagesDelivered(), 0u);
    EXPECT_EQ(eng.eventsProcessed(), 3u);
    EXPECT_EQ(eng.lastDispatchTick(), 20u);
}

TEST(PartitionedEngine, SinglePartitionRunEndsAtLastEvent)
{
    // A lone partition drains straight through: now() stops at the last
    // event, not at the end of its lookahead window.
    sim::PartitionedEngine eng(1, kLook);
    eng.queue(0).schedule(10, [] {});
    eng.queue(0).schedule(500, [] {});
    EXPECT_EQ(eng.run(), 2u);
    EXPECT_EQ(eng.queue(0).now(), 500u);
    EXPECT_EQ(eng.lastDispatchTick(), 500u);
}

TEST(PartitionedEngine, PostDeliversAtTheRequestedTick)
{
    sim::PartitionedEngine eng(2, kLook);
    Tick seen = maxTick;
    eng.queue(0).schedule(10, [&] {
        eng.post(0, 1, eng.queue(0).now() + kLook,
                 sim::PartitionedEngine::ChannelFn(
                     [&] { seen = eng.queue(1).now(); }));
    });
    eng.run();
    EXPECT_EQ(seen, 110u);
    EXPECT_EQ(eng.messagesDelivered(), 1u);
}

TEST(PartitionedEngine, DeliveryOrderIsWhenSourceSeq)
{
    // Three sources (0, 1, 2) post to two destinations (3, 4) over
    // several windows, mostly in reverse of the delivery order: higher
    // sources post in earlier windows, and a later tick is sometimes
    // posted before an earlier one on the same channel.  Each window
    // runs its destinations in index order, and each destination sees
    // its deliveries in (when, src, seq) order, after any local event
    // already queued for the same tick (bucket FIFO).
    using Rec = std::tuple<Tick, unsigned, unsigned, unsigned>;
    constexpr unsigned kLocal = 99;
    sim::PartitionedEngine eng(5, kLook);
    std::vector<Rec> order;
    std::map<std::pair<unsigned, unsigned>, unsigned> seq;
    // Each message records (tick it ran, src, dst, per-channel seq).
    auto send = [&](unsigned src, unsigned dst, Tick when) {
        const unsigned k = seq[{src, dst}]++;
        eng.post(src, dst, when,
                 sim::PartitionedEngine::ChannelFn([&, src, dst, k] {
                     order.emplace_back(eng.queue(dst).now(), src, dst,
                                        k);
                 }));
    };
    eng.queue(3).scheduleAt(300, [&] {
        order.emplace_back(eng.queue(3).now(), kLocal, 3, 0);
    });
    eng.queue(2).scheduleAt(0, [&] {
        send(2, 4, 350);
        send(2, 3, 300);
        send(2, 3, 300);
    });
    eng.queue(1).scheduleAt(100, [&] {
        send(1, 4, 300);
        send(1, 3, 350);
        send(1, 3, 300);
    });
    eng.queue(0).scheduleAt(200, [&] {
        send(0, 4, 300);
        send(0, 3, 300);
        send(0, 4, 300);
    });
    eng.queue(2).scheduleAt(400, [&] {
        send(2, 3, 600);
        send(2, 4, 600);
    });
    eng.queue(1).scheduleAt(480, [&] { send(1, 4, 600); });
    eng.queue(0).scheduleAt(500, [&] {
        send(0, 3, 650);
        send(0, 3, 600);
    });
    eng.run();
    const std::vector<Rec> expected = {
        // Window [300, 399].
        {300, kLocal, 3, 0},
        {300, 0, 3, 0},
        {300, 1, 3, 1},
        {300, 2, 3, 0},
        {300, 2, 3, 1},
        {350, 1, 3, 0},
        {300, 0, 4, 0},
        {300, 0, 4, 1},
        {300, 1, 4, 0},
        {350, 2, 4, 0},
        // Window [600, 699].
        {600, 0, 3, 2},
        {600, 2, 3, 2},
        {650, 0, 3, 1},
        {600, 1, 4, 1},
        {600, 2, 4, 1},
    };
    EXPECT_EQ(order, expected);
    EXPECT_EQ(eng.messagesDelivered(), 14u);
}

TEST(PartitionedEngine, IdlePartitionReceivesLateMessage)
{
    // Partition 1 has nothing to do while partition 0 walks more than
    // one event-queue window of ticks, then receives a message: its
    // clock lags far behind the delivery tick, so the message takes
    // the queue's overflow path.  It must still fire at its exact
    // tick, and the run must end where running every window would.
    sim::PartitionedEngine eng(2, kLook);
    const Tick late = 2 * sim::EventQueue::window() + 7;
    Tick seen = maxTick;
    eng.queue(1).schedule(5, [] {});
    struct Walker
    {
        sim::PartitionedEngine &eng;
        Tick late;
        Tick &seen;

        void
        step()
        {
            auto &q = eng.queue(0);
            if (q.now() < late - kLook) {
                q.scheduleAt(std::min(q.now() + kLook / 2, late - kLook),
                             [this] { step(); });
                return;
            }
            eng.post(0, 1, late, sim::PartitionedEngine::ChannelFn(
                                     [this] { seen = eng.queue(1).now(); }));
        }
    } walker{eng, late, seen};
    eng.queue(0).schedule(0, [&] { walker.step(); });
    eng.run();
    EXPECT_EQ(seen, late);
    EXPECT_EQ(eng.messagesDelivered(), 1u);
    EXPECT_EQ(eng.queue(1).lastDispatchTick(), late);
    EXPECT_EQ(eng.lastDispatchTick(), late);
    // The last window starts at the delivery; both clocks end there.
    EXPECT_EQ(eng.queue(0).now(), late + kLook - 1);
    EXPECT_EQ(eng.queue(1).now(), late + kLook - 1);
}

namespace
{

/**
 * A deterministic two-partition ping-pong: each delivery re-posts to
 * the other side until @p bounces messages have crossed.  Returns the
 * (partition, tick) trace in delivery order.
 */
std::vector<std::pair<unsigned, Tick>>
pingPongTrace(int bounces)
{
    sim::PartitionedEngine eng(2, kLook);
    std::vector<std::pair<unsigned, Tick>> trace;
    int left = bounces;
    // Self-referential continuation: bounce() posts a message whose
    // body records its arrival and bounces back.
    struct Bouncer
    {
        sim::PartitionedEngine &eng;
        std::vector<std::pair<unsigned, Tick>> &trace;
        int &left;

        void
        send(unsigned from)
        {
            const unsigned to = 1 - from;
            eng.post(from, to, eng.queue(from).now() + kLook,
                     sim::PartitionedEngine::ChannelFn([this, to] {
                         trace.emplace_back(to, eng.queue(to).now());
                         if (--left > 0)
                             send(to);
                     }));
        }
    } bouncer{eng, trace, left};
    eng.queue(0).schedule(3, [&] { bouncer.send(0); });
    eng.run();
    return trace;
}

} // namespace

TEST(PartitionedEngine, PingPongCrossesOneLookaheadPerBounce)
{
    // Every bounce lands exactly one lookahead after it was sent.
    const auto trace = pingPongTrace(24);
    ASSERT_EQ(trace.size(), 24u);
    EXPECT_EQ(trace.front(), (std::pair<unsigned, Tick>{1u, 103u}));
    EXPECT_EQ(trace.back().second, 3u + 24u * kLook);
}

namespace
{

/**
 * A deterministic four-partition relay: a token hops around the ring
 * 0 -> 1 -> 2 -> 3 -> 0 for @p laps laps, while partition 0 also posts
 * a diagonal message straight to partition 2 every lap (non-adjacent
 * partitions must work just like neighbours).  The trace is kept per
 * partition: entry (tick, isDiagonal) in delivery order.
 */
std::vector<std::vector<std::pair<Tick, bool>>>
ringTrace(int laps)
{
    constexpr unsigned kParts = 4;
    sim::PartitionedEngine eng(kParts, kLook);
    std::vector<std::vector<std::pair<Tick, bool>>> trace(kParts);
    int left = laps * static_cast<int>(kParts);
    struct Relay
    {
        sim::PartitionedEngine &eng;
        std::vector<std::vector<std::pair<Tick, bool>>> &trace;
        int &left;

        void
        send(unsigned from)
        {
            const unsigned to = (from + 1) % kParts;
            eng.post(from, to, eng.queue(from).now() + kLook,
                     sim::PartitionedEngine::ChannelFn([this, to] {
                         trace[to].emplace_back(eng.queue(to).now(),
                                                false);
                         if (--left > 0)
                             send(to);
                     }));
            if (from == 0)
                eng.post(0, 2, eng.queue(0).now() + kLook,
                         sim::PartitionedEngine::ChannelFn([this] {
                             trace[2].emplace_back(eng.queue(2).now(),
                                                   true);
                         }));
        }
    } relay{eng, trace, left};
    eng.queue(0).schedule(5, [&] { relay.send(0); });
    eng.run();
    return trace;
}

} // namespace

TEST(PartitionedEngine, FourPartitionRingSchedule)
{
    // Four partitions, neighbour hops plus a diagonal 0 -> 2 post every
    // lap.  6 laps land one hop on every partition; partition 2 also
    // gets one diagonal per visit to partition 0 (kick-off + 5 laps).
    const auto trace = ringTrace(6);
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[1].size(), 6u);
    EXPECT_EQ(trace[2].size(), 12u);
    EXPECT_EQ(trace[1].front(), (std::pair<Tick, bool>{105u, false}));
    // The diagonal beats the two-hop ring path to partition 2.
    EXPECT_EQ(trace[2][0], (std::pair<Tick, bool>{105u, true}));
    EXPECT_EQ(trace[2][1], (std::pair<Tick, bool>{205u, false}));
}

TEST(PartitionedEngine, DiagonalPostsReachNonAdjacentPartitions)
{
    // The engine is a full crossbar, not a ring: 0 -> 2 and 3 -> 1
    // deliver without any intermediate partition in the loop.
    sim::PartitionedEngine eng(4, kLook);
    Tick at02 = maxTick, at31 = maxTick;
    eng.queue(0).schedule(10, [&] {
        eng.post(0, 2, eng.queue(0).now() + kLook,
                 sim::PartitionedEngine::ChannelFn(
                     [&] { at02 = eng.queue(2).now(); }));
    });
    eng.queue(3).schedule(20, [&] {
        eng.post(3, 1, eng.queue(3).now() + kLook,
                 sim::PartitionedEngine::ChannelFn(
                     [&] { at31 = eng.queue(1).now(); }));
    });
    EXPECT_EQ(eng.run(), 4u);
    EXPECT_EQ(at02, 110u);
    EXPECT_EQ(at31, 120u);
    EXPECT_EQ(eng.messagesDelivered(), 2u);
}

TEST(PartitionedEngine, EventsProcessedCountsDeliveredMessages)
{
    sim::PartitionedEngine eng(2, kLook);
    eng.queue(0).schedule(0, [&] {
        eng.post(0, 1, kLook,
                 sim::PartitionedEngine::ChannelFn([] {}));
    });
    eng.run();
    // The origin event plus the delivered continuation.
    EXPECT_EQ(eng.eventsProcessed(), 2u);
    EXPECT_EQ(eng.messagesDelivered(), 1u);
}

TEST(PartitionedEngineDeathTest, PostBelowTheLookaheadPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::PartitionedEngine eng(2, kLook);
    eng.queue(0).schedule(10, [&] {
        eng.post(0, 1, eng.queue(0).now() + kLook - 1,
                 sim::PartitionedEngine::ChannelFn([] {}));
    });
    EXPECT_DEATH(eng.run(), "lookahead");
}

TEST(PartitionedEngineDeathTest, PostToUnknownPartitionPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::PartitionedEngine eng(2, kLook);
    eng.queue(0).schedule(0, [&] {
        eng.post(0, 2, kLook,
                 sim::PartitionedEngine::ChannelFn([] {}));
    });
    EXPECT_DEATH(eng.run(), "unknown partition");
}
