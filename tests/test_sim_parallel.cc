/** @file Unit tests for the conservative partitioned engine. */

#include <gtest/gtest.h>

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
    // Three messages land on partition 2 at the same tick: two from
    // partition 0 (in post order) and one from partition 1.  A local
    // event already queued for that tick fires first (bucket FIFO),
    // then the deliveries in (when, src, seq) order — the fixed merge
    // that makes the schedule independent of the channel scan.
    sim::PartitionedEngine eng(3, kLook);
    std::vector<int> order;
    eng.queue(2).scheduleAt(kLook, [&] { order.push_back(99); });
    eng.queue(0).schedule(0, [&] {
        eng.post(0, 2, kLook, sim::PartitionedEngine::ChannelFn(
                                  [&] { order.push_back(1); }));
        eng.post(0, 2, kLook, sim::PartitionedEngine::ChannelFn(
                                  [&] { order.push_back(2); }));
    });
    eng.queue(1).schedule(0, [&] {
        eng.post(1, 2, kLook, sim::PartitionedEngine::ChannelFn(
                                  [&] { order.push_back(3); }));
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{99, 1, 2, 3}));
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
