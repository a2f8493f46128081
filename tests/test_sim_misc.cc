/** @file Unit tests for RNG, clock conversions and logging. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/clock.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace cellbw;

TEST(Rng, DeterministicForSameSeed)
{
    sim::Rng a(7);
    sim::Rng b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000000), b.uniformInt(0, 1000000));
}

TEST(Rng, DifferentSeedsDiffer)
{
    sim::Rng a(1);
    sim::Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniformInt(0, 1000000) == b.uniformInt(0, 1000000))
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntStaysInRange)
{
    sim::Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformRealInHalfOpenUnitInterval)
{
    sim::Rng r(4);
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, PermutationIsAPermutation)
{
    sim::Rng r(5);
    for (int trial = 0; trial < 20; ++trial) {
        auto p = r.permutation(8);
        ASSERT_EQ(p.size(), 8u);
        std::set<std::uint32_t> seen(p.begin(), p.end());
        EXPECT_EQ(seen.size(), 8u);
        EXPECT_EQ(*seen.begin(), 0u);
        EXPECT_EQ(*seen.rbegin(), 7u);
    }
}

TEST(Rng, PermutationsVaryAcrossDraws)
{
    sim::Rng r(6);
    auto a = r.permutation(8);
    auto b = r.permutation(8);
    auto c = r.permutation(8);
    EXPECT_TRUE(a != b || b != c);
}

TEST(Rng, ReseedRestoresSequence)
{
    sim::Rng r(9);
    auto first = r.uniformInt(0, 1u << 30);
    r.reseed(9);
    EXPECT_EQ(r.uniformInt(0, 1u << 30), first);
}

TEST(Clock, SecondsAndBack)
{
    sim::ClockSpec c;
    EXPECT_DOUBLE_EQ(c.seconds(2100000000ull), 1.0);
    EXPECT_EQ(c.fromSeconds(1.0), 2100000000ull);
    EXPECT_EQ(c.fromNs(1.0), 2u);   // 2.1 ticks rounds to 2
}

TEST(Clock, BusCycles)
{
    sim::ClockSpec c;
    EXPECT_EQ(c.busPeriodTicks, 2u);
    EXPECT_EQ(c.busCycles(10), 20u);
}

TEST(Clock, BandwidthGBps)
{
    sim::ClockSpec c;
    // 16 bytes per bus cycle = 16.8 GB/s at 2.1 GHz.
    double bw = c.bandwidthGBps(16, 2);
    EXPECT_NEAR(bw, 16.8, 1e-9);
    EXPECT_DOUBLE_EQ(c.bandwidthGBps(100, 0), 0.0);
}

TEST(Clock, DecrementerTicks)
{
    sim::ClockSpec c;
    // One second of CPU time = timebaseHz decrementer ticks.
    auto ticks = c.decrementerTicks(c.fromSeconds(1.0));
    EXPECT_NEAR(static_cast<double>(ticks), c.timebaseHz, 1.0);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(sim::fatal("bad thing %d", 42), sim::FatalError);
    try {
        sim::fatal("value=%d", 7);
    } catch (const sim::FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7");
    }
}
