/** @file Unit tests for the SPU streaming kernels and the Spe wrapper. */

#include <gtest/gtest.h>

#include "sim/clock.hh"
#include "spe/spe.hh"
#include "test_util.hh"

using namespace cellbw;

namespace
{

struct SpuFixture : public ::testing::Test
{
    sim::EventQueue eq;
    sim::ClockSpec clock;
    spe::SpeParams params;

    std::unique_ptr<spe::Spe>
    make()
    {
        return std::make_unique<spe::Spe>("spe0", eq, clock, params, 0);
    }

    /** Run one streaming kernel and return the measured GB/s. */
    double
    measure(spe::Spe &s, ppe::MemOp op, unsigned elem, std::uint32_t bytes)
    {
        Tick t0 = eq.now();
        auto body = [&]() -> sim::Task {
            switch (op) {
              case ppe::MemOp::Load:
                co_await s.spu().streamLoad(0, bytes, elem);
                break;
              case ppe::MemOp::Store:
                co_await s.spu().streamStore(0, bytes, elem);
                break;
              case ppe::MemOp::Copy:
                co_await s.spu().streamCopy(0, 128 * 1024, bytes, elem);
                break;
            }
        };
        sim::Task t = body();
        test::runToCompletion(eq, t);
        return clock.bandwidthGBps(bytes, eq.now() - t0);
    }
};

} // namespace

TEST_F(SpuFixture, QuadwordLoadsReachThePeak)
{
    auto s = make();
    double bw = measure(*s, ppe::MemOp::Load, 16, 64 * 1024);
    // A small per-batch array latency keeps this a hair under 33.6.
    EXPECT_GT(bw, 32.5);
    EXPECT_LE(bw, 33.6);
}

TEST_F(SpuFixture, SubQuadwordLoadsScaleWithElementSize)
{
    auto s = make();
    double bw8 = measure(*s, ppe::MemOp::Load, 8, 64 * 1024);
    double bw1 = measure(*s, ppe::MemOp::Load, 1, 64 * 1024);
    EXPECT_LT(bw8, 20.0);       // well below peak
    EXPECT_NEAR(bw8 / bw1, 8.0, 0.5);
}

TEST_F(SpuFixture, SubQuadwordStoresPayReadModifyWrite)
{
    auto s = make();
    double store8 = measure(*s, ppe::MemOp::Store, 8, 64 * 1024);
    double load8 = measure(*s, ppe::MemOp::Load, 8, 64 * 1024);
    EXPECT_LT(store8, load8);
}

TEST_F(SpuFixture, CopyMovesTheBytes)
{
    auto s = make();
    s->ls().fill(0, 0x77, 4096);
    measure(*s, ppe::MemOp::Copy, 16, 4096);
    EXPECT_EQ(s->ls().byteAt(128 * 1024), 0x77);
    EXPECT_EQ(s->ls().byteAt(128 * 1024 + 4095), 0x77);
}

TEST_F(SpuFixture, BadElementSizeIsFatal)
{
    auto s = make();
    sim::Task t = s->spu().streamLoad(0, 1024, 3);
    t.start();
    eq.run();
    EXPECT_TRUE(t.failed());
    EXPECT_THROW(t.rethrow(), sim::FatalError);
}

TEST_F(SpuFixture, LsAllocatorAlignsAndExhausts)
{
    auto s = make();
    LsAddr a = s->lsAlloc(100);
    LsAddr b = s->lsAlloc(100);
    EXPECT_EQ(a % 128, 0u);
    EXPECT_EQ(b % 128, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_THROW(s->lsAlloc(256 * 1024), sim::FatalError);
    s->lsReset();
    EXPECT_EQ(s->lsAlloc(100), 0u);
}

TEST_F(SpuFixture, PhysicalPlacementIsRecorded)
{
    auto s = make();
    s->setPhysicalSpe(5, 3);
    EXPECT_EQ(s->physicalSpe(), 5u);
    EXPECT_EQ(s->rampPos(), 3u);
    EXPECT_EQ(s->logicalIndex(), 0u);
}

TEST_F(SpuFixture, SpuAndDmaShareTheLsPort)
{
    auto s = make();
    // Consume LS port time via the SPU, then check DMA port
    // reservations queue behind it.
    Tick before = s->ls().portFreeAt();
    auto body = [&]() -> sim::Task {
        co_await s->spu().streamLoad(0, 16 * 1024, 16);
    };
    sim::Task t = body();
    test::runToCompletion(eq, t);
    EXPECT_GT(s->ls().portFreeAt(), before);
}
