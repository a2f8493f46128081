/** @file Inline-vs-pooled equivalence tests for core::repeatRuns. */

#include <gtest/gtest.h>

#include <atomic>

#include "core/experiments.hh"
#include "core/runner.hh"
#include "core/worker_pool.hh"
#include "stats/metrics.hh"

using namespace cellbw;

namespace
{

/** A placement-sensitive body: different seeds give different GB/s. */
double
speSpeBody(cell::CellSystem &sys)
{
    core::SpeSpeConfig sc;
    sc.numSpes = 8;
    sc.elemBytes = 4096;
    sc.bytesPerStream = 256 * util::KiB;
    return core::runSpeSpe(sys, sc);
}

} // namespace

TEST(ParallelRunner, ParallelMatchesSerialBitIdentically)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec;  // the default 10 runs, seeds 42..51
    auto serial = core::repeatRuns(cfg, spec, speSpeBody);
    for (unsigned jobs : {1u, 2u, 4u, 10u, 16u}) {
        core::WorkerPool pool(jobs);
        auto par = core::repeatRuns(cfg, spec, speSpeBody, &pool);
        // samples() preserves run order, so this also checks that the
        // merge happens in seed order, not completion order.
        EXPECT_EQ(serial.samples(), par.samples()) << "jobs=" << jobs;
    }
}

TEST(ParallelRunner, WarmupShiftsSeedsAndDiscardsSamples)
{
    // The warmup contract: (seed=s, warmup=w) records exactly the
    // samples of (seed=s+w, warmup=0).  That identity is what lets the
    // sim default of 0 keep every existing report byte-identical.
    cell::CellConfig cfg;
    core::RepeatSpec warm;
    warm.runs = 4;
    warm.seed = 42;
    warm.warmup = 2;
    core::RepeatSpec shifted;
    shifted.runs = 4;
    shifted.seed = 44;
    auto a = core::repeatRuns(cfg, warm, speSpeBody);
    auto b = core::repeatRuns(cfg, shifted, speSpeBody);
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.count(), 4u);
    core::WorkerPool pool(3);
    EXPECT_EQ(core::repeatRuns(cfg, warm, speSpeBody, &pool).samples(),
              b.samples());
}

TEST(ParallelRunner, MetricsAccumulateIdenticallyForAnyJobCount)
{
    // The --json path: every run snapshots its counters into one
    // shared registry from whichever worker thread ran it.  The adds
    // are atomic and commutative, so the totals must not depend on
    // the job count (and TSan must see no races).
    cell::CellConfig cfg;
    core::RepeatSpec spec{6, 42};

    auto sweep = [&](core::WorkerPool *pool, stats::MetricsRegistry &reg) {
        core::RepeatSpec s = spec;
        s.metrics = &reg;
        return core::repeatRuns(cfg, s, speSpeBody, pool);
    };

    stats::MetricsRegistry serial, parallel;
    core::WorkerPool pool(4);
    auto d1 = sweep(nullptr, serial);
    auto d4 = sweep(&pool, parallel);
    EXPECT_EQ(d1.samples(), d4.samples());

    ASSERT_NE(serial.findCounter("sim.runs"), nullptr);
    EXPECT_EQ(serial.findCounter("sim.runs")->value(), 6u);
    auto names = serial.names();
    EXPECT_EQ(names, parallel.names());
    // EIB and MFC activity was booked, and totals match exactly.
    EXPECT_GT(serial.findCounter("eib0.packets")->value(), 0u);
    EXPECT_GT(serial.findCounter("spe0.mfc.bytes")->value(), 0u);
    for (const auto &n : names) {
        if (const auto *c = serial.findCounter(n)) {
            EXPECT_EQ(c->value(), parallel.findCounter(n)->value())
                << n;
        }
    }
}

TEST(ParallelRunner, EachRunGetsItsOwnSeedExactlyOnce)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec{7, 1234};
    std::atomic<unsigned> calls{0};
    core::WorkerPool pool(4);
    auto d = core::repeatRuns(cfg, spec, [&](cell::CellSystem &sys) {
        calls.fetch_add(1, std::memory_order_relaxed);
        // Encode the placement permutation so equal placements from
        // different seeds cannot hide a duplicated run.
        double key = 0.0;
        for (auto p : sys.placement())
            key = key * 16.0 + p;
        return key;
    }, &pool);
    EXPECT_EQ(calls.load(), 7u);
    EXPECT_EQ(d.count(), 7u);

    auto again = core::repeatRuns(cfg, spec, [](cell::CellSystem &sys) {
        double key = 0.0;
        for (auto p : sys.placement())
            key = key * 16.0 + p;
        return key;
    });
    EXPECT_EQ(d.samples(), again.samples());
}

TEST(ParallelRunner, MoreJobsThanRunsIsFine)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec{2, 7};
    core::WorkerPool pool(64);
    auto d = core::repeatRuns(cfg, spec, speSpeBody, &pool);
    EXPECT_EQ(d.count(), 2u);
}

TEST(ParallelRunner, BodyExceptionsPropagate)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec{6, 3};
    auto bomb = [](cell::CellSystem &) -> double {
        throw std::runtime_error("boom");
    };
    core::WorkerPool pool(3);
    EXPECT_THROW(core::repeatRuns(cfg, spec, bomb, &pool),
                 std::runtime_error);
    EXPECT_THROW(core::repeatRuns(cfg, spec, bomb), std::runtime_error);
}

TEST(ParallelRunner, WorkersSeeIndependentSystems)
{
    // Each run must observe a fresh CellSystem at tick 0; leakage of
    // event-queue state across runs would advance now() before the body.
    cell::CellConfig cfg;
    core::RepeatSpec spec{8, 42};
    std::atomic<bool> sawDirtySystem{false};
    core::WorkerPool pool(4);
    core::repeatRuns(cfg, spec, [&](cell::CellSystem &sys) {
        if (sys.now() != 0)
            sawDirtySystem.store(true);
        return speSpeBody(sys);
    }, &pool);
    EXPECT_FALSE(sawDirtySystem.load());
}
