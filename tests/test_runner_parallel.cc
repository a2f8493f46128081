/** @file Inline-vs-pooled equivalence tests for core::Sweep. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

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

/** Run one point of @p spec through a sweep; its distribution. */
stats::Distribution
sweepOne(const cell::CellConfig &cfg, const core::RepeatSpec &spec,
         core::ExperimentBody body, core::WorkerPool *pool = nullptr)
{
    core::Sweep sweep(spec, pool);
    sweep.add(cfg, std::move(body));
    return sweep.result(0);
}

} // namespace

TEST(ParallelRunner, ParallelMatchesSerialBitIdentically)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec;  // the default 10 runs, seeds 42..51
    auto serial = sweepOne(cfg, spec, speSpeBody);
    for (unsigned jobs : {1u, 2u, 4u, 10u, 16u}) {
        core::WorkerPool pool(jobs);
        auto par = sweepOne(cfg, spec, speSpeBody, &pool);
        // samples() preserves run order, so this also checks that the
        // merge happens in seed order, not completion order.
        EXPECT_EQ(serial.samples(), par.samples()) << "jobs=" << jobs;
    }
}

TEST(ParallelRunner, WholeSweepMatchesSerialPointByPoint)
{
    // Many points in flight at once: every point's samples equal the
    // inline sweep's, whatever order the workers finish in.
    core::RepeatSpec spec{3, 42};
    auto build = [](core::Sweep &sweep) {
        for (unsigned n : {2u, 4u, 8u}) {
            for (std::uint32_t elem : {1024u, 4096u}) {
                cell::CellConfig cfg;
                cfg.affinity = n == 4 ? cell::AffinityPolicy::Linear
                                      : cell::AffinityPolicy::Random;
                sweep.add(cfg, [n, elem](cell::CellSystem &sys) {
                    core::SpeSpeConfig sc;
                    sc.numSpes = n;
                    sc.elemBytes = elem;
                    sc.bytesPerStream = 64 * util::KiB;
                    return core::runSpeSpe(sys, sc);
                });
            }
        }
    };
    core::Sweep serial(spec);
    build(serial);
    for (unsigned jobs : {1u, 3u, 4u}) {
        core::WorkerPool pool(jobs);
        core::Sweep par(spec, &pool);
        build(par);
        for (std::size_t i = 0; i < 6; ++i) {
            EXPECT_EQ(serial.result(i).samples(), par.result(i).samples())
                << "jobs=" << jobs << " point=" << i;
        }
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
    auto a = sweepOne(cfg, warm, speSpeBody);
    auto b = sweepOne(cfg, shifted, speSpeBody);
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.count(), 4u);
    core::WorkerPool pool(3);
    EXPECT_EQ(sweepOne(cfg, warm, speSpeBody, &pool).samples(),
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
        return sweepOne(cfg, s, speSpeBody, pool);
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

TEST(ParallelRunner, QueueDepthHistogramsDoNotDependOnRegistrationOrder)
{
    // Points of different MFC queue depths book one histogram name
    // each SPE.  Its buckets must not depend on which point registers
    // first, which a concurrent sweep leaves to the scheduler.
    auto run = [](const std::vector<unsigned> &depths,
                  core::WorkerPool *pool) {
        auto reg = std::make_unique<stats::MetricsRegistry>();
        core::RepeatSpec spec{2, 42};
        spec.metrics = reg.get();
        core::Sweep sweep(spec, pool);
        for (unsigned depth : depths) {
            cell::CellConfig cfg;
            cfg.spe.mfc.queueDepth = depth;
            sweep.add(cfg, [](cell::CellSystem &sys) {
                core::SpeSpeConfig sc;
                sc.numSpes = 2;
                sc.elemBytes = 4096;
                sc.syncEvery = 0;
                sc.bytesPerStream = 128 * util::KiB;
                return core::runSpeSpe(sys, sc);
            });
        }
        for (std::size_t i = 0; i < depths.size(); ++i)
            sweep.result(i);
        return reg;
    };
    auto shallowFirst = run({1, 16}, nullptr);
    auto deepFirst = run({16, 1}, nullptr);
    core::WorkerPool pool(4);
    auto pooled = run({1, 16}, &pool);
    EXPECT_EQ(shallowFirst->render(), deepFirst->render());
    EXPECT_EQ(shallowFirst->render(), pooled->render());
    const auto *h = shallowFirst->findHistogram("spe0.mfc.queue_depth");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->upperBound(), 16u);
    EXPECT_GT(h->maxBucket(), 1u);
}

TEST(ParallelRunner, EachRunGetsItsOwnSeedExactlyOnce)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec{7, 1234};
    std::atomic<unsigned> calls{0};
    core::WorkerPool pool(4);
    auto d = sweepOne(cfg, spec, [&](cell::CellSystem &sys) {
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

    auto again = sweepOne(cfg, spec, [](cell::CellSystem &sys) {
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
    auto d = sweepOne(cfg, spec, speSpeBody, &pool);
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
    EXPECT_THROW(sweepOne(cfg, spec, bomb, &pool), std::runtime_error);
    EXPECT_THROW(sweepOne(cfg, spec, bomb), std::runtime_error);
}

TEST(ParallelRunner, AFailedPointLeavesTheOthersReadable)
{
    // The error belongs to the point whose run threw; the lowest seed's
    // exception is the one rethrown, for any job count.
    cell::CellConfig cfg;
    core::RepeatSpec spec{4, 10};
    auto check = [&](core::WorkerPool *pool) {
        core::Sweep sweep(spec, pool);
        sweep.add(cfg, [](cell::CellSystem &) { return 1.0; });
        sweep.add(cfg, [](cell::CellSystem &sys) -> double {
            throw std::runtime_error(
                "seed " + std::to_string(sys.placementSeed()));
        });
        sweep.add(cfg, [](cell::CellSystem &) { return 3.0; });
        EXPECT_EQ(sweep.result(0).mean(), 1.0);
        try {
            sweep.result(1);
            ADD_FAILURE() << "point 1 did not throw";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "seed 10");
        }
        EXPECT_EQ(sweep.result(2).mean(), 3.0);
    };
    check(nullptr);
    core::WorkerPool pool(3);
    check(&pool);
}

TEST(ParallelRunner, AbandonedSweepWaitsForItsRuns)
{
    // Destroying a sweep with runs still queued must neither run them
    // against a dead sweep nor leave them behind in the pool.
    cell::CellConfig cfg;
    core::RepeatSpec spec{3, 1};
    std::atomic<unsigned> calls{0};
    core::WorkerPool pool(2);
    {
        core::Sweep sweep(spec, &pool);
        for (int i = 0; i < 20; ++i) {
            sweep.add(cfg, [&calls](cell::CellSystem &) {
                calls.fetch_add(1, std::memory_order_relaxed);
                return 0.0;
            });
        }
    }
    unsigned after = calls.load();
    EXPECT_LE(after, 60u);
    pool.shutdown();
    EXPECT_EQ(calls.load(), after);
}

TEST(ParallelRunner, OneSweepNeverRunsMoreThanTheWorkers)
{
    // A sweep keeps at most workers() of its runs queued or running,
    // so a suite's other experiments still get the pool.
    cell::CellConfig cfg;
    core::RepeatSpec spec{5, 1};
    for (unsigned jobs : {1u, 2u, 3u}) {
        core::WorkerPool pool(jobs);
        std::mutex m;
        unsigned running = 0, peak = 0;
        core::Sweep sweep(spec, &pool);
        for (int i = 0; i < 8; ++i) {
            sweep.add(cfg, [&](cell::CellSystem &sys) {
                {
                    std::lock_guard<std::mutex> lock(m);
                    peak = std::max(peak, ++running);
                }
                core::SpeSpeConfig sc;
                sc.numSpes = 2;
                sc.elemBytes = 4096;
                sc.bytesPerStream = 16 * util::KiB;
                double gbps = core::runSpeSpe(sys, sc);
                std::lock_guard<std::mutex> lock(m);
                --running;
                return gbps;
            });
        }
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(sweep.result(i).count(), 5u);
        EXPECT_LE(peak, jobs) << "jobs=" << jobs;
        EXPECT_GE(peak, 1u);
    }
}

TEST(ParallelRunner, ASweepOnADrainedPoolRunsInline)
{
    // A pool that refuses work (shutdown began) must not lose runs: the
    // sweep runs them on the thread that could not submit.
    cell::CellConfig cfg;
    core::RepeatSpec spec{3, 42};
    auto serial = sweepOne(cfg, spec, speSpeBody);
    core::WorkerPool pool(2);
    pool.shutdown();
    EXPECT_EQ(sweepOne(cfg, spec, speSpeBody, &pool).samples(),
              serial.samples());
}

TEST(ParallelRunner, ALaterSweepIsNotQueuedBehindAWholeEarlierOne)
{
    // Two experiments share a pool.  Sweep A queues at most workers()
    // runs, so B's first run waits for at most that many of A's runs
    // beyond those that had started once B was added.
    cell::CellConfig cfg;
    const unsigned workers = 2;
    core::WorkerPool pool(workers);
    std::mutex m;
    std::vector<char> starts;
    auto body = [&](char who) {
        return [&m, &starts, who](cell::CellSystem &sys) {
            {
                std::lock_guard<std::mutex> lock(m);
                starts.push_back(who);
            }
            return speSpeBody(sys);
        };
    };
    core::Sweep a(core::RepeatSpec{5, 1}, &pool);
    for (int i = 0; i < 8; ++i)
        a.add(cfg, body('A'));
    core::Sweep b(core::RepeatSpec{2, 1}, &pool);
    b.add(cfg, body('B'));
    std::size_t startedOnceBWasAdded;
    {
        std::lock_guard<std::mutex> lock(m);
        startedOnceBWasAdded = starts.size();
    }
    b.result(0);
    for (std::size_t i = 0; i < 8; ++i)
        a.result(i);
    std::lock_guard<std::mutex> lock(m);
    const auto firstB = static_cast<std::size_t>(
        std::find(starts.begin(), starts.end(), 'B') - starts.begin());
    EXPECT_LE(firstB, startedOnceBWasAdded + workers);
    EXPECT_LT(firstB, 40u);
}

TEST(ParallelRunner, WorkersSeeIndependentSystems)
{
    // Each run must observe a fresh CellSystem at tick 0; leakage of
    // event-queue state across runs would advance now() before the body.
    cell::CellConfig cfg;
    core::RepeatSpec spec{8, 42};
    std::atomic<bool> sawDirtySystem{false};
    core::WorkerPool pool(4);
    sweepOne(cfg, spec, [&](cell::CellSystem &sys) {
        if (sys.now() != 0)
            sawDirtySystem.store(true);
        return speSpeBody(sys);
    }, &pool);
    EXPECT_FALSE(sawDirtySystem.load());
}
