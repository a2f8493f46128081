/** @file Tests for the shared WorkerPool's shutdown semantics. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/worker_pool.hh"
#include "sim/logging.hh"

using namespace cellbw;

TEST(WorkerPool, RunsEverySubmittedTask)
{
    core::WorkerPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.shutdown();
    EXPECT_EQ(ran.load(), 200);
}

TEST(WorkerPool, ShutdownDrainsAcceptedTasksNeverDrops)
{
    // Tasks accepted before shutdown() must run to completion — a
    // dropped task would strand a coordinator blocked on its result.
    core::WorkerPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 32; ++i) {
        pool.submit([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ran.fetch_add(1);
        });
    }
    pool.shutdown();            // must block until all 32 completed
    EXPECT_EQ(ran.load(), 32);
}

TEST(WorkerPool, SubmitAfterShutdownThrows)
{
    core::WorkerPool pool(2);
    pool.submit([] {});
    pool.shutdown();
    EXPECT_TRUE(pool.stopping());
    // The defined semantics: after shutdown begins, submit() is a loud
    // caller error, never a silent drop.
    EXPECT_THROW(pool.submit([] {}), sim::FatalError);
}

TEST(WorkerPool, ShutdownIsIdempotentAndConcurrent)
{
    core::WorkerPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 64; ++i)
        pool.submit([&] { ran.fetch_add(1); });

    std::vector<std::thread> callers;
    for (int i = 0; i < 4; ++i)
        callers.emplace_back([&] { pool.shutdown(); });
    for (auto &t : callers)
        t.join();
    pool.shutdown();            // and again, after everyone joined
    EXPECT_EQ(ran.load(), 64);
}

TEST(WorkerPool, DestructorSmokesAfterExplicitShutdown)
{
    // The destructor calls shutdown() itself; an explicit earlier call
    // must not double-join.
    auto pool = std::make_unique<core::WorkerPool>(2);
    std::atomic<int> ran{0};
    pool->submit([&] { ran.fetch_add(1); });
    pool->shutdown();
    pool.reset();
    EXPECT_EQ(ran.load(), 1);
}

TEST(WorkerPool, RejectsMoreWorkersThanTheCapBeforeStartingAny)
{
    // The check runs before the first thread starts, so neither call
    // below creates a thread.  A 64-bit count is not truncated first.
    const std::uint64_t over = core::WorkerPool::kMaxWorkers + 1ull;
    try {
        core::WorkerPool pool(over);
        FAIL() << "a pool of " << over << " workers was accepted";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("1025 workers"),
                  std::string::npos) << e.what();
    }
    EXPECT_THROW(core::WorkerPool((1ull << 32) + 1), sim::FatalError);
}
