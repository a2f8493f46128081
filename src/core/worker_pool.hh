/**
 * @file
 * A shared worker-thread pool for seed sweeps.
 *
 * One process has one pool: `cellbw run` builds one for --jobs, and
 * `cellbw suite` and `cellbw serve` run every experiment against theirs.
 * Each experiment's core::Sweep (via ExperimentContext::pool) keeps up
 * to workers() of its runs in the queue, and each run that finishes
 * submits the sweep's next one, so at any moment the pool's N workers
 * are busy with whatever runs are ready, regardless of which
 * experiment or which point of it they belong to.
 *
 * Tasks must be independent (the seed-sweep runs are: one private
 * CellSystem each) and must never wait on another task — waiting
 * happens on the experiment's thread, never on a worker.  A task may
 * submit another.
 *
 * Shutdown semantics (the serve daemon's drain path depends on these
 * being exact):
 *  - shutdown() (or the destructor, which calls it) marks the pool
 *    stopping, drains every task already accepted — run to completion,
 *    never dropped — and joins the workers.  Idempotent and safe to
 *    call from multiple threads.
 *  - submit() after shutdown has begun throws sim::FatalError instead
 *    of silently dropping the task or racing a dead pool.  Callers
 *    that can race shutdown (the daemon) must stop admitting work
 *    before draining, which is exactly what the 503 path does.
 */

#ifndef CELLBW_CORE_WORKER_POOL_HH
#define CELLBW_CORE_WORKER_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cellbw::core
{

class WorkerPool
{
  public:
    /** The most workers one pool may start. */
    static constexpr unsigned kMaxWorkers = 1024;

    /**
     * Start @p workers threads; 0 means hardware_concurrency().  A
     * count above kMaxWorkers is fatal() before any thread starts.
     */
    explicit WorkerPool(std::uint64_t workers);

    /** shutdown(): drains accepted tasks, then joins. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Enqueue @p fn; it runs on some worker, FIFO.  Throws
     * sim::FatalError once shutdown has begun — an accepted task is
     * guaranteed to run, so acceptance must be refused loudly rather
     * than dropped silently.
     */
    void submit(std::function<void()> fn);

    /**
     * Begin shutdown: refuse new submissions, run every already
     * accepted task to completion, join the workers.  Idempotent;
     * concurrent callers all block until the join finishes.
     */
    void shutdown();

    /** True once shutdown has begun (submit() would throw). */
    bool stopping() const;

    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stop_ = false;
    std::vector<std::thread> threads_;

    /** Serializes the join phase of concurrent shutdown() calls. */
    std::mutex joinMutex_;
    bool joined_ = false;
};

} // namespace cellbw::core

#endif // CELLBW_CORE_WORKER_POOL_HH
