#include "core/worker_pool.hh"

#include "sim/logging.hh"

namespace cellbw::core
{

WorkerPool::WorkerPool(std::uint64_t workers)
{
    if (workers > kMaxWorkers) {
        sim::fatal("WorkerPool: %llu workers requested, at most %u "
                   "allowed", (unsigned long long)workers, kMaxWorkers);
    }
    if (workers == 0)
        workers = std::thread::hardware_concurrency();
    if (workers == 0)
        workers = 1;
    threads_.reserve(workers);
    for (std::uint64_t i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    shutdown();
}

void
WorkerPool::submit(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_) {
            // A task accepted here could be silently dropped (workers
            // may already have observed the empty queue and exited) or
            // run on a pool mid-join.  Refuse loudly instead.
            sim::fatal("WorkerPool::submit after shutdown began; the "
                       "caller must stop admitting work before "
                       "draining the pool");
        }
        queue_.push_back(std::move(fn));
    }
    cv_.notify_one();
}

void
WorkerPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    std::lock_guard<std::mutex> join(joinMutex_);
    if (joined_)
        return;
    for (auto &t : threads_)
        t.join();
    joined_ = true;
}

bool
WorkerPool::stopping() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stop_;
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return;     // stop_ set and nothing left to drain
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace cellbw::core
