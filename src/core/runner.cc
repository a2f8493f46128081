#include "core/runner.hh"

#include <exception>
#include <vector>

#include "core/worker_pool.hh"
#include "sim/logging.hh"
#include "util/options.hh"

namespace cellbw::core
{

void
RepeatSpec::registerOptions(util::Options &opts, unsigned defaultWarmup)
{
    opts.addUint("runs", 10,
                 "placement-randomized repetitions per point");
    opts.addUint("seed", 42, "base placement seed");
    opts.addUint("warmup", defaultWarmup,
                 "discarded leading repetitions per point (recorded "
                 "runs start at seed + warmup)");
}

bool
RepeatSpec::fromOptions(const util::Options &opts, std::string &err)
{
    if (opts.getUint("runs") == 0) {
        err = "--runs must be at least 1 (0 runs would produce an "
              "empty distribution and NaN summaries)";
        return false;
    }
    runs = static_cast<unsigned>(opts.getUint("runs"));
    seed = opts.getUint("seed");
    warmup = static_cast<unsigned>(opts.getUint("warmup"));
    return true;
}

struct Sweep::Point
{
    Point(const cell::CellConfig &c, const RepeatSpec &s,
          ExperimentBody b)
        : cfg(c), spec(s), body(std::move(b)),
          pending(s.warmup + s.runs), samples(s.runs, RunSample(0.0))
    {
    }

    cell::CellConfig cfg;
    RepeatSpec spec;
    ExperimentBody body;

    /** Runs not yet finished, warmups included. */
    unsigned pending;
    std::vector<RunSample> samples;
    std::exception_ptr error;
    unsigned errorRun = 0;

    bool merged = false;
    stats::Distribution dist;
    stats::Distribution second;
};

Sweep::Sweep(const RepeatSpec &spec, WorkerPool *pool)
    : spec_(spec), pool_(pool)
{
}

Sweep::~Sweep()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cancelled_ = true;
    cv_.wait(lock, [this] { return inflight_ == 0; });
}

std::size_t
Sweep::add(const cell::CellConfig &cfg, ExperimentBody body)
{
    return add(cfg, spec_, std::move(body));
}

std::size_t
Sweep::add(const cell::CellConfig &cfg, const RepeatSpec &spec,
           ExperimentBody body)
{
    std::vector<Job> start;
    std::size_t index;
    Point *p;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = points_.size();
        p = &points_.emplace_back(cfg, spec, std::move(body));
        Job job;
        while (pool_ && inflight_ < pool_->workers() && takeNext(job)) {
            ++inflight_;
            start.push_back(job);
        }
    }
    if (!pool_) {
        // Inline: this point's runs, in seed order, right now.
        for (unsigned r = 0; r < spec.warmup + spec.runs; ++r)
            execute({p, r});
        return index;
    }
    for (const Job &job : start) {
        try {
            pool_->submit([this, job] { work(job); });
        } catch (const sim::FatalError &) {
            // The pool is draining: run here instead.
            work(job);
        }
    }
    return index;
}

bool
Sweep::takeNext(Job &job)
{
    if (cancelled_)
        return false;
    while (nextPoint_ < points_.size()) {
        Point &p = points_[nextPoint_];
        if (nextRun_ < p.spec.warmup + p.spec.runs) {
            job = {&p, nextRun_++};
            return true;
        }
        ++nextPoint_;
        nextRun_ = 0;
    }
    return false;
}

void
Sweep::execute(const Job &job)
{
    // cfg, spec and body are never written after add(), so the run
    // reads them without the lock.
    Point &p = *job.point;
    const bool recorded = job.run >= p.spec.warmup;
    RunSample sample(0.0);
    std::exception_ptr err;
    try {
        cell::CellSystem sys(p.cfg, p.spec.seed + job.run);
        sample = p.body(sys);
        if (recorded && p.spec.metrics)
            sys.snapshotMetrics(*p.spec.metrics);
    } catch (...) {
        err = std::current_exception();
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (recorded)
        p.samples[job.run - p.spec.warmup] = sample;
    if (err && (!p.error || job.run < p.errorRun)) {
        p.error = err;
        p.errorRun = job.run;
    }
    if (--p.pending == 0)
        cv_.notify_all();
}

void
Sweep::work(Job job)
{
    for (;;) {
        execute(job);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!takeNext(job)) {
                // Notify under the lock: once inflight_ reaches 0 the
                // destructor may free the condition variable.
                if (--inflight_ == 0)
                    cv_.notify_all();
                return;
            }
        }
        // The in-flight slot passes to the next run.  Resubmitting puts
        // it behind every other sweep's runs in the pool's queue.
        try {
            pool_->submit([this, job] { work(job); });
            return;
        } catch (const sim::FatalError &) {
            // The pool is draining: run it on this worker instead.
        }
    }
}

Sweep::Point &
Sweep::wait(std::size_t i)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (i >= points_.size())
        sim::fatal("Sweep: no point %zu (%zu added)", i, points_.size());
    Point &p = points_[i];
    cv_.wait(lock, [&p] { return p.pending == 0; });
    if (p.error)
        std::rethrow_exception(p.error);
    if (!p.merged) {
        for (const RunSample &s : p.samples) {
            p.dist.add(s.value);
            p.second.add(s.second);
        }
        p.merged = true;
    }
    return p;
}

const stats::Distribution &
Sweep::result(std::size_t i)
{
    return wait(i).dist;
}

const stats::Distribution &
Sweep::second(std::size_t i)
{
    return wait(i).second;
}

} // namespace cellbw::core
