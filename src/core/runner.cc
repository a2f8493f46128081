#include "core/runner.hh"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <vector>

#include "core/worker_pool.hh"
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

namespace
{

double
runOne(const cell::CellConfig &cfg, const RepeatSpec &spec,
       std::uint64_t seed, const ExperimentBody &body)
{
    cell::CellSystem sys(cfg, seed);
    double sample = body(sys);
    if (spec.metrics)
        sys.snapshotMetrics(*spec.metrics);
    return sample;
}

/**
 * Seed sweep through a shared pool: submit every run, wait for this
 * batch only.  The pool interleaves these tasks with other
 * experiments' runs; merging in seed order below keeps the result
 * bit-identical to the serial loop.
 */
stats::Distribution
repeatRunsPooled(const cell::CellConfig &cfg, const RepeatSpec &spec,
                 const ExperimentBody &body, WorkerPool &pool)
{
    std::vector<double> results(spec.runs, 0.0);
    std::mutex m;
    std::condition_variable cv;
    unsigned done = 0;
    std::exception_ptr firstError;

    for (unsigned r = 0; r < spec.runs; ++r) {
        pool.submit([&, r] {
            double sample = 0.0;
            std::exception_ptr err;
            try {
                sample = runOne(cfg, spec, spec.seed + r, body);
            } catch (...) {
                err = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(m);
            results[r] = sample;
            if (err && !firstError)
                firstError = err;
            if (++done == spec.runs)
                cv.notify_one();
        });
    }

    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done == spec.runs; });
    if (firstError)
        std::rethrow_exception(firstError);

    stats::Distribution dist;
    for (unsigned r = 0; r < spec.runs; ++r)
        dist.add(results[r]);
    return dist;
}

} // namespace

stats::Distribution
repeatRuns(const cell::CellConfig &cfg, const RepeatSpec &requested,
           const ExperimentBody &body, WorkerPool *pool)
{
    // Warmup runs execute serially up front and are discarded (no
    // sample, no metrics); the recorded sweep then starts at
    // seed + warmup, so the recorded samples are exactly those of a
    // warmup-free sweep based at that seed.
    RepeatSpec spec = requested;
    if (spec.warmup > 0) {
        RepeatSpec discard = spec;
        discard.metrics = nullptr;
        for (unsigned w = 0; w < spec.warmup; ++w)
            runOne(cfg, discard, spec.seed + w, body);
        spec.seed += spec.warmup;
        spec.warmup = 0;
    }

    if (pool)
        return repeatRunsPooled(cfg, spec, body, *pool);

    stats::Distribution dist;
    for (unsigned r = 0; r < spec.runs; ++r)
        dist.add(runOne(cfg, spec, spec.seed + r, body));
    return dist;
}

} // namespace cellbw::core
