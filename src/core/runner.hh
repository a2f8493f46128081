/**
 * @file
 * Seed-sweep harness.
 *
 * "Since we expect physical resource layout to be a critical factor,
 * but the current API does not allow the programmer to control such
 * layout, we run all our experiments 10 times to test different logical
 * to physical SPE mappings" — the paper, Section 3.  A Sweep does
 * exactly that for every point of an experiment: N fresh systems, N
 * placement seeds, one Distribution per point.
 *
 * An experiment first add()s every (config, body) point, then reads
 * each point's result().  The runs are completely independent — each
 * owns a private CellSystem (event queue, RNG, memory model) — so with
 * a WorkerPool the whole sweep, not just one point, fans out over the
 * pool's workers.  Samples are merged in seed order regardless of which
 * worker finished first, so every Distribution is bit-identical to a
 * serial sweep: --jobs only changes wall-clock time, never results.
 */

#ifndef CELLBW_CORE_RUNNER_HH
#define CELLBW_CORE_RUNNER_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>

#include "cell/cell_system.hh"
#include "stats/distribution.hh"

namespace cellbw::util
{
class Options;
} // namespace cellbw::util

namespace cellbw::stats
{
class MetricsRegistry;
} // namespace cellbw::stats

namespace cellbw::core
{

struct RepeatSpec
{
    /** Placement-randomized repetitions (the paper uses 10). */
    unsigned runs = 10;

    /** Base seed; run i uses seed + i. */
    std::uint64_t seed = 42;

    /**
     * Discarded leading repetitions.  The warmup runs execute at seeds
     * [seed, seed + warmup) and their samples (and metrics) are thrown
     * away; the recorded runs then start at seed + warmup.  That gives
     * warmup a deterministic identity — (seed=s, warmup=w) records
     * exactly the samples of (seed=s+w, warmup=0) — which is why the
     * sim default stays 0: existing reports remain byte-identical.  On
     * the native backend warmup is what pulls buffers through the host
     * cache hierarchy before the first timed pass.
     */
    unsigned warmup = 0;

    /**
     * When set, every recorded run's CellSystem::snapshotMetrics()
     * accumulates into this registry after its body returns.  The
     * registry's counters are atomic and accumulation is commutative,
     * so the totals are identical for any --jobs value.
     */
    stats::MetricsRegistry *metrics = nullptr;

    /**
     * Register the repeat options (--runs/--seed/--warmup) on @p opts.
     * Every experiment used to copy-paste this block; the spec owns it
     * now.  @p defaultWarmup lets native contexts default to a warmed
     * first measurement while sim stays at 0.
     */
    static void registerOptions(util::Options &opts,
                                unsigned defaultWarmup = 0);

    /**
     * Populate from parsed options.  @return false (with @p err set)
     * when the values are invalid (--runs 0).
     */
    bool fromOptions(const util::Options &opts, std::string &err);
};

class WorkerPool;

/**
 * What one run measured: a bandwidth in GB/s, plus a second value for
 * the bodies that measure two things per run (msg_pingpong's half
 * round trip).  Converts from a plain double, so most bodies just
 * return their GB/s.
 */
struct RunSample
{
    RunSample(double v) : value(v) {}
    RunSample(double v, double s) : value(v), second(s) {}

    double value;
    double second = 0.0;
};

using ExperimentBody = std::function<RunSample(cell::CellSystem &)>;

/**
 * Every point of one experiment, each run once per placement seed on a
 * freshly constructed system.
 *
 * Without a pool, add() runs the point's seeds inline before it
 * returns, so runs execute in (point, seed) order.  With one, the runs
 * execute on the pool's workers in the same order of submission: the
 * sweep keeps at most pool->workers() of its runs queued or running,
 * and each run that finishes submits the sweep's next one.  A run
 * re-enters the pool's FIFO behind everyone else's, so experiments of
 * a suite and concurrent serve requests interleave one run at a time.
 *
 * Bodies run concurrently and after add() has returned, so a body must
 * capture its point config by value and must not mutate state shared
 * between invocations.  Each recorded run snapshots its metrics into
 * its spec's registry from whichever thread ran it; counters add
 * atomically and histograms keep the largest bound asked for, so the
 * totals do not depend on --jobs.
 *
 * The destructor drops the runs not yet submitted and waits for the
 * ones in flight, so a sweep abandoned by an exception leaves no task
 * behind that could touch it.
 */
class Sweep
{
  public:
    /** @p spec is the default for add(); @p pool null runs inline. */
    explicit Sweep(const RepeatSpec &spec, WorkerPool *pool = nullptr);
    ~Sweep();

    Sweep(const Sweep &) = delete;
    Sweep &operator=(const Sweep &) = delete;

    /** Add a point run under the sweep's spec; @return its index. */
    std::size_t add(const cell::CellConfig &cfg, ExperimentBody body);

    /**
     * Add a point with its own spec (a deterministic point needs one
     * run, and a spec without a registry books no metrics).
     */
    std::size_t add(const cell::CellConfig &cfg, const RepeatSpec &spec,
                    ExperimentBody body);

    /**
     * Wait for point @p i and return its samples, sample r from seed
     * + warmup + r.  When a run threw, rethrows the exception of the
     * lowest-seeded one.
     */
    const stats::Distribution &result(std::size_t i);

    /** As result(), for the runs' RunSample::second values. */
    const stats::Distribution &second(std::size_t i);

  private:
    struct Point;

    /** One run: a point and its run index (warmups first). */
    struct Job
    {
        Point *point;
        unsigned run;
    };

    bool takeNext(Job &job);
    void execute(const Job &job);
    void work(Job job);
    Point &wait(std::size_t i);

    RepeatSpec spec_;
    WorkerPool *pool_;

    std::mutex mutex_;
    std::condition_variable cv_;
    /** Points never move once added: workers hold Point pointers. */
    std::deque<Point> points_;
    std::size_t nextPoint_ = 0;     ///< the next run to submit ...
    unsigned nextRun_ = 0;          ///< ... is (nextPoint_, nextRun_)
    unsigned inflight_ = 0;         ///< runs queued or running
    bool cancelled_ = false;
};

} // namespace cellbw::core

#endif // CELLBW_CORE_RUNNER_HH
