/**
 * @file
 * Repeated-run harness.
 *
 * "Since we expect physical resource layout to be a critical factor,
 * but the current API does not allow the programmer to control such
 * layout, we run all our experiments 10 times to test different logical
 * to physical SPE mappings" — the paper, Section 3.  repeatRuns() does
 * exactly that: N fresh systems, N placement seeds, one Distribution.
 *
 * The N runs are completely independent — each owns a private
 * CellSystem (event queue, RNG, memory model) — so repeatRuns() can fan
 * them out over a shared WorkerPool.  Samples are merged in seed order
 * regardless of which worker finished first, so the resulting
 * Distribution is bit-identical to a serial sweep: --jobs only changes
 * wall-clock time, never results.
 */

#ifndef CELLBW_CORE_RUNNER_HH
#define CELLBW_CORE_RUNNER_HH

#include <functional>
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

using ExperimentBody = std::function<double(cell::CellSystem &)>;

/**
 * Run @p body once per placement seed on a freshly constructed system
 * and collect the per-run GB/s samples.
 *
 * With a @p pool the runs execute concurrently on its workers, one
 * CellSystem each, and the caller blocks until its own runs complete;
 * @p body must therefore not mutate state shared between invocations
 * (all in-tree bodies only read their config and return a bandwidth).
 * Without one they run inline, in seed order.  Output order is
 * deterministic either way: sample i always comes from seed + i.
 */
stats::Distribution repeatRuns(const cell::CellConfig &cfg,
                               const RepeatSpec &spec,
                               const ExperimentBody &body,
                               WorkerPool *pool = nullptr);

} // namespace cellbw::core

#endif // CELLBW_CORE_RUNNER_HH
