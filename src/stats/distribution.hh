/**
 * @file
 * Sample statistics.
 *
 * The paper reports minimum / maximum / median / mean bandwidth across 10
 * placement-randomized runs (Figures 13 and 16).  Distribution stores the
 * raw samples so all of those (plus arbitrary quantiles) are exact.
 */

#ifndef CELLBW_STATS_DISTRIBUTION_HH
#define CELLBW_STATS_DISTRIBUTION_HH

#include <cstddef>
#include <vector>

namespace cellbw::stats
{

/** Exact sample statistics with storage. */
class Distribution
{
  public:
    void add(double v);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }
    double mean() const;
    double stddev() const;
    double min() const;
    double max() const;
    /** Median: midpoint of the two central order statistics when even. */
    double median() const;
    /**
     * Quantile by linear interpolation between order statistics,
     * q in [0, 1].
     */
    double quantile(double q) const;

    /** The 95th percentile: quantile(0.95).  With one sample, that
     *  sample. */
    double p95() const { return quantile(0.95); }

    /**
     * Coefficient of variation as a percentage: 100 * stddev / mean.
     * 0 when empty, when there is a single sample (stddev is 0), or
     * when the mean is 0 (a zero-bandwidth point has no meaningful
     * relative spread).
     */
    double cv() const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
    /**
     * Sorted copy maintained eagerly by add().  Eager insertion keeps
     * every const accessor genuinely read-only, so concurrent readers
     * (the parallel seed-sweep runner) need no locking — a lazy
     * sort-on-demand cache mutated under const was a data race.
     */
    std::vector<double> sorted_;
};

} // namespace cellbw::stats

#endif // CELLBW_STATS_DISTRIBUTION_HH
