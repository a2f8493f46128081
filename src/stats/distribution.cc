#include "stats/distribution.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace cellbw::stats
{

void
Distribution::add(double v)
{
    samples_.push_back(v);
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), v),
                   v);
}

double
Distribution::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double v : samples_)
        s += v;
    return s / static_cast<double>(samples_.size());
}

double
Distribution::stddev() const
{
    if (samples_.size() < 2)
        return 0.0;
    double m = mean();
    double s = 0.0;
    for (double v : samples_)
        s += (v - m) * (v - m);
    return std::sqrt(s / static_cast<double>(samples_.size() - 1));
}

double
Distribution::min() const
{
    return sorted_.empty() ? 0.0 : sorted_.front();
}

double
Distribution::max() const
{
    return sorted_.empty() ? 0.0 : sorted_.back();
}

double
Distribution::median() const
{
    return quantile(0.5);
}

double
Distribution::cv() const
{
    double m = mean();
    if (samples_.empty() || m == 0.0)
        return 0.0;
    return 100.0 * stddev() / m;
}

double
Distribution::quantile(double q) const
{
    if (samples_.empty())
        return 0.0;
    if (q < 0.0 || q > 1.0)
        sim::fatal("quantile %g out of [0,1]", q);
    if (sorted_.size() == 1)
        return sorted_.front();
    double pos = q * static_cast<double>(sorted_.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    auto hi = std::min(lo + 1, sorted_.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

} // namespace cellbw::stats
