#include "stats/metrics.hh"

#include "sim/logging.hh"
#include "stats/json_writer.hh"
#include "util/strings.hh"

namespace cellbw::stats
{

Histogram::Histogram(unsigned upperBound)
    : buckets_(static_cast<std::size_t>(upperBound) + 1)
{
}

void
Histogram::add(std::uint64_t sample)
{
    addBucket(sample, 1);
}

void
Histogram::addBucket(std::uint64_t bucket, std::uint64_t count)
{
    if (count == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t i = bucket < buckets_.size()
                        ? static_cast<std::size_t>(bucket)
                        : buckets_.size() - 1;
    buckets_[i] += count;
    count_ += count;
    sum_ += bucket * count;
}

void
Histogram::grow(unsigned upperBound)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (upperBound + std::size_t{1} > buckets_.size())
        buckets_.resize(upperBound + std::size_t{1}, 0);
}

std::uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

std::uint64_t
Histogram::sum() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sum_;
}

double
Histogram::mean() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

unsigned
Histogram::upperBound() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<unsigned>(buckets_.size() - 1);
}

std::uint64_t
Histogram::bucket(unsigned i) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return buckets_[i];
}

unsigned
Histogram::maxBucket() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = buckets_.size(); i-- > 0;)
        if (buckets_[i])
            return static_cast<unsigned>(i);
    return 0;
}

const char *
MetricsRegistry::toString(Kind k)
{
    switch (k) {
      case Kind::Counter:
        return "counter";
      case Kind::Gauge:
        return "gauge";
      case Kind::Histogram:
        return "histogram";
    }
    return "?";
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        Entry e;
        e.kind = Kind::Counter;
        e.counter = std::make_unique<Counter>();
        it = entries_.emplace(name, std::move(e)).first;
    } else if (it->second.kind != Kind::Counter) {
        sim::fatal("metric '%s' already registered as a %s, not a "
                   "counter", name.c_str(), toString(it->second.kind));
    }
    return *it->second.counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        Entry e;
        e.kind = Kind::Gauge;
        e.gauge = std::make_unique<Gauge>();
        it = entries_.emplace(name, std::move(e)).first;
    } else if (it->second.kind != Kind::Gauge) {
        sim::fatal("metric '%s' already registered as a %s, not a "
                   "gauge", name.c_str(), toString(it->second.kind));
    }
    return *it->second.gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &name, unsigned upperBound)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        Entry e;
        e.kind = Kind::Histogram;
        e.histogram = std::make_unique<Histogram>(upperBound);
        it = entries_.emplace(name, std::move(e)).first;
    } else if (it->second.kind != Kind::Histogram) {
        sim::fatal("metric '%s' already registered as a %s, not a "
                   "histogram", name.c_str(),
                   toString(it->second.kind));
    } else {
        it->second.histogram->grow(upperBound);
    }
    return *it->second.histogram;
}

const Counter *
MetricsRegistry::findCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    return (it != entries_.end() && it->second.kind == Kind::Counter)
               ? it->second.counter.get()
               : nullptr;
}

const Gauge *
MetricsRegistry::findGauge(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    return (it != entries_.end() && it->second.kind == Kind::Gauge)
               ? it->second.gauge.get()
               : nullptr;
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    return (it != entries_.end() && it->second.kind == Kind::Histogram)
               ? it->second.histogram.get()
               : nullptr;
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::vector<std::string>
MetricsRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[name, entry] : entries_)
        out.push_back(name);
    return out;
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
}

void
MetricsRegistry::writeJson(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    w.beginObject();
    // std::map iterates in sorted key order: stable output.
    for (const auto &[name, entry] : entries_) {
        w.key(name);
        switch (entry.kind) {
          case Kind::Counter:
            w.value(entry.counter->value());
            break;
          case Kind::Gauge:
            w.value(entry.gauge->value());
            break;
          case Kind::Histogram: {
            const auto &h = *entry.histogram;
            w.beginObject();
            w.key("count").value(h.count());
            w.key("sum").value(h.sum());
            w.key("mean").value(h.mean());
            w.key("buckets").beginArray();
            unsigned last = h.maxBucket();
            for (unsigned i = 0; i <= last; ++i)
                w.value(h.bucket(i));
            w.endArray();
            w.endObject();
            break;
          }
        }
    }
    w.endObject();
}

std::string
MetricsRegistry::render() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    for (const auto &[name, entry] : entries_) {
        switch (entry.kind) {
          case Kind::Counter:
            out += util::format("%s = %llu\n", name.c_str(),
                                (unsigned long long)
                                    entry.counter->value());
            break;
          case Kind::Gauge:
            out += util::format("%s = %g\n", name.c_str(),
                                entry.gauge->value());
            break;
          case Kind::Histogram: {
            const auto &h = *entry.histogram;
            out += util::format("%s = hist(count=%llu, mean=%.2f)\n",
                                name.c_str(),
                                (unsigned long long)h.count(),
                                h.mean());
            break;
          }
        }
    }
    return out;
}

} // namespace cellbw::stats
