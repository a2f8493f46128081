#include "sim/parallel.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cellbw::sim
{

PartitionedEngine::PartitionedEngine(unsigned partitions, Tick lookahead)
    : n_(partitions), lookahead_(lookahead)
{
    if (n_ == 0)
        fatal("partitioned engine needs at least one partition");
    if (lookahead_ == 0 && n_ > 1)
        fatal("partitioned engine needs a positive lookahead");
    queues_.reserve(n_);
    for (unsigned p = 0; p < n_; ++p)
        queues_.push_back(std::make_unique<EventQueue>());
    channels_.resize(static_cast<std::size_t>(n_) * n_);
    channelSeq_.resize(channels_.size(), 0);
}

PartitionedEngine::~PartitionedEngine() = default;

void
PartitionedEngine::post(unsigned src, unsigned dst, Tick when,
                        ChannelFn fn)
{
    if (src >= n_ || dst >= n_)
        panic("post between unknown partitions %u -> %u", src, dst);
    if (src == dst)
        panic("post from partition %u to itself", src);
    Tick src_now = queues_[src]->now();
    if (when < src_now + lookahead_) {
        panic("cross-partition post at tick %llu from partition %u "
              "(now %llu) violates the lookahead of %llu ticks",
              (unsigned long long)when, src,
              (unsigned long long)src_now,
              (unsigned long long)lookahead_);
    }
    auto &ch = channels_[static_cast<std::size_t>(src) * n_ + dst];
    ch.push_back(Msg{when,
                     channelSeq_[static_cast<std::size_t>(src) * n_ + dst]++,
                     src, std::move(fn)});
}

Tick
PartitionedEngine::nextTick() const
{
    Tick t = maxTick;
    for (auto &q : queues_)
        t = std::min(t, q->nextEventTick());
    for (auto &ch : channels_)
        for (auto &m : ch)
            t = std::min(t, m.when);
    return t;
}

void
PartitionedEngine::deliverDue(Tick horizon)
{
    due_.clear();
    for (unsigned src = 0; src < n_; ++src) {
        for (unsigned dst = 0; dst < n_; ++dst) {
            auto &ch = channels_[static_cast<std::size_t>(src) * n_ + dst];
            std::size_t kept = 0;
            for (auto &m : ch) {
                if (m.when <= horizon) {
                    // Tag the message with its destination (reuse src:
                    // it is only needed for the sort key below, and the
                    // destination is recoverable from the channel).
                    due_.push_back(std::move(m));
                    due_.back().src = src * n_ + dst;
                } else {
                    ch[kept++] = std::move(m);
                }
            }
            ch.resize(kept);
        }
    }
    if (due_.empty())
        return;
    // A fixed delivery order makes the schedule independent of the
    // channel scan: earliest first, ties by source partition, then by
    // per-channel send order.
    std::sort(due_.begin(), due_.end(), [](const Msg &a, const Msg &b) {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.src != b.src)
            return a.src < b.src;
        return a.seq < b.seq;
    });
    for (auto &m : due_) {
        unsigned dst = m.src % n_;
        // Deterministic profile attribution: delivered messages are
        // boundary traffic, not the last event's component.
        TagScope tag(*queues_[dst], EventTag::Other);
        queues_[dst]->scheduleAt(m.when, std::move(m.fn));
        ++delivered_;
    }
    due_.clear();
}

std::uint64_t
PartitionedEngine::run()
{
    // No peer can post to a lone partition: drain it directly, which
    // also leaves now() at the last event instead of a window's end.
    if (n_ == 1)
        return queues_[0]->run();
    std::uint64_t events = 0;
    for (;;) {
        Tick tmin = nextTick();
        if (tmin == maxTick)
            break;
        Tick window_end = (tmin > maxTick - lookahead_)
                              ? maxTick
                              : tmin + lookahead_ - 1;
        deliverDue(window_end);
        for (auto &q : queues_)
            events += q->runUntil(window_end);
    }
    return events;
}

Tick
PartitionedEngine::lastDispatchTick() const
{
    Tick t = 0;
    for (auto &q : queues_)
        t = std::max(t, q->lastDispatchTick());
    return t;
}

std::uint64_t
PartitionedEngine::eventsProcessed() const
{
    std::uint64_t n = 0;
    for (auto &q : queues_)
        n += q->eventsProcessed();
    return n;
}

void
PartitionedEngine::setProfiling(bool on)
{
    for (auto &q : queues_)
        q->setProfiling(on);
}

} // namespace cellbw::sim
