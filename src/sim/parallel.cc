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
    if (static_cast<std::uint64_t>(n_) * n_ > (1u << (64 - kSeqBits)))
        fatal("partitioned engine supports at most %u partitions",
              1u << ((64 - kSeqBits) / 2));
    if (lookahead_ == 0 && n_ > 1)
        fatal("partitioned engine needs a positive lookahead");
    queues_.reserve(n_);
    for (unsigned p = 0; p < n_; ++p)
        queues_.push_back(std::make_unique<EventQueue>());
    next_.resize(n_, maxTick);
}

PartitionedEngine::~PartitionedEngine() = default;

std::uint32_t
PartitionedEngine::acquireSlot()
{
    if (!freeSlots_.empty()) {
        const std::uint32_t s = freeSlots_.back();
        freeSlots_.pop_back();
        return s;
    }
    if (slotCount_ % kSlotsPerBlock == 0)
        blocks_.push_back(std::make_unique<ChannelFn[]>(kSlotsPerBlock));
    return slotCount_++;
}

void
PartitionedEngine::post(unsigned src, unsigned dst, Tick when,
                        ChannelFn &&fn)
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
    const std::uint32_t s = acquireSlot();
    slot(s) = std::move(fn);
    // Post order stands in for a per-channel sequence number: within
    // one (when, channel) it orders messages exactly the same way.
    const std::uint64_t channel = std::uint64_t(src) * n_ + dst;
    heap_.push_back(Pending{when, (channel << kSeqBits) | nextSeq_++, s,
                            dst});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
PartitionedEngine::deliver(std::uint32_t s)
{
    // Runs in place: the block never moves, even if the closure posts
    // new messages that grow the store.
    ChannelFn &fn = slot(s);
    fn();
    fn.reset();
    freeSlots_.push_back(s);
}

void
PartitionedEngine::deliverDue(Tick horizon)
{
    // Heap order is the fixed delivery order: earliest first, ties by
    // channel (source partition, then destination), then post order —
    // the schedule does not depend on which partition posted first in
    // host time.
    while (!heap_.empty() && heap_.front().when <= horizon) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        const Pending m = heap_.back();
        heap_.pop_back();
        EventQueue &q = *queues_[m.dst];
        // Deterministic profile attribution: delivered messages are
        // boundary traffic, not the last event's component.
        TagScope tag(q, EventTag::Other);
        q.scheduleAt(m.when, [this, s = m.slot] { deliver(s); });
        next_[m.dst] = std::min(next_[m.dst], m.when);
        ++delivered_;
    }
}

std::uint64_t
PartitionedEngine::run()
{
    // No peer can post to a lone partition: drain it directly, which
    // also leaves now() at the last event instead of a window's end.
    if (n_ == 1)
        return queues_[0]->run();
    std::uint64_t events = 0;
    Tick last_end = 0;
    for (;;) {
        Tick tmin = heap_.empty() ? maxTick : heap_.front().when;
        for (unsigned p = 0; p < n_; ++p) {
            next_[p] = queues_[p]->nextEventTick();
            tmin = std::min(tmin, next_[p]);
        }
        if (tmin == maxTick)
            break;
        const Tick window_end = (tmin > maxTick - lookahead_)
                                    ? maxTick
                                    : tmin + lookahead_ - 1;
        deliverDue(window_end);
        for (unsigned p = 0; p < n_; ++p) {
            if (next_[p] <= window_end)
                events += queues_[p]->runUntil(window_end);
        }
        last_end = window_end;
    }
    // Every queue is empty: bring the skipped partitions' clocks to the
    // last window's end, where running every window would have left
    // them.
    for (auto &q : queues_)
        q->runUntil(last_end);
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
