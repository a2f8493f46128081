/**
 * @file
 * Conservative partitioned discrete-event engine.
 *
 * The dual-Cell blade partitions naturally at the IOIF: everything on
 * one chip (its SPEs, its EIB, its XDR bank) interacts with the other
 * chip only through the FlexIO link, whose one-way crossing latency L
 * is a hard lower bound on how soon an event on one chip can affect
 * the other.  That makes L a classic conservative-synchronization
 * lookahead: each partition may safely run to `tmin + L - 1`, where
 * tmin is the earliest pending event (or undelivered cross-partition
 * message) anywhere in the system.
 *
 * The engine owns one EventQueue per partition plus one delivery heap.
 * A partition sends work across the boundary with post(): the closure
 * parks in a stable slot store and a small (when, channel, seq, slot)
 * key enters a min-heap.  At each window boundary the heap pops every
 * message due in the window, in (when, src, dst, post order) order,
 * into its destination queue as a {engine, slot} event; then the
 * partitions with an event or a delivery inside the window run one
 * after another in index order, and idle partitions are skipped.  A
 * window therefore costs O(messages it delivers + partitions with
 * work).  The event schedule — and hence every report — is a property
 * of that partitioned schedule alone.  Windows are a handful of events
 * long (one IOIF crossing), so the engine runs them on the calling
 * thread: synchronizing worker threads twice per window would cost
 * more than the events themselves.
 *
 * A skipped partition's now() lags until it next has work; run() brings
 * every partition's now() to the last window's end before it returns,
 * as if each had run every window.
 *
 * A single-chip system is a one-partition engine.  With no peer to
 * post to it, run() drains that partition's queue directly rather than
 * window by window, and the lookahead goes unused (it may be zero).
 *
 * The safety rule post() enforces: a message created by an event
 * executing at tick t must be delivered no earlier than t + L.  Since
 * every event in a window executes at t >= tmin, a compliant message
 * lands at >= tmin + L, strictly beyond the window's end — no partition
 * can ever receive a message for a tick it has already passed.
 */

#ifndef CELLBW_SIM_PARALLEL_HH
#define CELLBW_SIM_PARALLEL_HH

#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "util/inline_function.hh"

namespace cellbw::sim
{

class PartitionedEngine
{
  public:
    /**
     * Cross-partition messages carry their continuation and a few
     * words of routing state; a crossing DMA line's payload stays in
     * its home flight slot (see cell/cell_system).  The window fits the
     * largest in-tree crossing closure — a multi-hop link wrapper
     * (mem::LinkGraph::sendData) around a 32-byte line continuation —
     * and a closure that would not fit is a compile error, so posting
     * never allocates.
     */
    using ChannelFn = util::InlineFunction<void(), 56, false>;

    PartitionedEngine(unsigned partitions, Tick lookahead);
    ~PartitionedEngine();

    PartitionedEngine(const PartitionedEngine &) = delete;
    PartitionedEngine &operator=(const PartitionedEngine &) = delete;

    unsigned partitions() const { return n_; }
    Tick lookahead() const { return lookahead_; }
    EventQueue &queue(unsigned p) { return *queues_[p]; }
    const EventQueue &queue(unsigned p) const { return *queues_[p]; }

    /**
     * Send @p fn from partition @p src to another partition @p dst, to
     * run at tick @p when.  Must be called from @p src's execution
     * context (its queue's current event); panics if @p when violates
     * the lookahead safety rule.
     */
    void post(unsigned src, unsigned dst, Tick when, ChannelFn &&fn);

    /**
     * Run every partition, window by window (or a lone partition
     * straight through), until no events or undelivered messages
     * remain.
     * @return total events processed across all partitions.
     */
    std::uint64_t run();

    /** Latest dispatched tick across all partitions. */
    Tick lastDispatchTick() const;

    std::uint64_t eventsProcessed() const;

    /** Number of cross-partition messages delivered so far. */
    std::uint64_t messagesDelivered() const { return delivered_; }

    /** Messages posted and not yet handed to their destination queue. */
    std::size_t undelivered() const { return heap_.size(); }

    /** Slot-store entries holding a closure not yet run.  Both counts
     *  are zero once run() returns. */
    std::size_t
    parkedClosures() const
    {
        return slotCount_ - freeSlots_.size();
    }

    void setProfiling(bool on);

  private:
    /** Heap key of one undelivered message. */
    struct Pending
    {
        Tick when;
        /** (src * n + dst) << kSeqBits | post sequence number. */
        std::uint64_t order;
        std::uint32_t slot;
        std::uint32_t dst;
    };

    /** Min-heap order on (when, channel, post order). */
    struct Later
    {
        bool
        operator()(const Pending &a, const Pending &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.order > b.order;
        }
    };

    static constexpr unsigned kSeqBits = 48;
    static constexpr std::uint32_t kSlotsPerBlock = 256;

    ChannelFn &
    slot(std::uint32_t s)
    {
        return blocks_[s / kSlotsPerBlock][s % kSlotsPerBlock];
    }

    std::uint32_t acquireSlot();

    /** Run the message parked in slot @p s, then recycle the slot. */
    void deliver(std::uint32_t s);

    /** Move every message with when <= @p horizon into its destination
     *  queue, in heap order, and lower that partition's next_ tick. */
    void deliverDue(Tick horizon);

    unsigned n_;
    Tick lookahead_;
    std::vector<std::unique_ptr<EventQueue>> queues_;
    std::vector<Pending> heap_;
    /** Stable closure store: blocks never move, so a delivered closure
     *  runs in place while it posts new messages. */
    std::vector<std::unique_ptr<ChannelFn[]>> blocks_;
    std::vector<std::uint32_t> freeSlots_;
    std::uint32_t slotCount_ = 0;
    std::uint64_t nextSeq_ = 0;
    /** Per partition: earliest event or delivery of the current window. */
    std::vector<Tick> next_;
    std::uint64_t delivered_ = 0;
};

} // namespace cellbw::sim

#endif // CELLBW_SIM_PARALLEL_HH
