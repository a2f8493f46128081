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
 * The engine owns one EventQueue per partition plus an n x n mesh of
 * message channels.  A partition sends work across the boundary with
 * post(); messages are delivered at window boundaries in a fixed
 * (when, srcPartition, seq) order, and each window runs the partitions
 * one after another in index order.  The event schedule — and hence
 * every report — is a property of that partitioned schedule alone.
 * Windows are a handful of events long (one IOIF crossing), so the
 * engine runs them on the calling thread: synchronizing worker threads
 * twice per window would cost more than the events themselves.
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
     * Cross-partition messages carry their continuation; crossing DMA
     * lines additionally carry their 128-byte payload, so the inline
     * window is sized for a this-pointer, a line of data, and a few
     * words of routing state.
     */
    using ChannelFn = util::InlineFunction<void(), 176>;

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
    void post(unsigned src, unsigned dst, Tick when, ChannelFn fn);

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

    void setProfiling(bool on);

  private:
    struct Msg
    {
        Tick when;
        std::uint64_t seq;
        unsigned src;
        ChannelFn fn;
    };

    /** Earliest pending event or undelivered message, or maxTick. */
    Tick nextTick() const;

    /** Move every channel message with when <= @p horizon into its
     *  destination queue, in (when, src, seq) order. */
    void deliverDue(Tick horizon);

    unsigned n_;
    Tick lookahead_;
    std::vector<std::unique_ptr<EventQueue>> queues_;
    /** channels_[src * n_ + dst]: messages in flight src -> dst. */
    std::vector<std::vector<Msg>> channels_;
    std::vector<std::uint64_t> channelSeq_;
    std::uint64_t delivered_ = 0;
    std::vector<Msg> due_;
};

} // namespace cellbw::sim

#endif // CELLBW_SIM_PARALLEL_HH
