/**
 * @file
 * IOIF / BIF FlexIO link model.
 *
 * On the dual-Cell blade the second chip's XDR bank is reached through
 * the IOIF, which the paper quotes at 7 GB/s.  The link serializes
 * traffic per direction at that rate and adds a fixed crossing latency.
 */

#ifndef CELLBW_MEM_IO_LINK_HH
#define CELLBW_MEM_IO_LINK_HH

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/parallel.hh"
#include "sim/sim_object.hh"

namespace cellbw::mem
{

struct IoLinkParams
{
    /** Per-direction sustained rate, bytes per tick (~7 GB/s). */
    double bytesPerTick = 3.33;

    /** One-way crossing latency in ticks (~60 ns). */
    Tick crossingLatency = 126;
};

class IoLink : public sim::SimObject
{
  public:
    enum class Dir { Outbound = 0, Inbound = 1 };

    IoLink(std::string name, sim::EventQueue &eq, const IoLinkParams &p);

    using Callback = sim::EventQueue::Callback;

    /**
     * Partitioned-simulation hook (see cell/cell_system).  A crossing's
     * completion always belongs to the *destination* chip; when the
     * chips run on separate event queues, the hook carries the callback
     * into the far partition instead of the local queue.  @p srcQueues
     * names the queue each lane's senders run on (Outbound = chip 0,
     * Inbound = chip 1), which is where the lane's reservation clock
     * reads the current tick.
     *
     * The crossing callable is the engine's message type
     * (sim::PartitionedEngine::ChannelFn), so a completion is never
     * re-wrapped on its way into the engine.  Completions carry
     * routing state, not line data (a crossing line's payload stays in
     * its home flight slot), and one that would not fit inline does
     * not compile.
     */
    using CrossingFn = sim::PartitionedEngine::ChannelFn;
    using RemotePost = std::function<void(Dir, Tick, CrossingFn &&)>;

    void
    setPartitioned(sim::EventQueue *outboundSrc,
                   sim::EventQueue *inboundSrc, RemotePost post)
    {
        srcQueue_[static_cast<int>(Dir::Outbound)] = outboundSrc;
        srcQueue_[static_cast<int>(Dir::Inbound)] = inboundSrc;
        post_ = std::move(post);
    }

    /**
     * Send @p bytes across the link in direction @p dir; @p onDone fires
     * when the tail of the message arrives on the far side.
     */
    template <typename F>
    void
    send(Dir dir, std::uint32_t bytes, F &&onDone)
    {
        const Tick arrival = reserveSend(dir, bytes);
        if (post_) [[unlikely]] {
            post_(dir, arrival, CrossingFn(std::forward<F>(onDone)));
        } else {
            sim::TagScope tag(eventQueue(), sim::EventTag::IoLink);
            eventQueue().scheduleAt(arrival, std::forward<F>(onDone));
        }
    }

    /**
     * Serialize @p bytes onto lane @p dir; returns the tick the tail
     * arrives on the far side.  send() is this plus the completion.
     */
    Tick reserveSend(Dir dir, std::uint32_t bytes);

    std::uint64_t bytesSent(Dir dir) const
    {
        return bytesSent_[static_cast<int>(dir)];
    }

    Tick crossingLatency() const { return params_.crossingLatency; }

  private:
    /** Current tick of the queue that drives lane @p d's senders. */
    Tick
    laneNow(int d) const
    {
        return srcQueue_[d] ? srcQueue_[d]->now() : curTick();
    }

    IoLinkParams params_;
    Tick freeAt_[2] = {0, 0};
    std::uint64_t bytesSent_[2] = {0, 0};
    sim::EventQueue *srcQueue_[2] = {nullptr, nullptr};
    RemotePost post_;
};

} // namespace cellbw::mem

#endif // CELLBW_MEM_IO_LINK_HH
