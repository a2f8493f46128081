/**
 * @file
 * The cluster's main-storage domain: one XDR bank per chip (at least
 * two, so the single-chip blade still sees the second bank behind the
 * IOIF), the inter-chip link graph, the NUMA page allocator, and the
 * data contents.
 *
 * Timing and data are deliberately separate: MemorySystem answers
 * "when is this line available at the MIC/IOIF ramp" while the caller
 * (the cell-level DMA router) moves the actual bytes and models the EIB
 * part of the journey.
 */

#ifndef CELLBW_MEM_MEMORY_SYSTEM_HH
#define CELLBW_MEM_MEMORY_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/dram_bank.hh"
#include "mem/link_graph.hh"
#include "mem/page_allocator.hh"
#include "sim/sim_object.hh"

namespace cellbw::mem
{

struct MemorySystemParams
{
    std::uint64_t pageBytes = 64 * util::KiB;
    DramBankParams bank0;
    DramBankParams bank1;
    IoLinkParams ioLink;

    /** Inter-blade link (slower, longer than the on-blade IOIF). */
    IoLinkParams bladeLink;

    /** Cluster shape; a bank exists per chip (minimum two). */
    unsigned numChips = 1;
    unsigned numBlades = 0;    ///< 0 = auto: two chips per blade
};

class MemorySystem : public sim::SimObject
{
  public:
    /**
     * @p bankQueues binds bank i to another event queue (chip i's
     * partition in a partitioned simulation); by default every bank
     * lives on @p eq.
     */
    MemorySystem(std::string name, sim::EventQueue &eq,
                 const MemorySystemParams &params,
                 const std::vector<sim::EventQueue *> &bankQueues = {});

    /**
     * Partitioned-simulation hook for the PPE's remote line paths: the
     * command/ack must hop between the chips' event queues.  The hook
     * posts @p fn to run at tick @p when on chip @p dstChip's queue.
     * CrossFn is the engine's message type: the line paths below keep
     * the caller's completion as its own type (no wrapping callback),
     * so their closures stay inline for completions of a few words.
     */
    using CrossFn = sim::PartitionedEngine::ChannelFn;
    using CrossPost =
        std::function<void(unsigned srcChip, unsigned dstChip, Tick when,
                           CrossFn &&fn)>;

    void setPartitioned(CrossPost post) { crossPost_ = std::move(post); }

    /** Allocate simulated memory; returns the base effective address. */
    EffAddr alloc(std::uint64_t bytes, const NumaPolicy &policy);

    unsigned bankOf(EffAddr ea) const { return allocator_.bankOf(ea); }
    bool isRemote(EffAddr ea) const { return bankOf(ea) != 0; }

    /**
     * Timing of a line read: @p onDone fires when the line's data is
     * available at the memory-side EIB ramp of chip 0 (MIC for bank 0,
     * IOIF for a remote bank; remote reads pay the route's crossings
     * both ways, serialized on every link on the way back).
     */
    template <typename F>
    void
    readLine(EffAddr ea, std::uint32_t bytes, F &&onDone)
    {
        const unsigned b = bankOf(ea);
        if (b == 0) {
            banks_[0]->access(ea, bytes, false, std::forward<F>(onDone));
            return;
        }
        // Remote: the read command crosses to the bank's chip (latency
        // only; commands are tiny), the bank services it, and the data
        // crosses back at the links' serialized rates.
        const Tick cmd = links_->pathLatency(0, b);
        if (crossPost_) {
            // Partitioned: the command hops to chip b's queue; the
            // data crossings ride the links' remote-post hooks home.
            crossPost_(
                0, b, eventQueue().now() + cmd,
                CrossFn([this, ea, bytes, b,
                         onDone = std::forward<F>(onDone)]() mutable {
                    banks_[b]->access(
                        ea, bytes, false,
                        [this, bytes, b,
                         onDone = std::move(onDone)]() mutable {
                            links_->sendData(b, 0, bytes,
                                             std::move(onDone));
                        });
                }));
            return;
        }
        eventQueue().schedule(
            cmd,
            [this, ea, bytes, b,
             onDone = std::forward<F>(onDone)]() mutable {
                banks_[b]->access(
                    ea, bytes, false,
                    [this, bytes, b,
                     onDone = std::move(onDone)]() mutable {
                        links_->sendData(b, 0, bytes, std::move(onDone));
                    });
            });
    }

    /**
     * Timing of a line write: @p onDone fires when the write has been
     * accepted by the target bank (writes are posted).
     */
    template <typename F>
    void
    writeLine(EffAddr ea, std::uint32_t bytes, F &&onDone)
    {
        const unsigned b = bankOf(ea);
        if (b == 0) {
            banks_[0]->access(ea, bytes, true, std::forward<F>(onDone));
            return;
        }
        if (crossPost_) {
            // Partitioned: the write rides the links to chip b, the far
            // bank accepts it, and the ack crosses back — the return
            // hop keeps the post inside the lookahead window even when
            // an ablation shrinks the bank latency below the crossing.
            links_->sendData(
                0, b, bytes,
                [this, ea, bytes, b,
                 onDone = std::forward<F>(onDone)]() mutable {
                    Tick completion =
                        banks_[b]->reserveAccess(ea, bytes, true);
                    crossPost_(b, 0,
                               completion + links_->pathLatency(b, 0),
                               CrossFn(std::move(onDone)));
                });
            return;
        }
        links_->sendData(
            0, b, bytes,
            [this, ea, bytes, b, onDone = std::forward<F>(onDone)]() mutable {
                banks_[b]->access(ea, bytes, true, std::move(onDone));
            });
    }

    BackingStore &store() { return store_; }
    const BackingStore &store() const { return store_; }
    PageAllocator &allocator() { return allocator_; }
    unsigned numBanks() const { return numBanks_; }
    DramBank &bank(unsigned i);

    LinkGraph &links() { return *links_; }
    const LinkGraph &links() const { return *links_; }

    /** The dual-Cell blade's IOIF (link 0), kept for the 2-chip API. */
    IoLink &ioLink() { return links_->link(0); }

    /**
     * Accumulate the memory system's utilization counters into @p reg:
     * every bank under `<prefix>.bank<i>.*` and every link's bytes
     * under `<prefix>.<link>.bytes_outbound` / `.bytes_inbound` (the
     * blade's IOIF keeps its `.ioif.*` names).
     */
    void registerMetrics(stats::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    PageAllocator allocator_;
    BackingStore store_;
    unsigned numBanks_;
    std::vector<std::unique_ptr<DramBank>> banks_;
    std::unique_ptr<LinkGraph> links_;
    CrossPost crossPost_;
};

} // namespace cellbw::mem

#endif // CELLBW_MEM_MEMORY_SYSTEM_HH
