/**
 * @file
 * Memory Flow Controller: the SPE's DMA engine.
 *
 * Programs interact with the MFC the way Cell SDK code does:
 *
 * @code
 *   co_await mfc.queueSpace();          // mfc_get stalls when queue full
 *   mfc.get(lsa, ea, 16_KiB, tag);      // enqueue DMA-elem command
 *   co_await mfc.tagWait(1u << tag);    // mfc_write_tag_mask + read status
 * @endcode
 *
 * Structure (and the measured effects it produces):
 *  - a 16-entry command queue (entries are held until completion);
 *  - a serial *issue engine* that spends a fixed occupancy per command
 *    (plus a small per-element cost for DMA lists) before the command's
 *    lines can flow.  This is what degrades DMA-elem bandwidth below
 *    1024-byte elements while DMA-list transfers stay flat — the
 *    paper's Figures 10/12/15;
 *  - a *line window* limiting outstanding <=128 B lines on the bus.
 *    The window times the memory round-trip pins single-SPE-to-memory
 *    bandwidth near 10 GB/s regardless of element size — Figure 8;
 *  - lines of issued commands interleave round-robin, so transfers
 *    complete out of order like real MFC transfer-class behaviour.
 *
 * Host cost per line is O(1): the round-robin ring is a power-of-two
 * array indexed by mask; when every active command is blocked on a
 * full window, the rotation the remaining attempts would have made is
 * applied in one step (the line schedule is the same as rotating one
 * command at a time); each line carries a plain LineDone value back to
 * lineDone(); and the pending-tag mask is updated on enqueue and
 * completion.
 */

#ifndef CELLBW_SPE_MFC_HH
#define CELLBW_SPE_MFC_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/clock.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "spe/dma_types.hh"

namespace cellbw::stats
{
class MetricsRegistry;
}

namespace cellbw::spe
{

/**
 * Injectable fault source: each accepted command independently draws
 * one fate from a seeded per-MFC generator.  All rates zero (the
 * default) means the generator is never consulted, so runs are
 * bit-identical to a build without the fault model.
 */
struct MfcFaultParams
{
    /** P(command is silently lost; completes with MfcError::Dropped). */
    double dropRate = 0.0;

    /** P(payload damaged in flight; completes with MfcError::Corrupted). */
    double corruptRate = 0.0;

    /** P(completion is late by delayTicks; no error status). */
    double delayRate = 0.0;

    /** Extra completion latency for delayed commands. */
    Tick delayTicks = 2000;

    /** Base seed; the CellSystem mixes in the run seed and SPE index. */
    std::uint64_t seed = 1;

    bool
    enabled() const
    {
        return dropRate > 0.0 || corruptRate > 0.0 || delayRate > 0.0;
    }
};

struct MfcParams
{
    /** Command-queue depth (CBEA: 16 SPU-side entries). */
    unsigned queueDepth = 16;

    /**
     * Max main-memory lines (<=128 B each) in flight at once.  Models
     * the CBE resource-allocation tokens for XDR access; with the
     * memory round-trip this pins a single SPE near 10 GB/s to memory
     * (paper Fig. 8) no matter the element size.
     */
    unsigned memoryTokens = 18;

    /**
     * Max LS-to-LS lines in flight at once.  LS apertures need no
     * memory tokens, so this is much larger; SPE pairs therefore reach
     * the 33.6 GB/s duplex peak (paper Figs. 10/12/15).
     */
    unsigned lsLines = 64;

    /** Issue-engine occupancy per DMA command, bus cycles. */
    Tick elemOverheadBus = 24;

    /** Extra issue occupancy per DMA-list element, bus cycles. */
    Tick listElemOverheadBus = 2;

    /** Local-store size used for address validation. */
    std::uint32_t lsSize = 256 * 1024;

    /** Fault injection; inert with the default all-zero rates. */
    MfcFaultParams faults;
};

class Mfc : public sim::SimObject
{
  public:
    Mfc(std::string name, sim::EventQueue &eq, const sim::ClockSpec &clock,
        const MfcParams &params, unsigned speIndex);

    /** Install the system-level router for line requests. */
    void setLineHandler(LineHandler handler) { handler_ = std::move(handler); }

    /** CBEA tag-group ordering attached to a command. */
    enum class Order
    {
        None,       ///< plain get/put: free to overtake
        Fence,      ///< *f: waits for earlier commands of its tag group
        Barrier,    ///< *b: fence + later commands of the group wait
    };

    /** @name Command issue (mirrors mfc_get / mfc_put / mfc_getl /
     *        mfc_putl and the fence/barrier forms mfc_getf, mfc_putb,
     *        ...).  fatal()s when the queue is full: await
     *        queueSpace() first, as real code must poll for space.
     *
     *        A command that fails CBEA validation (bad size, bad
     *        alignment, LS overrun, bad list) is *rejected*, not
     *        fatal: the call returns false, nothing enters the queue,
     *        and a FaultRecord with the error code is latched on the
     *        command's tag group (poll tagFaultMask / takeFaults). */
    /** @{ */
    bool get(LsAddr lsa, EffAddr ea, std::uint32_t size, unsigned tag,
             Order order = Order::None);
    bool put(LsAddr lsa, EffAddr ea, std::uint32_t size, unsigned tag,
             Order order = Order::None);
    bool getList(LsAddr lsa, std::vector<ListElement> list, unsigned tag,
                 Order order = Order::None);
    bool putList(LsAddr lsa, std::vector<ListElement> list, unsigned tag,
                 Order order = Order::None);

    /** mfc_getf / mfc_getb / mfc_putf / mfc_putb. */
    bool
    getf(LsAddr lsa, EffAddr ea, std::uint32_t size, unsigned tag)
    {
        return get(lsa, ea, size, tag, Order::Fence);
    }

    bool
    getb(LsAddr lsa, EffAddr ea, std::uint32_t size, unsigned tag)
    {
        return get(lsa, ea, size, tag, Order::Barrier);
    }

    bool
    putf(LsAddr lsa, EffAddr ea, std::uint32_t size, unsigned tag)
    {
        return put(lsa, ea, size, tag, Order::Fence);
    }

    bool
    putb(LsAddr lsa, EffAddr ea, std::uint32_t size, unsigned tag)
    {
        return put(lsa, ea, size, tag, Order::Barrier);
    }
    /** @} */

    /** @name Fault status.
     *
     *  Every rejected or injected-fault command leaves a FaultRecord
     *  carrying the full command descriptor, so a recovery layer can
     *  re-issue it verbatim (transfers are idempotent).  A faulted
     *  command still *completes* for tag-group accounting — tagWait
     *  never deadlocks on it — but moves no (or damaged) data. */
    /** @{ */
    struct FaultRecord
    {
        unsigned tag;
        DmaDir dir;
        bool isList;
        LsAddr lsa;                     ///< original LS start address
        std::vector<ListElement> segs;  ///< original element list
        MfcError code;
        Tick at;                        ///< tick the fault was latched
    };

    /** Bitmask of tag groups with unconsumed fault records. */
    std::uint32_t tagFaultMask() const;

    /** Unconsumed fault records for @p tag. */
    unsigned tagFaultCount(unsigned tag) const;

    /** Remove and return the fault records latched on @p tag. */
    std::vector<FaultRecord> takeFaults(unsigned tag);
    /** @} */

    /**
     * Hook invoked at every command completion (after the data has
     * landed) with the original command descriptor and its fault
     * status.  The CellSystem's --verify mode uses this to cross-check
     * transfers end-to-end; nullptr disables.
     */
    struct Completion
    {
        unsigned speIndex;
        unsigned tag;
        DmaDir dir;
        bool isList;
        LsAddr lsa;                         ///< original LS start
        const ListElement *segs;            ///< element view, numSegs long
        std::size_t numSegs;
        MfcError fault;
    };

    using CompletionHook = std::function<void(const Completion &)>;

    void setCompletionHook(CompletionHook hook)
    {
        completionHook_ = std::move(hook);
    }

    unsigned queueDepth() const { return params_.queueDepth; }

    /**
     * Queue slots available to a new command.  Slots already promised
     * to woken-but-not-yet-resumed queueSpace() waiters are excluded,
     * so concurrent streams on one MFC cannot steal each other's slot.
     */
    unsigned
    queueFree() const
    {
        auto used = queue_.size() + reservedSlots_;
        return used >= params_.queueDepth
                   ? 0
                   : params_.queueDepth - static_cast<unsigned>(used);
    }

    bool queueFull() const { return queueFree() == 0; }

    /** Bitmask of tag groups with incomplete commands. */
    std::uint32_t tagsPendingMask() const { return tagPendingMask_; }

    /**
     * Empty if the MFC is idle — no queued command, no line holding a
     * memory token or LS-window slot, no pending tag — else what is
     * left, for the end-of-run drain check.  A non-empty report after
     * the event queue has drained means a line completion was lost.
     */
    std::string drainReport() const;

    /** Awaitable: resumes once at least one queue slot is free (and
     *  reserved for this waiter). */
    struct QueueSpaceAwaiter
    {
        Mfc &mfc;
        bool suspended = false;

        bool await_ready() const { return !mfc.queueFull(); }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            suspended = true;
            mfc.spaceWaiters_.push_back(h);
        }

        void
        await_resume()
        {
            // A waiter woken by wakeWaiters() holds a slot reservation;
            // release it so the command issued next can take the slot.
            if (suspended) {
                if (mfc.reservedSlots_ == 0)
                    sim::panic("%s: queue-slot reservation underflow",
                               mfc.name().c_str());
                --mfc.reservedSlots_;
            }
        }
    };

    QueueSpaceAwaiter queueSpace() { return QueueSpaceAwaiter{*this}; }

    /**
     * Awaitable: resumes once every tag group selected by @p mask has
     * no incomplete commands (mfc_read_tag_status_all semantics).
     */
    struct TagWaitAwaiter
    {
        Mfc &mfc;
        std::uint32_t mask;

        bool
        await_ready() const
        {
            return (mfc.tagsPendingMask() & mask) == 0;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            mfc.tagWaiters_.push_back({mask, h});
        }

        void await_resume() const {}
    };

    TagWaitAwaiter tagWait(std::uint32_t mask)
    {
        return TagWaitAwaiter{*this, mask};
    }

    /** @name Statistics. */
    /** @{ */
    std::uint64_t bytesTransferred() const { return bytesTransferred_; }
    std::uint64_t commandsCompleted() const { return commandsCompleted_; }
    std::uint64_t linesSent() const { return linesSent_; }
    /** Commands rejected by validation or completed with a fault. */
    std::uint64_t commandsFaulted() const { return commandsFaulted_; }
    std::uint64_t dropsInjected() const { return dropsInjected_; }
    std::uint64_t corruptionsInjected() const
    {
        return corruptionsInjected_;
    }
    std::uint64_t delaysInjected() const { return delaysInjected_; }

    /**
     * Command-queue occupancy histogram: index d counts the commands
     * that were accepted when the queue depth (including themselves)
     * was d.  A distribution pinned at the
     * queue depth means the program saturates the MFC; one pinned at 1
     * means it never overlaps commands.
     */
    const std::vector<std::uint64_t> &queueDepthHist() const
    {
        return depthHist_;
    }
    /** @} */

    /**
     * Accumulate this MFC's counters into @p reg under `<prefix>.*`:
     * commands, bytes, lines, fault/injection counters, and the
     * queue-depth histogram as `<prefix>.queue_depth`.
     */
    void registerMetrics(stats::MetricsRegistry &reg,
                         const std::string &prefix) const;

    unsigned speIndex() const { return speIndex_; }

  private:
    friend struct LineDone;

    struct Command
    {
        DmaDir dir;
        unsigned tag;
        bool isList;
        Order order;
        LsAddr lsaStart;        ///< original LS address, for hooks/faults
        LsAddr lsaCursor;
        SegList segs;
        // Progress through segs.
        std::size_t nextSeg = 0;
        std::uint32_t segOffset = 0;
        unsigned linesOutstanding = 0;
        bool issued = false;
        bool allLinesIssued = false;
        bool done = false;
        std::uint32_t totalBytes = 0;
        /** Injected fate, drawn at enqueue (None = clean command). */
        MfcError injected = MfcError::None;
        /** Extra completion latency for an injected delay. */
        Tick extraDelay = 0;
        /** Corruption is applied to exactly one line. */
        bool corruptPending = false;
        /** While in the active ring: its next line targets an LS. */
        bool nextLs = false;
    };

    bool enqueue(DmaDir dir, bool isList, LsAddr lsa, SegList segs,
                 unsigned tag, Order order);

    /** Tag-group ordering: may @p c pass the issue engine now? */
    bool issuable(const Command &c) const;
    MfcError validate(LsAddr lsa, const SegList &segs,
                      bool isList) const;
    void recordFault(DmaDir dir, bool isList, LsAddr lsa,
                     std::vector<ListElement> segs, unsigned tag,
                     MfcError code);
    void scheduleIssue();
    void finishIssue(Command *c);
    void tryIssueLines();
    void lineDone(std::uint32_t slot, std::uint32_t bytes, bool isLs);
    void commandComplete(Command *c);
    void finalizeCompletion(Command *c);
    void wakeWaiters();

    sim::ClockSpec clock_;
    MfcParams params_;
    unsigned speIndex_;
    LineHandler handler_;

    /**
     * Command storage: a fixed arena sized to the queue depth at
     * construction.  Slots are address-stable for a command's lifetime
     * (in-flight events hold Command pointers) and recycle through
     * freeSlots_, so steady-state command traffic allocates nothing.
     * queue_ lists the live commands in arrival order — the order CBEA
     * tag-group fences/barriers are defined over; at <= 16 entries a
     * contiguous pointer vector beats the pointer-chase of a std::list.
     */
    std::vector<Command> slotStore_;
    std::vector<Command *> freeSlots_;
    std::vector<Command *> queue_;

    /**
     * Issued commands with lines left to send, in round-robin order: a
     * ring whose power-of-two capacity (>= the queue depth)
     * is indexed by mask.  activeLs_ counts the ring's commands whose
     * next line targets an LS, so "every command is blocked" is O(1).
     */
    std::vector<Command *> active_;
    std::uint32_t activeMask_ = 0;
    std::uint32_t activeHead_ = 0;
    std::uint32_t activeCount_ = 0;
    std::uint32_t activeLs_ = 0;

    Command *
    activePopFront()
    {
        Command *c = active_[activeHead_];
        activeHead_ = (activeHead_ + 1) & activeMask_;
        --activeCount_;
        activeLs_ -= c->nextLs;
        return c;
    }

    void
    activePushBack(Command *c)
    {
        c->nextLs = c->segs[c->nextSeg].ea >= lsApertureBase;
        active_[(activeHead_ + activeCount_) & activeMask_] = c;
        ++activeCount_;
        activeLs_ += c->nextLs;
    }

    /** True iff no active command's next line has a free window slot
     *  (a window no command waits on counts as blocked). */
    bool
    allActiveBlocked() const
    {
        return (memLinesInFlight_ >= params_.memoryTokens ||
                activeLs_ == activeCount_) &&
               (lsLinesInFlight_ >= params_.lsLines || activeLs_ == 0);
    }

    Tick issueFreeAt_ = 0;
    bool issueInProgress_ = false;
    unsigned memLinesInFlight_ = 0;
    unsigned lsLinesInFlight_ = 0;

    std::vector<std::coroutine_handle<>> spaceWaiters_;
    unsigned reservedSlots_ = 0;
    struct TagWaiter
    {
        std::uint32_t mask;
        std::coroutine_handle<> h;
    };
    std::vector<TagWaiter> tagWaiters_;
    unsigned tagPending_[numTags] = {};
    std::uint32_t tagPendingMask_ = 0;

    std::uint64_t bytesTransferred_ = 0;
    std::uint64_t commandsCompleted_ = 0;
    std::uint64_t linesSent_ = 0;
    std::vector<std::uint64_t> depthHist_;

    sim::Rng faultRng_;
    bool faultsEnabled_ = false;
    std::vector<FaultRecord> faultLog_;
    CompletionHook completionHook_;
    std::uint64_t commandsFaulted_ = 0;
    std::uint64_t dropsInjected_ = 0;
    std::uint64_t corruptionsInjected_ = 0;
    std::uint64_t delaysInjected_ = 0;
};

inline void
LineDone::operator()() const
{
    mfc->lineDone(command, bytes, isLs);
}

} // namespace cellbw::spe

#endif // CELLBW_SPE_MFC_HH
