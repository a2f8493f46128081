/**
 * @file
 * The discrete-event simulation kernel.
 *
 * One global tick = one CPU cycle of the modeled 2.1 GHz Cell.  Events
 * scheduled for the same tick fire in FIFO (schedule) order, which makes
 * the simulation deterministic for a fixed RNG seed.
 *
 * Implementation: a two-level ladder queue tuned for the short delays
 * the simulator overwhelmingly schedules (next-cycle retries, DMA
 * completions a few hundred cycles out).
 *
 *  - Near-future events — within kWindow ticks of now() — live in a
 *    ring of per-tick buckets indexed by `when % kWindow`.  Each bucket
 *    is a chain of fixed-size chunks drawn from a per-queue pool, so
 *    scheduling is an in-place construct into the tail chunk: no vector
 *    growth, no callback relocation, and chunks recycle through a free
 *    list once a tick has been drained.  An occupancy bitmap (one bit
 *    per bucket, scanned with countr_zero) finds the next non-empty
 *    tick without walking empty buckets one by one.  On teardown the
 *    chunks retire to a capped thread-local pool instead of the heap:
 *    experiments construct a fresh simulator (and queue) per data
 *    point, and handing page-sized chunks straight back to malloc lets
 *    the allocator trim them to the OS, so every point would re-fault
 *    the same pages it just gave up.  The pool is freed when its thread
 *    exits, so short-lived sweep workers do not leak their chunks.
 *  - Far-future events overflow into a conventional (when, seq) min-heap
 *    and migrate into the ring as time advances.
 *
 * The run loop drains the ring in batches: it computes an overflow-safe
 * horizon (the first tick at which a heap entry could enter the window)
 * and dispatches every bucketed tick below it with a single cursor scan
 * of the occupancy bitmap — the per-tick overflow probe of a classic
 * ladder queue disappears from the hot path.  Callbacks execute in
 * place inside their chunk slot; a callback may append to the very
 * bucket being drained (same-tick scheduling) and the cursor picks the
 * new entries up in FIFO order.
 *
 * Callbacks are util::InlineFunction: captures up to 48 bytes are stored
 * inline in the bucket slot, so the schedule path performs no heap
 * allocation for typical simulator events.
 *
 * FIFO correctness across the two levels: every time now() advances, all
 * overflow events that fell inside the new window are migrated (in
 * (when, seq) heap order) *before* any callback runs.  Hence at any
 * instant where scheduleAt() can run, the overflow heap only holds
 * events >= now() + kWindow, and bucket entries are appended in strictly
 * increasing seq order — same-tick FIFO is preserved without sorting.
 *
 * Profiling (--sim-profile): every event carries a one-byte component
 * tag, inherited from the context that scheduled it (see TagScope).
 * When profiling is enabled the dispatcher books per-tag event counts
 * and self-time; when disabled the only cost is the tag byte itself.
 */

#ifndef CELLBW_SIM_EVENT_QUEUE_HH
#define CELLBW_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/inline_function.hh"
#include "util/types.hh"

namespace cellbw::sim
{

/**
 * Component class an event is attributed to under --sim-profile.  The
 * tag of the currently-executing event is inherited by anything it
 * schedules; components stamp their own class at their public entry
 * points with a TagScope.
 */
enum class EventTag : std::uint8_t
{
    Program,    ///< test/benchmark driver code, coroutine bodies
    Mfc,        ///< MFC command issue, line slicing, completion
    Eib,        ///< ring arbitration and data phases
    Dram,       ///< bank service and refresh
    IoLink,     ///< IOIF lane service and blade crossings
    Ppe,        ///< PPE load/store pipeline and caches
    Other,
    NumTags,
};

constexpr const char *
toString(EventTag t)
{
    switch (t) {
      case EventTag::Program:
        return "program";
      case EventTag::Mfc:
        return "mfc";
      case EventTag::Eib:
        return "eib";
      case EventTag::Dram:
        return "dram";
      case EventTag::IoLink:
        return "iolink";
      case EventTag::Ppe:
        return "ppe";
      default:
        return "other";
    }
}

class EventQueue
{
  public:
    using Callback = util::InlineFunction<void()>;

    static constexpr std::size_t kNumTags =
        static_cast<std::size_t>(EventTag::NumTags);

    /** Per-tag dispatch statistics gathered under --sim-profile. */
    struct TagProfile
    {
        std::uint64_t events = 0;
        std::uint64_t selfNs = 0;
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time in ticks. */
    Tick now() const { return now_; }

    /** Schedule @p f to fire @p delay ticks from now. */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    void
    schedule(Tick delay, F &&f)
    {
        scheduleAt(now_ + delay, std::forward<F>(f));
    }

    /**
     * Schedule @p f at absolute tick @p when.
     * Scheduling in the past is a simulator bug.
     *
     * The callable is constructed directly in its bucket slot — for a
     * lambda with an inline-sized capture the schedule path is a single
     * in-place construct, with no intermediate Callback moves.
     */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    void
    scheduleAt(Tick when, F &&f)
    {
        if (when < now_) [[unlikely]]
            pastEventPanic(when);
        if (inWindow(when)) [[likely]] {
            emplaceBucket(static_cast<std::size_t>(when % kWindow),
                          std::forward<F>(f));
        } else {
            pushOverflow(when, Callback(std::forward<F>(f)));
        }
        ++pending_;
    }

    /**
     * Run until no events remain.
     * @return the number of events processed.
     */
    std::uint64_t run();

    /**
     * Run all events with timestamp <= @p when, then advance now to
     * @p when.  @return the number of events processed.
     */
    std::uint64_t runUntil(Tick when);

    bool empty() const { return pending_ == 0; }
    std::size_t pending() const { return pending_; }

    /** Total events processed over the queue's lifetime. */
    std::uint64_t eventsProcessed() const { return processed_; }

    /**
     * Timestamp of the earliest pending event, or maxTick when the
     * queue is empty.  Used by the partitioned engine to size
     * synchronization windows.
     */
    Tick nextEventTick() const;

    /**
     * Tick of the most recently dispatched event.  Unlike now() — which
     * runUntil() advances to the requested horizon — this tracks when
     * work last actually happened, which is what bandwidth math wants.
     */
    Tick lastDispatchTick() const { return lastDispatch_; }

    /** Ticks covered by the near-future bucket ring. */
    static constexpr Tick window() { return kWindow; }

    /** Enable (or disable) per-tag profiling of dispatched events. */
    void setProfiling(bool on) { profiling_ = on; }
    bool profiling() const { return profiling_; }

    /** Tag newly scheduled events inherit; see TagScope. */
    EventTag currentTag() const { return currentTag_; }
    void setCurrentTag(EventTag t) { currentTag_ = t; }

    const std::array<TagProfile, kNumTags> &
    tagProfiles() const
    {
        return profiles_;
    }

  private:
    /** Near-future horizon; power of two so `when % kWindow` is a mask. */
    static constexpr std::size_t kWindow = 4096;
    static constexpr std::size_t kWords = kWindow / 64;

    /** Slots per bucket chunk; sized so a chunk stays within one page. */
    static constexpr std::size_t kChunkSlots = 62;

    struct Chunk
    {
        Chunk *next;
        std::uint32_t count;
        std::uint8_t tags[kChunkSlots];
        alignas(alignof(Callback))
            unsigned char raw[kChunkSlots * sizeof(Callback)];

        Callback *
        slot(std::size_t i)
        {
            return std::launder(reinterpret_cast<Callback *>(raw) + i);
        }
    };
    static_assert(sizeof(Chunk) <= 4096, "bucket chunk exceeds a page");

    struct Bucket
    {
        Chunk *head = nullptr;
        Chunk *tail = nullptr;
    };

    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
        EventTag tag;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    bool inWindow(Tick when) const { return when - now_ < kWindow; }

    template <typename F>
    void
    emplaceBucket(std::size_t idx, F &&f)
    {
        Bucket &b = buckets_[idx];
        Chunk *c = b.tail;
        if (!c || c->count == kChunkSlots) [[unlikely]]
            c = appendChunk(b);
        ::new (static_cast<void *>(c->slot(c->count)))
            Callback(std::forward<F>(f));
        c->tags[c->count] = static_cast<std::uint8_t>(currentTag_);
        ++c->count;
        occupied_[idx / 64] |= std::uint64_t(1) << (idx % 64);
    }

    [[noreturn]] void pastEventPanic(Tick when) const;
    void pushOverflow(Tick when, Callback cb);

    /** Grow @p b by one (recycled or fresh) chunk and return it. */
    Chunk *appendChunk(Bucket &b);

    /** Chunks a destructing queue may park for later queues (4 MiB). */
    static constexpr std::size_t kPoolCap = 1024;

    /** A thread's parked chunks; freed when the thread exits. */
    struct ChunkPool
    {
        Chunk *head = nullptr;
        std::size_t size = 0;

        ~ChunkPool();
    };

    static thread_local ChunkPool pool_;

    /** Append migrated overflow entry @p e to its bucket. */
    void pushBucket(Entry e);

    /** Advance now() to @p t and pull newly-near overflow events in. */
    void advanceTo(Tick t);

    /** Recompute horizon_ from the current overflow-heap top. */
    void refreshHorizon();

    /**
     * Batched ring drain: dispatch every bucketed tick below both
     * @p cap and the live overflow horizon with one cursor scan of the
     * occupancy bitmap.  Leaves now() at the last dispatched tick.
     * @return events processed.
     */
    std::uint64_t drainRing(Tick cap);

    /**
     * Earliest tick with a bucketed event, or maxTick when the ring is
     * empty.  Only valid between dispatches (buckets < now() are clear).
     */
    Tick nextBucketTick() const;

    /** Fire every event in the (non-empty) bucket for tick @p t. */
    std::uint64_t dispatchTick(Tick t);

    std::array<Bucket, kWindow> buckets_{};
    std::array<std::uint64_t, kWords> occupied_{};

    std::priority_queue<Entry, std::vector<Entry>, Later> overflow_;

    Chunk *freelist_ = nullptr;

    Tick now_ = 0;
    Tick lastDispatch_ = 0;

    /**
     * First tick at which an overflow entry could enter the window (the
     * heap top's when - kWindow + 1), or maxTick when the heap is
     * empty.  Every bucketed tick strictly below this can be dispatched
     * without consulting the heap.  Pushing an earlier overflow entry
     * lowers it immediately, so the batched drain never advances now()
     * past a migration point — an event stranded behind now() would
     * never fire.
     */
    Tick horizon_ = maxTick;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t pending_ = 0;

    bool profiling_ = false;
    EventTag currentTag_ = EventTag::Program;
    std::array<TagProfile, kNumTags> profiles_{};
};

/**
 * RAII component-tag scope: events scheduled while the scope is alive
 * (and, transitively, events those events schedule) are attributed to
 * @p tag under --sim-profile.
 */
class TagScope
{
  public:
    TagScope(EventQueue &eq, EventTag tag)
        : eq_(eq), saved_(eq.currentTag())
    {
        eq_.setCurrentTag(tag);
    }
    ~TagScope() { eq_.setCurrentTag(saved_); }

    TagScope(const TagScope &) = delete;
    TagScope &operator=(const TagScope &) = delete;

  private:
    EventQueue &eq_;
    EventTag saved_;
};

} // namespace cellbw::sim

#endif // CELLBW_SIM_EVENT_QUEUE_HH
