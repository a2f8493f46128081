/**
 * @file
 * PowerPC Processor Unit: the PPE's 2-way SMT in-order core and its
 * cache hierarchy timing.
 *
 * The model reproduces the mechanisms the paper identifies:
 *
 *  - a shared 1-op/cycle load/store issue port.  Scalar (<= 8 B)
 *    accesses issue every cycle; 128-bit VMX accesses take two, which
 *    is why 16 B loads show "no improvement" over 8 B loads while
 *    smaller elements scale down proportionally (Fig. 3);
 *  - a per-thread load-miss queue (LMQ) and a per-thread refill request
 *    interval.  The request interval — not the target latency — caps
 *    streaming refill bandwidth, which is why memory reads measure the
 *    same as L2 reads and why a second thread "significantly" helps
 *    (Figs. 4/6, paper: "limited ... possibly by the number of pending
 *    L1 cache misses");
 *  - a write-through L1 with per-store gather entries draining to the
 *    L2 store queue.  Stores are entry-rate-limited, so store bandwidth
 *    stays proportional to element size all the way to 16 B, trails L1
 *    loads, and beats L2 loads roughly 2x for one thread (paper:
 *    "the L2 store queue could be this limiting structure");
 *  - L2 write-allocate plus a shared L2-to-memory writeback queue that
 *    saturates quickly, making memory stores the slowest path of all
 *    (Fig. 6).
 */

#ifndef CELLBW_PPE_PPU_HH
#define CELLBW_PPE_PPU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/backing_store.hh"
#include "ppe/cache.hh"
#include "sim/clock.hh"
#include "sim/sim_object.hh"
#include "sim/task.hh"

namespace cellbw::stats
{
class MetricsRegistry;
} // namespace cellbw::stats

namespace cellbw::ppe
{

struct PpuParams
{
    CacheParams l1{32 * 1024, 128, 8};
    CacheParams l2{512 * 1024, 128, 8};

    /** @name Issue costs on the shared 1-op/cycle port. */
    /** @{ */
    unsigned scalarLoadCycles = 1;
    unsigned vmxLoadCycles = 2;
    unsigned scalarStoreCycles = 1;
    unsigned vmxStoreCycles = 2;
    /** @} */

    /** Outstanding line refills per thread. */
    unsigned lmqEntries = 8;

    /** Per-thread ticks between successive refill requests. */
    Tick missRequestInterval = 64;

    Tick l2Latency = 40;
    Tick memLatency = 440;

    /** Store-gather drain, ticks per entry (one entry per store op). */
    Tick storeDrainHit = 3;     ///< line present in L1
    Tick storeDrainMiss = 4;    ///< line not in L1 (straight to L2 queue)

    /** Lines a thread may run ahead of its store drain. */
    unsigned storeQueueLines = 4;

    /** Shared L2-to-memory writeback: ticks per dirty line. */
    Tick wbInterval = 80;
    unsigned wbQueueLines = 4;
};

/** The three access kernels of the paper's PPE experiments. */
enum class MemOp { Load, Store, Copy };

class Ppu : public sim::SimObject
{
  public:
    static constexpr unsigned numThreads = 2;

    Ppu(std::string name, sim::EventQueue &eq, const sim::ClockSpec &clock,
        const PpuParams &params, mem::BackingStore *store = nullptr);

    /**
     * Stream @p op over @p bytes with @p elemSize-byte accesses on
     * hardware thread @p tid.  For Copy, @p src is read and @p dst
     * written; otherwise only @p src is used.  If @p bytesCounted is
     * given it accumulates the bytes the paper's metric counts (2x for
     * copy).
     */
    sim::Task streamAccess(unsigned tid, EffAddr src, EffAddr dst,
                           std::uint64_t bytes, unsigned elemSize, MemOp op,
                           std::uint64_t *bytesCounted = nullptr);

    /**
     * Warm-up lap: install the buffer in the hierarchy without timing
     * (the paper always performs one to dodge TLB misses/page faults).
     */
    void warm(EffAddr base, std::uint64_t bytes);

    CacheArray &l1() { return *l1_; }
    CacheArray &l2() { return *l2_; }

    /**
     * Accumulate the PPE cache counters into @p reg under
     * `<prefix>.l1.*` / `<prefix>.l2.*` (hits, misses, evictions).
     */
    void registerMetrics(stats::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    struct ThreadState
    {
        std::vector<Tick> lmq;
        std::size_t lmqSlot = 0;
        Tick reqFreeAt = 0;
        Tick storeFreeAt = 0;
    };

    sim::ClockSpec clock_;
    PpuParams params_;
    mem::BackingStore *store_;
    std::unique_ptr<CacheArray> l1_;
    std::unique_ptr<CacheArray> l2_;
    ThreadState threads_[numThreads];
    Tick issueFreeAt_ = 0;   // shared load/store issue port
    Tick wbFreeAt_ = 0;      // shared writeback queue
};

} // namespace cellbw::ppe

#endif // CELLBW_PPE_PPU_HH
