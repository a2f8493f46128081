/**
 * @file
 * The assembled machine: one PPE, up to eight SPEs, the EIB, the MIC
 * and IOIF, and two XDR banks — plus the DMA router that moves lines
 * between them.
 *
 * A CellSystem is built per experiment run: construction draws the
 * logical-to-physical SPE placement from the given seed (libspe 1.1
 * gives the programmer no control over placement, so the paper runs
 * everything 10 times over different mappings; our affinity policies
 * beyond Random are the extension the paper asks libspe for).
 *
 * Execution engine.  Every chip is a partition of a conservative
 * partitioned engine (sim::PartitionedEngine); a single-chip system is
 * a one-partition engine.  Chip-local routing stays on the chip's own
 * queue, and anything that crosses to another chip's partition (over
 * the on-blade IOIF or an inter-blade link — see mem::LinkGraph)
 * travels as a cross-partition message delivered at least one crossing
 * latency later; multi-hop routes re-enter the router at each
 * intermediate chip.  The engine runs its windows serially in a fixed
 * order, so the partitioned schedule — and every report — is
 * deterministic.  The single-chip blade's far XDR bank has no partition
 * of its own: it is serviced on chip 0's queue, its lines serialize on
 * the IOIF, and no far EIB is simulated.
 *
 * In-flight DMA lines live in a per-chip arena (Flight slots addressed
 * by index handles), so the routing stages capture {this, handle}
 * instead of moving a ~100-byte request through every closure: the
 * whole hot path schedules with inline-stored callbacks and recycles
 * storage instead of allocating.  A line that crosses chips keeps its
 * data in its home slot too, so cross-partition messages carry only a
 * few words of routing state.  The line's completion (spe::LineDone)
 * is a plain value copied out of the slot and scheduled as the last
 * stage, so releasing a slot only relinks its freelist entry.
 *
 * @code
 *   cell::CellConfig cfg;
 *   cell::CellSystem sys(cfg, seed);
 *   EffAddr buf = sys.malloc(32 * MiB);
 *   sys.launch(myProgram(sys, sys.spe(0), buf));
 *   sys.run();
 * @endcode
 */

#ifndef CELLBW_CELL_CELL_SYSTEM_HH
#define CELLBW_CELL_CELL_SYSTEM_HH

#include <memory>
#include <vector>

#include "cell/config.hh"
#include "eib/topology.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "sim/task.hh"

namespace cellbw::stats
{
class MetricsRegistry;
} // namespace cellbw::stats

namespace cellbw::cell
{

/** Base effective address of the memory-mapped local stores (the MFC
 *  uses the same constant to classify lines for its token windows). */
constexpr EffAddr lsEaBase = spe::lsApertureBase;

/** EA stride between consecutive SPEs' LS apertures. */
constexpr EffAddr lsEaStride = 1ull << 24;

class CellSystem
{
  public:
    /** Chip in the top handle bits so stages capture one word. */
    static constexpr std::uint32_t kChipShift = 28;

    /** The flight handle's chip field bounds the cluster size. */
    static constexpr unsigned kMaxChips = 1u << (32 - kChipShift);

    CellSystem(const CellConfig &cfg, std::uint64_t placementSeed);
    ~CellSystem();

    CellSystem(const CellSystem &) = delete;
    CellSystem &operator=(const CellSystem &) = delete;

    /** @name Component access. */
    /** @{ */
    /** Chip 0's event queue (the only queue of a single-chip system). */
    sim::EventQueue &eventQueue() { return engine_->queue(0); }
    const sim::ClockSpec &clock() const { return cfg_.clock; }
    const CellConfig &config() const { return cfg_; }
    /** The seed this run was built with (workloads derive their own
     *  streams from it so a run is a pure function of cfg + seed). */
    std::uint64_t placementSeed() const { return placementSeed_; }
    unsigned numSpes() const { return cfg_.numSpes; }
    unsigned numChips() const { return cfg_.numChips; }
    spe::Spe &spe(unsigned logical);
    ppe::Ppu &ppu() { return *ppu_; }
    mem::MemorySystem &memory() { return *memory_; }
    eib::Eib &eib(unsigned chip = 0);
    /** The partitioned engine: one partition per chip. */
    sim::PartitionedEngine &engine() { return *engine_; }
    /** @} */

    /** Allocate main memory with the config's NUMA policy. */
    EffAddr malloc(std::uint64_t bytes);
    EffAddr malloc(std::uint64_t bytes, const mem::NumaPolicy &policy);

    /**
     * Effective address of @p lsa inside logical SPE @p logical's
     * memory-mapped local store (for SPE-to-SPE DMA).
     */
    EffAddr lsEa(unsigned logical, LsAddr lsa = 0) const;

    /** True iff @p ea falls in some SPE's LS aperture. */
    bool isLsEa(EffAddr ea) const { return ea >= lsEaBase; }

    /** Launch a coroutine program; it is kept alive until reset. */
    void launch(sim::Task task);

    /**
     * Run the simulation until no events remain.  fatal()s if a
     * launched program has not finished (deadlock); rethrows the first
     * program exception; panic()s if a drained system still holds an
     * in-flight line, an MFC command, token or tag, or an undelivered
     * cross-partition message; under --verify, fatal()s naming the
     * first transfer that diverged from the backing store.
     */
    void run();

    /**
     * Accumulate every component's utilization counters into @p reg
     * (EIB rings, DRAM banks, MFC queues, PPE caches, plus `sim.runs`
     * and `sim.ticks`; under --verify also the `verify.*` counts).
     * Counters *add* into @p reg, so snapshotting several runs into
     * one registry yields across-run totals; all accumulation is
     * commutative, keeping parallel seed sweeps deterministic.  Call
     * after run().
     */
    void snapshotMetrics(stats::MetricsRegistry &reg) const;

    /** @name Checked mode (config.verify / --verify).
     *
     *  Every completed non-faulted DMA command is cross-checked
     *  end-to-end: the LS bytes and the backing-store bytes of each
     *  transferred segment must agree once the command reports done.
     *  Faulted commands (dropped/corrupted) are *expected* to diverge
     *  and are skipped — recovery is the program's job.  Any other
     *  divergence makes run() fatal(). */
    /** @{ */
    struct VerifyStats
    {
        std::uint64_t transfersChecked = 0;
        std::uint64_t bytesChecked = 0;
        std::uint64_t divergences = 0;
        std::uint64_t faultedSkipped = 0;
        /** Diagnostics of the first divergence seen, empty if none. */
        std::string firstDivergence;
    };

    bool verifying() const { return cfg_.verify; }
    const VerifyStats &verifyStats() const { return verifyStats_; }
    /** @} */

    Tick now() const { return engine_->lastDispatchTick(); }

    /** Seconds of simulated time elapsed since construction. */
    double seconds() const { return cfg_.clock.seconds(now()); }

    /** @name Placement introspection.  Physical SPE slots 8c..8c+7
     *        live on chip c. */
    /** @{ */
    unsigned physicalOf(unsigned logical) const;
    unsigned chipOf(unsigned logical) const;
    unsigned rampOf(unsigned logical) const;
    const std::vector<std::uint32_t> &placement() const
    {
        return placement_;
    }
    /** @} */

  private:
    /**
     * An in-flight DMA line and its routing state, arena-resident in
     * the issuing (home) chip's arena.  Stages address it by handle so
     * closures stay inline-small.  The payload buffer carries line data
     * across chip boundaries: the chip where the data leaves (the far
     * bank or peer LS for a GET, the home LS for a PUT) copies it in,
     * and the chip where it lands copies it out.  The slot belongs to
     * its line until release, and the partitions never run
     * concurrently, so the far side may use it while the line is away.
     */
    struct Flight
    {
        spe::LineRequest req;
        std::uint32_t next = 0;       ///< arena freelist link
        std::uint8_t bank = 0;        ///< memory routing: target bank
        std::uint8_t srcChip = 0;
        bool crossing = false;
        std::uint16_t srcSpe = 0;     ///< LS routing: data-holding SPE
        std::uint16_t dstSpe = 0;     ///< LS routing: receiving SPE
        LsAddr srcLsa = 0;
        LsAddr dstLsa = 0;
        std::uint8_t payload[spe::lineBytes];
    };

    class FlightArena
    {
      public:
        static constexpr std::uint32_t kNone = ~std::uint32_t(0);

        std::uint32_t
        acquire()
        {
            if (free_ == kNone) {
                slots_.emplace_back();
                return static_cast<std::uint32_t>(slots_.size() - 1);
            }
            std::uint32_t h = free_;
            free_ = slots_[h].next;
            return h;
        }

        void
        release(std::uint32_t h)
        {
            slots_[h].next = free_;
            free_ = h;
        }

        /** Slots acquired and not yet released (walks the freelist;
         *  for the end-of-run drain check). */
        std::size_t
        inUse() const
        {
            std::size_t free = 0;
            for (std::uint32_t h = free_; h != kNone; h = slots_[h].next)
                ++free;
            return slots_.size() - free;
        }

        Flight &operator[](std::uint32_t h) { return slots_[h]; }

      private:
        std::vector<Flight> slots_;
        std::uint32_t free_ = kNone;
    };

    std::uint32_t
    acquireFlight(unsigned chip, const spe::LineRequest &req)
    {
        std::uint32_t h = arenas_[chip].acquire() |
                          (chip << kChipShift);
        flight(h).req = req;
        return h;
    }

    Flight &
    flight(std::uint32_t h)
    {
        return arenas_[h >> kChipShift][h & ((1u << kChipShift) - 1)];
    }

    void
    releaseFlight(std::uint32_t h)
    {
        arenas_[h >> kChipShift].release(h & ((1u << kChipShift) - 1));
    }

    sim::EventQueue &queue(unsigned chip) { return engine_->queue(chip); }

    void buildPlacement(std::uint64_t seed);
    void routeLine(const spe::LineRequest &req);

    /** End-of-run invariant: every flight slot released, every MFC
     *  idle, the partitioned engine empty.  panic()s naming the first
     *  component that is not. */
    void checkDrained() const;

    /** @name Routing stages.  Far-side stages carry their routing
     *        state ({ea, bytes, home and far chips}) by value and touch
     *        the home arena only through their own line's slot. */
    /** @{ */
    void routeMemory(const spe::LineRequest &req);
    void routeLocalStore(const spe::LineRequest &req);
    void memGetAccess(std::uint32_t h);
    void memGetRide(std::uint32_t h);
    void memGetLand(std::uint32_t h);
    void memPutRide(std::uint32_t h);
    void memPutStore(std::uint32_t h);
    void memPutBank(std::uint32_t h);
    void memGetFar(EffAddr ea, std::uint32_t bytes, std::uint32_t h,
                   unsigned homeChip, unsigned farChip);
    void memGetFarRide(EffAddr ea, std::uint32_t bytes, std::uint32_t h,
                       unsigned homeChip, unsigned farChip);
    void memGetFarCross(EffAddr ea, std::uint32_t bytes, std::uint32_t h,
                        unsigned homeChip, unsigned farChip);
    void memPutCross(std::uint32_t h);
    void memPutFarRide(EffAddr ea, std::uint32_t bytes, std::uint32_t h,
                       unsigned homeChip, unsigned farChip);
    void lsRead(std::uint32_t h);
    void lsRide(std::uint32_t h);
    void lsLand(std::uint32_t h);
    void lsGetFarRideFrom(std::uint16_t peer, LsAddr peerLsa,
                          std::uint32_t bytes, std::uint32_t h,
                          unsigned homeChip);
    void lsGetHome(std::uint32_t h);
    void lsPutCross(std::uint32_t h);
    void lsPutFarLand(std::uint32_t h);
    void finishFlight(std::uint32_t h);

    /** True iff @p f's target bank sits on another chip's partition
     *  (false for the single-chip blade's far bank, which has none). */
    bool
    farPartition(const Flight &f) const
    {
        return f.crossing && f.bank < cfg_.numChips;
    }
    /** @} */

    void verifyCompletion(const spe::Mfc::Completion &done);
    void readEa(EffAddr ea, std::uint8_t *buf, std::uint32_t bytes);

    CellConfig cfg_;
    std::uint64_t placementSeed_ = 0;
    std::unique_ptr<sim::PartitionedEngine> engine_; ///< one partition per chip
    std::unique_ptr<mem::MemorySystem> memory_;
    std::vector<std::unique_ptr<eib::Eib>> eibs_;
    std::unique_ptr<ppe::Ppu> ppu_;
    std::vector<std::unique_ptr<spe::Spe>> spes_;
    std::vector<FlightArena> arenas_;        // one per chip
    std::vector<std::uint32_t> placement_;   // logical -> physical SPE
    std::vector<sim::Task> programs_;
    VerifyStats verifyStats_;
};

} // namespace cellbw::cell

#endif // CELLBW_CELL_CELL_SYSTEM_HH
