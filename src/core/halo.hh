/**
 * @file
 * QCD-style halo-exchange stencil over an N-chip lattice decomposition
 * (ROADMAP item 3's "real application kernel").
 *
 * The lattice is a 1-D ring of ranks, each owning a slab resident in
 * its home chip's XDR bank (mem::NumaPolicy::onBank).  Every step a
 * rank GETs a halo from each ring neighbour — crossing the on-blade
 * IOIF or an inter-blade link when the neighbour lives on another chip
 * — and overlaps that exchange with a double-buffered interior update
 * sweep (GET chunk, compute, PUT chunk), finishing with the boundary
 * compute + PUT once the halos land.  Work placement follows
 * TaskPlacement: Locality pins each rank to an SPE of its home
 * chip so only the halos cross links; RoundRobin scatters ranks over
 * the chips so the whole interior stream rides the 7 GB/s links — the
 * paper conclusion's cross-chip warning, measured at cluster scale.
 *
 * Steps proceed without a global barrier: the exchange is a bandwidth
 * workload, so a rank may run ahead of its neighbours (the bytes moved
 * are identical either way).
 */

#ifndef CELLBW_CORE_HALO_HH
#define CELLBW_CORE_HALO_HH

#include <cstdint>

#include "cell/cell_system.hh"

namespace cellbw::core
{

/**
 * Cluster-level work placement policy: which chip's SPEs a stencil
 * rank should run on relative to the memory it touches.
 */
enum class TaskPlacement
{
    RoundRobin,  ///< spread ranks over the chips in rank order
    Locality,    ///< run each rank on the chip that owns its pages
};

const char *toString(TaskPlacement p);

struct HaloConfig
{
    /** Lattice ranks per chip (1..8); ranks = numChips * ranksPerChip. */
    unsigned ranksPerChip = 2;

    /** Bytes of lattice slab owned by each rank. */
    std::uint64_t slabBytes = 256 * util::KiB;

    /** Halo exchanged with each ring neighbour per step. */
    std::uint32_t haloBytes = 4 * util::KiB;

    /** Stencil steps; 0 derives max(1, bytesPerSpe / slabBytes). */
    unsigned steps = 0;

    /** Sizing knob for the derived step count (--bytes-per-spe). */
    std::uint64_t bytesPerSpe = 4 * util::MiB;

    /** Interior DMA chunk; 16 KiB is the architecture's sweet spot. */
    std::uint32_t chunkBytes = 16 * util::KiB;

    /** Modeled SPU update cost, cycles per KiB touched. */
    Tick computeCyclesPerKiB = 64;

    /** Rank-to-chip placement policy. */
    TaskPlacement placement = TaskPlacement::RoundRobin;
};

struct HaloResult
{
    /** Sustained aggregate DMA rate, GB/s (all bytes below). */
    double gbps = 0;

    /** Halo-exchange GETs alone, GB/s. */
    double haloGbps = 0;

    /** Bytes pulled from neighbour slabs (2 x halo per rank-step). */
    std::uint64_t haloBytes = 0;

    /** Interior sweep + boundary write-back bytes. */
    std::uint64_t bulkBytes = 0;

    /** Simulated seconds the exchange took. */
    double seconds = 0;

    /** Ranks and steps actually run (after the 0 = auto derivation). */
    unsigned ranks = 0;
    unsigned steps = 0;
};

/**
 * Run the stencil on @p sys.  Requires every SPE slot active
 * (numSpes == 8 * numChips) under linear affinity, so rank placement
 * is an exact chip choice rather than a kernel roll of the dice.
 */
HaloResult runClusterHalo(cell::CellSystem &sys, const HaloConfig &cfg);

} // namespace cellbw::core

#endif // CELLBW_CORE_HALO_HH
