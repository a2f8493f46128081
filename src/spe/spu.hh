/**
 * @file
 * Synergistic Processor Unit: the SPE's in-order SIMD core.
 *
 * For the bandwidth study only the SPU's load/store behaviour matters.
 * The SPU ISA is SIMD-only: *every* load and store moves a full 16-byte
 * quadword; accessing a smaller element still transfers a quadword and
 * pays extra rotate/mask instructions (Brokenshire's "25 tips"), and a
 * sub-quadword store is a read-modify-write.  That is why the paper
 * insists vectorization is "especially critical in the SPEs".
 */

#ifndef CELLBW_SPE_SPU_HH
#define CELLBW_SPE_SPU_HH

#include <cstdint>

#include "sim/sim_object.hh"
#include "sim/task.hh"
#include "spe/local_store.hh"

namespace cellbw::spe
{

struct SpuParams
{
    /** Issue cycles for a full-quadword load / store. */
    unsigned load16Cycles = 1;
    unsigned store16Cycles = 1;

    /** Extra cycles to extract a sub-quadword element after a load. */
    unsigned subwordExtractCycles = 1;

    /** Extra cycles for the read-modify-write of a sub-quadword store. */
    unsigned subwordInsertCycles = 3;

    /** Simulation batch: LS port is reserved in chunks this big. */
    std::uint32_t batchBytes = 4096;
};

class Spu : public sim::SimObject
{
  public:
    Spu(std::string name, sim::EventQueue &eq, const SpuParams &params,
        LocalStore &ls);

    /** Burn @p n SPU cycles (compute). */
    sim::Delay cycles(Tick n) { return sim::Delay{eventQueue(), n}; }

    /** @name Streaming microbenchmark kernels over the local store.
     *  Each returns an awaitable coroutine that consumes simulated time
     *  according to the issue-cost model and LS port occupancy.
     *  @p elemSize must be 1, 2, 4, 8 or 16. */
    /** @{ */
    sim::Task streamLoad(LsAddr lsa, std::uint32_t bytes,
                         unsigned elemSize);
    sim::Task streamStore(LsAddr lsa, std::uint32_t bytes,
                          unsigned elemSize);
    sim::Task streamCopy(LsAddr src, LsAddr dst, std::uint32_t bytes,
                         unsigned elemSize);
    /** @} */

    /** Cycles this SPU spent executing streaming kernels. */
    Tick busyTicks() const { return busyTicks_; }

  private:
    /** Validate the element size and return per-element issue cycles. */
    unsigned elemCost(unsigned elemSize, bool isStore) const;

    /** Shared engine behind the three stream kernels. */
    sim::Task streamKernel(LsAddr src, LsAddr dst, std::uint32_t bytes,
                           unsigned elemSize, bool doLoad, bool doStore);

    SpuParams params_;
    LocalStore &ls_;
    Tick busyTicks_ = 0;
};

} // namespace cellbw::spe

#endif // CELLBW_SPE_SPU_HH
