#include "core/halo.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"
#include "util/align.hh"

namespace cellbw::core
{

namespace
{

/**
 * One rank of the stencil: per step, post the two neighbour-halo GETs,
 * run the double-buffered interior update sweep underneath them, then
 * land the halos, compute the boundary, and PUT it back.
 */
sim::Task
haloRank(cell::CellSystem &sys, unsigned spe, unsigned rank,
         unsigned ranks, unsigned steps,
         const std::vector<EffAddr> &slab, const HaloConfig &cfg)
{
    auto &s = sys.spe(spe);
    auto &mfc = s.mfc();
    const std::uint32_t chunk = cfg.chunkBytes;
    const std::uint32_t halo = cfg.haloBytes;
    const std::uint64_t interior = cfg.slabBytes - 2ull * halo;
    const std::uint64_t n = util::divCeil(interior, chunk);

    // Separate input and output LS buffers per slot: a PUT's source
    // must survive until its tag is waited out, so the update may not
    // land in the buffer the next GET is prefetching into.
    const LsAddr in[2] = {s.lsAlloc(chunk), s.lsAlloc(chunk)};
    const LsAddr out[2] = {s.lsAlloc(chunk), s.lsAlloc(chunk)};
    const LsAddr halo_ls = s.lsAlloc(2 * halo);

    const unsigned left = (rank + ranks - 1) % ranks;
    const unsigned right = (rank + 1) % ranks;
    const EffAddr own = slab[rank];
    constexpr unsigned put_tag = 3;     // boundary write-back
    constexpr unsigned halo_tag = 4;    // both neighbour GETs
    const std::uint32_t step_mask = (1u << 0) | (1u << 1) | (1u << put_tag);

    auto chunk_size = [&](std::uint64_t c) {
        return static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk, interior - c * chunk));
    };

    for (unsigned step = 0; step < steps; ++step) {
        // 1. Post the halo GETs first so the exchange — possibly a
        //    multi-hop link crossing — overlaps the interior sweep.
        for (std::uint32_t off = 0; off < halo; off += chunk) {
            const std::uint32_t sz = std::min(chunk, halo - off);
            co_await mfc.queueSpace();
            mfc.get(halo_ls + off,
                    slab[left] + cfg.slabBytes - halo + off, sz, halo_tag);
            co_await mfc.queueSpace();
            mfc.get(halo_ls + halo + off, slab[right] + off, sz, halo_tag);
        }

        // 2. Interior update sweep: GET chunk c+1 before waiting on
        //    chunk c, so the transfer overlaps this chunk's compute.
        co_await mfc.queueSpace();
        mfc.get(in[0], own + halo, chunk_size(0), 0);
        for (std::uint64_t c = 0; c < n; ++c) {
            const unsigned cur = static_cast<unsigned>(c % 2);
            const unsigned nxt = 1 - cur;
            if (c + 1 < n) {
                co_await mfc.queueSpace();
                mfc.get(in[nxt], own + halo + (c + 1) * chunk,
                        chunk_size(c + 1), nxt);
            }
            // Land this chunk's GET and close the PUT that last used
            // out[cur], freeing it for this chunk's update.
            co_await mfc.tagWait(1u << cur);
            const std::uint32_t sz = chunk_size(c);
            co_await s.spu().cycles(cfg.computeCyclesPerKiB *
                                    util::divCeil(sz, util::KiB));
            co_await mfc.queueSpace();
            mfc.put(out[cur], own + halo + c * chunk, sz, cur);
        }

        // 3. Boundary: land the halos, update both boundary strips,
        //    write them back.
        co_await mfc.tagWait(1u << halo_tag);
        co_await s.spu().cycles(cfg.computeCyclesPerKiB *
                                util::divCeil(2ull * halo, util::KiB));
        for (std::uint32_t off = 0; off < halo; off += chunk) {
            const std::uint32_t sz = std::min(chunk, halo - off);
            co_await mfc.queueSpace();
            mfc.put(halo_ls + off, own + off, sz, put_tag);
            co_await mfc.queueSpace();
            mfc.put(halo_ls + halo + off,
                    own + cfg.slabBytes - halo + off, sz, put_tag);
        }
        co_await mfc.tagWait(step_mask);
    }
}

} // namespace

const char *
toString(TaskPlacement p)
{
    switch (p) {
      case TaskPlacement::RoundRobin:
        return "round-robin";
      case TaskPlacement::Locality:
        return "locality";
    }
    return "?";
}

HaloResult
runClusterHalo(cell::CellSystem &sys, const HaloConfig &cfg)
{
    const unsigned chips = sys.numChips();
    if (cfg.ranksPerChip < 1 || cfg.ranksPerChip > 8)
        sim::fatal("cluster halo: ranksPerChip must be 1..8, got %u",
                   cfg.ranksPerChip);
    if (sys.numSpes() != 8 * chips ||
        sys.config().affinity != cell::AffinityPolicy::Linear) {
        sim::fatal("cluster halo: needs every SPE slot active under "
                   "linear affinity (--spes=%u --affinity=linear) so a "
                   "rank's chip is an exact placement choice", 8 * chips);
    }
    if (cfg.haloBytes == 0 || cfg.haloBytes % 16 != 0)
        sim::fatal("cluster halo: halo bytes must be a non-zero "
                   "multiple of 16");
    if (cfg.slabBytes <= 2ull * cfg.haloBytes)
        sim::fatal("cluster halo: slab must exceed two halos");
    if (!util::isValidDmaSize(cfg.chunkBytes))
        sim::fatal("cluster halo: chunk size %u is not a valid DMA size",
                   cfg.chunkBytes);

    const unsigned ranks = chips * cfg.ranksPerChip;
    const unsigned steps =
        cfg.steps ? cfg.steps
                  : std::max<unsigned>(
                        1, static_cast<unsigned>(cfg.bytesPerSpe /
                                                 cfg.slabBytes));

    // Each rank's slab lives in its home chip's XDR bank; the slab
    // table is shared read-only by every rank coroutine.
    std::vector<EffAddr> slab(ranks);
    for (unsigned r = 0; r < ranks; ++r)
        slab[r] = sys.malloc(cfg.slabBytes,
                             mem::NumaPolicy::onBank(r / cfg.ranksPerChip));

    const Tick t0 = sys.now();
    for (unsigned r = 0; r < ranks; ++r) {
        unsigned spe;
        if (cfg.placement == TaskPlacement::Locality) {
            spe = (r / cfg.ranksPerChip) * 8 + r % cfg.ranksPerChip;
        } else {
            // Scatter ranks over the chips in rank order, the way a
            // placement-blind dispatcher would.
            spe = (r % chips) * 8 + r / chips;
        }
        sys.launch(haloRank(sys, spe, r, ranks, steps, slab, cfg));
    }
    sys.run();
    const Tick elapsed = sys.now() - t0;

    HaloResult res;
    res.ranks = ranks;
    res.steps = steps;
    const std::uint64_t rank_steps =
        static_cast<std::uint64_t>(ranks) * steps;
    res.haloBytes = rank_steps * 2ull * cfg.haloBytes;
    // Interior GET + PUT plus the boundary write-back.
    res.bulkBytes = rank_steps * (2ull * (cfg.slabBytes -
                                          2ull * cfg.haloBytes) +
                                  2ull * cfg.haloBytes);
    res.seconds = sys.clock().seconds(elapsed);
    res.gbps = sys.clock().bandwidthGBps(res.haloBytes + res.bulkBytes,
                                         elapsed);
    res.haloGbps = sys.clock().bandwidthGBps(res.haloBytes, elapsed);
    return res;
}

} // namespace cellbw::core
