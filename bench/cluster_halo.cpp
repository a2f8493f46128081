/**
 * @file
 * Cluster halo exchange: the paper's cross-chip warning at N chips
 * (ROADMAP item 3).
 *
 * A QCD-style stencil decomposes a lattice ring over 1..8 Cell chips
 * (chips pair up on blades; blades join by inter-blade links).  Each
 * rank GETs halos from its ring neighbours while its interior update
 * sweep runs underneath.  Two axes matter:
 *
 *  - placement: locality pins each rank to its slab's home chip, so
 *    only the halos cross the 7 GB/s links; round-robin scatters ranks
 *    chip-blind, pushing whole interior streams through the links.
 *  - surface-to-volume: a fatter halo (32 KiB vs 4 KiB per neighbour
 *    on a 256 KiB slab) raises the fraction of traffic that must
 *    cross, squeezing both policies toward the link ceiling.
 *
 * Rows report the per-link peak ("link GB/s(max)"), which `cellbw
 * validate` holds below the analytic IOIF per-direction ceiling.
 */

#include <algorithm>

#include "bench_common.hh"
#include "core/halo.hh"
#include "stats/distribution.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.header("Cluster A", "halo-exchange stencil over 1-8 chips");

    struct HaloPoint
    {
        const char *label;
        std::uint32_t bytes;
    };
    const unsigned chipCounts[] = {1, 2, 4, 8};
    const core::TaskPlacement policies[] = {
        core::TaskPlacement::Locality, core::TaskPlacement::RoundRobin};
    const HaloPoint halos[] = {{"4KiB", 4 * util::KiB},
                               {"32KiB", 32 * util::KiB}};

    stats::Table table({"chips", "placement", "halo", "GB/s(mean)",
                        "halo GB/s", "link GB/s(max)"});
    for (unsigned chips : chipCounts) {
        for (auto policy : policies) {
            for (const auto &hp : halos) {
                auto cfg = b.cfg;
                cfg.numChips = chips;
                cfg.numSpes = 8 * chips;
                cfg.affinity = cell::AffinityPolicy::Linear;

                core::HaloConfig hc;
                hc.haloBytes = hp.bytes;
                hc.bytesPerSpe = b.bytesPerSpe;
                hc.placement = policy;

                // Serial seed loop with repeatRuns()'s exact seed and
                // warmup semantics: the per-run link counters feed the
                // "link GB/s(max)" column, which the Distribution-only
                // harness cannot surface.
                stats::Distribution d, dHalo;
                double linkMax = 0.0;
                for (unsigned i = 0;
                     i < b.repeat.warmup + b.repeat.runs; ++i) {
                    cell::CellSystem sys(cfg, b.repeat.seed + i);
                    auto res = core::runClusterHalo(sys, hc);
                    if (i < b.repeat.warmup)
                        continue;
                    d.add(res.gbps);
                    dHalo.add(res.haloGbps);
                    auto &links = sys.memory().links();
                    for (unsigned l = 0; l < links.numLinks(); ++l) {
                        for (auto dir : {mem::IoLink::Dir::Outbound,
                                         mem::IoLink::Dir::Inbound}) {
                            double gbps =
                                res.seconds > 0.0
                                    ? links.link(l).bytesSent(dir) /
                                          res.seconds / 1e9
                                    : 0.0;
                            linkMax = std::max(linkMax, gbps);
                        }
                    }
                    if (b.repeat.metrics)
                        sys.snapshotMetrics(*b.repeat.metrics);
                }
                table.addRow({std::to_string(chips), toString(policy),
                              hp.label, stats::Table::num(d.mean()),
                              stats::Table::num(dHalo.mean()),
                              stats::Table::num(linkMax)});
            }
        }
    }
    b.emit(table, "halo");
    b.printf("reference: IOIF %.1f GB/s per direction; locality "
             "placement keeps everything but the halos off the "
             "links\n", b.cfg.memory.ioLink.bytesPerTick *
                            b.cfg.clock.cpuHz / 1e9);
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(cluster_halo, "Cluster A",
                           "halo-exchange stencil over an N-chip "
                           "cluster",
                           run)
