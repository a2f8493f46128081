/**
 * @file
 * Ablation D: MFC command-queue depth vs synchronization delay.
 *
 * The paper's rule "delay the DMA wait as much as possible ... to
 * saturate the DMA transfer queues of the MFC" only helps up to the
 * queue's depth.  Sweeping the depth shows where the delayed-sync curve
 * of Figure 10 saturates and what a hypothetical deeper queue would
 * have bought.
 */

#include "bench_common.hh"
#include "core/experiments.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.header("Ablation D", "SPE pair, 4 KiB DMA-elem, queue depth x "
                           "sync policy");

    stats::Table table({"queue depth", "sync-every", "GB/s"});
    for (unsigned depth : {1u, 2u, 4u, 8u, 16u, 32u}) {
        auto cfg = b.cfg;
        cfg.spe.mfc.queueDepth = depth;
        for (unsigned k : {1u, 4u, 0u}) {
            if (k > depth && k != 0)
                continue;
            core::SpeSpeConfig sc;
            sc.numSpes = 2;
            sc.elemBytes = 4096;
            sc.syncEvery = k;
            sc.bytesPerStream = b.bytesPerSpe;
            auto d = core::repeatRuns(cfg, b.repeat,
                                      [&](cell::CellSystem &sys) {
                return core::runSpeSpe(sys, sc);
            }, b.pool);
            table.addRow({std::to_string(depth),
                          k ? std::to_string(k) : "all",
                          stats::Table::num(d.mean())});
        }
    }
    b.emit(table);
    b.printf("reference: pair peak %.1f GB/s\n", b.cfg.pairPeakGBps());
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(abl_queue_depth, "Abl. D",
                           "MFC queue-depth ablation on delayed sync",
                           run)
