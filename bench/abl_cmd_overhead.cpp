/**
 * @file
 * Ablation B: where does the DMA-elem knee move as the MFC's
 * per-command issue overhead changes?
 *
 * The paper finds DMA-elem bandwidth collapses below 1024-byte elements
 * (Figs. 10/12/15).  In the model the knee sits where the per-command
 * issue occupancy equals the element's data time on the ring; sweeping
 * the overhead moves it predictably, which is the design insight a
 * runtime like CellSs would use to pick list thresholds.
 */

#include "bench_common.hh"
#include "core/experiments.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.header("Ablation B", "SPE pair DMA-elem vs issue overhead");

    const auto elems = core::elemSweepSizes();
    std::vector<std::string> xlabels;
    for (auto e : elems)
        xlabels.push_back(core::elemLabel(e));

    stats::Table table({"overhead(bus cyc)", "elem", "GB/s"});
    stats::SeriesChart chart("pair GET+PUT GB/s vs element size, by "
                             "issue overhead", xlabels);
    for (Tick overhead : {Tick(6), Tick(12), Tick(24), Tick(48),
                          Tick(96)}) {
        auto cfg = b.cfg;
        cfg.spe.mfc.elemOverheadBus = overhead;
        std::vector<double> series;
        for (auto e : elems) {
            core::SpeSpeConfig sc;
            sc.numSpes = 2;
            sc.elemBytes = e;
            sc.bytesPerStream = b.bytesPerSpe;
            auto d = core::repeatRuns(cfg, b.repeat,
                                      [&](cell::CellSystem &sys) {
                return core::runSpeSpe(sys, sc);
            }, b.pool);
            series.push_back(d.mean());
            table.addRow({std::to_string(overhead), core::elemLabel(e),
                          stats::Table::num(d.mean())});
        }
        chart.addSeries(util::format("%llu bc",
                                     (unsigned long long)overhead),
                        series);
    }
    b.emit(table);
    b.print(chart.render());
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(abl_cmd_overhead, "Abl. B",
                           "MFC per-command overhead ablation (DMA-elem "
                           "knee)",
                           run)
