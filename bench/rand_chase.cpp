/**
 * @file
 * Pointer-chase / graph-traversal gather: element-wise GET vs DMA-list
 * (Chen & Bader; ROADMAP item 2).
 *
 * Every SPE gathers a fixed volume of randomly scattered elements from
 * its table.  Shapes to reproduce: for small elements the DMA-list
 * gather wins by a wide margin (one command header amortized over the
 * whole list; per-element cost is `dma-list-elem-overhead` instead of
 * `dma-elem-overhead` bus cycles), and the advantage closes as the
 * element grows — the Chen & Bader crossover.  A second sweep varies
 * the list length to show the software-pipeline depth saturating.
 */

#include "bench_common.hh"
#include "core/experiments.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.header("Rand. B", "random gather, element-wise GET vs DMA-list, "
                        "4 SPEs");

    const std::uint32_t elems[] = {8, 32, 128, 512, 2048};

    std::vector<std::string> xlabels;
    for (auto e : elems)
        xlabels.push_back(core::elemLabel(e));

    stats::Table table({"mode", "elem", "GB/s(mean)", "GB/s(min)",
                        "GB/s(max)"});
    stats::SeriesChart chart("Rand B: gather mean GB/s vs element size",
                             xlabels);
    for (bool use_list : {false, true}) {
        const char *mode = use_list ? "DMA-list" : "elem-GET";
        std::vector<double> series;
        for (auto e : elems) {
            core::RandChaseConfig cc;
            cc.elemBytes = e;
            cc.useList = use_list;
            cc.bytesPerSpe = b.bytesPerSpe;
            auto d = core::repeatRuns(b.cfg, b.repeat,
                                      [&](cell::CellSystem &sys) {
                return core::runRandChase(sys, cc);
            }, b.pool);
            series.push_back(d.mean());
            table.addRow({mode, core::elemLabel(e),
                          stats::Table::num(d.mean()),
                          stats::Table::num(d.min()),
                          stats::Table::num(d.max())});
        }
        chart.addSeries(mode, series);
    }
    b.emit(table, "gather");
    b.print(chart.render());
    b.printf("\n");

    // List-length sweep: longer lists amortize the command header and
    // deepen the gather pipeline until the LS landing slots cap it.
    stats::Table depth({"per-list", "GB/s(mean)", "GB/s(min)",
                        "GB/s(max)"});
    for (unsigned per_list : {4u, 16u, 64u, 256u, 1024u}) {
        core::RandChaseConfig cc;
        cc.elemBytes = 16;
        cc.useList = true;
        cc.elemsPerList = per_list;
        cc.bytesPerSpe = b.bytesPerSpe;
        auto d = core::repeatRuns(b.cfg, b.repeat,
                                  [&](cell::CellSystem &sys) {
            return core::runRandChase(sys, cc);
        }, b.pool);
        depth.addRow({std::to_string(per_list),
                      stats::Table::num(d.mean()),
                      stats::Table::num(d.min()),
                      stats::Table::num(d.max())});
    }
    b.emit(depth, "list_depth");

    b.printf("reference: ramp peak %.1f GB/s; issue-engine bounds for "
             "one SPE come from --dma-elem-overhead and "
             "--dma-list-elem-overhead\n",
             b.cfg.rampPeakGBps());
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(rand_chase, "Rand. B",
                           "random gather: element-wise GET vs "
                           "DMA-list crossover (Chen & Bader)",
                           run)
