/**
 * @file
 * Figure 8: SPE-to-memory DMA-elem bandwidth — GET, PUT and GET+PUT
 * (memory copy) for 1/2/4/8 active SPEs over element sizes 128 B-16 KB.
 *
 * Paper shapes to reproduce: a single SPE sustains ~10 GB/s regardless
 * of element size (60% of one bank's ramp for GET/PUT, 30% of the
 * combined peak for copy); two SPEs roughly double that, exceeding what
 * one bank can deliver (both banks are in use via MIC + IOIF); four
 * SPEs gain a little more; eight SPEs *lose* bandwidth to EIB
 * saturation.
 */

#include "bench_common.hh"
#include "core/experiments.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.header("Figure 8", "SPE to main memory, DMA-elem, 1-8 SPEs");

    const auto elems = core::elemSweepSizes();
    const core::DmaOp ops[] = {core::DmaOp::Get, core::DmaOp::Put,
                               core::DmaOp::Copy};
    const unsigned spe_counts[] = {1, 2, 4, 8};

    std::vector<std::string> xlabels;
    for (auto e : elems)
        xlabels.push_back(core::elemLabel(e));

    for (auto op : ops) {
        stats::Table table({"op", "spes", "elem", "GB/s(mean)",
                            "GB/s(min)", "GB/s(max)"});
        stats::SeriesChart chart(
            util::format("Fig 8%c: mem %s, mean GB/s vs element size",
                         op == core::DmaOp::Get ? 'a'
                         : op == core::DmaOp::Put ? 'b' : 'c',
                         core::toString(op)),
            xlabels);
        for (unsigned n : spe_counts) {
            std::vector<double> series;
            for (auto e : elems) {
                core::SpeMemConfig mc;
                mc.numSpes = n;
                mc.elemBytes = e;
                mc.op = op;
                mc.bytesPerSpe = b.bytesPerSpe;
                auto d = core::repeatRuns(b.cfg, b.repeat,
                                          [&](cell::CellSystem &sys) {
                    return core::runSpeMem(sys, mc);
                }, b.pool);
                series.push_back(d.mean());
                table.addRow({core::toString(op), std::to_string(n),
                              core::elemLabel(e),
                              stats::Table::num(d.mean()),
                              stats::Table::num(d.min()),
                              stats::Table::num(d.max())});
            }
            chart.addSeries(util::format("%u SPE%s", n, n > 1 ? "s" : ""),
                            series);
        }
        b.emit(table);
        b.print(chart.render());
        b.printf("\n");
    }
    b.printf("reference: one bank ramp peak %.1f GB/s, MIC+IOIF "
             "aggregate %.1f GB/s\n",
             b.cfg.rampPeakGBps(), b.cfg.rampPeakGBps() + 7.0);
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(fig08_spe_mem, "Fig. 8",
                           "SPE<->memory DMA-elem bandwidth "
                           "(paper Fig. 8)",
                           run)
