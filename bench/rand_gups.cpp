/**
 * @file
 * GUPS-style random updates over XDR (Chen & Bader; ROADMAP item 2).
 *
 * Every SPE runs software-pipelined GET -> update -> PUT chains against
 * seeded random elemBytes granules of its own table.  Shapes to
 * reproduce: bandwidth grows with the update granule (the per-command
 * issue cost amortizes), sits far below the streaming ramp at every
 * size, and is insensitive to the table size while the row-buffer
 * timing model is off.  A final section turns the timing model on to
 * show what row thrashing costs the same update stream.
 */

#include "bench_common.hh"
#include "core/experiments.hh"

using namespace cellbw;

namespace
{

struct TablePoint
{
    const char *label;
    std::uint64_t bytes;
};

int
run(core::ExperimentContext &b)
{
    b.header("Rand. A", "GUPS random updates, 8 SPEs, 8-128 B granules");

    const TablePoint tables[] = {{"1MiB", util::MiB}, {"8MiB", 8 * util::MiB}};
    const std::uint32_t elems[] = {8, 16, 32, 64, 128};

    std::vector<std::string> xlabels;
    for (auto e : elems)
        xlabels.push_back(core::elemLabel(e));

    // "tsize", not "table": the JSON report stamps every point with
    // the emitted table's name under the key "table".
    stats::Table table({"tsize", "elem", "GB/s(mean)", "GB/s(min)",
                        "GB/s(max)", "MUP/s(mean)"});
    stats::SeriesChart chart("Rand A: GUPS mean GB/s vs update granule",
                             xlabels);
    for (const auto &tp : tables) {
        std::vector<double> series;
        for (auto e : elems) {
            core::RandGupsConfig gc;
            gc.elemBytes = e;
            gc.tableBytes = tp.bytes;
            gc.bytesPerSpe = b.bytesPerSpe;
            auto d = core::repeatRuns(b.cfg, b.repeat,
                                      [&](cell::CellSystem &sys) {
                return core::runRandGups(sys, gc);
            }, b.pool);
            series.push_back(d.mean());
            // One update moves 2*elem bytes (GET + PUT).
            double mups = d.mean() * 1e9 / (2.0 * e) / 1e6;
            table.addRow({tp.label, core::elemLabel(e),
                          stats::Table::num(d.mean()),
                          stats::Table::num(d.min()),
                          stats::Table::num(d.max()),
                          stats::Table::num(mups)});
        }
        chart.addSeries(tp.label, series);
    }
    b.emit(table, "gups");
    b.print(chart.render());
    b.printf("\n");

    // Row-buffer sensitivity: the identical update stream with the
    // timing row model off vs on (open-page: every random update pays
    // precharge+activate, a streaming access pattern would not).
    stats::Table rows({"row timing", "tsize", "GB/s(mean)"});
    for (const auto &tp : tables) {
        for (bool timing : {false, true}) {
            auto cfg = b.cfg;
            cfg.memory.bank0.rowTiming = timing;
            cfg.memory.bank1.rowTiming = timing;
            core::RandGupsConfig gc;
            gc.elemBytes = 64;
            gc.tableBytes = tp.bytes;
            gc.bytesPerSpe = b.bytesPerSpe;
            auto d = core::repeatRuns(cfg, b.repeat,
                                      [&](cell::CellSystem &sys) {
                return core::runRandGups(sys, gc);
            }, b.pool);
            rows.addRow({timing ? "on" : "off", tp.label,
                         stats::Table::num(d.mean())});
        }
    }
    b.emit(rows, "row_timing");

    b.printf("reference: streaming ramp peak %.1f GB/s\n",
             b.cfg.rampPeakGBps());
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(rand_gups, "Rand. A",
                           "GUPS-style random updates over XDR "
                           "(Chen & Bader)",
                           run)
