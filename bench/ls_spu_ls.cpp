/**
 * @file
 * Section 4.2.2: SPU load/store bandwidth against its own Local Store
 * (the paper reports the numbers in prose; no figure).
 *
 * Paper shapes: the SPU moves one 16-byte quadword per cycle, so peak
 * is 33.6 GB/s and is *reached* for 16 B accesses; every smaller
 * element still transfers a quadword plus rotate/mask overhead, so
 * vectorization is "especially critical in the SPEs".  No OS or other
 * threads interfere — SPUs run user code only.
 */

#include "bench_common.hh"
#include "core/experiments.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.header("Section 4.2.2", "SPU load/store to its 256 KB local store");

    const auto elems = core::ppeElemSizes();
    const ppe::MemOp ops[] = {ppe::MemOp::Load, ppe::MemOp::Store,
                              ppe::MemOp::Copy};

    stats::Table table({"op", "elem", "GB/s"});
    stats::BarChart chart("SPU<->LS bandwidth (peak 33.6 GB/s)", 48);
    chart.setScaleMax(b.cfg.lsPeakGBps());
    for (auto op : ops) {
        for (auto e : elems) {
            core::SpuLsConfig lc;
            lc.elemSize = e;
            lc.op = op;
            lc.totalBytes = b.bytesPerSpe;
            core::RepeatSpec once{1, b.repeat.seed};
            auto d = core::repeatRuns(b.cfg, once,
                                      [&](cell::CellSystem &sys) {
                return core::runSpuLs(sys, lc);
            }, b.pool);
            table.addRow({core::toString(op), util::format("%uB", e),
                          stats::Table::num(d.mean())});
            chart.add(util::format("%s %2uB", core::toString(op), e),
                      d.mean());
        }
    }
    b.emit(table);
    b.print(chart.render());
    b.printf("\nreference: LS port peak %.1f GB/s (16 B per CPU "
             "cycle)\n", b.cfg.lsPeakGBps());
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(ls_spu_ls, "Sec. 4.2.2",
                           "SPU <-> Local Store load/store bandwidth "
                           "(paper Sec. 4.2.2)",
                           run)
