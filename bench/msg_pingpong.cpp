/**
 * @file
 * MPI-style ping-pong between two SPEs — the classic latency/bandwidth
 * curve, run over the simulated MFC/EIB path.
 *
 * The paper motivates the CBE for MPI-style programming; this bench
 * shows what its measured bandwidths translate to at the message level:
 * an eager regime dominated by the notification latency, a rendezvous
 * regime approaching the pair's 16.8 GB/s one-way ramp rate, and the
 * protocol crossover in between.  Placement matters here exactly as in
 * Figures 12/13 — the distance between the two ranks is drawn per run.
 */

#include "bench_common.hh"
#include "msg/communicator.hh"

using namespace cellbw;

namespace
{

/**
 * One ping-pong run; returns {half-round-trip-us, bandwidth GB/s}.
 * Under --verify the run's metrics go to @p metrics so the report
 * carries the verify.* counts; without it the report keeps the empty
 * metrics section it has always had.
 */
std::pair<double, double>
pingpong(const cell::CellConfig &cfg, std::uint32_t bytes,
         unsigned iters, std::uint64_t seed,
         stats::MetricsRegistry *metrics)
{
    cell::CellSystem sys(cfg, seed);
    msg::CommunicatorParams params;
    params.slotBytes = 2048;
    msg::Communicator comm(sys, 2, params);
    LsAddr tx0 = sys.spe(0).lsAlloc(bytes, 16);
    LsAddr rx0 = sys.spe(0).lsAlloc(bytes, 16);
    LsAddr tx1 = sys.spe(1).lsAlloc(bytes, 16);
    LsAddr rx1 = sys.spe(1).lsAlloc(bytes, 16);

    auto ping = [&]() -> sim::Task {
        for (unsigned i = 0; i < iters; ++i) {
            co_await comm.send(0, 1, tx0, bytes);
            co_await comm.recv(0, 1, rx0, bytes, nullptr);
        }
    };
    auto pong = [&]() -> sim::Task {
        for (unsigned i = 0; i < iters; ++i) {
            co_await comm.recv(1, 0, rx1, bytes, nullptr);
            co_await comm.send(1, 0, tx1, bytes);
        }
    };
    Tick t0 = sys.now();
    sys.launch(ping());
    sys.launch(pong());
    sys.run();
    if (cfg.verify && metrics)
        sys.snapshotMetrics(*metrics);
    double secs = cfg.clock.seconds(sys.now() - t0);
    double half_rt_us = secs * 1e6 / (2.0 * iters);
    double gbps = 2.0 * iters * static_cast<double>(bytes) / secs / 1e9;
    return {half_rt_us, gbps};
}

int
run(core::ExperimentContext &b)
{
    b.header("MPI extension", "ping-pong over eager/rendezvous "
                              "protocols");

    stats::Table table({"bytes", "protocol", "half-RT(us)",
                        "GB/s(mean)", "GB/s(min)", "GB/s(max)"});
    std::vector<std::string> xlabels;
    std::vector<double> series;
    for (std::uint32_t bytes = 16; bytes <= 64 * 1024; bytes *= 4) {
        stats::Distribution lat, bw;
        for (unsigned r = 0; r < b.repeat.runs; ++r) {
            auto [l, g] = pingpong(b.cfg, bytes, 64, b.repeat.seed + r,
                                   b.repeat.metrics);
            lat.add(l);
            bw.add(g);
        }
        table.addRow({util::bytesToString(bytes),
                      bytes <= 2048 ? "eager" : "rendezvous",
                      stats::Table::num(lat.mean(), 3),
                      stats::Table::num(bw.mean()),
                      stats::Table::num(bw.min()),
                      stats::Table::num(bw.max())});
        xlabels.push_back(util::bytesToString(bytes));
        series.push_back(bw.mean());
    }
    b.emit(table);

    stats::SeriesChart chart("ping-pong bandwidth vs message size",
                             xlabels);
    chart.addSeries("GB/s", series);
    b.print(chart.render());
    b.printf("\nreference: one-way ramp peak %.1f GB/s; the eager->"
             "rendezvous switch sits at %u bytes\n",
             b.cfg.rampPeakGBps(), 2048u);
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(msg_pingpong, "MPI ext.",
                           "MPI-style ping-pong latency/bandwidth "
                           "between two SPEs",
                           run)
