/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself (host-side
 * performance, not modeled bandwidth): event-queue throughput and
 * end-to-end simulated-DMA cost, so regressions in the kernel show up.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <deque>
#include <optional>

#include "cell/cell_system.hh"
#include "core/experiments.hh"
#include "core/runner.hh"
#include "core/worker_pool.hh"
#include "sim/event_queue.hh"
#include "sim/parallel.hh"
#include "spe/mfc.hh"

using namespace cellbw;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue eq;
        long sum = 0;
        for (int i = 0; i < n; ++i)
            eq.schedule(static_cast<Tick>(i % 97), [&sum, i] { sum += i; });
        eq.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

/**
 * Same-tick burst delivery: the MFC/EIB hot path frequently schedules
 * dozens of completions onto the tick being drained.  Measures the
 * batched bucket drain (append while dispatching, FIFO preserved).
 */
void
BM_SameTickDrain(benchmark::State &state)
{
    const int bursts = static_cast<int>(state.range(0));
    constexpr int kPerBurst = 64;
    for (auto _ : state) {
        sim::EventQueue eq;
        long sum = 0;
        for (int b = 0; b < bursts; ++b) {
            eq.schedule(static_cast<Tick>(b), [&eq, &sum] {
                // Fan out onto the tick currently being drained.
                for (int i = 0; i < kPerBurst; ++i)
                    eq.schedule(0, [&sum, i] { sum += i; });
            });
        }
        eq.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * bursts *
                            (kPerBurst + 1));
}
BENCHMARK(BM_SameTickDrain)->Arg(1024);

void
BM_SingleSpeGet(benchmark::State &state)
{
    const std::uint64_t bytes = 1ull << state.range(0);
    for (auto _ : state) {
        cell::CellConfig cfg;
        cell::CellSystem sys(cfg, 1);
        core::SpeMemConfig mc;
        mc.numSpes = 1;
        mc.bytesPerSpe = bytes;
        double bw = core::runSpeMem(sys, mc);
        benchmark::DoNotOptimize(bw);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SingleSpeGet)->Arg(18)->Arg(20);

void
BM_SpePairTransfer(benchmark::State &state)
{
    for (auto _ : state) {
        cell::CellConfig cfg;
        cell::CellSystem sys(cfg, 1);
        core::SpeSpeConfig sc;
        sc.numSpes = 2;
        sc.elemBytes = 4096;
        sc.bytesPerStream = 1 * util::MiB;
        double bw = core::runSpeSpe(sys, sc);
        benchmark::DoNotOptimize(bw);
    }
}
BENCHMARK(BM_SpePairTransfer);

/**
 * The paper's 10-seed placement sweep, the unit of work every figure
 * binary repeats per data point.  Arg = --jobs: /1 runs inline, as
 * `cellbw run --jobs 1` does, and the others fan out over a WorkerPool
 * of that width (output is bit-identical for any jobs value).
 */
void
BM_SeedSweep(benchmark::State &state)
{
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    cell::CellConfig cfg;
    core::RepeatSpec spec;          // 10 runs, seeds 42..51
    std::optional<core::WorkerPool> pool;
    if (jobs != 1)
        pool.emplace(jobs);
    core::WorkerPool *par = pool ? &*pool : nullptr;
    for (auto _ : state) {
        core::Sweep sweep(spec, par);
        sweep.add(cfg, [](cell::CellSystem &sys) {
            core::SpeSpeConfig sc;
            sc.numSpes = 8;
            sc.elemBytes = 4096;
            sc.bytesPerStream = 1 * util::MiB;
            return core::runSpeSpe(sys, sc);
        });
        benchmark::DoNotOptimize(sweep.result(0).mean());
    }
    state.SetItemsProcessed(state.iterations() * spec.runs);
}
BENCHMARK(BM_SeedSweep)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/**
 * A dual-chip run on the partitioned engine: 16 SPEs across two chip
 * partitions, synchronized at IOIF crossing-latency windows.
 */
void
BM_DualChipParallel(benchmark::State &state)
{
    for (auto _ : state) {
        cell::CellConfig cfg;
        cfg.numChips = 2;
        cfg.numSpes = 16;
        cell::CellSystem sys(cfg, 1);
        core::SpeSpeConfig sc;
        sc.numSpes = 16;
        sc.elemBytes = 4096;
        sc.bytesPerStream = 1 * util::MiB;
        double bw = core::runSpeSpe(sys, sc);
        benchmark::DoNotOptimize(bw);
    }
}
BENCHMARK(BM_DualChipParallel)->Unit(benchmark::kMillisecond)->UseRealTime();

/**
 * The partitioned engine's window cost on its own: eight partitions
 * pass tokens around a ring, one token per partition, each hop one
 * lookahead long, so every window delivers eight messages and runs
 * eight one-event partitions.  Reports ns per delivered message, the
 * per-message cost the engine adds on top of the queue.  Arg = hops
 * per token.
 */
void
BM_PartitionedWindow(benchmark::State &state)
{
    constexpr unsigned kParts = 8;
    constexpr Tick kLook = 84;      // one IOIF crossing at 2.1 GHz
    const long hops = state.range(0);
    std::uint64_t delivered = 0;
    double ns = 0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        sim::PartitionedEngine eng(kParts, kLook);
        struct Ring
        {
            sim::PartitionedEngine &eng;
            long left;

            void
            send(unsigned from)
            {
                const unsigned to = (from + 1) % kParts;
                eng.post(from, to, eng.queue(from).now() + kLook,
                         [this, to] {
                             if (--left > 0)
                                 send(to);
                         });
            }
        } ring{eng, hops * kParts};
        for (unsigned p = 0; p < kParts; ++p)
            eng.queue(p).schedule(p, [&ring, p] { ring.send(p); });
        eng.run();
        delivered += eng.messagesDelivered();
        ns += std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
    state.counters["ns_per_msg"] = ns / static_cast<double>(delivered);
}
BENCHMARK(BM_PartitionedWindow)->Arg(4096);

/**
 * The MFC's host cost per DMA line on its own, in the paper's Fig. 8
 * regime: one MFC with its 16-entry queue full of 16 KiB GETs and 18
 * memory tokens, against a router that completes every line a fixed
 * 230 ticks (one memory round trip) later.  The token window stays
 * full, so every completion issues one line while the other commands
 * wait.  Reports ns per line: slicing, tag bookkeeping, the ring and
 * the line completion, plus one queue event per line.
 */
void
BM_MfcLineIssue(benchmark::State &state)
{
    constexpr Tick kRoundTrip = 230;
    constexpr unsigned kCommands = 16;
    constexpr std::uint32_t kBytes = 16 * 1024;
    std::uint64_t lines = 0;
    double ns = 0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        sim::EventQueue eq;
        spe::MfcParams params;
        params.memoryTokens = 18;
        spe::Mfc mfc("mfc", eq, sim::ClockSpec{}, params, 0);
        // Fixed delay, so lines complete in the order they were sent.
        std::deque<decltype(spe::LineRequest::done)> inFlight;
        mfc.setLineHandler([&eq, &inFlight](spe::LineRequest &&req) {
            inFlight.push_back(std::move(req.done));
            eq.schedule(kRoundTrip, [&inFlight] {
                auto done = std::move(inFlight.front());
                inFlight.pop_front();
                done();
            });
        });
        for (unsigned c = 0; c < kCommands; ++c)
            mfc.get(0, EffAddr(c) * kBytes, kBytes, c);
        eq.run();
        benchmark::DoNotOptimize(mfc.bytesTransferred());
        lines += mfc.linesSent();
        ns += std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(lines));
    state.counters["ns_per_line"] = ns / static_cast<double>(lines);
}
BENCHMARK(BM_MfcLineIssue);

void
BM_PpeL1Stream(benchmark::State &state)
{
    for (auto _ : state) {
        cell::CellConfig cfg;
        cell::CellSystem sys(cfg, 1);
        auto pc = core::ppeL1Config(1, 16, ppe::MemOp::Load);
        pc.totalBytes = 1 * util::MiB;
        double bw = core::runPpeStream(sys, pc);
        benchmark::DoNotOptimize(bw);
    }
}
BENCHMARK(BM_PpeL1Stream);

} // namespace

BENCHMARK_MAIN();
