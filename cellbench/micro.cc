/**
 * @file
 * Per-layer microbenchmarks for the cellbw benchmark (cellbench/run.py).
 *
 * Each one drives a single layer's public function from outside, sized
 * to the calls the benchmark workloads make:
 *
 *   sim.queue_ns        EventQueue::schedule + run, per event
 *   eib.reserve_ns      Eib::reserveTransfer, per 128 B packet
 *   mem.reserve_ns      DramBank::reserveAccess (row timing off), per line
 *   cell.build_us       CellSystem construction (fig08 pays it per run)
 *   cell.line_ns_local  one 128 B DMA line, SPE <- XDR on one chip
 *   cell.line_ns_cross  one 128 B DMA line, SPE <- remote SPE LS over IOIF
 *   core.cache_store_us ResultCache::store of a real report
 *   core.cache_load_us  ResultCache::load of that report
 *
 * Every figure is the median over repetitions.  Spans (start and
 * duration on the steady clock, which is CLOCK_MONOTONIC on Linux, the
 * clock run.py reads) are printed for each microbenchmark and each
 * ResultCache call so the benchmark can merge them into its trace.
 *
 * usage: cellbench_micro build-info
 *        cellbench_micro layers <cache-dir> <report.json>
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "cell/cell_system.hh"
#include "core/result_cache.hh"
#include "eib/eib.hh"
#include "eib/topology.hh"
#include "mem/dram_bank.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "stats/json_writer.hh"
#include "util/file.hh"

using namespace cellbw;

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    std::int64_t startNs;
    std::int64_t durNs;
};

std::vector<Span> spans;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Median over @p reps of one timed call of @p body, in ns per item
 * (@p body returns how many items it processed).  @p name labels the
 * whole microbenchmark's span.
 */
double
nsPerItem(const std::string &name, int reps,
          const std::function<std::uint64_t(std::int64_t &)> &body)
{
    const std::int64_t begin = nowNs();
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        std::int64_t elapsed = 0;
        const std::uint64_t items = body(elapsed);
        per.push_back(static_cast<double>(elapsed) /
                      static_cast<double>(items));
    }
    spans.push_back({name, begin, nowNs() - begin});
    return median(per);
}

double
queueNs()
{
    return nsPerItem("sim.queue", 400, [](std::int64_t &elapsed) {
        constexpr int kEvents = 1024;
        long sum = 0;
        const std::int64_t t0 = nowNs();
        {
            sim::EventQueue eq;
            for (int i = 0; i < kEvents; ++i)
                eq.schedule(static_cast<Tick>(i % 97),
                            [&sum, i] { sum += i; });
            eq.run();
        }
        elapsed = nowNs() - t0;
        if (sum != static_cast<long>(kEvents) * (kEvents - 1) / 2)
            sim::fatal("cellbench: event queue lost events");
        return kEvents;
    });
}

/** fig08's mix: each SPE GETs from and PUTs to XDR, about two thirds
 *  through the MIC ramp (bank 0) and one third through IOIF0 (bank 1). */
void
memoryFlow(unsigned i, eib::RampPos &src, eib::RampPos &dst, bool &write)
{
    const eib::RampPos spe = eib::speRampTable[i % eib::numPhysicalSpes];
    const eib::RampPos mem = i % 3 == 2 ? eib::ioif0Ramp : eib::micRamp;
    write = (i / eib::numPhysicalSpes) % 2 == 1;
    src = write ? spe : mem;
    dst = write ? mem : spe;
}

double
eibReserveNs()
{
    return nsPerItem("eib.reserve", 100, [](std::int64_t &elapsed) {
        constexpr unsigned kPackets = 4096;
        sim::EventQueue eq;
        eib::Eib bus("eib", eq, sim::ClockSpec{}, eib::EibParams{});
        Tick last = 0;
        const std::int64_t t0 = nowNs();
        for (unsigned i = 0; i < kPackets; ++i) {
            eib::RampPos src, dst;
            bool write;
            memoryFlow(i, src, dst, write);
            last = std::max(last, bus.reserveTransfer(src, dst, 128));
        }
        elapsed = nowNs() - t0;
        if (bus.packets() != kPackets || last == 0)
            sim::fatal("cellbench: EIB booked %llu of %u packets",
                       static_cast<unsigned long long>(bus.packets()),
                       kPackets);
        return kPackets;
    });
}

double
dramReserveNs()
{
    return nsPerItem("mem.reserve", 100, [](std::int64_t &elapsed) {
        constexpr unsigned kLines = 4096;
        sim::EventQueue eq;
        mem::DramBank bank("bank", eq, mem::DramBankParams{});
        const std::int64_t t0 = nowNs();
        for (unsigned i = 0; i < kLines; ++i) {
            eib::RampPos src, dst;
            bool write;
            memoryFlow(i, src, dst, write);
            bank.reserveAccess(EffAddr{i} * 128, 128, write);
        }
        elapsed = nowNs() - t0;
        if (bank.accesses() != kLines)
            sim::fatal("cellbench: DRAM bank booked %llu of %u lines",
                       static_cast<unsigned long long>(bank.accesses()),
                       kLines);
        return kLines;
    });
}

double
buildUs()
{
    return 1e-3 * nsPerItem("cell.build", 100, [](std::int64_t &elapsed) {
        cell::CellConfig cfg;
        const std::int64_t t0 = nowNs();
        cell::CellSystem sys(cfg, 42);
        elapsed = nowNs() - t0;
        if (sys.numSpes() != cfg.numSpes)
            sim::fatal("cellbench: CellSystem came up with %u SPEs",
                       sys.numSpes());
        return 1;
    });
}

sim::Task
getLoop(cell::CellSystem &sys, EffAddr src, std::uint32_t bytes,
        unsigned rounds)
{
    auto &mfc = sys.spe(0).mfc();
    for (unsigned r = 0; r < rounds; ++r) {
        co_await mfc.queueSpace();
        mfc.get(0, src, bytes, 0);
        co_await mfc.tagWait(1u << 0);
    }
}

/**
 * Wall ns per 128 B line of SPE 0 GETting 16 KiB elements (fig08's
 * largest, so 128 lines each) through CellSystem.  @p cross moves
 * them from chip 1's SPE 8 over the IOIF on a two-chip system instead
 * of from XDR.
 */
double
lineNs(bool cross)
{
    return nsPerItem(cross ? "cell.line_cross" : "cell.line_local", 15,
                     [cross](std::int64_t &elapsed) {
        constexpr std::uint32_t kElem = 16 * 1024;
        constexpr unsigned kRounds = 64;
        cell::CellConfig cfg;
        if (cross) {
            cfg.numChips = 2;
            cfg.numSpes = 16;
        }
        cell::CellSystem sys(cfg, 42);
        const EffAddr src = cross ? sys.lsEa(8, 0) : sys.malloc(kElem);
        const std::int64_t t0 = nowNs();
        sys.launch(getLoop(sys, src, kElem, kRounds));
        sys.run();
        elapsed = nowNs() - t0;
        return std::uint64_t{kRounds} * (kElem / 128);
    });
}

/** Store then load @p report under distinct keys, as serve misses and
 *  hits do; returns {store_us, load_us} medians. */
std::pair<double, double>
cacheUs(const std::string &root, const std::string &report)
{
    constexpr int kEntries = 64;
    core::ResultCache cache(root);
    std::vector<std::string> materials, keys;
    for (int i = 0; i < kEntries; ++i) {
        materials.push_back("cellbench-material-" + std::to_string(i));
        keys.push_back(core::ResultCache::hashKey(materials.back()));
    }
    std::vector<double> store, load;
    for (int i = 0; i < kEntries; ++i) {
        const std::int64_t t0 = nowNs();
        const bool ok = cache.store(keys[i], materials[i], report);
        const std::int64_t dt = nowNs() - t0;
        spans.push_back({"core.cache_store", t0, dt});
        if (!ok)
            sim::fatal("cellbench: ResultCache::store failed under %s",
                       root.c_str());
        store.push_back(1e-3 * static_cast<double>(dt));
    }
    for (int i = 0; i < kEntries; ++i) {
        const std::int64_t t0 = nowNs();
        const auto got = cache.load(keys[i], materials[i]);
        const std::int64_t dt = nowNs() - t0;
        spans.push_back({"core.cache_load", t0, dt});
        if (!got || *got != report)
            sim::fatal("cellbench: ResultCache::load lost entry %d", i);
        load.push_back(1e-3 * static_cast<double>(dt));
    }
    return {median(store), median(load)};
}

void
writeBuild(stats::JsonWriter &w)
{
#ifdef __OPTIMIZE__
    constexpr bool optimized = true;
#else
    constexpr bool optimized = false;
#endif
    w.key("build").beginObject();
    w.key("build_type").value(CELLBENCH_BUILD_TYPE);
    w.key("cxx_flags").value(CELLBENCH_CXX_FLAGS);
    w.key("compiler").value(__VERSION__);
    w.key("optimized").value(optimized);
    w.endObject();
}

} // namespace

int
run(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    stats::JsonWriter w;
    w.beginObject();
    if (mode == "build-info" && argc == 2) {
        writeBuild(w);
    } else if (mode == "layers" && argc == 4) {
        std::string report;
        if (!util::readFile(argv[3], report)) {
            std::fprintf(stderr, "cellbench_micro: cannot read %s\n",
                         argv[3]);
            return 2;
        }
        writeBuild(w);
        w.key("layers").beginObject();
        w.key("sim.queue_ns").value(queueNs());
        w.key("eib.reserve_ns").value(eibReserveNs());
        w.key("mem.reserve_ns").value(dramReserveNs());
        w.key("cell.build_us").value(buildUs());
        w.key("cell.line_ns_local").value(lineNs(false));
        w.key("cell.line_ns_cross").value(lineNs(true));
        const auto [storeUs, loadUs] = cacheUs(argv[2], report);
        w.key("core.cache_store_us").value(storeUs);
        w.key("core.cache_load_us").value(loadUs);
        w.endObject();
        w.key("spans").beginArray();
        for (const Span &s : spans) {
            w.beginObject();
            w.key("name").value(s.name);
            w.key("start_ns").value(s.startNs);
            w.key("dur_ns").value(s.durNs);
            w.endObject();
        }
        w.endArray();
    } else {
        std::fputs("usage: cellbench_micro build-info\n"
                   "       cellbench_micro layers <cache-dir> "
                   "<report.json>\n",
                   stderr);
        return 2;
    }
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cellbench_micro: %s\n", e.what());
        return 1;
    }
}
