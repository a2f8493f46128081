/**
 * @file
 * The `cellbw` driver: every experiment in the repo behind one binary.
 *
 *   cellbw list                        enumerate registered experiments
 *   cellbw run <name> [flags...]       run one (same CLI as the legacy
 *                                      per-figure binary)
 *   cellbw suite [manifest] [opts]     run a manifest through a shared
 *                                      worker pool + result cache
 *   cellbw compare <cand> <base> [opts]
 *                                      regression-gate two JSON reports
 *   cellbw validate [targets] [opts]   check suite results against the
 *                                      paper expectations under
 *                                      baselines/paper/
 *   cellbw serve [opts]                long-running HTTP JSON daemon
 *                                      over the same registry, pool,
 *                                      and result cache
 *
 * `run` and the legacy binaries share core::runExperimentCli(), so
 * `cellbw run fig08_spe_mem --quick` is byte-identical to
 * `fig08_spe_mem --quick`.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/compare.hh"
#include "core/result_cache.hh"
#include "core/suite.hh"
#include "core/validate.hh"
#include "core/worker_pool.hh"
#include "serve/server.hh"
#include "util/strings.hh"

using namespace cellbw;

namespace
{

int
usage(std::FILE *to)
{
    std::fputs(
        "usage: cellbw <command> [args...]\n"
        "\n"
        "commands:\n"
        "  list [--backend NAME]        list registered experiments "
        "(optionally only\n"
        "                               those of one backend: sim, "
        "native)\n"
        "  run <name> [flags...]        run one experiment (flags as "
        "the legacy binary;\n"
        "                               try `cellbw run <name> "
        "--help`)\n"
        "  suite [manifest] [options]   run a suite of experiments\n"
        "    manifest                   `ci` (all experiments, default)"
        " or a file of\n"
        "                               `<experiment> [flags...]` "
        "lines\n"
        "    --jobs N                   shared worker-pool width "
        "(default: all cores)\n"
        "    --out DIR                  report directory (default: "
        "cellbw-suite-out)\n"
        "    --cache DIR                result-cache root (default: "
        ".cellbw-cache)\n"
        "    --no-cache                 disable the result cache\n"
        "    --cache-max-bytes SIZE     LRU-prune the cache to SIZE "
        "after the suite\n"
        "    --terse                    suppress per-experiment "
        "progress lines\n"
        "    <other flags>              forwarded to every experiment "
        "(e.g. --quick)\n"
        "  serve [options]              HTTP JSON daemon (POST /run, "
        "GET /jobs/<id>,\n"
        "                               GET /metrics, ...); SIGTERM "
        "drains gracefully\n"
        "    --host ADDR                bind address (default "
        "127.0.0.1)\n"
        "    --port N                   TCP port; 0 picks one "
        "(default 8080)\n"
        "    --port-file FILE           write the bound port here\n"
        "    --active N                 concurrent experiment runs "
        "(default 2)\n"
        "    --jobs N                   shared worker-pool width "
        "(default: all cores)\n"
        "    --cache DIR / --no-cache   as for suite\n"
        "    --cache-max-bytes SIZE     online LRU cache cap (prune "
        "after each run)\n"
        "    --spool DIR                per-job report files (default: "
        "cellbw-serve-spool)\n"
        "    --sim-only                 refuse native-backend "
        "experiments\n"
        "    --terse                    suppress per-request log "
        "lines\n"
        "  compare <candidate> <baseline> [options]\n"
        "    --tol PCT                  global relative tolerance, "
        "percent (default 0)\n"
        "    --tols NAME=PCT,...        per-column tolerance "
        "overrides\n"
        "    --metrics                  also gate the metrics "
        "section\n"
        "    --metrics-tol PCT          tolerance for metrics "
        "(default 0)\n"
        "  cache prune [options]        evict least-recently-used "
        "result-cache entries\n"
        "    --max-bytes SIZE           keep at most SIZE bytes "
        "(e.g. 64M; 0 empties)\n"
        "    --cache DIR                cache root (default: "
        ".cellbw-cache)\n"
        "  validate [experiment...] [options]\n"
        "                               run experiments (default: every"
        " baselined one)\n"
        "                               and check the results against "
        "the paper\n"
        "    --baselines DIR            expectation files (default: "
        "baselines/paper)\n"
        "    --out DIR                  report directory (default: "
        "cellbw-validate-out)\n"
        "    --cache/--no-cache/--jobs/--terse\n"
        "                               as for suite\n"
        "    --json FILE                extra copy of the validation "
        "report\n"
        "    <other flags>              forwarded to every experiment "
        "(e.g. --quick)\n",
        to);
    return to == stdout ? 0 : 2;
}

bool
parseDoubleArg(const char *flag, const char *val, double &out)
{
    if (!val) {
        std::fprintf(stderr, "cellbw: %s needs a value\n", flag);
        return false;
    }
    if (!util::parseDouble(val, out) || out < 0) {
        std::fprintf(stderr, "cellbw: bad %s value '%s'\n", flag, val);
        return false;
    }
    return true;
}

/** Parse a --jobs value: a pool width from 0 (all cores) to the cap. */
bool
parseJobsArg(const char *val, unsigned &out)
{
    try {
        std::uint64_t v = util::parseUint64(val);
        if (v <= core::WorkerPool::kMaxWorkers) {
            out = static_cast<unsigned>(v);
            return true;
        }
    } catch (const std::exception &) {
    }
    std::fprintf(stderr, "cellbw: bad --jobs value '%s' (expected 0..%u)\n",
                 val, core::WorkerPool::kMaxWorkers);
    return false;
}

int
cmdList(int argc, char **argv)
{
    std::optional<core::Backend> filter;
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--backend") {
            if (++i >= argc) {
                std::fputs("cellbw: --backend needs a value\n", stderr);
                return 2;
            }
            core::Backend b;
            if (!core::parseBackend(argv[i], b)) {
                std::fprintf(stderr,
                             "cellbw: unknown backend '%s' (known "
                             "backends: %s)\n",
                             argv[i], core::knownBackends());
                return 2;
            }
            filter = b;
        } else if (a == "--help" || a == "-h") {
            return usage(stdout);
        } else {
            std::fprintf(stderr, "cellbw: unknown list flag '%s'\n",
                         a.c_str());
            return 2;
        }
    }
    std::fputs(
        core::ExperimentRegistry::instance().listText(filter).c_str(),
        stdout);
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 1) {
        std::fputs("usage: cellbw run <name> [flags...]\n", stderr);
        return 2;
    }
    // argv[0] is the experiment name and becomes the forwarded
    // argv[0], so the flags line up exactly with the legacy binary.
    return core::runExperimentCli(argv[0], argc,
                                  const_cast<const char *const *>(argv));
}

int
cmdSuite(int argc, char **argv)
{
    core::SuiteSpec spec;
    bool haveManifest = false;
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--jobs") {
            if (++i >= argc) {
                std::fputs("cellbw: --jobs needs a value\n", stderr);
                return 2;
            }
            if (!parseJobsArg(argv[i], spec.jobs))
                return 2;
        } else if (a == "--out") {
            if (++i >= argc) {
                std::fputs("cellbw: --out needs a value\n", stderr);
                return 2;
            }
            spec.outDir = argv[i];
        } else if (a == "--cache") {
            if (++i >= argc) {
                std::fputs("cellbw: --cache needs a value\n", stderr);
                return 2;
            }
            spec.cacheDir = argv[i];
        } else if (a == "--no-cache") {
            spec.useCache = false;
        } else if (a == "--cache-max-bytes") {
            if (++i >= argc) {
                std::fputs("cellbw: --cache-max-bytes needs a value\n",
                           stderr);
                return 2;
            }
            try {
                spec.cacheMaxBytes = util::parseByteSize(argv[i]);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "cellbw: bad --cache-max-bytes "
                             "value '%s': %s\n", argv[i], e.what());
                return 2;
            }
        } else if (a == "--terse") {
            spec.terse = true;
        } else if (a == "--help" || a == "-h") {
            return usage(stdout);
        } else if (!a.empty() && a[0] != '-' && !haveManifest) {
            spec.manifest = a;
            haveManifest = true;
        } else {
            // Anything else belongs to the experiments (--quick,
            // --runs, machine knobs, ...).
            spec.forward.push_back(a);
        }
    }
    return core::runSuite(spec);
}

int
cmdValidate(int argc, char **argv)
{
    core::ValidateSpec spec;
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--jobs") {
            if (++i >= argc) {
                std::fputs("cellbw: --jobs needs a value\n", stderr);
                return 2;
            }
            if (!parseJobsArg(argv[i], spec.jobs))
                return 2;
        } else if (a == "--baselines") {
            if (++i >= argc) {
                std::fputs("cellbw: --baselines needs a value\n",
                           stderr);
                return 2;
            }
            spec.baselineDir = argv[i];
        } else if (a == "--out") {
            if (++i >= argc) {
                std::fputs("cellbw: --out needs a value\n", stderr);
                return 2;
            }
            spec.outDir = argv[i];
        } else if (a == "--cache") {
            if (++i >= argc) {
                std::fputs("cellbw: --cache needs a value\n", stderr);
                return 2;
            }
            spec.cacheDir = argv[i];
        } else if (a == "--json") {
            if (++i >= argc) {
                std::fputs("cellbw: --json needs a value\n", stderr);
                return 2;
            }
            spec.jsonPath = argv[i];
        } else if (a == "--no-cache") {
            spec.useCache = false;
        } else if (a == "--terse") {
            spec.terse = true;
        } else if (a == "--help" || a == "-h") {
            return usage(stdout);
        } else if (!a.empty() && a[0] != '-') {
            spec.targets.push_back(a);
        } else {
            // Experiment flags (--quick, machine knobs, ...).  A bare
            // value after an unknown `--flag` belongs to the flag
            // unless it names an experiment (then it is a target).
            spec.forward.push_back(a);
            if (a.rfind("--", 0) == 0 &&
                a.find('=') == std::string::npos && i + 1 < argc &&
                argv[i + 1][0] != '-' &&
                !core::ExperimentRegistry::instance().find(argv[i + 1]))
                spec.forward.push_back(argv[++i]);
        }
    }
    return core::runValidate(spec);
}

int
cmdCompare(int argc, char **argv)
{
    std::vector<std::string> paths;
    core::ComparePolicy policy;
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--tol") {
            if (!parseDoubleArg("--tol", i + 1 < argc ? argv[++i]
                                                      : nullptr,
                                policy.tolPct))
                return 2;
        } else if (a == "--tols") {
            if (++i >= argc) {
                std::fputs("cellbw: --tols needs a value\n", stderr);
                return 2;
            }
            std::string err;
            if (!core::parseColumnTols(argv[i], policy.columnTolPct,
                                       err)) {
                std::fprintf(stderr, "cellbw: %s\n", err.c_str());
                return 2;
            }
        } else if (a == "--metrics") {
            policy.includeMetrics = true;
        } else if (a == "--metrics-tol") {
            if (!parseDoubleArg("--metrics-tol",
                                i + 1 < argc ? argv[++i] : nullptr,
                                policy.metricsTolPct))
                return 2;
            policy.includeMetrics = true;
        } else if (a == "--help" || a == "-h") {
            return usage(stdout);
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "cellbw: unknown compare flag '%s'\n",
                         a.c_str());
            return 2;
        } else {
            paths.push_back(a);
        }
    }
    if (paths.size() != 2) {
        std::fputs("usage: cellbw compare <candidate> <baseline> "
                   "[--tol PCT] [--tols NAME=PCT,...]\n", stderr);
        return 2;
    }

    core::CompareResult result;
    std::string err;
    if (!core::compareReportFiles(paths[0], paths[1], policy, result,
                                  err)) {
        std::fprintf(stderr, "cellbw: %s\n", err.c_str());
        return 2;
    }
    for (const auto &r : result.regressions)
        std::printf("REGRESSION: %s\n", r.c_str());
    std::printf("compare: %u points, %u values, %u metrics; "
                "%zu regression%s (tol %.3g%%)\n",
                result.pointsCompared, result.valuesCompared,
                result.metricsCompared, result.regressions.size(),
                result.regressions.size() == 1 ? "" : "s",
                policy.tolPct);
    return result.ok() ? 0 : 1;
}

int
cmdCache(int argc, char **argv)
{
    if (argc < 1 || std::string(argv[0]) != "prune") {
        std::fputs("usage: cellbw cache prune --max-bytes SIZE "
                   "[--cache DIR]\n", stderr);
        return 2;
    }
    std::string root = ".cellbw-cache";
    std::uint64_t maxBytes = 0;
    bool haveMax = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--max-bytes") {
            if (++i >= argc) {
                std::fputs("cellbw: --max-bytes needs a value\n",
                           stderr);
                return 2;
            }
            try {
                maxBytes = util::parseByteSize(argv[i]);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "cellbw: bad --max-bytes value "
                             "'%s': %s\n", argv[i], e.what());
                return 2;
            }
            haveMax = true;
        } else if (a == "--cache") {
            if (++i >= argc) {
                std::fputs("cellbw: --cache needs a value\n", stderr);
                return 2;
            }
            root = argv[i];
        } else if (a == "--help" || a == "-h") {
            return usage(stdout);
        } else {
            std::fprintf(stderr, "cellbw: unknown cache flag '%s'\n",
                         a.c_str());
            return 2;
        }
    }
    if (!haveMax) {
        std::fputs("cellbw: cache prune needs --max-bytes\n", stderr);
        return 2;
    }
    core::ResultCache cache(root);
    auto stats = cache.prune(maxBytes);
    std::printf("cache prune: %llu entries / %llu bytes scanned, "
                "%llu entries / %llu bytes evicted (budget %llu)\n",
                (unsigned long long)stats.entries,
                (unsigned long long)stats.bytes,
                (unsigned long long)stats.evicted,
                (unsigned long long)stats.evictedBytes,
                (unsigned long long)maxBytes);
    return 0;
}

int
cmdServe(int argc, char **argv)
{
    serve::ServeSpec spec;
    auto needValue = [&](const char *flag, int &i) -> const char * {
        if (++i >= argc) {
            std::fprintf(stderr, "cellbw: %s needs a value\n", flag);
            return nullptr;
        }
        return argv[i];
    };
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = nullptr;
        if (a == "--host") {
            if (!(v = needValue("--host", i)))
                return 2;
            spec.host = v;
        } else if (a == "--port") {
            if (!(v = needValue("--port", i)))
                return 2;
            try {
                std::uint64_t p = util::parseUint64(v);
                if (p > 65535)
                    throw std::runtime_error("out of range");
                spec.port = static_cast<std::uint16_t>(p);
            } catch (const std::exception &) {
                std::fprintf(stderr, "cellbw: bad --port value '%s'\n",
                             v);
                return 2;
            }
        } else if (a == "--port-file") {
            if (!(v = needValue("--port-file", i)))
                return 2;
            spec.portFile = v;
        } else if (a == "--active") {
            if (!(v = needValue("--active", i)))
                return 2;
            try {
                spec.active =
                    static_cast<unsigned>(util::parseUint64(v));
            } catch (const std::exception &) {
                std::fprintf(stderr,
                             "cellbw: bad --active value '%s'\n", v);
                return 2;
            }
        } else if (a == "--jobs") {
            if (!(v = needValue("--jobs", i)) || !parseJobsArg(v, spec.jobs))
                return 2;
        } else if (a == "--cache") {
            if (!(v = needValue("--cache", i)))
                return 2;
            spec.cacheDir = v;
        } else if (a == "--no-cache") {
            spec.useCache = false;
        } else if (a == "--cache-max-bytes") {
            if (!(v = needValue("--cache-max-bytes", i)))
                return 2;
            try {
                spec.cacheMaxBytes = util::parseByteSize(v);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "cellbw: bad --cache-max-bytes "
                             "value '%s': %s\n", v, e.what());
                return 2;
            }
        } else if (a == "--spool") {
            if (!(v = needValue("--spool", i)))
                return 2;
            spec.spoolDir = v;
        } else if (a == "--sim-only") {
            spec.simOnly = true;
        } else if (a == "--terse") {
            spec.terse = true;
        } else if (a == "--help" || a == "-h") {
            return usage(stdout);
        } else {
            std::fprintf(stderr, "cellbw: unknown serve flag '%s'\n",
                         a.c_str());
            return 2;
        }
    }
    return serve::runServe(spec);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    std::string cmd = argv[1];
    if (cmd == "list")
        return cmdList(argc - 2, argv + 2);
    if (cmd == "run")
        return cmdRun(argc - 2, argv + 2);
    if (cmd == "suite")
        return cmdSuite(argc - 2, argv + 2);
    if (cmd == "compare")
        return cmdCompare(argc - 2, argv + 2);
    if (cmd == "validate")
        return cmdValidate(argc - 2, argv + 2);
    if (cmd == "cache")
        return cmdCache(argc - 2, argv + 2);
    if (cmd == "serve")
        return cmdServe(argc - 2, argv + 2);
    if (cmd == "--help" || cmd == "-h" || cmd == "help")
        return usage(stdout);
    std::fprintf(stderr, "cellbw: unknown command '%s'\n", cmd.c_str());
    return usage(stderr);
}
