#!/usr/bin/env python3
"""Host-performance benchmark for cellbw.

Runs one workload against the `cellbw` binary, built from this checkout's
sources into .bench_build/, checks every output, and prints each metric
by name with its unit.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 cellbench/run.py --workload dma_stream|cluster
        [--seed N] [--seconds S] [--trace 0|1] [--baselines DIR]

--trace 0 reports the end-to-end metrics; --trace 1 makes a separate
traced run that reports the per-layer metrics and writes the spans as
Chrome Trace Event JSON under .bench_build/traces/.  See
cellbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BUILD = REPO / ".bench_build"
BENCH_DIR = Path(__file__).resolve().parent

# The committed baselines were recorded at this seed.
BASELINE_SEED = 42

# Sim workloads: each miss is a cold `cellbw suite` run of one
# experiment (it simulates and stores a cache entry); each hit reruns
# the same suite against that cache.
SIM_WORKLOADS = {"dma_stream": "fig08_spe_mem", "cluster": "cluster_halo"}
SIM_JOBS = 4
HITS_PER_MISS = 40
SIM_SETUP_PER_ROUND = 5

# The traced run also probes the serve layer: one daemon on a fresh
# cache answers one miss of this cheap experiment, then SERVE_HITS hits.
SERVE_PROBE_EXP = "ls_spu_ls"
SERVE_HITS = 200

REPORT_SCHEMA = "cellbw-bench-v3"


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now_ns():
    # CLOCK_MONOTONIC, the clock std::chrono::steady_clock reads, so
    # spans from cellbench_micro line up with ours.
    return time.monotonic_ns()


def pct(values, q):
    """Linear-interpolated quantile @q of @values."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---------------------------------------------------------------- tracing

class Tracer:
    """Spans kept in memory, written at the end as Chrome Trace JSON."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.next_id = 0

    def new_id(self):
        self.next_id += 1
        return self.next_id

    def add(self, name, start_ns, end_ns, parent=None, tid=0, span_id=None,
            **args):
        if not self.enabled:
            return None
        if span_id is None:
            span_id = self.new_id()
        self.spans.append((name, start_ns, end_ns, span_id, parent, tid,
                           args))
        return span_id

    def write(self, path):
        if not self.spans:
            return
        base = min(s[1] for s in self.spans)
        events = []
        for name, start, end, sid, parent, tid, args in self.spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 1, "tid": tid,
                "ts": (start - base) / 1000.0,
                "dur": (end - start) / 1000.0,
                "args": dict(args, id=sid, parent=parent),
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


# ------------------------------------------------------- processes / build

class Procs:
    """Every child still running, so an error path can stop them all."""

    live = set()

    @classmethod
    def stop_all(cls):
        for p in list(cls.live):
            if p.poll() is None:
                p.kill()
            p.wait()
        cls.live.clear()


def run_proc(argv, work, tracer, name, parent=None, stdout_path=None):
    """Run @argv to completion; returns wall/cpu/rss and exit code."""
    out_path = stdout_path or work / "proc.out"
    with open(out_path, "wb") as out, open(work / "proc.err", "wb") as err:
        t0 = now_ns()
        p = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work)
        Procs.live.add(p)
        _, status, ru = os.wait4(p.pid, 0)
        t1 = now_ns()
        p.returncode = os.waitstatus_to_exitcode(status)
        Procs.live.discard(p)
    tracer.add(name, t0, t1, parent=parent, argv=" ".join(argv[1:]))
    if p.returncode != 0:
        tail = (work / "proc.err").read_text(errors="replace")[-800:]
        log(f"cellbench: {' '.join(argv)} exited {p.returncode}: {tail}")
    return {
        "wall": (t1 - t0) / 1e9,
        "cpu": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024.0,
        "rc": p.returncode,
        "out": out_path,
    }


def cmake_cache():
    entries = {}
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line)
            if m:
                entries[m.group(1)] = m.group(2)
    return entries


def build():
    """Build cellbw and cellbench_micro from this checkout's sources."""
    for need in ("src", "bench/cellbw.cpp", "baselines"):
        if not (REPO / need).exists():
            raise SetupError(f"missing program sources: {REPO / need} "
                             "(run from a full cellbw checkout)")
    if not (BUILD / "CMakeCache.txt").exists():
        rc = subprocess.call(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if rc != 0:
            raise SetupError("cmake configure failed")
    rc = subprocess.call(
        ["cmake", "--build", str(BUILD), "--target", "cellbw",
         "cellbench_micro", "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr)
    if rc != 0:
        raise SetupError("build failed")


def build_guard():
    """Refuse an unoptimised build; returns the build fingerprint."""
    info = json.loads(subprocess.run(
        [str(BUILD / "cellbench_micro"), "build-info"], check=True,
        capture_output=True, text=True).stdout)["build"]
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in ("Release", "RelWithDebInfo") or \
            not info["optimized"]:
        raise SetupError(
            f"unoptimised build (CMAKE_BUILD_TYPE='{build_type}', "
            f"flags '{info['cxx_flags'].strip()}'); reconfigure "
            f"{BUILD} with -DCMAKE_BUILD_TYPE=Release")
    info["compiler_path"] = cache.get("CMAKE_CXX_COMPILER", "")
    return info


def fingerprint(build_info):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (REPO / ".git").exists():
        r = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench"):
        p = REPO / top
        files = [p] if p.is_file() else sorted(x for x in p.rglob("*")
                                               if x.is_file())
        for f in files:
            h.update(str(f.relative_to(REPO)).encode())
            h.update(f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": build_info["compiler"],
        "compiler_path": build_info["compiler_path"],
        "cxx_flags": build_info["cxx_flags"].strip(),
        "build_type": build_info["build_type"],
        "git_commit": commit,
        "source_sha256": h.hexdigest()[:16],
    }


# ----------------------------------------------------------- output checks

class Checker:
    """Checks every report the program returns against the baselines."""

    def __init__(self, baselines, cellbw, work):
        self.baselines = baselines
        self.cellbw = cellbw
        self.work = work
        self.points = {}

    def baseline_path(self, exp):
        return self.baselines / f"{exp}.quick.json"

    def baseline_points(self, exp):
        if exp not in self.points:
            self.points[exp] = json.loads(
                self.baseline_path(exp).read_text())["points"]
        return self.points[exp]

    @staticmethod
    def conserved(report):
        """Bytes the MFCs issued equal bytes the XDR banks served."""
        m = report["metrics"]
        mfc = sum(v for k, v in m.items()
                  if re.fullmatch(r"spe\d+\.mfc\.bytes", k))
        banks = sum(v for k, v in m.items()
                    if re.fullmatch(r"mem\.bank\d+\.bytes", k))
        return mfc > 0 and mfc == banks

    def sim_report(self, path, exp, seed):
        """A simulated run of @exp at @seed; returns the report or None."""
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError) as e:
            log(f"cellbench: {exp}: unreadable report {path}: {e}")
            return None
        if report.get("schema") != REPORT_SCHEMA or \
                report.get("experiment") != exp:
            log(f"cellbench: {exp}: not a {REPORT_SCHEMA} report of {exp}")
            return None
        if seed == BASELINE_SEED:
            if report["points"] != self.baseline_points(exp):
                log(f"cellbench: {exp}: points differ from "
                    f"{self.baseline_path(exp)} at seed {seed}")
                return None
        else:
            r = subprocess.run(
                [str(self.cellbw), "compare", str(path),
                 str(self.baseline_path(exp)), "--tol", "10"],
                capture_output=True, text=True)
            if r.returncode != 0:
                log(f"cellbench: {exp}: compare --tol 10 failed at seed "
                    f"{seed}: {r.stdout[-800:]}")
                return None
        if not self.conserved(report):
            log(f"cellbench: {exp}: MFC bytes != bank bytes")
            return None
        return report


# ------------------------------------------------------------- sim workloads

def sim_round(ctx, exp, seed, profile):
    """One round of a sim workload: set-up samples, then one miss (a cold
    suite run, which simulates and stores a cache entry) and
    HITS_PER_MISS hits (the same suite run against that entry).
    Returns the miss's checked report, or None if it failed."""
    work, tracer, cellbw, checker, st = (ctx["work"], ctx["tracer"],
                                         ctx["cellbw"], ctx["checker"],
                                         ctx["stats"])
    t0 = now_ns()
    rid = tracer.new_id()
    for _ in range(SIM_SETUP_PER_ROUND):
        r = run_proc([str(cellbw), "list"], work, tracer, "proc.list",
                     parent=rid)
        if r["rc"] != 0:
            raise SetupError("cellbw list failed")
        st["setup_s"].append(r["wall"])

    manifest = work / "manifest.txt"
    manifest.write_text(f"{exp} --quick --seed {seed}"
                        + (" --sim-profile" if profile else "") + "\n")
    cache, miss_out, hit_out = work / "cache", work / "miss", work / "hit"
    shutil.rmtree(cache, ignore_errors=True)
    suite = [str(cellbw), "suite", str(manifest), "--jobs", str(SIM_JOBS),
             "--cache", str(cache), "--terse", "--out"]

    miss = run_proc(suite + [str(miss_out)], work, tracer, "proc.suite.miss",
                    parent=rid)
    st["miss_attempted"] += 1
    tc = now_ns()
    report = None
    if miss["rc"] == 0 and "cache hits: 0/1" in miss["out"].read_text():
        report = checker.sim_report(miss_out / f"{exp}.json", exp, seed)
    tracer.add("bench.check", tc, now_ns(), parent=rid)
    if report is None:
        st["miss_failed"] += 1
        tracer.add("bench.round", t0, now_ns(), span_id=rid)
        return None
    want = (miss_out / f"{exp}.json").read_bytes()
    rnd = {"miss_wall": miss["wall"], "miss_cpu": miss["cpu"],
           "miss_rss_mb": miss["rss_mb"], "hit_ms": []}

    for _ in range(HITS_PER_MISS):
        hit = run_proc(suite + [str(hit_out)], work, tracer, "proc.suite.hit",
                       parent=rid)
        st["hit_attempted"] += 1
        ok = (hit["rc"] == 0 and
              "cache hits: 1/1" in hit["out"].read_text() and
              (hit_out / f"{exp}.json").read_bytes() == want)
        if not ok:
            st["hit_failed"] += 1
            continue
        rnd["hit_ms"].append(hit["wall"] * 1e3)
    st["rounds"].append(rnd)
    tracer.add("bench.round", t0, now_ns(), span_id=rid)
    return report


def run_rounds(ctx, exp, seed, seconds, profile):
    """Rounds back to back until the next would overrun @seconds."""
    ctx["stats"].update(rounds=[], setup_s=[])
    start = time.monotonic()
    reports, round_s = [], []
    while True:
        t = time.monotonic()
        report = sim_round(ctx, exp, seed, profile)
        round_s.append(time.monotonic() - t)
        if report is not None:
            reports.append(report)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(round_s) > seconds:
            return reports


def sim_workload(ctx, workload, seed, seconds, trace):
    exp = SIM_WORKLOADS[workload]
    st = ctx["stats"] = {"miss_attempted": 0, "miss_failed": 0,
                         "hit_attempted": 0, "hit_failed": 0}
    if not trace:
        run_rounds(ctx, exp, seed, seconds, profile=False)
        return sim_e2e(st), None

    # Traced: one plain round, untraced, as the reference; then profiled
    # rounds with spans.
    ctx["tracer"].enabled = False
    ref = run_rounds(ctx, exp, seed, 0, profile=False)
    ref_miss = st["rounds"][0] if ref else None
    ctx["tracer"].enabled = True
    reports = run_rounds(ctx, exp, seed, seconds, profile=True)
    hit_ms = [ms for r in st["rounds"] for ms in r["hit_ms"]]
    served, serve_hit_us = serve_probe(ctx)
    if ref_miss is None or not reports or not hit_ms:
        return None, None
    layer = {
        "reports": reports, "repeats": len(reports),
        "cpu_s": ref_miss["miss_cpu"],
        "overhead": statistics.median(r["miss_wall"] for r in st["rounds"])
                    / ref_miss["miss_wall"],
        "hit_ms": hit_ms, "misses": len(st["rounds"]),
        "served": served, "serve_hit_p50_us": serve_hit_us,
    }
    return None, layer


def sim_e2e(st):
    """End-to-end metrics of a sim workload.  Time and rate figures are
    the best round's: the host is shared, and whole rounds run slower
    while other tenants are busy, so the best of N rounds repeats far
    better between runs than their median does."""
    rounds = [r for r in st["rounds"] if r["hit_ms"]]
    if not rounds:
        return None
    return {
        "wall_s": min(r["miss_wall"] for r in rounds),
        "cpu_s": min(r["miss_cpu"] for r in rounds),
        "peak_rss_mb": statistics.median(r["miss_rss_mb"] for r in rounds),
        "setup_s": statistics.median(st["setup_s"]),
        "req_per_s": max((1 + len(r["hit_ms"])) /
                         (r["miss_wall"] + sum(r["hit_ms"]) / 1e3)
                         for r in rounds),
    }


# ------------------------------------------------------------- serve layer

class Daemon:
    """A `cellbw serve` process on a fresh cache."""

    def __init__(self, cellbw, work):
        self.dir = work / "serve"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        port_file = self.dir / "port"
        self.err = open(self.dir / "serve.err", "wb")
        self.proc = subprocess.Popen(
            [str(cellbw), "serve", "--port", "0", "--port-file",
             str(port_file), "--jobs", "2", "--active", "2", "--sim-only",
             "--terse", "--cache", str(self.dir / "cache"), "--spool",
             str(self.dir / "spool")],
            stdout=self.err, stderr=self.err, cwd=work)
        Procs.live.add(self.proc)
        deadline = time.monotonic() + 30
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise SetupError("cellbw serve did not start")
            time.sleep(0.001)
        self.port = int(port_file.read_text())

    def metrics(self):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        conn.request("GET", "/metrics")
        body = conn.getresponse().read()
        conn.close()
        return json.loads(body)

    def stop(self):
        """SIGTERM drain, which must exit cleanly."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait()
        Procs.live.discard(self.proc)
        self.err.close()
        if self.proc.returncode != 0:
            raise SetupError(f"cellbw serve exited {self.proc.returncode}")


def serve_probe(ctx):
    """The serve layer, for the traced run: a daemon on a fresh cache
    answers one miss, which must return the baseline points, then
    SERVE_HITS hits, which must return the same bytes."""
    tracer, st, exp = ctx["tracer"], ctx["stats"], SERVE_PROBE_EXP
    t0 = now_ns()
    pid = tracer.new_id()
    daemon = Daemon(ctx["cellbw"], ctx["work"])
    try:
        # The daemon closes the connection after every response, so
        # http.client reconnects for each request.
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                          timeout=120)
        body = json.dumps({"experiment": exp, "args": ["--quick"]})
        want = None
        hit_ms = []
        for i in range(1 + SERVE_HITS):
            cls = "miss" if i == 0 else "hit"
            t1 = now_ns()
            try:
                conn.request("POST", "/run", body,
                             {"Content-Type": "application/json"})
                r = conn.getresponse()
                status, cache = r.status, r.getheader("X-Cellbw-Cache", "")
                data = r.read()
            except (OSError, http.client.HTTPException) as e:
                status, cache, data = 0, "", str(e).encode()
            t2 = now_ns()
            tracer.add("serve.request", t1, t2, parent=pid, experiment=exp,
                       cls=cls, cache=cache)
            st[f"{cls}_attempted"] += 1
            if cls == "miss":
                ok = (status == 200 and cache != "hit" and
                      json.loads(data).get("points") ==
                      ctx["checker"].baseline_points(exp))
                want = data if ok else None
            else:
                ok = want is not None and status == 200 and \
                    cache == "hit" and data == want
                hit_ms.append((t2 - t1) / 1e6)
            if not ok:
                st[f"{cls}_failed"] += 1
                log(f"cellbench: serve {cls} {exp}: status {status}, "
                    f"cache '{cache}'")
        served = daemon.metrics()
    finally:
        daemon.stop()
    tracer.add("bench.serve_probe", t0, now_ns(), span_id=pid)
    return served, pct(hit_ms, 0.50) * 1e3


# ------------------------------------------------------------ per-layer view

def run_micro(ctx):
    """Per-layer microbenchmarks, on a real fig08 report."""
    work, tracer = ctx["work"], ctx["tracer"]
    cache = work / "microcache"
    shutil.rmtree(cache, ignore_errors=True)
    report = ctx["checker"].baseline_path("fig08_spe_mem")
    out = work / "micro.json"
    t0 = now_ns()
    r = run_proc([str(BUILD / "cellbench_micro"), "layers", str(cache),
                  str(report)], work, tracer, "proc.micro", stdout_path=out)
    if r["rc"] != 0:
        return None
    res = json.loads(out.read_text())
    pid = tracer.add("bench.micro", t0, now_ns())
    for s in res["spans"]:
        tracer.add(s["name"], s["start_ns"], s["start_ns"] + s["dur_ns"],
                   parent=pid, tid=1)
    return res["layers"]


def layer_metrics(layer, micro):
    """Per-layer metrics: counts from the reports' metrics sections,
    costs from --sim-profile and the microbenchmarks."""
    tot = {}
    for rep in layer["reports"]:
        for k, v in rep["metrics"].items():
            if isinstance(v, dict):
                for f in ("count", "sum"):
                    tot[f"{k}#{f}"] = tot.get(f"{k}#{f}", 0) + v.get(f, 0)
            elif isinstance(v, (int, float)):
                tot[k] = tot.get(k, 0) + v
    # Sim workloads repeat one run; count it once.
    n = layer["repeats"]

    def total(pattern):
        s = sum(v for k, v in tot.items() if re.fullmatch(pattern, k))
        return s // n if isinstance(s, int) and s % n == 0 else s / n

    def ratio(a, b):
        return a / b if b else 0.0

    def self_ns(tag):
        return ratio(tot.get(f"profile.{tag}.self_ns", 0),
                     tot.get(f"profile.{tag}.events", 0))

    def events(tag):
        return total(rf"profile\.{tag}\.events")

    sim_events = total(r"profile\.[a-z]+\.events")
    runs = total(r"sim\.runs")
    row_hits = total(r"mem\.bank\d+\.row_hits")
    predicted = 1e-9 * (sim_events * micro["sim.queue_ns"] +
                        events("eib") * micro["eib.reserve_ns"] +
                        events("dram") * micro["mem.reserve_ns"] +
                        runs * micro["cell.build_us"] * 1e3)
    served = layer["served"]
    m = {
        "sim.events": sim_events,
        "sim.cpu_ns_per_event": ratio(layer["cpu_s"] * 1e9, sim_events),
        "sim.ticks": total(r"sim\.ticks"),
        "sim.queue_ns": micro["sim.queue_ns"],
        "sim.crossings": total(r"profile\.crossings\.delivered"),
        "sim.other_self_ns_per_event": self_ns("other"),
        "sim.predicted_cpu_s": predicted,
        "sim.model_gap": ratio(layer["cpu_s"], predicted),
        "spe.mfc_commands": total(r"spe\d+\.mfc\.commands"),
        "spe.mfc_lines": total(r"spe\d+\.mfc\.lines"),
        "spe.mfc_faults": total(r"spe\d+\.mfc\.faults"),
        "spe.mfc_queue_depth_mean": ratio(
            total(r"spe\d+\.mfc\.queue_depth#sum"),
            total(r"spe\d+\.mfc\.queue_depth#count")),
        "spe.self_ns_per_event": self_ns("mfc"),
        "eib.packets": total(r"eib\d+\.packets"),
        "eib.grants": total(r"eib\d+\.ring\d+\.grants"),
        "eib.busy_ticks": total(r"eib\d+\.ring\d+\.busy_ticks"),
        "eib.contention_ticks": total(r"eib\d+\.contention_ticks"),
        "eib.self_ns_per_event": self_ns("eib"),
        "eib.reserve_ns": micro["eib.reserve_ns"],
        "mem.accesses": total(r"mem\.bank\d+\.accesses"),
        "mem.queue_conflicts": total(r"mem\.bank\d+\.queue_conflicts"),
        "mem.refresh_stalls": total(r"mem\.bank\d+\.refresh_stalls"),
        "mem.row_hit_ratio": ratio(
            row_hits, row_hits + total(r"mem\.bank\d+\.row_conflicts")),
        "mem.self_ns_per_event": self_ns("dram"),
        "mem.reserve_ns": micro["mem.reserve_ns"],
        "mem.link_bytes": total(r"mem\.(ioif|blade)[0-9_]*\.bytes_\w+"),
        "mem.link_self_ns_per_event": self_ns("iolink"),
        "cell.build_us": micro["cell.build_us"],
        "cell.line_ns_local": micro["cell.line_ns_local"],
        "cell.line_ns_cross": micro["cell.line_ns_cross"],
        "core.runs": runs,
        "core.cache_load_us": micro["core.cache_load_us"],
        "core.cache_store_us": micro["core.cache_store_us"],
        "core.cache_hit_ratio": ratio(len(layer["hit_ms"]),
                                      len(layer["hit_ms"]) + layer["misses"]),
        "core.hit_p50_ms": pct(layer["hit_ms"], 0.50),
        "core.hit_p90_ms": pct(layer["hit_ms"], 0.90),
        "serve.requests": served.get("serve.requests", 0),
        "serve.runs": served.get("serve.runs", 0),
        "serve.http_errors": served.get("serve.http_4xx", 0) +
                             served.get("serve.http_5xx", 0),
        "serve.overhead_us": (layer["serve_hit_p50_us"] -
                              micro["core.cache_load_us"]),
        "trace.overhead": layer["overhead"],
    }
    return m


# --------------------------------------------------------------------- main

def load_spec():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(SIM_WORKLOADS))
    ap.add_argument("--seed", type=int, default=BASELINE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baselines", type=Path, default=REPO / "baselines",
                    help="reference reports (default: the committed ones)")
    args = ap.parse_args()

    spec = load_spec()
    build()
    host = fingerprint(build_guard())
    print("host: " + json.dumps(host), flush=True)

    cellbw = BUILD / "bench" / "cellbw"
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer(bool(args.trace))
    ctx = {"work": work, "tracer": tracer, "cellbw": cellbw,
           "checker": Checker(args.baselines, cellbw, work)}
    e2e, layer = sim_workload(ctx, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    micro = run_micro(ctx) if args.trace else None

    st = ctx["stats"]
    attempted = st["miss_attempted"] + st["hit_attempted"]
    failed = st["miss_failed"] + st["hit_failed"]
    ops = {"seed": args.seed,
           "generator_cpu_s": round(time.process_time(), 4)}
    for cls in ("hit", "miss"):
        ops[cls] = {"attempted": st[f"{cls}_attempted"],
                    "completed": st[f"{cls}_attempted"] - st[f"{cls}_failed"],
                    "failed": st[f"{cls}_failed"]}
    print("ops: " + json.dumps(ops), flush=True)

    if args.trace:
        values = (layer_metrics(layer, micro)
                  if layer is not None and micro is not None else None)
        if values is not None:
            values["error_rate"] = failed / max(attempted, 1)
        specs = spec["per_layer"]
        trace_path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"trace: {trace_path.relative_to(REPO)}", flush=True)
    else:
        values = e2e
        specs = spec["end_to_end"]
    if values is None:
        failed = max(failed, 1)
        values = {}
    metrics = {}
    for s in specs:
        if s["name"] in values:
            metrics[s["name"]] = {"value": values[s["name"]],
                                  "unit": s["unit"]}
            print(f"  {s['name']:<28} {values[s['name']]:>16.6g} {s['unit']}")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(specs),
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so the finally blocks stop children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main())
    except SetupError as e:
        log(f"cellbench: error: {e}")
        sys.exit(2)
    finally:
        Procs.stop_all()
