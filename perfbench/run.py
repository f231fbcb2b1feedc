#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py
        --workload coexpr-pipeline|dense-cliques|query-serve
        --seed N --seconds S --trace 0|1

Run from the root of a gsb checkout.  It builds the `gsb` CLI and the
benchmark's helper `gsbbench` (perfbench/CMakeLists.txt, Release, into
.bench_build/), generates every input from --seed, drives the shipped
binary the way users do (the CLI, and the binary TCP protocol for
serving), checks every output, and prints the metrics.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics with nothing traced.
--trace 1 runs the traced per-layer pass (gsbbench trace-*), which calls
each layer's entry points in gsb_main.cpp's order under the benchmark's
own spans, writes them to .bench_work/trace-<workload>.json (Chrome
trace-event JSON, opens in Perfetto) and reports the per-layer metrics.
A traced run of coexpr-pipeline or dense-cliques runs both of their
traced passes, so it reports every per-layer metric BENCHMARK.json lists.

Workload definitions, seeds and the serving rates live in workloads.json;
benchlib.py holds the arithmetic (tested by test_benchlib.py).
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402

with open(os.path.join(HERE, "workloads.json")) as _f:
    CONFIG = json.load(_f)

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
GSB = os.path.join(BUILD, "gsb_src", "gsb")
GSBBENCH = os.path.join(BUILD, "gsbbench")
MIB = 1024.0 * 1024.0


class BenchError(Exception):
    """A failure that makes the run's numbers unusable (no JSON is printed)."""


def log(message):
    print(message, flush=True)


# --- build and host ---------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "cli",
                                            "gsb_main.cpp"))):
        raise BenchError("run from the root of a gsb checkout "
                         "(CMakeLists.txt and src/ not found)")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "gsb_cli", "gsbbench"])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))


def cmake_cache(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def fingerprint():
    """Host and build identity stamped on every result."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if not index.startswith("index"):
            continue

        def read(name, index=index):
            with open(os.path.join(base, index, name)) as f:
                return f.read().strip()
        kind = {"Data": "d", "Instruction": "i"}.get(read("type"), "")
        caches.append(f"L{read('level')}{kind}={read('size')}")
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": " ".join(caches),
        "kernel": platform.release(),
        "compiler": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
    }


# --- child processes ----------------------------------------------------------

class Child:
    """Result of one finished child: exit code, wall seconds, peak RSS."""

    def __init__(self, rc, wall, rss_bytes, stdout):
        self.rc = rc
        self.wall = wall
        self.rss_bytes = rss_bytes
        self.stdout = stdout


def pinned(cpus):
    """preexec_fn restricting a child to cpus (None: inherit)."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def serve_cpus():
    """(server cpus, load generator cpus): the spinning load generator gets
    a core of its own when there are at least four."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, None
    return set(cpus[:-1]), {cpus[-1]}


def run_child(argv, work, tag, cpus=None):
    """Runs argv to completion; peak RSS comes from wait4's rusage of
    exactly this child."""
    out_path = os.path.join(work, tag + ".out")
    err_path = os.path.join(work, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work,
                                preexec_fn=pinned(cpus))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as f:
            log(f"  ! {tag}: exit {proc.returncode}: {f.read()[-500:]}")
    return Child(proc.returncode, wall, usage.ru_maxrss * 1024, stdout)


def helper(argv, work, tag, cpus=None):
    """Runs a gsbbench helper and returns its JSON stdout line."""
    child = run_child([GSBBENCH] + argv, work, tag, cpus)
    if child.rc != 0:
        raise BenchError(f"gsbbench {argv[0]} failed (exit {child.rc})")
    return json.loads(child.stdout.strip().splitlines()[-1]), child


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# --- result -----------------------------------------------------------------

class Result:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def check(self, ok, what):
        """Counts one checked operation; a failed check fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append("FAILED check: " + what)


def paired_runs(seconds, run_one):
    """Calls run_one(threads, i) for at least min_pairs (1-thread,
    4-thread) pairs, then more while the measuring window lasts.  The side
    that runs first alternates, starting with the 1-thread baseline, whose
    output is the checks' reference."""
    deadline = time.perf_counter() + seconds
    order = [CONFIG["threads_baseline"], CONFIG["threads"]]
    i = 0
    while i < CONFIG["min_pairs"] or (time.perf_counter() < deadline
                                      and i < CONFIG["max_pairs"]):
        for threads in order if i % 2 == 0 else reversed(order):
            run_one(threads, i)
        i += 1


def instance_seed(workload, seed):
    """The input instance a run seed selects (see instance_pool_rule in
    workloads.json): the held-out seed runs the held-out instance, which
    lies outside the pool; every other seed picks among the pool."""
    cfg = CONFIG[workload]
    if seed == CONFIG["heldout_seed"]:
        return cfg["heldout_instance"]
    pool = cfg["instance_pool"]
    return pool[seed % len(pool)]


# --- coexpr-pipeline --------------------------------------------------------

_TIMING = re.compile(r"\((?:[\d.]+ ?(?:ns|us|ms|s|min))(?:, \d+ threads)?\)")


def mask_pipeline(stdout):
    """Pipeline stdout without timings, the thread count and the memory
    table (tracked peak / RSS vary with scheduling)."""
    kept = stdout.split("\nmemory:\n", 1)[0]
    return _TIMING.sub("(T)", kept)


def parse_pipeline(stdout):
    def grab(pattern):
        match = re.search(pattern, stdout)
        if not match:
            raise BenchError("unexpected pipeline output: no " + pattern)
        return int(match.group(1))
    hubs = []
    lines = stdout.split("hub vertices:\n", 1)[1].splitlines()[2:]
    for line in lines:
        fields = line.split()
        if len(fields) != 4 or not fields[0].isdigit():
            break
        hubs.append([int(fields[1]), int(fields[2])])
    return {
        "edges": grab(r"-> (\d+) edges"),
        "cliques": grab(r"maximal cliques in \[[^\]]*\]: (\d+)"),
        "paracliques": grab(r"paracliques \([^)]*\): (\d+)"),
        "hubs": hubs,
    }


def coexpr_pipeline(seed, seconds, trace, work):
    cfg = CONFIG["coexpr-pipeline"]
    res = Result()
    seed = instance_seed("coexpr-pipeline", seed)
    res.notes.append(f"instance seed {seed}")

    def argv(genes, samples, threads, extra=()):
        return [GSB, "pipeline", "--genes", str(genes), "--samples",
                str(samples), "--threshold", str(cfg["threshold"]),
                "--threads", str(threads), "--seed", str(seed), *extra]

    # Set-up: the command synthesizes its own input from --seed, so set-up
    # is a small module-free run of the same binary (process start, page
    # cache, the bio path), whose cost does not hinge on planted cliques.
    setups = []
    for i in range(cfg["setup_reps"]):
        child = run_child(argv(cfg["setup_genes"], cfg["setup_samples"],
                               CONFIG["threads"], ("--modules", "0")),
                          work, f"setup{i}")
        res.check(child.rc == 0, "set-up pipeline run")
        setups.append(child.wall)
    res.metric("setup_s", statistics.median(setups), "s")

    runs = {CONFIG["threads"]: [], CONFIG["threads_baseline"]: []}
    reference = []

    def run_one(threads, i):
        child = run_child(argv(cfg["genes"], cfg["samples"], threads), work,
                          f"run{i}_{threads}t")
        masked = mask_pipeline(child.stdout)
        if not reference:
            reference.append(masked)
        res.check(child.rc == 0 and masked == reference[0],
                  f"pipeline --threads {threads} stdout equals the 1-thread"
                  " reference (timings, thread count and memory masked)")
        runs[threads].append(child)

    paired_runs(0 if trace else seconds, run_one)
    par = runs[CONFIG["threads"]]
    wall = statistics.median(c.wall for c in par)
    res.notes.append(f"runs: {len(par)} at --threads {CONFIG['threads']},"
                     f" {len(runs[CONFIG['threads_baseline']])} at"
                     f" --threads {CONFIG['threads_baseline']}")
    if not trace:
        res.metric("wall_s", wall, "s")
        res.metric("wall_1t_s", statistics.median(
            c.wall for c in runs[CONFIG["threads_baseline"]]), "s")
        res.metric("peak_rss_mb",
                   statistics.median(c.rss_bytes for c in par) / MIB, "MiB")
        return res

    trace_path = os.path.join(ROOT, ".bench_work",
                              "trace-coexpr-pipeline.json")
    counters, _ = helper(
        ["trace-pipeline", "--genes", str(cfg["genes"]), "--samples",
         str(cfg["samples"]), "--threshold", str(cfg["threshold"]),
         "--seed", str(seed), "--threads", str(CONFIG["threads"]),
         "--trace-out", trace_path], work, "trace")
    cli = parse_pipeline(par[0].stdout)
    for key in ("edges", "cliques", "paracliques", "hubs"):
        res.check(cli[key] == counters[key],
                  f"CLI {key} equal the traced pass's")
    res.check(counters["edges_1t"] == counters["edges"],
              "correlation edges equal at 1 and 4 threads")
    res.check(counters["cliques_1t"] == counters["cliques"],
              "enumerator cliques equal at 1 and 4 threads")

    self_s, by_name = load_spans(trace_path)
    root = by_name["pipeline"][0]
    dur = lambda name: by_name[name][0]["dur"] / 1e6  # noqa: E731
    corr_s = dur("bio.corr")
    genes, samples = cfg["genes"], cfg["samples"]
    pairs = genes * (genes - 1) / 2
    candidates = counters["enum_candidates"]
    res.metric("bio.generate_s", dur("bio.generate"), "s")
    res.metric("bio.normalize_s", dur("bio.normalize"), "s")
    res.metric("bio.corr_s", corr_s, "s")
    res.metric("bio.corr_1t_s", dur("bio.corr_1t"), "s")
    res.metric("bio.corr_gflop_per_s", 2 * pairs * samples / corr_s / 1e9,
               "GFLOP/s")
    res.metric("bio.edges", counters["edges"], "count")
    res.metric("core.maxclique_s", dur("core.maxclique"), "s")
    res.metric("core.enum_s", dur("core.enum"), "s")
    res.metric("core.enum_sched_s",
               self_s[by_name["core.enum"][0]["id"]] / 1e6, "s")
    res.metric("core.enum_1t_s", dur("core.enum_1t"), "s")
    res.metric("core.enum_candidates", candidates, "count")
    res.metric("core.enum_useful_ratio",
               counters["cliques"] / candidates if candidates else 1.0,
               "ratio")
    res.metric("core.enum_imbalance", counters["enum_imbalance"], "ratio")
    res.metric("core.enum_peak_mb", counters["enum_peak_bytes"] / MIB, "MiB")
    res.metric("analysis.paraclique_s", dur("analysis.paraclique"), "s")
    res.metric("analysis.hubs_s", dur("analysis.hubs"), "s")
    res.metric("analysis.paracliques", counters["paracliques"], "count")
    coverage_metrics(res, self_s, root, wall, counters["untraced_s"])
    return res


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [{"id": e["args"]["id"], "parent": e["args"]["parent"],
              "ts": e["ts"], "dur": e["dur"], "name": e["name"]}
             for e in events if e["ph"] == "X"]
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    return bl.self_times(spans), by_name


def coverage_metrics(res, self_s, root, wall_s, untraced_s):
    """Attribution of the CLI's wall time to the traced layers (the layer
    spans under `root` cover root duration - root self time), and the cost
    of tracing: the traced chain against the same chain run untraced in
    the same helper."""
    layers_s = (root["dur"] - self_s[root["id"]]) / 1e6
    res.metric("pipeline.unattributed_s", wall_s - layers_s, "s")
    res.metric("trace.coverage", layers_s / wall_s, "ratio")
    res.metric("trace.overhead", root["dur"] / 1e6 / untraced_s, "ratio")


# --- dense-cliques ----------------------------------------------------------

def graph_argv(seed, out):
    g = CONFIG["dense-cliques"]["graph"]
    return ["graph", "--out", out, "--seed", str(seed), "--n", str(g["n"]),
            "--modules", str(g["modules"]), "--max-module",
            str(g["max_module"]), "--p-in", str(g["p_in"]), "--background",
            str(g["background"])]


def dense_cliques(seed, seconds, trace, work):
    cfg = CONFIG["dense-cliques"]
    res = Result()
    graph_seed = instance_seed("dense-cliques", seed)
    res.notes.append(f"graph seed {graph_seed}")
    graph = os.path.join(work, "g.gsbg")
    setups = []
    for i in range(cfg["setup_reps"]):
        start = time.perf_counter()
        helper(graph_argv(graph_seed, graph), work, f"setup{i}")
        setups.append(time.perf_counter() - start)
    res.metric("setup_s", statistics.median(setups), "s")

    runs = {CONFIG["threads"]: [], CONFIG["threads_baseline"]: []}
    reference = {}

    def run_one(threads, i):
        out = os.path.join(work, f"x{threads}t.gsbc")
        child = run_child([GSB, "cliques", graph, "--engine", "bk",
                           "--threads", str(threads), "--min",
                           str(cfg["min"]), "--clique-out", out,
                           "--count-only"], work, f"run{i}_{threads}t")
        table = child.stdout.replace(out, "X.gsbc")
        digest = sha256(out) if child.rc == 0 else None
        reference.setdefault("table", table)
        reference.setdefault("digest", digest)
        res.check(child.rc == 0 and digest == reference["digest"]
                  and table == reference["table"],
                  f"cliques --threads {threads}: .gsbc byte-identical and"
                  " count table equal to the 1-thread reference")
        if i == 0:
            info = run_child([GSB, "info", out, "--verify"], work,
                             f"verify{threads}t")
            res.check(info.rc == 0, f"gsb info --verify on the"
                      f" --threads {threads} stream")
        runs[threads].append(child)

    paired_runs(0 if trace else seconds, run_one)
    par = runs[CONFIG["threads"]]
    wall = statistics.median(c.wall for c in par)
    res.notes.append(f"runs: {len(par)} per thread count; "
                     + par[0].stdout.splitlines()[0].split(" <- ")[-1])
    if not trace:
        res.metric("wall_s", wall, "s")
        res.metric("wall_1t_s", statistics.median(
            c.wall for c in runs[CONFIG["threads_baseline"]]), "s")
        res.metric("peak_rss_mb",
                   statistics.median(c.rss_bytes for c in par) / MIB, "MiB")
        return res

    trace_path = os.path.join(ROOT, ".bench_work", "trace-dense-cliques.json")
    traced_out = os.path.join(work, "traced.gsbc")
    counters, _ = helper(
        ["trace-cliques", "--graph", graph, "--min", str(cfg["min"]),
         "--threads", str(CONFIG["threads"]), "--clique-out", traced_out,
         "--trace-out", trace_path], work, "trace")
    res.check(sha256(traced_out) == reference["digest"],
              "traced .gsbc byte-identical to the CLI's")
    res.check(counters["identical"], "traced 1-thread and untraced .gsbc"
              " byte-identical to the traced 4-thread one")
    self_s, by_name = load_spans(trace_path)
    dur = lambda name: by_name[name][0]["dur"] / 1e6  # noqa: E731
    # The parallel span includes the .gsbc appends, which run in the
    # ordered drain beside other workers' BK bodies, so they are not
    # subtracted; the serial baseline's appends are.
    res.metric("core.bk_s", dur("core.bk"), "s")
    res.metric("core.bk_1t_s", dur("core.bk_1t") - counters["append_1t_s"],
               "s")
    res.metric("core.bk_tree_nodes", counters["tree_nodes"], "count")
    res.metric("core.bk_imbalance", counters["bk_imbalance"], "ratio")
    res.metric("core.bk_steals", counters["steals"], "count")
    res.metric("core.cliques", counters["cliques"], "count")
    res.metric("core.bk_pending_peak_mb",
               counters["pending_peak_bytes"] / MIB, "MiB")
    res.metric("storage.gsbg_open_s", dur("storage.gsbg_open"), "s")
    res.metric("storage.gsbc_write_s",
               counters["append_s"] + dur("storage.gsbc_close"), "s")
    res.metric("storage.gsbc_mb", counters["gsbc_bytes"] / MIB, "MiB")
    coverage_metrics(res, self_s, by_name["cliques"][0], wall,
                     counters["untraced_s"])

    # The in-process half of the service layer, over this run's artifacts
    # and the query-serve mix (the TCP half lives in query-serve).
    cliques = os.path.join(work, f"x{CONFIG['threads']}t.gsbc")
    res.check(run_child([GSB, "index", cliques], work, "index").rc == 0,
              "gsb index on the CLI's stream")
    mix, rng = request_mix(seed, graph, cliques, work)
    light = CONFIG["query-serve"]["rates_rps"]["light"]
    sched = bl.schedule(
        light, CONFIG["query-serve"]["trace_requests"] / light, mix, rng)
    service_exec_metrics(res, [line for _, line in sched], graph, cliques,
                         work, "dense-cliques-service")
    return res


# --- query-serve ------------------------------------------------------------

def parse_stats(line):
    if not line.startswith("ok stats:"):
        raise BenchError("unexpected stats response: " + line[:200])
    return {k: float(v) for k, v in re.findall(r"(\w+)=([\d.]+)", line)}


class Server:
    """A `gsb serve --tcp 127.0.0.1:0` child, ready once `ping` answers."""

    def __init__(self, argv, work):
        self.err_path = os.path.join(work, "serve.err")
        self.err = open(self.err_path, "w+b")
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                     stderr=self.err, cwd=work,
                                     preexec_fn=pinned(serve_cpus()[0]))
        self.rss_bytes = 0
        self.port = None

    def wait_ready(self):
        deadline = time.perf_counter() + 60
        while self.port is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise BenchError("gsb serve did not start")
            with open(self.err_path, "rb") as f:
                match = re.search(rb"\(port (\d+)\)", f.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.002)
        if self.request("ping") != "ok pong":
            raise BenchError("gsb serve did not answer ping")

    def request(self, line):
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=30) as s:
            s.sendall(line.encode() + b"\n")
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
        return data.decode(errors="replace").rstrip("\n")

    def stop(self):
        """Graceful shutdown; returns the exit code (peak RSS from wait4)."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        try:
            self.request("shutdown")
        except OSError:
            self.proc.send_signal(signal.SIGTERM)
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_bytes = usage.ru_maxrss * 1024
        self.err.close()
        return self.proc.returncode

    def kill(self):
        if self.proc.returncode is None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.err.close()


# --- the request mix and the in-process service pass -----------------------

def request_mix(seed, graph, cliques, work):
    """The query-serve request mix of a run seed over (graph, cliques);
    returns (RequestMix, the rng its schedules draw from).  Paraclique-
    expand seeds are one maximal clique through each of the hottest
    vertices, asked of the CLI itself."""
    cfg = CONFIG["query-serve"]
    sampler = bl.ZipfSampler(CONFIG["dense-cliques"]["graph"]["n"],
                             cfg["zipf_s"], seed)
    batch = os.path.join(work, "seeds.txt")
    with open(batch, "w") as f:
        for v in sampler.hot(cfg["paraclique_seed_vertices"]):
            f.write(f"cliques-containing {v}\n")
    child = run_child([GSB, "query", "--graph-file", graph, "--cliques",
                       cliques, "--batch", batch], work, "seeds")
    seeds = []
    for line in child.stdout.splitlines():
        answer = line.split(": ", 1)[1] if ": " in line else ""
        if answer:
            seeds.append([int(v) for v in answer.split(", ")[0].split()])
    if child.rc != 0 or not seeds:
        raise BenchError("no paraclique seeds found")
    rng = random.Random(f"schedule-{seed}")
    return bl.RequestMix(sampler, rng, seeds, cfg["mix_weights"]), rng


def service_exec_metrics(res, lines, graph, cliques, work, name):
    """The traced in-process service pass (gsbbench trace-serve): builds
    the .gsbci as `gsb index` did, opens the catalog as `gsb serve` does,
    then executes `lines` uncached on the server's thread count.  Returns
    the exec p50 over every line."""
    trace_path = os.path.join(ROOT, ".bench_work", f"trace-{name}.json")
    sched = os.path.join(work, "trace.sched")
    with open(sched, "w") as f:
        for line in lines:
            f.write(f"0 {line}\n")
    counters, _ = helper(
        ["trace-serve", "--graph", graph, "--cliques", cliques, "--schedule",
         sched, "--index-out", os.path.join(work, "traced.gsbci"),
         "--threads", str(CONFIG["query-serve"]["server_threads"]),
         "--trace-out", trace_path], work, "trace-serve")
    res.check(counters["errors"] == 0, "traced requests answer without error")
    res.check(counters["index_identical"],
              "traced .gsbci byte-identical to gsb index's")
    self_s, by_name = load_spans(trace_path)
    res.metric("storage.index_build_s",
               by_name["storage.index_build"][0]["dur"] / 1e6, "s")
    res.metric("service.catalog_open_s",
               by_name["service.catalog_open"][0]["dur"] / 1e6, "s")
    every = []
    for kind in CONFIG["query-serve"]["mix_weights"]:
        times = [self_s[s["id"]] for s in by_name.get("exec." + kind, [])]
        every += times
        res.metric(f"service.exec_p50_us.{kind}",
                   bl.supported_percentile(times, 0.5), "us")
    res.metric("service.exec_p99_us", bl.supported_percentile(every, 0.99),
               "us")
    return bl.percentile(every, 0.5)


def serve_setup(seed, work):
    """Artifacts (.gsbg, .gsbc, .gsbci) and a ready server; returns
    (server, (RequestMix, rng), seconds up to the first ping answered)."""
    cfg = CONFIG["query-serve"]
    start = time.perf_counter()
    graph = os.path.join(work, "g.gsbg")
    cliques = os.path.join(work, "c.gsbc")
    helper(graph_argv(instance_seed("dense-cliques", seed), graph), work,
           "setup_graph")
    for tag, argv in (
            ("setup_cliques", [GSB, "cliques", graph, "--engine", "bk",
                               "--threads", str(CONFIG["threads"]), "--min",
                               str(CONFIG["dense-cliques"]["min"]),
                               "--clique-out", cliques, "--count-only"]),
            ("setup_index", [GSB, "index", cliques])):
        if run_child(argv, work, tag).rc != 0:
            raise BenchError(tag + " failed")
    mix = request_mix(seed, graph, cliques, work)
    server = Server([GSB, "serve", "--graph-file", graph, "--cliques",
                     cliques, "--tcp", "127.0.0.1:0", "--cache", "--threads",
                     str(cfg["server_threads"])], work)
    try:
        server.wait_ready()
    except BaseException:
        server.kill()
        raise
    return server, mix, time.perf_counter() - start


def read_records(path):
    requests = []
    with open(path, "rb") as f:
        data = f.read()
    for due, sent, done, outcome in struct.iter_unpack("<qqqq", data):
        requests.append(bl.Request(due, sent if sent >= 0 else None,
                                   done if done >= 0 else None, outcome))
    return requests


class Phase:
    def __init__(self, requests, info):
        self.requests = requests
        self.before = parse_stats(info["stats_before"])
        self.after = parse_stats(info["stats_after"])

    def delta(self, key):
        return self.after.get(key, 0.0) - self.before.get(key, 0.0)


def run_phase(server, sched, work, tag):
    """Sends sched ([(due_us, line)]) open loop; returns its Phase."""
    cfg = CONFIG["query-serve"]
    path = os.path.join(work, tag + ".sched")
    with open(path, "w") as f:
        for due_us, line in sched:
            f.write(f"{due_us} {line}\n")
    records = os.path.join(work, tag + ".rec")
    info, _ = helper(["load", "--port", str(server.port), "--graph",
                      os.path.join(work, "g.gsbg"), "--cliques",
                      os.path.join(work, "c.gsbc"), "--schedule", path,
                      "--records", records, "--connections",
                      str(cfg["connections"])], work, tag, serve_cpus()[1])
    if info["expected_errors"]:
        raise BenchError(f"{tag}: the request mix produced"
                         f" {info['expected_errors']} error answers")
    return Phase(read_records(records), info)


def query_serve(seed, seconds, trace, work):
    cfg = CONFIG["query-serve"]
    res = Result()
    share = cfg["phase_share"]
    setups = []
    server = None
    try:
        for i in range(cfg["setup_reps"]):
            if server is not None:
                server.stop()
            server, (requests, rng), setup = serve_setup(seed, work)
            setups.append(setup)
        res.metric("setup_s", statistics.median(setups), "s")
        rates = cfg["rates_rps"]
        window_ns = cfg["window_ms"] * 1000000

        def mix(rate, share_of_seconds):
            return bl.schedule(rate, seconds * share_of_seconds, requests,
                               rng)

        # Untimed: fill the result cache with the expensive fixed lines,
        # then run the mix briefly so lazy state and caches settle.
        run_phase(server, [(0, line) for line in requests.priming_lines()],
                  work, "prime")
        run_phase(server, mix(rates["light"], share["warmup"]), work,
                  "warmup")

        def measured(name):
            for attempt in range(cfg["phase_attempts"]):
                sched = mix(rates[name], share[name])
                phase = run_phase(server, sched, work, name)
                lag = bl.supported_percentile(bl.lags_us(phase.requests),
                                              0.99)
                if lag <= cfg["lag_limit_us"]:
                    return phase, sched, lag
                log(f"  ! {name}: generator lag p99 {lag:.0f} us is over"
                    f" {cfg['lag_limit_us']} us; phase invalid, re-run")
            raise BenchError(f"{name}: generator lag p99 {lag:.0f} us;"
                             " the run is invalid")

        light, light_sched, light_lag = measured("light")
        heavy, _, heavy_lag = measured("heavy")
        for name, phase in (("light", light), ("heavy", heavy)):
            for r in phase.requests:
                res.check(r.outcome == bl.OK,
                          f"{name} request: {bl.OUTCOME_NAMES[r.outcome]}")
            lat = bl.latencies_us(phase.requests)
            q, tail, n = bl.tail_percentile(lat)
            p99, used = bl.windowed_percentile(phase.requests, window_ns,
                                               0.99)
            res.metric(f"p50_us_{name}", bl.supported_percentile(lat, 0.5),
                       "us")
            res.metric(f"loadgen.p99_us_{name}", p99, "us")
            lag = light_lag if name == "light" else heavy_lag
            res.notes.append(
                f"{name} ({rates[name]} req/s): {n} samples; p99 is the"
                f" median of {used} windows of {cfg['window_ms']} ms"
                f" (whole-phase p99 {bl.percentile(lat, 0.99):.0f} us,"
                f" highest supported p{q * 100:g} = {tail:.0f} us);"
                f" generator lag p99 {lag:.1f} us")

        # The tail and the capacity are traced-pass metrics: on a shared VM
        # their run-to-run spread exceeds any bound the end-to-end set may
        # carry (see workloads.json, serve_tail_note).
        if trace:
            res.metric("loadgen.max_rate_rps",
                       max_rate_rps(res, server, mix, work, window_ns),
                       "req/s")
            serve_trace(res, light, heavy, light_sched, light_lag, work)
        rc = server.stop()
    finally:
        if server is not None:
            server.kill()
    res.check(rc == 0, "gsb serve exits cleanly after shutdown")
    res.metric("peak_rss_mb", server.rss_bytes / MIB, "MiB")
    return res


def max_rate_rps(res, server, mix, work, window_ns):
    """Walks the fixed rate ladder (5% rungs, closer together than any
    bound) from its start rung: the highest rung whose windowed p99 is
    within the limit with no growing backlog.  A rung's failed requests
    count as misses, not as run failures (overload is the point); a
    mismatched response is still a failed check."""
    cfg = CONFIG["query-serve"]
    rungs = bl.ladder(cfg["ladder"]["start_rps"], cfg["ladder"]["step"],
                      cfg["ladder"]["below"], cfg["ladder"]["above"])

    def run_rung(rate):
        phase = run_phase(server, mix(rate, cfg["phase_share"]["rung"]),
                          work, "rung")
        for r in phase.requests:
            if r.outcome == bl.MISMATCH:
                res.check(False, f"rung {rate:.0f}: mismatched response")
        return bl.rung_passes(phase.requests, cfg["p99_limit_us"], window_ns)

    visited = bl.walk_ladder(rungs, cfg["ladder"]["below"], run_rung)
    res.notes.append("ladder: " + " ".join(
        f"{rate:.0f}{'+' if ok else '-'}" for rate, ok in visited))
    best = bl.max_passing_rate(visited)
    if best <= 0:
        raise BenchError("no ladder rung met the latency limit")
    return best


def serve_trace(res, light, heavy, light_sched, light_lag, work):
    cfg = CONFIG["query-serve"]
    res.metric("service.cache_hit_ratio",
               light.delta("cache_hits") / max(1.0, light.delta("cache_hits")
                                              + light.delta("cache_misses")),
               "ratio")
    res.metric("service.busy", heavy.delta("busy") + light.delta("busy"),
               "count")
    res.metric("service.timeouts",
               heavy.delta("timeouts") + light.delta("timeouts"), "count")
    res.metric("service.backlog_peak",
               max(bl.backlog_series(heavy.requests)), "count")
    res.metric("loadgen.lag_p99_us", light_lag, "us")

    lines = [line for _, line in light_sched[:cfg["trace_requests"]]]
    exec_p50 = service_exec_metrics(res, lines, os.path.join(work, "g.gsbg"),
                                    os.path.join(work, "c.gsbc"), work,
                                    "query-serve")
    res.metric("service.transport_us",
               res.metrics["p50_us_light"]["value"] - exec_p50, "us")


# --- main ---------------------------------------------------------------------

WORKLOADS = {
    "coexpr-pipeline": coexpr_pipeline,
    "dense-cliques": dense_cliques,
    "query-serve": query_serve,
}

# The workloads BENCHMARK.json lists.  Each per-layer metric comes from the
# traced pass of one of them, and a --trace 1 result holds every per-layer
# metric, so a traced run of one also runs the other's traced pass.
LISTED = ("coexpr-pipeline", "dense-cliques")


def run_workload(name, seed, seconds, trace, work):
    """The workload's result.  Traced, a listed workload also carries the
    per-layer metrics and the checks of the other listed workloads' traced
    passes (on their own inputs from the same seed); pipeline.unattributed_s
    and trace.* stay the named workload's own."""
    res = WORKLOADS[name](seed, seconds, trace, work)
    if not trace or name not in LISTED:
        return res
    for other in LISTED:
        if other == name:
            continue
        companion_work = os.path.join(work, other)
        os.makedirs(companion_work)
        companion = WORKLOADS[other](seed, seconds, trace, companion_work)
        res.attempted += companion.attempted
        res.failed += companion.failed
        res.notes += [f"[{other}] {note}" for note in companion.notes]
        for metric, m in companion.metrics.items():
            res.metrics.setdefault(metric, m)
    return res


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    host = fingerprint()
    log("host: " + json.dumps(host, sort_keys=True))
    if host["build_type"] != "Release":
        raise BenchError(f"refusing to report numbers from a"
                         f" {host['build_type'] or 'untyped'} build")
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        res = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log(f"workload {args.workload} seed {args.seed}"
        f" trace {args.trace}: {res.attempted} checked,"
        f" {res.failed} failed (fail_ratio"
        f" {res.failed / res.attempted:.6f})")
    for note in res.notes[:50]:
        log("  " + note)
    for name, m in sorted(res.metrics.items()):
        log(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    # Per-layer names are dotted (layer.metric); end-to-end names are not.
    res.metrics = {k: v for k, v in res.metrics.items()
                   if ("." in k) == bool(args.trace)}
    print(json.dumps({"correct": res.failed == 0,
                      "attempted": res.attempted,
                      "failed": res.failed,
                      "metrics": res.metrics}), flush=True)
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(1)
