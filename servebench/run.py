#!/usr/bin/env python3
"""Serving benchmark of the live reputation daemon.

    python3 servebench/run.py --workload ingest_steady|assess_read \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds servebench/ (and the library in
src/) with CMake into $CARGO_TARGET_DIR/servebench (default
.bench_build/servebench), launches the daemon in its own process several
times to time set-up, drives the last instance with the load generator,
checks the outputs, and prints one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with the daemon's span wrapper off, each computed per 1 s
segment of the measured phase and reported as the quartile of the
segments on its better side.  With --trace 1 the same
load runs once, in a single measured phase during which the daemon's
span wrapper alternates 250 ms traced and untraced slices, and the
metrics are the per-layer metrics.  README.md documents every metric.
"""

import argparse
import csv
import hashlib
import http.client
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_steady", "assess_read")
SETUPS = 5                     # daemon launches per run; setup_s is their median
MEASURED = 2                   # load generator phase; phase 1 is the warm-up
# The shared host's CPU speed drops by up to 1.4x for seconds to minutes
# at a time, and a drop only ever slows the daemon.  Every time, rate and
# CPU figure is computed per 1 s segment and reported as the quartile of
# the segments on its better side: the upper quartile of a rate, the
# lower quartile of a time or CPU cost (README.md, "CPU placement and
# noise").
HIGHER = ("ingest_records_per_s", "assess_per_s")  # larger is better
# The end-to-end tail percentile.  Host stalls of a few milliseconds hit
# 1-2% of requests on a shared machine, so a per-segment p99 measures the
# host; p90 stays on the daemon (README.md, "End-to-end metrics").
TAIL = 0.9
# Open-loop lag p99 beyond which the generator fell behind its schedule.
# A loaded host stalls the lane for a few milliseconds at a time; a
# generator that cannot keep up lags by far more.
LAG_P99_LIMIT_MS = 10.0
# The replayed layers must account for the in-situ handler span: the
# medians may differ by at most 35% of the handler's or 10 us, whichever
# is larger (the floor covers the tree dispatch, response copy and cold
# caches that a sub-10-us request pays in the daemon and not in replay).
RECONCILE_SHARE = 0.35
RECONCILE_FLOOR_US = 10.0
MAX_INFLIGHT = 60              # below the daemon's 64-connection admission bound

# Each workload's reason to exist, as a prediction the traced run checks
# (README.md, "Workloads").
PREDICTIONS = {
    "ingest_steady": (
        "serve.observe_ns_per_record is the largest replayed per-record cost",
        lambda m: m["serve.observe_ns_per_record"] > max(
            m["repsys.ingest_batch_ns_per_record"], m["net.parse_ns_per_record"])),
    "assess_read": (
        "repsys.history_snapshot_us + repsys.trust_eval_us make up most of serve.assess_us",
        lambda m: m["repsys.history_snapshot_us"] + m["repsys.trust_eval_us"]
        > 0.5 * m["serve.assess_us"]),
}

# The metric each workload's tracing overhead is reported on, and whether
# a larger value is better.
PRIMARY = {
    "ingest_steady": ("ingest_records_per_s", True),
    "assess_read": ("assess_per_s", True),
}


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "servebench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", jobs,
                     "--target", "servebench_daemon", "servebench_loadgen"]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return build_dir


def healthz(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    finally:
        conn.close()


def launch_daemon(build_dir, spans_path=None):
    """Start the daemon; return (process, port, seconds until /healthz answered)."""
    cmd = [os.path.join(build_dir, "servebench_daemon")]
    if spans_path:
        cmd += ["--spans", spans_path]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line.startswith("port "):
        proc.kill()
        proc.wait()
        fail(f"daemon did not report its port: {line!r}")
    port = int(line.split()[1])
    if not healthz(port):
        stop_daemon(proc)
        fail("daemon /healthz did not answer 200")
    return proc, port, time.perf_counter() - start


def cpu_plan():
    """CPUs while the load runs: the daemon's threads on the last CPU;
    the load generator's main thread and closed-loop clients each on one
    of the others.  None below 4 CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, []
    return cpus[-1], [cpus[0], cpus[1], cpus[2]]


def pin_process(pid, cpu):
    for tid in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(tid), {cpu})


def stop_daemon(proc):
    """SIGTERM and wait; returns (exit code, remaining stdout)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return proc.returncode, out


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, q):
    """Nearest-rank q-quantile of a non-empty list."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_q(n, top=0.99):
    """`top` when at least 10 of n samples lie beyond it, else the highest
    percentile that keeps 10 beyond it."""
    for q in (0.99, 0.98, 0.95, 0.9, 0.8, 0.5):
        if q <= top and n * (1.0 - q) >= 10 - 1e-9:
            return q
    return 0.5


def host_facts():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            commit = result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as source:
                        digest.update(source.read())
    return {"nproc": os.cpu_count(), "cpu_model": model, "commit": commit,
            "source_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# Reading the load generator's and the daemon's outputs


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def load_run(out_dir):
    samples = read_csv(os.path.join(out_dir, "samples.csv"))
    for s in samples:
        for key in ("phase", "segment", "lane", "status", "due_ns", "start_ns", "end_ns",
                    "records"):
            s[key] = int(s[key])
    segments = read_csv(os.path.join(out_dir, "segments.csv"))
    for g in segments:
        for key in ("segment", "phase", "interleaved", "start_ns", "daemon_cpu_ns"):
            g[key] = int(g[key])
    with open(os.path.join(out_dir, "checks.json")) as handle:
        info = json.load(handle)
    return samples, segments, info


def metrics_delta(out_dir, phase):
    with open(os.path.join(out_dir, f"metrics_{phase}_before.json")) as handle:
        before = json.load(handle)
    with open(os.path.join(out_dir, f"metrics_{phase}_after.json")) as handle:
        after = json.load(handle)

    def counter(name):
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def hist_mean_us(name):
        a = after["histograms"].get(name, {"count": 0, "sum": 0.0})
        b = before["histograms"].get(name, {"count": 0, "sum": 0.0})
        count = a["count"] - b["count"]
        return (a["sum"] - b["sum"]) / count * 1e6 if count > 0 else 0.0

    def gauge(name):
        value = after["gauges"].get(name, 0)
        return value["value"] if isinstance(value, dict) else value

    return counter, hist_mean_us, gauge


INGEST = ("ingest_records_per_s", "ingest_p50_ms", "ingest_p90_ms", "cpu_ns_per_record")


def end_to_end(samples, segments):
    """End-to-end metrics of `segments` and the requests `samples` sent in
    them.  Each metric is computed per segment; returns, per metric, the
    quartile of the segments on its better side (as reported) and their
    median, and each segment's sample counts."""
    by_segment = {g["segment"]: [] for g in segments}
    for s in samples:
        if s["segment"] in by_segment:
            by_segment[s["segment"]].append(s)
    measured, counts = [], []
    for g in segments:
        mine = by_segment[g["segment"]]
        end_ns = max((s["end_ns"] for s in mine), default=g["start_ns"] + 1)
        metrics, segment_counts = summary(mine, (end_ns - g["start_ns"]) / 1e9,
                                          g["daemon_cpu_ns"])
        measured.append(metrics)
        counts.append(segment_counts)
    result, median = {}, {}
    for name, (_, unit) in measured[0].items():
        values = [m[name][0] for m in measured]
        result[name] = (percentile(values, 0.75 if name in HIGHER else 0.25), unit)
        median[name] = statistics.median(values)
    return result, median, counts


def summary(mine, seconds, cpu_ns):
    """Metrics of the requests `mine`, sent over `seconds` during which
    the daemon used `cpu_ns` of CPU, and their sample counts."""
    ingest = [s for s in mine if s["kind"] == "i"]
    assess = [s for s in mine if s["kind"] == "a"]
    ok_ingest = [s for s in ingest if s["status"] == 200]
    ok_assess = [s for s in assess if s["status"] == 200]

    def latencies(group, scale):
        # Timed from the connect (an open-loop probe from its actual
        # send); a failed request counts as the whole segment long.
        return [(s["end_ns"] - s["start_ns"]) / scale
                if s["status"] == 200 else seconds * 1e9 / scale for s in group]

    records = sum(s["records"] for s in ok_ingest)
    ingest_ms = latencies(ingest, 1e6) or [0.0]
    assess_us = latencies(assess, 1e3) or [0.0]
    q_ingest, q_assess = tail_q(len(ingest_ms), TAIL), tail_q(len(assess_us), TAIL)
    metrics = {
        "ingest_records_per_s": (records / seconds, "records/s"),
        "ingest_p50_ms": (percentile(ingest_ms, 0.5), "ms"),
        "ingest_p90_ms": (percentile(ingest_ms, q_ingest), "ms"),
        "assess_p50_us": (percentile(assess_us, 0.5), "us"),
        "assess_p90_us": (percentile(assess_us, q_assess), "us"),
        "assess_per_s": (len(ok_assess) / seconds, "req/s"),
        "cpu_ns_per_record": (cpu_ns / max(records, 1), "ns"),
        "cpu_us_per_assess": (cpu_ns / 1e3 / max(len(ok_assess), 1), "us"),
    }
    counts = {"ingest": (len(ingest), q_ingest), "assess": (len(assess), q_assess)}
    return metrics, counts


def per_layer(samples, start_ns, end_ns, out_dir, spans_path, workload):
    """Per-layer metrics of the measured phase, whose traced slices the
    daemon's spans cover; requests are joined to spans by id."""
    with open(spans_path) as handle:
        header = dict(field.split("=") for field in handle.readline()[1:].split())
        spans = {int(r["id"]): r for r in csv.DictReader(handle)}
    epoch, slice_ns = int(header["epoch_ns"]), int(header["slice_ns"])

    def traced_at(t):
        return t >= epoch and (t - epoch) // slice_ns % 2 == 0

    # Traced and untraced time within the phase, slice by slice.
    on_ns = off_ns = 0
    t = start_ns
    while t < end_ns:
        boundary = min(end_ns, epoch + ((t - epoch) // slice_ns + 1) * slice_ns)
        if traced_at(t):
            on_ns += boundary - t
        else:
            off_ns += boundary - t
        t = boundary
    traced, _ = summary([s for s in samples if traced_at(s["start_ns"])], on_ns / 1e9, 0)
    untraced, _ = summary([s for s in samples if not traced_at(s["start_ns"])],
                          off_ns / 1e9, 0)
    lag = [(s["start_ns"] - s["due_ns"]) / 1e6 for s in samples if s["lane"] == 0]
    clients = {int(s["id"]): s for s in samples if s["status"] == 200}
    replayed = {int(r["id"]): r for r in read_csv(os.path.join(out_dir, "replay.csv"))}
    counter, hist_mean_us, gauge = metrics_delta(out_dir, MEASURED)

    handler = {"i": [], "a": []}
    handler_cpu = []
    wait = {"i": [], "a": []}
    ratio = {"i": [], "a": []}
    pairs = {"i": ([], []), "a": ([], [])}  # (handler us, replayed us)
    busy_ns = 0
    pending_max = 0
    for rid, span in spans.items():
        if not start_ns <= int(span["start_ns"]) <= end_ns:
            continue
        kind, wall = span["kind"], int(span["wall_ns"])
        busy_ns += wall
        pending_max = max(pending_max, int(span["gate_pending"]))
        handler[kind].append(wall / 1e3)
        if kind == "i":
            handler_cpu.append(int(span["cpu_ns"]) / 1e3)
        client = clients.get(rid)
        if client is not None:
            wait[kind].append((client["end_ns"] - client["start_ns"] - wall) / 1e3)
        rep = replayed.get(rid)
        if rep is not None and wall > 0:
            if kind == "i":
                layers = int(rep["parse_ns"]) + int(rep["ingest_ns"]) + int(rep["observe_ns"])
            else:
                layers = int(rep["page_ns"])
            ratio[kind].append(layers / wall)
            pairs[kind][0].append(wall / 1e3)
            pairs[kind][1].append(layers / 1e3)

    rows = list(replayed.values())
    ing = [r for r in rows if r["kind"] == "i"]
    ass = [r for r in rows if r["kind"] == "a"]
    clear = [r for r in ass if r["state"] == "c"]
    n_records = sum(int(r["records"]) for r in ing)
    ladders = sum(int(r["ladders"]) for r in ing)

    def total(group, key):
        return sum(int(r[key]) for r in group)

    def med(values):
        return statistics.median(values) if values else 0.0

    def p99(values):
        return percentile(values, tail_q(len(values))) if values else 0.0

    def share(hits, lookups):
        return hits / lookups if lookups else 1.0  # no lookup, nothing missed

    assess_http = counter("hpr_assess_http_requests_total")
    records_http = counter("hpr_ingest_http_accepted_records_total")
    cal_hits = counter("hpr_calibration_cache_hits_total")
    cal_misses = counter("hpr_calibration_cache_misses_total")
    ref_hits = counter("hpr_refmodel_cache_hits_total")
    ref_misses = counter("hpr_refmodel_cache_misses_total")
    name, higher_better = PRIMARY[workload]
    base, now = untraced[name][0], traced[name][0]  # interleaved slices
    overhead = (base - now) / base if higher_better else (now - base) / base

    metrics = {
        "net.handler_us.ingest.p50": (med(handler["i"]), "us"),
        "net.handler_us.ingest.p99": (p99(handler["i"]), "us"),
        "net.handler_us.assess.p50": (med(handler["a"]), "us"),
        "net.handler_us.assess.p99": (p99(handler["a"]), "us"),
        "net.handler_cpu_us.ingest": (med(handler_cpu), "us"),
        "net.loop_busy_share": (busy_ns / max(on_ns, 1), "share"),
        "net.wait_us.assess.p50": (med(wait["a"]), "us"),
        "net.wait_us.assess.p99": (p99(wait["a"]), "us"),
        "net.wait_us.ingest.p50": (med(wait["i"]), "us"),
        "net.wait_us.ingest.p99": (p99(wait["i"]), "us"),
        "net.parse_ns_per_record": (total(ing, "parse_ns") / max(n_records, 1), "ns"),
        "net.gate_shed": (counter("hpr_ingest_gate_shed_soft_total")
                          + counter("hpr_ingest_gate_shed_hard_total")
                          + counter("hpr_ingest_gate_shed_overflow_total"), "count"),
        "net.gate_pending_max": (pending_max, "records"),
        "repsys.ingest_batch_ns_per_record":
            (total(ing, "ingest_ns") / max(n_records, 1), "ns"),
        "repsys.shard_contention": (counter("hpr_store_shard_contention_total"), "count"),
        "repsys.history_snapshot_us": (total(clear, "snapshot_ns") / 1e3 / max(len(clear), 1), "us"),
        "repsys.trust_eval_us": (total(clear, "eval_ns") / 1e3 / max(len(clear), 1), "us"),
        "serve.observe_ns_per_record": (total(ing, "observe_ns") / max(n_records, 1), "ns"),
        "serve.screener_bytes": (gauge("hpr_serving_screener_bytes"), "bytes"),
        "serve.assess_us": (total(ass, "assess_ns") / 1e3 / max(len(ass), 1), "us"),
        "serve.shortcut_share":
            (sum(r["state"] == "s" for r in ass) / max(len(ass), 1), "share"),
        "core.evaluations_per_kilorecord":
            (counter("hpr_screener_evaluations_total") / max(records_http, 1) * 1e3, "count"),
        "core.ladder_us": (total(ing, "ladder_ns") / 1e3 / max(ladders, 1), "us"),
        "core.phase1_us": (hist_mean_us("hpr_assess_phase1_seconds"), "us"),
        "core.phase2_us": (hist_mean_us("hpr_assess_phase2_seconds"), "us"),
        "stats.calibration_hit_share": (share(cal_hits, cal_hits + cal_misses), "share"),
        "stats.calibration_misses": (cal_misses, "count"),
        "stats.refmodel_hit_share": (share(ref_hits, ref_hits + ref_misses), "share"),
        "stats.refmodel_evictions": (counter("hpr_refmodel_cache_evictions_total"), "count"),
        "obs.recorder_sample_us": (hist_mean_us("hpr_flightrecorder_sample_seconds"), "us"),
        "obs.trace_records_per_assess":
            (counter("hpr_trace_records_total") / max(assess_http, 1), "count"),
        "loadgen.lag_p99_ms": (p99(lag), "ms"),
        "trace.overhead_share": (overhead, "share"),
        "trace.reconcile_ratio.ingest": (med(ratio["i"]), "ratio"),
        "trace.reconcile_ratio.assess": (med(ratio["a"]), "ratio"),
    }
    return metrics, pairs


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = build()
    out_dir = os.path.join(build_dir, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spans_path = os.path.join(out_dir, "spans.csv") if args.trace else None

    daemon = None
    try:
        setups = []
        for i in range(SETUPS):
            daemon, port, seconds = launch_daemon(
                build_dir, spans_path if i == SETUPS - 1 else None)
            setups.append(seconds)
            if i < SETUPS - 1:
                code, _ = stop_daemon(daemon)
                daemon = None
                if code != 0:
                    fail(f"daemon exited with {code} after set-up")
        daemon_cpu, lane_cpus = cpu_plan()
        if daemon_cpu is not None:
            pin_process(daemon.pid, daemon_cpu)
        loadgen = [os.path.join(build_dir, "servebench_loadgen"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--port", str(port),
                   "--daemon-pid", str(daemon.pid), "--trace", str(args.trace),
                   "--out", out_dir]
        if lane_cpus:
            loadgen += ["--cpus", ",".join(str(c) for c in lane_cpus)]
        result = subprocess.run(loadgen, timeout=150)
        if result.returncode != 0:
            fail(f"load generator exited with {result.returncode}")
        code, daemon_out = stop_daemon(daemon)
        daemon = None
        if code != 0 or "daemon: drained" not in daemon_out:
            fail(f"daemon did not drain cleanly (exit {code})")
    finally:
        if daemon is not None:
            daemon.kill()
            daemon.wait()

    samples, segments, info = load_run(out_dir)
    measured = [s for s in samples if s["phase"] == MEASURED]
    measured_segments = [g for g in segments if g["phase"] == MEASURED]
    own_segments = [g for g in measured_segments if not g["interleaved"]]
    other_segments = [g for g in measured_segments if g["interleaved"]]
    checks = [(c["name"], c["ok"], c["detail"]) for c in info["checks"]]
    e2e, raw, counts = end_to_end(measured, own_segments)
    ingest_counts = counts
    if other_segments:
        # The workload's own load only reads; its ingest figures describe
        # the interleaved ingest load's segments.
        ingest, ingest_raw, ingest_counts = end_to_end(measured, other_segments)
        for name in INGEST:
            e2e[name], raw[name] = ingest[name], ingest_raw[name]
    attempted = len(samples)
    failed = sum(1 for s in samples if s["status"] != 200)
    lag = [(s["start_ns"] - s["due_ns"]) / 1e6 for s in measured if s["lane"] == 0]
    e2e["rss_mb"] = (info["peak_rss_kb"] / 1024.0, "MiB")
    e2e["setup_s"] = (statistics.median(setups), "s")
    raw["rss_mb"], raw["setup_s"] = e2e["rss_mb"][0], e2e["setup_s"][0]

    nproc = os.cpu_count() or 1
    threads = info["threads"]
    checks.append(("no_failed_requests", failed == 0,
                   f"{failed} of {attempted} requests failed or were refused"))
    checks.append(("thread_budget", threads + 1 <= nproc,
                   f"load generator {threads} threads + 1 event loop vs nproc {nproc}"))
    lag_p99 = percentile(lag, tail_q(len(lag))) if lag else 0.0
    max_inflight = info["max_inflight"]
    checks.append(("generator_on_schedule",
                   lag_p99 <= LAG_P99_LIMIT_MS and max_inflight <= MAX_INFLIGHT,
                   f"open-loop probe lane lag p99 {lag_p99:.3f} ms "
                   f"(limit {LAG_P99_LIMIT_MS}), max in flight {max_inflight} "
                   f"(limit {MAX_INFLIGHT})"))
    checks.append(("memory_read", info["peak_rss_kb"] > 0,
                   "daemon peak memory read at its fixed data volume"))
    counter, _, _ = metrics_delta(out_dir, MEASURED)
    misses = counter("hpr_calibration_cache_misses_total")
    checks.append(("calibration_covered", misses == 0,
                   f"{misses} Monte-Carlo calibration misses while measuring"))

    if args.trace:
        metrics, pairs = per_layer(measured, measured_segments[0]["start_ns"],
                                   max(s["end_ns"] for s in measured), out_dir,
                                   spans_path, args.workload)
        metrics["loadgen.threads"] = (threads, "count")
        for kind, label in (("i", "ingest"), ("a", "assess")):
            handler_us, replayed_us = pairs[kind]
            if handler_us:
                h, r = statistics.median(handler_us), statistics.median(replayed_us)
                allowed = max(RECONCILE_SHARE * h, RECONCILE_FLOOR_US)
                checks.append((f"reconciled_{label}", abs(h - r) <= allowed,
                               f"median handler {h:.1f} us, replayed layers {r:.1f} us "
                               f"over {len(handler_us)} requests (allowed gap "
                               f"{allowed:.1f} us)"))
    else:
        metrics = e2e

    facts = host_facts()
    print(f"servebench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"host: nproc={facts['nproc']} cpu={facts['cpu_model']!r} "
          f"commit={facts['commit']} source_sha256={facts['source_sha256']}")
    print(f"load generator: {threads} threads ({info['closed_loop_clients']} "
          f"closed-loop clients + 1 open-loop lane), max {max_inflight} open-loop "
          f"connections in flight; lag p99 {lag_p99:.3f} ms")
    for kind, kind_counts in (("ingest", ingest_counts), ("assess", counts)):
        print(f"{kind} samples per segment: "
              + ", ".join(f"n={n} (tail = p{q * 100:g})"
                          for n, q in (c[kind] for c in kind_counts)))
    print(f"setups {', '.join(f'{s:.3f}' for s in setups)} s")
    if args.trace:
        print("end-to-end, traced and untraced slices together (not the result), "
              "better-side quartile of segments (median of segments):")
    else:
        print("end-to-end, better-side quartile of segments (median of segments):")
    for name, (value, unit) in e2e.items():
        print(f"  {name:36s} {value:14.4f} {unit:10s} ({raw[name]:.4f})")
    if args.trace:
        print("per-layer:")
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:14.4f} {unit}")
        claim, holds = PREDICTIONS[args.workload]
        values = {name: value for name, (value, _) in metrics.items()}
        print(f"prediction: {claim}: {'holds' if holds(values) else 'DOES NOT HOLD'}")
    correct = True
    for name, ok, detail in checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'} - {detail}")
        correct = correct and ok
    if os.environ.get("SERVEBENCH_KEEP") != "1":
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
