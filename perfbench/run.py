#!/usr/bin/env python3
"""Repo benchmark for the live ccKVS rack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/rack_bench from the
repository sources (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs one workload on a single-process
4-node LiveRack.  Every rack run is a fresh child process under a wall-clock
deadline, one at a time.

--trace 0: an untimed correctness pass (recorded history through the per-key
SC/Lin and write-atomicity checkers), then timed runs until S seconds of
Run() time are measured; prints the end-to-end metrics.
--trace 1: an untraced and a traced run of identical length, the isolated
layer timings, and the trace folded into trace.* metrics; prints the
per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it is the run's provenance; raw child
results and kept stall dumps go under the build directory's runs/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-workload sizing.  ops: per-node quota of one timed rack run (2-3 s of
# Run() on a 4-core host); setup_reps: rack constructions timed per child
# (more where set-up is short and noisy); history_ops: per-node quota of the
# untimed correctness pass.
WORKLOADS = {
    "read_zipf": {"ops": 2_500_000, "setup_reps": 1, "history_ops": 150_000},
    "lin_write": {"ops": 1_500_000, "setup_reps": 1, "history_ops": 100_000},
    "skew_l1": {"ops": 5_000_000, "setup_reps": 9, "history_ops": 150_000},
    "drift_epochs": {"ops": 2_000_000, "setup_reps": 1, "history_ops": 150_000},
}
NODES = 4  # every workload runs a 4-node rack (rack_bench MakeWorkload)
MIN_TIMED_RUNS = 5
MAX_TIMED_RUNS = 10
CHILD_DEADLINE_S = 40.0   # a rack run past this is a stall: killed, counted failed
LAUNCH_CUTOFF_S = 110.0   # no new timed run after this much wall time

_current = None  # the running child, so a signal can stop it


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def call(cmd, timeout=None, **kwargs):
    """Runs cmd in its own process group until it exits or `timeout` passes,
    then kills the whole group.  Returns (finished Popen, stdout, timed_out).
    While it runs, a signal to this script stops the group too."""
    global _current
    _current = subprocess.Popen(cmd, text=True, start_new_session=True, **kwargs)
    try:
        out, _ = _current.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        os.killpg(_current.pid, signal.SIGKILL)
        out, _ = _current.communicate()
        timed_out = True
    proc, _current = _current, None
    return proc, out, timed_out


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "live_rack.h")):
        fail(f"repository sources not found under {ROOT}/src")
    os.makedirs(out, exist_ok=True)
    logf = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "rack_bench"])
    with open(logf, "a") as f:
        for cmd in steps:
            if call(cmd, stdout=f, stderr=subprocess.STDOUT)[0].returncode != 0:
                with open(logf) as g:
                    log("".join(g.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "rack_bench")


def provenance(out, seed):
    cache = {}
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
        compiler = f"{compiler} ({version})"
    except (OSError, IndexError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": compiler, "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_sha": sha}


def remove_shm(pid):
    """A killed shm rack cannot unlink its own region; rack_bench names it
    after its pid."""
    shm = f"/dev/shm/cckvs_perfbench_{pid}"
    if os.path.exists(shm):
        os.unlink(shm)


def run_child(cmd, tag, runs_dir, deadline=CHILD_DEADLINE_S):
    """Runs one child to completion or to its deadline.

    Returns (result dict or None, note).  A child past the deadline is killed
    and its CCKVS_DEBUG_STATE dump is kept in runs_dir; a healthy child's
    stderr is discarded."""
    err_path = os.path.join(runs_dir, tag + ".stderr")
    env = dict(os.environ, CCKVS_DEBUG_STATE="1")
    with open(err_path, "w") as err:
        proc, stdout, timed_out = call(cmd, timeout=deadline, stdout=subprocess.PIPE,
                                       stderr=err, env=env)
    remove_shm(proc.pid)
    rc = proc.returncode
    if timed_out:
        return None, f"stall: killed after {deadline:.0f} s, state dump kept in {err_path}"
    if rc != 0:
        return None, f"exit code {rc}, stderr in {err_path}"
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if not lines:
        return None, f"no result line, stderr in {err_path}"
    os.unlink(err_path)
    return json.loads(lines[-1]), ""


def rack_cmd(binary, workload, seed, ops, *extra):
    return [binary, "rack", "--workload", workload, "--seed", str(seed),
            "--ops-per-node", str(ops), *extra]


class Tally:
    """Ops attempted and ops in failed runs, over every rack child of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def rack(self, res, note, ops, what):
        self.attempted += ops
        if res is None or not res["ok"]:
            self.failed += ops
            self.notes.append(f"{what}: {note or res['violations']}")
            return False
        return True


def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(binary, workload, seed, seconds, runs_dir, tally):
    """Correctness pass, then timed runs; returns (metrics, raw results)."""
    cfg = WORKLOADS[workload]
    started = time.monotonic()
    res, note = run_child(rack_cmd(binary, workload, seed, cfg["history_ops"], "--history"),
                          f"{workload}-{seed}-history", runs_dir)
    tally.rack(res, note, cfg["history_ops"] * NODES, "correctness pass")

    runs = []
    measured = 0.0
    while len(runs) < MAX_TIMED_RUNS and (len(runs) < MIN_TIMED_RUNS or measured < seconds):
        if time.monotonic() - started > LAUNCH_CUTOFF_S:
            break  # keeps a slow program inside the per-run time limit
        i = len(runs)
        res, note = run_child(
            rack_cmd(binary, workload, seed, cfg["ops"], "--setup-reps", str(cfg["setup_reps"])),
            f"{workload}-{seed}-timed{i}", runs_dir)
        runs.append(res)
        if tally.rack(res, note, cfg["ops"] * NODES, f"timed run {i}"):
            measured += res["wall_s"]
    good = [r for r in runs if r is not None and r["ok"]]
    metrics = {
        "throughput_mops": (median([r["mops"] for r in good]), "Mops/s"),
        "latency_p50_us": (median([r["p50_us"] for r in good]), "us"),
        "latency_p99_us": (median([r["p99_us"] for r in good]), "us"),
        "setup_s": (median([s for r in good for s in r["setup_s"]]), "s"),
        "peak_rss_mb": (median([r["peak_rss_kb"] / 1024.0 for r in good]), "MB"),
        "ops_ok_frac": (1.0 - ratio(tally.failed, tally.attempted), "frac"),
    }
    extra = {"latency_samples_per_run": [r["completed"] for r in good],
             "timed_runs": runs}
    return metrics, extra


def load_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for e in events:
        if e.get("ph") == "X":
            spans.setdefault(e["name"], []).append(float(e.get("dur", 0.0)))
    return spans


def pct(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1, int(q * (len(sorted_vals) - 1)))]


def trace_metrics(spans, traced, untraced):
    def mean(kind):
        v = spans.get(kind, [])
        return sum(v) / len(v) if v else 0.0

    op_total = sum(spans.get("op", []))

    def share(kind):
        return ratio(sum(spans.get(kind, [])), op_total)

    ops = sorted(spans.get("op", []))
    batch = sorted(spans.get("batch_open", []))
    return {
        "trace.op_p99_us": (pct(ops, 0.99), "us"),
        "trace.overhead_pct": (100.0 * ratio(untraced["mops"] - traced["mops"],
                                             untraced["mops"]), "%"),
        "trace.shard_read_mean_us": (mean("shard_read"), "us"),
        "trace.shard_read_share": (share("shard_read"), "frac"),
        "trace.shard_write_mean_us": (mean("shard_write"), "us"),
        "trace.batch_open_p50_us": (pct(batch, 0.50), "us"),
        "trace.batch_open_p99_us": (pct(batch, 0.99), "us"),
        "trace.credit_wait_share": (share("credit_wait"), "frac"),
        "trace.gated_wait_share": (share("gated_wait"), "frac"),
        "trace.epoch_install_mean_us": (mean("epoch_install"), "us"),
        "trace.barrier_wait_mean_us": (mean("barrier_wait"), "us"),
        "trace.gate_closed_mean_us": (mean("gate_closed"), "us"),
    }


def report_metrics(r):
    """Per-layer ratios folded from one untraced run's LiveReport."""
    mops = r["completed"] / 1e6
    return {
        "cache.hit_rate": (r["hit_rate"], "frac"),
        "l1.hit_frac": (ratio(r["l1_hits"], r["completed"]), "frac"),
        "l1.fills_per_hit": (ratio(r["l1_fills"], r["l1_hits"]), "fill/hit"),
        "epochs.count": (r["epochs"], "count"),
        "epochs.churn": (r["hot_set_churn"], "count"),
        "epochs.msgs_per_mop": (ratio(r["epoch_msgs"], mops), "msg/Mop"),
        "epochs.gate_retries_per_mop": (ratio(r["gate_retries"], mops), "1/Mop"),
        "store.read_retries_per_mop": (ratio(r["store_read_retries"], mops), "1/Mop"),
        "store.bytes_per_user_byte": (ratio(r["slab_arena_bytes"],
                                            r["keyspace"] * r["value_bytes"]), "B/B"),
        "engine.msgs_per_write": (ratio(r["updates_sent"] + r["invalidations_sent"]
                                        + r["acks_sent"], r["writes"]), "msg/write"),
        "coalescer.msgs_per_batch": (ratio(r["channel_messages"], r["channel_batches"]),
                                     "msg/batch"),
        "coalescer.boundary_flush_frac": (
            ratio(r["flushes_boundary"], r["flushes_size"] + r["flushes_boundary"]
                  + r["flushes_idle"] + r["flushes_deadline"]), "frac"),
        "fabric.wakeups_per_batch": (ratio(r["wakeups"], r["channel_batches"]), "1/batch"),
        "fabric.credit_parks_per_mop": (ratio(r["credit_parks"], mops), "1/Mop"),
        "fabric.sc_credit_stalls_per_mop": (ratio(r["sc_credit_stalls"], mops), "1/Mop"),
        "fabric.channel_full_waits": (r["channel_full_waits"], "count"),
        "node.thread_ns_per_op": (ratio(r["num_nodes"] * r["wall_s"] * 1e9, r["completed"]),
                                  "ns"),
    }


# rack_bench layers output keys that are bookkeeping, not metrics.
LAYER_BOOKKEEPING = {"ok", "sink", "wire.batch_msgs"}


def per_layer(binary, workload, seed, runs_dir, tally):
    """Untraced run, isolated layer timings, traced run of the same length."""
    cfg = WORKLOADS[workload]
    ops = cfg["ops"]
    untraced, note = run_child(rack_cmd(binary, workload, seed, ops),
                               f"{workload}-{seed}-untraced", runs_dir)
    ok = tally.rack(untraced, note, ops * NODES, "untraced run")

    batch = round(untraced["batch_mean"]) if ok else 1
    layers, note = run_child([binary, "layers", "--workload", workload, "--seed", str(seed),
                              "--batch", str(max(1, batch))],
                             f"{workload}-{seed}-layers", runs_dir)
    if layers is None or not layers["ok"]:
        tally.notes.append(f"layer timings: {note or 'wire codec round trip failed'}")
        layers = None

    trace_path = os.path.join(runs_dir, f"{workload}-{seed}.trace.json")
    traced, note = run_child(rack_cmd(binary, workload, seed, ops, "--trace", trace_path),
                             f"{workload}-{seed}-traced", runs_dir)
    ok = tally.rack(traced, note, ops * NODES, "traced run") and ok
    checked = False
    if traced is not None and traced["ok"]:
        if traced["trace_error"]:
            tally.notes.append(f"trace export: {traced['trace_error']}")
        else:
            proc, report, _ = call([sys.executable,
                                    os.path.join(ROOT, "tools", "trace_report.py"),
                                    "--check", trace_path], stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT)
            checked = proc.returncode == 0
            if not checked:
                tally.notes.append("trace_report.py --check: " + report.strip()[:500])

    metrics = {}
    if layers is not None:
        for name, value in layers.items():
            if name not in LAYER_BOOKKEEPING:
                metrics[name] = (value, "ns")
    if ok:
        metrics.update(report_metrics(untraced))
    if checked:
        metrics.update(trace_metrics(load_trace(trace_path), traced, untraced))
        os.unlink(trace_path)
    correct = layers is not None and ok and checked
    return metrics, correct, {"untraced": untraced, "traced": traced, "layers": layers}


def stop_child(signum, _frame):
    if _current is not None and _current.poll() is None:
        os.killpg(_current.pid, signal.SIGKILL)
        _current.wait()
        remove_shm(_current.pid)
    sys.exit(128 + signum)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)

    out = build_dir()
    binary = build(out)
    runs_dir = os.path.join(out, "runs")
    os.makedirs(runs_dir, exist_ok=True)

    tally = Tally()
    if args.trace:
        metrics, correct, raw = per_layer(binary, args.workload, args.seed, runs_dir, tally)
    else:
        metrics, raw = end_to_end(binary, args.workload, args.seed, args.seconds, runs_dir,
                                  tally)
        correct = True
    correct = correct and tally.failed == 0 and not tally.notes

    prov = provenance(out, args.seed)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "trace": args.trace, "provenance": prov,
              "correct": correct, "notes": tally.notes, "raw": raw, "metrics": metrics}
    with open(os.path.join(runs_dir, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    for note in tally.notes:
        log(f"perfbench: {note}")
    print("provenance: " + json.dumps(prov))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
