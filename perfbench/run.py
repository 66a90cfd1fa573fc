#!/usr/bin/env python3
"""ftnav campaign benchmark.

Runs one workload (a batch fault-injection campaign through the
scenario registry's public run()) and prints every metric by name with
its unit. The last stdout line is one JSON object:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-train --seed 42 --seconds 50 --trace 0
    python3 perfbench/run.py --workload grid-train --seed 42 --seconds 50 --trace 1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare old.json new.json

--trace 0 measures the end-to-end metrics: fresh-process scenario runs
are repeated for about --seconds seconds and each metric is the median
over the runs. --trace 1 measures the per-layer metrics: one untraced
run, one run with FTNAV_TRACE_DIR set, and one layer-probe process that
replays a sample of the workload's own work under trace spans.

The program is built from source on first use (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). See
perfbench/README.md for the workload, metric and layer tables.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCES = BENCH / "references.json"
CHILD_TIMEOUT_S = 150.0
POOL_BASE_SEED = 42
SEED_STRIDE = 1000003

# Each workload is one scenario with fixed parameters. A run makes whole
# passes over a pool of `pool` scenario seeds, every one with a
# committed reference digest (see pass_order). `smoke` is the tiny scale
# the self-test runs; its pool is the single seed POOL_BASE_SEED.
WORKLOADS = {
    "grid-train": {
        "scenario": "grid-training-transient",
        "params": {"policy": "nn", "episodes": "500",
                   "bers": "0.001,0.003,0.005,0.01",
                   "injection-episodes": "0,166,333,499", "repeats": "1"},
        "pool": 5,
        "smoke": {"policy": "nn", "episodes": "40", "bers": "0.005,0.01",
                  "injection-episodes": "0,20", "repeats": "1"},
    },
    "drone-faults": {
        "scenario": "drone-fault-locations",
        "params": {"world": "indoor-long", "repeats": "30"},
        "pool": 16,
        "smoke": {"world": "indoor-long", "bers": "0,0.001", "repeats": "2",
                  "imitation-episodes": "1", "ddqn-episodes": "1",
                  "env-max-steps": "40"},
    },
}

# (name, unit, better)
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("digest_match_frac", "frac", "higher"),
]

KERNEL_LAYERS = ["conv1", "conv2", "conv3", "fc1", "fc2"]

# (name, unit, better). Work counts are fixed by the workload and seed;
# "higher" there only records that they count work done.
PER_LAYER = [
    ("rl.mlp_episode_ms", "ms", "lower"),
    ("rl.mlp_episodes", "count", "higher"),
    ("fixed.encode_ns_per_word", "ns", "lower"),
    ("fixed.decode_ns_per_word", "ns", "lower"),
    ("nn.mlp_fwd_us", "us", "lower"),
    ("nn.mlp_bwd_us", "us", "lower"),
    ("experiments.policy_train_s", "s", "lower"),
    ("rl.imitation_s", "s", "lower"),
    ("rl.ddqn_episode_ms", "ms", "lower"),
    ("rl.ddqn_grad_steps", "count", "higher"),
    ("nn.float_fwd_us", "us", "lower"),
    ("nn.float_bwd_us", "us", "lower"),
    ("nn.float_gmacs", "GMAC/s", "higher"),
    ("nn.engine_build_us", "us", "lower"),
    ("nn.engine_builds", "count", "lower"),
    ("nn.mlp_infer_us", "us", "lower"),
    ("core.fault_sample_us", "us", "lower"),
    ("core.inject_us", "us", "lower"),
    ("core.restore_us", "us", "lower"),
    ("core.bits_flipped", "count", "higher"),
    ("core.detector_hits", "count", "higher"),
    ("envs.grid_step_ns", "ns", "lower"),
    ("envs.grid_steps", "count", "higher"),
    ("nn.c3f2_infer_us", "us", "lower"),
    ("nn.c3f2_infer_gmacs", "GMAC/s", "higher"),
] + [
    (f"nn.kernels.{layer}_{what}", unit, better)
    for layer in KERNEL_LAYERS
    for what, unit, better in (("us", "us", "lower"),
                               ("gmacs", "GMAC/s", "higher"),
                               ("gbps", "GB/s", "higher"))
] + [
    ("fixed.quantize_ns_per_word", "ns", "lower"),
    ("envs.drone_render_us", "us", "lower"),
    ("envs.drone_step_us", "us", "lower"),
    ("envs.drone_steps", "count", "higher"),
    ("campaign.shard_busy_s", "s", "lower"),
    ("campaign.shard_straggler_ratio", "ratio", "lower"),
    ("campaign.thread_busy_frac", "frac", "higher"),
    ("campaign.merge_s", "s", "lower"),
    ("campaign.overhead_us_per_trial", "us", "lower"),
    ("scenario.bind_ms", "ms", "lower"),
    ("scenario.export_ms", "ms", "lower"),
    ("cost.abs_log_pred_err", "ln", "lower"),
    ("obs.trace_overhead_frac", "frac", "lower"),
    ("obs.span_coverage_frac", "frac", "higher"),
]

# Probe groups whose direct children are layer spans (obs.span_coverage_frac).
COVERAGE_ROOTS = ("probe.mlp", "probe.grid_trials", "probe.drone")


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# ---- environment, build, code identity ------------------------------------

def clean_env(extra=None):
    """The inherited environment minus every FTNAV_* knob, plus `extra`
    (only the traced runs' FTNAV_TRACE_DIR).

    A stray FTNAV_SIMD / FTNAV_TRIAL_BATCH / FTNAV_TRACE_DIR /
    FTNAV_REPEATS must not change the measured program, and tracing must
    never leak into untraced runs. Returns (env, cleared names)."""
    cleared = sorted(k for k in os.environ if k.startswith("FTNAV_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("FTNAV_")}
    env.update(extra or {})
    return env, cleared


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures and builds ftnav_perfbench; returns the binary path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    env, _ = clean_env()
    log_path = out / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        steps.append(["cmake", "--build", str(out), "--target",
                      "ftnav_perfbench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env, cwd=ROOT).returncode != 0:
                tail = log_path.read_text(errors="replace")[-4000:]
                sys.stderr.write(tail)
                raise BenchError(f"build failed: {' '.join(step)}")
    return out / "ftnav_perfbench"


def code_identity():
    """git sha when the tree is a git checkout, else a digest of the
    sources the benchmark builds (src/ and perfbench/)."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git-" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def thread_count():
    return min(4, len(os.sched_getaffinity(0)))


# ---- one child process -----------------------------------------------------

def spawn(cmd, env, out_dir):
    """Runs one ftnav_perfbench process; returns (exit code, rusage).

    stdout/stderr go to files in out_dir; the child is killed after
    CHILD_TIMEOUT_S and always reaped before this returns."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "child.out", "wb") as out, \
            open(out_dir / "child.err", "wb") as err:
        stamp = time.monotonic()  # the child's steady clock (CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd + ["--spawn-stamp", repr(stamp)],
                                env=env, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def child_cmd(binary, command, workload, params, out_dir, threads):
    cmd = [str(binary), command, "--scenario", workload["scenario"],
           "--threads", str(threads), "--out", str(out_dir)]
    for key, value in params.items():
        cmd += ["--param", f"{key}={value}"]
    return cmd


def output_digest(out_dir):
    """SHA-256 of the scenario's stdout plus its JSON artifacts."""
    digest = hashlib.sha256()
    digest.update((out_dir / "stdout.txt").read_bytes())
    digest.update((out_dir / "artifacts.json").read_bytes())
    return digest.hexdigest()


def scenario_run(binary, workload, params, out_dir, threads, extra_env=None):
    """One fresh-process scenario run; returns an iteration dict."""
    env, _ = clean_env(extra_env)
    code, usage = spawn(child_cmd(binary, "run", workload, params, out_dir,
                                  threads), env, out_dir)
    if code != 0:
        err = (out_dir / "child.err").read_text(errors="replace")[-2000:]
        return {"ok": False, "error": f"exit {code}: {err.strip()}"}
    record = json.loads((out_dir / "record.json").read_text())
    sections = record["sections"]
    if sections:
        trial_s = sum(s["seconds"] for s in sections)
        trials = sum(s["ops"] for s in sections)
    else:  # no perf section: the whole run() is the trial grid
        trial_s = record["t_ran"] - record["t_bound"]
        trials = record["cost_trials"]
    wall = record["t_exported"] - record["t_spawn"]
    return {
        "ok": True,
        "record": record,
        "digest": output_digest(out_dir),
        "out_dir": out_dir,
        "trial_s": trial_s,
        "values": {
            "wall_s": wall,
            "setup_s": wall - trial_s,
            "trials_per_s": trials / trial_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            # VmHWM from the child: ru_maxrss would count the forked
            # Python image that precedes the exec.
            "peak_rss_mb": record["peak_rss_mb"] or usage.ru_maxrss / 1024.0,
        },
    }


# ---- correctness -----------------------------------------------------------

def digest_error(workload_name, params_canonical, digest):
    """None when `digest` equals the committed reference for the
    workload's canonical params, else why it is wrong. Every pool seed
    has a reference, so a missing one is an error too: no run is judged
    only against itself."""
    references = json.loads(REFERENCES.read_text()).get(workload_name, {})
    expected = references.get(params_canonical)
    if expected is None:
        return f"no committed reference for {params_canonical}"
    if digest != expected:
        return f"output digest differs from the reference: {params_canonical}"
    return None


# ---- trace analysis --------------------------------------------------------

def load_spans(trace_path):
    """Parses a Chrome trace into completed spans.

    Returns (spans, balanced). Each span is a dict with name, cat,
    start and end (seconds), n (the span's "n" arg, else 1) and self
    (duration minus its direct children on the same thread). balanced
    is False when any thread's B/E events do not pair up."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    stacks = {}
    spans = []
    balanced = True
    for event in events:
        lane = (event["pid"], event["tid"])
        stack = stacks.setdefault(lane, [])
        if event["ph"] == "B":
            stack.append({"name": event["name"], "cat": event["cat"],
                          "start": event["ts"] * 1e-6,
                          "n": event.get("args", {}).get("n", 1),
                          "child_s": 0.0})
        elif event["ph"] == "E":
            if not stack or stack[-1]["name"] != event["name"]:
                balanced = False
                continue
            span = stack.pop()
            span["end"] = event["ts"] * 1e-6
            duration = span["end"] - span["start"]
            span["self"] = duration - span.pop("child_s")
            if stack:
                stack[-1]["child_s"] += duration
            spans.append(span)
    if any(stacks.values()):
        balanced = False
    return spans, balanced


def trace_file(trace_dir):
    files = sorted(Path(trace_dir).glob("trace.*.json"))
    if len(files) != 1:
        raise BenchError(f"expected one trace file in {trace_dir}, "
                         f"found {len(files)}")
    return files[0]


def aggregate(spans):
    totals = {}
    for span in spans:
        entry = totals.setdefault(span["name"],
                                  {"calls": 0, "incl": 0.0, "self": 0.0})
        entry["calls"] += span["n"]
        entry["incl"] += span["end"] - span["start"]
        entry["self"] += span["self"]
    return totals


def layer_metrics(plain, traced, run_spans, probe_spans, probe, threads):
    """Per-layer metrics from the traced run and the layer probe."""
    totals = aggregate(probe_spans)

    def per_call(name, scale):
        entry = totals.get(name)
        if not entry or entry["calls"] == 0:
            raise BenchError(f"probe recorded no '{name}' span")
        return entry["self"] / entry["calls"] * scale

    def inclusive(name):
        if name not in totals:
            raise BenchError(f"probe recorded no '{name}' span")
        return totals[name]["incl"]

    counts, work = probe["counts"], probe["work"]
    m = {
        "rl.mlp_episode_ms": per_call("rl.mlp_episode", 1e3),
        "rl.mlp_episodes": counts["rl.mlp_episodes"],
        "fixed.encode_ns_per_word": per_call("fixed.encode", 1e9),
        "fixed.decode_ns_per_word": per_call("fixed.decode", 1e9),
        "nn.mlp_fwd_us": per_call("nn.mlp_fwd", 1e6),
        "nn.mlp_bwd_us": per_call("nn.mlp_bwd", 1e6),
        "experiments.policy_train_s": inclusive("experiments.policy_train"),
        "rl.imitation_s": inclusive("rl.imitation"),
        "rl.ddqn_episode_ms": per_call("rl.ddqn_episode", 1e3),
        "rl.ddqn_grad_steps": counts.get("rl.ddqn_grad_steps", 0),
        "nn.float_fwd_us": per_call("nn.float_fwd", 1e6),
        "nn.float_bwd_us": per_call("nn.float_bwd", 1e6),
        "nn.float_gmacs": work["nn.float_fwd.macs"]
        / per_call("nn.float_fwd", 1.0) / 1e9,
        "nn.engine_build_us": per_call("nn.engine_build", 1e6),
        "nn.engine_builds": counts["nn.engine_builds"],
        "nn.mlp_infer_us": per_call("nn.mlp_infer", 1e6),
        "core.fault_sample_us": per_call("core.fault_sample", 1e6),
        "core.inject_us": per_call("core.inject", 1e6),
        "core.restore_us": per_call("core.restore", 1e6),
        "core.bits_flipped": counts["core.bits_flipped"],
        "core.detector_hits": counts["core.detector_hits"],
        "envs.grid_step_ns": per_call("envs.grid_step", 1e9),
        "envs.grid_steps": counts["envs.grid_steps"],
        "nn.c3f2_infer_us": per_call("nn.c3f2_infer", 1e6),
        "nn.c3f2_infer_gmacs": work["nn.c3f2_infer.macs"]
        / per_call("nn.c3f2_infer", 1.0) / 1e9,
        "fixed.quantize_ns_per_word": per_call("fixed.quantize", 1e9),
        "envs.drone_render_us": per_call("envs.drone_observe", 1e6),
        "envs.drone_step_us": per_call("envs.drone_step", 1e6),
        "envs.drone_steps": counts["envs.drone_steps"],
        "campaign.overhead_us_per_trial": per_call("campaign.noop_grid", 1e6),
    }
    for layer in KERNEL_LAYERS:
        seconds = per_call(f"nn.kernels.{layer}", 1.0)
        m[f"nn.kernels.{layer}_us"] = seconds * 1e6
        m[f"nn.kernels.{layer}_gmacs"] = (
            work[f"nn.kernels.{layer}.macs"] / seconds / 1e9)
        m[f"nn.kernels.{layer}_gbps"] = (
            work[f"nn.kernels.{layer}.bytes"] / seconds / 1e9)

    # Campaign layer: the scenario's own shard spans in the traced run.
    shards = [s for s in run_spans if s["name"] == "shard"
              and s["cat"] == "campaign"]
    by_name = {s["name"]: s for s in run_spans if s["cat"] == "bench"}
    if not shards or "scenario.run" not in by_name:
        raise BenchError("traced run recorded no shard / scenario spans")
    durations = [s["end"] - s["start"] for s in shards]
    busy = sum(durations)
    m["campaign.shard_busy_s"] = busy
    m["campaign.shard_straggler_ratio"] = max(durations) / (
        busy / len(durations))
    m["campaign.thread_busy_frac"] = busy / (threads * traced["trial_s"])
    m["campaign.merge_s"] = (by_name["scenario.run"]["end"]
                             - max(s["end"] for s in shards))
    m["scenario.bind_ms"] = (by_name["scenario.bind"]["end"]
                             - by_name["scenario.bind"]["start"]) * 1e3
    m["scenario.export_ms"] = (by_name["scenario.export"]["end"]
                               - by_name["scenario.export"]["start"]) * 1e3

    # The cost model predicts single-thread seconds: compare against
    # set-up plus the summed shard busy time. |ln(predicted/measured)|
    # is 0 for a perfect model and grows with error in either direction.
    measured = traced["values"]["setup_s"] + busy
    m["cost.abs_log_pred_err"] = abs(math.log(
        traced["record"]["cost_total_s"] / measured))
    m["obs.trace_overhead_frac"] = (traced["values"]["wall_s"]
                                    / plain["values"]["wall_s"] - 1.0)

    roots = [s for s in probe_spans if s["name"] in COVERAGE_ROOTS]
    root_s = sum(s["end"] - s["start"] for s in roots)
    child_s = sum(s["end"] - s["start"] - s["self"] for s in roots)
    m["obs.span_coverage_frac"] = child_s / root_s
    return m


# ---- workload runs ---------------------------------------------------------

def pool_seed(index):
    """The index-th seed of a workload's seed pool."""
    return POOL_BASE_SEED + index * SEED_STRIDE


def pass_order(name, seed, smoke):
    """The scenario seeds of one pass over the workload's pool, in the
    order --seed shuffles them to. Every pass of every run covers the
    same campaigns, so a run's median is not at the mercy of which
    campaigns it happened to draw, and every input has a committed
    reference digest."""
    pool = 1 if smoke else WORKLOADS[name]["pool"]
    order = [pool_seed(index) for index in range(pool)]
    random.Random(seed).shuffle(order)
    return order


def workload_params(name, scenario_seed, smoke):
    workload = WORKLOADS[name]
    params = dict(workload["smoke"] if smoke else workload["params"])
    params["seed"] = str(scenario_seed)
    return workload, params


def fingerprint_of(record, code, cleared):
    return {
        "scenario": record["scenario"],
        "params": record["params"],
        "trials": record["cost_trials"],
        "backend": record["backend"],
        "threads": record["threads"],
        "trial_batch": record["trial_batch"],
    }, {"code": code, "env_cleared": cleared}


def measure_untraced(binary, name, seed, seconds, smoke, work_dir):
    """Runs whole passes over the workload's seed pool, one fresh
    process per scenario seed, while another pass fits in `seconds`
    (at least one pass); returns a result."""
    threads = thread_count()
    order = pass_order(name, seed, smoke)
    iterations = []
    started = time.monotonic()
    passes = 0
    while True:
        for scenario_seed in order:
            workload, params = workload_params(name, scenario_seed, smoke)
            it = scenario_run(binary, workload, params,
                              work_dir / f"it{len(iterations)}", threads)
            if it["ok"]:
                it["error"] = digest_error(name, it["record"]["params"],
                                           it["digest"])
                it["right"] = it["error"] is None
            iterations.append(it)
            if not it["ok"]:
                break
        passes += 1
        elapsed = time.monotonic() - started
        if not it["ok"] or elapsed + elapsed / passes > seconds:
            break
    good = [i for i in iterations if i["ok"]]
    right = [i for i in good if i["right"]]
    metrics = {}
    if good:
        for metric, unit, _ in END_TO_END[:-1]:
            metrics[metric] = (statistics.median(
                i["values"][metric] for i in good), unit)
        metrics["digest_match_frac"] = (len(right) / len(iterations), "frac")
    failed = len(iterations) - len(right)
    return {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": metrics,
        "iterations": iterations,
        "record": good[0]["record"] if good else None,
        "errors": [i["error"] for i in iterations if i["error"]],
    }


def measure_traced(binary, name, seed, smoke, work_dir):
    """Untraced run, traced run and layer probe of the first scenario
    seed of the run's pass order; returns a result."""
    workload, params = workload_params(name, pass_order(name, seed, smoke)[0],
                                       smoke)
    threads = thread_count()
    errors = []
    plain = scenario_run(binary, workload, params, work_dir / "plain",
                         threads)
    trace_run_dir = work_dir / "trace-run"
    traced = scenario_run(binary, workload, params, work_dir / "traced",
                          threads, {"FTNAV_TRACE_DIR": str(trace_run_dir)})
    probe_dir = work_dir / "probe"
    trace_probe_dir = work_dir / "trace-probe"
    env, _ = clean_env({"FTNAV_TRACE_DIR": str(trace_probe_dir)})
    code, _ = spawn(child_cmd(binary, "probe", workload, params, probe_dir,
                              threads), env, probe_dir)
    failed = 0
    for label, it in (("untraced run", plain), ("traced run", traced)):
        if not it["ok"]:
            errors.append(f"{label}: {it['error']}")
            failed += 1
    if code != 0:
        err = (probe_dir / "child.err").read_text(errors="replace")[-2000:]
        errors.append(f"probe: exit {code}: {err.strip()}")
        failed += 1
    metrics = {}
    if failed == 0:
        wrong = digest_error(name, plain["record"]["params"],
                             plain["digest"])
        if wrong:
            errors.append(wrong)
            failed += 1
        if traced["digest"] != plain["digest"]:
            errors.append("tracing changed the scenario's output bytes")
            failed += 1
        run_spans, run_ok = load_spans(trace_file(trace_run_dir))
        probe_spans, probe_ok = load_spans(trace_file(trace_probe_dir))
        probe = json.loads((probe_dir / "probe.json").read_text())
        if not (run_ok and probe_ok):
            errors.append("a trace is not B/E-balanced per thread")
            failed += 1
        if probe["trace_dropped"] != 0:
            errors.append(f"probe trace dropped {probe['trace_dropped']} "
                          "events")
            failed += 1
        values = layer_metrics(plain, traced, run_spans, probe_spans, probe,
                               threads)
        for metric, unit, _ in PER_LAYER:
            value = values[metric]
            if not math.isfinite(value):
                errors.append(f"{metric} is not finite")
                failed += 1
            metrics[metric] = (value, unit)
    return {
        "correct": failed == 0,
        "attempted": 3,
        "failed": failed,
        "metrics": metrics,
        "record": plain["record"] if plain["ok"] else None,
        "errors": errors,
    }


# ---- reporting ---------------------------------------------------------------

def result_line(result):
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    })


def print_report(name, seed, trace, result, code, cleared):
    print(f"perfbench: workload={name} seed={seed} trace={trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    if result["record"]:
        fingerprint, stamp = fingerprint_of(result["record"], code, cleared)
        print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
        print("stamp: " + json.dumps(stamp, sort_keys=True))
    for error in result["errors"]:
        print(f"error: {error}")
    if trace == 0 and result["metrics"]:
        wrong = 1.0 - result["metrics"]["digest_match_frac"][0]
        print(f"{'wrong_frac':34s} {wrong:.6g} frac")
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric:34s} {value:.6g} {unit}")


def write_record(path, name, seed, trace, result, code, cleared):
    fingerprint, stamp = fingerprint_of(result["record"], code, cleared)
    record = {
        "schema": "ftnav-perfbench-record-v1",
        "workload": name, "seed": seed, "trace": trace,
        "fingerprint": fingerprint, "stamp": stamp,
        "correct": result["correct"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
        "iterations": [
            {"digest": i["digest"], **i["values"]}
            for i in result.get("iterations", []) if i["ok"]],
    }
    Path(path).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def compare(path_a, path_b):
    """Prints per-metric medians of two records; refuses mismatched
    workload fingerprints (exit 2)."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    differs = sorted(k for k in set(a["fingerprint"]) | set(b["fingerprint"])
                     if a["fingerprint"].get(k) != b["fingerprint"].get(k))
    if differs or a["trace"] != b["trace"]:
        for key in differs:
            print(f"fingerprint mismatch: {key}: "
                  f"{a['fingerprint'].get(key)!r} vs "
                  f"{b['fingerprint'].get(key)!r}")
        print("refusing to compare records of different workloads")
        return 2
    better = {name: direction
              for name, _, direction in END_TO_END + PER_LAYER}
    print(f"workload {a['workload']} seed {a['seed']}: "
          f"{a['stamp']['code']} -> {b['stamp']['code']}")
    for metric, entry in a["metrics"].items():
        if metric not in b["metrics"]:
            continue
        old, new = entry["value"], b["metrics"][metric]["value"]
        change = (new - old) / old if old else float("nan")
        note = ""
        if metric in better:
            worse = change > 0 if better[metric] == "lower" else change < 0
            note = "worse" if worse and change != 0 else "better"
        print(f"{metric:34s} {old:12.6g} -> {new:12.6g} {entry['unit']:7s} "
              f"{change:+8.2%} {note}")
    return 0


# ---- self-test -----------------------------------------------------------------

def selftest(binary, work_dir):
    """Tiny-scale smoke run of every workload and mode: every metric is
    emitted, finite and has a unit; the digest check trips on a
    perturbed output; BENCHMARK.json names the same metrics."""
    problems = []
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        for key, table in (("end_to_end", END_TO_END),
                           ("per_layer", PER_LAYER)):
            if [(m["name"], m["unit"], m["better"]) for m in spec[key]] != [
                    tuple(row) for row in table]:
                problems.append(f"BENCHMARK.json {key} differs from run.py")
        if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
            problems.append("BENCHMARK.json workloads != run.py WORKLOADS")
    for name in WORKLOADS:
        for trace in (0, 1):
            wdir = work_dir / f"{name}-t{trace}"
            if trace == 0:
                result = measure_untraced(binary, name, 42, 0.0, True, wdir)
                expected = [m for m, _, _ in END_TO_END]
            else:
                result = measure_traced(binary, name, 42, True, wdir)
                expected = [m for m, _, _ in PER_LAYER]
            label = f"{name} trace={trace}"
            if not result["correct"]:
                problems.append(f"{label}: not correct: {result['errors']}")
            if list(result["metrics"]) != expected:
                problems.append(f"{label}: metrics {list(result['metrics'])}")
            for metric, (value, unit) in result["metrics"].items():
                if not (isinstance(value, (int, float))
                        and math.isfinite(value) and unit):
                    problems.append(f"{label}: {metric}={value!r} {unit!r}")
            print(f"selftest: {label}: {len(result['metrics'])} metrics, "
                  f"correct={result['correct']}")
            if trace == 0 and result["iterations"]:
                it = result["iterations"][0]
                stdout = it["out_dir"] / "stdout.txt"
                data = bytearray(stdout.read_bytes())
                data[-2] ^= 0x01
                stdout.write_bytes(bytes(data))
                if digest_error(name, it["record"]["params"],
                                output_digest(it["out_dir"])) is None:
                    problems.append(f"{name}: digest check accepted a "
                                    "perturbed output")
    for problem in problems:
        print(f"selftest: FAIL: {problem}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


# ---- main ----------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(
        description="ftnav campaign benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write a JSON record "
                        "(fingerprint, stamp, metrics) to this path")
    parser.add_argument("--selftest", action="store_true",
                        help="tiny-scale check of every workload and mode")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --record files")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    try:
        binary = build()
        work_dir = build_dir() / "runs" / f"{os.getpid()}"
        if args.selftest:
            status = selftest(binary, work_dir)
            shutil.rmtree(work_dir, ignore_errors=True)
            return status
        if not args.workload:
            parser.error("--workload is required")
        _, cleared = clean_env()
        if args.trace:
            result = measure_traced(binary, args.workload, args.seed, False,
                                    work_dir)
        else:
            result = measure_untraced(binary, args.workload, args.seed,
                                      args.seconds, False, work_dir)
    except BenchError as error:
        sys.stderr.write(f"perfbench: {error}\n")
        return 1
    code = code_identity()
    print_report(args.workload, args.seed, args.trace, result, code, cleared)
    if args.record and result["record"]:
        write_record(args.record, args.workload, args.seed, args.trace,
                     result, code, cleared)
    if result["correct"]:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not result["metrics"]:
        return 1
    print(result_line(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
