#!/usr/bin/env python3
"""Perf gate: run the campaign benchmark on a base checkout and on this
one, and fail when an end-to-end metric got worse than BENCHMARK.json
allows.

Usage, from the repository root, with the base commit checked out
elsewhere (CI uses `git worktree add ../base <merge-base>`):

    python3 ci/perf_gate.py ../base

For every workload in BENCHMARK.json the gate runs the benchmark's
command with `--record` four times, in ABBA order (base, head, head,
base), each run lasting run_seconds / 2. Each side thus gets the
benchmark's run_seconds, and a machine that speeds up or slows down
during the job drifts both sides alike. Each side's per-iteration
values are pooled across its two records. The gate fails (exit 1) when
a metric's pooled median on head is worse than on base by more than the
metric's bound, or when a record is missing or not correct. Records
whose workload fingerprints differ measured different work, and the
gate exits 2. When perfbench/ or BENCHMARK.json differ between the
checkouts, the change redefines the benchmark and sets a new baseline
instead of being gated: the gate prints a notice and exits 0.

Records land in perf-records/<workload>-<run>-<side>.json. Each
checkout builds perfbench in its own directory.
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "perf-records"
ABBA = ("base", "head", "head", "base")


def benchmark_files(checkout: Path) -> dict:
    """{relative path: bytes} of everything that defines the benchmark."""
    files = {"BENCHMARK.json": (checkout / "BENCHMARK.json").read_bytes()}
    for path in sorted((checkout / "perfbench").rglob("*")):
        if path.is_file():
            files[str(path.relative_to(checkout))] = path.read_bytes()
    return files


def checkout_env(checkout: Path) -> dict:
    """The environment for runs from `checkout`. perfbench builds under
    CARGO_TARGET_DIR, else in the checkout; a shared CARGO_TARGET_DIR
    gets one subdirectory per checkout path, so that no build directory
    is ever configured for another checkout's sources."""
    env = dict(os.environ)
    if env.get("CARGO_TARGET_DIR"):
        tag = hashlib.sha256(str(checkout).encode()).hexdigest()[:12]
        env["CARGO_TARGET_DIR"] = str(
            Path(env["CARGO_TARGET_DIR"]).resolve() / f"perf-gate-{tag}")
    return env


def record_run(spec: dict, workload: str, run: int, side: str,
               checkout: Path) -> dict | None:
    """One benchmark run from `checkout`; its record, or None if the run
    wrote none."""
    path = RECORDS / f"{workload}-{run}-{side}.json"
    cmd = spec["command"] + ["--workload", workload,
                             "--seconds", str(spec["run_seconds"] / 2),
                             "--record", str(path)]
    print(f"perf gate: {workload} run {run} ({side}): {' '.join(cmd)}",
          flush=True)
    subprocess.run(cmd, cwd=checkout, env=checkout_env(checkout))
    return json.loads(path.read_text()) if path.is_file() else None


def pooled(records: list, metric: str) -> list:
    """Per-iteration values of `metric` across `records`; a metric that
    iterations do not carry (digest_match_frac) contributes each
    record's value instead."""
    values = []
    for record in records:
        values += [it[metric] for it in record["iterations"] if metric in it]
    return values or [record["metrics"][metric]["value"] for record in records]


def main(argv: list) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: perf_gate.py <base checkout>", file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    if benchmark_files(base) != benchmark_files(ROOT):
        print("::notice::perf gate skipped: perfbench/ or BENCHMARK.json "
              "differ from the base, so this change sets a new baseline")
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(RECORDS, ignore_errors=True)
    RECORDS.mkdir()

    checkouts = {"base": base, "head": ROOT}
    failures = []
    lines = ["| workload | metric | base median (n) | head median (n) "
             "| change | bound | status |", "|---|---|---|---|---|---|---|"]
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [(side, record_run(spec, workload, run, side, checkouts[side]))
                for run, side in enumerate(ABBA)]
        if any(record is None for _, record in runs):
            failures.append(f"{workload}: a run wrote no record")
            continue
        fingerprints = [json.dumps(record["fingerprint"], sort_keys=True)
                        for _, record in runs]
        if len(set(fingerprints)) > 1:
            print(f"perf gate: {workload}: the runs measured different work",
                  file=sys.stderr)
            for run, (side, _) in enumerate(runs):
                print(f"  run {run} ({side}): {fingerprints[run]}",
                      file=sys.stderr)
            return 2
        failures += [f"{workload} run {run} ({side}): record is not correct"
                     for run, (side, record) in enumerate(runs)
                     if not record["correct"]]
        sides = {side: [record for s, record in runs if s == side]
                 for side in checkouts}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base_values = pooled(sides["base"], name)
            head_values = pooled(sides["head"], name)
            base_median = statistics.median(base_values)
            head_median = statistics.median(head_values)
            # Only digest_match_frac can be 0 on base, and no value is
            # worse than 0 there.
            change = ((head_median - base_median) / base_median
                      if base_median else 0.0)
            worse = change if metric["better"] == "lower" else -change
            status = "ok"
            if worse > bound:
                status = "FAIL"
                failures.append(
                    f"{workload} {name}: {head_median:.6g} {metric['unit']} "
                    f"is {worse:.1%} worse than base {base_median:.6g} "
                    f"(bound {bound:.0%})")
            lines.append(
                f"| {workload} | {name} | {base_median:.6g} "
                f"({len(base_values)}) | {head_median:.6g} "
                f"({len(head_values)}) | {change:+.1%} | {bound:.0%} "
                f"| {status} |")

    table = "\n".join(lines)
    print(table)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as out:
            out.write("## Perf gate (base vs head, ABBA)\n\n" + table + "\n")
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
