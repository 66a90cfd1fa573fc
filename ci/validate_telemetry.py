#!/usr/bin/env python3
"""Validate telemetry artifacts (stdlib only; see src/obs/).

Two subcommands, one per artifact family:

  trace <dir>         every trace.*.json in <dir> is well-formed
                      Chrome trace-event JSON (the format Perfetto and
                      chrome://tracing load): a traceEvents list whose
                      B/E spans pair LIFO per (pid, tid) lane.
                      --min-files N requires at least N trace files
                      (a distributed run should leave one per process).
                      --expect-shards N requires the campaign's `shard`
                      spans (category `campaign`, shard index in
                      args.shard; the per-shard walls the benchmark
                      reads) to cover ids 0..N-1 exactly once across
                      all files: a clean run of one streamed campaign
                      commits every shard once, in whichever process.

  status <file>       <file> is an ftnav-status-v1 document as printed
                      by `fault_campaign status --json` (the schema
                      documented in src/dist/status_doc.h).

Exit 0 when the artifacts validate, 1 with a diagnostic when not —
wired into the distributed CI leg and ci/campaign_chaos.sh.
"""

import argparse
import collections
import json
import sys
from pathlib import Path


def fail(message: str) -> int:
    print(f"validate_telemetry: {message}", file=sys.stderr)
    return 1


def load_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---- trace ----------------------------------------------------------------

def check_trace_file(path: Path) -> list:
    """Returns a list of problems (empty = valid)."""
    problems = []
    try:
        doc = load_json(path)
    except (OSError, ValueError) as error:
        return [f"{path}: not valid JSON: {error}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: traceEvents is not a list"]
    stacks = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"{path}: event #{index} is not an object")
            continue
        missing = [key for key in ("name", "ph", "pid", "tid", "ts")
                   if key not in event]
        if missing:
            problems.append(
                f"{path}: event #{index} missing {','.join(missing)}")
            continue
        phase = event["ph"]
        lane = (event["pid"], event["tid"])
        if phase == "B":
            stacks.setdefault(lane, []).append(event["name"])
        elif phase == "E":
            stack = stacks.setdefault(lane, [])
            if not stack:
                problems.append(
                    f"{path}: event #{index} ends '{event['name']}' on an "
                    f"empty lane {lane}")
            elif stack[-1] != event["name"]:
                problems.append(
                    f"{path}: event #{index} ends '{event['name']}' but "
                    f"'{stack[-1]}' is open on lane {lane}")
            else:
                stack.pop()
        elif phase != "i":
            problems.append(
                f"{path}: event #{index} has unexpected phase '{phase}'")
    for lane, stack in stacks.items():
        if stack:
            problems.append(
                f"{path}: lane {lane} left spans open: {stack}")
    return problems


def shard_span_ids(events: list) -> list:
    """The args.shard of every campaign `shard` span among the events."""
    return [event.get("args", {}).get("shard") for event in events
            if event["ph"] == "B" and event["name"] == "shard"
            and event.get("cat") == "campaign"]


def check_shard_coverage(shards: list, count: int) -> list:
    """Problems unless `shards` holds each id 0..count-1 exactly once."""
    if any(not isinstance(shard, int) for shard in shards):
        return ["a campaign shard span has no integer args.shard"]
    seen = collections.Counter(shards)
    missing = [shard for shard in range(count) if shard not in seen][:5]
    repeated = sorted(shard for shard, n in seen.items() if n > 1)[:5]
    unexpected = sorted(shard for shard in seen
                        if not 0 <= shard < count)[:5]
    if missing or repeated or unexpected:
        return [f"shard spans do not cover 0..{count - 1} exactly once "
                f"(missing {missing}, repeated {repeated}, "
                f"unexpected {unexpected})"]
    return []


def cmd_trace(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    paths = sorted(directory.glob("trace.*.json"))
    if len(paths) < args.min_files:
        return fail(f"{directory}: found {len(paths)} trace files, "
                    f"need at least {args.min_files}")
    problems = []
    total_events = 0
    shards = []
    for path in paths:
        problems.extend(check_trace_file(path))
        if not problems:
            events = load_json(path)["traceEvents"]
            total_events += len(events)
            shards.extend(shard_span_ids(events))
    if not problems and args.expect_shards is not None:
        problems.extend(check_shard_coverage(shards, args.expect_shards))
    if problems:
        for problem in problems:
            print(f"validate_telemetry: {problem}", file=sys.stderr)
        return 1
    print(f"validate_telemetry: {len(paths)} trace files OK "
          f"({total_events} events, {len(shards)} shard spans)")
    return 0


# ---- status ---------------------------------------------------------------

def cmd_status(args: argparse.Namespace) -> int:
    path = Path(args.file)
    try:
        doc = load_json(path)
    except (OSError, ValueError) as error:
        return fail(f"{path}: not valid JSON: {error}")
    if doc.get("schema") != "ftnav-status-v1":
        return fail(f"{path}: schema is {doc.get('schema')!r}, expected "
                    "ftnav-status-v1")
    if not isinstance(doc.get("server"), str) or not doc["server"]:
        return fail(f"{path}: server is {doc.get('server')!r}")
    for campaign in doc.get("campaigns", []) or []:
        for key in ("tag", "scenario", "params"):
            if not isinstance(campaign.get(key), str):
                return fail(f"{path}: campaign field {key!r} is "
                            f"{campaign.get(key)!r}")
    for queue in doc.get("queues", []) or []:
        if not isinstance(queue.get("label"), str):
            return fail(f"{path}: queue label is {queue.get('label')!r}")
        for key in ("shards", "done", "leased", "partials"):
            if not isinstance(queue.get(key), int) or queue[key] < 0:
                return fail(f"{path}: queue {queue['label']!r} field "
                            f"{key!r} is {queue.get(key)!r}")
        if queue["done"] + queue["leased"] > queue["shards"]:
            return fail(f"{path}: queue {queue['label']!r} has "
                        f"done+leased > shards")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return fail(f"{path}: metrics is not an object")
    counters = metrics.get("counters")
    if not isinstance(counters, list):
        return fail(f"{path}: metrics.counters is not a list")
    for counter in counters:
        if not isinstance(counter.get("name"), str) or \
                not isinstance(counter.get("value"), int):
            return fail(f"{path}: malformed counter {counter!r}")
    histograms = metrics.get("histograms")
    if not isinstance(histograms, list):
        return fail(f"{path}: metrics.histograms is not a list")
    for histogram in histograms:
        if not isinstance(histogram.get("name"), str) or \
                not isinstance(histogram.get("count"), int) or \
                not isinstance(histogram.get("sum_seconds"), (int, float)) or \
                not isinstance(histogram.get("buckets"), list):
            return fail(f"{path}: malformed histogram {histogram!r}")
        if sum(histogram["buckets"]) != histogram["count"]:
            return fail(f"{path}: histogram {histogram['name']!r} buckets "
                        f"sum to {sum(histogram['buckets'])}, count is "
                        f"{histogram['count']}")
    names = [counter["name"] for counter in counters]
    if names != sorted(names):
        return fail(f"{path}: counters are not sorted by name")
    if args.expect_counter:
        for name in args.expect_counter:
            if name not in names:
                return fail(f"{path}: expected counter {name!r} absent")
    print(f"validate_telemetry: {path} OK ({len(counters)} counters, "
          f"{len(histograms)} histograms)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    trace = commands.add_parser("trace", help="validate trace.*.json files")
    trace.add_argument("dir", help="FTNAV_TRACE_DIR of the run")
    trace.add_argument("--min-files", type=int, default=1,
                       help="minimum trace files expected (default 1)")
    trace.add_argument("--expect-shards", type=int, default=None,
                       metavar="N",
                       help="shard spans must cover 0..N-1 exactly once")
    trace.set_defaults(handler=cmd_trace)

    status = commands.add_parser("status",
                                 help="validate a status --json document")
    status.add_argument("file")
    status.add_argument("--expect-counter", action="append", default=[],
                        help="require this counter name (repeatable)")
    status.set_defaults(handler=cmd_status)

    args = parser.parse_args()
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
