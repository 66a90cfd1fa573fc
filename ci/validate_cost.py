#!/usr/bin/env python3
"""Validate a cost_report.json artifact (stdlib only; see src/cost/).

Usage:
    validate_cost.py <cost_report.json> [--scenario-names <file>]

Checks that <file> is an ftnav-cost-report-v1 document as written by
`fault_campaign describe --all --cost --json`:

  * the machine profile carries strictly positive, finite rates;
  * every scenario entry yields finite, non-negative work totals, a
    positive trial count, and a finite positive predicted_seconds
    (the acceptance bar for "the cost model covers the registry");
  * every campaign row has a positive trial count, shards matching
    the runner's 64-way streaming cap, and finite, non-negative
    per-trial work and predicted seconds;
  * with --scenario-names (a file of names, one per line, e.g. from
    `fault_campaign list --names`), the report covers exactly that
    scenario set — a registry addition without a cost estimator fails
    CI here rather than silently shipping without an estimate.

Exit 0 when the report validates, 1 with a diagnostic when not —
wired into the distributed CI leg next to validate_telemetry.py.
"""

import argparse
import json
import math
import sys
from pathlib import Path

SCHEMA = "ftnav-cost-report-v1"
STREAM_SHARDS = 64  # campaign_runner.cpp kStreamShards

PROFILE_RATES = ("mac_rate", "byte_rate", "grid_step_rate",
                 "drone_step_rate", "trial_overhead_seconds")
SCENARIO_NUMBERS = ("macs", "bytes", "grid_steps", "drone_steps",
                    "setup_seconds", "predicted_seconds",
                    "mean_shard_seconds")
CAMPAIGN_NUMBERS = ("macs_per_trial", "bytes_per_trial",
                    "predicted_seconds", "mean_shard_seconds")


def fail(message: str) -> int:
    print(f"validate_cost: {message}", file=sys.stderr)
    return 1


def finite_number(value) -> bool:
    return (isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value))


def check_campaign(scenario: str, campaign: dict, problems: list) -> None:
    where = f"{scenario}/{campaign.get('label', '?')}"
    label = campaign.get("label")
    if not isinstance(label, str) or not label:
        problems.append(f"{where}: empty campaign label")
    trials = campaign.get("trials")
    if not isinstance(trials, int) or trials < 1:
        problems.append(f"{where}: trials must be a positive integer")
        return
    shards = campaign.get("shards")
    if shards != min(trials, STREAM_SHARDS):
        problems.append(
            f"{where}: shards={shards}, want "
            f"min(trials, {STREAM_SHARDS})={min(trials, STREAM_SHARDS)}")
    for key in CAMPAIGN_NUMBERS:
        if not finite_number(campaign.get(key)) or campaign[key] < 0:
            problems.append(f"{where}: {key} is not a finite non-negative "
                            f"number: {campaign.get(key)!r}")


def check_scenario(entry: dict, problems: list) -> None:
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        problems.append("scenario entry with empty name")
        return
    if not isinstance(entry.get("params"), str):
        problems.append(f"{name}: params is not a string")
    trials = entry.get("trials")
    if not isinstance(trials, int) or trials < 1:
        problems.append(f"{name}: trials must be a positive integer")
    for key in SCENARIO_NUMBERS:
        if not finite_number(entry.get(key)) or entry[key] < 0:
            problems.append(f"{name}: {key} is not a finite non-negative "
                            f"number: {entry.get(key)!r}")
    if finite_number(entry.get("predicted_seconds")) \
            and entry["predicted_seconds"] <= 0:
        problems.append(f"{name}: predicted_seconds must be positive")
    campaigns = entry.get("campaigns")
    if not isinstance(campaigns, list) or not campaigns:
        problems.append(f"{name}: campaigns must be a non-empty list")
        return
    for campaign in campaigns:
        check_campaign(name, campaign, problems)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="validate an ftnav-cost-report-v1 document")
    parser.add_argument("report", type=Path)
    parser.add_argument("--scenario-names", type=Path, default=None,
                        help="file of expected scenario names, one per "
                             "line (fault_campaign list --names)")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as error:
        return fail(f"{args.report}: not valid JSON: {error}")

    if doc.get("schema") != SCHEMA:
        return fail(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    profile = doc.get("profile")
    if not isinstance(profile, dict):
        return fail("profile is not an object")
    problems = []
    for rate in PROFILE_RATES:
        if not finite_number(profile.get(rate)) or profile[rate] <= 0:
            problems.append(f"profile.{rate} is not a finite positive "
                            f"number: {profile.get(rate)!r}")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        return fail("scenarios is not a non-empty list")
    for entry in scenarios:
        check_scenario(entry, problems)

    names = [entry.get("name") for entry in scenarios]
    if len(set(names)) != len(names):
        problems.append("duplicate scenario names in the report")
    if args.scenario_names is not None:
        expected = {line.strip()
                    for line in args.scenario_names.read_text().splitlines()
                    if line.strip()}
        got = set(names)
        for missing in sorted(expected - got):
            problems.append(f"registry scenario '{missing}' missing from "
                            f"the report (no cost estimator?)")
        for extra in sorted(got - expected):
            problems.append(f"report names unknown scenario '{extra}'")

    if problems:
        for problem in problems:
            print(f"validate_cost: {problem}", file=sys.stderr)
        return 1
    print(f"validate_cost: OK ({len(scenarios)} scenarios)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
