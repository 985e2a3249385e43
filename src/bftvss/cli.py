"""Scenario runner CLI.

Verbs:
  run <scenario.json> [--seed N] [--mode M] [--out-dir D] [--trace]
  compare [--seeds N] [--rounds R] [--out-dir D]
  grid [--seeds N] [--out-dir D]
  report <results.json ...> [--csv FILE]
  validate <scenario.json>

compare, grid and report print through the same tables: one Acc/IT row per
training mode and one row per consensus size and script.

Scenario files are strict JSON: unknown keys anywhere are rejected before
anything runs.  Results are written as sorted-key JSON so identical runs
produce byte-identical files.  Exit status is 0 only if every in-file
assertion holds.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import math
import os
import re
import statistics
import sys
from itertools import product
from typing import Optional, get_origin

from . import dpml, scenarios
from .dpml import MODES, TrainingConfig, of_type
from .netsim import SimConfig

GRID_GST = 100
GRID_DELTA = 2

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

# assertion key -> (value type, actual value, whether it holds), for a
# training RunResult r and a consensus outcome o
_TRAINING_ASSERTS = {
    "completes": (bool, lambda r: True, lambda want, r: True is want),
    "max_it": (int, lambda r: None if math.isinf(r.it) else int(r.it),
               lambda want, r: r.it <= want),
    "min_final_accuracy": (float, lambda r: r.final_accuracy,
                           lambda want, r: r.final_accuracy >= want),
    "adaptive_never": (bool, lambda r: sorted(r.adaptive_rounds),
                       lambda want, r: (len(r.adaptive_rounds) == 0) is want),
    "adaptive_every_round": (
        bool, lambda r: sorted(r.adaptive_rounds),
        lambda want, r: (len(r.adaptive_rounds) == len(r.metrics)) is want),
}
_CONSENSUS_ASSERTS = {
    "safety": (bool, lambda o: o["safety_ok"],
               lambda want, o: o["safety_ok"] is want),
    "all_committed": (bool, lambda o: o["all_committed"],
                      lambda want, o: o["all_committed"] is want),
    "commit_within": (int, lambda o: o["commit_span"],
                      lambda want, o: o["commit_span"] is not None
                      and o["commit_span"] <= want),
    "max_view": (int, lambda o: o["max_view"],
                 lambda want, o: o["max_view"] <= want),
}
# the keys a scenario file of each kind may hold, and their types; a nested
# table is an object's
_SCENARIO_KEYS = {
    "training": {"name": str, "kind": str, "config": dpml.CONFIG_TYPES,
                 "assertions": {k: a[0] for k, a in _TRAINING_ASSERTS.items()}},
    "consensus": {"name": str, "kind": str, "n": int, "script": str, "gst": int,
                  "delta": int,
                  "assertions": {k: a[0] for k, a in _CONSENSUS_ASSERTS.items()}},
}


class ScenarioError(Exception):
    pass


def _kind_table(tables: dict, data: dict, where: str) -> dict:
    """The table of data's kind, which must name one of tables."""
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in tables:
        raise ScenarioError(f"{where}: 'kind' must be one of {sorted(tables)}, "
                            f"got {kind!r}")
    return tables[kind]


def _check_keys(data, table: dict, where: str, closed: bool = True):
    """Check data, read from a JSON file, against table, {key: type or nested
    table}.  A scenario's objects are closed: each key of table is optional
    and no other key is allowed.  A result's are open: each key of table is
    required, and other keys are ignored."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: must be an object")
    odd = set(data) - set(table) if closed else set(table) - set(data)
    if odd:
        raise ScenarioError(f"{where}: {'unknown' if closed else 'missing'} keys "
                            f"{sorted(odd)}")
    for key, kind in table.items():
        if key in data and isinstance(kind, dict):
            _check_keys(data[key], kind, f"{where}: {key}", closed)
        elif key in data and not of_type(data[key], kind):
            name = kind if get_origin(kind) else kind.__name__
            raise ScenarioError(f"{where}: {key} must be of type {name}, "
                                f"got {data[key]!r}")


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    _check_keys(data, _kind_table(_SCENARIO_KEYS, data, path), path)
    if not _NAME_RE.match(data.get("name", "")):
        raise ScenarioError(f"{path}: 'name' must match {_NAME_RE.pattern}")
    if data["kind"] == "training":
        _build_config(data.get("config", {}), path)
        return data
    if "n" not in data or data.get("script") not in scenarios.CONSENSUS_SCRIPTS:
        raise ScenarioError(f"{path}: needs 'n' and a 'script' of "
                            f"{scenarios.CONSENSUS_SCRIPTS}")
    try:
        SimConfig(n=data["n"], f=(data["n"] - 1) // 3, gst=data.get("gst", 0),
                  delta=data.get("delta", 1))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return data


def _build_config(raw: dict, path: str, seed=None, mode=None) -> TrainingConfig:
    cfg = dict(raw)
    if "attackers" in cfg:
        cfg["attackers"] = tuple(cfg["attackers"])
    if seed is not None:
        cfg["seed"] = seed
    if mode is not None:
        cfg["mode"] = mode
    try:
        config = TrainingConfig(**cfg)
        config.validate()
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: config: {exc}") from exc
    return config


def _check(expected, actual, ok: bool) -> dict:
    return {"expected": expected, "actual": actual, "ok": bool(ok)}


def _assertions(table: dict, asserts: dict, source) -> dict:
    return {key: _check(want, table[key][1](source), table[key][2](want, source))
            for key, want in asserts.items()}


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _payload(outcome: dict, name: str, kind: str, checks: dict) -> dict:
    """A result file: what the run produced plus the scenario bookkeeping
    that report reads."""
    return {"schema_version": dpml.RESULT_SCHEMA_VERSION, **outcome,
            "scenario": name, "kind": kind, "assertions": checks,
            "assertions_ok": all(c["ok"] for c in checks.values())}


def run_scenario(path: str, seed=None, mode=None, out_dir=None,
                 trace: bool = False) -> int:
    scenario = load_scenario(path)
    out_dir = out_dir or "."
    name = scenario["name"]
    asserts = scenario.get("assertions", {})

    if scenario["kind"] == "training":
        config = _build_config(scenario.get("config", {}), path, seed, mode)
        if trace and not config.mode.startswith("ebyftves"):
            raise ScenarioError(f"--trace applies only to ebyftves runs, not {config.mode}")
        result = dpml.run(config, collect_trace=trace)
        payload = _payload(result.to_dict(), name, "training",
                           _assertions(_TRAINING_ASSERTS, asserts, result))
        out_path = os.path.join(out_dir, f"{name}_{config.mode}_{config.seed}.json")
    else:
        if mode is not None:
            raise ScenarioError("--mode applies only to training scenarios")
        if trace:
            raise ScenarioError("--trace applies only to ebyftves runs")
        run_seed = 0 if seed is None else seed
        try:  # SimConfig refuses a negative seed before anything runs
            outcome = scenarios.run_consensus(
                n=scenario["n"], script=scenario["script"], seed=run_seed,
                gst=scenario.get("gst", 0), delta=scenario.get("delta", 1))
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
        payload = _payload(outcome, name, "consensus",
                           _assertions(_CONSENSUS_ASSERTS, asserts, outcome))
        out_path = os.path.join(out_dir,
                                f"{name}_{scenario['script']}_{run_seed}.json")

    # only a run that passed every check above leaves a directory behind
    os.makedirs(out_dir, exist_ok=True)
    if trace:
        result.trace.to_jsonl(os.path.splitext(out_path)[0] + ".trace.jsonl")
    _write_json(out_path, payload)
    print(out_path)
    for key, c in sorted(payload["assertions"].items()):
        status = "ok" if c["ok"] else "FAIL"
        print(f"  {status:4s} {key}: expected {c['expected']!r}, got {c['actual']!r}")
    return 0 if payload["assertions_ok"] else 1


def compare(seeds: int = 5, rounds: int = 30, out_dir=None) -> int:
    """Run every mode on seeds 0..seeds-1 of the default config (attacker 3
    in the "+acumpa" modes) and print the report table."""
    if not 1 <= rounds <= dpml.MAX_ROUNDS:
        raise ScenarioError(f"--rounds must lie in [1, {dpml.MAX_ROUNDS}]")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    results = []
    for mode in MODES:
        attackers = (3,) if mode.endswith("+acumpa") else ()
        for seed in range(seeds):
            config = TrainingConfig(mode=mode, attackers=attackers, rounds=rounds,
                                    seed=seed)
            payload = _payload(dpml.run(config).to_dict(), "compare", "training", {})
            results.append(payload)
            if out_dir:
                _write_json(os.path.join(out_dir, f"compare_{mode}_{seed}.json"),
                            payload)
    return _tables(results)


def grid(seeds: int = 5, out_dir=None) -> int:
    """Run every consensus script at n = 4 and 7 on seeds 0..seeds-1 (requests
    at GST = GRID_GST, delay bound GRID_DELTA) and print the consensus table.
    Exits 1 if any run is unsafe or leaves an honest replica uncommitted."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    results = []
    for n, script, seed in product((4, 7), scenarios.CONSENSUS_SCRIPTS, range(seeds)):
        outcome = scenarios.run_consensus(n, script, seed, gst=GRID_GST, delta=GRID_DELTA)
        results.append(_payload(outcome, "grid", "consensus", {}))
        if out_dir:
            _write_json(os.path.join(out_dir, f"grid_{n}_{script}_{seed}.json"),
                        results[-1])
    status = _tables(results)
    failures = sum(not (r["safety_ok"] and r["all_committed"]) for r in results)
    if failures:
        print(f"{failures} failing combinations")
    return 1 if failures else status


# -- report -------------------------------------------------------------------

_COMPAT_KEYS = ("n", "f", "th", "rounds", "dim")  # of a training config
# the keys each table reads from a result file of that kind, and their types
_RESULT_KEYS = {
    "training": {"scenario": str, "mode": str, "seed": int,
                 "config": {k: dpml.CONFIG_TYPES[k] for k in _COMPAT_KEYS},
                 "final_accuracy": float, "it": Optional[int]},
    "consensus": {"n": int, "script": str, "safety_ok": bool,
                  "all_committed": bool, "commit_span": Optional[int],
                  "max_view": int},
}


def _fmt_it(values) -> str:
    finite = [v for v in values if v is not None]
    if not finite:
        return "inf"
    mean = statistics.mean(finite)
    std = statistics.stdev(finite) if len(finite) > 1 else 0.0
    tail = f" (+{len(values) - len(finite)} inf)" if len(finite) < len(values) else ""
    return f"{mean:.1f} +/- {std:.1f}{tail}"


def report(paths, csv_path=None) -> int:
    results = []
    for pattern in paths:
        matched = sorted(globmod.glob(pattern))
        if not matched and not os.path.exists(pattern):
            print(f"error: no results match {pattern!r}", file=sys.stderr)
            return 2
        for p in matched or [pattern]:
            try:
                with open(p) as fh:
                    result = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ScenarioError(f"cannot read result {p}: {exc}") from exc
            if (not isinstance(result, dict)
                    or result.get("schema_version") != dpml.RESULT_SCHEMA_VERSION):
                raise ScenarioError(f"{p}: not a result file of schema version "
                                    f"{dpml.RESULT_SCHEMA_VERSION}")
            _check_keys(result, _kind_table(_RESULT_KEYS, result, p), p, closed=False)
            results.append(result)
    training = [r for r in results if r.get("kind") == "training"]
    if csv_path and not training:
        raise ScenarioError("--csv needs at least one training result")
    compat = [{k: r["config"][k] for k in _COMPAT_KEYS} for r in training]
    for r, cfg in zip(training, compat):
        if cfg != compat[0]:
            print(f"error: result {r['scenario']}_{r['mode']}_{r['seed']} has "
                  f"incompatible config {cfg} vs {compat[0]}", file=sys.stderr)
            return 2
    return _tables(results, csv_path)


def _tables(results, csv_path=None) -> int:
    """Print the training and the consensus table of the given results."""
    training = [r for r in results if r.get("kind") == "training"]
    consensus = [r for r in results if r.get("kind") == "consensus"]
    if not training and not consensus:
        print("error: no results to report", file=sys.stderr)
        return 2
    if training:
        _training_table(training, csv_path)
    if consensus:
        _consensus_table(consensus)
    return 0


def _training_table(training, csv_path=None):
    """Print one Acc/IT row per mode; --csv writes the same rows."""
    by_mode: dict[str, list] = {}
    for r in training:
        by_mode.setdefault(r["mode"], []).append(r)
    rows = []
    for m in sorted(by_mode):
        group = by_mode[m]
        accs = [r["final_accuracy"] for r in group]
        its = [r["it"] for r in group]
        acc_mean = statistics.mean(accs)
        acc_std = statistics.stdev(accs) if len(accs) > 1 else 0.0
        rows.append((m, len(group), f"{acc_mean:.3f} +/- {acc_std:.3f}",
                     _fmt_it(its)))
    width = max(len(r[0]) for r in rows)
    print(f"{'mode':{width}s}  runs  Acc              IT")
    for m, count, acc, it in rows:
        print(f"{m:{width}s}  {count:4d}  {acc:15s}  {it}")
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write("mode,runs,acc,it\n")
            for m, count, acc, it in rows:
                fh.write(f"{m},{count},{acc},{it}\n")
        print(f"wrote {csv_path}")


def _consensus_table(consensus):
    """Print one row per (n, script): runs, how many were safe and how many
    had every honest replica commit, and the largest commit span (ticks from
    submission to the last honest commit) and view over those runs."""
    by_run: dict[tuple, list] = {}
    for r in consensus:
        by_run.setdefault((r["n"], r["script"]), []).append(r)
    width = max(len(script) for _, script in by_run)
    print(f"{'n':>3s}  {'script':{width}s}  runs  safe  all committed  "
          f"max span  max view")
    for (n, script), group in sorted(by_run.items()):
        spans = [r["commit_span"] for r in group if r["commit_span"] is not None]
        print(f"{n:3d}  {script:{width}s}  {len(group):4d}  "
              f"{sum(r['safety_ok'] for r in group):4d}  "
              f"{sum(r['all_committed'] for r in group):13d}  "
              f"{max(spans) if spans else '-':>8}  "
              f"{max(r['max_view'] for r in group):8d}")


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bftvss",
        description="Run and report desk-scale secret-sharing/consensus scenarios.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--mode", default=None)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--trace", action="store_true")

    p_cmp = sub.add_parser("compare", help="run every mode over seeds and "
                           "print the report table")
    p_cmp.add_argument("--seeds", type=int, default=5,
                       help="number of seeds per mode (default 5)")
    p_cmp.add_argument("--rounds", type=int, default=30)
    p_cmp.add_argument("--out-dir", default=None,
                       help="also write one result JSON per run")

    p_grid = sub.add_parser("grid", help="run every consensus script at n = 4 "
                            "and 7 over seeds and print the consensus table")
    p_grid.add_argument("--seeds", type=int, default=5,
                        help="number of seeds per script and n (default 5)")
    p_grid.add_argument("--out-dir", default=None,
                        help="also write one result JSON per run")

    p_rep = sub.add_parser("report", help="summarize result files into tables")
    p_rep.add_argument("results", nargs="+")
    p_rep.add_argument("--csv", default=None,
                       help="also write the training table's rows as CSV")

    p_val = sub.add_parser("validate", help="schema-check a scenario file")
    p_val.add_argument("scenario")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return run_scenario(args.scenario, seed=args.seed, mode=args.mode,
                                out_dir=args.out_dir, trace=args.trace)
        if args.verb == "compare":
            return compare(args.seeds, args.rounds, out_dir=args.out_dir)
        if args.verb == "grid":
            return grid(args.seeds, out_dir=args.out_dir)
        if args.verb == "report":
            return report(args.results, csv_path=args.csv)
        load_scenario(args.scenario)
        print(f"{args.scenario}: ok")
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except dpml.WorkflowError as exc:
        print(f"error: workflow failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
