#!/usr/bin/env python3
"""Benchmark records: medians over repeated benchmark runs, with the git rev.

Usage (from the repository root):

    python3 tools/bench_record.py --seed 2 --seconds 8 --repeats 10
    python3 tools/bench_record.py --against ../parent --seed 2 --seconds 8
    python3 tools/bench_record.py --check records/BENCH_<rev>.json
    python3 tools/bench_record.py --compare records/BENCH_<a>.json records/BENCH_<b>.json
    python3 tools/bench_record.py --kernels kernels-96/48 --seed 2 --seconds 8

Each repeat runs ``python3 bench/run.py --workload W --seed S --seconds T``
as its own process, once for each workload W of ``BENCHMARK.json``, and
reads the JSON object on the last line of its output.  It then times the
kernels, one process per group size of ``KERNEL_SIZES``: ``--kernels``
imports the checkout's own ``src/``, deals with seed S, and gives the median
time of a call of ``field.exps`` (768 exponents), ``field.encode_vector`` of
one dealer's vector and ``field.decode_vector`` of its encoding,
``vss.share``, ``vss.verify``, ``vss.sum_shares``, ``vss.reconstruct``, and
``crypto.encrypt`` and ``crypto.decrypt`` of one share bundle's bytes (one
seal before timing builds the comb and the pair key), each called for T/40
seconds and at least once.  With ``--against DIR`` every run of this
checkout is paired with a run of the checkout at DIR (which side goes first
alternates), and one record is written for each.  A record,
``BENCH_<rev>.json`` (or ``BENCH_<rev>-dirty.json`` when tracked files
differ from the rev), holds one row per end-to-end metric of
``BENCHMARK.json`` and workload, and one per kernel and group size (median,
interquartile range, repeats, unit and every value), plus the git rev, a
dirty flag, the Python version, the CPU count and the command.  A run whose
output is not correct ends the recording with an error.

``--compare A B`` prints B's median over A's for each row, how many of the
pairs B won when the two were recorded together, and flags a row that moved
past its bound in ``BENCHMARK.json``; it exits 1 if a row got worse by more
than its bound.  A paired row is labelled ``unresolved`` when A's
interquartile range exceeds the row's bound (relative to A's median) and B
did not win every pair, and else ``gain`` when B won at least 9 in 10 pairs
and its median is better than A's by more than A's interquartile range.  A
row whose metric has no bound in ``BENCHMARK.json``, as a kernel row, is
printed and read as lower-is-better, but never fails.  A header line names
each of the seed, seconds, repeats, Python version and CPU count in which
the two records differ, since their rows then do not measure like for like.
``--check`` validates a record's schema, not its values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 1
RECORD_KEYS = {"schema_version": int, "rev": str, "dirty": bool, "python": str,
               "cpu_count": int, "command": str, "seed": int, "seconds": (int, float),
               "repeats": int, "paired_with": (str, type(None)), "rows": list}
# a record's inputs that must match for its medians to compare like for like
LIKE_FOR_LIKE = ("seed", "seconds", "repeats", "python", "cpu_count")
# the kernel rows' pseudo-workloads: a group and the run's n, th and dim
KERNEL_SIZES = {"kernels-96/48": dict(bits=(96, 48), n=4, th=3, dim=256),
                "kernels-2048/256": dict(bits=(2048, 256), n=4, th=3, dim=16)}
KERNELS = ("field.exps", "field.encode_vector", "field.decode_vector", "vss.share",
           "vss.verify", "vss.sum_shares", "vss.reconstruct", "crypto.encrypt",
           "crypto.decrypt")
ROW_KEYS = {"workload": str, "metric": str, "unit": str, "median": (int, float),
            "iqr": (int, float), "repeats": int, "values": list}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class UsageError(Exception):
    """Arguments that cannot make a sound recording."""


def git_state(checkout: Path) -> tuple[str, bool]:
    """The checkout's HEAD and whether tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain",
                                              "--untracked-files=no"))


def bench_command(workload: str, seed: int, seconds: float) -> list[str]:
    return ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}"]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run, or one kernel timing, in its own process; its last
    line, parsed."""
    if workload in KERNEL_SIZES:  # this file times them on the checkout's src/
        command = ["python3", str(Path(__file__).resolve()), "--kernels", workload,
                   "--seed", str(seed), "--seconds", f"{seconds:g}"]
    else:
        command = bench_command(workload, seed, seconds)
    out = subprocess.run(command, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["correct"] is not True:
        raise RuntimeError(f"{checkout}: {workload} seed {seed}: "
                           f"{result['failed']} of {result['attempted']} runs failed")
    return result["metrics"]


def time_kernels(workload: str, seed: int, seconds: float) -> dict:
    """Median seconds per call of each of KERNELS, in the metrics layout of
    bench/run.py, on the bftvss of the working directory's src/."""
    sys.path.insert(0, str(Path.cwd() / "src"))
    import bftvss
    from bftvss import crypto, field, vss

    if Path(bftvss.__file__).resolve().parent != Path.cwd().resolve() / "src" / "bftvss":
        raise RuntimeError(f"imported bftvss from {bftvss.__file__}, not from ./src")
    size = KERNEL_SIZES[workload]
    params = field.generate_group(*size["bits"])
    n, th, dim = size["n"], size["th"], size["dim"]
    codec = field.FixedPointCodec(16, params.q, n)
    rng = random.Random(seed)
    es = [rng.randrange(params.q) for _ in range(768)]
    secrets = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)]
    dealt = [vss.share(s, th, n, params, codec, rng) for s in secrets]
    own = [bundles[0] for bundles, _ in dealt]  # shareholder 1's, one per dealer
    summed = [vss.sum_shares([bundles[j] for bundles, _ in dealt], params)
              for j in range(n)]
    scheme = crypto.HybridScheme(params)
    a, b = scheme.keygen(rng, 2)
    encoded = codec.encode_vector(secrets[0])
    plaintext = own[0].to_bytes()
    sealed = scheme.encrypt(a.secret, b.public, plaintext, rng)
    calls = {
        "field.exps": lambda: params.exps(es),
        "field.encode_vector": lambda: codec.encode_vector(secrets[0]),
        "field.decode_vector": lambda: codec.decode_vector(encoded, dim),
        "vss.share": lambda: vss.share(secrets[0], th, n, params, codec, rng),
        "vss.verify": lambda: vss.verify(own[0], dealt[0][1], params),
        "vss.sum_shares": lambda: vss.sum_shares(own, params),
        "vss.reconstruct": lambda: vss.reconstruct(summed, th, params, codec, dim),
        "crypto.encrypt": lambda: scheme.encrypt(a.secret, b.public, plaintext, rng),
        "crypto.decrypt": lambda: scheme.decrypt(b.secret, a.public, sealed),
    }
    metrics = {}
    for name in KERNELS:
        times, start = [], perf_counter()
        while not times or perf_counter() - start < seconds / 40:
            t = perf_counter()
            calls[name]()
            times.append(perf_counter() - t)
        metrics[name] = {"value": statistics.median(times), "unit": "s"}
    return {"correct": True, "metrics": metrics}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def make_record(rev: str, dirty: bool, spec: dict, runs: dict, seed: int,
                seconds: float, repeats: int, paired_with: str | None) -> dict:
    """runs maps a workload to the metrics of each of its runs."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    rows = []
    for workload, metrics in runs.items():
        for name in KERNELS if workload in KERNEL_SIZES else units:
            values = [m[name]["value"] for m in metrics]
            rows.append({"workload": workload, "metric": name,
                         "unit": units.get(name, "s"), "median": statistics.median(values),
                         "iqr": iqr(values), "repeats": len(values), "values": values})
    return {"schema_version": SCHEMA_VERSION, "rev": rev, "dirty": dirty,
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "command": " ".join(bench_command("<workload>", seed, seconds)),
            "seed": seed, "seconds": seconds, "repeats": repeats,
            "paired_with": paired_with, "rows": rows}


def check_record(record: dict) -> list[str]:
    """Every way the record's layout departs from the schema."""
    problems = []

    def check(obj, keys, where):
        for key, kind in keys.items():
            if key not in obj:
                problems.append(f"{where}: missing {key!r}")
            # a bool is an int to isinstance, but never a count or a time
            elif (not isinstance(obj[key], kind)
                  or isinstance(obj[key], bool) and kind is not bool):
                problems.append(f"{where}: {key!r} is {type(obj[key]).__name__}")

    check(record, RECORD_KEYS, "record")
    if record.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"record: schema_version is not {SCHEMA_VERSION}")
    for i, row in enumerate(record.get("rows") or []):
        if not isinstance(row, dict):
            problems.append(f"row {i}: not an object")
            continue
        check(row, ROW_KEYS, f"row {i}")
        if isinstance(row.get("values"), list) and len(row["values"]) != row.get("repeats"):
            problems.append(f"row {i}: {len(row['values'])} values for "
                            f"{row.get('repeats')} repeats")
    if not record.get("rows"):
        problems.append("record: no rows")
    return problems


def compare(before: dict, after: dict, spec: dict) -> tuple[list[str], bool]:
    """Lines of after's median over before's per shared row, and whether a
    row got worse by more than its bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = {(r["workload"], r["metric"]): r for r in before["rows"]}
    lines = [f"{before['rev'][:7]} -> {after['rev'][:7]}"]
    differ = [f"{key} {before[key]} -> {after[key]}" for key in LIKE_FOR_LIKE
              if before[key] != after[key]]
    if differ:
        lines.append("not like for like: " + ", ".join(differ))
    worse = False
    for row in after["rows"]:
        old = base.get((row["workload"], row["metric"]))
        if old is None:
            continue
        # a row without a bound (a kernel row) is a time that fails nothing
        metric = bounds.get(row["metric"], {"better": "lower", "bound": float("inf")})
        ratio = row["median"] / old["median"]
        loss = ratio - 1 if metric["better"] == "lower" else 1 - ratio
        flag = ""
        if loss > metric["bound"]:
            flag, worse = f"  WORSE past bound {metric['bound']}", True
        elif loss < -metric["bound"]:
            flag = f"  better past bound {metric['bound']}"
        if after["paired_with"] == before["rev"]:  # runs i of both were a pair
            lower = metric["better"] == "lower"
            pairs = list(zip(old["values"], row["values"]))
            won = sum(b < a if lower else b > a for a, b in pairs)
            gap = (old["median"] - row["median"]) * (1 if lower else -1)
            label = ""
            if old["iqr"] > metric["bound"] * old["median"] and won < len(pairs):
                label = "  unresolved"
            elif 10 * won >= 9 * len(pairs) and gap > old["iqr"]:
                label = "  gain"
            flag = f"  won {won}/{len(pairs)} pairs{label}{flag}"
        lines.append(f"{row['workload']:18s} {row['metric']:14s} "
                     f"{old['median']:.6g} -> {row['median']:.6g} {row['unit']}"
                     f"  x{ratio:.3f}{flag}")
    return lines, worse


def record_name(rev: str, dirty: bool) -> str:
    return f"BENCH_{rev[:7]}{'-dirty' if dirty else ''}.json"


def record(checkouts: list[Path], workloads, seed: int, seconds: float,
           repeats: int, out_dir: Path) -> list[Path]:
    """Run every checkout repeats times per workload, interleaved, and
    write one record per checkout.  Raises UsageError, before any run, if
    two checkouts would write the same file."""
    spec = load_spec()
    states = [git_state(c) for c in checkouts]
    names = [record_name(rev, dirty) for rev, dirty in states]
    if len(set(names)) < len(names):
        raise UsageError(f"the checkouts would all write {names[0]}: they hold the "
                         f"same rev and are both clean or both dirty")
    runs = [{w: [] for w in workloads} for _ in checkouts]
    order = list(range(len(checkouts)))
    for r in range(repeats):
        for w in workloads:
            for i in order if r % 2 == 0 else order[::-1]:
                runs[i][w].append(run_bench(checkouts[i], w, seed, seconds))
                print(f"repeat {r + 1}/{repeats} {w} {states[i][0][:7]}: "
                      f"{json.dumps(runs[i][w][-1])}", file=sys.stderr, flush=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (rev, dirty) in enumerate(states):
        others = [s[0] for j, s in enumerate(states) if j != i]
        rec = make_record(rev, dirty, spec, runs[i], seed, seconds, repeats,
                          others[0] if others else None)
        path = out_dir / names[i]
        path.write_text(json.dumps(rec, indent=1) + "\n")
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--against", type=Path,
                        help="a second checkout to run interleaved with this one")
    parser.add_argument("--out-dir", type=Path, default=ROOT / "records")
    parser.add_argument("--check", type=Path, metavar="RECORD")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--kernels", choices=KERNEL_SIZES,
                        help="time the kernels of ./src at one group size")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.kernels:
        print(json.dumps(time_kernels(args.kernels, args.seed, args.seconds)))
        return 0
    if args.check:
        problems = check_record(json.loads(args.check.read_text()))
        for p in problems:
            print(f"{args.check}: {p}", file=sys.stderr)
        return 1 if problems else 0
    if args.compare:
        before, after = (json.loads(p.read_text()) for p in args.compare)
        lines, worse = compare(before, after, spec)
        print("\n".join(lines))
        return 1 if worse else 0
    if args.repeats < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--repeats must be >= 1, --seconds > 0 and --seed >= 0")
    checkouts = [ROOT] + ([args.against.resolve()] if args.against else [])
    workloads = [w["name"] for w in spec["workloads"]] + list(KERNEL_SIZES)
    try:
        paths = record(checkouts, workloads, args.seed, args.seconds, args.repeats,
                       args.out_dir)
    except UsageError as exc:
        parser.error(str(exc))
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
