"""The four workloads, their correctness checks, and the metrics they report.

Imported by run.py once the checkout's src/ is on the path.  Metric
definitions and the reasons behind each workload are in README.md.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from bftvss import dpml, scenarios
from bftvss.consensus import MsgKind
from hostspeed import HostSpeed
from probe import SPAN_NAMES, Tracer

WORKLOADS = ("defended-2048", "defended-n10", "baseline-attack", "consensus-faults")

# Training workloads: TrainingConfig fields besides the seed.  gst=0 on
# purpose: see "Why gst=0" in README.md.
TRAINING = {
    "defended-2048": dict(mode="ebyftves+acumpa", attackers=(3,), n=4, f=1, th=3,
                          dim=16, bits_p=2048, bits_q=256, gst=0, rounds=3),
    "defended-n10": dict(mode="ebyftves", n=10, f=3, th=4, dim=16, gst=0, rounds=10),
    "baseline-attack": dict(mode="baseline-vss+acumpa", attackers=(3,), n=4, f=1,
                            th=3, dim=256, rounds=10),
}
# consensus-faults: every script on consecutive seeds from seed * SEED_STRIDE,
# each agreement a new input.  The agreements of BLOCK_SEEDS seeds form a block,
# timed as one sample.  Tick statistics and the traced per-layer numbers come
# from the first TICK_BLOCK agreements only, so that they do not depend on how
# many agreements the machine gets through.  Requests are submitted at GST
# (the run_consensus default): see "consensus-faults runs after GST" in
# README.md.
CONSENSUS = dict(n=7, gst=100, delta=2)
# The host-speed kernel whose slowdowns tracked each workload's best, and the
# power of the kernel's slowdown by which the workload's time slowed: see
# hostspeed.py and "Variance on a shared machine" in README.md.
KERNEL = {"defended-2048": ("bigpow", 1.0), "defended-n10": ("interp", 0.86),
          "baseline-attack": ("smallpow", 1.0), "consensus-faults": ("interp", 1.0)}
SEED_STRIDE = 1_000_000
BLOCK_SEEDS = 4
TICK_BLOCK = 400

MIN_RUNS = 2  # training runs per untraced pass, so set-up time has a median
MAX_SPANS = 1_000_000  # a traced pass starts no new run past this many spans
TAIL_CAP = 90.0  # highest percentile a tail reports

# Every metric's unit, as BENCHMARK.json declares it.
_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}

perf = time.perf_counter


@dataclass
class Measurement:
    """Samples from one pass over a workload.  A time sample is a pair
    (middle, wall seconds); ``speed`` scales it to the reference host."""

    speed: HostSpeed
    setups: list = dc_field(default_factory=list)  # entry to first unit of work
    units: list = dc_field(default_factory=list)  # per round or agreement block
    ticks: list = dc_field(default_factory=list)  # virtual ticks per unit
    attempted: int = 0
    failed: int = 0
    errors: list = dc_field(default_factory=list)
    records: list = dc_field(default_factory=list)

    def fail(self, problem: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(problem[:300])


@dataclass
class Report:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    lines: list
    errors: list


def _call(m, probe, fn, *args, **kwargs):
    """Run one program call under the probe.  Any exception is a failed run;
    the first one's traceback goes to standard error."""
    rec = probe.begin()
    try:
        out, problem = fn(*args, **kwargs), None
    except Exception as exc:  # every failure counts, whatever its type
        out, problem = None, f"{type(exc).__name__}: {exc}"
        if not m.failed:
            traceback.print_exc(limit=5, file=sys.stderr)
    finally:
        probe.end()
    return rec, out, problem


# -- correctness checks: each returns None or what is wrong -------------------


def _reference(cfg):
    """fedavg-plain on the same task: the plain single-worker baseline."""
    return dpml.run(replace(cfg, mode="fedavg-plain", attackers=()))


def check_defended_2048(cfg, result):
    if result.adaptive_rounds:
        return f"adaptive attack engaged in rounds {result.adaptive_rounds}"
    return None


def check_defended_n10(cfg, result):
    plain = _reference(cfg)
    if len(plain.weights_history) != len(result.weights_history):
        return "round count differs from the fedavg-plain reference"
    tol = cfg.n * 2.0 ** -cfg.fraction_bits
    for t, (wp, wd) in enumerate(zip(plain.weights_history, result.weights_history), 1):
        diff = float(np.max(np.abs(wp - wd)))
        if not diff < tol:
            return f"round {t}: weights differ from fedavg-plain by {diff} >= {tol}"
    return None


def check_baseline_attack(cfg, result):
    rounds = list(range(1, len(result.metrics) + 1))
    if result.adaptive_rounds != rounds:
        return f"adaptive attack engaged in {result.adaptive_rounds}, not every round"
    plain = _reference(cfg)
    if not result.final_accuracy < plain.final_accuracy:
        return (f"final accuracy {result.final_accuracy} not below the plain "
                f"reference {plain.final_accuracy}")
    return None


CHECKS = {
    "defended-2048": check_defended_2048,
    "defended-n10": check_defended_n10,
    "baseline-attack": check_baseline_attack,
}


def check_agreement(out):
    f = (CONSENSUS["n"] - 1) // 3
    bound = 10 * CONSENSUS["delta"] * (f + 1)
    if not out["safety_ok"]:
        return "honest replicas committed different digests"
    if not out["all_committed"]:
        return "not every honest replica committed"
    if out["commit_span"] > bound:
        return f"commit span {out['commit_span']} > {bound} ticks"
    return None


# -- workload loops -----------------------------------------------------------


def measure_training(name, seed, seconds, min_runs, probe, speed, more):
    cfg = dpml.TrainingConfig(seed=seed, **TRAINING[name])
    m = Measurement(speed)
    t0 = perf()
    while m.attempted < min_runs or (perf() - t0 < seconds and more()):
        speed.calibrate(force=True)
        m.attempted += 1
        rec, result, problem = _call(m, probe, dpml.run, cfg)
        if problem is None:
            try:
                problem = CHECKS[name](cfg, result)
            except Exception as exc:  # a check that cannot run fails the run
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            m.fail(problem)
            continue
        m.setups.append(((rec.entry + rec.first_work) / 2, rec.first_work - rec.entry))
        t_prev, clock_prev = rec.first_work, 0
        for t_end, t_next, clock in rec.marks:
            m.units.append(((t_prev + t_end) / 2, t_end - t_prev))
            m.ticks.append(clock - clock_prev)
            t_prev, clock_prev = t_next, clock
        m.records.append(rec)
    speed.calibrate(force=True)
    return m


def measure_consensus(seed, seconds, min_runs, probe, speed, more):
    m = Measurement(speed)
    speed.calibrate(force=True)
    t0 = perf()
    s = seed * SEED_STRIDE
    while m.attempted < min_runs * TICK_BLOCK or (perf() - t0 < seconds and more()):
        speed.calibrate()
        block = []
        for block_seed in range(s, s + BLOCK_SEEDS):
            for script in scenarios.CONSENSUS_SCRIPTS:
                m.attempted += 1
                rec, out, problem = _call(m, probe, scenarios.run_consensus,
                                          CONSENSUS["n"], script, block_seed,
                                          gst=CONSENSUS["gst"], delta=CONSENSUS["delta"])
                if problem is None:
                    problem = check_agreement(out)
                if problem is not None:
                    m.fail(problem)
                    continue
                block.append(rec)
                if m.attempted <= TICK_BLOCK:
                    m.ticks.append(out["commit_span"])
        if len(m.records) < TICK_BLOCK:
            m.records += block
        # Agreements differ in cost by script, and short host bursts hit
        # single agreements; a block's mean keeps percentiles off both.
        if len(block) == BLOCK_SEEDS * len(scenarios.CONSENSUS_SCRIPTS):
            mid = (block[0].entry + block[-1].exit) / 2
            m.setups.append((mid, sum(r.first_work - r.entry for r in block) / len(block)))
            m.units.append((mid, sum(r.exit - r.first_work for r in block) / len(block)))
        s += BLOCK_SEEDS
    speed.calibrate(force=True)
    return m


def measure(workload, seed, seconds, min_runs, probe, speed, more=lambda: True):
    if workload == "consensus-faults":
        return measure_consensus(seed, seconds, min_runs, probe, speed, more)
    return measure_training(workload, seed, seconds, min_runs, probe, speed, more)


# -- statistics and reports ---------------------------------------------------


def median(xs):
    return float(np.median(xs)) if xs else 0.0


def tail(xs):
    """The highest percentile with at least ten samples beyond it, kept
    between the median and TAIL_CAP; returns (value, percentile).

    The sample count of a timed run grows with the program's speed, so
    without the cap a faster program would report a more extreme percentile.
    Past p90 the percentile is set by bursts of host slowness too short for
    a calibration to see, which differ from run to run."""
    if not xs:
        return 0.0, 50.0
    pct = min(TAIL_CAP, max(50.0, 100.0 * (1.0 - 10.0 / len(xs))))
    return float(np.percentile(xs, pct)), pct


def end_to_end(workload, m):
    """The end-to-end metrics, at the reference host speed, plus the lines
    that describe them and the wall times they were scaled from."""
    label = "agreement_s" if workload == "consensus-faults" else "round_s"
    units, setups = m.speed.scale(m.units), m.speed.scale(m.setups)
    t, pct = tail(units)
    metrics = {"setup_s": median(setups), "round_s.p50": median(units),
               "round_s.tail": t}
    wall_units = [w for _, w in m.units]
    wall_tail, _ = tail(wall_units)
    if workload == "consensus-faults":
        what = (f"{len(units)} blocks: mean over {len(scenarios.CONSENSUS_SCRIPTS)} "
                f"scripts on {BLOCK_SEEDS} seeds")
        set_ups = f"{len(setups)} blocks"
    else:
        what, set_ups = f"{len(units)} rounds", f"{len(setups)} set-ups"
    lines = [
        f"setup_s = {metrics['setup_s']:.6g} s (median of {set_ups})",
        f"{label}.p50 = {metrics['round_s.p50']:.6g} s ({what})",
        f"{label}.tail = {t:.6g} s (p{pct:.2f} of {what})",
        f"unscaled wall times: setup_s {median([w for _, w in m.setups]):.6g} s, "
        f"{label}.p50 {median(wall_units):.6g} s, .tail {wall_tail:.6g} s",
        m.speed.describe(),
    ]
    if workload == "consensus-faults":
        tk, tpct = tail(m.ticks)
        lines.append(f"commit_span_ticks.p50 = {median(m.ticks):g} ticks, "
                     f".tail = {tk:g} ticks (p{tpct:.2f} of {len(m.ticks)} agreements)")
    elif any(r.used_sim for r in m.records):
        lines.append(f"round_ticks = {sum(m.ticks) / len(m.ticks):g} ticks per round")
    lines.append(f"errors = {m.failed}/{m.attempted}")
    return metrics, lines


def per_layer(workload, m, untraced, tracer):
    """Per-layer metrics of a traced pass, each per round or per agreement,
    plus a line comparing the sum of self times with the traced round."""
    training = workload != "consensus-faults"
    unit = "round" if training else "agreement"
    # training repeats identical runs; agreements differ, so take a fixed set
    records = m.records if training else m.records[:TICK_BLOCK]
    windows, units = {}, 0
    for rec in records:
        if not training:
            windows[rec.run_id] = (rec.first_work, rec.exit)
            units += 1
        elif rec.marks:
            windows[rec.run_id] = (rec.first_work, rec.marks[-1][0])
            units += len(rec.marks)
    per = 1.0 / max(units, 1)
    stats = tracer.self_times(windows)
    out = {}
    for name in SPAN_NAMES:
        calls, self_s, _ = stats[name]
        out[f"{name}.calls"] = calls * per
        out[f"{name}.self_s"] = self_s * per
    out["field.generate_group.setup_s"] = 0.0
    if training:
        setups = {r.run_id: (r.entry, r.first_work) for r in records}
        _, group_s, _ = tracer.self_times(setups)["field.generate_group"]
        out["field.generate_group.setup_s"] = group_s / max(len(setups), 1)
    out["netsim.Simulator.run.events"] = sum(r.events for r in records) * per
    for kind in MsgKind:
        out[f"consensus.msgs.{kind.name}"] = sum(r.msgs[kind.name] for r in records) * per
        out[f"consensus.bytes.{kind.name}"] = sum(r.bytes[kind.name] for r in records) * per
    out["consensus.view_changes"] = sum(r.view_changes for r in records) * per
    out["consensus.dropped"] = sum(r.dropped for r in records) * per
    for metric, span in (("vss.verify.pass_ratio", "vss.verify"),
                         ("crypto.decrypt.ok_ratio", "crypto.decrypt"),
                         ("attack.adaptive_ratio", "attack.craft_submission")):
        calls, _, good = stats[span]
        out[metric] = good / calls if calls else 0.0
    out["round_ticks"] = sum(r.marks[-1][2] for r in records if r.marks) * per
    out["round_bytes"] = sum(sum(r.bytes.values()) for r in records) * per if training else 0.0
    out["commit_span_ticks.p50"] = 0.0 if training else median(m.ticks)
    out["commit_span_ticks.tail"] = 0.0 if training else tail(m.ticks)[0]
    out["trace.round_s"] = sum(b - a for a, b in windows.values()) * per
    out["trace.overhead_s"] = (median(m.speed.scale(m.units))
                               - median(untraced.speed.scale(untraced.units)))
    self_sum = sum(stats[n][1] for n in SPAN_NAMES) * per
    note = (f"self times sum to {self_sum:.6g} s per {unit}; traced {unit} "
            f"{out['trace.round_s']:.6g} s; {units} {unit}s, {len(tracer)} spans")
    return out, note


def run_workload(probe, workload, seed, seconds, traced, span_dir: Path) -> Report:
    """Untraced: measure for `seconds` and report the end-to-end metrics.
    Traced: measure half untraced, install the tracer, measure half traced on
    the same inputs, write the spans, and report the per-layer metrics."""
    speed = HostSpeed(*KERNEL[workload])
    probe.between_rounds = speed.calibrate  # at most every EVERY_S
    if not traced:
        m = measure(workload, seed, seconds, MIN_RUNS, probe, speed)
        metrics, lines = end_to_end(workload, m)
        return Report(m.attempted, m.failed,
                      {k: (v, UNITS[k]) for k, v in metrics.items()},
                      lines, m.errors)
    untraced = measure(workload, seed, seconds / 2, 1, probe, speed)
    # a calibration inside a traced round would count as dpml.run self time
    probe.between_rounds = None
    tracer = Tracer(probe)
    m = measure(workload, seed, seconds / 2, 1, probe, speed,
                lambda: len(tracer) < MAX_SPANS)
    metrics, note = per_layer(workload, m, untraced, tracer)
    span_dir.mkdir(exist_ok=True)
    span_file = span_dir / f"spans-{workload}-seed{seed}.npz"
    tracer.save(span_file)
    attempted = untraced.attempted + m.attempted
    failed = untraced.failed + m.failed
    lines = [f"{k} = {v:.6g} {UNITS[k]}" for k, v in metrics.items()]
    lines += [note, f"spans written to {span_file}", f"errors = {failed}/{attempted}"]
    return Report(attempted, failed, {k: (v, UNITS[k]) for k, v in metrics.items()},
                  lines, untraced.errors + m.errors)
