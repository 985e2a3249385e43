"""Byte lock: sha256 digests of the outputs a refactor must leave unchanged.

tests/golden/lock.json holds the digest of

* every bundled scenario's result file, as ``bftvss run`` writes it;
* ``json.dumps(result.to_dict(), sort_keys=True)`` for every mode and seed
  of the default five-seed matrix (attacker 3 on the "+acumpa" modes);
* the concatenated ``weights_history`` bytes of seeds 0-2 of every mode;
* ``json.dumps(run_consensus(...), sort_keys=True)`` for n in {4, 7}, every
  consensus script and seeds 0-4, at gst 100 / delta 2 and at gst 0 / delta 1.

A change that has to move a digest regenerates the lock with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/lock.json

and says in CHANGES.md which bytes changed and why.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from bftvss.cli import run_scenario
from bftvss.dpml import MODES, TrainingConfig, run
from bftvss.scenarios import CONSENSUS_SCRIPTS, run_consensus

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
LOCK = Path(__file__).resolve().parent / "golden" / "lock.json"
MATRIX_SEEDS = range(5)
WEIGHT_SEEDS = range(3)
CONSENSUS_SEEDS = range(5)
CONSENSUS_TIMINGS = ((100, 2), (0, 1))  # (gst, delta)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def matrix_config(mode: str, seed: int) -> TrainingConfig:
    attackers = (3,) if mode.endswith("+acumpa") else ()
    return TrainingConfig(mode=mode, attackers=attackers, seed=seed)


def scenario_digests(out_root: Path) -> dict:
    out = {}
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        out_dir = out_root / path.stem
        run_scenario(str(path), out_dir=str(out_dir))
        (result,) = out_dir.glob("*.json")
        out[f"scenario/{path.name}"] = _sha(result.read_bytes())
    return out


def run_digests(runs_by_mode: dict) -> dict:
    out = {}
    for mode, runs in runs_by_mode.items():
        for seed, result in zip(MATRIX_SEEDS, runs):
            payload = json.dumps(result.to_dict(), sort_keys=True)
            out[f"matrix/{mode}/{seed}"] = _sha(payload.encode())
            if seed in WEIGHT_SEEDS:
                weights = b"".join(w.tobytes() for w in result.weights_history)
                out[f"weights/{mode}/{seed}"] = _sha(weights)
    return out


def consensus_digests() -> dict:
    out = {}
    for n in (4, 7):
        for script in CONSENSUS_SCRIPTS:
            for gst, delta in CONSENSUS_TIMINGS:
                for seed in CONSENSUS_SEEDS:
                    outcome = run_consensus(n, script, seed, gst=gst, delta=delta)
                    key = f"consensus/{n}/{script}/gst{gst}-delta{delta}/{seed}"
                    out[key] = _sha(json.dumps(outcome, sort_keys=True).encode())
    return out


def changed_keys(locked: dict, actual: dict) -> list[str]:
    return [f"{key}: locked {locked.get(key)} now {actual.get(key)}"
            for key in sorted(set(locked) | set(actual))
            if locked.get(key) != actual.get(key)]


@pytest.fixture(scope="module")
def runs_by_mode(plain_runs, baseline_attack_runs, defended_attack_runs):
    shared = {"fedavg-plain": plain_runs,
              "baseline-vss+acumpa": baseline_attack_runs,
              "ebyftves+acumpa": defended_attack_runs}
    return {mode: shared.get(mode) or [run(matrix_config(mode, s)) for s in MATRIX_SEEDS]
            for mode in MODES}


def test_outputs_match_lock(runs_by_mode, tmp_path):
    locked = json.loads(LOCK.read_text())
    actual = {**scenario_digests(tmp_path), **run_digests(runs_by_mode),
              **consensus_digests()}
    diff = changed_keys(locked, actual)
    assert not diff, "byte lock broken:\n" + "\n".join(diff)


if __name__ == "__main__":
    # run_scenario reports each result path on stdout, which carries the lock
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        digests = scenario_digests(Path(tmp))
    matrix = {mode: [run(matrix_config(mode, s)) for s in MATRIX_SEEDS] for mode in MODES}
    digests.update(run_digests(matrix))
    digests.update(consensus_digests())
    sys.stdout.write(json.dumps(digests, sort_keys=True, indent=2) + "\n")
