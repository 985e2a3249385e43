"""Acceptance gate: end-to-end checks with pinned tolerances.

Each test states its tolerance inline.  The five-seed training-matrix
fixtures live in conftest.py, session-scoped, because criteria 7-8 and the
byte lock share the same runs.
"""

import itertools
import random
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from bftvss import vss
from bftvss.attack import asdp_craft, cosine, tau0
from bftvss.cli import run_scenario
from bftvss.dpml import TrainingConfig, run
from bftvss.scenarios import run_consensus
from bftvss.vss import ShareBundle

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestCriterion1RoundTrip:
    def test_thousand_secrets_every_subset(self, group, codec):
        """1,000 random secrets, d = 16, n = 4, th = 3: every 3-subset of the
        4 shares reconstructs the secret exactly; budget 10 s."""
        rng = random.Random(2024)
        start = time.monotonic()
        for _ in range(1000):
            secret = tuple(rng.randrange(-1 << 24, 1 << 24) / codec.scale
                           for _ in range(16))
            bundles, _ = vss.share(secret, 3, 4, group, codec, rng)
            for subset in itertools.combinations(bundles, 3):
                assert vss.reconstruct(subset, 3, group, codec, 16) == secret
        assert time.monotonic() - start < 10.0


class TestCriterion2Soundness:
    def test_ten_thousand_tamperings(self, group, codec):
        """10,000 single-coordinate tamperings at q >= 2^32: zero verify
        passes; budget 30 s."""
        assert group.q >= 2**32
        rng = random.Random(99)
        dealt = []
        for _ in range(50):
            secret = [rng.randrange(-1 << 20, 1 << 20) / codec.scale]
            bundles, commits = vss.share(secret, 3, 4, group, codec, rng)
            dealt.extend((b, commits) for b in bundles)
        start = time.monotonic()
        passes = 0
        for i in range(10_000):
            bundle, commits = dealt[i % len(dealt)]
            delta = rng.randrange(1, group.q)
            tampered = ShareBundle(
                eval_point=bundle.eval_point,
                values=((bundle.values[0] + delta) % group.q,))
            passes += vss.verify(tampered, commits, group)
        assert passes == 0
        assert time.monotonic() - start < 30.0


class TestCriterion3ConsensusSafety:
    def test_hundred_runs_no_conflicting_digests(self):
        """102 seeded runs across n in {4, 7} and three adversary scripts:
        honest replicas never commit different digests; budget 60 s."""
        start = time.monotonic()
        runs = 0
        for n in (4, 7):
            for script in ("equivocating-primary", "silent-primary",
                           "inconsistent-dealer"):
                for seed in range(17):
                    out = run_consensus(n=n, script=script, seed=seed,
                                        gst=20, delta=2)
                    runs += 1
                    assert out["safety_ok"], (n, script, seed)
        assert runs >= 100
        assert time.monotonic() - start < 60.0


class TestCriterion4ConsensusLiveness:
    def test_silent_primary_commits_within_bound(self):
        """Silent Byzantine primary, GST = 100, delta = 2, n = 4 (f = 1):
        every post-GST honest request commits within 10 * delta * (f+1) = 40
        ticks, in all 50 seeded runs."""
        bound = 10 * 2 * (1 + 1)
        for seed in range(50):
            out = run_consensus(n=4, script="silent-primary", seed=seed,
                                gst=100, delta=2)
            assert out["all_committed"], seed
            assert out["commit_span"] <= bound, (seed, out["commit_span"])


class TestCriterion5Tau0Identity:
    def test_thousand_vectors(self):
        """cosine(v, sign(v)) equals ||v||_1 / (||v||_2 sqrt(d)) within 1e-9
        over 1,000 random full-support vectors."""
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(2, 64))
            v = rng.normal(size=d)
            assert abs(cosine(v, np.sign(v)) - tau0(v)) <= 1e-9


class TestCriterion6AsdpContract:
    def test_thousand_targets(self):
        """Crafted output: norm preserved within 1e-9 (relative); achieved
        cosine <= theta_cos + 1e-9 unless the support was exhausted first;
        support never exceeds d; 1,000 random targets."""
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(2, 48))
            target = rng.normal(size=d)
            theta = float(rng.uniform(0.0, 0.99))
            out = asdp_craft(target, theta)
            assert np.linalg.norm(out) == pytest.approx(
                np.linalg.norm(target), rel=1e-9)
            support = int(np.count_nonzero(out))
            assert support <= d
            if support < d:  # loop broke before exhausting the support
                assert cosine(out, target) <= theta + 1e-9


class TestCriterion7AttackEfficacy:
    def test_inference_time_degrades(self, plain_runs, baseline_attack_runs):
        """median IT(baseline under attack) >= 1.3 x median IT(plain)."""
        it_plain = statistics.median(r.it for r in plain_runs)
        it_attack = statistics.median(r.it for r in baseline_attack_runs)
        assert it_attack >= 1.3 * it_plain, (it_attack, it_plain)

    def test_accuracy_drops_in_most_seeds(self, plain_runs, baseline_attack_runs):
        """final accuracy under attack strictly below plain in >= 4 of 5 seeds."""
        worse = sum(a.final_accuracy < p.final_accuracy
                    for a, p in zip(baseline_attack_runs, plain_runs))
        assert worse >= 4, worse


class TestCriterion8DefenseRecovery:
    def test_inference_time_recovers(self, plain_runs, defended_attack_runs):
        """median IT(defended under attack) within +/-20% of plain."""
        it_plain = statistics.median(r.it for r in plain_runs)
        it_defended = statistics.median(r.it for r in defended_attack_runs)
        assert 0.8 * it_plain <= it_defended <= 1.2 * it_plain, \
            (it_defended, it_plain)

    def test_accuracy_recovers(self, plain_runs, defended_attack_runs):
        """median final accuracy within 1 percentage point of plain."""
        acc_plain = statistics.median(r.final_accuracy for r in plain_runs)
        acc_defended = statistics.median(r.final_accuracy
                                         for r in defended_attack_runs)
        assert abs(acc_plain - acc_defended) <= 0.01, (acc_defended, acc_plain)

    def test_adaptive_precondition_never_fires(self, defended_attack_runs):
        """checked on every defended run."""
        for r in defended_attack_runs:
            assert r.trace is not None
            assert r.adaptive_rounds == []


class TestCriterion9HonestPathEquivalence:
    def test_defended_equals_plain_per_round(self):
        """zero attackers: defended weights match plain weights within
        n * 2^-16 per coordinate, every round, seeds 0-2."""
        tol = 4 * 2.0 ** -16
        for seed in range(3):
            plain = run(TrainingConfig(mode="fedavg-plain", seed=seed))
            defended = run(TrainingConfig(mode="ebyftves", seed=seed))
            assert len(defended.weights_history) == len(plain.weights_history)
            for t, (wp, wd) in enumerate(zip(plain.weights_history,
                                             defended.weights_history), start=1):
                diff = float(np.max(np.abs(wp - wd)))
                assert diff < tol, (seed, t, diff)


class TestCriterion10Determinism:
    @pytest.mark.parametrize("scenario", sorted(
        p.name for p in SCENARIO_DIR.glob("*.json")))
    def test_bundled_scenarios_byte_identical(self, scenario, tmp_path):
        """repeated runs of every bundled scenario produce byte-identical
        result files."""
        outputs = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / attempt
            rc = run_scenario(str(SCENARIO_DIR / scenario),
                              out_dir=str(out_dir))
            assert rc == 0, f"{scenario}: assertion failed on rerun"
            files = sorted(out_dir.glob("*.json"))
            assert len(files) == 1
            outputs.append(files[0].read_bytes())
        assert outputs[0] == outputs[1]

    def test_scenario_dir_is_populated(self):
        assert len(list(SCENARIO_DIR.glob("*.json"))) >= 6
