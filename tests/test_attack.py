import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bftvss import vss
from bftvss.attack import (
    AcumpaAttacker,
    DegenerateInputError,
    asdp_craft,
    cosine,
    defense_cosine_check,
    tau0,
)
from bftvss.field import FixedPointCodec

nonzero_vectors = arrays(
    float, st.integers(2, 32),
    elements=st.floats(-10, 10, allow_nan=False, width=32),
).filter(lambda v: np.linalg.norm(v) > 1e-6)


class TestCosine:
    def test_hand_values(self):
        assert cosine([1, 0], [0, 1]) == 0.0
        assert cosine([1, 0], [1, 0]) == 1.0
        assert cosine([1, 0], [-1, 0]) == -1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine([0, 0], [1, 0])


class TestTau0:
    def test_hand_value(self):
        # v = (3, 4): ||v||_1 = 7, ||v||_2 = 5, d = 2
        assert tau0([3, 4]) == pytest.approx(7 / (5 * math.sqrt(2)), abs=1e-12)

    def test_uniform_vector_floor_is_one(self):
        assert tau0([2, 2, 2, 2]) == pytest.approx(1.0, abs=1e-12)

    @given(nonzero_vectors)
    @settings(max_examples=200, deadline=None)
    def test_identity_against_sign_vector(self, v):
        # tau0 is by definition the cosine between v and sign(v) when v has
        # full support; zero coordinates only raise it, never lower it
        if np.all(np.abs(v) > 1e-9):
            assert tau0(v) == pytest.approx(cosine(v, np.sign(v)), abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            tau0([0.0, 0.0])


class TestAsdpCraft:
    def test_hand_oracle(self):
        # target (3, 4): the first step sets crafted = (0, 1) giving cosine
        # 4/5 < 0.995, so the loop stops at support 1 and rescales to norm 5
        out = asdp_craft([3.0, 4.0], 0.995)
        assert out == pytest.approx([0.0, 5.0], abs=1e-12)

    def test_full_support_hits_tau0(self):
        # with theta below tau0 the loop exhausts the support, so the output
        # is exactly the rescaled sign vector and achieves cosine tau0
        target = [3.0, 4.0]
        out = asdp_craft(target, 0.1)
        assert out == pytest.approx(np.sign(target) * (5 / math.sqrt(2)), abs=1e-12)
        assert cosine(out, target) == pytest.approx(tau0(target), abs=1e-12)

    @given(nonzero_vectors, st.floats(0.0, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_norm_preserved(self, target, theta):
        out = asdp_craft(target, theta)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(target), rel=1e-9)

    @given(nonzero_vectors, st.floats(0.0, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_cosine_at_or_below_threshold_unless_exhausted(self, target, theta):
        out = asdp_craft(target, theta)
        support = int(np.count_nonzero(out))
        assert support <= target.size
        if support < np.count_nonzero(target):
            # loop broke early: the last step pushed the cosine to the bound
            assert cosine(out, target) <= theta + 1e-9

    def test_zero_target_rejected(self):
        with pytest.raises(DegenerateInputError):
            asdp_craft([0.0, 0.0], 0.5)


class TestDefenseCheck:
    def test_accepts_aligned(self):
        assert defense_cosine_check([1, 1], [1, 1], theta_cos=0.9)

    def test_rejects_opposed(self):
        assert not defense_cosine_check([1, 1], [-1, -1], theta_cos=0.9)

    def test_boundary_slack(self):
        # crafted vectors land one discrete step below the bound
        v = [1.0, 0.0]
        u = [math.cos(0.3), math.sin(0.3)]
        theta = cosine(u, v) + 0.04
        assert defense_cosine_check(u, v, theta_cos=theta)
        assert not defense_cosine_check(u, v, theta_cos=theta + 0.1)

    def test_zero_candidate_rejected(self):
        assert not defense_cosine_check([0, 0], [1, 0], theta_cos=0.5)


class TestAcumpaAttacker:
    def _attacker(self, group, codec):
        return AcumpaAttacker(0.8, th=3, group=group, codec=codec)

    def _deal(self, secret, group, codec, rng):
        bundles, _ = vss.share(secret, 3, 4, group, codec, rng)
        return bundles

    def test_adaptive_path_reconstructs_average(self, group, codec, rng):
        attacker = self._attacker(group, codec)
        observed = {
            0: self._deal([1.0, 0.0], group, codec, rng),
            1: self._deal([0.0, 1.0], group, codec, rng),
        }
        target = attacker.observed_target(observed, 2)
        assert target == pytest.approx([0.5, 0.5], abs=1e-12)
        out, engaged = attacker.craft_submission(1, target, np.ones(2))
        assert engaged
        assert attacker.adaptive_rounds == [1]
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(target), rel=1e-9)

    def test_nothing_observed_gives_no_target(self, group, codec):
        assert self._attacker(group, codec).observed_target({}, 2) is None

    def test_below_threshold_observation_forces_fallback(self, group, codec, rng):
        attacker = self._attacker(group, codec)
        observed = {0: self._deal([1.0, 0.0], group, codec, rng)[:2]}
        target = attacker.observed_target(observed, 2)
        assert target is None
        own = np.array([3.0, 4.0])
        out, engaged = attacker.craft_submission(1, target, own)
        assert not engaged
        assert attacker.fallback_rounds == [1] and attacker.adaptive_rounds == []
        # nothing to craft against: the attacker's own update comes back as is
        assert out is own and np.array_equal(out, [3.0, 4.0])
