import collections
import random

import pytest

from bftvss import field
from bftvss.dpml import TrainingConfig, run
from bftvss.field import FixedPointCodec, GroupParams, generate_group
from group_check import validate


@pytest.fixture(scope="session")
def tiny_group() -> GroupParams:
    """Hand-checkable parameters: q = 23, p = 2q + 1 = 47, g = 2 (2^23 = 1 mod 47)."""
    params = GroupParams(p=47, q=23, g=2)
    validate(params)
    return params


@pytest.fixture(scope="session")
def group() -> GroupParams:
    """The committed 96/48 group, the test default."""
    return generate_group(96, 48)


@pytest.fixture(scope="session")
def group_2048() -> GroupParams:
    """The committed 2048/256 group."""
    return generate_group(2048, 256)


@pytest.fixture(scope="session")
def codec(group) -> FixedPointCodec:
    return FixedPointCodec(16, group.q, 4)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture()
def comb_counts(monkeypatch):
    """(built, evaluated): Counters, by base, of the field.Comb tables built
    and of the powers evaluated on them from here to the test's end."""
    built, evaluated = collections.Counter(), collections.Counter()
    init, power = field.Comb.__init__, field.Comb.pow

    def counting_init(comb, params, base):
        built[base] += 1
        init(comb, params, base)
        comb.base = base

    def counting_pow(comb, e):
        evaluated[comb.base] += 1
        return power(comb, e)

    monkeypatch.setattr(field.Comb, "__init__", counting_init)
    monkeypatch.setattr(field.Comb, "pow", counting_pow)
    return built, evaluated


# -- the default five-seed training matrix -----------------------------------
# Session-scoped: the acceptance gate and the byte lock share these runs.

SEEDS = range(5)


@pytest.fixture(scope="session")
def plain_runs():
    return [run(TrainingConfig(mode="fedavg-plain", seed=s)) for s in SEEDS]


@pytest.fixture(scope="session")
def baseline_attack_runs():
    return [run(TrainingConfig(mode="baseline-vss+acumpa", attackers=(3,), seed=s))
            for s in SEEDS]


@pytest.fixture(scope="session")
def defended_attack_runs():
    return [run(TrainingConfig(mode="ebyftves+acumpa", attackers=(3,), seed=s),
                collect_trace=True)
            for s in SEEDS]
