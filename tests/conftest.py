import random

import pytest

from bftvss.dpml import TrainingConfig, run
from bftvss.field import FixedPointCodec, GroupParams, generate_group


@pytest.fixture(scope="session")
def tiny_group() -> GroupParams:
    """Hand-checkable parameters: q = 23, p = 2q + 1 = 47, g = 2 (2^23 = 1 mod 47)."""
    params = GroupParams(p=47, q=23, g=2)
    params.validate()
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
