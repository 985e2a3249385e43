"""Share-delay model poisoning: crafting, orchestration, and the similarity
check it is built to skirt.

The crafting loop builds a sparse sign vector over the target's largest
coordinates, stopping as soon as the running cosine drops to the threshold
theta_cos, then rescales to the target's norm.  At full support the achieved
cosine equals the closed-form floor ||v||_1 / (||v||_2 * sqrt(d)), which is
also exposed here as a testable identity.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import vss
from .field import FixedPointCodec, GroupParams


class DegenerateInputError(Exception):
    """Zero vector where a direction is required."""


def cosine(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DegenerateInputError("cosine undefined for zero vector")
    c = float(np.dot(u, v)) / (nu * nv)
    return min(1.0, max(-1.0, c))


def tau0(v) -> float:
    """Cosine between v and its own sign vector: ||v||_1 / (||v||_2 sqrt(d)).

    This is the similarity floor a full-support substitute sign vector
    achieves against v.
    """
    v = np.asarray(v, dtype=float)
    n2 = float(np.linalg.norm(v))
    if n2 == 0.0:
        raise DegenerateInputError("tau0 undefined for zero vector")
    return float(np.sum(np.abs(v))) / (n2 * math.sqrt(v.size))


def asdp_craft(target, theta_cos: float) -> np.ndarray:
    """Craft a substitute for `target` with the same norm, sitting at the
    cosine boundary.

    Coordinates are visited in descending |target| order; each step sets the
    sign entry, bumps the running squared norm by 1, and breaks
    once the running cosine falls to theta_cos or the support is exhausted.
    The final rescale uses the true norm of the crafted vector so the output
    norm matches the target exactly.
    """
    target = np.asarray(target, dtype=float)
    target_norm = float(np.linalg.norm(target))
    if target_norm == 0.0:
        raise DegenerateInputError("cannot craft against a zero target")
    order = np.argsort(-np.abs(target), kind="stable")
    signs = np.sign(target)
    crafted = np.zeros_like(target)
    indicator = 0.0
    norm_squared = 0.0
    for idx in order:
        crafted[idx] = signs[idx]
        indicator += target[idx] * crafted[idx]
        norm_squared += 1.0
        cos = indicator / (target_norm * math.sqrt(norm_squared))
        if cos <= theta_cos:
            break
    true_norm = float(np.linalg.norm(crafted))
    return crafted * (target_norm / true_norm)


def defense_cosine_check(candidate, reference, theta_cos: float,
                         boundary_slack: float = 0.05) -> bool:
    """Similarity filter: accept a candidate whose cosine against the
    reference clears the bound.  A small slack below the bound is tolerated
    because the crafting loop lands one discrete step under it; crafted
    vectors therefore sit exactly at the acceptance boundary."""
    try:
        c = cosine(candidate, reference)
    except DegenerateInputError:
        return False
    return c >= theta_cos - boundary_slack


class AcumpaAttacker:
    """State for one malicious dealer across training rounds.

    Each round it tries the adaptive path: reconstruct every honest dealer's
    secret from observed shares, average them, and craft against that
    average.  When fewer than th shares per dealer are observable before the
    submission deadline (in the defended workflow an attacker that reads
    only its own shares never sees more than one per dealer), it has nothing
    to craft against: it records the round and hands back its own honest
    update.
    """

    def __init__(self, theta_cos: float, th: int, group: GroupParams,
                 codec: FixedPointCodec):
        self.theta_cos = theta_cos
        self.th = th
        self.group = group
        self.codec = codec
        self.adaptive_rounds: list[int] = []
        self.fallback_rounds: list[int] = []

    def observed_target(self, observed: dict[int, list[vss.ShareBundle]],
                        dim: int) -> Optional[np.ndarray]:
        """Reconstruct the honest average of dim coordinates from observed
        shares, or None when any dealer is short of th usable shares."""
        if not observed:
            return None
        secrets = []
        for dealer, bundles in observed.items():
            distinct = {b.eval_point: b for b in bundles}
            if len(distinct) < self.th:
                return None
            secrets.append(vss.reconstruct(distinct.values(), self.th, self.group,
                                           self.codec, dim))
        return np.mean(np.array(secrets, dtype=float), axis=0)

    def craft_submission(self, round_index: int, target: Optional[np.ndarray],
                         own_update: np.ndarray) -> tuple[np.ndarray, bool]:
        """Return (vector to submit, adaptive_engaged), crafted against
        observed_target's reconstruction, or own_update when there is none,
        and record the round as adaptive or fallback."""
        if target is not None and float(np.linalg.norm(target)) > 0:
            self.adaptive_rounds.append(round_index)
            return asdp_craft(target, self.theta_cos), True
        self.fallback_rounds.append(round_index)
        return own_update, False
