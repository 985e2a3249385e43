"""Host-speed calibration: wall times scaled to a reference host speed.

A shared virtual machine changes speed under the benchmark: on a 2-vCPU
Xeon VM the same code ran 1.5-1.8x slower for stretches of seconds to
minutes, longer than a run, so no statistic taken within one run removes
it.  ``HostSpeed`` times a fixed kernel that calls nothing in the program,
between units of work, and scales each time sample by

    (REFERENCE_S[kernel] / kernel time interpolated at the sample's middle) ** power

A change to the program moves the samples and not the kernel, so it shows
in full; a change of host speed moves both and mostly cancels.  Each
workload uses the kernel whose slowdowns tracked its own best, and the power
by which its time followed that kernel's (see "Variance on a shared machine"
in README.md).
"""

from __future__ import annotations

import hashlib
import hmac
import time

import numpy as np

perf = time.perf_counter

_MODULUS_2048 = (1 << 2047) + 0x2B  # any odd 2048-bit modulus does
_EXPONENT_256 = (1 << 255) + 0x1D
_KEY = bytes(range(32))


def _bigpow():
    """2048-bit modular exponentiation with 256-bit exponents, as in the
    2048/256 group's share, verify and KEM."""
    x = 3
    for i in range(4):
        x = pow(x + i, _EXPONENT_256, _MODULUS_2048)
    return x


def _smallpow():
    """Exponentiation modulo a small prime, as in the 96/48 test group."""
    return sum(pow(i, 65537, 1_000_003) for i in range(4000))


class _Node:
    __slots__ = ("key", "label")

    def __init__(self, key, label):
        self.key, self.label = key, label


def _interp():
    """Interpreter work: objects, dicts, tuples, sorting and HMAC tags, as
    in message handling, wire parsing and consensus bookkeeping."""
    table = {}
    for i in range(3000):
        node = _Node(i, str(i))
        table[(i & 255, node.label)] = node
        sorted((node.key, node.key + 1, node.key * 2))
    msg = b"m" * 200
    for i in range(1500):
        hmac.new(_KEY, msg + i.to_bytes(4, "big"), hashlib.sha256).digest()
    return len(table)


KERNELS = {"bigpow": _bigpow, "smallpow": _smallpow, "interp": _interp}
# Each kernel's time on the reference host (a 2-vCPU Xeon VM at 2.1 GHz, in
# its faster state), fastest of REPEATS.  They only set the scale: reported
# times read as wall times on that host.
REFERENCE_S = {"bigpow": 0.0127, "smallpow": 0.0033, "interp": 0.0060}
REPEATS = 3
EVERY_S = 0.1  # calibrate at most this often between units of work


class HostSpeed:
    """Calibrations of one kernel over a measurement, and scaling by them."""

    def __init__(self, kernel: str, power: float):
        self.kernel, self.power = kernel, power
        self.fn = KERNELS[kernel]
        self.at: list[float] = []  # middle of each calibration
        self.took: list[float] = []  # fastest of REPEATS kernel runs

    def calibrate(self, force: bool = False):
        """Time the kernel, unless the last calibration is under EVERY_S old."""
        t0 = perf()
        if not force and self.at and t0 - self.at[-1] < EVERY_S:
            return
        best = float("inf")
        for _ in range(REPEATS):
            a = perf()
            self.fn()
            best = min(best, perf() - a)
        self.at.append((t0 + perf()) / 2)
        self.took.append(best)

    def scale(self, samples) -> list[float]:
        """(middle, wall seconds) samples -> seconds at the reference speed."""
        if not samples:
            return []
        mid, wall = np.array(samples, dtype=np.float64).T
        kernel_s = np.interp(mid, self.at, self.took)
        return list(wall * (REFERENCE_S[self.kernel] / kernel_s) ** self.power)

    def describe(self) -> str:
        took = np.array(self.took)
        return (f"host speed: kernel {self.kernel} took {np.median(took) * 1e3:.3g} ms "
                f"(median; {took.min() * 1e3:.3g}-{took.max() * 1e3:.3g} ms) over "
                f"{len(took)} calibrations; reference {REFERENCE_S[self.kernel] * 1e3:.3g} ms, "
                f"power {self.power:g}")
