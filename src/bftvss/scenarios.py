"""Scripted consensus runs used by the CLI and the test suite.

Each run drives one slot of agreement among n replicas with one optional
Byzantine script, then reports per-replica commit digests and times so the
caller can check agreement and progress bounds.
"""

from __future__ import annotations

import random

from .consensus import Replica
from .crypto import KeyRing
from .netsim import (
    AdversaryPolicy,
    EquivocatingPrimary,
    InconsistentSender,
    SilentNode,
    SimConfig,
    Simulator,
)

# script -> (the Byzantine replica's id modulo n, or None; its class)
_BEHAVIOURS = {
    "none": (None, Replica),
    "silent-primary": (0, SilentNode),
    "equivocating-primary": (0, EquivocatingPrimary),
    "inconsistent-dealer": (-1, InconsistentSender),
}

CONSENSUS_SCRIPTS = tuple(_BEHAVIOURS)


def run_consensus(n: int, script: str, seed: int, gst: int = 0, delta: int = 1,
                  request_time: int | None = None) -> dict:
    """Run one scripted agreement on slot 0 and summarize the outcome.

    Honest replicas, and an inconsistent dealer, submit their requests at
    request_time (default: GST).
    Returns commit digests/times, a safety verdict over the honest replicas,
    and how long the slowest honest commit took after submission.
    """
    if script not in CONSENSUS_SCRIPTS:
        raise ValueError(f"unknown script {script!r}")
    if request_time is not None and request_time < 0:
        raise ValueError("request_time must be non-negative")
    f = (n - 1) // 3
    config = SimConfig(n=n, f=f, gst=gst, delta=delta, seed=seed)
    position, behaviour = _BEHAVIOURS[script]
    byzantine = None if position is None else position % n

    keyring = KeyRing(range(n), random.Random(seed * 97 + 3))
    nodes = {i: (behaviour if i == byzantine else Replica)(i, n, f, keyring, delta=delta)
             for i in range(n)}

    corrupt = frozenset() if byzantine is None else frozenset({byzantine})
    sim = Simulator(config, nodes, AdversaryPolicy(corrupt=corrupt))

    commits: dict[int, dict] = {}
    honest = [i for i in range(n) if i != byzantine]
    waiting = set(honest)  # honest replicas yet to commit slot 0

    def listen(rid, sq, view, digest):
        if sq == 0 and rid not in commits:
            commits[rid] = {"view": view, "digest": digest.hex(), "time": sim.clock}
            waiting.discard(rid)

    for node in nodes.values():
        node.commit_listener = listen  # a SilentNode never calls it

    # an inconsistent dealer's fault lives in its own requests
    submitters = [i for i in range(n)
                  if i != byzantine or behaviour is InconsistentSender]
    submit_at = gst if request_time is None else request_time

    def submit():
        for i in submitters:
            nodes[i].broadcast_update(0, b"round-%d-req" % i)

    if submit_at <= 0:
        submit()
    else:
        sim.schedule_call(submit_at, submit)

    sim.run(until=lambda: not waiting)

    honest_digests = {commits[i]["digest"] for i in honest if i in commits}
    all_committed = all(i in commits for i in honest)
    commit_span = (
        max(commits[i]["time"] for i in honest) - submit_at
        if all_committed else None
    )
    return {
        "n": n,
        "f": f,
        "script": script,
        "seed": seed,
        "gst": gst,
        "delta": delta,
        "request_time": submit_at,
        "commits": {str(i): commits[i] for i in sorted(commits)},
        "safety_ok": len(honest_digests) <= 1,
        "all_committed": all_committed,
        "commit_span": commit_span,
        "max_view": max((commits[i]["view"] for i in honest if i in commits),
                        default=0),
    }
