"""Distributed training workflows over the toy task.

Every mode shares the same data, initialization, local-update rule and
round bookkeeping (_Coordinator: metrics, divergence check, early stop).
Two drivers run the rounds:

* the local round loop (run_local) trains every participant in one
  process and differs per mode only in its aggregate step:
  - fedavg-plain: the plain mean of the updates, no sharing, no adversary;
  - baseline-vss: every participant deals its updated parameters through
    verifiable secret sharing with plaintext point-to-point shares and
    independent verification; aggregation is not consensus-gated.  With
    "+acumpa" a malicious dealer delays its submission, reconstructs the
    honest average from eavesdropped shares, and submits a crafted vector.
* the consensus workflow (run_defended) runs ebyftves, the defended mode,
  over the network simulator.  Each participant is a consensus replica
  (WorkflowParticipant) and a malicious one is a subclass of it
  (DelayedDealerNode for "+acumpa").  Each round occupies three consensus
  slots: encrypted shares plus commitments, then bundled verification
  votes, then aggregated sum shares.  A request carries only what its
  receivers cannot derive: its dealer, voter or sender is its authenticated
  origin, the slot gives its kind, th splits the commitments into rows, and
  a share's evaluation point is its holder's id + 1.  What defends against
  the delaying dealer is share encryption: it opens only the shares dealt
  to itself, never th of one honest dealer's, so it cannot reconstruct the
  honest updates, and a dealer that has submitted nothing when the share
  slot commits is left out of the round.  The commit deadline alone does not
  defend: with encryption "identity" the attacker sees every share before
  the slot commits, and its crafted update enters every round.

Division by the dealer count happens after reconstruction, in the real
domain; the field only ever sees sums.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import training, vss, wire
from .attack import FALLBACKS, AcumpaAttacker, AsdpParams
from .consensus import MsgKind, Replica
from .crypto import SCHEMES, DecryptionError, KeyRing, make_scheme
from .field import GROUPS, EncodingRangeError, FixedPointCodec, GroupParams, generate_group
from .netsim import AdversaryPolicy, SimConfig, Simulator, Trace

MODES = (
    "fedavg-plain",
    "baseline-vss",
    "baseline-vss+acumpa",
    "ebyftves",
    "ebyftves+acumpa",
)

RESULT_SCHEMA_VERSION = 1

# accepted value types per TrainingConfig field annotation (attackers: per id)
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str,
                "tuple[int, ...]": int}


class WorkflowError(Exception):
    """A training run could not complete (stalled slot, empty dealer set,
    diverging replicas)."""


@dataclass(frozen=True)
class TrainingConfig:
    n: int = 4
    f: int = 1
    th: int = 3
    rounds: int = 30
    error_threshold: float = 0.05
    learning_rate: float = 0.1
    dim: int = 16
    samples: int = 400
    test_samples: int = 1000
    flip_rate: float = 0.02
    mode: str = "fedavg-plain"
    attackers: tuple[int, ...] = ()
    theta_cos: float = 0.8
    tau: float = 0.90
    fraction_bits: int = 16
    bits_p: int = 96
    bits_q: int = 48
    seed: int = 0
    asdp_delta: float = 1.0
    fallback: str = "stale-or-random"
    encryption: str = "hybrid"
    gst: int = 0
    delta: int = 1

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            items = value if f.name == "attackers" else (value,)
            if not all(isinstance(v, _FIELD_TYPES[f.type]) and not isinstance(v, bool)
                       for v in items):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        # n = 3f + 1, gst >= 0, delta >= 1: the simulator's own checks
        SimConfig(n=self.n, f=self.f, gst=self.gst, delta=self.delta)
        # th <= f would let f colluders reconstruct a secret on their own;
        # th > n - f would leave the n - f honest aggregated shares short
        if not self.f < self.th <= self.n - self.f:
            raise ValueError("threshold must satisfy f < th <= n - f")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not set(self.attackers) <= set(range(self.n)):
            raise ValueError("attacker ids must be participant ids")
        if len(self.attackers) > self.f:
            raise ValueError(f"at most f={self.f} attackers allowed")
        attacked = self.mode.endswith("+acumpa")
        if attacked and not self.attackers:
            raise ValueError("attack mode needs a non-empty attacker set")
        if not attacked and self.attackers:
            raise ValueError(f"mode {self.mode!r} does not take attackers")
        if min(self.rounds, self.dim, self.samples, self.test_samples) < 1:
            raise ValueError("rounds, dim, samples and test_samples must be positive")
        if self.seed < 0 or self.fraction_bits < 0:
            raise ValueError("seed and fraction_bits must be non-negative")
        if (self.bits_p, self.bits_q) not in GROUPS:
            raise ValueError(f"(bits_p, bits_q) must be one of {sorted(GROUPS)}")
        AsdpParams(theta_cos=self.theta_cos, delta=self.asdp_delta)
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if self.encryption not in SCHEMES:
            raise ValueError(f"unknown encryption scheme {self.encryption!r}")
        if self.fallback not in FALLBACKS:
            raise ValueError(f"unknown fallback policy {self.fallback!r}")


@dataclass(frozen=True)
class RoundMetrics:
    t: int
    accuracy: float
    train_error: float
    dealer_count: int
    adaptive_engaged: bool = False
    fallback_engaged: bool = False


def compute_inference_time(accuracies, tau: float) -> float:
    """First (1-indexed) round with accuracy >= tau; inf if never reached."""
    for t, acc in enumerate(accuracies, start=1):
        if acc >= tau:
            return float(t)
    return math.inf


@dataclass
class RunResult:
    config: TrainingConfig
    metrics: list[RoundMetrics]
    weights_history: list[np.ndarray]
    adaptive_rounds: list[int]
    fallback_rounds: list[int]
    stopped_early: bool
    trace: Optional[Trace] = None

    @property
    def accuracy_series(self) -> list[float]:
        return [m.accuracy for m in self.metrics]

    @property
    def it(self) -> float:
        return compute_inference_time(self.accuracy_series, self.config.tau)

    @property
    def final_accuracy(self) -> float:
        return self.metrics[-1].accuracy

    def to_dict(self) -> dict:
        it = self.it
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "mode": self.config.mode,
            "seed": self.config.seed,
            "config": asdict(self.config),
            "rounds": [asdict(m) for m in self.metrics],
            "accuracy": self.accuracy_series,
            "it": None if math.isinf(it) else int(it),
            "final_accuracy": self.final_accuracy,
            "adaptive_rounds": list(self.adaptive_rounds),
            "fallback_rounds": list(self.fallback_rounds),
            "stopped_early": self.stopped_early,
        }


# -- shared setup ------------------------------------------------------------


def _task(config: TrainingConfig):
    base = config.seed * 7919
    w_true = training.make_true_weights(config.dim, base + 1)
    datasets = [
        training.make_dataset(config.dim, config.samples, w_true,
                              base + 100 + i, config.flip_rate)
        for i in range(config.n)
    ]
    test = training.make_dataset(config.dim, config.test_samples, w_true,
                                 base + 99, config.flip_rate)
    w0 = training.initial_weights(config.dim, base + 2)
    return datasets, test, w0


class _Coordinator:
    """Experiment harness shared by every mode and participant: computes the
    metrics once per round, checks that everyone arrived at bit-identical
    weights, and makes the (global, deterministic) continue/stop call."""

    def __init__(self, config: TrainingConfig, datasets, test):
        self.config = config
        self.datasets = datasets
        self.test = test
        self.metrics: list[RoundMetrics] = []
        self.weights_history: list[np.ndarray] = []
        self._decisions: dict[int, bool] = {}
        self._weight_bytes: dict[int, bytes] = {}

    def round_complete(self, pid: int, t: int, w: np.ndarray, dealer_count: int) -> bool:
        key = w.tobytes()
        if t in self._decisions:
            if key != self._weight_bytes[t]:
                raise WorkflowError(
                    f"round {t}: participant {pid} reconstructed divergent weights")
            return self._decisions[t]
        self._weight_bytes[t] = key
        m = RoundMetrics(
            t=t, accuracy=training.accuracy(w, self.test),
            train_error=float(np.mean([training.loss(w, d) for d in self.datasets])),
            dealer_count=dealer_count)
        self.metrics.append(m)
        self.weights_history.append(w.copy())
        go = m.train_error > self.config.error_threshold and t < self.config.rounds
        self._decisions[t] = go
        return go


def _make_attacker(config: TrainingConfig, pid: int, group: GroupParams,
                   codec: FixedPointCodec) -> AcumpaAttacker:
    params = AsdpParams(theta_cos=config.theta_cos, delta=config.asdp_delta)
    return AcumpaAttacker(pid, params, config.th, group, codec,
                          seed=config.seed * 100003 + 500 + pid,
                          fallback=config.fallback)


# -- local round loop: fedavg-plain and baseline-vss ---------------------------


def _mean_step(config: TrainingConfig):
    """fedavg-plain aggregate step: the plain mean of every update."""
    def step(t, updates):
        return np.mean(updates, axis=0), config.n
    return step, {}


def _baseline_step(config: TrainingConfig):
    """baseline-vss aggregate step: every dealer's shares travel in plaintext
    over point-to-point channels and are verified independently; nothing is
    consensus-gated."""
    group = generate_group(config.bits_p, config.bits_q)
    codec = FixedPointCodec(config.fraction_bits, group.q, config.n)
    share_rng = random.Random(config.seed * 100003 + 7)
    attackers = {pid: _make_attacker(config, pid, group, codec)
                 for pid in config.attackers}

    def deal(vector):
        return vss.share(vector, config.th, config.n, group, codec, share_rng)

    def step(t, updates):
        bundles: dict[int, list[vss.ShareBundle]] = {}
        commits: dict[int, vss.CommitmentVector] = {}
        for i in range(config.n):
            if i not in attackers:
                bundles[i], commits[i] = deal(updates[i])
        # a delaying dealer sees every honest share before it has to submit
        observed = {d: list(bs) for d, bs in bundles.items()}
        for pid in sorted(attackers):
            vec, _ = attackers[pid].craft_submission(t, observed, updates[pid])
            bundles[pid], commits[pid] = deal(vec)
        # each dealer counts its own share as verified, unchecked
        accepted = sorted(
            d for d, bs in bundles.items()
            if 1 + sum(vss.verify(b, commits[d], group)
                       for j, b in enumerate(bs) if j != d) >= config.n - config.f)
        if not accepted:
            raise WorkflowError(f"round {t}: no dealer cleared verification")
        summed = [vss.sum_shares([bundles[d][j] for d in accepted], group)
                  for j in range(config.n)]
        total = vss.reconstruct(summed, config.th, group, codec, config.dim)
        return np.asarray(total) / len(accepted), len(accepted)

    return step, attackers


def run_local(config: TrainingConfig) -> RunResult:
    """One process trains every participant; the modes differ only in how a
    round's updates are aggregated."""
    datasets, test, w = _task(config)
    make_step = _mean_step if config.mode == "fedavg-plain" else _baseline_step
    step, attackers = make_step(config)
    coordinator = _Coordinator(config, datasets, test)
    t, go = 0, True
    while go:
        t += 1
        updates = [training.local_train(w, d, config.learning_rate) for d in datasets]
        w, dealer_count = step(t, updates)
        go = coordinator.round_complete(0, t, w, dealer_count)
    return _finish(config, coordinator, attackers)


def _finish(config: TrainingConfig, coordinator: _Coordinator,
            attackers: dict[int, AcumpaAttacker],
            trace: Optional[Trace] = None) -> RunResult:
    """Assemble the result of any mode from the coordinator's rounds and the
    attackers' per-round record."""
    adaptive = sorted({t for a in attackers.values() for t in a.adaptive_rounds})
    fallback = sorted({t for a in attackers.values() for t in a.fallback_rounds})
    metrics = [
        replace(m, adaptive_engaged=m.t in adaptive, fallback_engaged=m.t in fallback)
        for m in coordinator.metrics
    ]
    stopped = bool(metrics) and metrics[-1].train_error <= config.error_threshold
    return RunResult(config=config, metrics=metrics,
                     weights_history=coordinator.weights_history,
                     adaptive_rounds=adaptive, fallback_rounds=fallback,
                     stopped_early=stopped, trace=trace)


# -- engine: defended consensus-gated workflow --------------------------------


def encode_share_request(ciphertexts, commitments: vss.CommitmentVector) -> bytes:
    return wire.pack_blobs(ciphertexts) + vss.commitments_to_bytes(commitments)


def decode_share_request(req: bytes, th: int):
    r = wire.Reader(req)
    ciphertexts = r.blobs()
    return ciphertexts, vss.parse_commitments(req[r.off:], th)


def encode_vote_request(verified) -> bytes:
    return wire.pack_fixed(sorted(verified))


def decode_vote_request(req: bytes):
    return wire.unpack_fixed(req)


def encode_agg_request(bundle: vss.ShareBundle) -> bytes:
    return bundle.to_bytes()


def decode_agg_request(req: bytes, eval_point: int) -> vss.ShareBundle:
    return vss.parse_bundle(req, eval_point)


class WorkflowParticipant(Replica):
    """One defended-mode participant: a consensus replica whose application
    hooks run the training round.

    Round t (1-indexed) occupies slots 3(t-1)..3(t-1)+2: encrypted shares
    with commitments, then one bundled verification-vote request per
    participant, then aggregated sum shares.  All round state is fed by
    receiving_update, so it is scoped to committed batches by construction.
    A share verifies at the recipient's own point against its origin's
    commitments, or it earns the origin no vote from that recipient.  A
    participant's own request, authenticated as its own, needs no check: it
    keeps the share it dealt itself and counts itself verified once that
    request commits.
    """

    def __init__(self, rid, config, keyring, group, codec, scheme, secret_key,
                 publics, dataset, coordinator, w0):
        super().__init__(rid, config.n, config.f, keyring, delta=config.delta)
        self.config = config
        self.group = group
        self.codec = codec
        self.scheme = scheme
        self.secret_key = secret_key
        self.publics = publics
        self.dataset = dataset
        self.coordinator = coordinator
        self.eval_point = rid + 1
        self.rng = random.Random(config.seed * 100003 + 900 + rid)
        self.w = np.array(w0, dtype=float)
        self.t = 0
        self.done = False
        self.failed: Optional[str] = None

    def base_slot(self) -> int:
        return 3 * (self.t - 1)

    def start_round(self, t: int):
        self.t = t
        self._commits: dict[int, vss.CommitmentVector] = {}
        self._own_shares: dict[int, vss.ShareBundle] = {}
        self._dealt_self: Optional[vss.ShareBundle] = None
        self._verified: set[int] = set()
        self._votes: dict[int, set[int]] = defaultdict(set)
        self._agg: dict[int, vss.ShareBundle] = {}
        self._dealer_set: list[int] = []
        self.update = training.local_train(self.w, self.dataset,
                                           self.config.learning_rate)
        self.submit_shares(self.update)

    def submit_shares(self, vector):
        bundles, commits = vss.share(vector, self.config.th, self.config.n,
                                     self.group, self.codec, self.rng)
        self._dealt_self = bundles[self.rid]
        ciphertexts = [
            self.scheme.encrypt(self.secret_key, self.publics[j],
                                bundles[j].to_bytes(), self.rng)
            for j in range(self.config.n)
        ]
        self.broadcast_update(self.base_slot(),
                              encode_share_request(ciphertexts, commits))

    # -- consensus application hooks ------------------------------------

    def receiving_update(self, sq: int, origin: int, req: bytes):
        base = self.base_slot()
        if self.done or self.failed or not base <= sq <= base + 2:
            return
        dim = self.codec.packed_length(self.config.dim)
        try:
            if sq == base:
                ciphertexts, commits = decode_share_request(req, self.config.th)
                if len(ciphertexts) != self.config.n or len(commits) != dim:
                    return
                self._commits[origin] = commits
                if origin == self.rid:
                    bundle = self._dealt_self
                else:
                    plain = self.scheme.decrypt(self.secret_key, self.publics[origin],
                                                ciphertexts[self.rid])
                    bundle = vss.parse_bundle(plain, self.eval_point)
                if bundle.dimension == dim:
                    self._own_shares[origin] = bundle
            elif sq == base + 1:
                for d in decode_vote_request(req):
                    self._votes[d].add(origin)
            else:
                bundle = decode_agg_request(req, origin + 1)
                if bundle.dimension == dim:
                    self._agg[origin] = bundle
        except (ValueError, DecryptionError, vss.MalformedInputError):
            return  # malformed or undecryptable input from a faulty peer

    def on_slot_committed(self, sq: int, batch):
        if self.done or self.failed:
            return
        base = self.base_slot()
        if sq == base:
            self._share_slot_done(sq)
        elif sq == base + 1:
            self._vote_slot_done(sq)
        elif sq == base + 2:
            self._agg_slot_done()

    def _share_slot_done(self, sq: int):
        self._verified = {
            d for d, bundle in self._own_shares.items()
            if d in self._commits and (
                d == self.rid or vss.verify(bundle, self._commits[d], self.group))
        }
        self.broadcast_update(sq + 1, encode_vote_request(sorted(self._verified)))

    def _vote_slot_done(self, sq: int):
        dealer_set = sorted(
            d for d, voters in self._votes.items()
            if len(voters) >= self.config.th and d in self._commits
        )
        if not dealer_set:
            self.failed = f"round {self.t}: no dealer reached {self.config.th} votes"
            return
        self._dealer_set = dealer_set
        if all(d in self._verified for d in dealer_set):
            summed = vss.sum_shares([self._own_shares[d] for d in dealer_set],
                                    self.group)
            self.broadcast_update(sq + 1, encode_agg_request(summed))

    def _agg_slot_done(self):
        if len(self._agg) < self.config.th:
            self.failed = (f"round {self.t}: only {len(self._agg)} aggregated "
                           f"shares committed, need {self.config.th}")
            return
        total = vss.reconstruct(self._agg.values(), self.config.th,
                                self.group, self.codec, self.config.dim)
        self.w = np.asarray(total) / len(self._dealer_set)
        go = self.coordinator.round_complete(self.rid, self.t, self.w,
                                             len(self._dealer_set))
        if go:
            self.start_round(self.t + 1)
        else:
            self.done = True


class DelayedDealerNode(WorkflowParticipant):
    """The ACuMPA attacker as a participant.  It withholds its shares,
    eavesdrops share requests flowing past, decrypts whatever its own key
    opens, and submits a crafted share request if the observations reach the
    reconstruction threshold for every observed dealer before the slot
    commits.  Under real encryption only its own shares decrypt, so that
    never happens; it keeps waiting, the batch forms without it, and its
    (recorded) fallback comes too late to enter the round."""

    def __init__(self, rid, config, keyring, group, codec, *args):
        super().__init__(rid, config, keyring, group, codec, *args)
        self.attacker = _make_attacker(config, rid, group, codec)
        self.observed: dict[int, dict[int, list[vss.ShareBundle]]] = {}
        self.submitted: set[int] = set()

    def submit_shares(self, vector):
        """Withhold the honest update, hoping to observe enough shares first;
        a crafted vector goes out through super().submit_shares instead."""

    def on_message(self, m, now=0):
        if (m.kind == MsgKind.REQUEST and m.sq % 3 == 0
                and m.sender != self.rid):
            self._eavesdrop(m.sq, m.sender, m.payload[0])
        super().on_message(m, now)

    def _eavesdrop(self, sq: int, dealer: int, req: bytes):
        try:
            ciphertexts, _ = decode_share_request(req, self.config.th)
        except (ValueError, vss.MalformedInputError):
            return
        store = self.observed.setdefault(sq, defaultdict(list))
        for j, ct in enumerate(ciphertexts):  # ciphertext j is the share at j + 1
            try:
                store[dealer].append(vss.parse_bundle(
                    self.scheme.decrypt(self.secret_key, self.publics[dealer], ct), j + 1))
            except (DecryptionError, vss.MalformedInputError):
                continue
        self._maybe_submit(sq, store)

    def _maybe_submit(self, sq: int, store):
        if sq in self.submitted or sq != self.base_slot():
            return
        if self._decided(sq):
            return  # deadline already passed
        if self.attacker.observed_target(store, self.config.dim) is None:
            return  # keep waiting: more shares may still show up
        crafted, _ = self.attacker.craft_submission(self.t, store, self.update)
        self.submitted.add(sq)
        super().submit_shares(crafted)

    def _share_slot_done(self, sq: int):
        if sq not in self.submitted:
            # the share slot just committed: what was observed until now is
            # all the attacker will ever see this round, unless a crafted
            # submission already went out before the deadline
            self.attacker.craft_submission(self.t, self.observed.get(sq, {}),
                                           self.update)
        super()._share_slot_done(sq)


def run_defended(config: TrainingConfig, collect_trace: bool = False) -> RunResult:
    datasets, test, w0 = _task(config)
    group = generate_group(config.bits_p, config.bits_q)
    codec = FixedPointCodec(config.fraction_bits, group.q, config.n)
    scheme = make_scheme(config.encryption, group)
    key_rng = random.Random(config.seed * 100003 + 11)
    keypairs = [scheme.keygen(key_rng) for _ in range(config.n)]
    publics = [kp.public for kp in keypairs]
    keyring = KeyRing(range(config.n), random.Random(config.seed * 100003 + 13))
    coordinator = _Coordinator(config, datasets, test)

    nodes = {
        i: (DelayedDealerNode if i in config.attackers else WorkflowParticipant)(
            i, config, keyring, group, codec, scheme, keypairs[i].secret,
            publics, datasets[i], coordinator, w0)
        for i in range(config.n)
    }
    attackers = {i: nodes[i].attacker for i in config.attackers}

    sim_config = SimConfig(n=config.n, f=config.f, gst=config.gst,
                           delta=config.delta, seed=config.seed)
    adversary = AdversaryPolicy(corrupt=frozenset(config.attackers))
    sim = Simulator(sim_config, nodes, adversary, trace_messages=collect_trace)
    for node in nodes.values():
        node.commit_listener = sim.record_commit
        node.start_round(1)
    sim.run()

    for node in nodes.values():
        if node.failed:
            raise WorkflowError(node.failed)
    honest = next(node for i, node in nodes.items() if i not in attackers)
    if not honest.done:
        raise WorkflowError(
            f"training stalled in round {honest.t} "
            f"(simulation drained at t={sim.clock})")

    return _finish(config, coordinator, attackers, trace=sim.trace)


def run(config: TrainingConfig, collect_trace: bool = False) -> RunResult:
    """Run one training workflow according to config.mode."""
    config.validate()
    try:
        if config.mode.startswith("ebyftves"):
            return run_defended(config, collect_trace=collect_trace)
        return run_local(config)
    except EncodingRangeError as exc:
        # whether a value fits depends on the data, so validate cannot say
        raise WorkflowError(f"a value exceeds the codec's bound max_abs, set by "
                            f"fraction_bits {config.fraction_bits}, bits_q "
                            f"{config.bits_q} and n {config.n}: {exc}") from exc
