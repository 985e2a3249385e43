"""Distributed training workflows over the toy task.

Every mode shares the same data, initialization, local-update rule and
round bookkeeping (_Coordinator: metrics, divergence check), and every run
trains for exactly config.rounds rounds.  Two drivers run the rounds:

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
  (DelayedDealerNode for "+acumpa").  Each round takes one consensus slot
  per phase of PHASES.  A request carries only what its receivers cannot
  derive: its dealer, voter or sender is its authenticated origin, the
  slot gives its kind, th and the packed dimension split the commitments
  into columns, and a share's evaluation point is its holder's id + 1.
  Shares always travel encrypted, and config.attacker_reads says which the
  delaying dealer can open.  At "own-shares" it opens only the shares
  dealt to itself, never th of one honest dealer's, so it cannot
  reconstruct the honest updates, and a dealer that has submitted nothing
  when the share slot commits is left out of the round.  At "every-share"
  it sees every share before the slot commits, and its crafted update
  enters every round: the commit deadline alone does not defend, keeping
  the shares from the attacker does.

Division by the dealer count happens after reconstruction, in the real
domain; the field only ever sees sums.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, replace
from typing import ClassVar, Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import training, vss, wire
from .attack import AcumpaAttacker
from .consensus import MsgKind, Replica
from .crypto import HybridScheme, KeyRing
from .field import GROUPS, EncodingRangeError, FixedPointCodec, generate_group
from .netsim import AdversaryPolicy, SimConfig, Simulator, Trace

MODES = (
    "fedavg-plain",
    "baseline-vss",
    "baseline-vss+acumpa",
    "ebyftves",
    "ebyftves+acumpa",
)

# what the defended workflow's delaying dealer can decrypt: the shares dealt
# to itself, or every share (it holds every participant's secret key); no
# other mode reads the field, and baseline-vss+acumpa's attacker sees every
# share whatever it says
ATTACKER_READS = ("own-shares", "every-share")

RESULT_SCHEMA_VERSION = 1

# the toy task's fixed settings: the local step size, the examples per
# participant and in the shared test set, the accuracy IT waits for, and the
# cosine boundary the ACuMPA attacker crafts at
LEARNING_RATE = 0.1
SAMPLES = 400
TEST_SAMPLES = 1000
TAU = 0.90
THETA_COS = 0.8
# the most rounds and coordinates a config may ask for: over ten times the
# most that any test, bundled scenario or benchmark workload runs (30 and 256)
MAX_ROUNDS, MAX_DIM = 1000, 4096


def of_type(value, annotation) -> bool:
    """Whether value has the annotated type: int, float (an int is one too),
    str, bool, dict, Optional[X] or tuple[X, ...] (a JSON list is one too).
    A bool is an int to isinstance, but never a count, a bound or a metric."""
    # the origin comes first: Python 3.10 counts tuple[int, ...] as a type
    origin = get_origin(annotation)
    if origin is tuple:
        return (isinstance(value, (tuple, list))
                and all(of_type(v, get_args(annotation)[0]) for v in value))
    if origin is not None:
        return any(of_type(value, a) for a in get_args(annotation))  # Optional[X]
    if isinstance(value, bool):
        return annotation is bool
    return isinstance(value, (int, float) if annotation is float else annotation)


class WorkflowError(Exception):
    """A training run could not complete; raised where the fault is found (empty
    dealer set, too few aggregated shares, diverging replicas, stalled training)."""


@dataclass(frozen=True)
class TrainingConfig:
    n: int = 4
    f: int = 1
    th: int = 3
    rounds: int = 30
    dim: int = 16
    mode: str = "fedavg-plain"
    attackers: tuple[int, ...] = ()
    bits_p: int = 96
    bits_q: int = 48
    seed: int = 0
    attacker_reads: str = "own-shares"
    gst: int = 0
    delta: int = 1
    # fixed-point precision of the field codec; a constant, not a field
    fraction_bits: ClassVar[int] = 16

    def validate(self) -> None:
        for name, kind in CONFIG_TYPES.items():
            value = getattr(self, name)
            if not of_type(value, kind):
                raise ValueError(f"{name} must be of type "
                                 f"{TrainingConfig.__annotations__[name]}, got {value!r}")
        # n = 3f + 1 with f >= 1, gst >= 0, delta >= 1, seed >= 0: the simulator's checks
        SimConfig(n=self.n, f=self.f, gst=self.gst, delta=self.delta, seed=self.seed)
        # th <= f would let f colluders reconstruct a secret on their own;
        # th > n - f would leave the n - f honest aggregated shares short
        if not self.f < self.th <= self.n - self.f:
            raise ValueError("threshold must satisfy f < th <= n - f")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not all(0 <= a < self.n for a in self.attackers):
            raise ValueError("attacker ids must be participant ids")
        if len(set(self.attackers)) != len(self.attackers):
            raise ValueError("attacker ids must be distinct")
        if len(self.attackers) > self.f:
            raise ValueError(f"at most f={self.f} attackers allowed")
        attacked = self.mode.endswith("+acumpa")
        if attacked and not self.attackers:
            raise ValueError("attack mode needs a non-empty attacker set")
        if not attacked and self.attackers:
            raise ValueError(f"mode {self.mode!r} does not take attackers")
        if not (1 <= self.rounds <= MAX_ROUNDS and 1 <= self.dim <= MAX_DIM):
            raise ValueError(f"rounds must lie in [1, {MAX_ROUNDS}] and dim in [1, {MAX_DIM}]")
        if (self.bits_p, self.bits_q) not in GROUPS:
            raise ValueError(f"(bits_p, bits_q) must be one of {sorted(GROUPS)}")
        if self.attacker_reads not in ATTACKER_READS:
            raise ValueError(f"attacker_reads must be one of {ATTACKER_READS}, "
                             f"got {self.attacker_reads!r}")
        # only the defended attacker's reads are set by this field
        if self.attacker_reads == "every-share" and self.mode != "ebyftves+acumpa":
            raise ValueError("attacker_reads 'every-share' applies only to mode "
                             f"'ebyftves+acumpa', not {self.mode!r}")


# each TrainingConfig field's type, read once from the class's annotations
CONFIG_TYPES = {name: kind for name, kind in get_type_hints(TrainingConfig).items()
                if get_origin(kind) is not ClassVar}


@dataclass(frozen=True)
class RoundMetrics:
    """One round's outcome.  adaptive_engaged marks a round in which an
    attacker crafted against the observed honest average, whether or not its
    crafted update entered the round: dealer_count tells that.  With an
    attacker that reads every share at gst 100 and delta 2, seeds 15, 20 and
    33 craft and submit in round 1 but miss the batch, so dealer_count is 3
    there."""

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
    trace: Optional[Trace] = None

    @property
    def accuracy_series(self) -> list[float]:
        return [m.accuracy for m in self.metrics]

    @property
    def it(self) -> float:
        return compute_inference_time(self.accuracy_series, TAU)

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
        }


# -- shared setup ------------------------------------------------------------


def _task(config: TrainingConfig):
    base = config.seed * 7919
    w_true = training.make_true_weights(config.dim, base + 1)
    datasets = [training.make_dataset(config.dim, SAMPLES, w_true, base + 100 + i)
                for i in range(config.n)]
    test = training.make_dataset(config.dim, TEST_SAMPLES, w_true, base + 99)
    w0 = training.initial_weights(config.dim, base + 2)
    return datasets, test, w0


class _Coordinator:
    """Experiment harness shared by every mode and participant: computes the
    metrics once per round, checks that everyone arrived at bit-identical
    weights, and holds the run's decoded committed requests."""

    def __init__(self, datasets, test):
        self.datasets = datasets
        self.test = test
        self.metrics: list[RoundMetrics] = []
        self.weights_history: list[np.ndarray] = []
        # (sq, origin, req) -> the request decoded for its slot's phase, None
        # if it does not decode: every participant executes the same batch,
        # and the delaying dealer reads share requests from the same table,
        # so a run decodes each request once.  Bounded by
        # WorkflowParticipant._decoded to two rounds of requests.
        self.decoded: dict = {}

    def round_complete(self, pid: int, t: int, w: np.ndarray, dealer_count: int):
        # rounds complete in order, so round t is recorded at its first completion
        if t <= len(self.weights_history):
            if w.tobytes() != self.weights_history[t - 1].tobytes():
                raise WorkflowError(
                    f"round {t}: participant {pid} reconstructed divergent weights")
            return
        self.metrics.append(RoundMetrics(
            t=t, accuracy=training.accuracy(w, self.test),
            train_error=float(np.mean([training.loss(w, d) for d in self.datasets])),
            dealer_count=dealer_count))
        self.weights_history.append(w.copy())


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
    attackers = {pid: AcumpaAttacker(THETA_COS, config.th, group, codec)
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
            attacker = attackers[pid]
            vec, _ = attacker.craft_submission(
                t, attacker.observed_target(observed, config.dim), updates[pid])
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
    coordinator = _Coordinator(datasets, test)
    for t in range(1, config.rounds + 1):
        updates = [training.local_train(w, d, LEARNING_RATE) for d in datasets]
        w, dealer_count = step(t, updates)
        coordinator.round_complete(0, t, w, dealer_count)
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
    return RunResult(config=config, metrics=metrics,
                     weights_history=coordinator.weights_history,
                     adaptive_rounds=adaptive, fallback_rounds=fallback, trace=trace)


# -- engine: defended consensus-gated workflow --------------------------------

# a defended round's phases in slot order: encrypted shares with commitments,
# bundled verification votes, then aggregated sum shares or complaints.
# Round t (1-indexed) holds PHASES[k] in slot len(PHASES) * (t - 1) + k.
PHASES = ("shares", "votes", "agg")


def slot_phase(sq: int) -> tuple[int, str]:
    """The round and phase of any slot sq, a later round's too."""
    t, k = divmod(sq, len(PHASES))
    return t + 1, PHASES[k]


def encode_share_request(ciphertexts, commitments: vss.CommitmentVector) -> bytes:
    return wire.pack_blobs(ciphertexts) + vss.commitments_to_bytes(commitments)


def decode_share_request(req: bytes, n: int, th: int, dimension: int):
    """n ciphertexts and th commitment columns of dimension values, or
    MalformedInputError."""
    r = wire.Reader(req)
    ciphertexts = tuple(r.blobs(n))
    return ciphertexts, vss.parse_commitments(req[r.off:], th, dimension)


def encode_vote_request(verified) -> bytes:
    return wire.pack_fixed(sorted(verified))


def decode_vote_request(req: bytes):
    return wire.unpack_fixed(req)


def encode_agg_request(bundle: vss.ShareBundle) -> bytes:
    return bundle.to_bytes()


def encode_complaint(dealers) -> bytes:
    # a share starts with the top byte of its u32 count, 0 up to MAX_DIM
    return b"C" + wire.pack_fixed(sorted(dealers))


def decode_agg_request(req: bytes, eval_point: int, dimension: int):
    """An aggregated share, or a complaint: the tuple of admitted dealers of
    which its sender holds no verified share."""
    if req[:1] == b"C":
        return wire.unpack_fixed(req[1:])
    return vss.parse_bundle(req, eval_point, dimension)


class WorkflowParticipant(Replica):
    """One defended-mode participant: a consensus replica whose application
    hooks run the training round.

    A round takes one slot per phase of PHASES, and a participant submits
    one request to each: its vote request bundles every dealer it verified,
    and a complaint names the admitted dealers of which it holds no verified
    share, so that the slot batches and the round ends in WorkflowError
    below th shares.
    receiving_update only files each committed request of the round in
    _requests[phase][origin], and each phase's step works over its phase's
    requests, so everything a step acts on was committed.  The share step
    opens each committed dealer's share and verifies their sum once, at the
    recipient's own point, against the product of their commitments; only if
    that fails does it verify each alone.  What passes goes into
    _own_shares.  The vote step checks the admitted dealers' sum again when
    it leaves out a share held, as two dealers' errors may cancel in the
    whole sum only.  The aggregate step takes th + f aggregated shares on one
    polynomial as they are, and else the first th by point that verify
    against the admitted dealers' product, raising WorkflowError below th.
    A participant's own request, authenticated as its own, needs no check: it
    keeps the share it dealt itself, leaves that share's blob in the request
    empty, and votes for itself once that request commits.
    """

    # the step each phase runs once its slot commits, by name, so that an override runs
    STEPS = {"shares": "_share_slot_done", "votes": "_vote_slot_done", "agg": "_agg_slot_done"}

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
        self.packed_dim = codec.packed_length(config.dim)
        self.rng = random.Random(config.seed * 100003 + 900 + rid)
        self.w = np.array(w0, dtype=float)
        self.t = 0
        self.done = False

    def slot(self, phase: str) -> int:
        """The current round's slot of phase."""
        return len(PHASES) * (self.t - 1) + PHASES.index(phase)

    def start_round(self, t: int):
        self.t = t
        # phase -> origin -> its decoded request committed in this round's slot
        self._requests: dict[str, dict] = {phase: {} for phase in PHASES}
        # dealer -> the share it dealt this participant: its own, and each verified one
        self._own_shares: dict[int, vss.ShareBundle] = {}
        self._dealer_set: list[int] = []
        self.update = training.local_train(self.w, self.dataset, LEARNING_RATE)
        self.submit_shares(self.update)

    def submit_shares(self, vector):
        bundles, commits = vss.share(vector, self.config.th, self.config.n,
                                     self.group, self.codec, self.rng)
        self._own_shares[self.rid] = bundles[self.rid]
        ciphertexts = [
            b"" if j == self.rid else self.scheme.encrypt(
                self.secret_key, self.publics[j], bundles[j].to_bytes(), self.rng)
            for j in range(self.config.n)
        ]
        self.broadcast_update(self.slot("shares"),
                              encode_share_request(ciphertexts, commits))

    # -- consensus application hooks ------------------------------------

    def receiving_update(self, sq: int, origin: int, req: bytes):
        t, phase = slot_phase(sq)
        # another round's slot, or malformed input from a faulty peer, is dropped
        if t == self.t and (decoded := self._decoded(sq, origin, req)) is not None:
            self._requests[phase][origin] = decoded

    def _open(self, key: int, origin: int, ciphertexts, j: int):
        """origin's share for participant j, at point j + 1, or None unless
        ciphertext j opens under key to values of the packed dimension."""
        try:
            return vss.parse_bundle(
                self.scheme.decrypt(key, self.publics[origin], ciphertexts[j]), j + 1,
                self.packed_dim)
        except wire.MalformedInputError:
            return None  # undecryptable or malformed share from a faulty peer

    def _decoded(self, sq: int, origin: int, req: bytes):
        """origin's request in slot sq decoded for the slot's kind, or None
        if it does not decode, from the run's shared table.  The key
        holds sq and origin as well as req: a peer may commit the same bytes
        in two slots, and an aggregated share's point is its origin's."""
        table = self.coordinator.decoded
        key = (sq, origin, req)
        if key not in table:
            phase = slot_phase(sq)[1]
            try:
                if phase == "shares":
                    value = decode_share_request(req, self.config.n, self.config.th,
                                                 self.packed_dim)
                elif phase == "votes":
                    value = decode_vote_request(req)
                else:
                    value = decode_agg_request(req, origin + 1, self.packed_dim)
            except wire.MalformedInputError:
                value = None
            if len(table) >= 2 * len(PHASES) * self.config.n:  # two rounds of requests
                del table[next(iter(table))]  # the oldest goes first
            table[key] = value
        return table[key]

    def on_slot_committed(self, sq: int, batch):
        t, phase = slot_phase(sq)
        if t == self.t:
            getattr(self, self.STEPS[phase])(sq)

    def _keep_verified(self, opened: dict):
        """Keep each opened share (dealer -> (share, commitments)) in
        _own_shares if it verifies: all of them if their sum verifies against
        the product of their commitments, else each that verifies alone."""
        pairs = list(opened.values())
        if pairs and not vss.verify(
                vss.sum_shares([b for b, _ in pairs], self.group),
                vss.sum_commitments([c for _, c in pairs], self.group), self.group):
            opened = {d: (b, c) for d, (b, c) in opened.items()
                      if vss.verify(b, c, self.group)}
        self._own_shares.update((d, b) for d, (b, _) in opened.items())

    def _share_slot_done(self, sq: int):
        shares = self._requests["shares"]
        opened = {}
        for d, (ciphertexts, commits) in shares.items():
            if d != self.rid:  # submit_shares kept the share it dealt itself
                bundle = self._open(self.secret_key, d, ciphertexts, self.rid)
                if bundle is not None:
                    opened[d] = (bundle, commits)
        self._keep_verified(opened)
        self.broadcast_update(self.slot("votes"), encode_vote_request(
            d for d in shares if d in self._own_shares))

    def _vote_slot_done(self, sq: int):
        tally = Counter(d for dealers in self._requests["votes"].values()
                        for d in set(dealers))
        # th > f votes include an honest one, which names only committed dealers
        dealer_set = sorted(d for d, votes in tally.items() if votes >= self.config.th)
        if not dealer_set:
            raise WorkflowError(f"round {self.t}: no dealer reached {self.config.th} votes")
        self._dealer_set = dealer_set
        others = set(dealer_set) - {self.rid}
        if others < self._own_shares.keys() - {self.rid}:
            # the share step checked the sum of every share held; the
            # aggregated share carries the sum of the admitted ones alone
            shares = self._requests["shares"]
            self._keep_verified({d: (self._own_shares.pop(d), shares[d][1])
                                 for d in sorted(others)})
        unverified = [d for d in dealer_set if d not in self._own_shares]
        if unverified:
            self.broadcast_update(self.slot("agg"), encode_complaint(unverified))
        else:
            summed = vss.sum_shares([self._own_shares[d] for d in dealer_set],
                                    self.group)
            self.broadcast_update(self.slot("agg"), encode_agg_request(summed))

    def _agg_slot_done(self, sq: int):
        agg, th = self._requests["agg"], self.config.th
        shares = {o: v for o, v in sorted(agg.items()) if isinstance(v, vss.ShareBundle)}
        if len(shares) < th:
            complaints = {o: list(v) for o, v in sorted(agg.items())
                          if not isinstance(v, vss.ShareBundle)}
            raise WorkflowError(f"round {self.t}: only {len(shares)} aggregated shares "
                                f"committed, need {th}; complaints "
                                f"(sender: dealers): {complaints}")
        # th + f shares on one polynomial include th honest ones, which fix it;
        # else the first th, by point, that verify against the dealers' product
        if not (len(shares) >= th + self.config.f
                and vss.consistent(shares.values(), th, self.group)):
            commits = vss.sum_commitments(
                [self._requests["shares"][d][1] for d in self._dealer_set], self.group)
            passed, failed = {}, []
            for o, bundle in shares.items():
                if len(passed) == th:
                    break
                if vss.verify(bundle, commits, self.group):
                    passed[o] = bundle
                else:
                    failed.append(o)
            if len(passed) < th:
                raise WorkflowError(f"round {self.t}: only {len(passed)} of {len(shares)} "
                                    f"aggregated shares verify, need {th}; failing "
                                    f"senders: {failed}")
            shares = passed
        total = vss.reconstruct(shares.values(), th,
                                self.group, self.codec, self.config.dim)
        self.w = np.asarray(total) / len(self._dealer_set)
        self.coordinator.round_complete(self.rid, self.t, self.w,
                                        len(self._dealer_set))
        if self.t < self.config.rounds:
            self.start_round(self.t + 1)
        else:
            self.done = True


class DelayedDealerNode(WorkflowParticipant):
    """The ACuMPA attacker as a participant.  It withholds its shares,
    eavesdrops share requests for undecided slots, opens ciphertext j with
    read_keys[j], the secret key it holds for recipient j, and submits a
    crafted share request if the observations reach the reconstruction
    threshold for every observed dealer before the slot commits.  With only
    its own key ("own-shares") it opens only its own shares, so that never
    happens: the batch forms without it, and the round is recorded as a
    fallback round.  What it observed for a slot is dropped once the slot
    commits."""

    def __init__(self, rid, config, keyring, group, codec, *args):
        super().__init__(rid, config, keyring, group, codec, *args)
        self.attacker = AcumpaAttacker(THETA_COS, config.th, group, codec)
        self.read_keys = {rid: self.secret_key}
        self.observed: dict[int, dict[int, list[vss.ShareBundle]]] = {}

    def submit_shares(self, vector):
        """Withhold the honest update, hoping to observe enough shares first;
        a crafted vector goes out through super().submit_shares instead."""

    def on_message(self, m):
        # only an authentic request has an int slot and a (bytes, bytes) payload
        if (m.kind == MsgKind.REQUEST and m.sender != self.rid and self._authentic(m)
                and slot_phase(m.sq)[1] == "shares"):
            self._eavesdrop(m.sq, m.sender, m.payload[0])
        super().on_message(m)

    def _eavesdrop(self, sq: int, dealer: int, req: bytes):
        if self._decided(sq) or (decoded := self._decoded(sq, dealer, req)) is None:
            return  # deadline already passed, or malformed input
        ciphertexts, _ = decoded
        store = self.observed.setdefault(sq, defaultdict(list))
        # read_keys[j] tries to open ciphertext j, the share at j + 1
        for j, key in self.read_keys.items():
            bundle = self._open(key, dealer, ciphertexts, j)
            if bundle is not None:
                store[dealer].append(bundle)
        self._maybe_submit(sq, store)

    def _submitted(self, sq: int) -> bool:
        """Whether broadcast_update put a request into slot sq; _slot(sq)
        would create the slot."""
        slot = self.slots.get(sq)
        return slot is not None and slot.own_request is not None

    def _maybe_submit(self, sq: int, store):
        if sq != self.slot("shares") or self._submitted(sq):
            return
        target = self.attacker.observed_target(store, self.config.dim)
        if target is None:
            return  # keep waiting: more shares may still show up
        crafted, _ = self.attacker.craft_submission(self.t, target, self.update)
        super().submit_shares(crafted)

    def _share_slot_done(self, sq: int):
        self.observed.pop(sq, None)
        if not self._submitted(sq):
            # the share slot committed before a crafted submission went out
            self.attacker.craft_submission(self.t, None, self.update)
        super()._share_slot_done(sq)


def run_defended(config: TrainingConfig, collect_trace: bool = False) -> RunResult:
    datasets, test, w0 = _task(config)
    group = generate_group(config.bits_p, config.bits_q)
    codec = FixedPointCodec(config.fraction_bits, group.q, config.n)
    scheme = HybridScheme(group)
    key_rng = random.Random(config.seed * 100003 + 11)
    keypairs = scheme.keygen(key_rng, config.n)
    publics = [kp.public for kp in keypairs]
    keyring = KeyRing(range(config.n), random.Random(config.seed * 100003 + 13))
    coordinator = _Coordinator(datasets, test)

    nodes = {
        i: (DelayedDealerNode if i in config.attackers else WorkflowParticipant)(
            i, config, keyring, group, codec, scheme, keypairs[i].secret,
            publics, datasets[i], coordinator, w0)
        for i in range(config.n)
    }
    attackers = {i: nodes[i].attacker for i in config.attackers}
    if config.attacker_reads == "every-share":
        for i in attackers:
            nodes[i].read_keys = {j: kp.secret for j, kp in enumerate(keypairs)}

    sim_config = SimConfig(n=config.n, f=config.f, gst=config.gst,
                           delta=config.delta, seed=config.seed)
    adversary = AdversaryPolicy(corrupt=frozenset(config.attackers))
    sim = Simulator(sim_config, nodes, adversary, trace_messages=collect_trace)
    for node in nodes.values():
        node.commit_listener = sim.record_commit
        node.start_round(1)
    sim.run()

    stalled = [i for i, node in nodes.items() if i not in attackers and not node.done]
    if stalled:
        raise WorkflowError(f"training stalled: participants {stalled} did not finish "
                            f"round {config.rounds} (simulation drained at t={sim.clock})")

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
