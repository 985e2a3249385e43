"""Desk-scale verifiable secret sharing, BFT consensus, and the training
workflows built on top of them."""

from .attack import AcumpaAttacker, asdp_craft, cosine, defense_cosine_check, tau0
from .consensus import Message, MsgKind, Replica, aggregate, batch_digest
from .dpml import MODES, RoundMetrics, RunResult, TrainingConfig, WorkflowError, run
from .field import FixedPointCodec, GroupParams, generate_group
from .netsim import AdversaryPolicy, LivelockError, SimConfig, Simulator
from .vss import CommitmentVector, ShareBundle, reconstruct, share, sum_shares, verify

__all__ = [
    "AcumpaAttacker",
    "AdversaryPolicy",
    "CommitmentVector",
    "FixedPointCodec",
    "GroupParams",
    "LivelockError",
    "Message",
    "MODES",
    "MsgKind",
    "Replica",
    "RoundMetrics",
    "RunResult",
    "ShareBundle",
    "SimConfig",
    "Simulator",
    "TrainingConfig",
    "WorkflowError",
    "aggregate",
    "asdp_craft",
    "batch_digest",
    "cosine",
    "defense_cosine_check",
    "generate_group",
    "reconstruct",
    "run",
    "share",
    "sum_shares",
    "tau0",
    "verify",
]
