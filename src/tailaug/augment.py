"""Tail-aware sequence augmentation operators and representation mixup.

Two operators act on item sequences using per-item candidate sets:

* substitution replaces head items (each selected independently with a
  per-call uniform rate) by a random candidate of the replaced item;
* insertion places a random candidate immediately before each selected
  tail item and pairs the result with an extended copy of the original
  sequence in which every selected tail item is duplicated once, so both
  outputs always have equal length.

Which operator a sequence undergoes is chosen by length: short sequences
favour insertion, full-length sequences always substitute.  Augmented and
original representations are then blended with a Beta-distributed weight,
and a batch-level cross plan mixes representations of different sequences
within the same head-/tail-preference class.

Draw order inside an operator call is part of the contract (it makes
seeded traces replayable): first the rate, then one selection draw per
eligible position in sequence order, then — immediately after each
selecting draw with a non-empty candidate set — the candidate pick.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import PreferenceClass, Segmentation
from .errors import finite_positive
from .simcand import CandidateSets

SUBSTITUTE = "substitute"
INSERT = "insert"


@dataclass(frozen=True)
class OperatorConfig:
    a: float = 0.2
    b: float = 0.8
    alpha: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.a < self.b < 1.0:
            raise ValueError(f"a and b need 0 < a < b < 1, got a={self.a}, b={self.b}")
        if not finite_positive(self.alpha):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")


@dataclass
class AugmentedSample:
    """One operator application.

    ``indices`` are positions in the *original* sequence where the
    operator acted (selected positions whose candidate set was empty are
    dropped).  For substitution ``s_ext`` equals the original sequence;
    for insertion it is the duplicated-extension, and both outputs are
    truncated from the oldest end together whenever they would exceed the
    maximum length.
    """

    operator: str
    s_prime: np.ndarray
    s_ext: np.ndarray
    indices: np.ndarray
    chosen: np.ndarray
    rate: float

    def trace_line(self, user: int | None = None, mix_weight: float | None = None) -> str:
        d = {
            "operator": self.operator,
            "indices": self.indices.tolist(),
            "chosen": self.chosen.tolist(),
            "rate": self.rate,
            "s_prime": self.s_prime.tolist(),
            "s_ext": self.s_ext.tolist(),
        }
        if user is not None:
            d["user"] = int(user)
        if mix_weight is not None:
            d["mix_weight"] = float(mix_weight)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))


def sample_rate(config: OperatorConfig, rng: np.random.Generator) -> float:
    """Per-call selection probability, uniform on [a, b)."""
    return float(rng.uniform(config.a, config.b))


def select_operator(seq_len: int, max_len: int, rng: np.random.Generator) -> str:
    """Insertion with probability 1 - seq_len/max_len, substitution otherwise."""
    if not 1 <= seq_len <= max_len:
        raise ValueError(f"seq_len must be in [1, {max_len}], got {seq_len}")
    p_insert = 1.0 - seq_len / max_len
    return INSERT if rng.random() < p_insert else SUBSTITUTE


def t_substitute(seq, segmentation: Segmentation, candidates: CandidateSets,
                 config: OperatorConfig, rng: np.random.Generator) -> AugmentedSample:
    """Replace each head item, selected with probability ``rate``, by one
    of its candidates.  Tail items are never touched; a selected position
    with an empty candidate set keeps its item and is dropped from
    ``indices``.
    """
    seq = np.asarray(seq, dtype=np.int64)
    if seq.size == 0:
        raise ValueError("cannot augment an empty sequence")
    rate = sample_rate(config, rng)
    out = seq.copy()
    indices, chosen = [], []
    head = segmentation.item_head_mask
    for i, v in enumerate(seq):
        if not head[v]:
            continue
        if rng.random() >= rate:
            continue
        cands = candidates.candidates_for(int(v))
        if len(cands) == 0:
            continue
        pick = int(cands[rng.integers(len(cands))])
        out[i] = pick
        indices.append(i)
        chosen.append(pick)
    return AugmentedSample(
        operator=SUBSTITUTE, s_prime=out, s_ext=seq.copy(),
        indices=np.asarray(indices, dtype=np.int64),
        chosen=np.asarray(chosen, dtype=np.int64), rate=rate,
    )


def t_insert(seq, segmentation: Segmentation, candidates: CandidateSets,
             config: OperatorConfig, max_len: int,
             rng: np.random.Generator) -> AugmentedSample:
    """Insert a candidate before each selected tail item; extend the
    original by duplicating those tail items so both outputs share one
    length.  If that length exceeds ``max_len`` the oldest positions are
    dropped from both outputs equally.
    """
    seq = np.asarray(seq, dtype=np.int64)
    if seq.size == 0:
        raise ValueError("cannot augment an empty sequence")
    rate = sample_rate(config, rng)
    head = segmentation.item_head_mask
    prime, ext = [], []
    indices, chosen = [], []
    for i, v in enumerate(seq):
        v = int(v)
        if not head[v] and rng.random() < rate:
            cands = candidates.candidates_for(v)
            if len(cands) > 0:
                pick = int(cands[rng.integers(len(cands))])
                prime.append(pick)
                ext.append(v)
                indices.append(i)
                chosen.append(pick)
        prime.append(v)
        ext.append(v)
    overflow = max(0, len(prime) - max_len)
    return AugmentedSample(
        operator=INSERT,
        s_prime=np.asarray(prime[overflow:], dtype=np.int64),
        s_ext=np.asarray(ext[overflow:], dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        chosen=np.asarray(chosen, dtype=np.int64), rate=rate,
    )


def augment_sequence(seq, segmentation: Segmentation, candidates: CandidateSets,
                     config: OperatorConfig, max_len: int,
                     rng: np.random.Generator) -> AugmentedSample:
    """Length-based operator choice followed by the chosen operator."""
    seq = np.asarray(seq, dtype=np.int64)
    op = select_operator(len(seq), max_len, rng)
    if op == SUBSTITUTE:
        return t_substitute(seq, segmentation, candidates, config, rng)
    return t_insert(seq, segmentation, candidates, config, max_len, rng)


@dataclass
class CrossPlan:
    """Within-class pairing and mixup weights for one batch.

    ``pairing[i]`` is the batch position mixed into position ``i``; it is a
    bijection on each preference class, never across classes.  ``lams``
    holds one Beta weight per position.
    """

    pairing: np.ndarray
    lams: np.ndarray
    classes: list[PreferenceClass]


def plan_cross_batch(classes: Sequence[PreferenceClass], alpha: float,
                     rng: np.random.Generator) -> CrossPlan:
    """Group positions by preference class and shuffle each group.

    Draw order: head-group permutation, tail-group permutation, then one
    Beta(alpha, alpha) weight per batch position.  A singleton group pairs
    with itself.
    """
    if len(classes) == 0:
        raise ValueError("cannot plan cross augmentation for an empty batch")
    n = len(classes)
    pairing = np.arange(n, dtype=np.int64)
    for cls_value in (PreferenceClass.HEAD_PREFERRING, PreferenceClass.TAIL_PREFERRING):
        positions = np.asarray([i for i, c in enumerate(classes) if c == cls_value],
                               dtype=np.int64)
        if len(positions) > 0:
            pairing[positions] = positions[rng.permutation(len(positions))]
    lams = rng.beta(alpha, alpha, size=n).astype(np.float64)
    return CrossPlan(pairing=pairing, lams=lams, classes=list(classes))


def apply_cross_mixup(plan: CrossPlan, rows):
    """Row-wise mixup ``lam_i * rows[i] + (1 - lam_i) * rows[pairing[i]]``.

    Stacking ``[h | e_pos | e_neg]`` as one row mixes a representation and
    its positive and negative item embeddings with one shared weight and
    pairing.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] != len(plan.pairing):
        raise ValueError(f"rows has {rows.shape[0]} rows, plan covers {len(plan.pairing)}")
    lam = plan.lams[:, np.newaxis]
    return lam * rows + (1.0 - lam) * rows[plan.pairing]
