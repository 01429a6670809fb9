"""Tail-aware sequence augmentation operators and representation mixup.

Two operators act on item sequences using per-item candidate sets:

* substitution replaces head items (each selected independently with a
  per-sequence uniform rate) by a random candidate of the replaced item;
* insertion places a random candidate immediately before each selected
  tail item and pairs the result with an extended copy of the original
  sequence in which every selected tail item is duplicated once, so both
  outputs always have equal length.

Which operator a sequence undergoes is chosen by length: short sequences
favour insertion, full-length sequences always substitute.  Augmented and
original representations are then blended with a Beta-distributed weight,
and a batch-level cross plan mixes representations of different sequences
within the same head-/tail-preference class.

Both operators are one batch kernel, :func:`augment_batch`, whose uniforms
(per row: operator and rate; per position: selection and pick) depend in
number only on the batch's shape.  Training draws them per epoch, indexed
by user and training-prefix position, so a seeded trace replays however
users are batched.  The kernel returns one :class:`AugmentedBatch` of
columns, which training reads as they are; ``augment_sequence`` (and the
two operators through it) returns the one-row case, and ``stack`` joins
such batches row by row.  ``--trace`` lines are written from the columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
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
class AugmentedBatch:
    """One operator application per row, as columns; a single application is one row.

    ``s_prime`` and ``s_ext`` hold the rows' outputs back to back, cut by
    ``lengths``; ``indices`` and ``chosen`` hold their edits, cut by
    ``edits``.  ``insert`` and ``rate`` hold each row's operator (insertion
    or not) and rate.  ``indices`` are positions in the row's *original*
    sequence where the operator acted (selected positions whose candidate
    set was empty are dropped).  For substitution ``s_ext`` equals the
    original sequence; for insertion it is the duplicated-extension, and
    both outputs are truncated from the oldest end together whenever they
    would exceed the maximum length.
    """

    insert: np.ndarray
    rate: np.ndarray
    s_prime: np.ndarray
    s_ext: np.ndarray
    lengths: np.ndarray
    indices: np.ndarray
    chosen: np.ndarray
    edits: np.ndarray

    def __len__(self):
        return len(self.insert)

    @property
    def operator(self) -> np.ndarray:
        """Each row's operator name, read off ``insert``."""
        return np.where(self.insert, INSERT, SUBSTITUTE)

    @classmethod
    def stack(cls, batches) -> AugmentedBatch:
        """The rows of ``batches``, in order, as one batch."""
        return cls(*(np.concatenate([getattr(b, f.name) for b in batches]) for f in fields(cls)))

    def trace_lines(self, users, mix_weights) -> list[str]:
        """Row ``i``'s ``--trace`` line, newline included, for ``users[i]`` mixed with
        ``mix_weights[i]``."""
        outs, edits = np.cumsum(self.lengths)[:-1], np.cumsum(self.edits)[:-1]
        rows = zip(self.operator.tolist(), self.rate.tolist(), np.split(self.s_prime, outs),
                   np.split(self.s_ext, outs), np.split(self.indices, edits),
                   np.split(self.chosen, edits), users, mix_weights)
        return [json.dumps({"operator": op, "indices": indices.tolist(), "chosen": chosen.tolist(),
                            "rate": rate, "s_prime": s_prime.tolist(), "s_ext": s_ext.tolist(),
                            "user": int(u), "mix_weight": float(w)},
                           sort_keys=True, separators=(",", ":")) + "\n"
                for op, rate, s_prime, s_ext, indices, chosen, u, w in rows]


def draw_uniforms(rng, n_rows: int, n_positions: int, config: OperatorConfig):
    """A rate in ``[a, b)`` per row, then a selection and a pick uniform per position."""
    return (rng.uniform(config.a, config.b, n_rows), rng.random(n_positions),
            rng.random(n_positions))


def insert_rows(lengths, max_len: int, uniforms):
    """The operator rule: insertion where its uniform is below ``1 - length/max_len``."""
    return uniforms < 1.0 - np.asarray(lengths) / max_len


def augment_batch(ids, lengths, segmentation: Segmentation, candidates: CandidateSets,
                  max_len: int, *, insert, rates, select, pick) -> AugmentedBatch:
    """One sample per row of ``ids`` (rows back to back); one uniform per entry.

    Entry ``v`` acts when ``select`` is below its row's rate, ``v`` is head
    (substitution) or tail (``insert``) and ``c_v`` is not empty.  Then
    ``c_v[floor(pick * |c_v|)]`` replaces ``v`` or goes in front of it while
    ``s_ext`` repeats ``v``.  Both outputs lose their oldest entries beyond ``max_len``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths < 1):
        raise ValueError("cannot augment an empty sequence")
    insert = np.asarray(insert, dtype=bool)
    rates = np.asarray(rates, dtype=np.float64)
    n = len(lengths)
    row = np.repeat(np.arange(n), lengths)
    members, offsets = candidates.c
    first, size = offsets[ids - 1], offsets[ids] - offsets[ids - 1]
    act = ((np.asarray(select) < rates[row]) & (segmentation.item_head_mask[ids] != insert[row])
           & (size > 0))
    at = np.flatnonzero(act)
    # a product u * |c_v| with u < 1 never rounds up to |c_v|
    chosen = members[first[at] + (np.asarray(pick)[at] * size[at]).astype(np.int64)]
    grow = act & insert[row]
    s_ext = np.repeat(ids, 1 + grow)
    s_prime = s_ext.copy()
    s_prime[at + np.cumsum(grow)[at] - grow[at]] = chosen
    full = lengths + np.bincount(row[grow], minlength=n)
    out = np.minimum(full, max_len)
    keep = np.arange(len(s_ext)) >= np.repeat(np.cumsum(full) - out, full)
    starts = np.cumsum(lengths) - lengths
    return AugmentedBatch(insert=insert, rate=rates, s_prime=s_prime[keep], s_ext=s_ext[keep],
                          lengths=out, indices=at - starts[row[at]], chosen=chosen,
                          edits=np.bincount(row[at], minlength=n))


def t_substitute(seq, segmentation: Segmentation, candidates: CandidateSets,
                 config: OperatorConfig, rng: np.random.Generator) -> AugmentedBatch:
    """Replace each head item, selected with probability ``rate``, by one
    of its candidates.  Tail items are never touched; a selected position
    with an empty candidate set keeps its item and is dropped from
    ``indices``.
    """
    return augment_sequence(seq, segmentation, candidates, config, len(seq), rng, insert=False)


def t_insert(seq, segmentation: Segmentation, candidates: CandidateSets,
             config: OperatorConfig, max_len: int,
             rng: np.random.Generator) -> AugmentedBatch:
    """Insert a candidate before each selected tail item; extend the
    original by duplicating those tail items so both outputs share one
    length.  If that length exceeds ``max_len`` the oldest positions are
    dropped from both outputs equally.
    """
    return augment_sequence(seq, segmentation, candidates, config, max_len, rng, insert=True)


def augment_sequence(seq, segmentation: Segmentation, candidates: CandidateSets,
                     config: OperatorConfig, max_len: int, rng: np.random.Generator,
                     insert: bool | None = None) -> AugmentedBatch:
    """Length-based operator choice (unless ``insert`` forces it), then the operator.

    The one-row case of :func:`augment_batch`, its uniforms drawn from ``rng``.
    """
    seq = np.asarray(seq, dtype=np.int64)
    if insert is None:
        if not 1 <= len(seq) <= max_len:
            raise ValueError(f"seq_len must be in [1, {max_len}], got {len(seq)}")
        insert = insert_rows(len(seq), max_len, rng.random())
    rate, select, pick = draw_uniforms(rng, 1, len(seq), config)
    return augment_batch(seq, [len(seq)], segmentation, candidates, max_len,
                         insert=[insert], rates=rate, select=select, pick=pick)


@dataclass
class CrossPlan:
    """Within-class pairing and mixup weights for one batch.

    ``pairing[i]`` is the batch position mixed into position ``i``; it is a
    bijection on each preference class, never across classes.  ``lams``
    holds one Beta weight per position.
    """

    pairing: np.ndarray
    lams: np.ndarray


def plan_cross_batch(classes: Sequence[PreferenceClass], alpha: float,
                     rng: np.random.Generator) -> CrossPlan:
    """Group positions by preference class and shuffle each group.

    ``classes`` holds one :class:`PreferenceClass` per position.  Draw
    order: head-group permutation, tail-group permutation, then one
    Beta(alpha, alpha) weight per batch position.  A singleton group pairs
    with itself.
    """
    classes = np.asarray(classes, dtype=object)
    if len(classes) == 0:
        raise ValueError("cannot plan cross augmentation for an empty batch")
    pairing = np.arange(len(classes), dtype=np.int64)
    for cls_value in (PreferenceClass.HEAD_PREFERRING, PreferenceClass.TAIL_PREFERRING):
        positions = np.flatnonzero(classes == cls_value)
        pairing[positions] = positions[rng.permutation(len(positions))]
    lams = rng.beta(alpha, alpha, size=len(classes))
    return CrossPlan(pairing=pairing, lams=lams)


def apply_cross_mixup(plan: CrossPlan, rows):
    """Row-wise mixup ``lam_i * rows[i] + (1 - lam_i) * rows[pairing[i]]``.

    Stacking ``[h | e_pos | e_neg]`` as one row mixes a representation and
    its positive and negative item embeddings with one shared weight and
    pairing.  ``rows`` is a 2-D float array; the result keeps its dtype.
    """
    if rows.shape[0] != len(plan.pairing):
        raise ValueError(f"rows has {rows.shape[0]} rows, plan covers {len(plan.pairing)}")
    lam = plan.lams[:, np.newaxis].astype(rows.dtype, copy=False)
    return lam * rows + (1.0 - lam) * rows[plan.pairing]
