"""Losses, negative sampling, Adam, and the two-stage training loop.

Stage 1 optimizes the plain next-item BCE objective so item embeddings
converge on original data; stage 2 adds, with unit weights, a per-sequence
operator-augmentation loss and a batch-level cross-mixup loss.  Disabling
both stage-2 additions reproduces stage-1 behaviour bit-exactly, because
the main path draws from random streams that are disjoint from the
augmentation streams and epochs are indexed globally across stages.

Per step, each eligible user contributes one (prefix -> next item) pair:
a prefix end is sampled uniformly inside the training prefix and the
following training item is the positive; one uniform negative is drawn
from the items absent from the user's training prefix.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from . import serialize
from .augment import (AugmentedBatch, CrossPlan, OperatorConfig, apply_cross_mixup,
                      augment_batch, draw_uniforms, insert_rows, plan_cross_batch)
from .corpus import (Segmentation, SequenceStore, _in_sorted, _pair_keys, _sorted_unique,
                     preference_classes)
from .encoders import (ModelState, backward_batch, encode_ragged, init_model,
                       lookup, sigmoid)
from .errors import DataError, NumericError, finite_positive
from .rand import AUGMENT, CROSS, NEGATIVE, PREFIX, SHUFFLE, derive_rng
from .simcand import CandidateSets

CHECKPOINT_SCHEMA = "tailaug.checkpoint.v2"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
NEGATIVE_BLOCK = 8  # uniform negative proposals per user and epoch


@dataclass
class TrainConfig:
    batch_size: int
    stage1_epochs: int
    stage2_epochs: int
    learning_rate: float
    seed: int
    patience: int | None
    enable_operator_loss: bool = True
    enable_cross_loss: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # zero is legal (no-op steps, useful in tests); negative is not
        if not (self.learning_rate == 0 or finite_positive(self.learning_rate)):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        for name in ("stage1_epochs", "stage2_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def softplus(x):
    return np.logaddexp(0.0, x)


def bce_loss_batch(h, e_pos, e_neg):
    """Row-wise -[log sigma(h.e+) + log(1 - sigma(h.e-))], numerically stable.

    Returns (losses, dh, de_pos, de_neg); gradients are per row and
    unscaled (callers apply their own reduction weights).  Everything is
    computed in the inputs' dtype.
    """
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(e_pos)) and np.all(np.isfinite(e_neg))):
        raise NumericError("non-finite inputs to BCE loss")
    x_pos = np.sum(h * e_pos, axis=-1)
    x_neg = np.sum(h * e_neg, axis=-1)
    losses = softplus(-x_pos) + softplus(x_neg)
    g_pos = (sigmoid(x_pos) - 1.0)[..., np.newaxis]
    g_neg = sigmoid(x_neg)[..., np.newaxis]
    dh = g_pos * e_pos + g_neg * e_neg
    de_pos = g_pos * h
    de_neg = g_neg * h
    return losses, dh, de_pos, de_neg


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    scratch: dict[str, tuple[np.ndarray, np.ndarray]]  # what adam_step writes into
    step: int


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()}, step=0,
                     scratch={k: (np.empty_like(p), np.empty_like(p)) for k, p in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, config: TrainConfig) -> dict[str, np.ndarray]:
    """Standard bias-corrected Adam update, applied in place.  Each operation runs
    in the textbook order into the state's scratch arrays, so a step allocates nothing."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, g in grads.items():
        m, v, (a, b) = state.m[name], state.v[name], state.scratch[name]
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=a), g, out=a)
        np.multiply(config.learning_rate, np.divide(m, bc1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
        params[name] -= np.divide(a, b, out=a)
    return params


@dataclass
class Batch:
    """One step's users, targets, negatives and prefixes: ``ids`` back to back, cut by
    ``lengths``.  A ``prefixes`` list (one array per user) is stacked into them once."""
    users: np.ndarray
    prefixes: InitVar[list[np.ndarray] | None]  # None when the columns are given
    targets: np.ndarray
    negatives: np.ndarray
    ids: np.ndarray | None = None
    lengths: np.ndarray | None = None

    def __post_init__(self, prefixes):
        if prefixes is not None:
            self.ids = np.concatenate(prefixes)
            self.lengths = np.fromiter(map(len, prefixes), np.int64, len(prefixes))

    def __len__(self):
        return len(self.users)


def _epoch_batches(ids: np.ndarray, lengths: np.ndarray, eligible: np.ndarray, n_items: int,
                   seed: int, epoch: int, batch_size: int):
    """One epoch's batches, each with the positions of its prefix ids in ``ids``.

    Every per-user draw is indexed by user, not by batch.  Each user's prefix
    end comes from one array draw per epoch, and its negative is the first of
    ``NEGATIVE_BLOCK`` uniform proposals that it does not own.  That is uniform
    over the items it does not own.  A user that owns its whole block instead
    takes a uniform pick of its unowned items, drawn from the same stream after
    the block, in the order of ``eligible`` (ascending user ids).
    """
    n_users = len(lengths)
    starts = np.cumsum(lengths) - lengths
    # what each user owns, as sorted (user, item) keys
    owned = _sorted_unique(_pair_keys(np.repeat(np.arange(n_users), lengths), ids, n_items))
    cut = derive_rng(seed, PREFIX, epoch).integers(1, np.maximum(lengths, 2))
    rng = derive_rng(seed, NEGATIVE, epoch)
    proposals = rng.integers(1, n_items + 1, size=(n_users, NEGATIVE_BLOCK))
    free = ~_in_sorted(_pair_keys(np.arange(n_users)[:, np.newaxis], proposals, n_items), owned)
    negatives = proposals[np.arange(n_users), free.argmax(axis=1)]
    items = np.arange(1, n_items + 1)
    for u in eligible[~free[eligible].any(axis=1)].tolist():
        unowned = items[~_in_sorted(_pair_keys(u, items, n_items), owned)]
        if len(unowned) == 0:
            raise DataError(f"user {u} interacted with every item; no negative exists")
        negatives[u] = unowned[rng.integers(len(unowned))]
    order = eligible[derive_rng(seed, SHUFFLE, epoch).permutation(len(eligible))]
    for start in range(0, len(order), batch_size):
        users = order[start:start + batch_size]
        n, first = cut[users], starts[users]
        at = np.arange(n.sum()) + np.repeat(first - np.cumsum(n) + n, n)
        yield Batch(users, None, ids[first + n], negatives[users], ids=ids[at], lengths=n), at


def batch_loss(model: ModelState, batch: Batch, *,
               samples=None, op_lams=None, plan: CrossPlan | None = None):
    """Composite per-batch loss and gradients from one encode and one backward.

    The main term always runs.  The operator term runs when ``samples``
    (an :class:`AugmentedBatch`, or a list of samples, stacked into one)
    and ``op_lams`` are given: each row's augmented representation blends
    the extended-original encoding with the augmented-sequence encoding.
    Each distinct sequence is encoded once, in one ragged encode: a
    substitution's ``s_ext`` is its prefix, and an unedited row's outputs
    both are.
    The cross term runs when ``plan`` is given: it pairs rows of the pool
    (originals followed by the operator-mixed rows, when present) within
    preference classes and mixes each row's representation, positive and
    negative with one weight.  All randomness is injected, so the function
    is deterministic and finite-difference checkable.

    Returns (components, grads) where components has per-term means.
    """
    n = len(batch)
    ids, lengths = [batch.ids], [batch.lengths]
    if samples is not None:
        if not isinstance(samples, AugmentedBatch):
            samples = AugmentedBatch.stack(samples)
        out, edited = samples.lengths, samples.edits > 0
        grown = edited & samples.insert
        ids += [samples.s_ext[np.repeat(grown, out)], samples.s_prime[np.repeat(edited, out)]]
        lengths += [out[grown], out[edited]]
        # each row's s_ext / s_prime: its prefix, or its own new row (both maps injective)
        ext_at = np.where(grown, n + np.cumsum(grown) - 1, np.arange(n))
        prime_at = np.where(edited, n + grown.sum() + np.cumsum(edited) - 1, np.arange(n))
    h_all, cache = encode_ragged(model, np.concatenate(ids), np.concatenate(lengths))
    pool = h_all[:n]
    if samples is not None:
        lam_op = np.asarray(op_lams, dtype=h_all.dtype)[:, np.newaxis]
        h_ao = lam_op * h_all[ext_at] + (1.0 - lam_op) * h_all[prime_at]
        pool = np.concatenate([pool, h_ao])
    # one row per pool entry: [h | e_pos | e_neg], operator rows share the original's items
    copies = len(pool) // n
    targets = np.tile(batch.targets, copies)
    negatives = np.tile(batch.negatives, copies)
    rows = np.hstack([pool, lookup(model, targets), lookup(model, negatives)])

    losses, *d_rows = bce_loss_batch(*np.split(rows, 3, axis=1))
    d_rows = np.hstack(d_rows) / n
    components = {"main": float(np.mean(losses[:n])),
                  "operator": float(np.mean(losses[n:])) if copies > 1 else 0.0,
                  "cross": 0.0}
    if plan is not None:
        mixed = apply_cross_mixup(plan, rows)
        cr_losses, *d_mixed = bce_loss_batch(*np.split(mixed, 3, axis=1))
        components["cross"] = float(np.mean(cr_losses))
        d_mixed = np.hstack(d_mixed) / len(rows)
        lam = plan.lams[:, np.newaxis].astype(rows.dtype, copy=False)
        d_rows += lam * d_mixed
        d_rows[plan.pairing] += (1.0 - lam) * d_mixed  # exact: pairing is a permutation
    components["total"] = components["main"] + components["operator"] + components["cross"]

    dh, dpos, dneg = np.split(d_rows, 3, axis=1)
    if samples is not None:  # the blend's gradient splits between its two encodings
        d_ao, dh = dh[n:], np.concatenate([dh[:n], np.zeros((len(h_all) - n, model.dim),
                                                            dh.dtype)])
        dh[ext_at] += lam_op * d_ao
        dh[prime_at] += (1.0 - lam_op) * d_ao
    grads = backward_batch(model, cache, dh, np.concatenate([targets, negatives]),
                           np.concatenate([dpos, dneg]))
    return components, grads


def _stage2_inputs(batch, at, draws, classes, store, segmentation, candidates,
                   op_config, config, epoch, step, trace=None):
    """The batch's samples, mix weights and cross plan.

    Prefix id ``i`` of the batch uses the per-position draws at ``at[i]``.
    """
    samples = op_lams = plan = None
    users = batch.users
    if draws is not None:
        op_u, rates, select, pick, lams = draws
        samples = augment_batch(
            batch.ids, batch.lengths, segmentation, candidates, store.max_len,
            insert=insert_rows(batch.lengths, store.max_len, op_u[users]), rates=rates[users],
            select=select[at], pick=pick[at])
        op_lams = lams[users]
        if trace is not None:
            for sample, u, lam in zip(samples, users.tolist(), op_lams.tolist()):
                trace.write(sample.trace_line(user=u, mix_weight=lam) + "\n")
    if config.enable_cross_loss:
        classes = classes[users]
        if config.enable_operator_loss:
            classes = np.concatenate([classes, classes])  # operator rows inherit the class
        rng = derive_rng(config.seed, CROSS, epoch, step)
        plan = plan_cross_batch(classes, op_config.alpha, rng)
    return samples, op_lams, plan


def _run_epochs(store: SequenceStore, model: ModelState, config: TrainConfig,
                epochs: range, *, segmentation: Segmentation | None = None,
                candidates: CandidateSets | None = None,
                op_config: OperatorConfig | None = None,
                adam: AdamState | None = None, validator=None, trace=None):
    """Train the global epoch indices ``epochs``; stage 2 iff ``op_config`` is given.

    Returns one record per epoch; the one whose parameters the model holds on
    return (see :func:`train_stage1`) carries ``"restored": True``.
    """
    ids, lengths = store.train_prefixes()
    if op_config is not None and (segmentation is None or candidates is None):
        raise ValueError("augmentation losses need segmentation and candidates")
    eligible = np.flatnonzero(lengths >= 2)
    if len(eligible) == 0:
        raise DataError("no user has a training prefix of length >= 2")
    if op_config is not None:
        classes = preference_classes(ids, lengths, segmentation)

    if adam is None:
        adam = init_adam(model.params)
    history = []
    best_score, best_params, best_index, bad_epochs = -np.inf, None, -1, 0
    for e in epochs:
        sums = {"main": 0.0, "operator": 0.0, "cross": 0.0, "total": 0.0}
        count = 0
        draws = None
        if op_config is not None and config.enable_operator_loss:
            rng = derive_rng(config.seed, AUGMENT, e)
            op_u = rng.random(store.n_users)
            draws = (op_u, *draw_uniforms(rng, store.n_users, lengths.sum(), op_config),
                     rng.beta(op_config.alpha, op_config.alpha, store.n_users))
        for step, (batch, at) in enumerate(_epoch_batches(
                ids, lengths, eligible, store.n_items, config.seed, e, config.batch_size)):
            samples = op_lams = plan = None
            if op_config is not None:
                samples, op_lams, plan = _stage2_inputs(
                    batch, at, draws, classes, store, segmentation, candidates,
                    op_config, config, e, step, trace=trace)
            components, grads = batch_loss(model, batch, samples=samples,
                                           op_lams=op_lams, plan=plan)
            if not np.isfinite(components["total"]):
                raise NumericError(
                    f"training diverged: non-finite loss at epoch {e}, step {step} "
                    f"(components: {components})")
            adam_step(model.params, grads, adam, config)
            for k in sums:
                sums[k] += components.get(k, 0.0) * len(batch)
            count += len(batch)
        record = {"epoch": e, **{f"loss_{k}": sums[k] / count for k in sums}}
        if validator is not None:
            score = float(validator(model))
            record["valid_score"] = score
            if score > best_score:
                best_score, bad_epochs = score, 0
                best_params = {k: v.copy() for k, v in model.params.items()}
                best_index = len(history)
            else:
                bad_epochs += 1
        history.append(record)
        if (validator is not None and config.patience is not None
                and bad_epochs > config.patience):
            break
    if best_params is not None:
        model.params.update(best_params)
    if history:
        history[best_index]["restored"] = True
    return history


def train_stage1(store: SequenceStore, model: ModelState, config: TrainConfig, *,
                 adam: AdamState | None = None, validator=None):
    """Main-objective-only training of ``config.stage1_epochs`` epochs from epoch 0;
    the baseline arm is one stage 1 given both stages' epochs.

    Returns the per-epoch history and updates ``adam`` in place, so one
    ``AdamState`` passed to both stages carries the optimizer into stage 2.
    A ``validator`` stops it once more than ``config.patience`` epochs in a row
    fail to beat the best score; the first epoch with the best score is
    restored.  The restored record (without a validator, the last) is marked.
    """
    return _run_epochs(store, model, config, range(config.stage1_epochs),
                       adam=adam, validator=validator)


def train_stage2(store: SequenceStore, model: ModelState,
                 candidates: CandidateSets, segmentation: Segmentation,
                 config: TrainConfig, op_config: OperatorConfig, *,
                 adam: AdamState, validator=None, trace=None):
    """Augmented training on top of a stage-1 model, ``config.stage2_epochs`` epochs.

    Epoch indices continue from stage 1 so that running stage 2 with both
    augmentation losses disabled is bit-identical to more stage-1 epochs.
    """
    first = config.stage1_epochs
    return _run_epochs(
        store, model, config, range(first, first + config.stage2_epochs),
        segmentation=segmentation, candidates=candidates, op_config=op_config,
        adam=adam, validator=validator, trace=trace)


def save_checkpoint(path, model: ModelState, *, epoch: int | None, config_meta: dict,
                    metrics: dict, lineage: dict) -> None:
    """Persist the parameters as float32 sections, one per ``model.params`` entry.

    ``epoch`` names the epoch whose parameters these are (``None`` before
    any); it, ``config_meta`` and ``metrics`` form the header with ``lineage``.
    The CLI trains in float32, so its models save without loss; a float64
    model is quantized to float32.  Loading restores exactly the stored
    32-bit values, upcast to float64.
    """
    serialize.save(path, CHECKPOINT_SCHEMA, {
        "n_items": model.n_items,
        "dim": model.dim,
        "encoder": model.encoder_name,
        "epoch": epoch,
        "config": config_meta,
        "metrics": metrics,
    }, lineage=lineage, sections=model.params)


def _decode_checkpoint(meta: dict, sections: dict):
    # the checksum covers the payload only: an edited header must fail here, not in a caller
    if not isinstance(meta.get("config", {}), dict):
        raise DataError("checkpoint config is not a JSON object")
    bad = sorted(k for k, v in sections.items() if not np.all(np.isfinite(v)))
    if bad:
        raise DataError(f"checkpoint has non-finite values in {', '.join(bad)}")
    model = ModelState(n_items=int(meta["n_items"]), dim=int(meta["dim"]),
                       encoder_name=meta["encoder"],
                       params={k: v.astype(np.float64) for k, v in sections.items()})
    # an unknown encoder or a missing, extra or misshapen section fails here
    expected = init_model(model.n_items, model.dim, 0, model.encoder_name).params
    if {k: v.shape for k, v in model.params.items()} != {k: v.shape for k, v in expected.items()}:
        raise DataError(f"checkpoint sections do not match a {model.encoder_name} model "
                        f"with {model.n_items} items and dim {model.dim}")
    return model, meta


def load_checkpoint(path):
    """Returns ``(model, lineage, meta)``: a float64 model and the header's fields."""
    (model, meta), lineage = serialize.load(path, CHECKPOINT_SCHEMA, _decode_checkpoint,
                                            blob=True)
    return model, lineage, meta
