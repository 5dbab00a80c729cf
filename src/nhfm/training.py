"""Negative log-likelihood training: minibatch loop, SGD/Adam, early
stopping on validation AUC, gradient verification, and divergence guards.

Training, scoring and the gradient check all run the batched engine of
:mod:`nhfm.model`: each minibatch is gathered from an event store into
padded arrays and every layer runs once per batch with a hand-written
backward pass, so :func:`grad_check_mode` checks the backward that trains.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import autodiff as ad
from . import metrics as mt
from .data import Dataset, EventSequence, EventStore
from .errors import DataError, NumericalError
from .model import (ModelConfig, Parameters, gather, init_parameters, logits,
                    loss_and_grads, random_parameters, scores)


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's defaults (Kingma & Ba, 2015)


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"            # sgd | adam
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3                  # evaluations without improvement
    seed: int = 1
    grad_clip_norm: float | None = None
    eval_every: int = 1                # epochs between validation passes
    pos_weight: float = 1.0            # weight on positive-class loss terms
    target_train_nll: float | None = None  # stop early once reached

    def validate(self) -> None:
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("batch_size", "max_epochs", "patience", "eval_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("learning_rate", "grad_clip_norm", "pos_weight"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")


# ---------------------------------------------------------------------------
# loss


def nll_loss(logit: float, label: int) -> float:
    """-[y ln p + (1-y) ln(1-p)] with p = sigmoid(logit).

    Fused from the logit: softplus(logit) - y * logit, total for any input.
    """
    return float(np.logaddexp(0.0, logit) - label * logit)


def example_loss_and_grads(seq: EventSequence, params: Parameters,
                           config: ModelConfig,
                           pos_weight: float = 1.0
                           ) -> tuple[float, dict[str, np.ndarray]]:
    """Forward + backward for one sequence, as a batch of one; gradients
    keyed by parameter name."""
    return loss_and_grads(gather(EventStore.of([seq]), [0]), params, config, pos_weight)


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class OptimizerState:
    """Step count and Adam's moments, laid out like the parameters."""

    kind: str
    step: int = 0
    m: Parameters = field(default_factory=lambda: Parameters({}))
    v: Parameters = field(default_factory=lambda: Parameters({}))

    @classmethod
    def fresh(cls, kind: str, params: Parameters) -> "OptimizerState":
        state = cls(kind)
        if kind == "adam":
            state.m, state.v = params.zeros_like(), params.zeros_like()
        return state


def optimizer_step(params: Parameters, grads: Mapping[str, np.ndarray],
                   state: OptimizerState, config: TrainConfig
                   ) -> tuple[Parameters, OptimizerState]:
    """In-place update of ``params.flat``; NaN gradients abort, naming the
    tensor. The gradients are concatenated once, in parameter order, and
    each step of the rule is one pass over the whole vector, in the order
    of the textbook expressions, so results are bit-identical to
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p -= lr*m_hat / (sqrt(v_hat) + eps)`` per tensor."""
    g = np.concatenate([grads[name].ravel() for name in params])
    if not np.isfinite(g).all():
        name = next(n for n in params if not np.isfinite(grads[n]).all())
        raise NumericalError(f"non-finite gradient for parameter {name!r}")

    if config.grad_clip_norm is not None:
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if total > config.grad_clip_norm:
            np.multiply(g, config.grad_clip_norm / total, out=g)

    lr, p = config.learning_rate, params.flat
    state.step += 1
    if state.kind == "sgd":
        p -= lr * g
        return params, state

    t = state.step
    c1, c2 = 1 - BETA1 ** t, 1 - BETA2 ** t
    m, v, work = state.m.flat, state.v.flat, np.empty_like(p)
    np.multiply(m, BETA1, out=m)
    np.multiply(g, 1 - BETA1, out=work)
    np.add(m, work, out=m)
    np.multiply(v, BETA2, out=v)
    np.multiply(g, 1 - BETA2, out=work)
    np.multiply(work, g, out=work)
    np.add(v, work, out=v)
    np.divide(m, c1, out=work)       # m_hat
    np.multiply(work, lr, out=work)
    np.divide(v, c2, out=g)          # v_hat; g is no longer needed
    np.sqrt(g, out=g)
    np.add(g, ADAM_EPS, out=g)
    np.divide(work, g, out=work)
    np.subtract(p, work, out=p)
    return params, state


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochRecord:
    epoch: int
    train_nll: float
    valid_auc: float | None
    seconds: float

    def line(self) -> str:
        auc_s = f"{self.valid_auc:.4f}" if self.valid_auc is not None else "-"
        return (f"epoch={self.epoch} train_nll={self.train_nll:.6f} "
                f"valid_auc={auc_s} seconds={self.seconds:.2f}")


@dataclass
class TrainResult:
    params: Parameters
    opt_state: OptimizerState
    model_config: ModelConfig
    train_config: TrainConfig
    log: list[EpochRecord]
    best_valid_auc: float | None
    best_epoch: int
    diverged: bool = False


def predict_scores(dataset: Dataset, params: Parameters,
                   config: ModelConfig) -> np.ndarray:
    out = scores(dataset.store, params, config)
    if not np.isfinite(out).all():
        raise NumericalError(f"{dataset.split} scores are not finite; the parameters diverged")
    return out


def require_both_classes(dataset: Dataset) -> None:
    """Raise ``DataError`` unless ``dataset`` holds positive and negative
    windows, as AUC needs."""
    n_pos = int(np.count_nonzero(dataset.store.label))
    n_neg = len(dataset.store) - n_pos
    if not n_pos or not n_neg:
        raise DataError(f"{dataset.split} split has {n_pos} positives / {n_neg} "
                        "negatives; AUC needs both classes")


def _dataset_auc(dataset: Dataset, params: Parameters,
                 config: ModelConfig) -> float:
    return mt.auc(mt.ScoredSet.of(predict_scores(dataset, params, config),
                                  dataset.store.label))


def train(train_ds: Dataset, valid_ds: Dataset, model_config: ModelConfig,
          train_config: TrainConfig,
          log_fn: Callable[[str], None] | None = None) -> TrainResult:
    """Single-seed training run returning the best-validation parameters,
    or, when no validation ran, the parameters at the stop.

    Epoch shuffles draw from a (seed, epoch) stream; each batch is gathered
    from the training split's event store; validation AUC drives early
    stopping with the configured patience. Divergence (non-finite loss or
    gradient) stops training and sets ``diverged``.
    """
    model_config.validate()
    train_config.validate()
    store = train_ds.store
    if not len(store):
        raise DataError(f"{train_ds.split} split is empty; nothing to train on")
    require_both_classes(valid_ds)

    n = train_ds.schema.n
    params = init_parameters(model_config, n, train_config.seed)
    state = OptimizerState.fresh(train_config.optimizer, params)

    best_params = params.copy()
    best_auc: float | None = None
    best_epoch = 0
    evals_since_improvement = 0
    log: list[EpochRecord] = []
    diverged = False

    for epoch in range(1, train_config.max_epochs + 1):
        started = time.perf_counter()
        rng = np.random.default_rng((train_config.seed, epoch))
        order = rng.permutation(len(store))

        epoch_loss, seen = 0.0, 0
        try:
            for lo in range(0, len(order), train_config.batch_size):
                batch = gather(store, order[lo:lo + train_config.batch_size])
                loss, grads = loss_and_grads(batch, params, model_config,
                                             train_config.pos_weight)
                if not np.isfinite(loss):
                    raise NumericalError(f"training loss diverged: {loss}")
                params, state = optimizer_step(params, grads, state, train_config)
                size = len(batch.label)
                epoch_loss += loss * size
                seen += size
        except NumericalError as exc:
            diverged = True
            if log_fn:
                log_fn(f"epoch={epoch} aborted: {exc}")
            break

        train_nll = epoch_loss / seen
        valid_auc = None
        if epoch % train_config.eval_every == 0:
            valid_auc = _dataset_auc(valid_ds, params, model_config)
            if best_auc is None or valid_auc > best_auc:
                best_auc, best_epoch = valid_auc, epoch
                best_params = params.copy()
                evals_since_improvement = 0
            else:
                evals_since_improvement += 1

        record = EpochRecord(epoch, train_nll, valid_auc,
                             time.perf_counter() - started)
        log.append(record)
        if log_fn:
            log_fn(record.line())

        if (train_config.target_train_nll is not None
                and train_nll < train_config.target_train_nll):
            break
        if evals_since_improvement >= train_config.patience:
            break

    if best_auc is None:  # no evaluation happened before stopping
        best_params, best_epoch = params.copy(), len(log)
    return TrainResult(best_params, state, model_config, train_config,
                       log, best_auc, best_epoch, diverged)


# ---------------------------------------------------------------------------
# gradient verification mode


@dataclass
class GradCheckReport:
    per_group: dict[str, tuple[float, int]]  # name -> (max rel err, flat index)
    tolerance: float

    @property
    def max_rel_err(self) -> float:
        return max(err for err, _ in self.per_group.values())

    def worst(self) -> tuple[str, float, int]:
        name = max(self.per_group, key=lambda n: self.per_group[n][0])
        err, idx = self.per_group[name]
        return name, err, idx

    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def lines(self) -> list[str]:
        out = []
        for name, (err, idx) in sorted(self.per_group.items(),
                                       key=lambda kv: -kv[1][0]):
            flag = "ok" if err < self.tolerance else "FAIL"
            out.append(f"{flag:4s} {name:20s} max_rel_err={err:.3e} at [{idx}]")
        name, err, idx = self.worst()
        out.append(f"worst: {name}[{idx}] rel_err={err:.3e} "
                   f"({'pass' if self.passed() else 'fail'} at {self.tolerance:g})")
        return out


def grad_check_mode(store: EventStore, windows, n: int,
                    model_config: ModelConfig, seed: int = 0,
                    eps: float = 1e-5, tolerance: float = 1e-4
                    ) -> GradCheckReport:
    """Finite-difference check of the summed loss of the windows at
    positions ``windows`` of ``store``, gathered as one batch, against the
    batched backward pass that trains; ``n`` is the schema's feature count.

    Parameters are drawn at O(1) scale (see ``random_parameters``) so ReLU
    and softmax paths are exercised away from non-differentiable points.
    """
    params = random_parameters(model_config, n, seed)
    batch = gather(store, windows)

    def total_loss(arrays: Mapping[str, np.ndarray]) -> float:
        zs = logits(batch, Parameters(dict(arrays)), model_config)
        return sum(nll_loss(z, y) for z, y in zip(zs, batch.label))

    _, grads = loss_and_grads(batch, params, model_config)
    # loss_and_grads gives the batch mean
    analytic = {name: g * len(windows) for name, g in grads.items()}

    report = ad.finite_diff_errors(total_loss, dict(params.items()),
                                   analytic, eps=eps)
    return GradCheckReport(report, tolerance)
