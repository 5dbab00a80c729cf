"""Dense float64 tensors with tape-based reverse-mode differentiation.

Tensors are C-contiguous ``numpy`` float64 arrays. A :class:`Tape` records
every operation as an append-only node list; node ids are topologically
ordered by construction, so :func:`backward` can walk the list once in
strict reverse insertion order. All operations are pure functions of their
inputs; a tape belongs to one logical thread.

Supported shapes are scalars ``()``, vectors ``(m,)`` and matrices
``(m, k)``. There is no broadcasting except scalar-with-tensor (``add``,
``sub``, ``smul``), which keeps shape bugs loud.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

Array = np.ndarray


def as_tensor(x) -> Array:
    """Coerce to a C-contiguous float64 array (0-d stays 0-d)."""
    arr = np.asarray(x, dtype=np.float64)
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


def assert_finite(x: Array, name: str = "tensor") -> None:
    """Raise if any entry is NaN or infinite."""
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"{name} contains NaN/Inf")


def sigmoid_values(x: Array) -> Array:
    # two-branch form avoids exp overflow warnings for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Node:
    """One recorded operation: kind, input node ids, forward value.

    ``vjp`` maps the upstream gradient to one gradient per input (``None``
    for inputs that receive nothing); leaves have ``vjp = None``. Saved
    forward values live in the closure.
    """

    __slots__ = ("op", "inputs", "value", "vjp")

    def __init__(self, op: str, inputs: tuple[int, ...], value: Array,
                 vjp: Callable[[Array], tuple] | None):
        self.op = op
        self.inputs = inputs
        self.value = value
        self.vjp = vjp


class Var:
    """Handle to a tape node."""

    __slots__ = ("tape", "id")

    def __init__(self, tape: "Tape", node_id: int):
        self.tape = tape
        self.id = node_id

    @property
    def value(self) -> Array:
        return self.tape.nodes[self.id].value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.tape.nodes[self.id].value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Var(id={self.id}, op={self.tape.nodes[self.id].op}, shape={self.shape})"


class Tape:
    """Append-only record of a forward computation."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _append(self, op: str, inputs: tuple[int, ...], value: Array,
                vjp: Callable[[Array], tuple] | None) -> Var:
        self.nodes.append(Node(op, inputs, value, vjp))
        return Var(self, len(self.nodes) - 1)

    def leaf(self, value, op: str = "leaf") -> Var:
        """Register an input tensor (parameter or constant)."""
        return self._append(op, (), as_tensor(value), None)

    def constant(self, value) -> Var:
        """Register a non-learnable input; gradients reaching it are kept
        on the tape but callers never ask for them."""
        return self.leaf(value, op="const")


def _same_tape(*vs: Var) -> Tape:
    tape = vs[0].tape
    for v in vs[1:]:
        if v.tape is not tape:
            raise ValueError("operands recorded on different tapes")
    return tape


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Var, b: Var) -> Var:
    """Elementwise sum; one operand may be a scalar."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape and av.shape != () and bv.shape != ():
        raise ValueError(f"add: shape mismatch {av.shape} vs {bv.shape}")
    out = av + bv

    def vjp(g: Array):
        ga = g.sum() if av.shape == () and out.shape != () else g
        gb = g.sum() if bv.shape == () and out.shape != () else g
        return np.asarray(ga), np.asarray(gb)

    return tape._append("add", (a.id, b.id), out, vjp)


def sub(a: Var, b: Var) -> Var:
    """Elementwise difference; one operand may be a scalar."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape and av.shape != () and bv.shape != ():
        raise ValueError(f"sub: shape mismatch {av.shape} vs {bv.shape}")
    out = av - bv

    def vjp(g: Array):
        ga = g.sum() if av.shape == () and out.shape != () else g
        gb = g.sum() if bv.shape == () and out.shape != () else g
        return np.asarray(ga), np.asarray(-gb)

    return tape._append("sub", (a.id, b.id), out, vjp)


def scale(a: Var, c: float) -> Var:
    """Multiply by a compile-time constant scalar."""
    c = float(c)
    return a.tape._append("scale", (a.id,), c * a.value, lambda g: (c * g,))


def smul(s: Var, t: Var) -> Var:
    """Scalar variable times tensor variable."""
    tape = _same_tape(s, t)
    if s.value.shape != ():
        raise ValueError(f"smul: first operand must be scalar, got {s.value.shape}")
    sv, tv = s.value, t.value
    out = sv * tv

    def vjp(g: Array):
        return np.asarray((g * tv).sum()), sv * g

    return tape._append("smul", (s.id, t.id), out, vjp)


def hadamard(a: Var, b: Var) -> Var:
    """Elementwise product of identically shaped tensors."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ValueError(f"hadamard: shape mismatch {av.shape} vs {bv.shape}")
    return tape._append("hadamard", (a.id, b.id), av * bv,
                        lambda g: (g * bv, g * av))


def matmul(a: Var, b: Var) -> Var:
    """Matrix product: (m,k)@(k,p), (m,k)@(k,) or (k,)@(k,p)."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.ndim == 0 or bv.ndim == 0 or av.ndim > 2 or bv.ndim > 2:
        raise ValueError(f"matmul: unsupported ranks {av.shape} x {bv.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree {av.shape} x {bv.shape}")
    out = av @ bv

    def vjp(g: Array):
        if av.ndim == 2 and bv.ndim == 2:
            return g @ bv.T, av.T @ g
        if av.ndim == 2 and bv.ndim == 1:
            return np.outer(g, bv), av.T @ g
        # (k,) @ (k,p)
        return bv @ g, np.outer(av, g)

    return tape._append("matmul", (a.id, b.id), out, vjp)


def dot(a: Var, b: Var) -> Var:
    """Inner product of two equal-length vectors, yielding a scalar."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.ndim != 1 or av.shape != bv.shape:
        raise ValueError(f"dot: need equal-length vectors, got {av.shape} and {bv.shape}")
    return tape._append("dot", (a.id, b.id), np.asarray(av @ bv),
                        lambda g: (g * bv, g * av))


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def square(a: Var) -> Var:
    av = a.value
    return a.tape._append("square", (a.id,), av * av, lambda g: (2.0 * av * g,))


def sigmoid(a: Var) -> Var:
    s = sigmoid_values(a.value)
    return a.tape._append("sigmoid", (a.id,), s, lambda g: (s * (1.0 - s) * g,))


def tanh(a: Var) -> Var:
    t = np.tanh(a.value)
    return a.tape._append("tanh", (a.id,), t, lambda g: ((1.0 - t * t) * g,))


def relu(a: Var) -> Var:
    av = a.value
    return a.tape._append("relu", (a.id,), np.maximum(av, 0.0),
                          lambda g: ((av > 0) * g,))


def softplus(a: Var) -> Var:
    """log(1 + exp(x)), computed without overflow."""
    av = a.value
    return a.tape._append("softplus", (a.id,), np.logaddexp(0.0, av),
                          lambda g: (sigmoid_values(av) * g,))


# ---------------------------------------------------------------------------
# reductions and structure


def sum_axis(a: Var, axis: int | None = None) -> Var:
    """Sum over one axis, or over everything (-> scalar) when axis is None."""
    av = a.value
    if axis is None:
        return a.tape._append("sum", (a.id,), np.asarray(av.sum()),
                              lambda g: (np.full_like(av, float(g)),))
    if not 0 <= axis < av.ndim:
        raise ValueError(f"sum_axis: axis {axis} out of range for shape {av.shape}")
    out = av.sum(axis=axis)

    def vjp(g: Array):
        return (np.broadcast_to(np.expand_dims(g, axis), av.shape).copy(),)

    return a.tape._append("sum_axis", (a.id,), out, vjp)


def softmax(a: Var) -> Var:
    """Stable softmax over a non-empty vector."""
    av = a.value
    if av.ndim != 1 or av.size == 0:
        raise ValueError(f"softmax: need a non-empty vector, got shape {av.shape}")
    e = np.exp(av - av.max())
    s = e / e.sum()

    def vjp(g: Array):
        return (s * (g - float(g @ s)),)

    return a.tape._append("softmax", (a.id,), s, vjp)


def concat(parts: Sequence[Var]) -> Var:
    """Concatenate 1-D vectors."""
    if not parts:
        raise ValueError("concat: empty input")
    tape = _same_tape(*parts)
    vals = [p.value for p in parts]
    for v in vals:
        if v.ndim != 1:
            raise ValueError(f"concat: need 1-D vectors, got shape {v.shape}")
    sizes = [v.shape[0] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: Array):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(vals)))

    return tape._append("concat", tuple(p.id for p in parts),
                        np.concatenate(vals), vjp)


def stack(parts: Sequence[Var]) -> Var:
    """Stack scalar variables into a vector."""
    if not parts:
        raise ValueError("stack: empty input")
    tape = _same_tape(*parts)
    for p in parts:
        if p.value.shape != ():
            raise ValueError(f"stack: need scalars, got shape {p.value.shape}")
    out = np.array([float(p.value) for p in parts])

    def vjp(g: Array):
        return tuple(np.asarray(g[i]) for i in range(len(parts)))

    return tape._append("stack", tuple(p.id for p in parts), out, vjp)


def pick(a: Var, index: int) -> Var:
    """Select one entry of a vector as a scalar."""
    av = a.value
    if av.ndim != 1:
        raise ValueError(f"pick: need a vector, got shape {av.shape}")
    if not 0 <= index < av.shape[0]:
        raise IndexError(f"pick: index {index} out of range for length {av.shape[0]}")
    out = np.asarray(av[index])

    def vjp(g: Array):
        z = np.zeros_like(av)
        z[index] = g
        return (z,)

    return a.tape._append("pick", (a.id,), out, vjp)


def gather_rows(a: Var, indices: Sequence[int]) -> Var:
    """Select rows by index along axis 0; gradients accumulate additively
    back into the selected rows (an index repeated m times receives m
    upstream contributions)."""
    av = a.value
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows: need a flat index list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[0]):
        raise IndexError(
            f"gather_rows: index out of range for axis of size {av.shape[0]}: "
            f"min={idx.min()}, max={idx.max()}")
    out = np.take(av, idx, axis=0)

    def vjp(g: Array):
        z = np.zeros_like(av)
        np.add.at(z, idx, g)
        return (z,)

    return a.tape._append("gather_rows", (a.id,), out, vjp)


# ---------------------------------------------------------------------------
# reverse pass


def backward(tape: Tape, loss: Var) -> dict[int, Array]:
    """Accumulate d(loss)/d(node) for every node reachable from ``loss``.

    Returns gradients keyed by leaf node id; leaves the loss never reaches
    map to zero arrays. Visits nodes in strict reverse insertion order, so
    two tapes built identically produce bit-identical gradients.
    """
    if loss.tape is not tape:
        raise ValueError("loss was recorded on a different tape")
    if loss.value.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.value.shape}")

    grads: list[Array | None] = [None] * len(tape.nodes)
    grads[loss.id] = np.ones(())
    for nid in range(loss.id, -1, -1):
        g = grads[nid]
        node = tape.nodes[nid]
        if g is None or node.vjp is None:
            continue
        for iid, ig in zip(node.inputs, node.vjp(g)):
            if ig is None:
                continue
            if grads[iid] is None:
                grads[iid] = np.zeros_like(tape.nodes[iid].value)
            grads[iid] += ig

    out: dict[int, Array] = {}
    for nid, node in enumerate(tape.nodes):
        if node.vjp is None:
            g = grads[nid]
            out[nid] = g if g is not None else np.zeros_like(node.value)
    return out


# ---------------------------------------------------------------------------
# gradient verification


def finite_diff_errors(f: Callable[[Mapping[str, Array]], float],
                       params: Mapping[str, Array],
                       analytic: Mapping[str, Array],
                       eps: float = 1e-5) -> dict[str, tuple[float, int]]:
    """Central-difference check of ``analytic`` against ``f``.

    For every scalar entry p the numeric gradient (f(p+eps)-f(p-eps))/2eps
    is compared with the analytic one; the relative error denominator is
    max(|analytic|, |numeric|, 1e-8). Returns, per parameter name, the
    worst relative error and the flat index where it occurs. ``f`` must be
    deterministic and pure.
    """
    work = {name: np.array(v, dtype=np.float64) for name, v in params.items()}
    report: dict[str, tuple[float, int]] = {}
    for name, arr in work.items():
        flat = arr.reshape(-1)
        a_flat = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        worst, worst_i = 0.0, 0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(work)
            flat[i] = orig - eps
            f_minus = f(work)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            err = abs(a_flat[i] - numeric) / denom
            if err >= worst:
                worst, worst_i = err, i
        report[name] = (worst, worst_i)
    return report


def finite_diff_check(f: Callable[[Mapping[str, Array]], float],
                      params: Mapping[str, Array],
                      analytic: Mapping[str, Array],
                      eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences."""
    report = finite_diff_errors(f, params, analytic, eps=eps)
    return max((err for err, _ in report.values()), default=0.0)
