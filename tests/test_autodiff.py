"""Tests of the tape oracle (``tape_oracle``), each differentiable op
checked against central finite differences and the structural ops
against loop oracles, and of its array helpers."""

import numpy as np
import pytest

import tape_oracle as ad


def matmul_oracle(a, b):
    """Naive triple-loop matrix product."""
    m, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def hadamard_oracle(a, b):
    out = np.zeros_like(a)
    flat_a, flat_b, flat_o = a.reshape(-1), b.reshape(-1), out.reshape(-1)
    for i in range(flat_a.size):
        flat_o[i] = flat_a[i] * flat_b[i]
    return out


class TestMatmul:
    def test_identity(self):
        t = ad.Tape()
        a = t.leaf(np.eye(2))
        b = t.leaf([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).value, [[1.0, 2.0], [3.0, 4.0]])

    def test_selector_row(self):
        t = ad.Tape()
        a = t.leaf([[1.0, 0.0]])
        b = t.leaf([[0.0], [5.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).value, [[0.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a_val = rng.uniform(-2, 2, (3, 4))
        b_val = rng.uniform(-2, 2, (4, 2))
        t = ad.Tape()
        out = ad.matmul(t.leaf(a_val), t.leaf(b_val))
        assert np.max(np.abs(out.value - matmul_oracle(a_val, b_val))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        t = ad.Tape()
        a = t.leaf(np.zeros((2, 3)))
        b = t.leaf(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(a, b)


class TestHadamard:
    def test_two_element(self):
        t = ad.Tape()
        out = ad.hadamard(t.leaf([1.0, 2.0]), t.leaf([3.0, 4.0]))
        np.testing.assert_array_equal(out.value, [3.0, 8.0])

    def test_ones_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, 5)
        t = ad.Tape()
        out = ad.hadamard(t.leaf(x), t.leaf(np.ones(5)))
        np.testing.assert_array_equal(out.value, x)

    def test_against_loop(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-2, 2, (4, 3))
        b = rng.uniform(-2, 2, (4, 3))
        t = ad.Tape()
        out = ad.hadamard(t.leaf(a), t.leaf(b))
        np.testing.assert_array_equal(out.value, hadamard_oracle(a, b))

    def test_shape_mismatch(self):
        t = ad.Tape()
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.hadamard(t.leaf([1.0]), t.leaf([1.0, 2.0]))


class TestSoftmax:
    def test_symmetry(self):
        t = ad.Tape()
        np.testing.assert_allclose(ad.softmax(t.leaf([0.0, 0.0])).value, [0.5, 0.5])

    def test_singleton(self):
        for x in (-3.0, 0.0, 117.0):
            t = ad.Tape()
            np.testing.assert_array_equal(ad.softmax(t.leaf([x])).value, [1.0])

    def test_large_logits_no_overflow(self):
        t = ad.Tape()
        out = ad.softmax(t.leaf([1000.0, 1000.0])).value
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.uniform(-5, 5, rng.integers(1, 9))
            t = ad.Tape()
            s = ad.softmax(t.leaf(logits)).value
            assert abs(s.sum() - 1.0) < 1e-12
            assert np.all(s > 0)
            t2 = ad.Tape()
            shifted = ad.softmax(t2.leaf(logits + 13.7)).value
            assert np.max(np.abs(s - shifted)) < 1e-12

    def test_empty_rejected(self):
        t = ad.Tape()
        with pytest.raises(ValueError):
            ad.softmax(t.leaf(np.zeros(0)))


class TestStructuralOps:
    def test_sigmoid_at_zero(self):
        t = ad.Tape()
        assert float(ad.sigmoid(t.leaf(0.0)).value) == 0.5

    def test_concat(self):
        t = ad.Tape()
        out = ad.concat([t.leaf([1.0]), t.leaf([2.0, 3.0])])
        np.testing.assert_array_equal(out.value, [1.0, 2.0, 3.0])

    def test_gather_repeated_index_doubles_gradient(self):
        t = ad.Tape()
        v = t.leaf(np.arange(6.0).reshape(3, 2))
        picked = ad.gather_rows(v, [1, 1])
        loss = ad.sum_axis(picked)
        grads = ad.backward(t, loss)
        np.testing.assert_array_equal(grads[v.id], [[0, 0], [2, 2], [0, 0]])

    def test_gather_additivity(self):
        # index appearing m times gets m x the single-appearance gradient
        rng = np.random.default_rng(9)
        v_val = rng.uniform(-2, 2, (5, 3))
        for m in (1, 2, 4):
            t = ad.Tape()
            v = t.leaf(v_val)
            loss = ad.sum_axis(ad.gather_rows(v, [2] * m))
            g = ad.backward(t, loss)[v.id]
            np.testing.assert_allclose(g[2], m * np.ones(3))

    def test_gather_out_of_range(self):
        t = ad.Tape()
        v = t.leaf(np.zeros((3, 2)))
        with pytest.raises(IndexError, match="out of range"):
            ad.gather_rows(v, [0, 3])

    def test_stack_scalars(self):
        t = ad.Tape()
        a, b = t.leaf(1.5), t.leaf(-2.0)
        out = ad.stack([a, b])
        np.testing.assert_array_equal(out.value, [1.5, -2.0])
        loss = ad.dot(out, t.constant([2.0, 3.0]))
        g = ad.backward(t, loss)
        assert float(g[a.id]) == 2.0 and float(g[b.id]) == 3.0

    def test_pick_routes_gradient_to_one_slot(self):
        t = ad.Tape()
        x = t.leaf([5.0, 7.0, 9.0])
        picked = ad.pick(x, 1)
        assert float(picked.value) == 7.0
        g = ad.backward(t, ad.square(picked))
        np.testing.assert_array_equal(g[x.id], [0.0, 14.0, 0.0])
        with pytest.raises(IndexError, match="out of range"):
            ad.pick(x, 3)


class TestBackward:
    def test_sum_gives_ones(self):
        t = ad.Tape()
        x = t.leaf([1.0, -2.0, 3.0])
        g = ad.backward(t, ad.sum_axis(x))
        np.testing.assert_array_equal(g[x.id], np.ones(3))

    def test_quadratic_gives_two_x(self):
        x_val = np.array([1.0, -2.0, 3.0])
        t = ad.Tape()
        x = t.leaf(x_val)
        g = ad.backward(t, ad.sum_axis(ad.hadamard(x, x)))
        np.testing.assert_allclose(g[x.id], 2 * x_val)

    def test_unreached_leaf_gets_zeros(self):
        t = ad.Tape()
        x = t.leaf([1.0, 2.0])
        unused = t.leaf([[5.0, 5.0]])
        g = ad.backward(t, ad.sum_axis(x))
        np.testing.assert_array_equal(g[unused.id], np.zeros((1, 2)))

    def test_non_scalar_loss_rejected(self):
        t = ad.Tape()
        x = t.leaf([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(t, x)

    def test_deterministic_bit_identical(self):
        def build():
            rng = np.random.default_rng(42)
            t = ad.Tape()
            w = t.leaf(rng.normal(size=(4, 3)))
            x = t.leaf(rng.normal(size=3))
            h = ad.tanh(ad.matmul(w, x))
            loss = ad.sum_axis(ad.square(h))
            return {k: v.copy() for k, v in ad.backward(t, loss).items()}

        g1, g2 = build(), build()
        assert g1.keys() == g2.keys()
        for k in g1:
            assert np.array_equal(g1[k], g2[k])


def _fd_probe(build, params, eps=1e-5):
    """Finite-difference check of a scalar graph builder over leaf dict."""
    def f(p):
        t = ad.Tape()
        leaves = {name: t.leaf(v) for name, v in p.items()}
        return float(build(t, leaves).value)

    t = ad.Tape()
    leaves = {name: t.leaf(v) for name, v in params.items()}
    loss = build(t, leaves)
    grads = ad.backward(t, loss)
    analytic = {name: grads[var.id] for name, var in leaves.items()}
    return ad.finite_diff_check(f, params, analytic, eps=eps)


class TestFiniteDifferenceAgreement:
    """Every differentiable op, in isolation, on random inputs in [-2, 2]."""

    def test_square_polynomial_exact(self):
        err = _fd_probe(lambda t, p: ad.sum_axis(ad.square(p["x"])),
                        {"x": np.array([3.0])})
        assert err < 1e-8

    def test_sigmoid_at_zero(self):
        err = _fd_probe(lambda t, p: ad.sum_axis(ad.sigmoid(p["x"])),
                        {"x": np.array([0.0])})
        assert err < 1e-8

    @pytest.mark.parametrize("name,build", [
        ("add", lambda t, p: ad.sum_axis(ad.square(ad.add(p["a"], p["b"])))),
        ("sub", lambda t, p: ad.sum_axis(ad.square(ad.sub(p["a"], p["b"])))),
        ("hadamard", lambda t, p: ad.sum_axis(ad.hadamard(p["a"], p["b"]))),
        ("dot", lambda t, p: ad.square(ad.dot(p["a"], p["b"]))),
        ("scale", lambda t, p: ad.sum_axis(ad.scale(ad.square(p["a"]), -1.7))),
        ("sigmoid", lambda t, p: ad.sum_axis(ad.sigmoid(p["a"]))),
        ("tanh", lambda t, p: ad.sum_axis(ad.tanh(p["a"]))),
        ("softplus", lambda t, p: ad.sum_axis(ad.softplus(p["a"]))),
        ("softmax", lambda t, p: ad.dot(ad.softmax(p["a"]),
                                        t.constant([0.3, -1.1, 2.0, 0.5, 0.1]))),
        ("concat", lambda t, p: ad.sum_axis(
            ad.square(ad.concat([p["a"], p["b"]])))),
    ])
    def test_vector_ops(self, name, build):
        rng = np.random.default_rng(hash(name) % 2**32)
        params = {"a": rng.uniform(-2, 2, 5), "b": rng.uniform(-2, 2, 5)}
        assert _fd_probe(build, params) < 1e-6

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.5, 2, 5) * rng.choice([-1.0, 1.0], 5)
        err = _fd_probe(lambda t, p: ad.sum_axis(ad.relu(p["x"])), {"x": x})
        assert err < 1e-6

    def test_matmul_chain(self):
        rng = np.random.default_rng(12)
        params = {"w": rng.uniform(-2, 2, (3, 4)), "x": rng.uniform(-2, 2, 4),
                  "m": rng.uniform(-2, 2, (2, 3))}
        err = _fd_probe(
            lambda t, p: ad.sum_axis(ad.square(
                ad.matmul(p["m"], ad.matmul(p["w"], p["x"])))), params)
        assert err < 1e-6

    def test_smul_and_stack(self):
        rng = np.random.default_rng(13)
        params = {"s": np.array(0.7), "v": rng.uniform(-2, 2, 4)}

        def build(t, p):
            scaled = ad.smul(p["s"], p["v"])
            pieces = ad.stack([ad.dot(scaled, scaled), ad.sum_axis(scaled)])
            return ad.sum_axis(ad.square(pieces))

        assert _fd_probe(build, params) < 1e-6

    def test_sum_axis_and_gather(self):
        rng = np.random.default_rng(14)
        params = {"v": rng.uniform(-2, 2, (6, 3))}

        def build(t, p):
            rows = ad.gather_rows(p["v"], [0, 2, 2, 5])
            col = ad.sum_axis(rows, axis=0)
            return ad.dot(col, col)

        assert _fd_probe(build, params) < 1e-6


class TestHelpers:
    def test_as_tensor_row_major_f64(self):
        x = ad.as_tensor([[1, 2], [3, 4]])
        assert x.dtype == np.float64 and x.flags["C_CONTIGUOUS"]

    def test_cross_tape_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ValueError, match="different tapes"):
            ad.add(t1.leaf(1.0), t2.leaf(2.0))
