import ast
import inspect
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofanet import ndtensor as ndt
from ofanet.ndtensor import Tensor

import composed
from gradcheck import finite_diff, rel_err


def test_every_public_function_has_a_caller_outside_the_kernel():
    # the kernel holds the ops the program calls and nothing more: each public
    # function is named by src/ofanet outside ndtensor or by perfbench/. The
    # one exception is dtype_mode, the gradient oracle's float64 switch
    root = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((root / "src" / "ofanet").glob("*.py")) if p.name != "ndtensor.py"]
    files += sorted((root / "perfbench").rglob("*.py"))
    named = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in ("ndt", "ndtensor"):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("ndtensor"):
                named.update(alias.name for alias in node.names)
    public = {name for name, fn in inspect.getmembers(ndt, inspect.isfunction)
              if fn.__module__ == ndt.__name__ and not name.startswith("_")}
    assert "dtype_mode" in public
    assert sorted(public - named - {"dtype_mode"}) == []


# public names that only tests call, each with the reason it stays
TEST_ONLY_API = {
    "model.parameter_count": "acceptance oracle: the built net's size",
    "model.expected_parameter_count": "acceptance oracle: the closed form that size must match",
    "model.backbone_hash": "acceptance oracle: a frozen backbone keeps its bytes",
    "ndtensor.dtype_mode": "the gradient oracle's float64 switch",
}


def test_every_public_name_in_the_package_has_a_caller_outside_tests():
    # no API that only tests use: each public module-level function or class
    # of src/ofanet is named somewhere in src/ofanet or perfbench/ (its own
    # def is not a name), unless TEST_ONLY_API gives it a reason to stay
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "ofanet").glob("*.py"))
    named = set()
    for path in package + sorted((root / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    uncalled = {f"{path.stem}.{node.name}" for path in package for node in ast.parse(path.read_text()).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in named}
    assert sorted(uncalled) == sorted(TEST_ONLY_API)


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    c = ndt.matmul(a, b)
    np.testing.assert_array_equal(c.data, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_hand_example():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [7.0]])
    c = ndt.matmul(a, b)
    np.testing.assert_array_equal(c.data, [[19.0], [43.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
        ndt.matmul(a, b)


def test_matmul_rejects_a_stacked_right_operand():
    with pytest.raises(ValueError, match=r"\(2, 3, 4\).*\(2, 4, 5\)"):
        ndt.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4, 5))))


def test_matmul_grad_matches_finite_difference():
    rng = np.random.default_rng(7)
    a0 = rng.normal(size=(5, 7))
    b0 = rng.normal(size=(7, 3))
    with ndt.dtype_mode("float64"):
        a = Tensor(a0, requires_grad=True)
        c = ndt.matmul(a, Tensor(b0))
        ndt.backward(composed.dot(c, 1.0))

        def f(x):
            with ndt.no_grad():
                return composed.dot(ndt.matmul(Tensor(x), Tensor(b0)), 1.0).item()

        fd = finite_diff(f, a0, eps=1e-3)
    assert rel_err(a.grad, fd) < 1e-3


def test_stacked_matmul_grad():
    rng = np.random.default_rng(8)
    a0 = rng.normal(size=(3, 4, 5))
    b0 = rng.normal(size=(5, 2))
    with ndt.dtype_mode("float64"):
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        ndt.backward(composed.dot(ndt.matmul(a, b), 1.0))

        def fa(x):
            with ndt.no_grad():
                return composed.dot(ndt.matmul(Tensor(x), Tensor(b0)), 1.0).item()

        def fb(x):
            with ndt.no_grad():
                return composed.dot(ndt.matmul(Tensor(a0), Tensor(x)), 1.0).item()

        assert rel_err(a.grad, finite_diff(fa, a0, 1e-4)) < 1e-4
        assert rel_err(b.grad, finite_diff(fb, b0, 1e-4)) < 1e-4


def _softmax_rows(x) -> np.ndarray:
    """Row softmax of square [n, n] logits (a 1-D x is one row), read off
    ``attention`` with one head of width 16 and v = I: q = 4 [x | 0] and
    k = v = [I | 0], so the scores are exactly x (4 and 1/sqrt(16) are
    powers of two, every other product is an exact zero) and the output's
    first n columns are the attention weights."""
    x = np.asarray(x, dtype=np.float32)
    rows = np.atleast_2d(x)
    n = rows.shape[-1]
    if rows.shape[0] != n:
        rows = np.broadcast_to(rows, (n, n))
    q = np.zeros((n, 16), dtype=np.float32)
    q[:, :n] = 4.0 * rows
    eye = np.eye(n, 16, dtype=np.float32)
    out = ndt.attention(Tensor(q), Tensor(eye), Tensor(eye), heads=1).data
    assert not out[:, n:].any()
    return out[0, :n] if x.ndim == 1 else out[:, :n]


def test_softmax_uniform():
    np.testing.assert_allclose(_softmax_rows([0.0, 0.0, 0.0]), [1 / 3] * 3, rtol=1e-6)


def test_softmax_large_logit_no_overflow():
    y = _softmax_rows([1000.0, 0.0, 0.0])
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, [1.0, 0.0, 0.0], atol=1e-6)


def test_softmax_shift_invariance_exact():
    x = np.array([1.0, -2.0, 3.0, 0.0], dtype=np.float32)
    # exactly representable shift
    np.testing.assert_array_equal(_softmax_rows(x), _softmax_rows(x + 4.0))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    st.floats(-100, 100),
)
def test_softmax_rows_sum_to_one_and_shift_stable(vals, c):
    # adding c in float32 rounds the inputs themselves, so each output is held
    # to a float64 softmax of the very float32 inputs it got; exact shift
    # invariance is pinned by test_softmax_shift_invariance_exact
    def reference(v):
        e = np.exp(v.astype(np.float64) - v.max())
        return e / e.sum()

    x = np.array(vals, dtype=np.float32)
    y = _softmax_rows(x)
    assert abs(y.sum() - 1.0) < 1e-6
    assert np.all(y > 0)
    np.testing.assert_allclose(y, reference(x), atol=1e-6)
    shifted = x + np.float32(c)
    np.testing.assert_allclose(_softmax_rows(shifted), reference(shifted), atol=1e-6)


def test_softmax_grad_matches_finite_difference():
    # attention with one head and v = I, as in _softmax_rows: the gradient
    # reaching q passes through the softmax's Jacobian
    rng = np.random.default_rng(11)
    q0 = np.zeros((4, 16))
    q0[:, :4] = 4.0 * rng.normal(size=(4, 4))
    w = rng.normal(size=(4, 16))  # fixed projection to scalar exercises the Jacobian
    eye = np.eye(4, 16)
    with ndt.dtype_mode("float64"):
        q = Tensor(q0, requires_grad=True)
        ndt.backward(composed.dot(ndt.attention(q, Tensor(eye), Tensor(eye), heads=1), w))

        def f(v):
            with ndt.no_grad():
                return composed.dot(ndt.attention(Tensor(v), Tensor(eye), Tensor(eye), heads=1), w).item()

        fd = finite_diff(f, q0, eps=1e-3)
    assert rel_err(q.grad, fd) < 1e-3


def test_attention_rejects_bad_shapes():
    for shapes, heads in [
        ([(4, 6)] * 3, 4),  # 6 not divisible by 4 heads
        ([(2, 4, 6), (2, 4, 6), (2, 5, 6)], 2),  # keys and values differ
        ([(2, 3, 6), (2, 5, 4), (2, 5, 4)], 2),  # queries and keys differ in width
        ([(2, 3, 6), (3, 5, 6), (3, 5, 6)], 2),  # and in batch
        ([(4, 6)] * 3, 0),
        ([(6,)] * 3, 1),  # no token axis
        ([(4, 6), (6,), (6,)], 1),  # keys without a token axis
    ]:
        with pytest.raises(ValueError, match="attention"):
            ndt.attention(*(Tensor(np.zeros(s)) for s in shapes), heads=heads)
    assert not ndt.active_tape()


def test_attention_shape_error_names_both_lengths():
    q, k, v = (Tensor(np.zeros(s)) for s in [(2, 3, 4), (2, 5, 4), (2, 6, 4)])
    with pytest.raises(ValueError, match=r"queries \(2, 3, 4\), keys \(2, 5, 4\), values \(2, 6, 4\)"):
        ndt.attention(q, k, v, heads=2)


@pytest.mark.parametrize("heads", [1, 2])
def test_cross_attention_grads_match_finite_difference(heads):
    # 3 queries over 5 keys and values: every input's gradient, through the
    # softmax over the key axis
    rng = np.random.default_rng(19)
    vals = [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 5, 4))]
    proj = rng.normal(size=(2, 3, 4))
    with ndt.dtype_mode("float64"):
        ts = [Tensor(v, requires_grad=True) for v in vals]
        out = ndt.attention(*ts, heads=heads)
        assert out.shape == (2, 3, 4)
        ndt.backward(composed.dot(out, proj))
        for i, t in enumerate(ts):

            def f(x, i=i):
                args = [Tensor(a) for a in vals]
                args[i] = Tensor(x)
                with ndt.no_grad():
                    return composed.dot(ndt.attention(*args, heads=heads), proj).item()

            assert rel_err(t.grad, finite_diff(f, vals[i], 1e-5)) < 1e-7, "qkv"[i]


def _unit_affine(d):
    return Tensor(np.ones(d)), Tensor(np.zeros(d))


def test_layernorm_constant_row_is_zero():
    g, b = _unit_affine(4)
    y = ndt.layernorm(Tensor([5.0, 5.0, 5.0, 5.0]), g, b)
    np.testing.assert_array_equal(y.data, np.zeros(4))


def test_layernorm_two_point_row():
    g, b = _unit_affine(2)
    y = ndt.layernorm(Tensor([1.0, 3.0]), g, b)
    np.testing.assert_allclose(y.data, [-1.0, 1.0], atol=1e-3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=12))
def test_layernorm_standardizes_nonconstant_rows(vals):
    x = np.array(vals, dtype=np.float32)
    if np.ptp(x) < 1e-2:
        return
    g, b = _unit_affine(x.size)
    eps = 1e-5
    y = ndt.layernorm(Tensor(x), g, b, eps=eps).data
    assert abs(y.mean()) < 1e-5
    # eps sits under the square root, so the output variance is v / (v + eps):
    # a row with v = 3.5e-3 (e.g. [0, 0, 0.125]) lands at 0.997, not 1
    v = x.astype(np.float64).var()
    assert abs(y.var() - v / (v + eps)) < 1e-3


def test_layernorm_grads_match_finite_difference():
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=(3, 6))
    g0 = rng.normal(size=6)
    b0 = rng.normal(size=6)
    w = rng.normal(size=(3, 6))
    with ndt.dtype_mode("float64"):
        x = Tensor(x0, requires_grad=True)
        gam = Tensor(g0, requires_grad=True)
        bet = Tensor(b0, requires_grad=True)
        ndt.backward(composed.dot(ndt.layernorm(x, gam, bet), w))

        def fx(v):
            with ndt.no_grad():
                return composed.dot(ndt.layernorm(Tensor(v), Tensor(g0), Tensor(b0)), w).item()

        def fg(v):
            with ndt.no_grad():
                return composed.dot(ndt.layernorm(Tensor(x0), Tensor(v), Tensor(b0)), w).item()

        def fb(v):
            with ndt.no_grad():
                return composed.dot(ndt.layernorm(Tensor(x0), Tensor(g0), Tensor(v)), w).item()

        assert rel_err(x.grad, finite_diff(fx, x0, 1e-4)) < 1e-4
        assert rel_err(gam.grad, finite_diff(fg, g0, 1e-4)) < 1e-4
        assert rel_err(bet.grad, finite_diff(fb, b0, 1e-4)) < 1e-4


def test_gelu_grad_matches_finite_difference():
    rng = np.random.default_rng(17)
    x0 = rng.normal(size=9) * 2.0
    with ndt.dtype_mode("float64"):
        x = Tensor(x0, requires_grad=True)
        ndt.backward(composed.dot(ndt.gelu(x), 1.0))

        def f(v):
            with ndt.no_grad():
                return composed.dot(ndt.gelu(Tensor(v)), 1.0).item()

        fd = finite_diff(f, x0, eps=1e-4)
    assert rel_err(x.grad, fd) < 1e-4


def test_gelu_zero_fixed_point():
    assert ndt.gelu(Tensor([0.0])).data[0] == 0.0


def test_gather_rows_out_of_range():
    x = Tensor(np.zeros((1, 3, 2)))
    with pytest.raises(IndexError):
        ndt.gather_rows_batch(x, [[3]])


def test_gather_rows_batch_rejects_rows_that_are_not_a_mask_split():
    x = Tensor(np.zeros((2, 4, 3)), requires_grad=True)
    with pytest.raises(ValueError, match="repeat"):
        ndt.gather_rows_batch(x, [[0, 1], [2, 2]])
    with pytest.raises(IndexError, match="4 rows"):
        ndt.gather_rows_batch(x, [[0, -1], [1, 2]])
    with pytest.raises(ValueError, match=r"\[2, m\]"):
        ndt.gather_rows_batch(x, [[0, 1]])
    with pytest.raises(ValueError, match=r"\[2, m\]"):
        ndt.gather_rows_batch(x, np.zeros((2, 0), dtype=np.intp))
    with pytest.raises(ValueError, match=r"\[b, n, d\]"):
        ndt.gather_rows_batch(Tensor(np.zeros((4, 3))), [[0, 1]])
    assert not ndt.active_tape()


@settings(max_examples=40, deadline=None)
@given(
    b=st.integers(1, 4),
    n=st.integers(1, 9),
    d=st.integers(1, 5),
    data=st.data(),
)
def test_gather_rows_batch_distinct_rows_match_reference(b, n, d, data):
    # distinct indices per row (a permutation prefix, as MIM masks are); the
    # backward must route each gathered row's gradient to its source row
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x0 = rng.normal(size=(b, n, d)).astype(np.float32)
    g0 = rng.normal(size=(b, k, d)).astype(np.float32)
    idx = np.stack([rng.permutation(n)[:k] for _ in range(b)])
    x = Tensor(x0, requires_grad=True)
    out = ndt.gather_rows_batch(x, idx)
    np.testing.assert_array_equal(out.data, np.take_along_axis(x0, idx[:, :, None], axis=1))
    ndt.backward(composed.dot(out, g0))
    expected = np.zeros_like(x0)
    for i in range(b):
        for j in range(k):
            expected[i, idx[i, j]] += g0[i, j]
    np.testing.assert_array_equal(x.grad, expected)


def test_stacked_matmul_computes_no_gradient_for_constant_input():
    rng = np.random.default_rng(29)
    a0 = rng.normal(size=(2, 5, 3)).astype(np.float32)
    w0 = rng.normal(size=(3, 4)).astype(np.float32)
    g0 = rng.normal(size=(2, 5, 4)).astype(np.float32)
    a = Tensor(a0)
    w = Tensor(w0, requires_grad=True)
    out = ndt.matmul(a, w)
    ga, _ = ndt.active_tape()[-1].grad_fn(g0)
    assert ga is None
    ndt.backward(composed.dot(out, g0))
    assert a.grad is None
    np.testing.assert_array_equal(w.grad, a0.reshape(-1, 3).T @ g0.reshape(-1, 4))


def test_broadcast_bias_add_grad():
    rng = np.random.default_rng(23)
    x0 = rng.normal(size=(5, 3))
    b0 = rng.normal(size=3)
    with ndt.dtype_mode("float64"):
        b = Tensor(b0, requires_grad=True)
        ndt.backward(composed.dot(ndt.add(Tensor(x0), b), x0 + 1.0))

        def f(v):
            with ndt.no_grad():
                return composed.dot(ndt.add(Tensor(x0), Tensor(v)), x0 + 1.0).item()

        assert rel_err(b.grad, finite_diff(f, b0, 1e-4)) < 1e-4


def test_backward_square_sum():
    # the mean of squares over every row of [1, 4, 1] under an identity
    # head: gradient 2x / 4
    x = Tensor([[[1.0], [2.0], [3.0], [4.0]]], requires_grad=True)
    ndt.backward(ndt.linear_mse(x, Tensor([[1.0]]), Tensor([0.0]), np.zeros((1, 4, 1)), [0], [[0, 1, 2, 3]]))
    np.testing.assert_array_equal(x.grad, [[[0.5], [1.0], [1.5], [2.0]]])


def test_backward_fanout_accumulates():
    x = Tensor([1.0, 1.0], requires_grad=True)
    ndt.backward(composed.dot(ndt.add(x, x), 1.0))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_backward_seeds_loss_grad_with_one():
    x = Tensor([2.0], requires_grad=True)
    loss = composed.dot(x, 1.0)
    ndt.backward(loss)
    assert x.grad == [1.0]


def test_backward_grads_leaves_only():
    rng = np.random.default_rng(12)
    x0, w0, c0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    proj = np.linspace(-1.0, 1.0, 6).reshape(3, 2)
    with ndt.dtype_mode("float64"):
        x, w, c = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True), Tensor(c0)

        def f(xv, wv, cv):
            # x and w each feed two matmuls; the constant c enters the graph
            h = ndt.gelu(ndt.matmul(xv, wv))
            return composed.dot(ndt.add(ndt.add(h, ndt.matmul(xv, wv)), cv), proj)

        loss = f(x, w, c)
        intermediates = [node.out for node in ndt.active_tape()]
        assert loss in intermediates and len(intermediates) > 4
        ndt.backward(loss)

        def fx(v):
            with ndt.no_grad():
                return f(Tensor(v), Tensor(w0), Tensor(c0)).item()

        def fw(v):
            with ndt.no_grad():
                return f(Tensor(x0), Tensor(v), Tensor(c0)).item()

        fd_x, fd_w = finite_diff(fx, x0, 1e-5), finite_diff(fw, w0, 1e-5)
    assert all(t.grad is None for t in intermediates)
    assert c.grad is None
    assert rel_err(x.grad, fd_x) < 1e-6
    assert rel_err(w.grad, fd_w) < 1e-6


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ndt.add(x, x)
    with pytest.raises(ValueError, match="scalar"):
        ndt.backward(y)
    ndt.active_tape().clear()


def test_backward_rejects_off_tape_tensor():
    x = Tensor(1.5, requires_grad=True)
    with pytest.raises(ValueError, match="tape"):
        ndt.backward(x)


def test_tape_cleared_after_backward_and_double_backward_fails():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = composed.dot(x, 1.0)
    ndt.backward(loss)
    assert len(ndt.active_tape()) == 0
    with pytest.raises(ValueError):
        ndt.backward(loss)


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with ndt.no_grad():
        y = ndt.add(x, x)
    assert not y.requires_grad
    assert len(ndt.active_tape()) == 0


def test_no_grad_is_per_thread():
    # overlapping no_grad blocks in worker threads (as in probe extraction)
    # must not switch recording off or on for any other thread
    x = Tensor([1.0], requires_grad=True)

    def work(_):
        with ndt.no_grad():
            return all(not ndt.add(x, x).requires_grad for _ in range(50))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            inside_off = list(pool.map(work, range(64), timeout=60))
    finally:
        sys.setswitchinterval(old)
    assert all(inside_off)
    assert ndt.add(x, x).requires_grad
    ndt.active_tape().clear()


def test_ops_do_not_mutate_inputs():
    x = Tensor([[1.0, -2.0, 3.0]], requires_grad=True)
    snap = x.data.copy()
    g, b = _unit_affine(3)
    ndt.attention(x, x, x, heads=1)
    ndt.gelu(x)
    ndt.layernorm(x, g, b)
    ndt.add(x, x)
    np.testing.assert_array_equal(x.data, snap)
    ndt.active_tape().clear()


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(29)
    q, k, v = (rng.normal(size=(2, 5, 8)).astype(np.float32) for _ in range(3))
    a = ndt.attention(Tensor(q), Tensor(k), Tensor(v), heads=2).data
    b = ndt.attention(Tensor(q), Tensor(k), Tensor(v), heads=2).data
    np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=6))
def test_forward_ops_finite_on_finite_inputs(vals):
    x = Tensor(np.array(vals, dtype=np.float32))
    g, b = _unit_affine(len(vals))
    assert np.all(np.isfinite(_softmax_rows(x.data)))
    for out in (ndt.gelu(x), ndt.layernorm(x, g, b)):
        assert np.all(np.isfinite(out.data))


def test_mse_examples():
    # x @ w + b against the table rows each sample names
    x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
    table = np.array([[[9.0, 9.0], [3.0, 4.0], [1.0, 2.0]], np.zeros((3, 2))])
    eye, zero = Tensor(np.eye(2)), Tensor(np.zeros(2))
    assert ndt.linear_mse(x, eye, zero, table, [0], [[2, 1]]).item() == 0.0
    assert ndt.linear_mse(x, eye, Tensor([1.0, 1.0]), table, [0], [[2, 1]]).item() == pytest.approx(1.0)
    assert ndt.linear_mse(x, Tensor(2 * np.eye(2)), zero, table, [0], [[2, 1]]).item() == pytest.approx(7.5)
    assert ndt.linear_mse(x, eye, zero, table, [1], [[2, 1]]).item() == pytest.approx(7.5)


def test_mse_grad():
    # rows of two of three images, in shuffled order: the gradients of the
    # plain MSE of x @ w + b for the input, the weight and the bias
    rng = np.random.default_rng(31)
    x0, w0, b0 = rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 4)), rng.normal(size=4)
    table = rng.normal(size=(3, 5, 4))
    samples, rows = np.array([2, 0]), np.array([[4, 0, 1], [3, 2, 0]])
    with ndt.dtype_mode("float64"):
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        ndt.backward(ndt.linear_mse(x, w, b, table, samples, rows))
    g = 2.0 * (x0 @ w0 + b0 - table[samples[:, None], rows]) / (2 * 3 * 4)
    np.testing.assert_allclose(x.grad, g @ w0.T, rtol=1e-12)
    np.testing.assert_allclose(w.grad, np.einsum("bmk,bmn->kn", x0, g), rtol=1e-12)
    np.testing.assert_allclose(b.grad, g.sum(axis=(0, 1)), rtol=1e-12)


def test_mse_rejects_rows_that_are_not_a_mask_split():
    # the rows gathered for the loss are a mask split, and the loss's own
    # samples and target rows must fit its input and the table; a rejected
    # call leaves nothing on the tape
    p = Tensor(np.zeros((2, 4, 3)), requires_grad=True)
    w, b, table = Tensor(np.eye(3)), Tensor(np.zeros(3)), np.zeros((2, 4, 3))

    def loss(x, samples=(0, 1), rows=((0, 1), (1, 2)), table=table):
        return ndt.linear_mse(x, w, b, table, samples, rows)

    with pytest.raises(ValueError, match="repeat"):
        loss(ndt.gather_rows_batch(p, [[0, 1], [2, 2]]))
    with pytest.raises(IndexError, match="4 rows"):
        loss(ndt.gather_rows_batch(p, [[0, 4], [1, 2]]))
    with pytest.raises(ValueError, match=r"\[2, m\]"):
        loss(ndt.gather_rows_batch(p, [[0, 1]]))
    x = ndt.gather_rows_batch(p, [[0, 1], [1, 2]])
    ndt.active_tape().clear()
    for bad in (dict(table=np.zeros((2, 4, 2))), dict(table=np.zeros((8, 3))), dict(rows=[[0, 1]]),
                dict(samples=[0])):
        with pytest.raises(ValueError, match="target"):
            loss(x, **bad)
    with pytest.raises(ValueError, match="target"):
        loss(Tensor(np.zeros((2, 0, 3))), rows=np.zeros((2, 0)))
    for bad in (dict(rows=[[0, 4], [1, 2]]), dict(rows=[[0, -1], [1, 2]]), dict(samples=[0, 2]),
                dict(samples=[-1, 0])):
        with pytest.raises(ValueError, match="in range"):
            loss(x, **bad)
    assert not ndt.active_tape()


def test_default_dtype_is_float32_and_mode_switch():
    assert Tensor([1.0]).data.dtype == np.float32
    with ndt.dtype_mode("float64"):
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32


def test_mse_float64_loss_float32_grad():
    rng = np.random.default_rng(32)
    x0, w0, b0 = (rng.normal(size=shape).astype(np.float32) for shape in ((1, 4, 3), (3, 7), (7,)))
    t0 = rng.normal(size=(1, 4, 7)).astype(np.float32)
    with ndt.dtype_mode("float32"):
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        loss = ndt.linear_mse(x, w, b, t0, [0], [[0, 1, 2, 3]])
        assert loss.data.dtype == np.float64
        # the difference is taken in float32, the kernel's working dtype
        diff = (x0.reshape(4, 3) @ w0 + b0 - t0[0]).reshape(1, 4, 7)
        assert diff.dtype == np.float32
        ref = np.sum(diff.astype(np.float64) ** 2) / diff.size
        assert loss.item() == pytest.approx(ref, rel=1e-12)
        ndt.backward(loss)
    assert x.grad.dtype == w.grad.dtype == b.grad.dtype == np.float32
    g = diff * (2.0 / diff.size)
    assert g.dtype == np.float32
    np.testing.assert_array_equal(x.grad, (g.reshape(4, 7) @ w0.T).reshape(1, 4, 3))
    np.testing.assert_array_equal(w.grad, x0.reshape(4, 3).T @ g.reshape(4, 7))
    np.testing.assert_array_equal(b.grad, g.sum(axis=(0, 1)))
    np.testing.assert_allclose(b.grad, 2.0 * diff.astype(np.float64).sum(axis=(0, 1)) / diff.size, rtol=1e-5)


def test_mse_casts_a_float64_table_once():
    # in float32 mode each float64 target slice is rounded to float32 before
    # the subtraction: the bytes of a table cast up front, not those of a
    # float64 difference rounded afterwards
    rng = np.random.default_rng(33)
    x0 = rng.normal(size=(2, 3, 4)).astype(np.float32)
    w0, b0 = rng.normal(size=(4, 5)).astype(np.float32), rng.normal(size=5).astype(np.float32)
    table = rng.normal(size=(3, 6, 5))
    samples, rows = np.array([2, 1]), np.array([[5, 0, 3], [1, 4, 2]])
    results = []
    for t in (table, table.astype(np.float32)):
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        loss = ndt.linear_mse(x, w, b, t, samples, rows)
        ndt.backward(loss)
        results.append([loss.data.tobytes()] + [v.grad.tobytes() for v in (x, w, b)])
    assert results[0] == results[1]
    pred = (x0.reshape(6, 4) @ w0).reshape(2, 3, 5) + b0
    target = table[samples[:, None], rows]
    assert (pred - target).astype(np.float32).tobytes() != (pred - target.astype(np.float32)).tobytes()


# ---------------------------------------------------------------------------
# buffer reuse: ops write only into arrays they allocated, with the same bytes


def _frozen(arr) -> np.ndarray:
    arr = np.array(arr)
    arr.flags.writeable = False
    return arr


def _input(rng, shape, dtype=np.float32) -> Tensor:
    t = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    t.data.flags.writeable = False
    return t


def _grad_fn_cases(rng):
    """(name, make_inputs, op) triples: make_inputs() gives read-only input
    tensors, and op(*inputs) leaves the op's node(s) on the tape."""
    cases = []

    def x(*shape):
        return _input(rng, shape)

    def case(name, make_inputs, op):
        cases.append((name, make_inputs, op))

    for shape in [(), (5,), (3, 4), (2, 3, 2, 4)]:
        s = "x".join(map(str, shape)) or "0d"
        case(f"add_{s}", lambda shape=shape: [x(*shape), x(*shape)], lambda a, b: ndt.add(a, b))
        case(f"add_fanout_{s}", lambda shape=shape: [x(*shape)], lambda a: ndt.add(a, a))
        case(f"gelu_{s}", lambda shape=shape: [x(*shape)], ndt.gelu)
        # the fused head and masked loss (whose backward scales its forward's
        # difference in place): the shape's items as an [b, n, d] table (b
        # only from 3 axes up), every other row of it from the last a target,
        # with samples in reverse, under [b, m, d] inputs and a [d, d] head
        b, d = (shape[0] if len(shape) > 2 else 1), (shape[-1] if shape else 1)
        bnd = (b, math.prod(shape) // (b * d), d)
        rows = np.tile(np.arange(bnd[1])[::-2], (b, 1))
        table, samples = _frozen(rng.normal(size=bnd).astype(np.float32)), np.arange(b)[::-1]
        case(f"mse_{s}", lambda b=b, m=rows.shape[1], d=d: [x(b, m, d), x(d, d), x(d)],
             lambda a, w, bias, t=table, i=samples, r=rows: ndt.linear_mse(a, w, bias, t, i, r))
        if shape:
            case(f"layernorm_{s}", lambda shape=shape: [x(*shape), x(shape[-1]), x(shape[-1])],
                 ndt.layernorm)
            case(f"add_broadcast_{s}", lambda shape=shape: [x(*shape), x(shape[-1])],
                 lambda a, b: ndt.add(a, b))
    case("matmul_2d", lambda: [x(3, 4), x(4, 5)], ndt.matmul)
    case("matmul_4d_weight", lambda: [x(2, 3, 4, 5), x(5, 2)], ndt.matmul)
    case("matmul_stacked_weight", lambda: [x(2, 3, 4), x(4, 5)], ndt.matmul)
    case("matmul_stacked_constant_input", lambda: [Tensor(_frozen(x(2, 3, 4).data)), x(4, 5)],
         ndt.matmul)
    case("linear_2d", lambda: [x(3, 4), x(4, 5), x(5)], ndt.linear)
    case("linear_4d", lambda: [x(2, 3, 2, 4), x(4, 5), x(5)], ndt.linear)
    case("attention_3d", lambda: [x(2, 5, 6), x(2, 5, 6), x(2, 5, 6)],
         lambda q, k, v: ndt.attention(q, k, v, heads=2))
    case("attention_4d_one_head", lambda: [x(2, 3, 4, 4), x(2, 3, 4, 4), x(2, 3, 4, 4)],
         lambda q, k, v: ndt.attention(q, k, v, heads=1))
    for heads in (1, 2):
        case(f"attention_3_queries_5_keys_{heads}_heads", lambda: [x(2, 3, 4), x(2, 5, 4), x(2, 5, 4)],
             lambda q, k, v, heads=heads: ndt.attention(q, k, v, heads=heads))
    case("gather_rows_batch_distinct", lambda: [x(2, 5, 3)],
         lambda a: ndt.gather_rows_batch(a, [[4, 0, 2], [1, 3, 0]]))
    return cases


@pytest.mark.parametrize("name", [c[0] for c in _grad_fn_cases(np.random.default_rng(0))])
def test_grad_fns_never_write_into_what_they_did_not_allocate(name):
    # a grad_fn may only write into arrays it allocated: `add` hands one
    # gradient array to both parents, and the tape keeps inputs and outputs
    rng = np.random.default_rng(41)
    make_inputs, op = {c[0]: c[1:] for c in _grad_fn_cases(rng)}[name]
    inputs = make_inputs()
    snaps = [t.data.copy() for t in inputs]
    op(*inputs)
    nodes = list(ndt.active_tape())
    assert nodes
    for node in nodes:
        node.out.data.flags.writeable = False
    outs = [node.out.data.copy() for node in nodes]
    for node in reversed(nodes):
        g = _frozen(rng.normal(size=node.out.shape).astype(node.out.data.dtype))
        g_snap = g.copy()
        grads = node.grad_fn(g)  # read-only arrays make any write raise
        assert len(grads) == len(node.parents)
        assert g.tobytes() == g_snap.tobytes()
    for t, snap in zip(inputs, snaps):
        assert t.data.tobytes() == snap.tobytes()
    for node, out in zip(nodes, outs):
        assert node.out.data.tobytes() == out.tobytes()


# the out-of-place expressions these ops were first written as, verbatim;
# the kernel's in-place chains must give the same bytes


def _softmax_reference(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return y, grad_fn


def _attention_reference(q, k, v, heads):
    """The chain of generic ops that ``attention`` replaced, op for op: each
    reshape/permute/transpose result made contiguous, the 1/sqrt(dh) scale
    as its own product, ``_softmax_reference``, and a backward through the
    transposed views those ops handed on."""
    *lead, n, d = q.shape
    dh = d // heads
    split = (*lead, n, heads, dh)
    nd = len(split)
    to_heads = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)  # its own inverse
    s = 1.0 / math.sqrt(dh)

    def heads_of(x):
        return np.ascontiguousarray(np.transpose(x.reshape(split), to_heads))

    qh, kh, vh = heads_of(q), heads_of(k), heads_of(v)
    kt = np.ascontiguousarray(np.swapaxes(kh, -1, -2))
    weights, softmax_grad = _softmax_reference((qh @ kt) * s, -1)
    y = np.ascontiguousarray(np.transpose(weights @ vh, to_heads)).reshape(q.shape)

    def grad_fn(g):
        gh = np.transpose(g.reshape(split), to_heads)
        gw = gh @ np.swapaxes(vh, -1, -2)
        gv = np.swapaxes(weights, -1, -2) @ gh
        gs = softmax_grad(gw)[0] * s
        gq = gs @ np.swapaxes(kt, -1, -2)
        gk = np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2)
        return tuple(np.transpose(x, to_heads).reshape(q.shape) for x in (gq, gk, gv))

    return y, grad_fn


def _layernorm_reference(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gamma + beta
    gdata = gamma
    lead = tuple(range(x.ndim - 1))

    def grad_fn(g):
        dxhat = g * gdata
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        dgamma = (g * xhat).sum(axis=lead) if lead else g * xhat
        dbeta = g.sum(axis=lead) if lead else g
        return dx, dgamma, dbeta

    return y, grad_fn


def _gelu_reference(x):
    c, a_ = ndt._GELU_C, ndt._GELU_A
    x2 = x * x
    u = c * x * (1.0 + a_ * x2)
    t = np.tanh(u)
    y = 0.5 * x * (1.0 + t)

    def grad_fn(g):
        du = c * (1.0 + 3.0 * a_ * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)

    return y, grad_fn


def _spread(rng, shape, dtype):
    """Normals over eight decades of scale, with signed zeros, a float32
    subnormal and values deep in gelu's and softmax's saturated tails."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 4, size=shape)
    x.reshape(-1)[:5] = [0.0, -0.0, 40.0, -40.0, 3e-39]
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [(7,), (3, 16), (2, 3, 5, 9)])
def test_in_place_kernels_match_textbook_bytes(dtype, shape):
    rng = np.random.default_rng(53)
    with ndt.dtype_mode(dtype):
        x0 = _spread(rng, shape, dtype)
        gam = rng.normal(size=shape[-1]).astype(dtype)
        bet = rng.normal(size=shape[-1]).astype(dtype)
        g0 = rng.normal(size=shape).astype(dtype)
        for op, ref in (
            (lambda: ndt.gelu(Tensor(x0, requires_grad=True)), lambda: _gelu_reference(x0)),
            (lambda: ndt.layernorm(Tensor(x0, requires_grad=True), Tensor(gam, requires_grad=True),
                                   Tensor(bet, requires_grad=True)),
             lambda: _layernorm_reference(x0, gam, bet)),
        ):
            ndt.active_tape().clear()
            out = op()
            y_ref, grad_ref = ref()
            assert out.data.dtype == y_ref.dtype
            assert out.data.tobytes() == y_ref.tobytes()
            got = ndt.active_tape()[-1].grad_fn(g0)
            want = grad_ref(g0)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
    ndt.active_tape().clear()


@np.errstate(over="ignore", invalid="ignore")
def test_gelu_0d_matches_textbook_bytes():
    # 3e38 overflows x * x and 2 * x but not 0.5 * x * 2, so the forward's
    # order of products shows
    for v in (0.0, -0.0, 0.7, -3.5, 12.0, 3e-39, 3e38):
        x0 = np.array(v, dtype=np.float32)
        out = ndt.gelu(Tensor(x0, requires_grad=True))
        y_ref, grad_ref = _gelu_reference(x0)
        assert out.shape == () and out.data.tobytes() == np.asarray(y_ref).tobytes()
        g = np.array(1.25, dtype=np.float32)
        (got,) = ndt.active_tape()[-1].grad_fn(g)
        assert got.tobytes() == np.asarray(grad_ref(g)[0]).tobytes()
        ndt.active_tape().clear()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_linear_matches_add_of_matmul_bytes(dtype):
    rng = np.random.default_rng(59)
    with ndt.dtype_mode(dtype):
        x0 = rng.normal(size=(2, 6, 5))
        w0 = rng.normal(size=(5, 3))
        b0 = rng.normal(size=3)
        c0 = rng.normal(size=(2, 6, 3))
        grads = []
        for build in (lambda x, w, b: ndt.linear(x, w, b),
                      lambda x, w, b: ndt.add(ndt.matmul(x, w), b)):
            x, w, b = (Tensor(v, requires_grad=True) for v in (x0, w0, b0))
            y = build(x, w, b)
            ndt.backward(composed.dot(y, c0))
            grads.append([y.data, x.grad, w.grad, b.grad])
        for a, b in zip(*grads):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_linear_grad_matches_finite_difference():
    rng = np.random.default_rng(61)
    vals = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)]
    c0 = rng.normal(size=(3, 2))
    with ndt.dtype_mode("float64"):
        ts = [Tensor(v, requires_grad=True) for v in vals]
        ndt.backward(composed.dot(ndt.linear(*ts), c0))
        for i, t in enumerate(ts):

            def f(v, i=i):
                args = [Tensor(a) for a in vals]
                args[i] = Tensor(v)
                with ndt.no_grad():
                    return composed.dot(ndt.linear(*args), c0).item()

            assert rel_err(t.grad, finite_diff(f, vals[i], 1e-5)) < 1e-7


# the backbone's and decoder's shapes (16 visible of 64 tokens), a 4-D lead and
# one head; 64 keys are enough for the layout of kᵀ to show in the bytes
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape, heads", [((2, 16, 64), 4), ((2, 64, 32), 4), ((2, 2, 64, 16), 2), ((3, 64, 8), 1)])
def test_attention_matches_composed_chain_bytes(dtype, shape, heads):
    rng = np.random.default_rng(67)
    with ndt.dtype_mode(dtype):
        q0, k0, v0 = (_spread(rng, shape, dtype) for _ in range(3))
        g0 = rng.normal(size=shape).astype(dtype)
        out = ndt.attention(*(Tensor(x, requires_grad=True) for x in (q0, k0, v0)), heads=heads)
        y_ref, grad_ref = _attention_reference(q0, k0, v0, heads)
        assert out.data.dtype == y_ref.dtype and out.data.tobytes() == y_ref.tobytes()
        (node,) = ndt.active_tape()
        for got, want in zip(node.grad_fn(g0), grad_ref(g0)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    ndt.active_tape().clear()


# desk head widths (naip 4 * 4 * 3 = 48, gaofen 64, enmap 3,584) over the
# 32-wide decoder states of 48 of 64 rows; float32 targets, as the trainer's
# patch rows are. Every seventh input row is zero, so it predicts the bias,
# and its targets are set to it: a loss gradient of -0.75 turns those
# exact-zero differences into -0.0
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("width", [48, 64, 3584])
def test_mse_matches_composed_chain_bytes(dtype, width):
    rng = np.random.default_rng(71)
    b, n, m, k = 3, 64, 48, 32
    with ndt.dtype_mode(dtype):
        x0, w0 = _spread(rng, (b, m, k), dtype), _spread(rng, (k, width), dtype)
        x0[:, ::7] = 0.0
        b0 = _spread(rng, (width,), dtype).astype(np.float32).astype(dtype)
        table = rng.normal(size=(b + 2, n, width)).astype(np.float32)
        samples = rng.permutation(b + 2)[:b]
        rows = np.stack([rng.permutation(n)[:m] for _ in range(b)])
        table[samples[:, None], rows[:, ::7]] = b0.astype(np.float32)
        g0 = np.array(-0.75)

        def fused(x, w, bias):
            return ndt.linear_mse(x, w, bias, table, samples, rows)

        def chain(x, w, bias):  # the head as ``linear``, then the masked MSE it fused
            return composed.masked_mse(ndt.linear(x, w, bias), table, samples, rows)

        def leaves():
            return [Tensor(a, requires_grad=True) for a in (x0, w0, b0)]

        loss = fused(*leaves())
        (node,) = ndt.active_tape()
        got = node.grad_fn(g0)
        ndt.active_tape().clear()
        ref = chain(*leaves())
        matmul_node, add_node, mse_node = ndt.active_tape()
        g_prod, g_bias = add_node.grad_fn(*mse_node.grad_fn(g0))
        want = (*matmul_node.grad_fn(g_prod), g_bias)
        ndt.active_tape().clear()
        assert loss.data.dtype == ref.data.dtype == np.float64
        assert loss.data.tobytes() == ref.data.tobytes()
        assert len(got) == len(want) == 3
        for a, b_ in zip(got, want):
            assert a.dtype == b_.dtype == x0.dtype and a.shape == b_.shape
            assert a.tobytes() == b_.tobytes()

        # the data tell a backward that scales after the gemm or after the
        # bias sum from the real one
        target = table[samples[:, None], rows].astype(dtype)
        diff = ndt.linear(Tensor(x0), Tensor(w0), Tensor(b0)).data - target
        assert (diff == 0).any()
        scale = 2.0 * float(g0) / diff.size
        after_gemm = ((diff.reshape(-1, width) @ w0.T) * scale).reshape(x0.shape)
        assert after_gemm.tobytes() != want[0].tobytes()
        assert (diff.sum(axis=(0, 1)) * scale).tobytes() != want[2].tobytes()

        # and through backward, from the loss's own unit gradient
        grads = []
        for build in (fused, chain):
            inputs = leaves()
            ndt.backward(build(*inputs))
            grads.append([t.grad.tobytes() for t in inputs])
        assert grads[0] == grads[1]
