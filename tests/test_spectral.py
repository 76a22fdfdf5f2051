import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial import chebyshev as npcheb
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import expm_multiply

import mahf.spectral as spectral
from mahf.errors import NumericalError
from mahf.laplacian import breadth_first, cotan_operator
from mahf.spectral import (CHEB_TOL, HeatParams, certified_expansion, chebyshev_apply,
                           heat_function, heat_kernel_row, shared_order, threshold_row)
from mahf.synthetic import icosphere

from conftest import (SPHERE_RADIUS, DenseOracle, certified_action, csr_operator,
                      dense_heat_oracle, heat_action, overflowing_operator, within_steps)


@pytest.fixture(scope="module")
def ico162_oracle(ico162_op):
    return DenseOracle(ico162_op.stiffness, ico162_op.mass)


# --- eigendecomposition of the dense oracle ---

def test_eigendecompose_two_node(two_node_op):
    oracle = DenseOracle(two_node_op.stiffness, two_node_op.mass)
    assert np.allclose(oracle.eigenvalues, [0.0, 2.0], atol=1e-12)
    phi0, phi1 = oracle.phi[:, 0], oracle.phi[:, 1]
    assert abs(phi0[0] - phi0[1]) < 1e-12     # constant mode
    assert abs(phi1[0] + phi1[1]) < 1e-12     # difference mode


def test_eigendecompose_path_graph_matches_oracle(path4_op):
    oracle = DenseOracle(path4_op.stiffness, path4_op.mass)
    expected = np.linalg.eigvalsh(path4_op.stiffness.toarray())
    assert np.abs(oracle.eigenvalues - expected).max() < 1e-10


def test_eigendecompose_connected_graph_zero_mode(ico162_oracle):
    lam = ico162_oracle.eigenvalues
    assert lam[0] == pytest.approx(0.0, abs=1e-8 * lam[-1])
    phi0 = ico162_oracle.phi[:, 0]
    assert np.abs(phi0 - phi0[0]).max() < 1e-8 * np.abs(phi0[0])


def test_basis_invariants(ico162_op, ico162_oracle):
    lam, phi = ico162_oracle.eigenvalues, ico162_oracle.phi
    assert (np.diff(lam) >= -1e-12 * lam[-1]).all()
    assert lam[0] >= -1e-8 * lam[-1]
    gram = phi.T @ (ico162_op.mass[:, None] * phi)
    assert np.abs(gram - np.eye(ico162_op.n)).max() < 1e-8
    stiffness_norm = np.abs(ico162_op.stiffness).sum(axis=1).max()
    residual = ico162_op.stiffness @ phi - (ico162_op.mass[:, None] * phi) * lam[None, :]
    assert np.abs(residual).max() < 1e-6 * stiffness_norm


# --- dense kernel ---

def test_heat_kernel_dense_identity_at_zero(path4_op):
    kernel = DenseOracle(path4_op.stiffness, path4_op.mass).kernel(0.0)
    assert np.allclose(kernel, np.eye(4), atol=1e-12)


def test_heat_kernel_dense_two_node_closed_form(two_node_op):
    oracle = DenseOracle(two_node_op.stiffness, two_node_op.mass)
    for t in (0.3, 1.0, 4.0):
        e = np.exp(-2.0 * t)
        expected = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
        assert np.allclose(oracle.kernel(t), expected, atol=1e-12)


def test_heat_kernel_dense_row_sums_identity_mass(path4_op):
    kernel = DenseOracle(path4_op.stiffness, path4_op.mass).kernel(2.5)
    assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-12)


# --- Chebyshev heat application ---

def test_chebyshev_identity_at_t_zero(grid20_op):
    rng = np.random.default_rng(0)
    s = rng.standard_normal(grid20_op.n)
    out = heat_action(grid20_op, 0.0, s)
    assert np.abs(out - s).max() < 1e-12


def test_chebyshev_matches_dense_icosphere(ico642_op):
    rng = np.random.default_rng(1)
    s = rng.standard_normal(ico642_op.n)
    _, propagator = dense_heat_oracle(ico642_op, 10.0)
    out = heat_action(ico642_op, 10.0, s)
    assert np.abs(out - propagator @ s).max() < 1e-8 * np.abs(s).max()


def test_chebyshev_error_decreases_with_order(ico642_op):
    rng = np.random.default_rng(2)
    s = rng.standard_normal(ico642_op.n)
    _, propagator = dense_heat_oracle(ico642_op, 10.0)
    exact = propagator @ s
    errors = []
    for order in (5, 10, 20, 40):
        out = chebyshev_apply(ico642_op, [heat_function(10.0)], s, order)[0]
        errors.append(np.abs(out - exact).max())
    floor = 1e-13 * np.abs(s).max()
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= hi + floor


def test_chebyshev_envelope(grid20_op):
    # inside t * lambda_max <= 200 the order can always be chosen to reach
    # 1e-7 agreement; order 50 covers t * lambda_max up to ~100 and order 80
    # covers the full envelope
    rng = np.random.default_rng(3)
    s = rng.standard_normal(grid20_op.n)
    lam = grid20_op.lambda_max
    for target, order in ((100.0, 50), (200.0, 80)):
        t = target / lam
        _, propagator = dense_heat_oracle(grid20_op, t)
        out = chebyshev_apply(grid20_op, [heat_function(t)], s, order)[0]
        assert np.abs(out - propagator @ s).max() < 1e-7 * np.abs(s).max()


def test_chebyshev_two_node_closed_form(two_node_op):
    out = heat_action(two_node_op, 0.5, np.array([1.0, -1.0]))
    assert np.allclose(out, np.exp(-1.0) * np.array([1.0, -1.0]), atol=1e-12)


def test_chebyshev_reports_nonfinite_iteration():
    stiffness = sp.csr_matrix(np.array([[np.inf, -1.0], [-1.0, 1.0]]))
    op = csr_operator(stiffness, np.ones(2), _lambda_max=2.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="iteration"):
            heat_action(op, 1.0, np.ones(2))


def test_chebyshev_rejects_nonfinite_block(grid20_op):
    x = np.zeros((grid20_op.n, 3))
    x[17, 1] = np.nan
    with pytest.raises(NumericalError,
                       match="non-finite Chebyshev intermediate at iteration 2"):
        chebyshev_apply(grid20_op, [heat_function(5.0)], x, 10)


@pytest.mark.parametrize("kind", ["inf", "overflow"])
def test_nonfinite_block_raises_numerical_error_under_warnings_as_errors(kind):
    # numpy warns on the check's sum of a block holding +inf and -inf, and on
    # a finite block whose sum overflows; neither warning may replace the error
    op, t = overflowing_operator(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match="non-finite Chebyshev intermediate at iteration 2"):
            heat_kernel_row(op, HeatParams(t), 0)


def test_last_step_overflowing_sum_raises_at_that_step():
    # blocks 1 and 2 have finite sums; block 3, the last, is finite, about
    # (1.58e308, 1.58e308), but its sum overflows
    op, t = overflowing_operator("overflow")
    x = np.array([1e301, 0.0])
    fns = [heat_function(t)]
    with pytest.raises(NumericalError, match="iteration 3"):
        stepwise_chebyshev(op, fns, x, 3)
    stepwise_chebyshev(op, fns, x, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match="non-finite Chebyshev intermediate at iteration 3"):
            chebyshev_apply(op, fns, x, 3)


def test_nonfinite_block_at_zero_coefficients_raises_at_that_step(monkeypatch):
    # block 2 is (-inf, +inf), and every function's coefficient from step 2
    # on is exactly 0: the outputs stay finite, yet the call raises at step 2
    op, _ = overflowing_operator("inf")
    fns = [heat_function(1.0), heat_function(2.0)]
    coeffs = {fns[0]: np.array([1.0, 0.5, 0.0, 0.0, 0.0]),
              fns[1]: np.array([0.5, -0.25, 0.0, 0.0, 0.0, 0.0])}
    monkeypatch.setattr(spectral, "certified_expansion", lambda fn, b: coeffs[fn])
    x = np.array([1e304, 0.0])
    with monkeypatch.context() as unchecked:
        unchecked.setattr(spectral, "_finite_sum", lambda block: True)
        assert all(np.isfinite(out).all() for out in chebyshev_apply(op, fns, x, 4))
    with pytest.raises(NumericalError, match="iteration 2"):
        stepwise_chebyshev(op, fns, x, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match="non-finite Chebyshev intermediate at iteration 2"):
            chebyshev_apply(op, fns, x, 4)


def reference_chebyshev(op, fns, x, order):
    """Plain three-term recurrence on the mapped operator in vertex order,
    with each function's certified expansion cut or zero-padded to
    ``order + 1`` terms."""
    b = op.lambda_max
    a = sp.diags(2.0 / (b * op.mass)) @ op.stiffness - sp.identity(op.n)
    coeffs = []
    for fn in fns:
        c = np.zeros(order + 1)
        expansion = certified_expansion(fn, b)[:order + 1]
        c[:len(expansion)] = expansion
        coeffs.append(c)
    t_prev, t_cur = x, a @ x
    outs = [0.5 * c[0] * x + c[1] * t_cur for c in coeffs]
    for j in range(2, order + 1):
        t_prev, t_cur = t_cur, 2.0 * (a @ t_cur) - t_prev
        for out, c in zip(outs, coeffs):
            out += c[j] * t_cur
    return outs


def scattered_components_op():
    """A weighted path and cycle plus an isolated vertex, labels shuffled,
    with non-uniform mass."""
    rng = np.random.default_rng(21)
    label = rng.permutation(14)
    edges = [(i, i + 1) for i in range(5)] + [(7 + i, 7 + (i + 1) % 7) for i in range(7)]
    w = np.zeros((14, 14))
    for i, j in edges:
        w[label[i], label[j]] = w[label[j], label[i]] = rng.uniform(0.5, 2.0)
    return csr_operator(sp.csr_matrix(np.diag(w.sum(axis=1)) - w),
                        rng.uniform(0.5, 2.0, 14))


@pytest.mark.parametrize("which", ["ico162", "grid20", "components"])
def test_chebyshev_matches_reference_recurrence(request, which):
    op = (scattered_components_op() if which == "components"
          else request.getfixturevalue(f"{which}_op"))
    rng = np.random.default_rng(13)
    centres = rng.choice(op.n, 5, replace=False)
    indicators = np.zeros((op.n, 5))
    indicators[centres, np.arange(5)] = 1.0 / op.mass[centres]
    fns = [heat_function(5.0), heat_function(20.0), lambda x: x * np.exp(-10.0 * x)]
    order = shared_order(op, fns)
    # an order below every certified one truncates each certified series
    assert order // 2 < min(len(certified_expansion(fn, op.lambda_max)) - 1 for fn in fns)
    for steps in (order, order // 2):
        for x in (rng.standard_normal(op.n), indicators, rng.standard_normal((op.n, 4))):
            for got, ref in zip(chebyshev_apply(op, fns, x, steps),
                                reference_chebyshev(op, fns, x, steps)):
                assert got.shape == x.shape
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # a degree-j polynomial carries the centres j levels: on their ball of
    # that depth the restricted operator gives the same columns, and the
    # full operator's are zero off it; depth 3 leaves vertices out, the
    # pass order's ball holds every vertex reachable, in breadth-first order
    for depth in (3, order):
        ball = breadth_first(op.stiffness, centres, np.zeros(op.n, dtype=bool), levels=depth)
        assert np.array_equal(ball[:5], centres)
        off = np.setdiff1d(np.arange(op.n), ball)
        assert off.size > 0 or depth == order
        for got, full in zip(chebyshev_apply(op.restricted(ball), fns, indicators[ball], depth),
                             chebyshev_apply(op, fns, indicators, depth)):
            assert not full[off].any()
            assert np.abs(got - full[ball]).max() <= 1e-13 * np.abs(full).max()


@pytest.mark.parametrize("which", ["ico162", "grid20", "components"])
def test_mapped_operator_and_reach_match_column_scan(request, which):
    # the one-step mapped CSR holds scipy's (2/b) M^-1 S - I entry for entry,
    # and the reach read from its sorted rows is the one a column scan gives;
    # a restricted ball has unsorted stiffness rows, the components operator
    # an isolated vertex with no stored diagonal
    op = (scattered_components_op() if which == "components"
          else request.getfixturevalue(f"{which}_op"))
    b = op.lambda_max
    ball = breadth_first(op.stiffness, [0, op.n - 1], np.zeros(op.n, dtype=bool), levels=3)
    for sub in (op, op.restricted(ball)):
        a = spectral._mapped(sub, b)
        ref = sp.csr_matrix(sp.diags((2.0 / b) / sub.mass) @ sub.stiffness
                            - sp.identity(sub.n))
        ref.sort_indices()
        assert np.array_equal(a.indptr, ref.indptr)
        assert np.array_equal(a.indices, ref.indices)
        assert np.array_equal(a.data, ref.data)
        csc = ref.tocsc()
        csc.sort_indices()
        last = np.arange(sub.n)
        filled = np.flatnonzero(np.diff(csc.indptr))
        last[filled] = np.maximum(filled, csc.indices[csc.indptr[filled + 1] - 1])
        assert np.array_equal(spectral._reach_ends(a), np.maximum.accumulate(last) + 1)


@pytest.mark.parametrize("which", ["ico162", "grid20", "components"])
def test_recurrence_rows_are_the_reached_levels(monkeypatch, request, which):
    # on a breadth-first ball, step j of the recurrence runs on exactly the
    # rows of the first j + 1 levels: none it cannot reach, none it skips
    op = (scattered_components_op() if which == "components"
          else request.getfixturevalue(f"{which}_op"))
    centres = np.random.default_rng(13).choice(op.n, 5, replace=False)
    fn = heat_function(5.0)
    order = shared_order(op, [fn])
    rows = []
    matvecs = spectral.sparsetools.csr_matvecs

    def recording(n_row, n_col, *args):
        # the block products; the accumulations read both blocks, 2 n_col rows
        if n_col == ball.shape[0]:
            rows.append(n_row)
        return matvecs(n_row, n_col, *args)

    monkeypatch.setattr(spectral.sparsetools, "csr_matvecs", recording)
    for depth in (3, order):
        ball = breadth_first(op.stiffness, centres, np.zeros(op.n, dtype=bool), levels=depth)
        x = np.zeros((ball.shape[0], 5))
        x[np.arange(5), np.arange(5)] = 1.0 / op.mass[centres]
        rows.clear()
        chebyshev_apply(op.restricted(ball), [fn], x, depth)
        assert rows == [within_steps(op, centres, j).shape[0] for j in range(1, depth + 1)]


def test_chebyshev_writes_into_out(ico162_op):
    rng = np.random.default_rng(14)
    fns = [heat_function(5.0), heat_function(20.0)]
    x = np.zeros((ico162_op.n, 3))
    x[10:13] = np.eye(3)
    fresh = chebyshev_apply(ico162_op, fns, x, 30)
    # stale contents of the outputs do not leak into the result
    out = [rng.standard_normal(x.shape) for _ in fns]
    got = chebyshev_apply(ico162_op, fns, x, 30, out=out)
    assert all(g is o for g, o in zip(got, out))
    for g, f in zip(got, fresh):
        assert np.array_equal(g, f)
    alone = rng.standard_normal(x.shape)
    got = chebyshev_apply(ico162_op, fns[:1], x, 30, out=[alone])
    assert len(got) == 1 and got[0] is alone
    assert np.array_equal(alone, fresh[0])
    with pytest.raises(ValueError, match="outputs"):
        chebyshev_apply(ico162_op, fns, x, 30, out=out[:1])
    with pytest.raises(ValueError, match="C-contiguous"):
        chebyshev_apply(ico162_op, fns, x, 30, out=[o.T.copy().T for o in out])
    with pytest.raises(ValueError, match="overlap"):
        chebyshev_apply(ico162_op, fns[:1], x, 30, out=[x])


def test_csr_matvecs_row_slice_accumulates_in_place():
    # the recurrence relies on this private scipy kernel: given the rows
    # [1, 3) of indptr, it adds those rows of A @ X into the output it gets
    a = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
    x = np.arange(6.0).reshape(3, 2)
    y = np.ones((3, 2))
    _sparsetools.csr_matvecs(2, 3, 2, a.indptr[1:], a.indices, a.data,
                             x.reshape(-1), y[1:].reshape(-1))
    expected = np.ones((3, 2))
    expected[1:] += (a @ x)[1:]
    assert np.array_equal(y, expected)


def test_accumulate_matches_numpy_axpy_on_a_block_prefix():
    rng = np.random.default_rng(17)
    blocks = rng.standard_normal((80, 7))
    acc = rng.standard_normal((40, 7))
    for terms in ([(-0.37, 0)], [(0.61, 40)], [(-0.37, 40), (0.61, 0)], [(0.25, 3), (-1.5, 50)]):
        before = acc.copy()
        expected = acc.copy()
        for c, first in terms:
            expected[:23] += c * blocks[first:first + 23]
        spectral._accumulate(acc[:23], blocks, terms)
        # bit for bit, and nothing written past the prefix
        assert np.array_equal(acc, expected)
        assert np.array_equal(acc[23:], before[23:])
    for y, b, terms in [(acc[:23], blocks[:, :3].copy(), [(1.0, 0)]),
                        (acc[:, :3], blocks[:, :3].copy(), [(1.0, 0)]),
                        (acc[:23], blocks.astype(np.float32), [(1.0, 0)]),
                        (acc[:23].reshape(-1), blocks, [(1.0, 0)]),
                        (acc[:23], blocks, [(1.0, 58)]),
                        (acc[:23], blocks, [(1.0, -1)]),
                        (acc[:23], blocks, []),
                        (acc[:23], blocks, [(1.0, 0), (1.0, 40), (1.0, 20)])]:
        with pytest.raises(ValueError, match="accumulate needs"):
            spectral._accumulate(y, b, terms)
    assert np.array_equal(acc, expected)


def stepwise_chebyshev(op, fns, x, order):
    """The recurrence of :func:`chebyshev_apply` with one numpy ``y += c * x``
    per function and step, and the block sum checked at every step from the
    second: the rule the paired accumulation and the single end-of-call
    check must reproduce bit for bit and iteration for iteration."""
    b = op.lambda_max
    a = spectral._mapped(op, b)
    ends = spectral._reach_ends(a)
    coeffs = [spectral.certified_expansion(fn, b)[:order + 1] for fn in fns]
    n = op.n
    x2 = np.asarray(x, dtype=np.float64).reshape(n, -1)
    width = x2.shape[1]
    nonzero = np.flatnonzero(x2.any(axis=1))
    hi = int(nonzero[-1]) + 1 if nonzero.size else 0
    newer, older = np.zeros((n, width)), np.zeros((n, width))
    newer[:hi] = x2[:hi]
    accs = [np.zeros((n, width)) for _ in fns]
    for acc, c in zip(accs, coeffs):
        acc[:hi] = newer[:hi] * (0.5 * c[0])
    for j in range(1, order + 1):
        hi = int(ends[hi - 1]) if hi else 0
        data = a.data if j == 1 else (2.0 if j % 2 else -2.0) * a.data
        _sparsetools.csr_matvecs(hi, n, width, a.indptr[:hi + 1], a.indices, data,
                                 newer.reshape(-1), older[:hi].reshape(-1))
        with np.errstate(over="ignore", invalid="ignore"):
            if j > 1 and not np.isfinite(np.add.reduce(older[:hi].reshape(-1))):
                raise NumericalError(f"non-finite Chebyshev intermediate at iteration {j}")
            sigma = 1.0 if j % 4 < 2 else -1.0
            for acc, c in zip(accs, coeffs):
                if j < len(c) and c[j]:
                    acc[:hi] += (sigma * c[j]) * older[:hi]
        newer, older = older, newer
    return [acc.reshape(np.shape(x)) for acc in accs]


def test_paired_accumulation_matches_stepwise_axpy(monkeypatch, ico162_op):
    # heat at t = 5 ends at the odd order 9, halfway through the pair (9, 10);
    # the patched function has exact zeros at odd and even steps, which the
    # accumulation leaves out
    op = ico162_op
    b = op.lambda_max
    fns = [heat_function(5.0), heat_function(20.0), lambda x: x * np.exp(-10.0 * x)]
    holes = heat_function(3.0)
    patched = certified_expansion(holes, b).copy()
    patched[[2, 5, 6]] = 0.0
    monkeypatch.setattr(spectral, "certified_expansion",
                        lambda fn, b: patched if fn is holes else certified_expansion(fn, b))
    fns.append(holes)
    orders = [len(spectral.certified_expansion(fn, b)) - 1 for fn in fns]
    assert orders[0] % 2 == 1 and orders[0] < max(orders)
    rng = np.random.default_rng(23)
    indicators = np.zeros((op.n, 4))
    indicators[rng.choice(op.n, 4, replace=False), np.arange(4)] = 1.0
    for order in (max(orders), max(orders) + 1, orders[0], 6, 1, 2):
        for x in (rng.standard_normal(op.n), rng.standard_normal((op.n, 3)), indicators):
            for got, ref in zip(chebyshev_apply(op, fns, x, order),
                                stepwise_chebyshev(op, fns, x, order)):
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("order", [9, 14, 15])
def test_healthy_call_checks_once_and_accumulates_once_per_pair(monkeypatch, ico162_op, order):
    op = ico162_op
    fns = [heat_function(5.0), heat_function(20.0)]
    x = np.zeros((op.n, 3))
    x[[4, 40, 90], np.arange(3)] = 1.0
    calls = {"products": 0, "accumulations": 0, "checks": 0}
    matvecs, finite_sum = spectral.sparsetools.csr_matvecs, spectral._finite_sum

    def recording(n_row, n_col, *args):
        calls["products" if n_col == op.n else "accumulations"] += 1
        return matvecs(n_row, n_col, *args)

    def checking(block):
        calls["checks"] += 1
        return finite_sum(block)

    monkeypatch.setattr(spectral.sparsetools, "csr_matvecs", recording)
    monkeypatch.setattr(spectral, "_finite_sum", checking)
    chebyshev_apply(op, fns, x, order)
    # no re-run, one check of the last block, and at most one accumulation
    # call per function and pair of steps, besides the first term's multiply
    assert calls["products"] == order
    assert calls["checks"] == 1
    assert calls["accumulations"] <= len(fns) * -(-order // 2)


def test_chebyshev_function_sequence_matches_separate_calls(ico642_op):
    rng = np.random.default_rng(11)
    fns = [heat_function(5.0), heat_function(20.0), lambda x: x * np.exp(-10.0 * x)]
    for x in (rng.standard_normal(ico642_op.n), rng.standard_normal((ico642_op.n, 7))):
        fused = chebyshev_apply(ico642_op, fns, x, 50)
        assert len(fused) == len(fns)
        for fn, got in zip(fns, fused):
            alone = chebyshev_apply(ico642_op, [fn], x, 50)[0]
            assert got.shape == x.shape
            assert np.abs(got - alone).max() <= 1e-13 * np.abs(alone).max()


def test_chebyshev_default_order_fused_equals_single(ico642_op):
    # each function keeps its own certified terms, so sharing a pass with
    # higher-order functions changes none of its output bits
    rng = np.random.default_rng(12)
    fns = [heat_function(5.0), heat_function(20.0), lambda x: x * np.exp(-10.0 * x)]
    for x in (rng.standard_normal(ico642_op.n), rng.standard_normal((ico642_op.n, 7))):
        fused = chebyshev_apply(ico642_op, fns, x, shared_order(ico642_op, fns))
        for fn, got in zip(fns, fused):
            alone = certified_action(ico642_op, fn, x)
            assert np.array_equal(got, alone)


# --- certified order ---

def test_certified_order_rises_with_tb():
    orders = [len(certified_expansion(heat_function(tb), 1.0)) - 1
              for tb in (0.0, 1.0, 10.0, 100.0, 1000.0)]
    assert all(a < b for a, b in zip(orders, orders[1:]))


def test_certified_order_at_t_zero():
    for b in (1e-3, 1.0, 250.0):
        assert len(certified_expansion(heat_function(0.0), b)) == 2


def test_certified_order_meets_tolerance():
    b = 2.5
    x = np.linspace(0.0, b, 20001)
    for tb in (1.0, 10.0, 100.0, 1000.0):
        t = tb / b
        for fn in (heat_function(t), lambda x, t=t: x * np.exp(-t * x)):
            c = certified_expansion(fn, b).copy()
            c[0] *= 0.5
            f = fn(x)
            err = np.abs(npcheb.chebval(2.0 * x / b - 1.0, c) - f).max()
            assert err <= 2 * CHEB_TOL * np.abs(f).max()


def test_coefficients_are_memoized_read_only(ico162_op):
    fn, b = heat_function(5.0), ico162_op.lambda_max
    coeffs = certified_expansion(fn, b)
    assert certified_expansion(fn, b) is coeffs
    # every later pass reads this array, so none may write into it
    with pytest.raises(ValueError, match="read-only"):
        coeffs[0] = 1.0


def test_certified_order_bounded_search():
    with pytest.raises(NumericalError, match="too large"):
        certified_expansion(heat_function(1e7), 1.0)


def test_large_tb_default_order_matches_oracle(grid20_op):
    # t * b = 1000, where the former fixed order 50 leaves a tail of 2.4e-2
    rng = np.random.default_rng(13)
    s = rng.standard_normal(grid20_op.n)
    t = 1000.0 / grid20_op.lambda_max
    kernel, propagator = dense_heat_oracle(grid20_op, t)
    exact = propagator @ s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = heat_action(grid20_op, t, s)
        row = heat_kernel_row(grid20_op, HeatParams(t, support_threshold=0.0), 17)
    assert np.abs(out - exact).max() <= 1e-9 * np.abs(exact).max()
    assert np.abs(row - kernel[17]).max() <= 1e-9 * np.abs(kernel[17]).max()


def test_heat_params_validation():
    with pytest.raises(ValueError):
        HeatParams(-1.0)
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            HeatParams(t)
    with pytest.raises(ValueError):
        HeatParams(1.0, support_threshold=1.0)


# --- kernel rows ---

def test_kernel_row_matches_dense(ico162_op):
    kernel, _ = dense_heat_oracle(ico162_op, 10.0)
    values = heat_kernel_row(ico162_op, HeatParams(10.0, 0.0), 17)
    assert np.abs(values - kernel[17]).max() < 1e-8


def test_kernel_row_threshold_two_node(two_node_op):
    values = heat_kernel_row(two_node_op, HeatParams(10.0, 0.5), 0)
    # at large t the row tends to [0.5, 0.5]; both entries survive a 0.5 cutoff
    assert np.flatnonzero(values).tolist() == [0, 1]
    assert np.allclose(values, 0.5, atol=1e-6)


def test_kernel_row_threshold_zeroes_tail(ico642_op):
    # the cutoff keeps exactly the entries of the full row at or above 1e-4
    # times its maximum, unchanged, and zeroes the rest
    values = heat_kernel_row(ico642_op, HeatParams(5.0, 1e-4), 0)
    full = heat_kernel_row(ico642_op, HeatParams(5.0, 0.0), 0)
    support = np.flatnonzero(values)
    assert 0 < support.shape[0] < ico642_op.n
    assert np.array_equal(support, np.flatnonzero(full >= 1e-4 * full.max()))
    assert np.array_equal(values[support], full[support])
    assert values[support].min() >= 1e-4 * values.max()


def test_kernel_row_is_non_zero_on_its_ball(ico642_op):
    # the recurrence runs on the vertices within its order of steps of the
    # vertex, and the row is non-zero on exactly those
    params = HeatParams(0.05, 0.0)
    order = shared_order(ico642_op, [heat_function(0.05)])
    near = within_steps(ico642_op, [7], order)
    values = heat_kernel_row(ico642_op, params, 7)
    assert 0 < near.shape[0] < ico642_op.n
    assert np.array_equal(np.flatnonzero(values), near)


def test_kernel_rows_of_many_times_match_separate_calls(ico642_op):
    # one recurrence on the ball of the largest order gives every row bit for
    # bit as its own call on its own ball does
    specs = [HeatParams(20.0), HeatParams(5.0, 0.0), HeatParams(50.0, 1e-3),
             HeatParams(5.0)]
    for i in (0, 321):
        rows = heat_kernel_row(ico642_op, specs, i)
        assert len(rows) == len(specs)
        for spec, values in zip(specs, rows):
            assert np.array_equal(values, heat_kernel_row(ico642_op, spec, i))


def test_kernel_row_matches_expm_multiply_beyond_dense_limit():
    # above the dense oracle's size the reference is scipy's action of the
    # matrix exponential on the mass-weighted indicator
    op = cotan_operator(icosphere(5, SPHERE_RADIUS))
    assert op.n == 10242
    laplacian = (sp.diags(1.0 / op.mass) @ op.stiffness).tocsc()
    for i in (0, 5000):
        indicator = np.zeros(op.n)
        indicator[i] = 1.0 / op.mass[i]
        for t in (5.0, 20.0):
            values = heat_kernel_row(op, HeatParams(t, 0.0), i)
            ref = expm_multiply(-t * laplacian, indicator)
            assert np.abs(values - ref).max() <= 1e-10 * np.abs(ref).max()


def test_threshold_row_block():
    block = np.array([[1.0, 0.002],
                      [1e-5, 0.0005],
                      [0.5, 0.0],
                      [0.0, 0.01]])
    keep, kept = threshold_row(block, 0.1)
    # each column keeps entries of at least 0.1 times its own maximum, so the
    # small second column keeps 0.002 and 0.01; indices are flat, row-major
    assert kept.tolist() == [0, 1, 4, 7]
    assert np.array_equal(keep, [[True, True], [False, False], [True, False],
                                 [False, True]])
    # a strided column slice of a wider block keeps that slice of the
    # block's mask, so a block can be thresholded whole and handed out in
    # slices
    wide = np.random.default_rng(3).standard_normal((50, 24)) ** 3
    for cut in (slice(0, 24, 3), slice(5, 8), slice(16, 24)):
        sliced = wide[:, cut]
        assert not sliced.flags.c_contiguous
        for threshold in (0.0, 1e-4, 0.3):
            keep_slice, kept_slice = threshold_row(sliced, threshold)
            assert np.array_equal(keep_slice, threshold_row(wide, threshold)[0][:, cut])
            assert np.array_equal(kept_slice, np.flatnonzero(keep_slice))
    # threshold 0 keeps every entry, zero and negative ones included
    block = np.array([[0.5, -1.0], [0.0, 2.0]])
    keep, kept = threshold_row(block, 0.0)
    assert keep.shape == block.shape and keep.all()
    assert kept.tolist() == [0, 1, 2, 3]
    # vectors keep their single cutoff
    row = np.array([2.0, 1e-5, 0.5, -1.0, 2e-4])
    keep, kept = threshold_row(row, 1e-4)
    assert kept.tolist() == [0, 2, 4]
    assert np.array_equal(keep, [True, False, True, False, True])
    keep, kept = threshold_row(row, 0.0)
    assert keep.shape == row.shape and keep.all()
    assert kept.tolist() == [0, 1, 2, 3, 4]


def test_kernel_row_index_out_of_range(two_node_op):
    with pytest.raises(IndexError):
        heat_kernel_row(two_node_op, HeatParams(1.0), 2)


# --- semigroup ---

def test_semigroup_compose_icosphere(ico162_op, ico162_oracle):
    k5, k10 = ico162_oracle.kernel(5.0), ico162_oracle.kernel(10.0)
    mass = ico162_op.mass[:, None]
    assert np.abs(k5 @ (mass * k5) - k10).max() < 1e-9


def test_semigroup_identity_time(ico162_op, ico162_oracle):
    k5, k0 = ico162_oracle.kernel(5.0), ico162_oracle.kernel(0.0)
    assert np.abs(k5 @ (ico162_op.mass[:, None] * k0) - k5).max() < 1e-12


def test_semigroup_commutes(ico162_op, ico162_oracle):
    k5, k7 = ico162_oracle.kernel(5.0), ico162_oracle.kernel(7.0)
    mass = ico162_op.mass[:, None]
    ab = k5 @ (mass * k7)
    ba = k7 @ (mass * k5)
    assert np.abs(ab - ba).max() < 1e-12


@pytest.mark.parametrize("t1, t2", [(5.0, 5.0), (5.0, 25.0)])
@pytest.mark.parametrize("name", ["grid20_op", "ico162_op", "ico642_op"])
def test_semigroup_chebyshev(request, name, t1, t2):
    # two certified heat actions in a row equal one at the summed time; the
    # six cases measure at most 6.9e-13 * max|s|
    op = request.getfixturevalue(name)
    s = np.random.default_rng(6).standard_normal(op.n)
    twice = heat_action(op, t1, heat_action(op, t2, s))
    once = heat_action(op, t1 + t2, s)
    assert np.abs(twice - once).max() < 1e-10 * np.abs(s).max()


# --- global heat properties ---

def test_constant_preservation(grid20_op, ico162_op):
    for op in (grid20_op, ico162_op):
        ones = np.ones(op.n)
        for t in (0.0, 5.0, 30.0):
            out = heat_action(op, t, ones)
            assert np.abs(out - 1.0).max() < 1e-8


def test_weak_maximum_principle(grid20_op, ico162_op):
    rng = np.random.default_rng(4)
    for op in (grid20_op, ico162_op):
        s = rng.uniform(-1, 3, op.n)
        spread = s.max() - s.min()
        for t in (1.0, 10.0, 50.0):
            out = heat_action(op, t, s)
            assert out.max() <= s.max() + 1e-6 * spread
            assert out.min() >= s.min() - 1e-6 * spread


def test_kernel_support_grows_with_time(ico642_op):
    sizes = []
    for t in (5.0, 25.0, 50.0, 100.0):
        row = heat_kernel_row(ico642_op, HeatParams(t, 0.0), 0)
        sizes.append(int(np.count_nonzero(row > 0.01 * row.max())))
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[0] < sizes[-1]

