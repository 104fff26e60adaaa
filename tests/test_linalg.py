import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
import hypothesis.strategies as st
from hypothesis import given, settings

from nesth2 import linalg
from nesth2.statespace import StateSpace
from nesth2.linalg import (
    HURWITZ_MARGIN,
    RANK_TOL,
    SolverError,
    axis_rank_ok,
    gramian,
    h2_norm,
    is_hurwitz,
    pbh_detectable,
    pbh_stabilizable,
    screen_are,
    solve_are,
    solve_lyapunov,
    solve_sylvester,
    stable_antistable_decompose,
)


def _stable_matrix(rng, n, shift=1.0):
    A = rng.standard_normal((n, n))
    return A - (np.max(np.linalg.eigvals(A).real) + shift) * np.eye(n)


def _kron_sylvester(A1, A0, A2):
    """Reference: A1 Om + Om A2 + A0 = 0 as one dense Kronecker solve."""
    n, m = A0.shape
    M = np.kron(np.eye(m), A1) + np.kron(A2.T, np.eye(n))
    vec = np.linalg.solve(M, -A0.flatten(order="F"))
    return vec.reshape((n, m), order="F")


# ---------------------------------------------------------------- hurwitz

def test_is_hurwitz():
    assert is_hurwitz(np.diag([-1.0, -2.0]))
    assert not is_hurwitz(np.diag([-1.0, 0.5]))
    assert not is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # axis pair
    assert not is_hurwitz(np.array([[-1e-12]]))  # inside the margin band
    assert is_hurwitz(np.zeros((0, 0)))


# ---------------------------------------------------------------- lyapunov

def test_lyapunov_diagonal_case():
    P = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
    assert np.allclose(P, np.diag([0.5, 0.25]), atol=1e-12)


def test_lyapunov_matches_scipy():
    rng = np.random.default_rng(100)
    for n in (2, 4, 7):
        A = _stable_matrix(rng, n)
        M = rng.standard_normal((n, n))
        Q = M @ M.T
        P = solve_lyapunov(A, Q)
        P_ref = scipy.linalg.solve_continuous_lyapunov(A, -Q)
        assert np.linalg.norm(P - P_ref) < 1e-8 * (1.0 + np.linalg.norm(P_ref))
        assert np.linalg.norm(P - P.T) < 1e-12 * (1.0 + np.linalg.norm(P))


@pytest.mark.parametrize("n", [1, 5, 20])
def test_lyapunov_matches_kronecker_reference(n):
    rng = np.random.default_rng(105 + n)
    A = _stable_matrix(rng, n)
    Q = rng.standard_normal((n, n))  # not symmetric: no symmetrization
    P = solve_lyapunov(A, Q)
    P_ref = _kron_sylvester(A, Q, A.T)
    assert np.linalg.norm(P - P_ref) < 1e-9 * (1.0 + np.linalg.norm(P_ref))


def test_lyapunov_singular_operator_raises():
    # A and -A^T share the eigenvalue 0
    with pytest.raises(SolverError):
        solve_lyapunov(np.zeros((2, 2)), np.eye(2))
    # A and -A^T share +-1, yet the equation is consistent (P = diag(-1/2, 1/2)
    # solves it); the solution is not unique, so it is still refused
    with pytest.raises(SolverError, match="singular Lyapunov operator"):
        solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


def test_lyapunov_memory_is_quadratic():
    # the dense Kronecker operator of a 48-state equation alone is 42 MB
    rng = np.random.default_rng(106)
    A = _stable_matrix(rng, 48)
    Q = np.eye(48)
    solve_lyapunov(A, Q)  # load LAPACK wrappers outside the measurement
    tracemalloc.start()
    try:
        solve_lyapunov(A, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_sylvester_matches_scipy():
    rng = np.random.default_rng(101)
    A1 = _stable_matrix(rng, 3)
    A2 = _stable_matrix(rng, 4)
    A0 = rng.standard_normal((3, 4))
    Om = solve_sylvester(A1, A0, A2)
    Om_ref = scipy.linalg.solve_sylvester(A1, A2, -A0)
    assert np.linalg.norm(Om - Om_ref) < 1e-9 * (1.0 + np.linalg.norm(Om_ref))


@pytest.mark.parametrize("n, m", [(1, 6), (5, 2), (20, 7)])
def test_sylvester_matches_kronecker_reference(n, m):
    rng = np.random.default_rng(107 + n)
    A1 = _stable_matrix(rng, n)
    A2 = _stable_matrix(rng, m)
    A0 = rng.standard_normal((n, m))
    Om = solve_sylvester(A1, A0, A2)
    Om_ref = _kron_sylvester(A1, A0, A2)
    assert np.linalg.norm(Om - Om_ref) < 1e-9 * (1.0 + np.linalg.norm(Om_ref))


def test_sylvester_refuses_a_solution_off_its_residual_gate(monkeypatch):
    # the quasi-triangular solve is moved by 1e-3; the residual against the
    # original coefficients reads it
    triangular = linalg.triangular_sylvester
    monkeypatch.setattr(linalg, "triangular_sylvester",
                        lambda *args: triangular(*args) + 1e-3)
    rng = np.random.default_rng(113)
    with pytest.raises(SolverError, match=r"^Sylvester residual: \S+ / \S+ "
                       r"against gate 1e-08$"):
        solve_sylvester(_stable_matrix(rng, 3), rng.standard_normal((3, 4)),
                        _stable_matrix(rng, 4))


def test_sylvester_singular_operator_raises():
    # A1 and -A2 share the eigenvalue 1
    with pytest.raises(SolverError, match="singular Sylvester operator"):
        solve_sylvester(np.diag([1.0, -2.0]), np.ones((2, 2)),
                        np.diag([-1.0, 3.0]))


# ---------------------------------------------------------------- pbh

def test_pbh_stabilizable():
    # unstable uncontrollable mode
    A = np.diag([1.0, -2.0])
    B = np.array([[0.0], [1.0]])
    assert not pbh_stabilizable(A, B)
    # same structure but the uncontrollable mode is stable
    A2 = np.diag([-1.0, -2.0])
    assert pbh_stabilizable(A2, B)
    assert pbh_stabilizable(np.diag([1.0, 2.0]), np.eye(2))


def test_pbh_detectable():
    A = np.diag([1.0, -2.0])
    C = np.array([[0.0, 1.0]])
    assert not pbh_detectable(C, A)
    assert pbh_detectable(np.array([[1.0, 0.0]]), A)


def _brute_pbh_stabilizable(A, B):
    """Every eigenvalue with Re >= -HURWITZ_MARGIN, each in complex
    arithmetic, conjugate partners included."""
    n = A.shape[0]
    scale = max(1.0, np.linalg.norm(A) + np.linalg.norm(B))
    for lam in np.linalg.eigvals(A):
        if lam.real < -HURWITZ_MARGIN:
            continue
        M = np.hstack([A - lam * np.eye(n), B.astype(complex)])
        if np.linalg.svd(M, compute_uv=False)[-1] <= RANK_TOL * scale:
            return False
    return True


def _pair_with_hidden_modes(rng, wide=False):
    """A random (A, B), half of the time with an uncontrollable block of one
    real eigenvalue or one complex pair, stable or not, hidden by a random
    similarity. B has 1 or 2 columns, or with wide=True at least as many
    columns as A has rows."""
    nc = int(rng.integers(1, 5))
    A = rng.standard_normal((nc, nc))
    m = nc + int(rng.integers(2, 4)) if wide else int(rng.integers(1, 3))
    B = rng.standard_normal((nc, m))
    kind = rng.integers(0, 4)
    if kind >= 2:
        sign = rng.choice([-1.0, 1.0])
        if kind == 2:
            Au = np.array([[sign * rng.uniform(0.1, 2.0)]])
        else:
            Au = np.array([[sign * 0.5, 2.0], [-2.0, sign * 0.5]])
        nu = Au.shape[0]
        A = np.block([[A, rng.standard_normal((nc, nu))],
                      [np.zeros((nu, nc)), Au]])
        B = np.vstack([B, np.zeros((nu, B.shape[1]))])
    T = rng.standard_normal(A.shape) + 3.0 * np.eye(A.shape[0])
    return np.linalg.solve(T, A @ T), np.linalg.solve(T, B)


def _with_sigma_n(A, B, ratio):
    """B rescaled so that sigma_n(B) = ratio * RANK_TOL * scale, with scale
    = max(1, ||A|| + ||B||) of the rescaled pair, as `_pbh_rank_ok` reads
    it. The scale depends on B only weakly, so a few fixed-point steps
    settle it."""
    n = A.shape[0]
    sigma = np.linalg.svd(B, compute_uv=False)[n - 1]
    t = 1.0
    for _ in range(4):
        scale = max(1.0, np.linalg.norm(A) + t * np.linalg.norm(B))
        t = ratio * RANK_TOL * scale / sigma
    return t * B


@pytest.mark.parametrize("seed", range(60))
def test_pbh_agrees_with_every_eigenvalue_complex_test(seed):
    rng = np.random.default_rng(seed)
    A, B = _pair_with_hidden_modes(rng)
    assert pbh_stabilizable(A, B) == _brute_pbh_stabilizable(A, B)
    assert pbh_detectable(B.T, A.T) == _brute_pbh_stabilizable(A, B)
    # at least as many inputs as states, where one SVD of B may settle the
    # test; with a full-rank B, also at sigma_n(B) twice and half the
    # tolerance, either side of the certificate's threshold
    A, B = _pair_with_hidden_modes(rng, wide=True)
    inputs = [B]
    if np.linalg.svd(B, compute_uv=False)[A.shape[0] - 1] > 1e-6:
        inputs += [_with_sigma_n(A, B, 2.0), _with_sigma_n(A, B, 0.5)]
    for B in inputs:
        assert pbh_stabilizable(A, B) == _brute_pbh_stabilizable(A, B)
        assert pbh_detectable(B.T, A.T) == _brute_pbh_stabilizable(A, B)


def _count_eigvals(monkeypatch):
    calls = []
    original = np.linalg.eigvals

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


@pytest.mark.parametrize("ratio, eigvals_calls", [(2.0, 0), (0.5, 1)])
def test_pbh_certificate_fires_only_above_the_rank_tolerance(
        monkeypatch, ratio, eigvals_calls):
    # sigma_n(B) > RANK_TOL * scale certifies every eigenvalue at once;
    # at or below it, the eigenvalues are tested one by one
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    B = _with_sigma_n(A, rng.standard_normal((4, 5)), ratio)
    expected = _brute_pbh_stabilizable(A, B)
    calls = _count_eigvals(monkeypatch)
    assert pbh_stabilizable(A, B) == expected
    assert len(calls) == eigvals_calls


@pytest.mark.parametrize("A, B", [
    (np.diag([-1.0, -2.0]), [[np.nan], [1.0]]),  # no eigenvalue to test
    (np.diag([1.0, -2.0]), [[np.nan], [1.0]]),   # one eigenvalue to test
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2)),  # certificate path
    (np.diag([1.0, -2.0]), [[np.inf, 0.0], [0.0, 1.0]]),
])
def test_pbh_refuses_non_finite_data(A, B):
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        pbh_stabilizable(A, B)
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        pbh_detectable(np.asarray(B).T, np.asarray(A).T)


@pytest.mark.parametrize("Au, expected", [
    (np.array([[0.5, 2.0], [-2.0, 0.5]]), False),   # unstable complex pair
    (np.array([[-0.5, 2.0], [-2.0, -0.5]]), True),  # stable complex pair
    (np.array([[0.7]]), False),                     # unstable real mode
    (np.array([[-0.7]]), True),                     # stable real mode
])
def test_pbh_finds_a_hidden_uncontrollable_mode(Au, expected):
    rng = np.random.default_rng(5)
    Ac = rng.standard_normal((3, 3))
    nu = Au.shape[0]
    A = np.block([[Ac, rng.standard_normal((3, nu))],
                  [np.zeros((nu, 3)), Au]])
    B = np.vstack([rng.standard_normal((3, 2)), np.zeros((nu, 2))])
    T = rng.standard_normal(A.shape) + 3.0 * np.eye(3 + nu)
    A, B = np.linalg.solve(T, A @ T), np.linalg.solve(T, B)
    assert _brute_pbh_stabilizable(A, B) is expected
    assert pbh_stabilizable(A, B) is expected
    assert pbh_detectable(B.T, A.T) is expected


def test_pbh_takes_one_svd_per_conjugate_pair(monkeypatch):
    # spectrum 1, 2, -3, 0.5 +- 2i, -1 +- i: the region Re >= 0 holds 1, 2
    # and one pair, so three SVDs, the two real ones in real arithmetic
    rng = np.random.default_rng(9)
    D = scipy.linalg.block_diag(1.0, 2.0, -3.0, [[0.5, 2.0], [-2.0, 0.5]],
                                [[-1.0, 1.0], [-1.0, -1.0]])
    T = rng.standard_normal((7, 7)) + 3.0 * np.eye(7)
    A = np.linalg.solve(T, D @ T)
    B = rng.standard_normal((7, 2))
    dtypes = []
    original = np.linalg.svd

    def counted(M, *args, **kwargs):
        dtypes.append(M.dtype)
        return original(M, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    assert pbh_stabilizable(A, B)
    assert sorted(map(str, dtypes)) == ["complex128", "float64", "float64"]


# ---------------------------------------------------------------- axis rank

def test_axis_rank_square_pencil():
    # [A - iw, B; C, D] with a zero at s = 0: rank drops on the axis
    assert not axis_rank_ok(1.0, 1.0, 1.0, 1.0, side="column")
    # zero at s = -2: fine
    assert axis_rank_ok(-1.0, 1.0, 1.0, 1.0, side="column")


def test_axis_rank_tall_pencil():
    C = np.array([[1.0], [0.0]])
    D = np.array([[0.0], [1.0]])
    assert axis_rank_ok(-1.0, 1.0, C, D, side="column")
    assert axis_rank_ok(-2.0, 1.0, C, D, side="column")
    # integrator with no state penalty: zero at the origin
    assert not axis_rank_ok(0.0, 1.0, np.array([[0.0], [0.0]]), D, side="column")


def test_axis_rank_row_side():
    B = np.array([[1.0, 0.0]])
    D = np.array([[0.0, 1.0]])
    assert axis_rank_ok(-1.0, B, 1.0, D, side="row")
    # dual of the integrator case: rank drop of [A - iw, B; C, D] at w = 0
    assert not axis_rank_ok(0.0, np.array([[0.0, 0.0]]),
                            np.array([[1.0]]), np.array([[0.0, 1.0]]), side="row")


def _pencil_axis_rank_ok(A, B, C, D):
    """Reference: the column-side axis check on the system pencil by QZ.

    Full normal rank at an off-axis point, then no finite generalized
    eigenvalue of ([A, B; C, D], diag(I, 0)) in the axis band. A tall pencil
    is squared up with two seeded random augmentations, and only axis zeros
    found by both count.
    """
    A, B, C, D = (np.atleast_2d(np.asarray(M, dtype=float))
                  for M in (A, B, C, D))
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    if p < m:
        return False
    s0 = 0.9501 + 1.2311j
    pencil0 = np.block([[A - s0 * np.eye(n), B], [C, D]])
    if np.linalg.matrix_rank(pencil0) < n + m:
        return False
    band = 1e-7 * max(1.0, np.linalg.norm(A))

    def axis_zeros(Baug, Daug):
        M = np.block([[A, Baug], [C, Daug]])
        N = np.zeros_like(M)
        N[:n, :n] = np.eye(n)
        alpha, beta = scipy.linalg.eig(M, N, right=False,
                                       homogeneous_eigvals=True)
        keep = np.abs(beta) > 1e-10 * np.maximum(1.0, np.abs(alpha))
        zeros = alpha[keep] / beta[keep]
        return zeros[np.abs(zeros.real) <= band]

    if p == m:
        return axis_zeros(B, D).size == 0
    hits = []
    for seed in (20260822, 20260823):
        rng = np.random.default_rng(seed)
        Bx = rng.standard_normal((n, p - m))
        Dx = rng.standard_normal((p, p - m))
        hits.append(axis_zeros(np.hstack([B, Bx]), np.hstack([D, Dx])))
    for z in hits[0]:
        if hits[1].size and np.min(np.abs(hits[1] - z)) <= 1e-5 * (1 + abs(z)):
            return False
    return True


def _system_with_zero(rng, n, m, p, zero):
    """Random (A, B, C, D), D of full column rank; `zero` = (sigma, omega)
    builds in an invariant zero at sigma + i omega (and its conjugate)."""
    B = rng.standard_normal((n, m))
    D = rng.standard_normal((p, m))
    if zero is None:
        return rng.standard_normal((n, n)), B, rng.standard_normal((p, n)), D
    sigma, omega = zero
    if omega:
        J = np.array([[sigma, omega], [-omega, sigma]])
    else:
        J = np.array([[sigma]])
    r = J.shape[0]
    T = rng.standard_normal((n, n))
    Ti = np.linalg.inv(T)
    # an eigenvalue of At whose eigenvectors Ct does not see, with Ct
    # orthogonal to the range of D; A, C then follow from any feedback F
    rest = rng.standard_normal((n - r, n - r))
    At = T @ scipy.linalg.block_diag(J, rest) @ Ti
    P = np.eye(p) - D @ np.linalg.pinv(D)
    G = P @ rng.standard_normal((p, n - r))
    Ct = np.hstack([np.zeros((p, r)), G]) @ Ti
    F = rng.standard_normal((m, n))
    return At + B @ F, B, Ct + D @ F, D


def test_axis_rank_matches_the_pencil_method(monkeypatch):
    rng = np.random.default_rng(2024)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, 4))
        p = m + int(rng.integers(0, 3))
        kind = rng.integers(3)  # none, on the axis, off the axis
        omega = float(rng.choice([0.0, rng.uniform(0.1, 3.0)]))
        sigma = 0.0 if kind == 1 else \
            float(rng.choice([-1, 1]) * rng.uniform(1e-3, 2.0))
        A, B, C, D = _system_with_zero(rng, n, m, p,
                                       None if kind == 0 else (sigma, omega))
        expected = _pencil_axis_rank_ok(A, B, C, D)
        assert expected == (kind != 1)
        assert axis_rank_ok(A, B, C, D, side="column") == expected
        assert axis_rank_ok(A.T, C.T, B.T, D.T, side="row") == expected
        verdicts[expected] += 1
    assert min(verdicts.values()) > 50
    # n more outputs than inputs: Ct = C - D F has full column rank, and one
    # SVD of it settles the check with no eigenvalue computed
    A, B, C, D = _system_with_zero(rng, 4, 2, 7, None)
    assert _pencil_axis_rank_ok(A, B, C, D)
    calls = _count_eigvals(monkeypatch)
    assert axis_rank_ok(A, B, C, D, side="column")
    assert axis_rank_ok(A.T, C.T, B.T, D.T, side="row")
    assert calls == []


def test_axis_rank_needs_full_rank_feedthrough():
    # no finite zero at all: the pencil method passes it, but the columns of
    # D cannot be compressed out
    assert _pencil_axis_rank_ok(-1.0, 1.0, 1.0, 0.0)
    assert not axis_rank_ok(-1.0, 1.0, 1.0, 0.0, side="column")
    # more inputs than outputs, and a rank-one D of two columns
    assert not axis_rank_ok(-1.0, np.ones((1, 2)), 1.0, np.ones((1, 2)))
    assert not axis_rank_ok(-np.eye(2), np.eye(2), np.eye(3, 2),
                            np.ones((3, 2)))
    assert not axis_rank_ok(-1.0, np.array([[1.0, 0.0]]), 1.0,
                            np.zeros((1, 2)), side="row")
    # the rank verdict on D is np.linalg.matrix_rank's: a singular value of
    # 1e-14 counts (C - D F = 0, no axis zero), one of 1e-17 does not
    for d, expected in ((1e-14, True), (1e-17, False)):
        D = np.vstack([np.diag([1.0, d]), np.zeros((1, 2))])
        assert (int(np.linalg.matrix_rank(D)) == 2) is expected
        assert axis_rank_ok(-np.eye(2), np.eye(2), np.eye(3, 2), D) is expected


@pytest.mark.parametrize("side", ["column", "row"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["A", "B", "C", "D"])
def test_axis_rank_refuses_non_finite_data(name, bad, side):
    # D alike with A, B and C: a NaN in D used to surface as the SVD's
    # "did not converge", and an infinite one gave False with no error
    args = {"A": -np.eye(2), "B": np.ones((2, 1)), "C": np.eye(3, 2),
            "D": np.array([[0.0], [0.0], [1.0]])}
    assert axis_rank_ok(**args)
    if side == "row":
        args = {"A": args["A"].T, "B": args["C"].T, "C": args["B"].T,
                "D": args["D"].T}
    args[name] = args[name].copy()
    args[name][0, 0] = bad
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        axis_rank_ok(**args, side=side)


# ---------------------------------------------------------------- riccati

def test_are_scalar_frozen_values():
    sol = solve_are(-1.0, 1.0, 1.0, 1.0)
    assert abs(sol.X) < 1e-10
    assert abs(sol.K + 1.0) < 1e-10
    sol = solve_are(0.0, 1.0, 1.0, 1.0)
    assert abs(sol.X) < 1e-10
    assert abs(sol.K + 1.0) < 1e-10


def test_are_axis_zero_rejected():
    with pytest.raises(SolverError):
        solve_are(1.0, 1.0, 1.0, 1.0)


def test_are_unstabilizable_rejected():
    A = np.diag([1.0, -1.0])
    B = np.array([[0.0], [1.0]])
    C = np.vstack([np.eye(2), np.zeros((1, 2))])
    D = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(SolverError):
        solve_are(A, B, C, D)


def test_screen_are_names_the_failed_precondition():
    A = np.diag([1.0, -1.0])
    B = np.array([[0.0], [1.0]])
    C = np.vstack([np.eye(2), np.zeros((1, 2))])
    D = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(SolverError, match=r"\(A, B\) is not stabilizable"):
        screen_are(A, B, C, D)
    with pytest.raises(SolverError, match="axis-rank"):
        screen_are(1.0, 1.0, 1.0, 1.0)
    screen_are(-1.0, 1.0, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


def test_are_sqrt2_and_sqrt5():
    sol = solve_are(-1.0, 1.0, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    assert abs(sol.X[0, 0] - (np.sqrt(2.0) - 1.0)) < 1e-12
    sol = solve_are(-2.0, 1.0, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    assert abs(sol.X[0, 0] - (np.sqrt(5.0) - 2.0)) < 1e-12


def test_are_matches_scipy_with_cross_term():
    rng = np.random.default_rng(102)
    # the last three take the doubling path
    for n, m, p in ((3, 1, 4), (4, 2, 6), (5, 2, 7),
                    (32, 3, 35), (48, 4, 52), (64, 5, 69)):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        D = rng.standard_normal((p, m))
        if not pbh_stabilizable(A, B):
            continue
        sol = solve_are(A, B, C, D)
        X_ref = scipy.linalg.solve_continuous_are(
            A, B, C.T @ C, D.T @ D, s=C.T @ D)
        assert np.linalg.norm(sol.X - X_ref) < 1e-7 * (1.0 + np.linalg.norm(X_ref))
        assert is_hurwitz(A + B @ sol.K, margin=0.0)
        assert sol.residual < 1e-8 * (1.0 + np.linalg.norm(sol.X) ** 2)


def _regulator(A, B):
    """(A, B, C, D) with cost x^T x + u^T u."""
    n, m = B.shape
    C = np.vstack([np.eye(n), np.zeros((m, n))])
    D = np.vstack([np.zeros((n, m)), np.eye(m)])
    return A, B, C, D


@pytest.mark.parametrize("n, eig_calls", [
    (1, 1), (linalg._SIGN_MIN_STATES - 1, 1),
    (linalg._SIGN_MIN_STATES, 0), (64, 0),
])
def test_are_path_follows_the_cutoff(monkeypatch, n, eig_calls):
    rng = np.random.default_rng(n)
    data = _regulator(rng.standard_normal((n, n)) / np.sqrt(n),
                      rng.standard_normal((n, max(2, n // 4))))
    calls = []
    original = np.linalg.eig

    def counted(M):
        calls.append(M.shape)
        return original(M)
    monkeypatch.setattr(np.linalg, "eig", counted)
    solve_are(*data)
    assert len(calls) == eig_calls


def _doubling_refusal_cases():
    # every case has 32 states, so it takes the doubling path
    n = linalg._SIGN_MIN_STATES
    rng = np.random.default_rng(11)
    A2 = _stable_matrix(rng, n - 1)
    B2 = rng.standard_normal((n - 1, 2))
    _, _, C2, D2 = _regulator(A2, B2)
    # the scalar solve_are(1, 1, 1, 1) case, whose Hamiltonian has a double
    # eigenvalue at 0, as one block of a block-diagonal problem: H settles
    # in a few steps, but E keeps modulus 1 on that block up to the cap
    axis = (scipy.linalg.block_diag(1.0, A2), scipy.linalg.block_diag(1.0, B2),
            scipy.linalg.block_diag(1.0, C2), scipy.linalg.block_diag(1.0, D2))
    # an unstable mode that no input reaches: E grows on it by squaring
    # until it overflows
    unstab = _regulator(scipy.linalg.block_diag(1.0, A2),
                        np.vstack([np.zeros((1, 2)), B2]))
    # A = 0 and B = 0: every Hamiltonian eigenvalue is 0, so no stabilizing
    # solution exists, and every shift tried is 0
    cayley = _regulator(np.zeros((n, n)), np.zeros((n, 2)))
    A_nan = rng.standard_normal((n, n))
    A_nan[3, 5] = np.nan
    nan = _regulator(A_nan, rng.standard_normal((n, 2)))
    return [
        pytest.param(axis, SolverError,
                     f"E did not decay in {linalg._DOUBLING_MAX_STEPS} steps; "
                     "H has an eigenvalue on or near the imaginary axis",
                     id="axis"),
        pytest.param(unstab, SolverError, "doubling iterate is not finite",
                     id="unstabilizable"),
        pytest.param(cayley, SolverError,
                     "no doubling shift gives well-conditioned Cayley "
                     "factors A - g I and W", id="cayley"),
        pytest.param(nan, np.linalg.LinAlgError, "infs or NaNs", id="nan"),
    ]


@pytest.mark.parametrize("data, error, match", _doubling_refusal_cases())
def test_are_sign_path_refuses(data, error, match):
    with pytest.raises(error, match=match):
        solve_are(*data)


@pytest.mark.parametrize("a", [0.0, 1.0], ids=["zero", "identity"])
def test_are_doubling_moves_a_shift_off_a_singular_cayley_factor(a):
    # A = 0 makes the first shift ||A||_F / sqrt(n) zero, and A = I makes it
    # 1, an eigenvalue of A: A - g I is the zero matrix either way. Both
    # equations, A = a I, have X = (a + sqrt(a^2 + 1)) I, and a later shift
    # finds it
    n = linalg._SIGN_MIN_STATES
    sol = solve_are(*_regulator(a * np.eye(n), np.eye(n)))
    expected = (a + np.sqrt(a ** 2 + 1.0)) * np.eye(n)
    assert np.linalg.norm(sol.X - expected) < 1e-12 * np.linalg.norm(expected)


def test_are_doubling_refuses_an_ill_conditioned_cayley_factor(monkeypatch):
    # A = diag(a, -1, ..., -3) with a chosen so that the first shift
    # ||A||_F / sqrt(n) lies 1e-9 above a: A - g I is near singular, though
    # not exactly, and is passed over for the next shift, as a zero pivot is
    n = linalg._SIGN_MIN_STATES
    shifts = []
    original = linalg._conditioned_inverse

    def recorded(M):
        inverse = original(M)
        shifts.append(inverse is not None)
        return inverse
    monkeypatch.setattr(linalg, "_conditioned_inverse", recorded)
    d = np.linspace(-1.0, -3.0, n - 1)
    a_ii = np.r_[np.sqrt(d @ d / (n * (1.0 + 1e-9) ** 2 - 1.0)), d]
    sol = solve_are(*_regulator(np.diag(a_ii), np.eye(n)))
    # the first shift's A - g I is refused, the second's factors both pass
    assert shifts == [False, True, True]
    expected = np.diag(a_ii + np.sqrt(a_ii ** 2 + 1.0))
    assert np.linalg.norm(sol.X - expected) < 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("n", [linalg._SIGN_MIN_STATES - 1,
                               linalg._SIGN_MIN_STATES])
def test_are_names_the_margin_band_on_both_paths(n):
    # one uncontrolled, unweighted mode at -1e-10 puts a Hamiltonian pair at
    # +-1e-10, inside the margin band. The eigenvector path (31 states) sees
    # it in H's spectrum; the doubling path (32) runs until E has decayed on
    # it too, about 40 steps, and meets the mode again as the largest real
    # part of A + B K
    rng = np.random.default_rng(13)
    A2 = _stable_matrix(rng, n - 1)
    B2 = rng.standard_normal((n - 1, 2))
    A, B, C, D = _regulator(scipy.linalg.block_diag(-1e-10, A2),
                            np.vstack([np.zeros((1, 2)), B2]))
    C[:, 0] = 0.0
    with pytest.raises(SolverError, match="Hamiltonian eigenvalue inside "
                                          "the margin band"):
        solve_are(A, B, C, D)


def _count_spectra(monkeypatch):
    counts = dict.fromkeys(("eigvals", "eigvalsh", "svd"), 0)
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_are_certifies_a_definite_solution_with_no_spectrum(monkeypatch):
    # X > 0 and (C + D K)^T (C + D K) > 0: Cholesky factors settle the
    # control weight, the PSD gate and the closed loop
    rng = np.random.default_rng(21)
    data = _regulator(rng.standard_normal((6, 6)), rng.standard_normal((6, 2)))
    counts = _count_spectra(monkeypatch)
    sol = solve_are(*data)
    assert counts == {"eigvals": 0, "eigvalsh": 0, "svd": 0}
    assert is_hurwitz(data[0] + data[1] @ sol.K)


def test_are_with_a_singular_solution_takes_the_spectral_tests(monkeypatch):
    # a stable mode that C does not weight leaves X singular, so no Cholesky
    # factor certifies X > 0: eigvalsh decides the PSD gate and eigvals the
    # closed loop, which keeps the unweighted mode at -1
    rng = np.random.default_rng(22)
    A2 = rng.standard_normal((4, 4))
    B2 = rng.standard_normal((4, 2))
    A, B, C, D = _regulator(scipy.linalg.block_diag(-1.0, A2),
                            np.vstack([rng.standard_normal((1, 2)), B2]))
    C[:, 0] = 0.0
    counts = _count_spectra(monkeypatch)
    sol = solve_are(A, B, C, D)
    assert counts == {"eigvals": 1, "eigvalsh": 1, "svd": 0}
    assert np.linalg.norm(sol.X[0]) < 1e-12
    X_ref = scipy.linalg.solve_continuous_are(A, B, C.T @ C, D.T @ D)
    assert np.linalg.norm(sol.X - X_ref) < 1e-9 * np.linalg.norm(X_ref)


def test_are_with_a_singular_lyapunov_form_takes_eigvals(monkeypatch):
    # one output for two states, with both plant zeros at (1 +- i sqrt(3))
    # / 2 in the right half plane: X = 2 I > 0, but W = (C + D K)^T (C + D
    # K) has rank one, so the Lyapunov certificate fails and eigvals decides
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, -1.0]])
    D = np.array([[1.0]])
    counts = _count_spectra(monkeypatch)
    sol = solve_are(A, B, C, D)
    assert counts == {"eigvals": 1, "eigvalsh": 0, "svd": 0}
    assert np.allclose(sol.X, 2.0 * np.eye(2))
    assert is_hurwitz(A + B @ sol.K)


@pytest.mark.parametrize("m", [1, 3])
def test_are_with_zero_states_returns_empty_factors(m):
    D = np.vstack([np.eye(m), np.ones((1, m))])
    sol = solve_are(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((m + 1, 0)),
                    D)
    assert sol.X.shape == (0, 0)
    assert sol.K.shape == (m, 0)
    assert sol.residual == 0.0
    # the control weight is still required definite
    with pytest.raises(SolverError, match="control weight"):
        solve_are(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                  np.ones((2, 2)))


def test_cholesky_certificate_is_one_sided():
    # it proves lambda_min(M) > gate with room for rounding, and proves
    # nothing at the gate, for an indefinite, empty or non-finite M
    M = np.diag([1.0, 2.0, 3.0])
    assert linalg._exceeds(M, 0.99)
    assert not linalg._exceeds(M, 1.0)
    assert not linalg._exceeds(M, 0.5, formed=0.5)
    assert not linalg._exceeds(np.diag([1.0, -1e-300]), 0.0)
    assert not linalg._exceeds(np.zeros((0, 0)), 0.0)
    for bad in (np.nan, np.inf):
        assert not linalg._exceeds(np.diag([bad, 1.0]), 0.0)


@pytest.mark.parametrize("seed", range(40))
def test_rank_certificates_never_contradict_the_svd(seed):
    # sigma_n(B) and sigma_n(C - D F) placed around their tolerances: where
    # a Cholesky factor proves the verdict, the SVD path returns it too
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    ratio = 10.0 ** rng.uniform(-1.0, 8.0)
    A = rng.standard_normal((n, n))
    B = _with_sigma_n(A, rng.standard_normal((n, n + 2)), ratio)
    tol = RANK_TOL * max(1.0, np.linalg.norm(A) + np.linalg.norm(B))
    if linalg._sigma_n_exceeds(B, tol):
        assert np.linalg.svd(B, compute_uv=False)[n - 1] > tol
    m = int(rng.integers(1, 4))
    D = rng.standard_normal((n + m + 1, m))
    U = scipy.linalg.null_space(D.T)
    C = D @ rng.standard_normal((m, n)) + _with_sigma_n(
        A, U @ rng.standard_normal((U.shape[1], n)), ratio)
    B2 = rng.standard_normal((n, m))
    if linalg._axis_certificate(A, B2, C, D):
        s = np.linalg.svd(D, compute_uv=False)
        assert s[-1] > s[0] * max(D.shape) * np.finfo(float).eps
        F = np.linalg.pinv(D) @ C
        Ct = C - D @ F
        tol = RANK_TOL * max(1.0, np.linalg.norm(A - B2 @ F)
                             + np.linalg.norm(Ct))
        assert np.linalg.svd(Ct, compute_uv=False)[n - 1] > tol


def _count_getrf(monkeypatch):
    """The matrices `solve_are`'s doubling factors: two Cayley factors, then
    one step matrix per step."""
    factored = []
    original = linalg._GETRF
    monkeypatch.setattr(linalg, "_GETRF",
                        lambda M: factored.append(M.shape) or original(M))
    return factored


def test_are_sign_path_refuses_at_the_step_cap(monkeypatch):
    # the doubling settles this problem in 8 steps; capped at 2 it refuses
    rng = np.random.default_rng(12)
    n = linalg._SIGN_MIN_STATES
    data = _regulator(rng.standard_normal((n, n)) / np.sqrt(n),
                      rng.standard_normal((n, n // 4)))
    factored = _count_getrf(monkeypatch)
    solve_are(*data)
    assert len(factored) - 2 == 8
    monkeypatch.setattr(linalg, "_DOUBLING_MAX_STEPS", 2)
    with pytest.raises(SolverError, match="doubling did not converge in 2 "
                                          "steps"):
        solve_are(*data)


def test_are_sign_path_stops_at_its_rounding_floor(monkeypatch):
    # A = -1e-5 I clusters 30 of the Hamiltonian's eigenvalue pairs at
    # +-1e-5. The first shift ||A||_F / sqrt(n) = 1e-5 is refused, W = -2e-5
    # I - 500 B B^T being ill-conditioned, and the next, about 0.27, gives
    # the clustered modes Cayley images near -1. E decays on them only
    # after about 20 steps; the doubling runs on until it has, and agrees
    # with the eigenvector path
    n, m = linalg._SIGN_MIN_STATES, 2
    B = np.random.default_rng(0).standard_normal((n, m))
    A, B, C, D = _regulator(-1e-5 * np.eye(n), B)
    C = 0.1 * C
    factored = _count_getrf(monkeypatch)
    sol = solve_are(A, B, C, D)
    monkeypatch.undo()
    assert 10 < len(factored) - 2 < linalg._DOUBLING_MAX_STEPS
    monkeypatch.setattr(linalg, "_SIGN_MIN_STATES", n + 1)
    X_eig = solve_are(A, B, C, D).X
    assert np.linalg.norm(sol.X - X_eig) < 1e-6 * np.linalg.norm(X_eig)


@pytest.mark.parametrize("n", [linalg._SIGN_MIN_STATES, 64])
def test_are_factors_nothing_larger_than_n_states(monkeypatch, n):
    # the doubling works on n x n blocks: the 2n x 2n Hamiltonian is never
    # formed, so every factorization, certificate and spectrum that
    # solve_are takes is at most n x n
    rng = np.random.default_rng(n)
    data = _regulator(rng.standard_normal((n, n)) / np.sqrt(n),
                      rng.standard_normal((n, n // 4)))
    sizes = []
    for home, name in ((linalg, "_GETRF"), (linalg, "_POTRF"),
                       (np.linalg, "eig"), (np.linalg, "eigvals"),
                       (np.linalg, "eigvalsh"), (np.linalg, "inv"),
                       (np.linalg, "qr"), (np.linalg, "solve"),
                       (np.linalg, "svd"), (scipy.linalg, "schur"),
                       (scipy.linalg, "qr"), (scipy.linalg, "lu_factor")):
        original = getattr(home, name)

        def counted(a, *args, _original=original, **kwargs):
            sizes.append(max(np.shape(a)))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(home, name, counted)
    solve_are(*data)
    assert sizes and max(sizes) == n


# ---------------------------------------------------------------- gramians / h2

def test_gramian_requires_hurwitz():
    g = StateSpace(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(SolverError):
        gramian(g)


def test_h2_first_order_lag():
    g = StateSpace(-1.0, 1.0, 1.0, 0.0)
    assert abs(h2_norm(g) - 1.0 / np.sqrt(2.0)) < 1e-12


def test_h2_double_lag():
    A = np.array([[-1.0, 1.0], [0.0, -1.0]])
    g = StateSpace(A, np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]), 0.0)
    assert abs(h2_norm(g) - 0.5) < 1e-12


def test_h2_rejects_feedthrough():
    g = StateSpace(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        h2_norm(g)


@pytest.mark.parametrize("A", [
    np.diag([-1.0, -1e-10]),
    np.array([[-1e-10, 1.0], [-1.0, -1e-10]]),  # a complex pair
])
def test_h2_refuses_an_eigenvalue_inside_the_margin(A):
    g = StateSpace(A, np.ones((2, 1)), np.ones((1, 2)), 0.0)
    with pytest.raises(SolverError,
                       match="Gramian of a non-Hurwitz system is undefined"):
        h2_norm(g)
    with pytest.raises(SolverError, match="non-Hurwitz"):
        gramian(g, "observability")


def test_h2_refuses_a_non_finite_state_matrix():
    # as np.linalg.eigvals does, so a caller's LinAlgError handling holds
    g = StateSpace([[-1.0, np.nan], [0.0, -1.0]], np.ones((2, 1)),
                   np.ones((1, 2)), 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        h2_norm(g)


@pytest.mark.parametrize("seed", range(4))
def test_h2_is_the_controllability_trace_to_the_bit(seed):
    rng = np.random.default_rng(seed)
    A = _stable_matrix(rng, 7, shift=0.3)
    B = rng.standard_normal((7, 3))
    C = rng.standard_normal((2, 7))
    Wc = solve_lyapunov(A, B @ B.T)
    assert h2_norm(StateSpace(A, B, C, 0.0)) == \
        np.sqrt(np.trace(C @ Wc @ C.T))


def test_observability_gramian_solves_the_transposed_equation():
    rng = np.random.default_rng(8)
    A = _stable_matrix(rng, 6)
    C = rng.standard_normal((2, 6))
    g = StateSpace(A, np.zeros((6, 1)), C, 0.0)
    Wo = gramian(g, "observability")
    assert np.array_equal(Wo, Wo.T)
    assert np.linalg.norm(A.T @ Wo + Wo @ A + C.T @ C) < 1e-12 * (
        1.0 + np.linalg.norm(Wo))
    ref = solve_lyapunov(A.T, C.T @ C)
    assert np.linalg.norm(Wo - ref) < 1e-10 * np.linalg.norm(ref)


def test_h2_matches_frequency_integral():
    rng = np.random.default_rng(103)
    A = _stable_matrix(rng, 3)
    g = StateSpace(A, rng.standard_normal((3, 2)), rng.standard_normal((2, 3)),
                   np.zeros((2, 2)))

    def density(w):
        M = g.eval_at(1j * w)
        return np.sum(np.abs(M) ** 2)

    val, err = quad(density, 0.0, np.inf, limit=400)
    norm_ref = np.sqrt(val / np.pi)
    assert abs(h2_norm(g) - norm_ref) < 1e-6 * (1.0 + norm_ref)


# ---------------------------------------------------------------- stable split

def test_stable_antistable_decompose():
    rng = np.random.default_rng(104)
    A = np.diag([-1.0, 2.0, -3.0, 0.5])
    T = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    sys = StateSpace(np.linalg.solve(T, A @ T), rng.standard_normal((4, 2)),
                     rng.standard_normal((2, 4)), rng.standard_normal((2, 2)))
    gs, ga = stable_antistable_decompose(sys)
    assert gs.nx == 2 and ga.nx == 2
    assert is_hurwitz(gs.A)
    assert np.min(np.linalg.eigvals(ga.A).real) > 0.0
    assert np.linalg.norm(ga.D) == 0.0
    for s in (0.3 + 1.0j, -0.7 + 2.0j, 1.5 - 0.2j):
        total = gs.eval_at(s) + ga.eval_at(s)
        assert np.linalg.norm(total - sys.eval_at(s)) < 1e-8


def test_stable_antistable_all_one_side():
    g = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.eye(2))
    gs, ga = stable_antistable_decompose(g)
    assert gs.nx == 2 and ga.nx == 0
    g2 = StateSpace(np.diag([1.0, 2.0]), np.eye(2), np.eye(2), np.zeros((2, 2)))
    gs2, ga2 = stable_antistable_decompose(g2)
    assert gs2.nx == 0 and ga2.nx == 2


def test_stable_antistable_margin_band_raises():
    g = StateSpace(np.array([[1e-12]]), 1.0, 1.0, 0.0)
    with pytest.raises(SolverError):
        stable_antistable_decompose(g)
    # a complex pair in the band, read off a standardized 2 x 2 block
    with pytest.raises(SolverError, match="margin band"):
        stable_antistable_decompose(StateSpace(
            scipy.linalg.block_diag(-1.0, [[1e-10, 1.0], [-1.0, 1e-10]]),
            np.ones((3, 1)), np.ones((1, 3)), 0.0))


def test_stable_antistable_refuses_a_non_finite_state_matrix():
    # as h2_norm does, so a caller's LinAlgError handling holds
    g = StateSpace([[-1.0, np.nan], [0.0, 1.0]], np.ones((2, 1)),
                   np.ones((1, 2)), 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        stable_antistable_decompose(g)


# ---------------------------------------------------------------- property tests

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_lyapunov_residual_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    A = _stable_matrix(rng, n)
    M = rng.standard_normal((n, n))
    Q = M @ M.T
    P = solve_lyapunov(A, Q)
    assert np.linalg.norm(A @ P + P @ A.T + Q) < 1e-9 * (1.0 + np.linalg.norm(Q))
    assert np.min(np.linalg.eigvalsh(P)) > -1e-10


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_are_closed_loop_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 3))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((n + m, n))
    D = np.vstack([np.zeros((n, m)), np.eye(m)])
    if not pbh_stabilizable(A, B):
        return
    sol = solve_are(A, B, C, D)
    assert is_hurwitz(A + B @ sol.K, margin=0.0)
    assert np.min(np.linalg.eigvalsh(sol.X)) > -1e-8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       n=st.integers(min_value=linalg._SIGN_MIN_STATES - 4,
                     max_value=linalg._SIGN_MIN_STATES + 8))
def test_are_closed_loop_property_across_the_cutoff(seed, n):
    # n // 4 or more inputs keep ||X|| below about 1e4 at this scale of A
    rng = np.random.default_rng(seed)
    m = int(rng.integers(n // 4, n // 2))
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((n + m, n)) / np.sqrt(n)
    D = np.vstack([np.zeros((n, m)), np.eye(m)])
    sol = solve_are(A, B, C, D)
    X = sol.X
    assert is_hurwitz(A + B @ sol.K)
    assert np.min(np.linalg.eigvalsh(X)) > -1e-8 * (1.0 + np.linalg.norm(X))
    # D^T D = I, so the gain is K = -(B^T X + D^T C)
    G = X @ B + C.T @ D
    res = np.linalg.norm(A.T @ X + X @ A + C.T @ C - G @ G.T)
    assert res < 1e-8 * (1.0 + np.linalg.norm(X)) ** 2
