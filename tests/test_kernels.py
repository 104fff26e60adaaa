import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from nesth2._kernels import noise_factor, terminal_state_covariance, transition
from nesth2.fixtures import make_decoupled
from nesth2.linalg import SolverError, solve_lyapunov
from nesth2.statespace import lft_lower
from nesth2.synthesis import optimal_controller


def _stiff_loop(n=6, spread=1e3, seed=3):
    # Hurwitz, non-normal, eigenvalues from -1 to -spread
    rng = np.random.default_rng(seed)
    A = np.diag(-np.logspace(0.0, np.log10(spread), n)) \
        + np.triu(rng.standard_normal((n, n)), 1)
    return A, rng.standard_normal((n, 2))


def _rel(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


def test_transition_is_exact_on_a_stiff_loop():
    A, B = _stiff_loop()
    dt = 1.0
    Phi, Q = transition(A, B, dt)
    assert _rel(Phi, scipy.linalg.expm(A * dt)) < 1e-10
    # Q_d = P - Phi P Phi^T for the stationary covariance A P + P A^T + BB^T = 0
    P = solve_lyapunov(A, B @ B.T)
    assert _rel(Q, P - Phi @ P @ Phi.T) < 1e-10
    assert np.array_equal(Q, Q.T)
    # one block exponential over the whole step overflows in its e^{-A dt}
    n = A.shape[0]
    block = np.block([[-A, B @ B.T], [np.zeros((n, n)), A.T]])
    with np.errstate(all="ignore"):
        F = scipy.linalg.expm(block * dt)
        one_shot = F[n:, n:].T @ F[:n, n:]
    assert not np.isfinite(one_shot).all()


def test_noise_factor_of_a_singular_covariance():
    # the decoupled plant's closed loop is not controllable from w
    plant = make_decoupled()
    cl = lft_lower(plant.generalized(), optimal_controller(plant).controller,
                   plant.nz, plant.nw)
    _, Q = transition(cl.A, cl.B, 0.5)
    assert np.linalg.matrix_rank(Q) < Q.shape[0]
    S = noise_factor(Q)
    assert S.shape == Q.shape
    assert np.linalg.norm(S @ S.T - Q) <= 1e-12 * np.linalg.norm(Q)


def test_noise_factor_clips_rounding_and_refuses_indefinite():
    S = noise_factor(np.diag([1.0, -1e-14]))
    assert np.array_equal(S @ S.T, np.diag([1.0, 0.0]))
    refusal = (r"step noise covariance's most negative eigenvalue: "
               r"\S+ / \S+ against gate 1e-12")
    with pytest.raises(SolverError, match=refusal):
        noise_factor(np.diag([1.0, -1e-6]))
    with pytest.raises(SolverError, match=refusal):
        noise_factor(np.diag([np.nan, 1.0]))


def test_same_seed_gives_identical_covariance():
    A, B = _stiff_loop(n=4, spread=10.0)
    first = terminal_state_covariance(A, B, 0.5, 20, 500, seed=9)
    again = terminal_state_covariance(A, B, 0.5, 20, 500, seed=9)
    other = terminal_state_covariance(A, B, 0.5, 20, 500, seed=10)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    assert np.array_equal(first, first.T)


def test_terminal_covariance_matches_stationary_covariance():
    A, B = _stiff_loop(n=4, spread=10.0)
    P = solve_lyapunov(A, B @ B.T)
    cov = terminal_state_covariance(A, B, 1.0, 30, 20000, seed=5)
    assert _rel(cov, P) < 0.05


def test_terminal_covariance_depends_on_the_horizon_only():
    # one exact draw at n_steps dt: how the horizon is split does not matter
    A, B = _stiff_loop(n=4, spread=10.0)
    coarse = terminal_state_covariance(A, B, 1.0, 10, 500, seed=9)
    fine = terminal_state_covariance(A, B, 0.5, 20, 500, seed=9)
    assert np.array_equal(coarse, fine)


def test_terminal_covariance_has_the_wishart_spread():
    # the sample covariance of N paths of N(0, P) has
    # E ||S - P||_F^2 = (tr(P^2) + tr(P)^2) / (N - 1)
    A, B = _stiff_loop(n=4, spread=10.0)
    n_paths = 2000
    P = transition(A, B, 10.0)[1]
    expected = (np.trace(P @ P) + np.trace(P) ** 2) / (n_paths - 1)
    mean_sq = np.mean([
        np.linalg.norm(terminal_state_covariance(A, B, 1.0, 10, n_paths,
                                                 seed=s) - P) ** 2
        for s in range(200)])
    assert abs(mean_sq / expected - 1.0) < 0.2


def test_each_entry_has_the_wishart_variance():
    # entry (i, j) of the sample covariance of N paths of N(0, P) has
    # variance (P_ij^2 + P_ii P_jj) / (N - 1)
    A, B = _stiff_loop(n=4, spread=10.0)
    n_paths = 1000
    P = transition(A, B, 10.0)[1]
    draws = np.array([terminal_state_covariance(A, B, 1.0, 10, n_paths, seed=s)
                      for s in range(400)])
    expected = (P ** 2 + np.outer(np.diag(P), np.diag(P))) / (n_paths - 1)
    assert np.all(np.abs(draws.var(axis=0, ddof=1) / expected - 1.0) < 0.2)


def test_too_few_paths_for_the_state_count_is_refused():
    # the Bartlett factor of W_p(I, nu) needs nu = n_paths - 1 >= p
    A, B = _stiff_loop(n=4, spread=10.0)
    assert terminal_state_covariance(A, B, 1.0, 10, 5, seed=1).shape == (4, 4)
    with pytest.raises(ValueError, match="need at least 5"):
        terminal_state_covariance(A, B, 1.0, 10, 4, seed=1)


def test_kernel_memory_stays_small():
    # 9 states: the draw holds a few 9 x 9 arrays, and the transition a few
    # 18 x 18 ones, whatever the path count
    rng = np.random.default_rng(1)
    A = rng.standard_normal((9, 9))
    A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(9)
    B = rng.standard_normal((9, 5))
    for n_paths in (10, 10 ** 4, 10 ** 12):
        tracemalloc.start()
        try:
            terminal_state_covariance(A, B, 1.0, 50, n_paths, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e3, n_paths
