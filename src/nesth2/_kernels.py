"""Path-simulation kernel for the Monte Carlo covariance check.

Samples the terminal state of the linear SDE dx = A x dt + B dW, x(0) = 0,
at time t across many independent paths. That state is exactly Gaussian,

    x(t) = S eta,   S S^T = Q(t) = int_0^t e^{As} B B^T e^{A^T s} ds,

with eta standard normal. Exact transitions compose, so one draw per path
has the law that any number of exact steps to t would reach. The one error
left is sampling error, and the sample covariance has the exact Wishart
law. Q(t) comes from the block exponential of Van Loan (1978, IEEE TAC
23(3)) on a short sub-step, doubled up to t. One numpy generator draws
every path, so a seed fixes the result.
"""

import numpy as np
import scipy.linalg as sla

from .linalg import SolverError

USE_NUMBA = False  # no compiled backend; read by tools that record one

#: Q_d eigenvalues in [-NEGATIVE_TOL * lambda_max, 0) are rounding and are
#: set to zero; anything more negative means Q_d is not a covariance
NEGATIVE_TOL = 1e-12


def transition(A, B, dt):
    """Phi = e^{A dt} and the noise covariance Q_d of one step of length dt.

    Van Loan's block exponential of [[-A, B B^T], [0, A^T]] h gives
    Phi(h) = F22^T and Q(h) = F22^T F12. Its e^{-A h} block overflows on a
    stiff loop when h is the whole step, so it is taken on h0 = dt / 2^s with
    ||A||_1 h0 <= 1/2 and doubled s times:
    Q(2h) = Q(h) + Phi(h) Q(h) Phi(h)^T, Phi(2h) = Phi(h)^2.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    n = A.shape[0]
    norm = np.linalg.norm(A, 1)
    s, h = 0, float(dt)
    while norm * h > 0.5:
        s, h = s + 1, h / 2.0
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -A
    block[:n, n:] = B @ B.T
    block[n:, n:] = A.T
    F = sla.expm(block * h)
    Phi = F[n:, n:].T
    Q = Phi @ F[:n, n:]
    for _ in range(s):
        Q = Q + Phi @ Q @ Phi.T
        Phi = Phi @ Phi
    return Phi, 0.5 * (Q + Q.T)


def noise_factor(Q):
    """S with S S^T = Q, from the symmetric eigendecomposition of Q.

    Unlike a Cholesky factor it exists when Q is singular, as it is whenever
    the noise does not reach every state. Raises SolverError when Q has an
    eigenvalue below -NEGATIVE_TOL * lambda_max.
    """
    w, V = np.linalg.eigh(Q)
    floor = -NEGATIVE_TOL * max(w[-1], 0.0) if w.size else 0.0
    if not np.all(w >= floor):
        raise SolverError(f"step noise covariance is not positive "
                          f"semidefinite: min eigenvalue {w.min():.3e}")
    return V * np.sqrt(np.maximum(w, 0.0))


def terminal_state_covariance(A, B, dt, n_steps, n_paths, seed):
    """Sample covariance of x(n_steps dt) for dx = A x dt + B dW, x(0) = 0.

    Draws the terminal states of `n_paths` independent paths in one exact
    step of length n_steps dt and returns their sample covariance, with the
    n_paths - 1 normalization.
    """
    _, Q = transition(A, B, dt * n_steps)
    S = noise_factor(Q)
    rng = np.random.default_rng(int(seed))
    n_paths = int(n_paths)
    X = S @ rng.standard_normal((S.shape[0], n_paths))
    X -= X.mean(axis=1, keepdims=True)
    cov = X @ X.T / (n_paths - 1.0)
    return 0.5 * (cov + cov.T)
