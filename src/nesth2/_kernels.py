"""Sampling kernel for the Monte Carlo covariance check.

Draws the sample covariance of the terminal states of many independent
paths of the linear SDE dx = A x dt + B dW, x(0) = 0, at time t. Each
terminal state is exactly Gaussian,

    x(t) = S eta,   S S^T = Q(t) = int_0^t e^{As} B B^T e^{A^T s} ds,

with eta standard normal, because exact transitions compose. Q(t) comes
from the block exponential of Van Loan (1978, IEEE TAC 23(3)) on a short
sub-step, doubled up to t.

The centred sample covariance C of N such draws has an exact Wishart law,
nu C ~ W_p(Q, nu) with nu = N - 1, and it is drawn directly rather than
through its N paths: by Bartlett's decomposition (Bartlett 1933; Odell &
Feiveson 1966, JASA 61:199-203), L L^T ~ W_p(I, nu) for a lower-triangular L
with L_ii^2 ~ chi^2(nu - i) and standard normals below the diagonal, and
S W_p(I, nu) S^T ~ W_p(S S^T, nu) also when Q is singular. The draw takes
p(p+1)/2 variates, O(p^3) time and O(p^2) memory whatever N is, and needs
nu >= p. One numpy generator draws every variate, so a seed fixes the
result.
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

    One draw from the exact law of the sample covariance, with the
    n_paths - 1 normalization, of `n_paths` independent terminal states:
    S L L^T S^T / nu with nu = n_paths - 1, S = noise_factor(Q(n_steps dt))
    and L the Bartlett factor of W_p(I, nu). Raises ValueError when
    nu < p, the state count, where that law has no such factor.
    """
    _, Q = transition(A, B, dt * n_steps)
    S = noise_factor(Q)
    p = S.shape[0]
    nu = int(n_paths) - 1
    if nu < p:
        raise ValueError(f"{n_paths} paths cannot sample the covariance of "
                         f"{p} states: need at least {p + 1}")
    rng = np.random.default_rng(int(seed))
    L = np.zeros((p, p))
    L[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    L[np.diag_indices(p)] = np.sqrt(rng.chisquare(nu - np.arange(p)))
    SL = S @ L
    cov = SL @ SL.T / nu
    return 0.5 * (cov + cov.T)
