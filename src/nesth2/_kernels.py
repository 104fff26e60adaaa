"""Path-simulation kernel for the Monte Carlo covariance checks.

The only hot loop in the package: fixed-step stochastic Euler integration of
a linear system driven by white noise, across many independent sample paths.
Compiled with numba when it is importable; set NESTH2_PURE_NUMPY=1 to force
the vectorized numpy fallback. The two backends draw different (but each
deterministic) random streams: the compiled kernel seeds one generator per
path so the result is independent of the thread schedule, while the fallback
advances a single generator across the whole path block.
"""

import os

import numpy as np

USE_NUMBA = os.environ.get("NESTH2_PURE_NUMPY", "") != "1"
if USE_NUMBA:
    try:
        from numba import njit, prange
    except ImportError:
        USE_NUMBA = False

if USE_NUMBA:

    @njit(parallel=True, cache=True)
    def _terminal_states(M, S, n_steps, n_paths, seed):
        n = M.shape[0]
        nw = S.shape[1]
        out = np.empty((n_paths, n))
        for p in prange(n_paths):
            np.random.seed(seed + p)
            x = np.zeros(n)
            y = np.empty(n)
            for _ in range(n_steps):
                eta = np.random.standard_normal(nw)
                for i in range(n):
                    acc = 0.0
                    for j in range(n):
                        acc += M[i, j] * x[j]
                    for j in range(nw):
                        acc += S[i, j] * eta[j]
                    y[i] = acc
                x, y = y, x
            out[p, :] = x
        return out

else:

    def _terminal_states(M, S, n_steps, n_paths, seed):
        rng = np.random.default_rng(seed)
        X = np.zeros((M.shape[0], n_paths))
        MX = np.empty_like(X)
        SE = np.empty_like(X)
        eta = np.empty((S.shape[1], n_paths))
        # X = M X + S eta into preallocated buffers. A fresh (n, n_paths)
        # array per step is large enough that malloc may map and unmap it
        # every time, depending on what the process freed before; the page
        # faults then cost about a third of the loop.
        for _ in range(n_steps):
            np.matmul(M, X, out=MX)
            rng.standard_normal(out=eta)
            np.matmul(S, eta, out=SE)
            np.add(MX, SE, out=X)
        return X.T.copy()


def _compensated_mean(rows):
    """Mean over axis 0 with Kahan-compensated accumulation."""
    total = np.zeros(rows.shape[1:])
    comp = np.zeros_like(total)
    for r in rows:
        y = r - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / rows.shape[0]


def terminal_state_covariance(A, B, dt, n_steps, n_paths, seed):
    """Sample covariance of the state at the end of an Euler-integrated SDE.

    Integrates dx = A x dt + B dW from x(0) = 0 over `n_steps` steps of size
    `dt` for `n_paths` independent paths and returns the sample covariance
    of the terminal states. Paths are independent; the merge is a
    compensated sum over the fixed path order, so the result does not depend
    on how the paths were scheduled.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    B = np.ascontiguousarray(B, dtype=np.float64)
    M = np.eye(A.shape[0]) + dt * A
    S = np.sqrt(dt) * B
    states = _terminal_states(M, S, int(n_steps), int(n_paths), int(seed))
    mean = _compensated_mean(states)
    centered = states - mean
    outer = centered[:, :, None] * centered[:, None, :]
    return _compensated_mean(outer) * (n_paths / (n_paths - 1.0))
