"""Continuous-time state-space systems and the compositions used in this package.

Everything here is desk-scale dense linear algebra: systems are stored as plain
(A, B, C, D) numpy arrays and composed by block-matrix formulas, with no
attention to sparsity. Scale is handled in two places: `balance_realization`
equalizes a realization's rows and columns by an exact powers-of-two
similarity, found in damped sweeps that move every state at once, and the
Markov-parameter comparisons run on the frequency-scaled G(alpha s) of
`scaled_markov_parameters`, relative to its peak.

Both Krylov sequences over (A, B) cost O(N^3) for N states and a narrow B.
`reachable_basis`, under every `minreal`, is the orthogonal staircase of
Varga 1981 (Electronics Letters 17(2)) and Van Dooren 1981 (IEEE TAC
26(1)): each step orthogonalizes and factors only A times the newest block.
`StateSpace.markov_parameters` fills its stack MARKOV_BLOCK powers at a
time. The Markov comparisons read only as many parameters as
Cayley-Hamilton needs: D and the first N of a system with N states.
"""

import numpy as np
import scipy.linalg as sla

#: relative rank cut of the staircase blocks of `reachable_basis`
REDUCE_TOL = 1e-9
#: powers of A per block product in `StateSpace.markov_parameters`
MARKOV_BLOCK = 8
#: cap on the simultaneous sweeps of `balance_realization`
BALANCE_SWEEPS = 64
#: below this fraction of the realizations' parameter bound, a Markov peak
#: counts as a zero transfer function carrying rounding noise
MARKOV_FLOOR = 1e-6


def _mat(M, name="matrix"):
    """Coerce scalars / nested lists to a 2-D float array."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    elif M.ndim == 1:
        M = M.reshape(1, -1)
    elif M.ndim != 2:
        raise ValueError(f"{name} must be at most 2-D, got shape {M.shape}")
    return M


class StateSpace:
    """An LTI system  xdot = A x + B u,  y = C x + D u.

    Zero-state systems (pure gains) are allowed: A is then 0x0 and the
    transfer function is the constant D.
    """

    def __init__(self, A, B, C, D=None):
        A = _mat(A, "A")
        B = _mat(B, "B")
        C = _mat(C, "C")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.size == 0 and B.shape[0] != n:
            B = np.zeros((n, 0))
        if C.size == 0 and C.shape[1] != n:
            C = np.zeros((0, n))
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        if D is None:
            D = np.zeros((C.shape[0], B.shape[1]))
        else:
            D = _mat(D, "D")
            if D.shape == (1, 1) and (C.shape[0], B.shape[1]) != (1, 1):
                D = D[0, 0] * np.eye(C.shape[0], B.shape[1])
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(
                f"D has shape {D.shape}, expected {(C.shape[0], B.shape[1])}")
        self.A = A
        self.B = B
        self.C = C
        self.D = D

    @property
    def nx(self):
        return self.A.shape[0]

    @property
    def nu(self):
        return self.B.shape[1]

    @property
    def ny(self):
        return self.C.shape[0]

    def __repr__(self):
        return f"StateSpace(nx={self.nx}, nu={self.nu}, ny={self.ny})"

    @classmethod
    def gain(cls, D):
        """Static system y = D u."""
        D = _mat(D, "D")
        return cls(np.zeros((0, 0)), np.zeros((0, D.shape[1])),
                   np.zeros((D.shape[0], 0)), D)

    def eval_at(self, s):
        """Transfer function value C (sI - A)^{-1} B + D at a complex point."""
        if self.nx == 0:
            return self.D.astype(complex)
        M = s * np.eye(self.nx) - self.A
        return self.C @ np.linalg.solve(M, self.B.astype(complex)) + self.D

    def markov_parameters(self, count):
        """First `count` Markov parameters [D, CB, CAB, CA^2 B, ...], stacked
        as one (count, ny, nu) array.

        The strictly proper ones are filled MARKOV_BLOCK = 8 at a time: the
        first block [B, AB, ..., A^7 B] is grown one product with A at a
        time, every later block is A^8 times the one before, and each block
        enters the stack through one product with C. A^8 is formed by
        repeated squaring, and only if a second block is needed.
        """
        out = np.empty((count, self.ny, self.nu))
        out[:1] = self.D
        steps = count - 1
        if steps <= 0:
            return out
        block = [self.B]
        for _ in range(min(steps, MARKOV_BLOCK) - 1):
            block.append(self.A @ block[-1])
        block = np.hstack(block)
        if steps > MARKOV_BLOCK:
            power = np.linalg.matrix_power(self.A, MARKOV_BLOCK)
        for k in range(0, steps, MARKOV_BLOCK):
            if k:
                block = power @ block
            width = min(MARKOV_BLOCK, steps - k)
            params = (self.C @ block[:, :width * self.nu]).reshape(
                self.ny, width, self.nu)
            out[1 + k:1 + k + width] = params.transpose(1, 0, 2)
        return out

    def transpose(self):
        """Realization of G(s)^T."""
        return StateSpace(self.A.T, self.C.T, self.B.T, self.D.T)

    def conjugate_transpose(self):
        """Realization of the adjoint G~(s) = G(-s)^T, i.e. (-A^T, C^T, -B^T, D^T)."""
        return StateSpace(-self.A.T, self.C.T, -self.B.T, self.D.T)

    def subsystem(self, rows=None, cols=None):
        """Pick output rows / input columns (slices or index arrays)."""
        rows = slice(None) if rows is None else rows
        cols = slice(None) if cols is None else cols
        return StateSpace(self.A, self.B[:, cols], self.C[rows, :],
                          self.D[rows, :][:, cols])

    def __neg__(self):
        return StateSpace(self.A, self.B, -self.C, -self.D)

    def __add__(self, other):
        if not isinstance(other, StateSpace):
            return NotImplemented
        if (self.nu, self.ny) != (other.nu, other.ny):
            raise ValueError("parallel connection needs matching dimensions")
        A = sla.block_diag(self.A, other.A)
        B = np.vstack([self.B, other.B])
        C = np.hstack([self.C, other.C])
        return StateSpace(A, B, C, self.D + other.D)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Series interconnection: (G1 * G2)(s) = G1(s) G2(s), G2 acts first."""
        if not isinstance(other, StateSpace):
            return NotImplemented
        if self.nu != other.ny:
            raise ValueError("series connection needs G1.nu == G2.ny")
        A = np.block([
            [self.A, self.B @ other.C],
            [np.zeros((other.nx, self.nx)), other.A],
        ])
        B = np.vstack([self.B @ other.D, other.B])
        C = np.hstack([self.C, self.D @ other.C])
        return StateSpace(A, B, C, self.D @ other.D)


def vcat(*systems):
    """Stacked connection [G1; G2; ...] sharing the input."""
    nu = systems[0].nu
    if any(g.nu != nu for g in systems):
        raise ValueError("vcat needs a common input dimension")
    A = sla.block_diag(*[g.A for g in systems])
    B = np.vstack([g.B for g in systems])
    C = sla.block_diag(*[g.C for g in systems])
    D = np.vstack([g.D for g in systems])
    return StateSpace(A, B, C, D)


def lft_lower(P, K, nz, nw):
    """Lower linear fractional transformation F_l(P, K).

    P's outputs are split as [z (nz rows); y] and inputs as [w (nw cols); u];
    the loop u = K y is closed and the w -> z system returned.

    Raises ValueError if the loop is ill-posed (I - D22 DK singular).
    """
    ny = P.ny - nz
    nu = P.nu - nw
    if ny < 0 or nu < 0:
        raise ValueError("split sizes exceed the system dimensions")
    if (K.ny, K.nu) != (nu, ny):
        raise ValueError(
            f"controller is {K.ny}x{K.nu}, interconnection needs {nu}x{ny}")
    B1, B2 = P.B[:, :nw], P.B[:, nw:]
    C1, C2 = P.C[:nz, :], P.C[nz:, :]
    D11, D12 = P.D[:nz, :nw], P.D[:nz, nw:]
    D21, D22 = P.D[nz:, :nw], P.D[nz:, nw:]
    L = np.eye(ny) - D22 @ K.D
    if np.linalg.cond(L) > 1e12:
        raise ValueError("ill-posed interconnection: I - D22 DK is singular")
    Li = np.linalg.inv(L)
    # (I - DK D22)^{-1}, via the push-through identity
    Lti_CK = (np.eye(nu) + K.D @ Li @ D22) @ K.C
    DKLi = K.D @ Li
    A = np.block([
        [P.A + B2 @ DKLi @ C2, B2 @ Lti_CK],
        [K.B @ Li @ C2, K.A + K.B @ Li @ D22 @ K.C],
    ])
    B = np.vstack([B1 + B2 @ DKLi @ D21, K.B @ Li @ D21])
    C = np.hstack([C1 + D12 @ DKLi @ C2, D12 @ Lti_CK])
    D = D11 + D12 @ DKLi @ D21
    return StateSpace(A, B, C, D)


def lft_upper(M, K, nq, np_):
    """Upper linear fractional transformation F_u(M, K).

    M's outputs are split as [q (nq rows); z] and inputs as [p (np_ cols); w];
    the loop p = K q is closed around the top port and the w -> z map returned.
    """
    # Reorder ports so the closed port sits at the bottom, then reuse lft_lower.
    nz = M.ny - nq
    nw = M.nu - np_
    rows = list(range(nq, M.ny)) + list(range(nq))
    cols = list(range(np_, M.nu)) + list(range(np_))
    flipped = StateSpace(M.A, M.B[:, cols], M.C[rows, :],
                         M.D[np.ix_(rows, cols)])
    return lft_lower(flipped, K, nz, nw)


def scaled_markov_parameters(systems, count):
    """First `count` Markov parameters of each G(alpha s), realized as
    (A/alpha, B/alpha, C, D), with one alpha = max(1, ||A||_2) over all of
    `systems`, as one (count, ny, nu) stack per system; returns (alpha,
    stacks). Powers of A/alpha stay bounded where C A^k B overflows on
    large realizations, and zero blocks stay zero."""
    alpha = max([1.0] + [np.linalg.norm(g.A, 2) for g in systems])
    return alpha, [StateSpace(g.A / alpha, g.B / alpha, g.C, g.D)
                   .markov_parameters(count) for g in systems]


def _peak(stack):
    """Largest absolute entry of an array; NaN if any entry is NaN. Two
    reductions and no |stack| temporary; abs() turns a -0.0 into 0.0."""
    if stack.size == 0:
        return 0.0
    return abs(float(np.maximum(stack.max(), -stack.min())))


def _markov_scale(sys, alpha, params):
    """Size of the scaled Markov parameters `params` of `sys` at `alpha`.

    The scaled parameters shrink like 1/alpha, so the size is their peak,
    not 1 + peak. It is floored at MARKOV_FLOOR times the bound
    ||C|| ||B|| / alpha + ||D|| on any of them, so that a zero transfer
    function and its rounding-level twin compare as equal. NaN if any
    parameter is NaN.
    """
    floor = MARKOV_FLOOR * (np.linalg.norm(sys.C) * np.linalg.norm(sys.B)
                            / alpha + np.linalg.norm(sys.D))
    return float(np.max([_peak(params), floor]))


def is_block_lower_tf(sys, out_split, in_split, tol=1e-8):
    """True iff the (1,2) transfer block of `sys` vanishes relative to `sys`.

    Checked structurally on the frequency-scaled G(alpha s) of
    `scaled_markov_parameters`: the largest entry of the (1,2) blocks of D
    and of the first nx Markov parameters must be at most tol times the
    `_markov_scale` of all of them, the scale `validation._markov_mismatch`
    uses. The (1,2) block is realized on nx states, so by Cayley-Hamilton
    it vanishes iff those nx + 1 parameters do. A NaN anywhere reads as not
    block lower.
    """
    rows, _ = out_split
    cols, _ = in_split
    alpha, (params,) = scaled_markov_parameters([sys], sys.nx + 1)
    return bool(_peak(params[:, :rows, cols:])
                <= tol * _markov_scale(sys, alpha, params))


def _orth_cols(M, floor=1.0):
    """Orthonormal basis of the column space of M: the left singular vectors
    whose singular values exceed REDUCE_TOL * max(floor, ||M||_2)."""
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0))
    try:
        U, s, _ = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd can fail to converge on finite, well-scaled input, depending
        # on the BLAS build and its thread count; gesvd is slower but sturdier
        U, s, _ = sla.svd(M, full_matrices=False, lapack_driver="gesvd")
    if s.size == 0:
        return np.zeros((M.shape[0], 0))
    rank = int(np.sum(s > REDUCE_TOL * max(floor, s[0])))
    return U[:, :rank]


def reachable_basis(A, B):
    """Orthonormal basis of the reachable subspace of (A, B).

    The orthogonal staircase of Varga 1981 (Electronics Letters 17(2)) and
    Van Dooren 1981 (IEEE TAC 26(1)): the basis V grows one block at a time,
    and only the newest block is worked on. The first block spans B, cut at
    REDUCE_TOL * max(1, ||B||_2). Each later one takes W = A times the
    newest block, orthogonalizes it against V twice (classical Gram-Schmidt
    with one re-orthogonalization), and keeps the left singular vectors of
    W alone whose singular values exceed REDUCE_TOL * max(1, ||A new||_F),
    ||A new||_F measured before the projection; that bound is read before
    the SVD, so no second factorization is needed. The growth stops when a
    block is empty or V spans the state space. Every SVD after the first
    has at most nu columns, so for a narrow B the whole basis costs O(N^3)
    for N states. The result is deterministic for fixed inputs.
    """
    A = _mat(A, "A")
    B = _mat(B, "B")
    new = V = _orth_cols(B)
    while new.shape[1] and V.shape[1] < A.shape[0]:
        W = A @ new
        floor = max(1.0, np.linalg.norm(W))
        for _ in range(2):
            W -= V @ (V.T @ W)
        new = _orth_cols(W, floor)
        V = np.hstack([V, new])
    return V


def reduce_unreachable(sys):
    """Project away state directions unreachable from any input."""
    V = reachable_basis(sys.A, sys.B)
    if V.shape[1] == sys.nx:
        return sys
    return StateSpace(V.T @ sys.A @ V, V.T @ sys.B, sys.C @ V, sys.D)


def reduce_unobservable(sys):
    V = reachable_basis(sys.A.T, sys.C.T)
    if V.shape[1] == sys.nx:
        return sys
    return StateSpace(V.T @ sys.A @ V, V.T @ sys.B, sys.C @ V, sys.D)


def minreal(sys):
    """Structural minimal realization: drop unreachable then unobservable states.

    Two orthogonal staircases of `reachable_basis`, on (A, B) and then on
    (A^T, C^T), each truncated at its rank cut REDUCE_TOL; O(N^3) for N
    states and narrow B and C. Intended to strip the exactly-cancelling
    states produced by block compositions, not to do balanced model
    reduction.
    """
    return reduce_unobservable(reduce_unreachable(sys))


def balance_realization(sys):
    """Rescale the states of sys by powers of two to equalize row/column weight.

    Diagonal similarity in the style of the classic joint (A, B, C) balancing
    (Parlett & Reinsch 1969, Numer. Math. 13): each state is scaled so that
    the 1-norm of its row through [A B] approaches the 1-norm of its column
    through [A; C]. Powers of two keep the transform exact in floating
    point, and the transfer function is unchanged. Products of realizations
    can leave B and C orders of magnitude apart, which ruins the accuracy of
    Gramian-based norms; this repairs the scaling without touching the
    dynamics.

    The sweeps run on an integer exponent vector e, the similarity being
    diag(2^e), and move every state at once: state i's row weight is
    r_i = 2^-e_i (|A_offdiag[i, :]| . 2^e + |B[i, :]|_1) and its column
    weight c_i = 2^e_i (|A_offdiag[:, i]| . 2^-e + |C[:, i]|_1), one
    matrix-vector product for all r and one for all c. Each state with
    r_i, c_i > 0 moves by rint(log2(r_i / c_i) / 4), half the step that
    would equalize it alone: undamped simultaneous moves can overshoot
    through the coupling and cycle. A state whose ratio is not finite, as
    a NaN or infinite entry makes it, stays. The sweeps stop when no state
    moves, which leaves every such state's r_i / c_i within a factor of 4,
    or after BALANCE_SWEEPS. The realization is scaled once, with
    `np.ldexp`, after the last sweep.
    """
    absA = np.abs(sys.A)
    np.fill_diagonal(absA, 0.0)
    row_B = np.abs(sys.B).sum(axis=1)
    col_C = np.abs(sys.C).sum(axis=0)
    e = np.zeros(sys.nx, dtype=int)
    for _ in range(BALANCE_SWEEPS):
        up = np.ldexp(1.0, e)
        down = np.ldexp(1.0, -e)
        r = (absA @ up + row_B) * down
        c = (down @ absA + col_C) * up
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            move = np.rint(np.log2(r / c) / 4.0)
        move[~((r > 0.0) & (c > 0.0) & np.isfinite(move))] = 0.0
        if not move.any():
            break
        e += move.astype(int)
    return StateSpace(np.ldexp(sys.A, e[None, :] - e[:, None]),
                      np.ldexp(sys.B, -e[:, None]),
                      np.ldexp(sys.C, e[None, :]), sys.D)
