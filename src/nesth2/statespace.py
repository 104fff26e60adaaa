"""Continuous-time state-space systems and the compositions used in this package.

Everything here is desk-scale dense linear algebra: systems are stored as plain
(A, B, C, D) numpy arrays and composed by block-matrix formulas, with no
attention to sparsity. Scale is handled in two places: `balance_realization`
equalizes a realization's rows and columns by an exact powers-of-two
similarity, found in damped sweeps that move every state at once, and
transfer functions are compared at points scaled to the realizations.

Both Krylov sequences over (A, B) cost O(N^3) for N states and a narrow B.
`reachable_basis`, under every `minreal`, is the orthogonal staircase of
Varga 1981 (Electronics Letters 17(2)) and Van Dooren 1981 (IEEE TAC
26(1)): each step orthogonalizes and factors only A times the newest block.

One comparator, `tf_mismatch`, decides whether two realizations have the
same transfer function, and `is_block_lower_tf` reads a (1,2) block the same
way. Both evaluate G(s_j) with `StateSpace.eval_at` at four fixed points
s_j = alpha z_j, |z_j| = TF_RADIUS > 1 and alpha = max(1, ||A||_2), so each
costs a few O(N^3) solves for N states. That is a test at generic points
against a tolerance, not a Cayley-Hamilton proof, and it reads a difference
that first shows at Markov index k up to TF_RADIUS^(1 - k) times as large
as the Markov test does (see `tf_mismatch`). `point_values`,
`values_mismatch` and `values_block_lower` are the same comparison split
at the values, for a caller that reads several systems at one alpha of its
own (`validation.parameter_frame`).
"""

import numpy as np
import scipy.linalg as sla

#: relative rank cut of the staircase blocks of `reachable_basis`
REDUCE_TOL = 1e-9
#: cap on the simultaneous sweeps of `balance_realization`
BALANCE_SWEEPS = 64
#: |z_j| of the comparison points; any value above 1 keeps alpha z_j out of
#: the spectrum of every A with ||A||_2 <= alpha
TF_RADIUS = 1.25
#: the comparison points z_j on |z| = TF_RADIUS of `tf_mismatch` and
#: `is_block_lower_tf`, at fixed generic angles
TF_POINTS = TF_RADIUS * np.exp(1j * np.array([0.35, 1.2, 2.3, -0.9]))
#: below this fraction of a system's bound on |G(s_j)|, its size counts as
#: a zero transfer function carrying rounding noise
TF_FLOOR = 1e-6


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
        """Transfer function value C (sI - A)^{-1} B + D at a complex point
        s, or the (len(s), ny, nu) stack of values at each point of a 1-D
        array s, solved as one batch."""
        s = np.asarray(s)
        if self.nx == 0:
            return np.broadcast_to(self.D, s.shape + self.D.shape) \
                .astype(complex)
        M = s[..., None, None] * np.eye(self.nx) - self.A
        # B gets M's number of axes, so that solve reads it as a matrix (or
        # a stack of them) under every numpy version
        B = np.broadcast_to(self.B.astype(complex),
                            M.shape[:-1] + self.B.shape[1:])
        return self.C @ np.linalg.solve(M, B) + self.D

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


def point_size(g, values, alpha):
    """Size of g at the comparison points s_j = alpha z_j, given its values
    there: the largest entry modulus of `values`, floored at TF_FLOOR times
    the bound 4 ||C|| ||B|| / alpha + ||D|| on |G(s_j)|, so that a zero
    transfer function and its rounding-level twin compare as equal. The
    bound holds for any alpha >= ||A||_2 (see `_point_values`)."""
    bound = (np.linalg.norm(g.C) * np.linalg.norm(g.B)
             / (alpha * (TF_RADIUS - 1.0)) + np.linalg.norm(g.D))
    return float(np.max([np.abs(values).max(initial=0.0), TF_FLOOR * bound]))


def point_values(g, alpha):
    """(values, size) of g at the comparison points s_j = alpha z_j: the
    (points, ny, nu) stack of G(s_j), one batched solve, and `point_size`.
    alpha must be at least max(1, ||g.A||_2)."""
    values = g.eval_at(alpha * TF_POINTS)
    return values, point_size(g, values, alpha)


def _point_values(systems):
    """Each system's values at the comparison points, and its size there.

    The points are s_j = alpha z_j for the z_j of TF_POINTS, with one
    alpha = max(1, ||A||_2) over all of `systems`. Since |z_j| = TF_RADIUS
    > 1, each s_j I - A is invertible, for A stable or not, with
    ||(s_j I - A)^{-1}||_2 <= 1 / (alpha (TF_RADIUS - 1)) = 4 / alpha, so
    |G(s_j)| <= 4 ||C|| ||B|| / alpha + ||D||, the bound `point_size`
    floors at. A non-finite A takes no part in alpha; its values carry the
    NaN. Returns a list of ((points, ny, nu) complex stack, size).
    """
    # ||A||_2 is the root of the largest eigenvalue of A^T A, found in
    # about half the time of the SVD at n = 8 to 24
    alpha = max([1.0] + [np.sqrt(np.linalg.eigvalsh(g.A.T @ g.A)[-1])
                         for g in systems if g.nx and np.isfinite(g.A).all()])
    return [point_values(g, alpha) for g in systems]


def values_mismatch(v1, size1, v2, size2):
    """Largest entry modulus of v1 - v2, two value stacks at the same
    points, relative to the larger of the two sizes. Two exactly zero
    sides read 0.0; a NaN anywhere reads NaN."""
    scale = float(np.max([size1, size2]))
    if scale == 0.0:
        return 0.0
    return float(np.abs(v1 - v2).max(initial=0.0)) / scale


def tf_mismatch(g1, g2):
    """Relative difference of the transfer functions of g1 and g2.

    Both are evaluated at the same fixed points (`_point_values`); the
    result is the largest entry modulus of G1(s_j) - G2(s_j) over the
    points, relative to the larger size of the two (`values_mismatch`).

    This tests generic points against a tolerance, not every frequency,
    and is no Cayley-Hamilton proof. A difference whose Markov parameters
    vanish through index k - 1 falls off like |s|^-k, so at |s_j| =
    alpha TF_RADIUS it reads up to TF_RADIUS^(1 - k) = 0.8^(k - 1) times
    what the Markov test reads: a gate of 1e-8 can pass a difference of full
    size that first shows past index 83.
    """
    (v1, size1), (v2, size2) = _point_values([g1, g2])
    return values_mismatch(v1, size1, v2, size2)


def values_block_lower(values, size, out_split, in_split, tol):
    """True iff the (1,2) block of a value stack is at most tol times
    `size` in every entry; a NaN reads as not block lower."""
    return bool(np.abs(values[:, :out_split[0], in_split[0]:])
                .max(initial=0.0) <= tol * size)


def is_block_lower_tf(sys, out_split, in_split, tol=1e-8):
    """True iff the (1,2) transfer block of `sys` vanishes relative to `sys`.

    Read at the fixed points of `tf_mismatch`: the largest entry modulus of
    the (1,2) block of G(s_j) over the points must be at most tol times the
    size of G there. Like `tf_mismatch`, this tests generic points, not a
    structural identity: a (1,2) block that first shows at Markov index k
    reads up to TF_RADIUS^(1 - k) times as large as on the Markov test, so
    the default tol can pass a full-size coupling that first shows past
    index 83, such as 1/s^84 on an integrator chain. A NaN anywhere reads as not block lower.
    """
    ((values, size),) = _point_values([sys])
    return values_block_lower(values, size, out_split, in_split, tol)


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
