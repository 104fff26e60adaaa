"""Optimal synthesis for the nested two-player problem.

The optimum is assembled in three stages: four standard Riccati solutions
(two centralized, two local), a pair of simultaneously solved linear matrix
equations whose unknowns couple the local solutions to the centralized ones,
and two structured gain matrices built from all of the above. Each of the
pair is a Sylvester equation in its own unknown plus a coupling term of rank
at most r = min(n2 k1, m2 n1, n1 n2); `solve_phi_psi` eliminates one
unknown and solves for the other by GMRES, which ends within r + 1 steps,
with Bartels-Stewart solves from Schur forms taken once (Simoncini 2016,
SIAM Review 58(3), sections 4-5). The controller
itself carries 2n states: player 1's estimate of the plant state given only
its own measurement history, and the full-measurement estimate that player 2
can maintain, with the input blending the two.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (RESIDUAL_TOL, SolverError, _NOT_HURWITZ, _h2_from_schur,
                     _lyapunov_from_schur, _real_schur, _require_hurwitz,
                     screen_are, solve_are, triangular_sylvester)
from .plant import (AssumptionError, Partition, TwoPlayerPlant,
                    check_assumptions, cost_cov_matrices)
from .statespace import StateSpace, lft_lower

CENTRALIZED_TOL = 1e-6
EPS = np.finfo(float).eps
#: a pivot of the coupling solve's Hessenberg factor at or below this
#: multiple of 1 + ||I - K|| marks I - K as numerically singular
SINGULAR_TOL = 64 * EPS
_SINGULAR_SYLVESTER = "A_ctrl2 and -A_filt1 share an eigenvalue"
#: a block that the estimation-error structure makes zero, or equal to one
#: of the bundle's Hurwitz matrices, may differ from it by at most this
#: multiple of the norm of the matrix it is read from; correct designs read
#: at most 1.4e-16 (400-plant family, stress set, n = 32-96)
SEPARATION_TOL = 1e-12


@dataclass
class AreBundle:
    """Stabilizing solutions of the four Riccati equations behind the optimum.

    Two are centralized: (X_cen, K_cen) for full-information state feedback
    and (Y_cen, L_cen) for full-measurement filtering. Two are local:
    (X_loc2, K_loc2) solves player 2's control problem restricted to
    subsystem 2, and (Y_loc1, L_loc1) solves player 1's filtering problem
    restricted to subsystem 1. The four closed-loop matrices A_ctrl, A_filt,
    A_ctrl2, A_filt1 are Hurwitz by construction; `residuals` carries the
    verified equation residuals in the same order as the solutions.
    """

    X_cen: np.ndarray
    K_cen: np.ndarray
    Y_cen: np.ndarray
    L_cen: np.ndarray
    X_loc2: np.ndarray
    K_loc2: np.ndarray
    Y_loc1: np.ndarray
    L_loc1: np.ndarray
    A_ctrl: np.ndarray
    A_filt: np.ndarray
    A_ctrl2: np.ndarray
    A_filt1: np.ndarray
    residuals: tuple


@dataclass
class CouplingSolution:
    """Solution of the pair of linear matrix equations tying the four AREs.

    Both unknowns are n2 x n1. X_cross feeds the control-side structured
    gain (it measures how player 2's local control solution must react to
    subsystem 1's state); Y_cross plays the dual role on the filter side.
    `residuals` holds the verified residuals of the two matrix equations,
    `steps` the GMRES steps the solve took and `rank_bound` the bound r on
    the rank of the coupling; `steps` never exceeds r + 1.
    """

    X_cross: np.ndarray
    Y_cross: np.ndarray
    residuals: tuple
    steps: int
    rank_bound: int


@dataclass
class SynthesisResult:
    """Everything the optimal design produces.

    K_private is the feedback applied to the private part of the state
    estimate (its first block row is zero), L_common the injection applied
    to the shared measurement y1 (its second block column is zero). A_gap
    drives the gap between the two internal estimates; it is block lower,
    and Hurwitz through its diagonal blocks A_filt1 and A_ctrl2.
    `controller` is the realization in the coordinates (zeta, xi) =
    (player-1 estimate, full-measurement estimate); `controller_alt` is the
    second displayed realization with the same transfer function.
    `closed_loop` is the w -> z loop of the generalized plant under
    `controller`, with 3n states in the order (plant, zeta, xi). It is
    Hurwitz because in the coordinates (zeta, xi - zeta, x - xi) of
    `error_coordinates` it is block upper triangular with diagonal blocks
    A_ctrl, A_gap and A_filt, which `optimal_controller` certifies
    blockwise; the Gramian and orthogonality checks of `validation` read
    the same coordinates. `centralized_norm` is the closed-loop H2 norm of
    the information-unconstrained design, from the bundle's centralized
    solutions; it equals `centralized_h2(plant)[1]`.
    `loop_factors` is the loop in those coordinates with a real Schur form
    assembled from the three diagonal blocks (`LoopFactors`). It is built
    on first use, never by `optimal_controller`, and then kept; the checks
    of `validation` take every factorization of the loop, of its trailing
    blocks and of A_gap from it, and read the loop's Gramian, solved once,
    from it too. Only the Gramian's reference block Z factors A_ctrl again.
    The nominal gains of the controller parameterization are not part of
    the design: `stabilization.youla_data(plant, bundle)` builds them.
    """

    bundle: AreBundle
    coupling: CouplingSolution
    K_private: np.ndarray
    L_common: np.ndarray
    A_gap: np.ndarray
    controller: StateSpace
    controller_alt: StateSpace
    closed_loop: StateSpace
    centralized_norm: float

    @functools.cached_property
    def loop_factors(self):
        n = self.A_gap.shape[0]
        A, B = error_coordinates(self.closed_loop, n)
        C = self.closed_loop.C.reshape(-1, 3, n)
        C = np.hstack([C.sum(axis=1), C[:, 0] + C[:, 2], C[:, 0]])
        # three n x n factorizations instead of one of the 3n-state loop
        blocks = tuple(_real_schur(M) for M in (self.bundle.A_ctrl,
                                                self.A_gap, self.bundle.A_filt))
        T = np.zeros_like(A)
        U = np.zeros_like(A)
        rows = [slice(i * n, (i + 1) * n) for i in range(3)]
        for i, (T_i, U_i) in enumerate(blocks):
            T[rows[i], rows[i]] = T_i
            U[rows[i], rows[i]] = U_i
            for j in range(i + 1, 3):
                T[rows[i], rows[j]] = U_i.T @ A[rows[i], rows[j]] @ blocks[j][1]
        return LoopFactors(loop=StateSpace(A, B, C, self.closed_loop.D),
                           blocks=blocks, schur=(T, U))


def solve_four_ares(plant):
    """Solve the two centralized and the two local Riccati equations.

    Parameters
    ----------
    plant : TwoPlayerPlant
        Must pass `check_assumptions`. A1-A6 imply that all four equations
        have stabilizing solutions, so they are solved without a screen;
        should one still fail, the solver error names the equation.

    Returns
    -------
    AreBundle
        All four stabilizing solutions, their gains, the four Hurwitz
        closed-loop matrices and the verified residuals.

    Raises
    ------
    SolverError
        If any of the four equations has no stabilizing solution or fails
        its residual check; the message lists which ones failed.
    """
    n1, m1, k1 = plant.n1, plant.m1, plant.k1
    jobs = (
        ("full-information control",
         (plant.A, plant.B2, plant.C1, plant.D12)),
        ("full-measurement filter",
         (plant.A.T, plant.C2.T, plant.B1.T, plant.D21.T)),
        ("player-2 local control",
         (plant.A22, plant.B2_22, plant.C1[:, n1:], plant.D12[:, m1:])),
        ("player-1 local filter",
         (plant.A11.T, plant.C2_11.T, plant.B1[:n1, :].T, plant.D21[:k1, :].T)),
    )
    sols = []
    failures = []
    for name, args in jobs:
        try:
            sols.append(solve_are(*args))
        except SolverError as exc:
            sols.append(None)
            failures.append(f"{name}: {exc}")
    if failures:
        raise SolverError("ARE solve failed for " + "; ".join(failures))
    ctrl, filt, loc2, loc1 = sols
    K_cen = ctrl.K
    L_cen = filt.K.T
    K_loc2 = loc2.K
    L_loc1 = loc1.K.T
    return AreBundle(
        X_cen=ctrl.X, K_cen=K_cen, Y_cen=filt.X, L_cen=L_cen,
        X_loc2=loc2.X, K_loc2=K_loc2, Y_loc1=loc1.X, L_loc1=L_loc1,
        A_ctrl=plant.A + plant.B2 @ K_cen,
        A_filt=plant.A + L_cen @ plant.C2,
        A_ctrl2=plant.A22 + plant.B2_22 @ K_loc2,
        A_filt1=plant.A11 + L_loc1 @ plant.C2_11,
        residuals=(ctrl.residual, filt.residual, loc2.residual, loc1.residual),
    )


class _CouplingTerms:
    """Shared coefficients of the two coupling equations.

    With dX = X_loc2 - X_cen|22 and dY = Y_loc1 - Y_cen|11, the equations
    read (primes denote transposes, P = X_cross, T = Y_cross)

        A_ctrl2' P + P A_filt1 - dX (T C11' + U12') V11^-1 C11 + G1 = 0
        A_ctrl2 T + T A_filt1' - B22 R22^-1 (B22' P + S12') dY + G2 = 0

    where G1 and G2 collect the data-only terms. The constant parts of the
    mixed terms are folded into G_phi and G_psi below, so each equation
    becomes "Sylvester operator of its own unknown, minus a coupling term,
    plus constant". The P-equation sees T only through the n2 x k1 block
    T C11', the T-equation sees P only through the m2 x n1 block
    R22^-1 B22' P, so the coupling has rank at most
    `rank_bound` = min(n2 k1, m2 n1, n1 n2).
    """

    def __init__(self, plant, bundle):
        cc = cost_cov_matrices(plant)
        n1 = plant.n1
        self.n1 = n1
        self.n2 = plant.n2
        self.rank_bound = min(self.n2 * plant.k1, plant.m2 * n1, n1 * self.n2)
        self.AJ = bundle.A_ctrl2
        self.AM = bundle.A_filt1
        self.dX = bundle.X_loc2 - bundle.X_cen[n1:, n1:]
        self.dY = bundle.Y_loc1 - bundle.Y_cen[:n1, :n1]
        self.C11 = plant.C2_11
        self.B22 = plant.B2_22
        self.V11 = cc.V11
        self.R22 = cc.R22
        # V11^-1 C11 and R22^-1 B22' appear in every mixed term
        self.ViC = np.linalg.solve(self.V11, self.C11)
        self.RiB = np.linalg.solve(self.R22, self.B22.T)
        X21 = bundle.X_cen[n1:, :n1]
        Y21 = bundle.Y_cen[n1:, :n1]
        self.G_phi = (bundle.X_loc2 @ plant.A21 + bundle.K_loc2.T @ cc.S12.T
                      + cc.Q21 - X21 @ bundle.L_loc1 @ self.C11
                      - self.dX @ cc.U12.T @ self.ViC)
        self.G_psi = (plant.A21 @ bundle.Y_loc1 + cc.U12.T @ bundle.L_loc1.T
                      + cc.W21 - self.B22 @ (bundle.K_loc2 @ Y21)
                      - self.B22 @ np.linalg.solve(self.R22, cc.S12.T) @ self.dY)

    def residuals(self, Phi, Psi):
        """Residual norms of both matrix equations with relative scales."""
        mix_phi = self.dX @ (Psi @ self.C11.T) @ self.ViC
        t_phi = (self.AJ.T @ Phi, Phi @ self.AM, -mix_phi, self.G_phi)
        mix_psi = self.B22 @ (self.RiB @ Phi) @ self.dY
        t_psi = (self.AJ @ Psi, Psi @ self.AM.T, -mix_psi, self.G_psi)
        r_phi = np.linalg.norm(sum(t_phi))
        r_psi = np.linalg.norm(sum(t_psi))
        s_phi = 1.0 + sum(np.linalg.norm(t) for t in t_phi)
        s_psi = 1.0 + sum(np.linalg.norm(t) for t in t_psi)
        return r_phi, r_psi, s_phi, s_psi

    def refusal(self, why, Phi, Psi, steps):
        """SolverError naming the coupling equations, with the residuals of
        (Phi, Psi) against their scales, the Krylov steps and the bound r."""
        r_phi, r_psi, s_phi, s_psi = self.residuals(Phi, Psi)
        return SolverError(
            f"coupling equations for (X_cross, Y_cross) {why}: "
            f"residual/scale {r_phi:.2e}/{s_phi:.2e} (X_cross), "
            f"{r_psi:.2e}/{s_psi:.2e} (Y_cross) after {steps} Krylov steps, "
            f"rank bound r = {self.rank_bound}")


def _gmres(apply, c, max_steps):
    """Unrestarted GMRES from zero for apply(x) = c, at most max_steps steps.

    Arnoldi by classical Gram-Schmidt run twice; Givens rotations update the
    residual estimate. Stops when the estimate reaches rounding level
    (EPS ||c||), when Arnoldi breaks down, or after max_steps. Returns
    (x, steps, singular); `singular` is set when a pivot of the rotated
    Hessenberg factor is at rounding level against 1 + ||apply|| as seen on
    the basis, and x is then the iterate of the steps before that pivot.
    """
    beta = np.linalg.norm(c)
    if beta == 0.0:
        return np.zeros_like(c), 0, False
    basis = [c / beta]
    rotations, columns, g = [], [], [beta]
    size = 1.0
    for step in range(max_steps):
        w = apply(basis[step])
        size = max(size, 1.0 + np.linalg.norm(w))
        V = np.array(basis)
        h = V @ w
        w = w - h @ V
        h2 = V @ w
        w = w - h2 @ V
        h = h + h2
        h_next = np.linalg.norm(w)
        for i, (cs, sn) in enumerate(rotations):
            h[i], h[i + 1] = cs * h[i] + sn * h[i + 1], cs * h[i + 1] - sn * h[i]
        rho = math.hypot(h[step], h_next)
        cs, sn = (h[step] / rho, h_next / rho) if rho > 0.0 else (1.0, 0.0)
        rotations.append((cs, sn))
        h[step] = rho
        columns.append(h)
        g.append(-sn * g[step])
        g[step] *= cs
        if not (abs(g[-1]) > EPS * beta and h_next > EPS * size):
            break
        basis.append(w / h_next)
    steps = len(columns)
    pivots = np.abs([col[i] for i, col in enumerate(columns)])
    small = np.flatnonzero(pivots <= SINGULAR_TOL * size)
    kept = int(small[0]) if small.size else steps
    R = np.zeros((kept, kept))
    for i in range(kept):
        R[:i + 1, i] = columns[i]
    y = scipy.linalg.solve_triangular(R, g[:kept], check_finite=False)
    x = y @ np.array(basis[:kept]).reshape(kept, c.size)
    return x, steps, kept < steps


def solve_phi_psi(plant, bundle):
    """Solve the coupled pair of linear matrix equations.

    With the Sylvester operators Lphi(P) = A_ctrl2' P + P A_filt1 and
    Lpsi(T) = A_ctrl2 T + T A_filt1', eliminating
    T = Lpsi^-1(B22 R22^-1 (B22' P) dY) + T0 leaves (I - K) P = c with
    rank K <= r = min(n2 k1, m2 n1, n1 n2) (see `_CouplingTerms`). Real
    Schur forms of A_ctrl2 and A_filt1 are computed once; LAPACK `trsyl`
    applies Lphi^-1 and Lpsi^-1 in their coordinates, and unrestarted GMRES
    solves for P. GMRES on I - K terminates in at most r + 1 steps, which is
    its step cap. T is then recovered, and both matrix equations must pass a
    residual check at RESIDUAL_TOL relative to the size of their terms. The
    dense system of side 2 n1 n2 is never formed.

    Returns
    -------
    CouplingSolution

    Raises
    ------
    SolverError
        If a Sylvester operator or I - K is singular, or a residual check
        fails. The message names the coupling equations and gives the
        residual and scale of both equations, the Krylov steps and r.
    """
    terms = _CouplingTerms(plant, bundle)
    R, U = scipy.linalg.schur(terms.AJ, output="real")
    S, V = scipy.linalg.schur(terms.AM, output="real")
    shape = (terms.n2, terms.n1)
    # the coupling factors in the Schur coordinates P = U P~ V'
    Bt, Rt, Dy = U.T @ terms.B22, terms.RiB @ U, V.T @ terms.dY @ V
    Dx, Ct, Vt = U.T @ terms.dX @ U, V.T @ terms.C11.T, terms.ViC @ V

    def inv_phi(F):
        return triangular_sylvester(R, S, F, "T", "N", _SINGULAR_SYLVESTER)

    def inv_psi(F):
        return triangular_sylvester(R, S, F, "N", "T", _SINGULAR_SYLVESTER)

    def psi_of(P):
        return inv_psi(Bt @ ((Rt @ P) @ Dy))

    def phi_of(T):
        return inv_phi((Dx @ (T @ Ct)) @ Vt)

    def apply(p):
        P = p.reshape(shape)
        return p - phi_of(psi_of(P)).ravel()

    try:
        T0 = inv_psi(-(U.T @ terms.G_psi @ V))
        c = phi_of(T0) - inv_phi(U.T @ terms.G_phi @ V)
    except SolverError as exc:
        zero = np.zeros(shape)
        raise terms.refusal(f"are singular: {exc}", zero, zero, 0) from exc
    p, steps, singular = _gmres(apply, c.ravel(), terms.rank_bound + 1)
    Pt = p.reshape(shape)
    Phi = U @ Pt @ V.T
    Psi = U @ (psi_of(Pt) + T0) @ V.T
    if singular:
        raise terms.refusal("are singular: I - K has a pivot at rounding "
                            "level", Phi, Psi, steps)
    r_phi, r_psi, s_phi, s_psi = terms.residuals(Phi, Psi)
    if not (r_phi <= RESIDUAL_TOL * s_phi and r_psi <= RESIDUAL_TOL * s_psi):
        raise terms.refusal("did not verify", Phi, Psi, steps)
    return CouplingSolution(X_cross=Phi, Y_cross=Psi,
                            residuals=(float(r_phi), float(r_psi)),
                            steps=steps, rank_bound=terms.rank_bound)


def structured_gains(plant, bundle, coupling):
    """Assemble the structured feedback and injection gains.

    Returns (K_private, L_common). K_private is m x n with zero first block
    row and K_loc2 in its (2,2) block; its (2,1) block is the cross gain
    from the coupling solution. L_common is n x k with zero second block
    column and L_loc1 in its (1,1) block.
    """
    cc = cost_cov_matrices(plant)
    n1, m1, k1 = plant.n1, plant.m1, plant.k1
    H = -np.linalg.solve(cc.R22, plant.B2_22.T @ coupling.X_cross + cc.S12.T)
    K_private = np.zeros((plant.m, plant.n))
    K_private[m1:, :n1] = H
    K_private[m1:, n1:] = bundle.K_loc2
    L_common = np.zeros((plant.n, plant.k))
    L_common[:n1, :k1] = bundle.L_loc1
    num = coupling.Y_cross @ plant.C2_11.T + cc.U12.T
    L_common[n1:, :k1] = -np.linalg.solve(cc.V11.T, num.T).T
    return K_private, L_common


def controller_realizations(plant, bundle, K_private, L_common):
    """Both displayed 2n-state realizations of the optimal controller.

    State order is (zeta, xi): the player-1-information estimate first, the
    full-measurement estimate second. The two realizations share a transfer
    function; the first is the package default.
    """
    A, Bp, Cp = plant.A, plant.B2, plant.C2
    K, L = bundle.K_cen, bundle.L_cen
    n, m, k = plant.n, plant.m, plant.k
    A_zeta = A + Bp @ K + L_common @ Cp
    A_xi = A + L @ Cp + Bp @ K_private
    Z = np.zeros((n, n))
    primary = StateSpace(
        np.block([[A_zeta, Z], [Bp @ (K - K_private), A_xi]]),
        np.vstack([-L_common, -L]),
        np.hstack([K - K_private, K_private]),
        np.zeros((m, k)),
    )
    alternative = StateSpace(
        np.block([[A_zeta, Z], [(L - L_common) @ Cp, A_xi]]),
        np.vstack([L_common, L - L_common]),
        np.hstack([-K, -K_private]),
        np.zeros((m, k)),
    )
    return primary, alternative


def _check_separation(stage, M, zero_blocks, matched_blocks):
    """Refuse M unless each of `zero_blocks` vanishes and each (block,
    target) pair of `matched_blocks` agrees, to SEPARATION_TOL * ||M||_F.

    Raises SolverError naming `stage`, with the largest residual against
    the scale; a NaN residual is refused too.
    """
    scale = float(np.linalg.norm(M))
    res = float(np.max([np.linalg.norm(Z) for Z in zero_blocks]
                       + [np.linalg.norm(X - Y) for X, Y in matched_blocks]))
    if not res <= SEPARATION_TOL * scale:
        raise SolverError(f"{stage}: residual/scale {res:.2e}/{scale:.2e}")


def _certify_gap(plant, bundle, A_gap):
    """A_gap is block lower with diagonal blocks A_filt1 and A_ctrl2, both
    Hurwitz by `solve_are`, so A_gap is Hurwitz."""
    n1 = plant.n1
    if np.any(A_gap[:n1, n1:] != 0.0):
        raise SolverError("estimate-gap dynamics are not block lower: "
                          "the (1,2) block is nonzero")
    _check_separation(
        "estimate-gap dynamics do not have diagonal blocks A_filt1 and "
        "A_ctrl2", A_gap, [],
        [(A_gap[:n1, :n1], bundle.A_filt1), (A_gap[n1:, n1:], bundle.A_ctrl2)])


def error_coordinates(closed_loop, n):
    """(A, B) of the synthesized loop in the estimation-error coordinates.

    `closed_loop` has the states (x, zeta, xi) of
    `SynthesisResult.closed_loop`; the result realizes it in the coordinates
    (zeta, xi - zeta, x - xi). With blk the n x n blocks of closed_loop.A,
    S_i their i-th block row sum and P_i = blk_i0 + blk_i2, the new A is

        [[S_1,       P_1,       blk_10         ],
         [S_2 - S_1, P_2 - P_1, blk_20 - blk_10],
         [S_0 - S_2, P_0 - P_2, blk_00 - blk_20]]

    and the new B is [B_1; B_2 - B_1; B_0 - B_2]. The coordinate change and
    its inverse are made of identity blocks, so this costs O(n^2) block sums
    and no matrix product. On the optimal loop A is block upper triangular
    with diagonal blocks A_ctrl, A_gap and A_filt: each player estimates the
    state and applies static gains to the estimate.
    """
    blk = closed_loop.A.reshape(3, n, 3, n).transpose(0, 2, 1, 3)
    S = blk.sum(axis=1)
    P = blk[:, 0] + blk[:, 2]
    B = closed_loop.B.reshape(3, n, -1)
    A = np.block([[S[1], P[1], blk[1, 0]],
                  [S[2] - S[1], P[2] - P[1], blk[2, 0] - blk[1, 0]],
                  [S[0] - S[2], P[0] - P[2], blk[0, 0] - blk[2, 0]]])
    return A, np.vstack([B[1], B[2] - B[1], B[0] - B[2]])


@dataclass
class LoopFactors:
    """The synthesized loop in the estimation-error coordinates, factored
    through its three n x n diagonal blocks.

    `loop` realizes `SynthesisResult.closed_loop` in the coordinates
    (zeta, xi - zeta, x - xi) of `error_coordinates`. `blocks` holds real
    Schur forms (T_i, U_i) of A_ctrl, A_gap and A_filt. `schur` = (T, U)
    assembles them: U = diag(U_i), T_ii = T_i, T_ij = U_i' A[i, j] U_j for
    i < j, with A = loop.A in n x n blocks, and exact zeros below the
    diagonal. That is a real Schur form of the block upper triangular
    matrix which `optimal_controller` certifies loop.A to equal within
    SEPARATION_TOL; its trailing 2n x 2n and n x n parts are real Schur
    forms of the loop's tails in the same way. Every solve from these
    factors checks its residual against loop.A itself, not against the
    zeroed copy, so a loop that does not separate is refused there.
    `gramian` is the loop's controllability Gramian, solved once on first
    use; the design norm `h2_norm` and each tail's Gramian read it.
    """

    loop: StateSpace
    blocks: tuple
    schur: tuple

    @functools.cached_property
    def gramian(self):
        """Controllability Gramian Theta of the loop, from
        A Theta + Theta A' + B B' = 0 with (A, B) = (loop.A, loop.B).

        Solved once, from the assembled Schur form, with its residual
        checked against loop.A; every loop check reads it. Since the
        strictly lower blocks of loop.A vanish to SEPARATION_TOL, the
        trailing 2n x 2n and n x n blocks of Theta are the Gramians of the
        loop's tails within the same gate.
        """
        return _lyapunov_from_schur(self.loop.A, self.schur,
                                    self.loop.B @ self.loop.B.T, "N")

    def tail(self, start):
        """(A, B, (T, U), W) of the loop's states from block `start` (1 or
        2) on: the trailing blocks of the loop, of its Schur form and of
        its Gramian `gramian`."""
        n = self.blocks[0][0].shape[0]
        tail = slice(start * n, None)
        T, U = self.schur
        return (self.loop.A[tail, tail], self.loop.B[tail],
                (T[tail, tail], U[tail, tail]), self.gramian[tail, tail])

    @functools.cached_property
    def h2_norm(self):
        """H2 norm of the loop with `gramian` as its Wc. The diagonal of the
        assembled Schur form carries the Hurwitz test, and Wo is solved from
        the same form for the cross-check; computed once and kept."""
        _require_hurwitz(self.schur[0], _NOT_HURWITZ)
        return _h2_from_schur(self.loop.A, self.schur, self.loop.B,
                              self.loop.C, self.gramian)


def _certify_closed_loop(closed, bundle, A_gap):
    """The synthesized loop is Hurwitz because it separates: in
    `error_coordinates` its three strictly lower blocks vanish and its
    diagonal blocks are A_ctrl, A_gap and A_filt."""
    n = A_gap.shape[0]
    A, _ = error_coordinates(closed, n)
    blk = A.reshape(3, n, 3, n).transpose(0, 2, 1, 3)
    _check_separation(
        "synthesized closed loop does not separate into A_ctrl, A_gap and "
        "A_filt in the estimation-error coordinates", closed.A,
        [blk[1, 0], blk[2, 0], blk[2, 1]],
        [(blk[0, 0], bundle.A_ctrl), (blk[1, 1], A_gap),
         (blk[2, 2], bundle.A_filt)])


def optimal_controller(plant):
    """Synthesize the optimal controller for the nested information pattern.

    Runs the admissibility checks, solves the four Riccati equations and the
    coupling pair, assembles the structured gains and both controller
    realizations, and certifies that the estimate-gap dynamics and the
    closed loop are Hurwitz without an eigenvalue solve. A_gap must be
    block lower with diagonal blocks A_filt1 and A_ctrl2, and the 3n-state
    loop, in the estimation-error coordinates (zeta, xi - zeta, x - xi),
    block upper triangular with diagonal blocks A_ctrl, A_gap and A_filt.
    The four bundle matrices are Hurwitz by `solve_are`. Each block must
    match to SEPARATION_TOL relative to the matrix it is read from.

    Parameters
    ----------
    plant : TwoPlayerPlant

    Returns
    -------
    SynthesisResult

    Raises
    ------
    AssumptionError
        If the admissibility checks fail (this includes the existence of
        any stabilizing controller with the required structure).
    SolverError
        If a subproblem fails numerically or a post-condition does not hold;
        a failed separation names the matrix and gives residual/scale.
    """
    report = check_assumptions(plant)
    if not report.passed:
        raise AssumptionError(
            "plant fails admissibility checks: " + ", ".join(report.failures))
    bundle = solve_four_ares(plant)
    coupling = solve_phi_psi(plant, bundle)
    K_private, L_common = structured_gains(plant, bundle, coupling)
    A_gap = plant.A + plant.B2 @ K_private + L_common @ plant.C2
    _certify_gap(plant, bundle, A_gap)
    controller, controller_alt = controller_realizations(
        plant, bundle, K_private, L_common)
    closed = lft_lower(plant.generalized(), controller, plant.nz, plant.nw)
    _certify_closed_loop(closed, bundle, A_gap)
    return SynthesisResult(
        bundle=bundle, coupling=coupling,
        K_private=K_private, L_common=L_common, A_gap=A_gap,
        controller=controller, controller_alt=controller_alt,
        closed_loop=closed, centralized_norm=_centralized_norm(
            plant.B1, plant.C1, plant.D12, plant.D21,
            bundle.X_cen, bundle.K_cen, bundle.Y_cen, bundle.L_cen),
    )


def _centralized_norm(B1, C1, D12, D21, X, K, Y, L):
    """Closed-loop H2 norm of the centralized design from its two AREs.

    The squared norm is evaluated through the two standard trace formulas

        tr(X W) + tr(Y K' R K)  and  tr(Y Q) + tr(X L V L')

    which must agree within CENTRALIZED_TOL relative; their mean is returned
    under the square root. Raises SolverError if they disagree.
    """
    Q, R = C1.T @ C1, D12.T @ D12
    W, V = B1 @ B1.T, D21 @ D21.T
    cost_x = float(np.trace(X @ W) + np.trace(Y @ K.T @ R @ K))
    cost_y = float(np.trace(Y @ Q) + np.trace(X @ L @ V @ L.T))
    if not abs(cost_x - cost_y) <= CENTRALIZED_TOL * (1.0 + abs(cost_y)):
        raise SolverError(
            f"centralized trace formulas disagree: {cost_x:.6e} vs {cost_y:.6e}")
    return math.sqrt(max(0.5 * (cost_x + cost_y), 0.0))


def centralized_h2(plant):
    """Centralized (information-unconstrained) design and its closed-loop norm.

    Accepts any object with attributes A, B1, B2, C1, C2, D12, D21; the
    two-player structure is not used. Both Riccati equations are screened
    first (see `linalg.screen_are`), since no assumption check covers an
    arbitrary record. The norm comes from the two trace formulas of
    `_centralized_norm`, which must agree within CENTRALIZED_TOL relative. A
    synthesized design carries the same number as
    `SynthesisResult.centralized_norm`.

    Returns
    -------
    (StateSpace, float)
        The observer-form controller and the closed-loop norm.

    Raises
    ------
    SolverError
        If either Riccati equation fails (for instance the pair (A, B2) is
        not stabilizable) or the two formulas disagree.
    """
    A = np.asarray(plant.A, dtype=float)
    B1 = np.asarray(plant.B1, dtype=float)
    B2 = np.asarray(plant.B2, dtype=float)
    C1 = np.asarray(plant.C1, dtype=float)
    C2 = np.asarray(plant.C2, dtype=float)
    D12 = np.asarray(plant.D12, dtype=float)
    D21 = np.asarray(plant.D21, dtype=float)
    ctrl_data = (A, B2, C1, D12)
    filt_data = (A.T, C2.T, B1.T, D21.T)
    screen_are(*ctrl_data)
    screen_are(*filt_data)
    ctrl = solve_are(*ctrl_data)
    filt = solve_are(*filt_data)
    K, L = ctrl.K, filt.K.T
    norm = _centralized_norm(B1, C1, D12, D21, ctrl.X, K, filt.X, L)
    K_cen = StateSpace(A + B2 @ K + L @ C2, -L, K,
                       np.zeros((B2.shape[1], C2.shape[0])))
    return K_cen, norm


def _swapped(sizes):
    s1, s2 = int(sizes[0]), int(sizes[1])
    return np.concatenate([np.arange(s1, s1 + s2), np.arange(s1)])


def swap_transpose(M, row_split, col_split):
    """Transpose M and swap the two-block ordering on both axes.

    For M = [[M11, M12], [M21, M22]] partitioned by row_split x col_split,
    the result is [[M22', M12'], [M21', M11']].
    """
    M = np.asarray(M, dtype=float)
    return M.T[np.ix_(_swapped(col_split), _swapped(row_split))]


def dual_plant(plant):
    """The plant whose control problem is the original's filter problem.

    Transposing all maps and swapping the player ordering exchanges the
    roles of actuation and measurement while preserving the nested
    structure. Synthesis on the result reproduces the original's
    filter-side quantities as control-side quantities (and vice versa),
    after the same swap-transpose reindexing.
    """
    p = plant.partition
    rn = _swapped(p.n)
    rm = _swapped(p.m)
    rk = _swapped(p.k)
    return TwoPlayerPlant(
        A=swap_transpose(plant.A, p.n, p.n),
        B1=plant.C1.T[rn, :],
        B2=swap_transpose(plant.C2, p.k, p.n),
        C1=plant.B1.T[:, rn],
        C2=swap_transpose(plant.B2, p.n, p.m),
        D12=plant.D21.T[:, rk],
        D21=plant.D12.T[rm, :],
        partition=Partition(n=(p.n[1], p.n[0]), m=(p.k[1], p.k[0]),
                            k=(p.m[1], p.m[0])),
    )
