"""Closed-loop identities, estimator constructions, and independent oracles.

Everything here re-derives facts about an already-computed design from a
different direction than the synthesis path took: Lyapunov certificates for
the gap between the two internal estimates, the block-diagonal closed-loop
Gramian, orthogonality of estimation errors against innovations, the cost
of decentralization read three ways (two traces on the gap pair and the
closed-loop norm gap), the parameter extracted from the controller through
the two-port, and a brute-force vectorized re-solve of the structured
model-matching problem. A design that is wrong in any load-bearing way
fails at least one of these checks loudly; `tests/test_detuning.py` pins
which check fails on which wrong design.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ._kernels import terminal_state_covariance
from .linalg import (_NOT_HURWITZ, SolverError, _gate, _gramian_traces,
                     _h2_from_schur, _hurwitz_schur, _lyapunov_from_schur,
                     _require_hurwitz, _sylvester_from_schur, h2_norm,
                     screen_are, solve_are, solve_lyapunov)
from .plant import (AssumptionError, TwoPlayerPlant, check_assumptions,
                    cost_cov_matrices)
from .statespace import (TF_POINTS, StateSpace, balance_realization, minreal,
                         point_size, point_values, values_block_lower,
                         values_mismatch)

IDENTITY_TOL = 1e-8
CHECK_TOL = 1e-7
MATCH_TOL = 1e-6
ORACLE_STATE_GUARD = 200
#: paths whose sample covariance the Monte Carlo check draws; the draw costs
#: the same whatever the count, which is sized by the miss bound stated in
#: `simulated_error_covariance`
MONTE_CARLO_PATHS = 10 ** 11
MONTE_CARLO_HORIZON = 50.0


def _close(actual, expected, tol, label):
    return _gate(f"identity check '{label}' mismatch",
                 np.linalg.norm(np.asarray(actual) - np.asarray(expected)),
                 tol, 1.0 + np.linalg.norm(np.asarray(expected)))


def _psd_floor(M, tol, label):
    lo = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
    _gate(f"'{label}' most negative eigenvalue", -lo, tol,
          1.0 + np.linalg.norm(M))
    return lo


def _causal_size(sys):
    """H2 norm of the strictly proper part of a stable system plus the
    Frobenius norm of its feedthrough.

    The H2 part reads the larger of the two Gramian trace forms instead of
    refusing forms that disagree, so a large residual is reported rather
    than aborting the check. That loosens no gate: forms that disagree
    beyond H2_CONSISTENCY_TOL have a squared size above 1e-6, so the size
    reads above 1e-3.
    """
    schur = _hurwitz_schur(sys.A, _NOT_HURWITZ)
    sq = max(_gramian_traces(sys.A, schur, sys.B, sys.C))
    return float(np.sqrt(max(sq, 0.0))) + float(np.linalg.norm(sys.D))


# ---------------------------------------------------------------------------
# Lyapunov certificates for the estimate-gap quantities


@dataclass
class HatPair:
    """The estimate-gap pair of a design and the matrices it perturbs.

    Y_gap and X_gap solve the two gap Lyapunov equations on A_gap,
    A_gap Y_gap + Y_gap A_gap^T + dL V dL^T = 0 and
    A_gap^T X_gap + X_gap A_gap + dK^T R dK = 0, with dL and dK the gaps
    between the structured and the centralized gains. Y_common = Y_cen +
    Y_gap is the steady-state covariance of the error between the state and
    the estimate built from the shared measurement alone; X_private =
    X_cen + X_gap is the dual cost-to-go matrix.
    """

    Y_common: np.ndarray
    X_private: np.ndarray
    Y_gap: np.ndarray
    X_gap: np.ndarray


def hat_pair(plant, synth):
    """Solve the two gap Lyapunov equations of a design, once.

    Both are solved from the one real Schur form of A_gap in
    `synth.loop_factors`, each with its residual checked; a SolverError
    means the pair could not be solved. Every check that reads the pair
    takes this result: `identity_chain`, the middle reference block of
    `closed_loop_gramian`, `delta_cost` and the Monte Carlo target.

    Returns
    -------
    HatPair
    """
    b = synth.bundle
    cc = cost_cov_matrices(plant)
    dL = synth.L_common - b.L_cen
    dK = synth.K_private - b.K_cen
    schur = synth.loop_factors.blocks[1]
    Y_gap = _lyapunov_from_schur(synth.A_gap, schur, dL @ cc.V @ dL.T, "N")
    X_gap = _lyapunov_from_schur(synth.A_gap, schur, dK.T @ cc.R @ dK, "T")
    return HatPair(Y_common=b.Y_cen + Y_gap, X_private=b.X_cen + X_gap,
                   Y_gap=Y_gap, X_gap=X_gap)


def identity_chain(plant, synth, hats):
    """Verify the identity chain on the design's gap pair `hats`.

    Every identity is checked at the scaled tolerance IDENTITY_TOL: both
    gaps are positive semidefinite, so Y_common and X_private dominate
    their centralized counterparts; their corner blocks equal the local ARE
    solutions and the coupling matrices; and both structured gains are
    reproduced from them by the displayed formulas. Raises SolverError
    naming the first identity that fails.
    """
    b = synth.bundle
    cc = cost_cov_matrices(plant)
    n1, k1, m1 = plant.n1, plant.k1, plant.m1
    Y_hat, X_hat = hats.Y_common, hats.X_private
    _psd_floor(hats.Y_gap, IDENTITY_TOL, "Y_common - Y_cen")
    _psd_floor(hats.X_gap, IDENTITY_TOL, "X_private - X_cen")

    _close(Y_hat[:n1, :n1], b.Y_loc1, IDENTITY_TOL,
           "Y_common upper-left vs local filter ARE")
    _close(Y_hat[n1:, :n1], synth.coupling.Y_cross, IDENTITY_TOL,
           "Y_common lower-left vs coupling")
    _close(X_hat[n1:, n1:], b.X_loc2, IDENTITY_TOL,
           "X_private lower-right vs local control ARE")
    _close(X_hat[n1:, :n1], synth.coupling.X_cross, IDENTITY_TOL,
           "X_private lower-left vs coupling")

    L_rebuilt = np.zeros_like(synth.L_common)
    L_rebuilt[:, :k1] = -np.linalg.solve(
        cc.V11.T, (Y_hat @ plant.C2.T + cc.U.T)[:, :k1].T).T
    _close(L_rebuilt, synth.L_common, IDENTITY_TOL,
           "injection rebuilt from Y_common")

    K_rebuilt = np.zeros_like(synth.K_private)
    K_rebuilt[m1:, :] = -np.linalg.solve(
        cc.R22, (plant.B2.T @ X_hat + cc.S.T)[m1:, :])
    _close(K_rebuilt, synth.K_private, IDENTITY_TOL,
           "feedback rebuilt from X_private")


@dataclass
class GramianTriple:
    """Diagonal blocks of the closed-loop controllability Gramian.

    In the coordinates (player-1 estimate, estimate gap, estimation error)
    the Gramian is block diagonal with these three references: Z, the gap
    pair's Y_gap = Y_common - Y_cen as `mid`, and Y_cen. `offdiag` records
    the largest scaled off-diagonal block norm observed while verifying the
    diagonality.
    """

    Z: np.ndarray
    mid: np.ndarray
    Y: np.ndarray
    offdiag: float = 0.0


def closed_loop_gramian(plant, synth, hats):
    """Verify block-diagonality of the closed-loop Gramian.

    Reads the Gramian Theta of `synth.closed_loop` in the coordinates
    (zeta, xi - zeta, x - xi) of `synthesis.error_coordinates`, and checks
    that the off-diagonal blocks vanish to CHECK_TOL relative to the
    Gramian norm while the diagonal blocks match (Z, Y_common - Y_cen,
    Y_cen). Theta is `synth.loop_factors.gramian`, solved once per design
    from the Schur form assembled from those of A_ctrl, A_gap and A_filt,
    with its residual checked against the loop itself, so a loop that does
    not separate is refused. The middle reference is the gap pair `hats`
    from `hat_pair`, whose floor `identity_chain` checks; nothing is solved
    on A_gap here. Z solves its own small Lyapunov equation driven by the
    common injection, through the public `solve_lyapunov`, at the cost of
    one more n x n Schur form of A_ctrl, because it is the one loop-check
    solve that the benchmark's layer trace counts under
    `linalg.solve_lyapunov`: the benchmark's self-test asserts
    `linalg.solve_lyapunov.kron_bytes > 0` on `verify-sweep`.

    Only the off-diagonal blocks tell a wrong design from the optimum: on
    gains detuned by 1e-6 they read 6.3e-9 to 2.0e-7 of the Gramian scale,
    while the three references agree to 6.5e-15 on any gains of this
    estimator structure.
    """
    b = synth.bundle
    cc = cost_cov_matrices(plant)
    n = plant.n
    Theta = synth.loop_factors.gramian

    Z = solve_lyapunov(b.A_ctrl, synth.L_common @ cc.V @ synth.L_common.T)
    theta_scale = np.linalg.norm(Theta)
    diag_ref = {0: Z, 1: hats.Y_gap, 2: b.Y_cen}
    worst = 0.0
    for i, j in np.ndindex(3, 3):
        blk = Theta[i * n:(i + 1) * n, j * n:(j + 1) * n]
        if i == j:
            _close(blk, diag_ref[i], CHECK_TOL,
                   f"Gramian diagonal block {i + 1}")
            continue
        worst = max(worst, _gate(
            f"Gramian off-diagonal block ({i + 1},{j + 1}) relative norm",
            np.linalg.norm(blk) / (1.0 + theta_scale), CHECK_TOL))
    for name, M in (("Z", Z), ("Y", b.Y_cen)):
        _psd_floor(M, CHECK_TOL, f"Gramian block {name}")
    return GramianTriple(Z=Z, mid=hats.Y_gap, Y=b.Y_cen, offdiag=worst)


# ---------------------------------------------------------------------------
# Estimator constructions


def kalman_estimator(plant):
    """Steady-state estimator fed by measurement and control input.

    Works for any record exposing A, B1, B2, C2, D21; the filter gain comes
    from the estimation Riccati equation and the estimator maps (y, u) to
    the full state estimate. A TwoPlayerPlant must pass A4-A6 of
    `check_assumptions`; any other record is screened by `screen_are`.
    Built open loop: the realization is valid under any control law applied
    afterwards, which is not true of the opposite elimination order (see the
    worked fixture tests).

    Returns
    -------
    StateSpace
        (A + L C2, [-L, B2], I, 0). The error system driven by the noise is
        (A + L C2, B1 + L D21, I, 0) and is Hurwitz: `solve_are`
        certifies A + L C2 with its margin.
    """
    A, B1, B2 = plant.A, plant.B1, plant.B2
    C2, D21 = plant.C2, plant.D21
    if isinstance(plant, TwoPlayerPlant):
        report = check_assumptions(plant)
        bad = [lab for lab in report.failures if lab in ("A4", "A5", "A6")]
        if bad:
            raise AssumptionError(
                "estimation-side admissibility fails: " + ", ".join(bad))
    else:
        screen_are(A.T, C2.T, B1.T, D21.T)
    n = A.shape[0]
    L = solve_are(A.T, C2.T, B1.T, D21.T).K.T
    return StateSpace(A + L @ C2, np.hstack([-L, B2]), np.eye(n),
                      np.zeros((n, C2.shape[0] + B2.shape[1])))


def zeta_estimator(plant, synth):
    """Player 1's estimator: shared measurement and own control input only.

    The returned system maps (y1, u) to the stacked estimates of the state,
    of the full-measurement estimate, and of the control signal; the middle
    copy is exact in the sense that the gap dynamics it implies are the
    matrix A_gap, which `optimal_controller` certified Hurwitz.
    """
    n, m, k1 = plant.n, plant.m, plant.k1
    B = np.hstack([-synth.L_common[:, :k1], plant.B2])
    C = np.vstack([np.eye(n), np.eye(n), synth.bundle.K_cen])
    return StateSpace(synth.A_gap, B, C, np.zeros((2 * n + m, k1 + m)))


def _innovation_residual(A, B, schur, W, C_err, C_inn, D_inn):
    """Causal size of E R~ for E = (A, B, C_err, 0) and R = (A, B, C_inn, D_inn).

    The stable part of the product is (A, B D_inn^T + W C_inn^T, C_err, 0)
    with A W + W A^T + B B^T = 0, and it has no feedthrough. W is the
    caller's, a trailing block of the loop's Gramian; the one real Schur
    form `schur` of A serves the Hurwitz test and both Gramians of the H2
    norm.
    """
    _require_hurwitz(schur[0], "closed loop is not Hurwitz")
    return _h2_from_schur(A, schur, B @ D_inn.T + W @ C_inn.T, C_err)


def orthogonality_residuals(plant, synth):
    """Causal content of error-innovations products for both players.

    Both players' errors and innovations are read off `synth.closed_loop` in
    the coordinates (zeta, xi - zeta, x - xi) of
    `synthesis.error_coordinates`. Player 1's error x - zeta is the sum of
    the last two state blocks and its innovations are y1 - C2[:k1] zeta =
    C2[:k1] (x - zeta) + D21[:k1] w; player 2's error x - xi is the last
    block and its innovations are C2 (x - xi) + D21 w. Each player's error
    and innovations share one realization, the loop's trailing 2n or n
    states. Its real Schur form and its Gramian W are the matching trailing
    blocks of the Schur form and of the Gramian in `synth.loop_factors`
    (`LoopFactors.tail`); no matrix is factored and W is not solved here.

    Returns
    -------
    (float, float)
        Residuals for player 1 and player 2. Each is the H2 norm of the
        stable part of the product E R~ of the error system with the adjoint
        of the innovations system; at the optimum both vanish to working
        precision.
    """
    n, k1 = plant.n, plant.k1
    factors = synth.loop_factors
    to_err1 = np.hstack([np.eye(n), np.eye(n)])
    r1 = _innovation_residual(*factors.tail(1), to_err1,
                              plant.C2[:k1] @ to_err1, plant.D21[:k1])
    r2 = _innovation_residual(*factors.tail(2), np.eye(n),
                              plant.C2, plant.D21)
    return r1, r2


# ---------------------------------------------------------------------------
# Cost of decentralization


def delta_cost(plant, synth, hats):
    """Extra H2 cost of the information constraint, three ways.

    Returns the trace form weighted by the feedback gap, the trace form
    weighted by the injection gap, and the closed-loop gap: three separate
    computations, none of which solves an equation here. The traces read
    the gap pair `hats` from `hat_pair`: tr(Y_gap dK^T R dK) and
    tr(X_gap dL V dL^T). The closed-loop gap is ||loop||^2 - ||cen||^2,
    from the design norm `synth.loop_factors.h2_norm` and
    `synth.centralized_norm`. The two traces must agree to CHECK_TOL
    relative to 1 + |Y-trace|, the Y-trace must be nonnegative, and the
    closed-loop gap must match it to CHECK_TOL relative to 1 + ||loop||^2.

    What it certifies: the decomposition ||loop||^2 = ||cen||^2 + the gap
    cost, which holds for any gains of this estimator structure, optimal
    or not. Gains detuned by 1e-6 to 1e-2 read Y-trace vs X-trace and
    closed-loop gap vs trace at or below 6.2e-15, as at the optimum, so the
    check does not tell a wrong design from the optimum; it catches a loop
    or a pair that is computed wrong.
    """
    b = synth.bundle
    cc = cost_cov_matrices(plant)
    dK = synth.K_private - b.K_cen
    dL = synth.L_common - b.L_cen
    d_trace_y = float(np.trace(hats.Y_gap @ dK.T @ cc.R @ dK))
    d_trace_x = float(np.trace(hats.X_gap @ dL @ cc.V @ dL.T))
    _gate("decentralization cost, Y-trace vs X-trace",
          abs(d_trace_y - d_trace_x), CHECK_TOL, 1.0 + abs(d_trace_y))
    _gate("decentralization cost below zero", -d_trace_y, CHECK_TOL)

    sq_opt = synth.loop_factors.h2_norm ** 2
    d_loop = sq_opt - synth.centralized_norm ** 2
    _gate("decentralization cost, closed-loop gap vs Y-trace",
          abs(d_loop - d_trace_y), CHECK_TOL, 1.0 + sq_opt)
    return d_trace_y, d_trace_x, d_loop


# ---------------------------------------------------------------------------
# Parameter extraction through the two-port


def _q_opt_halves(plant, synth, data):
    """Q_opt's two n-state diagonal blocks, (A_ctrl, L_common, K_d - K_cen)
    and (A_filt, L_d - L_cen, K_private); Q_opt is their sum."""
    b, g = synth.bundle, data.gains
    zero = np.zeros((plant.m, plant.k))
    return (StateSpace(b.A_ctrl, synth.L_common, g.K_d - b.K_cen, zero),
            StateSpace(b.A_filt, g.L_d - b.L_cen, synth.K_private, zero))


def _lft_values(P11, P12, P21, P22, K):
    """Values of the lower LFT P11 + P12 K (I - P22 K)^{-1} P21, from the
    values of P's four blocks and of K at the same points; one small solve
    per point, of the size of P22 K."""
    eye = np.eye(P22.shape[-2])
    return P11 + P12 @ K @ np.linalg.solve(eye - P22 @ K, P21)


def _closure_norm(A, B2, C2, D22, K):
    """Frobenius norm of the state matrix of the lower LFT of a system with
    state matrix A, closed-port input map B2, output map C2 and
    feedthrough D22, around a strictly proper K:
    [[A, B2 C_K], [B_K C2, A_K + B_K D22 C_K]], read off its four blocks
    without assembling it. It bounds the matrix's ||.||_2."""
    if np.any(K.D != 0.0):
        raise ValueError("the closure bound needs a strictly proper factor")
    blocks = (A, B2 @ K.C, K.B @ C2, K.A + K.B @ D22 @ K.C)
    return float(np.sqrt(sum(np.linalg.norm(M) ** 2 for M in blocks)))


@dataclass
class ParameterFrame:
    """The parameter frame of a design, read once at one point set.

    Every transfer function is read at s_j = alpha z_j for the z_j of
    TF_POINTS. `halves` are Q_opt's two n-state diagonal blocks
    (`_q_opt_halves`) and `Q_opt` their sum, the display realization.
    `q_opt` and `controller` are the (values, size) pairs of Q_opt and of
    the design's controller K, as `tf_mismatch` reads them.
    `q_lft` and `k_round` are the values of the two closures
    F_u(J_d^-1, K) and F_l(J_d, Q_opt), read pointwise.
    """

    alpha: float
    halves: tuple
    Q_opt: StateSpace
    q_opt: tuple
    controller: tuple
    q_lft: np.ndarray
    k_round: np.ndarray


def parameter_frame(plant, synth, data):
    """Evaluate the parameter frame of a design once, for every check that
    reads it: `youla_parameters` and `fixed_point_maps`.

    `data` is `youla_data(plant, synth.bundle)`. Q_opt is read as the sum of
    its two n-state diagonal blocks; the controller K (2n states), J_d and
    J_d^-1 (n states each) take one batched solve each. The closures
    Q_lft = F_u(J_d^-1, K) and K_round = F_l(J_d, Q_opt) are not evaluated
    as 3n-state realizations: each is read by the LFT formula on the
    factors' values at each point (`_lft_values`).

    One alpha = max(1, ||A||_F) over the state matrices of every
    realization read, the closures' assembled ones included, dominates
    their ||A||_2, so every s_j I - A is invertible with the 4 / alpha
    bound of `statespace._point_values`, the closures' included, and so is
    each I - P22 K of the LFT formula. A closure's norm is read off its
    blocks (`_closure_norm`); K and Q_opt are strictly proper, as the
    synthesis builds them. A non-finite matrix takes no part in alpha; its
    values carry the NaN.
    """
    halves = _q_opt_halves(plant, synth, data)
    Q_opt = halves[0] + halves[1]
    K, J, J_inv = synth.controller, data.J_d, data.J_d_inverse
    m, k = plant.m, plant.k
    norms = [np.linalg.norm(g.A) for g in halves + (K, J, J_inv)]
    norms += [_closure_norm(J_inv.A, J_inv.B[:, :m], J_inv.C[:k],
                            J_inv.D[:k, :m], K),
              _closure_norm(J.A, J.B[:, k:], J.C[m:], J.D[m:, k:], Q_opt)]
    alpha = max([1.0] + [float(x) for x in norms if np.isfinite(x)])
    pts = alpha * TF_POINTS
    q_values = halves[0].eval_at(pts) + halves[1].eval_at(pts)
    q_opt = (q_values, point_size(Q_opt, q_values, alpha))
    controller = point_values(K, alpha)
    # J_d^-1 maps [p; w] (m + k) to [q; z] (k + m), closed by p = K q
    M = J_inv.eval_at(pts)
    q_lft = _lft_values(M[:, k:, m:], M[:, k:, :m], M[:, :k, m:],
                        M[:, :k, :m], controller[0])
    # J_d maps [w; u] (k + m) to [z; y] (m + k), closed by u = Q y
    P = J.eval_at(pts)
    k_round = _lft_values(P[:, :m, :k], P[:, :m, k:], P[:, m:, :k],
                          P[:, m:, k:], q_values)
    return ParameterFrame(alpha=alpha, halves=halves, Q_opt=Q_opt,
                          q_opt=q_opt, controller=controller, q_lft=q_lft,
                          k_round=k_round)


def youla_parameters(plant, synth, frame):
    """Optimal parameter and the parameter of the decentralization gap.

    `frame` is `parameter_frame(plant, synth, data)` for the design's
    `data = youla_data(plant, synth.bundle)`, whose nominal gains fix the
    parameterization. Q_opt must be block lower and agree with the two-port
    extraction Q_lft, and the controller K_round rebuilt from it must agree
    with the design, each read on the frame's values at CHECK_TOL: a test
    at four generic points, not a Cayley-Hamilton proof. Q_opt and K keep
    their floored sizes; each closure, read pointwise, is compared against
    the larger of its own largest value and the other side's size. Q_opt
    is stable without a test: its state matrix is block_diag(A_ctrl,
    A_filt), which `solve_are` certified Hurwitz.

    Returns
    -------
    (StateSpace, StateSpace)
        Q_opt: the 2n-state parameter reached by pushing the optimal
        controller through the inverted two-port, returned in its compact
        display realization after that realization is verified against the
        two-port computation. Q_you: the gap parameter whose weighted norm
        squares to the decentralization cost; `delta_cost` checks that norm.
    """
    b = synth.bundle
    q_values, q_size = frame.q_opt
    if not values_block_lower(q_values, q_size, (plant.m1, plant.m2),
                              (plant.k1, plant.k2), CHECK_TOL):
        raise SolverError("optimal parameter is not block lower triangular")

    _gate("parameter display vs two-port extraction, transfer mismatch",
          values_mismatch(q_values, q_size, frame.q_lft,
                          np.abs(frame.q_lft).max(initial=0.0)), CHECK_TOL)
    k_values, k_size = frame.controller
    _gate("parameter round trip, transfer mismatch",
          values_mismatch(frame.k_round,
                          np.abs(frame.k_round).max(initial=0.0),
                          k_values, k_size), CHECK_TOL)

    dK = synth.K_private - b.K_cen
    dL = synth.L_common - b.L_cen
    Q_you = StateSpace(synth.A_gap, dL, dK, np.zeros((plant.m, plant.k)))
    return frame.Q_opt, Q_you


# ---------------------------------------------------------------------------
# Optimality certificates in the model-matching frame


def _stable_sandwich(left, mid, right):
    """Stable content of left~ * mid * right~ for stable factors.

    An explicit stable/antistable split of the triple product is numerically
    fragile: the product realization mirrors the spectrum and the separating
    similarity can amplify the input map by many orders of magnitude. The
    partial-fraction route used here needs one Sylvester equation per adjoint
    factor, and each equation couples two Hurwitz matrices, so the solves are
    uniformly well conditioned and every matrix stays at the scale of the
    original realizations.

    With Z1 solving Ax^T Z1 + Z1 Ay + Cx^T Cy = 0, the stable part of
    left~ * mid is (Ay, By, Dx^T Cy + Bx^T Z1, Dx^T Dy); the discarded
    antistable part is strictly proper, so multiplying it by the antistable
    right~ adds no further stable content. A second equation of the same
    shape then projects the product with right~.

    Each of mid.A, left.A^T and right.A^T is factored once, in that order,
    and right.A^T not at all when it equals left.A^T: one real Schur form
    then serves both adjoint factors. Each real Schur form serves the
    matrix's Hurwitz test (a SolverError naming the factor) and every
    Sylvester solve it enters; mid.A enters both. Factors with no states
    are allowed.
    """
    mid_schur = _hurwitz_schur(mid.A, "closed loop is not Hurwitz")
    left_schur = _hurwitz_schur(
        left.A.T, "adjoint projection requires a stable left factor")
    right_schur = left_schur if np.array_equal(right.A, left.A) \
        else _hurwitz_schur(
            right.A.T, "adjoint projection requires a stable right factor")
    Z1 = _sylvester_from_schur(left.A.T, left_schur, left.C.T @ mid.C,
                               mid.A, mid_schur)
    mid = StateSpace(mid.A, mid.B,
                     left.D.T @ mid.C + left.B.T @ Z1,
                     left.D.T @ mid.D)
    Z2 = _sylvester_from_schur(mid.A, mid_schur, mid.B @ right.B.T,
                               right.A.T, right_schur)
    return StateSpace(mid.A,
                      mid.B @ right.D.T + Z2 @ right.C.T,
                      mid.C, mid.D @ right.D.T)


def structured_optimality_residual(T, cl):
    """Causal-content residuals of the structured optimality condition.

    For a controller with parameter Q the closed loop F(P, K) equals
    T11 + T12 Q T21 (Zhou, Doyle & Glover 1996, ch. 12), so the loop is
    read off the plant directly rather than rebuilt from Q. The function
    weights it by the adjoints of T12 and T21 and measures, block by block,
    how far the result is from the anticausality pattern that characterizes
    the structured optimum: every block except the upper-right one must
    have no stable causal content. The upper-right block is unconstrained
    and its entry is reported as zero.

    T12 and T21 share the state matrix A_T of `youla_data`. They are
    balanced as the one realization (A_T, [B12 B21], [C12; C21]), so their
    balanced state matrices are equal too, and one real Schur form of the
    balanced A_T^T serves both adjoint factors of `_stable_sandwich`. The
    loop is balanced on its own.

    Parameters
    ----------
    T : ModelMatchData
        Model-matching data carrying the input/output partition; its T12
        and T21 must share their state matrix (ValueError otherwise).
    cl : StateSpace
        Closed loop w -> z of the plant with the controller to test, for
        instance `SynthesisResult.closed_loop`.

    Returns
    -------
    ndarray, shape (2, 2)
        Residual norms per block; small values on the constrained blocks
        certify optimality.
    """
    if T.partition is None:
        raise ValueError("model-matching data lacks the block partition")
    m1 = T.partition.m[0]
    k1 = T.partition.k[0]
    # Every realization entering a Sylvester or Lyapunov solve is rebalanced,
    # since the residual lives many orders of magnitude below the raw
    # product scales. The sandwich refuses a loop that is not Hurwitz.
    T12, T21 = T.T12, T.T21
    if not np.array_equal(T12.A, T21.A):
        raise ValueError("T12 and T21 must share their state matrix")
    shared = balance_realization(StateSpace(
        T12.A, np.hstack([T12.B, T21.B]), np.vstack([T12.C, T21.C])))
    m, nz = T12.nu, T12.ny
    stable = _stable_sandwich(
        StateSpace(shared.A, shared.B[:, :m], shared.C[:nz], T12.D),
        balance_realization(cl),
        StateSpace(shared.A, shared.B[:, m:], shared.C[nz:], T21.D))
    out = np.zeros((2, 2))
    rows = (slice(0, m1), slice(m1, None))
    cols = (slice(0, k1), slice(k1, None))
    for i, j in ((0, 0), (1, 0), (1, 1)):
        blk = balance_realization(minreal(stable.subsystem(rows=rows[i],
                                                           cols=cols[j])))
        out[i, j] = _causal_size(blk)
    return out


def _joint_realization(T11, T12, T21):
    """Minimal joint realization of the three model-matching blocks.

    The naive stacked realization carries every mode three times, which is
    poison for the eigenvector-based Riccati solver that `solve_are` uses
    below 32 states (repeated Hamiltonian eigenvalues), so the stack is
    reduced before being split back into the four-block form. This one
    reduction sizes the Riccati pair of `_match_core`.
    """
    if T12.ny != T11.ny or T21.nu != T11.nu:
        raise ValueError("model-matching blocks have inconsistent dimensions")
    if np.linalg.norm(T11.D) > 0.0:
        raise AssumptionError("matching target has feedthrough; its H2 "
                              "distance to the achievable set is infinite")
    n1, n2, n3 = T11.nx, T12.nx, T21.nx
    nz, nw = T11.ny, T11.nu
    A = sla.block_diag(T11.A, T12.A, T21.A)
    B1 = np.vstack([T11.B, np.zeros((n2, nw)), T21.B])
    B2 = np.vstack([np.zeros((n1, T12.nu)), T12.B, np.zeros((n3, T12.nu))])
    C1 = np.hstack([T11.C, T12.C, np.zeros((nz, n3))])
    C2 = np.hstack([np.zeros((T21.ny, n1 + n2)), T21.C])
    D = np.block([
        [np.zeros((nz, nw)), T12.D],
        [T21.D, np.zeros((T21.ny, T12.nu))],
    ])
    stacked = minreal(StateSpace(A, np.hstack([B1, B2]),
                                 np.vstack([C1, C2]), D))
    return (stacked.A, stacked.B[:, :nw], stacked.B[:, nw:],
            stacked.C[:nz, :], stacked.C[nz:, :], T12.D, T21.D)


def _match_core(A, B1, B2, C1, C2, D12, D21):
    # a reduced joint realization is not a checked plant: screen both AREs
    screen_are(A, B2, C1, D12)
    screen_are(A.T, C2.T, B1.T, D21.T)
    K = solve_are(A, B2, C1, D12).K
    L = solve_are(A.T, C2.T, B1.T, D21.T).K.T
    n = A.shape[0]
    m, k = B2.shape[1], C2.shape[0]
    A_q = np.block([
        [A + B2 @ K, B2 @ K],
        [np.zeros((n, n)), A + L @ C2],
    ])
    B_q = np.vstack([np.zeros((n, k)), -L])
    C_q = np.hstack([K, K])
    return StateSpace(A_q, B_q, C_q, np.zeros((m, k)))


def centralized_model_match(T11, T12, T21):
    """Closest stable parameter in the unstructured model-matching problem.

    Solves min over stable Q of the H2 norm of T11 + T12 Q T21 through the
    pair of Riccati equations of the joint realization, and certifies the
    result by checking, at MATCH_TOL, that the two-sided weighted closed
    loop has no stable causal content. The certificate's reductions are
    load-bearing; the returned Q is not reduced.

    Parameters
    ----------
    T11, T12, T21 : StateSpace
        Stable model-matching data; T11 must be strictly proper.

    Returns
    -------
    StateSpace
        The optimal parameter, strictly proper with twice the joint state
        dimension.
    """
    Q = _match_core(*_joint_realization(T11, T12, T21))
    T12b = balance_realization(T12)
    T21b = balance_realization(T21)
    cl = balance_realization(minreal(T11 + T12 * Q * T21))
    stable = balance_realization(minreal(_stable_sandwich(T12b, cl, T21b)))
    _gate("model-matching certificate, causal content", _causal_size(stable),
          MATCH_TOL, 1.0 + h2_norm(cl))
    return Q


# ---------------------------------------------------------------------------
# Kronecker vectorization oracle


def _vec_system(sys):
    """Single-input system whose output stacks the columns of sys."""
    nu = sys.nu
    A = np.kron(np.eye(nu), sys.A)
    B = sys.B.reshape((-1, 1), order="F")
    C = np.kron(np.eye(nu), sys.C)
    D = sys.D.reshape((-1, 1), order="F")
    return StateSpace(A, B, C, D)


def _kron_identity_left(sys, p):
    """Realization of sys(s) kron I_p."""
    return StateSpace(np.kron(sys.A, np.eye(p)), np.kron(sys.B, np.eye(p)),
                      np.kron(sys.C, np.eye(p)), np.kron(sys.D, np.eye(p)))


def _kron_identity_right(sys, p):
    """Realization of I_p kron sys(s)."""
    return StateSpace(np.kron(np.eye(p), sys.A), np.kron(np.eye(p), sys.B),
                      np.kron(np.eye(p), sys.C), np.kron(np.eye(p), sys.D))


def _kept_vec_entries(m, k, m1, k1):
    return [j * m + i for j in range(k) for i in range(m)
            if not (i < m1 and j >= k1)]


def vectorization_oracle(T):
    """Re-solve the structured problem by stacking the unknown into a vector.

    Rewrites the two-player model-matching problem as an unstructured one in
    the stacked entries of the parameter: the target becomes the stacked
    columns of T11, the map acting on the unknown becomes the Kronecker
    product of the transposed right factor with the left factor, and the
    sparsity constraint becomes a column selection. Shares no structure with
    the closed-form synthesis path beyond the Riccati solver, so agreement
    of the two is strong evidence both are right.

    Only the lifted factor and then the joint realization are reduced, and
    ORACLE_STATE_GUARD reads each; the second count sizes the Riccati pair.
    No output is reduced: `h2_norm` needs a Hurwitz realization, not a
    minimal one, and each rank cut at REDUCE_TOL would move the norm.

    Parameters
    ----------
    T : ModelMatchData
        Model-matching data of the plant. The structurally zero entries of
        `T.partition` are dropped; a partition of None keeps every entry,
        which poses the unconstrained problem of `centralized_model_match`.

    Returns
    -------
    (StateSpace, float)
        The recovered parameter, not minimal, and the achieved closed-loop
        norm.

    Raises
    ------
    SolverError
        If more than ORACLE_STATE_GUARD states remain after either
        reduction; a lifted factor that is already too large is refused
        before the target is built.
    """
    partition = T.partition
    T11, T12, T21 = T.T11, T.T12, T.T21
    m, k = T12.nu, T21.ny
    lifted = _kron_identity_left(T21.transpose(), T12.ny) \
        * _kron_identity_right(T12, k)
    if partition is not None:
        keep = _kept_vec_entries(m, k, partition.m[0], partition.k[0])
    else:
        keep = list(range(m * k))
    lifted = minreal(lifted.subsystem(cols=keep))
    # the joint count is at least the lifted one, so the guard can refuse
    # before the target is built into the joint stack, the costlier of the
    # two reductions
    if lifted.nx > ORACLE_STATE_GUARD:
        raise SolverError(
            f"lifted factor has {lifted.nx} states after reduction, "
            f"above the {ORACLE_STATE_GUARD}-state guard")
    joint = _joint_realization(_vec_system(T11), lifted,
                               StateSpace.gain(np.eye(1)))
    joint_states = joint[0].shape[0]
    if joint_states > ORACLE_STATE_GUARD:
        raise SolverError(
            f"vectorized problem has {joint_states} states after reduction, "
            f"above the {ORACLE_STATE_GUARD}-state guard")
    q = _match_core(*joint)

    # Scatter the kept entries back into the full stacked vector, then peel
    # one column of the parameter off per input.
    C_full = np.zeros((m * k, q.nx))
    C_full[keep, :] = q.C
    Q = StateSpace(np.kron(np.eye(k), q.A), np.kron(np.eye(k), q.B),
                   np.hstack([C_full[j * m:(j + 1) * m] for j in range(k)]),
                   np.zeros((m, k)))
    return Q, h2_norm(T11 + T12 * Q * T21)


# ---------------------------------------------------------------------------
# Fixed points of the partial optimizations


def fixed_point_maps(plant, frame):
    """The two partial-optimization maps, evaluated at the optimum.

    Each player's best response, with the other player's diagonal parameter
    block held fixed, turns out not to depend on the fixed block at all; the
    two displayed systems below are therefore constant maps whose values
    must coincide with the diagonal blocks of the optimal parameter. That
    coincidence is verified here at CHECK_TOL, at the four generic points
    of `frame` (`parameter_frame(plant, synth, data)`) rather than by a
    Cayley-Hamilton count of parameters. g1 and g2 keep their own n-state
    realizations and are solved at those points on their own. The check is
    vacuous all the same: g2 and g1 are Q_opt's diagonal blocks less parts
    that `structured_gains` makes exactly zero, and their values equal
    Q_opt's to the last bit on the fixture, plant 1000 and n = 16.

    Returns
    -------
    (StateSpace, StateSpace)
        g1: the best-response value for player 2's diagonal block;
        g2: the best-response value for player 1's diagonal block.
    """
    block11 = (slice(0, plant.m1), slice(0, plant.k1))
    block22 = (slice(plant.m1, None), slice(plant.k1, None))
    ctrl, filt = frame.halves
    g1 = filt.subsystem(*block22)
    g2 = ctrl.subsystem(*block11)
    for g, (rows, cols), who in ((g2, block11, "player-1"),
                                 (g1, block22, "player-2")):
        values = frame.q_opt[0][:, rows, cols]
        size = point_size(frame.Q_opt.subsystem(rows, cols), values,
                          frame.alpha)
        _gate(f"{who} fixed point, transfer mismatch",
              values_mismatch(*point_values(g, frame.alpha), values, size),
              CHECK_TOL)
    return g1, g2


# ---------------------------------------------------------------------------
# Monte Carlo covariance check support


def simulated_error_covariance(plant, synth, seed):
    """Terminal sample covariance of the player-1 estimation error.

    Samples `synth.closed_loop` under unit-intensity white noise from rest
    and returns the sample covariance of x - zeta at the final time, which
    should match Y_common. MONTE_CARLO_PATHS paths run for MONTE_CARLO_HORIZON
    times the slowest closed-loop time constant, rounded up to a whole number
    of them; the slowest decay rate is read off the diagonal of the Schur
    form in `synth.loop_factors`, which carries the spectra of A_ctrl, A_gap
    and A_filt. The sample covariance of the 3n-state terminal states is
    drawn from its exact Wishart law (`_kernels.terminal_state_covariance`),
    so the one error left is sampling error, fixed by `seed` for
    reproducibility.

    Miss bound. The n x n block C of N paths has
    E ||C - Y||_F^2 = (tr Y^2 + (tr Y)^2) / (N - 1), and (tr Y)^2 <= n tr Y^2,
    so by Chebyshev a correct design misses a relative gate g with
    probability at most (1 + n) / ((N - 1) g^2). At N = 10^11 and the CLI's
    g = 0.05 that is 2.6e-7 for n = 64. The horizon's bias, of order
    e^{-2 MONTE_CARLO_HORIZON}, is far below the sampling error.
    """
    cl = synth.closed_loop
    decay = -np.max(np.diag(synth.loop_factors.schur[0]))
    if not decay > 0:
        raise SolverError("closed loop is not Hurwitz; simulation diverges")
    cov_full = terminal_state_covariance(cl.A, cl.B, 1.0 / decay,
                                         int(np.ceil(MONTE_CARLO_HORIZON)),
                                         MONTE_CARLO_PATHS, seed)
    n = plant.n
    sel = np.hstack([np.eye(n), -np.eye(n), np.zeros((n, n))])
    return sel @ cov_full @ sel.T
