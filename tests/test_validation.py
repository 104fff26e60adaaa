import dataclasses
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from nesth2.fixtures import (
    make_decoupled,
    make_decoupled_crosscost,
    make_filter_example,
    make_pure_noise_channel,
    make_random_fixture,
    make_unstabilizable_pair,
    random_plant,
)
from nesth2.linalg import (SolverError, h2_norm, is_hurwitz,
                           solve_lyapunov, stable_antistable_decompose)
from nesth2.plant import AssumptionError
from nesth2.stabilization import (controller_from_q, q_from_controller,
                                  youla_data)
from nesth2.statespace import (TF_POINTS, StateSpace, lft_lower, minreal,
                               tf_mismatch, vcat)
from nesth2.synthesis import (centralized_h2, controller_realizations,
                              error_coordinates, optimal_controller)
from nesth2 import validation as va

from detuning import detuned_controller
from markov_oracle import (markov_mismatch, markov_parameters, peak,
                           scaled_markov_parameters)

SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)

EVAL_POINTS = [0.3 + 0.7j, -1.2 + 2.0j, 2.5 - 0.4j, 1.0j]

# Frozen outputs for the seeded random fixture; any change in the synthesis
# or validation arithmetic that moves these is a regression, not noise.
RANDOM_STRUCT_NORM = 3.55535979997514
RANDOM_CENTRAL_NORM = 2.98949580448005
RANDOM_DELTA = 3.70349814227547


def _closed_norm(plant, synth):
    cl = lft_lower(plant.generalized(), synth.controller, plant.nz, plant.nw)
    return h2_norm(cl)


def _tf_close(g1, g2, tol=1e-9):
    for s in EVAL_POINTS:
        if np.linalg.norm(g1.eval_at(s) - g2.eval_at(s)) > tol:
            return False
    return True


def _random_stable(rng, nx, nu, ny):
    A = rng.standard_normal((nx, nx))
    A = A - (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(nx)
    return StateSpace(A, rng.standard_normal((nx, nu)),
                      rng.standard_normal((ny, nx)),
                      rng.standard_normal((ny, nu)))


def test_close_refuses_nan():
    # a NaN mismatch or scale compares False both ways; the gate must refuse
    with pytest.raises(SolverError):
        va._close(np.array([np.nan, 1.0]), np.ones(2), 1e-8, "nan actual")
    with pytest.raises(SolverError):
        va._close(np.ones(2), np.array([np.nan, 1.0]), 1e-8, "nan expected")
    assert va._close(np.ones(2), np.ones(2), 1e-8, "equal") == 0.0


def test_psd_floor_refuses_nan():
    with pytest.raises(SolverError):
        va._psd_floor(np.array([[1.0, 0.0], [0.0, np.nan]]), 1e-8, "nan")
    assert va._psd_floor(np.eye(2), 1e-8, "identity") == 1.0


# ---------------------------------------------------------------------------
# Gap Lyapunov identities and the closed-loop Gramian


def test_hat_pair_corner_identities():
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    hp = va.hat_pair(plant, synth)
    va.identity_chain(plant, synth, hp)
    b = synth.bundle
    n1 = plant.n1
    assert np.allclose(hp.Y_common[:n1, :n1], b.Y_loc1, atol=1e-8)
    assert np.allclose(hp.Y_common[n1:, :n1], synth.coupling.Y_cross, atol=1e-8)
    assert np.allclose(hp.X_private[n1:, n1:], b.X_loc2, atol=1e-8)
    assert np.allclose(hp.X_private[n1:, :n1], synth.coupling.X_cross, atol=1e-8)
    gap = hp.Y_common - b.Y_cen
    assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() > -1e-10


def test_hat_pair_gap_decoupled_closed_form():
    plant = make_decoupled()
    synth = optimal_controller(plant)
    hp = va.hat_pair(plant, synth)
    va.identity_chain(plant, synth, hp)
    gap = hp.Y_common - synth.bundle.Y_cen
    # Player 1 estimates its own state as well as the centralized filter, so
    # the gap lives entirely in the unobserved second coordinate.
    assert abs(gap[0, 0]) < 1e-12
    assert abs(gap[0, 1]) < 1e-12
    assert abs(gap[1, 1] - (9.0 - 4.0 * SQRT5) / (2.0 * SQRT5)) < 1e-12
    assert np.allclose(synth.bundle.Y_cen,
                       np.diag([SQRT2 - 1.0, SQRT5 - 2.0]), atol=1e-12)


def test_closed_loop_gramian_diagonal():
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    hp = va.hat_pair(plant, synth)
    tri = va.closed_loop_gramian(plant, synth, hp)
    assert np.allclose(tri.mid, hp.Y_common - synth.bundle.Y_cen, atol=1e-10)
    assert np.array_equal(tri.Y, synth.bundle.Y_cen)
    for M in (tri.Z, tri.mid, tri.Y):
        assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > -1e-10


# ---------------------------------------------------------------------------
# Estimator constructions


def test_kalman_estimator_matches_worked_display():
    est = va.kalman_estimator(make_filter_example())
    assert np.allclose(est.A, [[-5.0]], atol=1e-12)
    assert np.allclose(est.B, [[1.0, 1.0]], atol=1e-12)
    assert np.allclose(est.C, [[1.0]], atol=1e-12)
    assert np.all(est.D == 0.0)


def test_kalman_estimator_open_loop_survives_late_elimination():
    # Substituting an unstable control law u = (1/(s-1)) y into the already
    # designed estimator keeps its transfer function honest but makes the
    # realization unstable: the estimator itself was built open loop and
    # cannot know the loop will be closed this way.
    fe = make_filter_example()
    est = va.kalman_estimator(fe)
    F = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    closed_est = est * vcat(StateSpace.gain(np.eye(1)), F)
    assert np.allclose(closed_est.A, [[-5.0, 1.0], [0.0, 1.0]], atol=1e-12)
    assert np.allclose(closed_est.B, [[1.0], [1.0]], atol=1e-12)
    assert np.allclose(closed_est.C, [[1.0, 0.0]], atol=1e-12)
    assert not is_hurwitz(closed_est.A)
    ref = StateSpace([[-5.0, 1.0], [0.0, 1.0]], [[1.0], [1.0]],
                     [[1.0, 0.0]], [[0.0]])
    for s in EVAL_POINTS:
        want = s / (s ** 2 + 4.0 * s - 5.0)
        assert abs(closed_est.eval_at(s)[0, 0] - want) < 1e-9
    assert _tf_close(closed_est, ref)


def test_kalman_estimator_closing_loop_first_changes_filter():
    # Eliminating the same control law from the plant before designing gives
    # a different, stable filter: estimation order is not interchangeable.
    fe = make_filter_example()
    F = StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    A_aug = np.block([[fe.A, fe.B2 @ F.C], [F.B @ fe.C2, F.A]])
    closed_plant = SimpleNamespace(
        A=A_aug,
        B1=np.vstack([fe.B1, F.B @ fe.D21]),
        B2=np.zeros((2, 0)),
        C2=np.hstack([fe.C2, np.zeros((1, 1))]),
        D21=fe.D21,
    )
    est = va.kalman_estimator(closed_plant)
    assert np.allclose(est.A, [[-7.0, 1.0], [-12.0, 1.0]], atol=1e-9)
    assert np.allclose(est.B, [[3.0], [13.0]], atol=1e-9)
    assert np.allclose(np.sort(np.linalg.eigvals(est.A).real), [-5.0, -1.0],
                       atol=1e-9)
    first = est.subsystem(rows=[0])
    for s in EVAL_POINTS:
        want = (3.0 * s + 10.0) / (s ** 2 + 6.0 * s + 5.0)
        assert abs(first.eval_at(s)[0, 0] - want) < 1e-9


def test_kalman_estimator_rejects_hidden_unstable_mode():
    with pytest.raises(AssumptionError, match="A5"):
        va.kalman_estimator(make_unstabilizable_pair())


def test_zeta_estimator_decoupled_dynamics():
    plant = make_decoupled()
    synth = optimal_controller(plant)
    zeta = va.zeta_estimator(plant, synth)
    assert np.array_equal(zeta.A, synth.A_gap)
    # Block lower triangular with the local filter and local control poles.
    assert abs(zeta.A[0, 1]) < 1e-12
    assert abs(zeta.A[0, 0] + SQRT2) < 1e-12
    assert abs(zeta.A[1, 1] + SQRT5) < 1e-12
    assert zeta.ny == 2 * plant.n + plant.m
    assert zeta.nu == plant.k1 + plant.m


def test_estimator_first_components_coincide_when_decoupled():
    # With no cross coupling the shared-measurement estimate of the first
    # state equals the full-measurement one, and the second measurement
    # contributes nothing to it.
    plant = make_decoupled()
    synth = optimal_controller(plant)
    zeta_est = va.zeta_estimator(plant, synth)
    xi_est = va.kalman_estimator(plant)
    k1 = plant.k1
    zeta_first = zeta_est.subsystem(rows=[0], cols=list(range(k1 + plant.m)))
    xi_cols = list(range(k1)) + [plant.k + j for j in range(plant.m)]
    xi_first = xi_est.subsystem(rows=[0], cols=xi_cols)
    assert tf_mismatch(zeta_first, xi_first) < 1e-7
    cross = xi_est.subsystem(rows=[0], cols=[k1])
    assert peak(markov_parameters(cross, 8)) < 1e-12


def _sandwich_route(plant, synth):
    """Reference orthogonality residuals through the general sandwich.

    Player 1's innovations are the shared innovations filtered through the
    optimal local estimator loop, a series product with n1 + n states, and
    each residual is `_causal_size(_stable_sandwich(I, E, R))`. Returns
    (r1, r2, R1sys).
    """
    b = synth.bundle
    n, k1, nw = plant.n, plant.k1, plant.nw
    A, B = error_coordinates(synth.closed_loop, n)
    E2sys = StateSpace(A[2 * n:, 2 * n:], B[2 * n:], np.eye(n),
                       np.zeros((n, nw)))
    R2sys = StateSpace(E2sys.A, E2sys.B, plant.C2, plant.D21)
    E1sys = StateSpace(A[n:, n:], B[n:], np.hstack([np.eye(n), np.eye(n)]),
                       np.zeros((n, nw)))
    S_B = -b.L_cen[:plant.n1, :].copy()
    S_B[:, :k1] += b.L_loc1
    S_D = np.zeros((k1, plant.k))
    S_D[:, :k1] = np.eye(k1)
    R1sys = StateSpace(b.A_filt1, S_B, plant.C2_11, S_D) * R2sys
    eye = StateSpace.gain(np.eye(n))
    r1 = va._causal_size(va._stable_sandwich(eye, E1sys, R1sys))
    r2 = va._causal_size(va._stable_sandwich(eye, E2sys, R2sys))
    return r1, r2, R1sys


# the fixture, the decoupled plant and the first eight (2, 2) plants of the
# acceptance ensemble's seed sequence
ORTHOGONALITY_PLANTS = [make_random_fixture, make_decoupled] + [
    (lambda seed=1000 + 97 * i: random_plant(seed, n_split=(2, 2)))
    for i in range(8)]
ORTHOGONALITY_IDS = ["fixture", "decoupled"] + [
    f"seed{1000 + 97 * i}" for i in range(8)]


@pytest.mark.parametrize("make", ORTHOGONALITY_PLANTS, ids=ORTHOGONALITY_IDS)
def test_loop_read_orthogonality_matches_the_sandwich_route(make):
    plant = make()
    synth = optimal_controller(plant)
    want1, want2, R1sys = _sandwich_route(plant, synth)
    r1, r2 = va.orthogonality_residuals(plant, synth)
    assert abs(r1 - want1) <= 1e-10
    assert abs(r2 - want2) <= 1e-10
    # y1 - C2[:k1] zeta read off the loop is the same transfer function as
    # the shared innovations filtered through the local estimator loop
    n, k1 = plant.n, plant.k1
    A, B = error_coordinates(synth.closed_loop, n)
    to_err1 = np.hstack([np.eye(n), np.eye(n)])
    loop_read = StateSpace(A[n:, n:], B[n:], plant.C2[:k1] @ to_err1,
                           plant.D21[:k1])
    for s in EVAL_POINTS:
        want = R1sys.eval_at(s)
        assert np.linalg.norm(loop_read.eval_at(s) - want) \
            <= 1e-12 * (1.0 + np.linalg.norm(want))


def _perturb_lower_block(synth, n, block, rel):
    """Add a random block of norm rel * ||closed_loop.A|| to one strictly
    lower block of the loop in (zeta, xi - zeta, x - xi), in place."""
    A, _ = error_coordinates(synth.closed_loop, n)
    i, j = block
    E = np.random.default_rng(5).standard_normal((n, n))
    A[i * n:(i + 1) * n, j * n:(j + 1) * n] += \
        rel * np.linalg.norm(synth.closed_loop.A) / np.linalg.norm(E) * E
    # (x, zeta, xi) = M (zeta, xi - zeta, x - xi), and M^-1 is exact
    I, Z = np.eye(n), np.zeros((n, n))
    M = np.block([[I, I, I], [I, Z, Z], [I, I, Z]])
    M_inv = np.block([[Z, I, Z], [Z, -I, I], [I, Z, -I]])
    synth.closed_loop.A[:] = M @ A @ M_inv


@pytest.mark.parametrize("block", [(1, 0), (2, 0), (2, 1)])
def test_gramian_refuses_a_loop_that_does_not_separate(block):
    # the loop factors take their Schur form from the diagonal blocks with
    # zeros below them, but the Lyapunov residual is checked against the
    # loop itself
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    _perturb_lower_block(synth, plant.n, block, 1e-6)
    hats = va.hat_pair(plant, synth)
    with pytest.raises(SolverError, match="Lyapunov residual"):
        va.closed_loop_gramian(plant, synth, hats)


def test_loop_checks_factor_no_matrix_beyond_n(monkeypatch):
    # the gap Lyapunov pair, the Gramian, both orthogonality products and
    # the design norm that delta_cost reads share three n x n Schur forms,
    # of A_ctrl, A_gap and A_filt; the Gramian's reference Z factors A_ctrl
    # once more through solve_lyapunov; no 2n- or 3n-state matrix is
    # factored
    import scipy.linalg

    plant = random_plant(0, (4, 4), (4, 4), (4, 4))
    synth = optimal_controller(plant)
    rows = []
    original = scipy.linalg.schur

    def counted(a, *args, **kwargs):
        rows.append(np.shape(a)[0])
        return original(a, *args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "schur", counted)
    hats = va.hat_pair(plant, synth)
    va.closed_loop_gramian(plant, synth, hats)
    va.orthogonality_residuals(plant, synth)
    va.delta_cost(plant, synth, hats)
    assert rows == [plant.n] * 4


SHARING_PLANTS = [make_random_fixture, lambda: random_plant(0, (8, 8), (8, 8),
                                                            (8, 8))]


@pytest.mark.parametrize("make", SHARING_PLANTS)
def test_loop_gramian_tails_are_the_tail_gramians(make):
    # the orthogonality products read their W from the loop's Gramian;
    # each trailing block must be what a solve of the tail alone gives
    factors = optimal_controller(make()).loop_factors
    for start in (1, 2):
        A, B, _, W = factors.tail(start)
        ref = solve_lyapunov(A, B @ B.T)
        assert np.linalg.norm(W - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("make", SHARING_PLANTS)
def test_design_norm_reads_the_loop_gramian(make):
    factors = optimal_controller(make()).loop_factors
    C = factors.loop.C
    sq = np.trace(C @ factors.gramian @ C.T)
    assert factors.h2_norm ** 2 == pytest.approx(sq, rel=1e-14)


def test_orthogonality_of_a_detuned_design_matches_its_own_tail():
    # away from the optimum r1 is far from zero, so a W read from the wrong
    # block of the loop's Gramian would show; the reference solves the
    # tail's Gramian on its own and takes the norm through h2_norm
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    L_pert = synth.L_common.copy()
    L_pert[0, 0] += 0.1
    A_gap = plant.A + plant.B2 @ synth.K_private + L_pert @ plant.C2
    controller, _ = controller_realizations(plant, synth.bundle,
                                            synth.K_private, L_pert)
    closed = lft_lower(plant.generalized(), controller, plant.nz, plant.nw)
    detuned = dataclasses.replace(synth, A_gap=A_gap, L_common=L_pert,
                                  controller=controller, closed_loop=closed)
    r1, _ = va.orthogonality_residuals(plant, detuned)
    n, k1 = plant.n, plant.k1
    A, B, _, _ = detuned.loop_factors.tail(1)
    W = solve_lyapunov(A, B @ B.T)
    to_err = np.hstack([np.eye(n), np.eye(n)])
    B_stable = B @ plant.D21[:k1].T + W @ (plant.C2[:k1] @ to_err).T
    stable = StateSpace(A, B_stable, to_err, np.zeros((n, k1)))
    ref = h2_norm(stable)
    assert ref > 1e-3
    assert abs(r1 - ref) <= 1e-10 * ref


def test_orthogonality_residuals_vanish_at_optimum():
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    r1, r2 = va.orthogonality_residuals(plant, synth)
    assert r1 < 1e-7
    assert r2 < 1e-7


def test_orthogonality_flags_suboptimal_injection():
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    L_pert = synth.L_common.copy()
    L_pert[0, 0] += 0.1
    A_gap = plant.A + plant.B2 @ synth.K_private + L_pert @ plant.C2
    assert is_hurwitz(A_gap)
    controller, _ = controller_realizations(plant, synth.bundle,
                                            synth.K_private, L_pert)
    closed = lft_lower(plant.generalized(), controller, plant.nz, plant.nw)
    detuned = dataclasses.replace(synth, A_gap=A_gap, L_common=L_pert,
                                  controller=controller, closed_loop=closed)
    r1, r2 = va.orthogonality_residuals(plant, detuned)
    assert r1 > 1e-3
    assert r2 < 1e-7


# ---------------------------------------------------------------------------
# Cost of decentralization


def test_delta_cost_zero_for_decoupled():
    plant = make_decoupled()
    synth = optimal_controller(plant)
    hats = va.hat_pair(plant, synth)
    d_ty, d_tx, d_loop = va.delta_cost(plant, synth, hats)
    assert abs(d_ty) < 1e-8
    assert abs(d_tx) < 1e-8
    assert abs(d_loop) < 1e-8


def test_delta_cost_zero_when_second_measurement_pure_noise():
    plant = make_pure_noise_channel()
    synth = optimal_controller(plant)
    hats = va.hat_pair(plant, synth)
    d_ty, _, _ = va.delta_cost(plant, synth, hats)
    assert abs(d_ty) < 1e-8
    assert abs(_closed_norm(plant, synth) - centralized_h2(plant)[1]) < 1e-8


def test_delta_cost_random_fixture_frozen():
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    hats = va.hat_pair(plant, synth)
    d_ty, d_tx, d_loop = va.delta_cost(plant, synth, hats)
    assert abs(d_ty - RANDOM_DELTA) < 1e-9
    assert abs(d_tx - d_ty) < 1e-9
    assert abs(d_loop - d_ty) < 1e-9
    n_struct = _closed_norm(plant, synth)
    n_cen = centralized_h2(plant)[1]
    assert abs(n_struct - RANDOM_STRUCT_NORM) < 1e-9
    assert abs(n_cen - RANDOM_CENTRAL_NORM) < 1e-9
    assert abs(d_ty - (n_struct ** 2 - n_cen ** 2)) < 1e-6 * (1.0 + d_ty)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library", 1)[1] \
        .split("```python\n", 1)[1].split("```", 1)[0]
    code = re.sub(r"^plant = \.\.\..*$", "plant = make_random_fixture()",
                  example, flags=re.M)
    assert code != example
    scope = {"make_random_fixture": make_random_fixture}
    exec(code, scope)
    assert abs(scope["delta"] - RANDOM_DELTA) < 1e-9


# ---------------------------------------------------------------------------
# Parameter extraction and the structured optimality certificate


def test_youla_parameters_structure():
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    data = youla_data(plant, synth.bundle)
    Q_opt, Q_you = va.youla_parameters(
        plant, synth, va.parameter_frame(plant, synth, data))
    assert Q_opt.nx == 2 * plant.n
    assert is_hurwitz(Q_opt.A)
    assert np.array_equal(Q_you.A, synth.A_gap)
    assert Q_you.ny == plant.m and Q_you.nu == plant.k


def test_structured_residual_zero_at_optimum():
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    data = youla_data(plant, synth.bundle)
    res = va.structured_optimality_residual(data, synth.closed_loop)
    assert res[0, 1] == 0.0
    assert res.max() < 1e-7


def test_structured_residual_flags_zero_parameter():
    # the zero parameter closes the nominal controller, whose loop is T11
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    data = youla_data(plant, synth.bundle)
    res = va.structured_optimality_residual(data, data.T11)
    assert max(res[0, 0], res[1, 0], res[1, 1]) > 1e-3


def _constrained_residual(plant, synth, cl):
    res = va.structured_optimality_residual(youla_data(plant, synth.bundle), cl)
    return max(res[0, 0], res[1, 0], res[1, 1])


@pytest.mark.parametrize("seed", [None, 1000, 1097, 1194, 1291, 1388, 1485])
def test_structured_residual_flags_a_detuned_player_2(seed):
    # player 2 may use every state, so the detuned controller stays block
    # lower; its loop must fail the verify gate of 1e-6
    plant = make_random_fixture() if seed is None \
        else random_plant(seed, n_split=(2, 2))
    synth = optimal_controller(plant)
    detuned = detuned_controller(plant, synth, 1.0 + 1e-4,
                                 columns=slice(0, plant.n))
    assert _constrained_residual(plant, synth, detuned.closed_loop) > 1e-6


@pytest.mark.parametrize("seed", [5559, 7014, 26220, 32137])
def test_structured_residual_at_optimum_with_large_local_solutions(seed):
    # the loop rebuilt as T11 + T12 Q T21 and reduced by minreal read 6e-6
    # to 2e-5 on these plants; the plant's own loop carries no cancellations
    plant = random_plant(seed, n_split=(2, 2))
    synth = optimal_controller(plant)
    assert _constrained_residual(plant, synth, synth.closed_loop) <= 1e-6


@pytest.mark.parametrize("seed", [6432, 7111])
def test_structured_residual_at_optimum_below_the_old_rounding_floor(seed):
    # a minreal that re-factors the whole Krylov basis at every step leaves
    # a rounding floor of 8e-7 (6432) and 1e-5 (7111) on these optimal
    # loops; the staircase reads 7.7e-11 and 1.2e-9, while a 1e-4 detuning
    # of player 2 still reads 3.5e-2 and 0.8
    plant = random_plant(seed, n_split=(2, 2))
    synth = optimal_controller(plant)
    assert _constrained_residual(plant, synth, synth.closed_loop) <= 1e-8
    detuned = detuned_controller(plant, synth, 1.0 + 1e-4)
    assert _constrained_residual(plant, synth, detuned.closed_loop) > 1e-6


@pytest.mark.parametrize("factor", [1.0 + 1e-6, 1.0 + 1e-4])
def test_structured_residual_reports_rather_than_aborts(factor):
    # on plant 14580 player 2's detuned loop leaves a causal block whose two
    # Gramian trace forms disagree (7.7e-3 against 8.8 at 1e-6); the size
    # reads the larger form, 9.4e-2 and 9.75, where h2_norm's consistency
    # gate raised before. The optimum still reads 2.8e-8
    plant = random_plant(14580, n_split=(2, 2))
    synth = optimal_controller(plant)
    assert _constrained_residual(plant, synth, synth.closed_loop) <= 1e-7
    detuned = detuned_controller(plant, synth, factor)
    assert _constrained_residual(plant, synth, detuned.closed_loop) > 1e-2


def test_structured_residual_requires_partition():
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    data = dataclasses.replace(youla_data(plant, synth.bundle), partition=None)
    with pytest.raises(ValueError, match="partition"):
        va.structured_optimality_residual(data, synth.closed_loop)


def test_structured_residual_refuses_an_unstable_loop():
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    data = youla_data(plant, synth.bundle)
    cl = synth.closed_loop
    with pytest.raises(SolverError, match="^closed loop is not Hurwitz$"):
        va.structured_optimality_residual(
            data, StateSpace(-cl.A, cl.B, cl.C, cl.D))


def _anti_stable(g):
    return StateSpace(-g.A, g.B, g.C, g.D)


def test_sandwich_refuses_unstable_factors():
    rng = np.random.default_rng(31)
    left = _random_stable(rng, 2, 1, 2)
    mid = _random_stable(rng, 3, 2, 2)
    right = _random_stable(rng, 2, 2, 1)
    with pytest.raises(SolverError, match="^adjoint projection requires a "
                                          "stable left factor$"):
        va._stable_sandwich(_anti_stable(left), mid, right)
    with pytest.raises(SolverError, match="^adjoint projection requires a "
                                          "stable right factor$"):
        va._stable_sandwich(left, mid, _anti_stable(right))
    with pytest.raises(SolverError, match="^closed loop is not Hurwitz$"):
        va._stable_sandwich(left, _anti_stable(mid), right)


@pytest.mark.parametrize("empty", ["left", "mid", "right", "all"])
def test_sandwich_with_static_factors(empty):
    rng = np.random.default_rng(32)
    factors = {"left": _random_stable(rng, 2, 1, 2),
               "mid": _random_stable(rng, 3, 2, 2),
               "right": _random_stable(rng, 2, 2, 1)}
    for name in factors if empty == "all" else (empty,):
        factors[name] = StateSpace.gain(factors[name].D)
    left, mid, right = factors["left"], factors["mid"], factors["right"]
    full = left.conjugate_transpose() * mid * right.conjugate_transpose()
    split, _ = stable_antistable_decompose(full)
    sandwich = va._stable_sandwich(left, mid, right)
    assert sandwich.nx == mid.nx
    for s in EVAL_POINTS:
        b = split.eval_at(s)
        assert np.linalg.norm(sandwich.eval_at(s) - b) \
            < 1e-9 * (1.0 + np.linalg.norm(b))


def test_centralized_match_recovers_embedded_parameter():
    # With identity outer factors the matching problem min ||T11 + Q|| over
    # stable Q has the closed-form answer Q = -T11, so the Riccati route must
    # reproduce it and its own certificate must accept the result.
    G = StateSpace([[-1.0, 0.5], [0.0, -3.0]], np.eye(2),
                   [[1.0, 0.0], [0.3, 1.0]], np.zeros((2, 2)))
    T11 = StateSpace(G.A, G.B, -G.C, np.zeros((2, 2)))
    eye = StateSpace.gain(np.eye(2))
    Q = va.centralized_model_match(T11, eye, eye)
    assert tf_mismatch(Q, G) < 1e-10
    assert h2_norm(minreal(T11 + eye * Q * eye)) < 1e-10


def test_centralized_match_rejects_feedthrough_target():
    G = StateSpace([[-2.0]], [[1.0]], [[1.0]], [[1.0]])
    eye = StateSpace.gain(np.eye(1))
    with pytest.raises(AssumptionError, match="feedthrough"):
        va.centralized_model_match(G, eye, eye)


# ---------------------------------------------------------------------------
# Vectorization oracle


def test_oracle_agrees_with_synthesis():
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    data = youla_data(plant, synth.bundle)
    Q_oracle, n_oracle = va.vectorization_oracle(data)
    n_struct = _closed_norm(plant, synth)
    assert abs(n_oracle - n_struct) < 1e-6 * (1.0 + n_struct)
    Q_opt, _ = va.youla_parameters(
        plant, synth, va.parameter_frame(plant, synth, data))
    assert tf_mismatch(Q_oracle, Q_opt) < 1e-6


def test_oracle_unconstrained_matches_centralized_match():
    plant = make_decoupled_crosscost()
    synth = optimal_controller(plant)
    data = youla_data(plant, synth.bundle)
    _, n_uncon = va.vectorization_oracle(
        dataclasses.replace(data, partition=None))
    Q_cen = va.centralized_model_match(data.T11, data.T12, data.T21)
    n_cen = h2_norm(minreal(data.T11 + data.T12 * Q_cen * data.T21))
    assert abs(n_uncon - n_cen) < 1e-8
    _, n_con = va.vectorization_oracle(data)
    assert n_con >= n_uncon - 1e-10


def test_oracle_state_guard_trips(monkeypatch):
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    data = youla_data(plant, synth.bundle)
    monkeypatch.setattr(va, "ORACLE_STATE_GUARD", 3)
    calls = []
    vec_system = va._vec_system
    monkeypatch.setattr(va, "_vec_system",
                        lambda sys: calls.append(sys) or vec_system(sys))
    with pytest.raises(SolverError, match="guard"):
        va.vectorization_oracle(data)
    # the lifted factor alone exceeds the guard, so the target's
    # vectorization is never built
    assert calls == []


def test_oracle_joint_guard_reads_the_riccati_size(monkeypatch):
    # the reduced lifted factor has 15 states and passes; the second guard
    # reads the joint realization, whose 71 states size the Riccati pair
    plant = random_plant(0, n_split=(3, 2))
    synth = optimal_controller(plant)
    data = youla_data(plant, synth.bundle)
    monkeypatch.setattr(va, "ORACLE_STATE_GUARD", 50)
    calls = []
    vec_system = va._vec_system
    monkeypatch.setattr(va, "_vec_system",
                        lambda sys: calls.append(sys) or vec_system(sys))
    with pytest.raises(SolverError, match="vectorized problem has 71 states "
                                          "after reduction"):
        va.vectorization_oracle(data)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Fixed points and the Monte Carlo covariance check


def test_fixed_point_maps_agree_with_parameter_blocks():
    plant = make_random_fixture()
    synth = optimal_controller(plant)
    data = youla_data(plant, synth.bundle)
    frame = va.parameter_frame(plant, synth, data)
    g1, g2 = va.fixed_point_maps(plant, frame)
    assert (g1.ny, g1.nu) == (plant.m2, plant.k2)
    assert (g2.ny, g2.nu) == (plant.m1, plant.k1)
    assert is_hurwitz(g1.A) and is_hurwitz(g2.A)
    Q_opt, _ = va.youla_parameters(plant, synth, frame)
    blk11 = Q_opt.subsystem(rows=slice(0, plant.m1), cols=slice(0, plant.k1))
    assert tf_mismatch(g2, blk11) < 1e-7


@pytest.mark.parametrize("make", [
    make_random_fixture,
    lambda: random_plant(1000, n_split=(2, 2)),
    lambda: random_plant(0, (8, 8), (8, 8), (8, 8)),
], ids=["fixture", "plant-1000", "n16"])
def test_parameter_frame_reads_the_closures_as_their_realizations(make):
    # the frame reads Q_lft and K_round by the LFT formula on the factors'
    # values; the 3n-state realizations of the two-port closures, evaluated
    # at the same points, stay the reference
    plant = make()
    synth = optimal_controller(plant)
    data = youla_data(plant, synth.bundle)
    frame = va.parameter_frame(plant, synth, data)
    for got, closure in (
            (frame.q_lft, q_from_controller(data, synth.controller)),
            (frame.k_round, controller_from_q(data, frame.Q_opt))):
        assert frame.alpha >= np.linalg.norm(closure.A, 2)
        want = closure.eval_at(frame.alpha * TF_POINTS)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("make", [
    make_random_fixture,
    lambda: random_plant(1000, n_split=(2, 2)),
    lambda: random_plant(0, (8, 8), (8, 8), (8, 8)),
], ids=["fixture", "plant-1000", "n16"])
def test_tf_mismatch_agrees_with_the_markov_oracle(make):
    # the two comparisons of youla_parameters, read by the package's point
    # comparator and by the Markov oracle, then a 1e-10 change of K_round
    plant = make()
    synth = optimal_controller(plant)
    data = youla_data(plant, synth.bundle)
    Q_opt = va.parameter_frame(plant, synth, data).Q_opt
    Q_lft = q_from_controller(data, synth.controller)
    K_round = controller_from_q(data, Q_opt)
    for g1, g2 in ((Q_opt, Q_lft), (K_round, synth.controller)):
        assert tf_mismatch(g1, g2) <= 1e-14
        assert markov_mismatch(g1, g2) <= 1e-14
    C = K_round.C.copy()
    C[np.unravel_index(np.abs(C).argmax(), C.shape)] *= 1.0 + 1e-10
    twin = StateSpace(K_round.A, K_round.B, C, K_round.D)
    points = tf_mismatch(twin, synth.controller)
    markov = markov_mismatch(twin, synth.controller)
    assert 0.5 * markov <= points <= 2.0 * markov


# The edge cases below pin the package's comparator `tf_mismatch` and the
# test-side Markov oracle to the same verdicts.


@pytest.mark.parametrize("g2", [StateSpace(-1.0, np.nan, 1.0, 0.0),
                                StateSpace(-1.0, 1.0, np.nan, 0.0),
                                StateSpace(np.nan, 1.0, 1.0, 0.0),
                                StateSpace([[-1.0, np.nan, 0.0],
                                            [0.0, -2.0, 0.0],
                                            [0.0, 0.0, -3.0]],
                                           np.ones((3, 1)), np.ones((1, 3)),
                                           0.0)])
def test_markov_mismatch_refuses_nan(g2):
    # a NaN in any parameter but the first used to drop out of max()
    g1 = StateSpace(-1.0, 1.0, 1.0, 0.0)
    for mismatch in (tf_mismatch, markov_mismatch):
        assert np.isnan(mismatch(g1, g2))
        assert np.isnan(mismatch(g2, g1))
        assert mismatch(g1, g1) == 0.0


def _monic_companion(num, den):
    """Controllable canonical realization of num(s) / den(s), den monic and
    of higher degree; coefficients from the highest power down."""
    n = len(den) - 1
    A = np.eye(n, k=1)
    A[-1, :] = -np.asarray(den[:0:-1], dtype=float)
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    num = np.concatenate([np.zeros(n - len(num)), num])
    return StateSpace(A, B, np.asarray(num[::-1], dtype=float)[None, :],
                      np.zeros((1, 1)))


@pytest.mark.parametrize("num1, den1, den2", [
    # (s+1)^2 / ((s+1)^3 + eps) against 1 / (s+1): nx = (3, 1)
    ([1.0, 2.0, 1.0], [1.0, 3.0, 3.0, 1.0 + 0.5], [1.0, 1.0]),
    # 1 / ((s+1)^2 + eps) against 1 / (s+1)^2: nx = (2, 2)
    ([1.0], [1.0, 2.0, 1.0 + 0.5], [1.0, 2.0, 1.0]),
])
def test_markov_mismatch_reads_a_difference_first_shown_at_index_n(
        num1, den1, den2):
    # the difference is -eps / (den1 den2) up to sign, of relative degree
    # N = nx1 + nx2, so its Markov parameters vanish through index N - 1
    # and first show at index N: a count of N parameters reads no mismatch;
    # at the scaled points the difference is small but not zero
    g1 = _monic_companion(num1, den1)
    g2 = _monic_companion([1.0], den2)
    N = g1.nx + g2.nx
    _, (p1, p2) = scaled_markov_parameters([g1, g2], N + 1)
    assert np.abs(p1[:N] - p2[:N]).max() < 1e-15
    assert abs(p1[N] - p2[N]).max() > 1e-3 * peak(p1)
    for mismatch in (tf_mismatch, markov_mismatch):
        assert mismatch(g1, g2) > 1e-3


def test_markov_mismatch_on_a_stiff_realization():
    # raw Markov parameters of a 60-state system with ||A|| ~ 1e7 overflow;
    # both realizations are compared at one common frequency scale
    rng = np.random.default_rng(4)
    A = 1e6 * rng.standard_normal((60, 60))
    g1 = StateSpace(A, 1e3 * rng.standard_normal((60, 2)),
                    1e3 * rng.standard_normal((2, 60)), np.zeros((2, 2)))
    T = np.eye(60) + 0.1 * rng.standard_normal((60, 60))
    Ti = np.linalg.inv(T)
    g2 = StateSpace(Ti @ g1.A @ T, Ti @ g1.B, g1.C @ T, g1.D)
    g3 = StateSpace(g1.A, g1.B, 1.001 * g1.C, g1.D)
    for mismatch in (tf_mismatch, markov_mismatch):
        assert mismatch(g1, g2) < 1e-12
        assert mismatch(g1, g3) > 1e-4


def test_markov_mismatch_is_relative_to_a_small_scaled_peak():
    # unit-size B and C under ||A|| ~ 1e7: the frequency-scaled parameters
    # peak near 1e-6, so a floor of 1 + peak would hide a 0.1 % change of C
    rng = np.random.default_rng(4)
    g1 = StateSpace(1e6 * rng.standard_normal((60, 60)),
                    rng.standard_normal((60, 2)),
                    rng.standard_normal((2, 60)), np.zeros((2, 2)))
    count = 2 * g1.nx + 2
    _, (p1,) = scaled_markov_parameters([g1], count)
    assert peak(p1) < 1e-5
    g3 = StateSpace(g1.A, g1.B, 1.001 * g1.C, g1.D)
    for mismatch in (tf_mismatch, markov_mismatch):
        assert mismatch(g1, g3) >= 1e-4


def test_markov_mismatch_of_a_zero_transfer_function_at_rounding_level():
    # an exactly zero realization against a cancelled zero that carries two
    # ulps of noise: equal transfer functions, not a full mismatch
    rng = np.random.default_rng(2)
    A = -np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 2))
    C = rng.standard_normal((2, 4))
    Z = np.zeros((4, 4))
    noisy = StateSpace(np.block([[A, Z], [Z, A]]), np.vstack([B, B]),
                       np.hstack([C, -C * (1.0 + 4e-16)]), np.zeros((2, 2)))
    zero = StateSpace(A, np.zeros((4, 2)), C, np.zeros((2, 2)))
    for mismatch in (tf_mismatch, markov_mismatch):
        assert mismatch(zero, noisy) < 1e-7
        assert mismatch(zero, zero) == 0.0


def test_simulated_covariance_matches_gap_lyapunov():
    plant = make_decoupled()
    synth = optimal_controller(plant)
    target = va.hat_pair(plant, synth).Y_common
    sim = va.simulated_error_covariance(plant, synth, seed=11)
    rel = np.linalg.norm(sim - target) / np.linalg.norm(target)
    assert rel < 0.05


# ---------------------------------------------------------------------------
# Property tests


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_sandwich_matches_schur_decomposition(seed):
    # The certificate path projects adjoint products onto stability through
    # coupled Sylvester solves; the ordered-Schur split must give the same
    # transfer function, so the two routes check each other.
    rng = np.random.default_rng(seed)
    left = _random_stable(rng, 2, 1, 2)
    mid = _random_stable(rng, 3, 2, 2)
    right = _random_stable(rng, 2, 2, 1)
    full = (left.conjugate_transpose() * mid * right.conjugate_transpose())
    split, _ = stable_antistable_decompose(full)
    sandwich = va._stable_sandwich(left, mid, right)
    for s in EVAL_POINTS:
        a = sandwich.eval_at(s)
        b = split.eval_at(s)
        assert np.linalg.norm(a - b) < 1e-7 * (1.0 + np.linalg.norm(b))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_validation_chain_on_random_plants(seed):
    plant = random_plant(seed)
    synth = optimal_controller(plant)
    hats = va.hat_pair(plant, synth)
    va.identity_chain(plant, synth, hats)
    r1, r2 = va.orthogonality_residuals(plant, synth)
    assert max(r1, r2) < 1e-6
    d_ty, _, _ = va.delta_cost(plant, synth, hats)
    assert d_ty >= -1e-9
