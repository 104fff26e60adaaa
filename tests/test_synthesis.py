import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesth2.statespace import StateSpace, is_block_lower_tf, lft_lower
from nesth2.linalg import SolverError, h2_norm, is_hurwitz
from nesth2.plant import AssumptionError, cost_cov_matrices
from nesth2.stabilization import nominal_controller, youla_data
from nesth2.synthesis import (
    _CouplingTerms,
    centralized_h2,
    controller_realizations,
    dual_plant,
    SEPARATION_TOL,
    error_coordinates,
    optimal_controller,
    solve_four_ares,
    solve_phi_psi,
    structured_gains,
    swap_transpose,
)
from nesth2.fixtures import (
    make_decoupled,
    make_decoupled_crosscost,
    make_filter_example,
    make_pure_noise_channel,
    make_random_fixture,
    make_unstabilizable_pair,
    random_plant,
)

from markov_oracle import markov_parameters

SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)


def _closed_loop(plant, K):
    return lft_lower(plant.generalized(), K, nz=plant.nz, nw=plant.nw)


def _coupling_residuals(plant, bundle, Phi, Psi):
    """Evaluate both coupling equations directly from their displayed form."""
    cc = cost_cov_matrices(plant)
    n1 = plant.n1
    dX = bundle.X_loc2 - bundle.X_cen[n1:, n1:]
    dY = bundle.Y_loc1 - bundle.Y_cen[:n1, :n1]
    Vinv = np.linalg.inv(cc.V11)
    Rinv = np.linalg.inv(cc.R22)
    r_phi = (bundle.A_ctrl2.T @ Phi + Phi @ bundle.A_filt1
             - dX @ (Psi @ plant.C2_11.T + cc.U12.T) @ Vinv @ plant.C2_11
             + bundle.X_loc2 @ plant.A21 + bundle.K_loc2.T @ cc.S12.T + cc.Q21
             - bundle.X_cen[n1:, :n1] @ bundle.L_loc1 @ plant.C2_11)
    r_psi = (bundle.A_ctrl2 @ Psi + Psi @ bundle.A_filt1.T
             - plant.B2_22 @ Rinv @ (plant.B2_22.T @ Phi + cc.S12.T) @ dY
             + plant.A21 @ bundle.Y_loc1 + cc.U12.T @ bundle.L_loc1.T + cc.W21
             - plant.B2_22 @ bundle.K_loc2 @ bundle.Y_cen[n1:, :n1])
    return np.linalg.norm(r_phi), np.linalg.norm(r_psi)


def build_phi_psi_system(plant, bundle):
    """Dense oracle: both coupling equations as one linear system.

    Unknowns are vec(X_cross) then vec(Y_cross), column-major. Returns
    (M, b) with M square of side 2 * n1 * n2 and M z = b equivalent to the
    two matrix equations of `_CouplingTerms`.
    """
    t = _CouplingTerms(plant, bundle)
    I1 = np.eye(t.n1)
    I2 = np.eye(t.n2)
    CVC = t.C11.T @ t.ViC
    BRB = t.B22 @ t.RiB
    row_phi = np.hstack([
        np.kron(I1, t.AJ.T) + np.kron(t.AM.T, I2),
        -np.kron(CVC.T, t.dX),
    ])
    row_psi = np.hstack([
        -np.kron(t.dY.T, BRB),
        np.kron(I1, t.AJ) + np.kron(t.AM, I2),
    ])
    M = np.vstack([row_phi, row_psi])
    b = -np.concatenate([t.G_phi.flatten(order="F"),
                         t.G_psi.flatten(order="F")])
    return M, b


def test_four_ares_frozen_decoupled():
    bundle = solve_four_ares(make_decoupled())
    expected = np.diag([SQRT2 - 1.0, SQRT5 - 2.0])
    assert np.allclose(bundle.X_cen, expected, atol=1e-10)
    assert np.allclose(bundle.Y_cen, expected, atol=1e-10)
    assert np.allclose(bundle.K_cen, -expected, atol=1e-10)
    assert np.allclose(bundle.L_cen, -expected, atol=1e-10)
    assert abs(bundle.X_loc2.item() - (SQRT5 - 2.0)) < 1e-10
    assert abs(bundle.Y_loc1.item() - (SQRT2 - 1.0)) < 1e-10
    for A in (bundle.A_ctrl, bundle.A_filt, bundle.A_ctrl2, bundle.A_filt1):
        assert is_hurwitz(A, margin=0.0)
    assert max(bundle.residuals) < 1e-8


def test_four_ares_reports_failing_equation():
    with pytest.raises(SolverError, match="player-1 local filter"):
        solve_four_ares(make_unstabilizable_pair())


def test_phi_psi_decoupled_is_zero():
    plant = make_decoupled()
    bundle = solve_four_ares(plant)
    M, rhs = build_phi_psi_system(plant, bundle)
    assert M.shape == (2, 2)
    assert np.abs(rhs).max() < 1e-12
    sol = solve_phi_psi(plant, bundle)
    assert np.abs(sol.X_cross).max() < 1e-10
    assert np.abs(sol.Y_cross).max() < 1e-10
    assert max(sol.residuals) < 1e-10


def test_phi_psi_scalar_cramer_oracle():
    # With one state per player the stacked system is 2x2, so the solution
    # can be eliminated by hand; the solver must reproduce it exactly.
    plant = random_plant(seed=5, n_split=(1, 1))
    bundle = solve_four_ares(plant)
    cc = cost_cov_matrices(plant)
    aJ = bundle.A_ctrl2.item()
    aM = bundle.A_filt1.item()
    dX = bundle.X_loc2.item() - bundle.X_cen[1, 1]
    dY = bundle.Y_loc1.item() - bundle.Y_cen[0, 0]
    c11 = plant.C2_11.item()
    b22 = plant.B2_22.item()
    v11 = cc.V11.item()
    r22 = cc.R22.item()
    J = bundle.K_loc2.item()
    M = bundle.L_loc1.item()
    g1 = (bundle.X_loc2.item() * plant.A21.item() + J * cc.S12.item()
          + cc.Q21.item() - bundle.X_cen[1, 0] * M * c11
          - dX * cc.U12.item() * c11 / v11)
    g2 = (plant.A21.item() * bundle.Y_loc1.item() + cc.U12.item() * M
          + cc.W21.item() - b22 * J * bundle.Y_cen[1, 0]
          - b22 * cc.S12.item() * dY / r22)
    diag = aJ + aM
    cvc = c11 * c11 / v11
    brb = b22 * b22 / r22
    det = diag * diag - (cvc * dX) * (brb * dY)
    phi = (-g1 * diag - (cvc * dX) * g2) / det
    psi = (-g2 * diag - (brb * dY) * g1) / det

    Mm, rhs = build_phi_psi_system(plant, bundle)
    assert np.allclose(Mm, [[diag, -cvc * dX], [-brb * dY, diag]], atol=1e-12)
    assert np.allclose(rhs, [-g1, -g2], atol=1e-12)
    sol = solve_phi_psi(plant, bundle)
    assert abs(sol.X_cross.item() - phi) < 1e-10 * (1.0 + abs(phi))
    assert abs(sol.Y_cross.item() - psi) < 1e-10 * (1.0 + abs(psi))


def test_phi_psi_residuals_random():
    plant = make_random_fixture()
    bundle = solve_four_ares(plant)
    sol = solve_phi_psi(plant, bundle)
    r_phi, r_psi = _coupling_residuals(plant, bundle, sol.X_cross, sol.Y_cross)
    assert r_phi < 1e-8
    assert r_psi < 1e-8
    M, rhs = build_phi_psi_system(plant, bundle)
    z = np.concatenate([sol.X_cross.flatten(order="F"),
                        sol.Y_cross.flatten(order="F")])
    assert np.linalg.norm(M @ z - rhs) < 1e-8 * (1.0 + np.linalg.norm(rhs))


def test_coupling_solution_off_its_residual_gate_is_refused(monkeypatch):
    # GMRES's answer is moved by 1e-3; Y_cross is recovered from it exactly,
    # so the X_cross equation reads the move
    import nesth2.synthesis as synthesis

    plant = make_random_fixture()
    bundle = solve_four_ares(plant)
    sol = solve_phi_psi(plant, bundle)
    gmres = synthesis._gmres

    def moved(apply, c, max_steps):
        x, steps, singular = gmres(apply, c, max_steps)
        return x * (1.0 + 1e-3), steps, singular

    monkeypatch.setattr(synthesis, "_gmres", moved)
    with pytest.raises(SolverError, match=re.escape(
            f"coupling residual for X_cross after {sol.steps} Krylov steps, "
            f"rank bound r = {sol.rank_bound}: ")
            + r"\S+ / \S+ against gate 1e-08$"):
        solve_phi_psi(plant, bundle)


def test_singular_coupling_system_is_refused():
    # On the scalar plant of the Cramer oracle, dX chosen so that
    # cvc dX brb dY = (aJ + aM)^2 makes the stacked determinant, and with it
    # I - K, vanish; the solve refuses instead of returning a huge answer.
    plant = random_plant(seed=5, n_split=(1, 1))
    bundle = solve_four_ares(plant)
    cc = cost_cov_matrices(plant)
    diag = bundle.A_ctrl2.item() + bundle.A_filt1.item()
    dY = bundle.Y_loc1.item() - bundle.Y_cen[0, 0]
    cvc = plant.C2_11.item() ** 2 / cc.V11.item()
    brb = plant.B2_22.item() ** 2 / cc.R22.item()
    dX = diag * diag / (cvc * brb * dY)
    patched = dataclasses.replace(bundle, X_loc2=bundle.X_cen[1:, 1:] + dX)
    with pytest.raises(SolverError, match=r"coupling equations .* singular.*"
                       r"residual/scale .* after 1 Krylov steps, rank bound "
                       r"r = 1"):
        solve_phi_psi(plant, patched)


def test_singular_sylvester_operator_is_refused():
    # A_ctrl2 and -A_filt1 share an eigenvalue: trsyl flags both Sylvester
    # operators as singular before any Krylov step.
    plant = random_plant(seed=5, n_split=(1, 1))
    bundle = solve_four_ares(plant)
    patched = dataclasses.replace(bundle, A_filt1=-bundle.A_ctrl2)
    with pytest.raises(SolverError, match=r"coupling equations .* singular: "
                       r"A_ctrl2 and -A_filt1 share an eigenvalue: "
                       r"residual/scale .* after 0 Krylov steps"):
        solve_phi_psi(plant, patched)


ORACLE_PLANTS = {
    "split-1-1": dict(seed=11, n_split=(1, 1)),
    "split-2-1": dict(seed=11, n_split=(2, 1)),
    "split-1-2": dict(seed=11, n_split=(1, 2)),
    "split-2-2": dict(seed=11, n_split=(2, 2)),
    "square-4-4": dict(seed=3, n_split=(4, 4), m_split=(4, 4), k_split=(4, 4)),
    "non-square": dict(seed=4, n_split=(3, 5), m_split=(1, 2), k_split=(2, 1)),
    "stress-16-0": dict(seed=0, n_split=(8, 8), scale_cap=None),
    "stress-24-1": dict(seed=1, n_split=(12, 12), scale_cap=None),
}


@pytest.mark.parametrize("draw", ORACLE_PLANTS.values(), ids=ORACLE_PLANTS)
def test_structured_coupling_solve_matches_dense_oracle(draw):
    plant = random_plant(**draw)
    bundle = solve_four_ares(plant)
    sol = solve_phi_psi(plant, bundle)
    M, rhs = build_phi_psi_system(plant, bundle)
    z = np.concatenate([sol.X_cross.flatten(order="F"),
                        sol.Y_cross.flatten(order="F")])
    assert np.linalg.norm(M @ z - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs))
    n1, n2 = plant.n1, plant.n2
    assert sol.rank_bound == min(n2 * plant.k1, plant.m2 * n1, n1 * n2)
    assert 1 <= sol.steps <= sol.rank_bound + 1


def test_structured_gains_frozen_decoupled():
    plant = make_decoupled()
    bundle = solve_four_ares(plant)
    sol = solve_phi_psi(plant, bundle)
    K_private, L_common = structured_gains(plant, bundle, sol)
    assert np.allclose(K_private, np.diag([0.0, 2.0 - SQRT5]), atol=1e-10)
    expected_L = np.zeros((2, 2))
    expected_L[0, 0] = 1.0 - SQRT2
    assert np.allclose(L_common, expected_L, atol=1e-10)
    assert np.abs(K_private[plant.m1:, :plant.n1]).max() < 1e-10


def test_structured_gains_sparsity_exact():
    plant = make_random_fixture()
    res = optimal_controller(plant)
    m1, k1 = plant.m1, plant.k1
    assert np.all(res.K_private[:m1, :] == 0.0)
    assert np.all(res.L_common[:, k1:] == 0.0)
    assert np.allclose(res.K_private[m1:, plant.n1:], res.bundle.K_loc2)
    assert np.allclose(res.L_common[:plant.n1, :k1], res.bundle.L_loc1)


def test_gap_dynamics_block_lower_with_local_loops():
    plant = make_random_fixture()
    res = optimal_controller(plant)
    n1 = plant.n1
    assert np.all(res.A_gap[:n1, n1:] == 0.0)
    assert np.allclose(res.A_gap[:n1, :n1], res.bundle.A_filt1, atol=1e-12)
    assert np.allclose(res.A_gap[n1:, n1:], res.bundle.A_ctrl2, atol=1e-12)
    assert is_hurwitz(res.A_gap, margin=0.0)


def _gain_built_error_coordinates(plant, synth):
    """Reference (A, B) of the loop in (zeta, xi - zeta, x - xi), assembled
    block by block from the gains instead of read off the loop."""
    b = synth.bundle
    Lh, L = synth.L_common, b.L_cen
    C2, D21 = plant.C2, plant.D21
    zero = np.zeros((plant.n, plant.n))
    A = np.block([[b.A_ctrl, -Lh @ C2, -Lh @ C2],
                  [zero, synth.A_gap, (Lh - L) @ C2],
                  [zero, zero, b.A_filt]])
    B = np.vstack([-Lh @ D21, (Lh - L) @ D21, plant.B1 + L @ D21])
    return A, B


def test_error_coordinates_match_the_gain_built_loop():
    plants = {"fixture": make_random_fixture(), "decoupled": make_decoupled()}
    for i in range(8):
        seed = 1000 + 97 * i
        plants[seed] = random_plant(seed, n_split=(2, 2))
    for name, plant in plants.items():
        synth = optimal_controller(plant)
        got = error_coordinates(synth.closed_loop, plant.n)
        for M, ref in zip(got, _gain_built_error_coordinates(plant, synth)):
            assert M.shape == ref.shape, name
            assert np.linalg.norm(M - ref) <= 1e-14 * np.linalg.norm(ref), name


def _detuned(realize, rel):
    """controller_realizations with the largest entry of the primary
    realization's A scaled by 1 + rel."""
    def wrapper(*args):
        primary, alternative = realize(*args)
        A = primary.A.copy()
        idx = np.unravel_index(np.argmax(np.abs(A)), A.shape)
        A[idx] *= 1.0 + rel
        return StateSpace(A, primary.B, primary.C, primary.D), alternative
    return wrapper


@pytest.mark.parametrize("plant", [make_random_fixture(),
                                   random_plant(0, (8, 8), (8, 8), (8, 8))],
                         ids=["fixture", "n16"])
def test_detuned_controller_fails_the_separation_certificate(plant,
                                                             monkeypatch):
    import nesth2.synthesis as synthesis

    monkeypatch.setattr(synthesis, "controller_realizations",
                        _detuned(controller_realizations, 1e-8))
    with pytest.raises(SolverError, match=r"synthesized closed loop does not "
                       r"separate into A_ctrl, A_gap and A_filt .*: "
                       r"\S+ / \S+ against gate 1e-12"):
        optimal_controller(plant)


def _couple_players(K_private, L_common):
    K_private[0, -1] = 1e-3  # player 1's input reads player 2's state


def _detune_local_filter(K_private, L_common):
    L_common[0, 0] *= 1.0 + 1e-8


@pytest.mark.parametrize("mutate, message", [
    (_couple_players, re.escape("estimate-gap dynamics are not block lower: "
                                "the (1,2) block is nonzero")),
    (_detune_local_filter, re.escape("estimate-gap dynamics do not have "
                                     "diagonal blocks A_filt1 and A_ctrl2: ")
     + r"\S+ / \S+ against gate 1e-12"),
], ids=["coupled", "detuned"])
def test_gap_certificate_names_its_failure(monkeypatch, mutate, message):
    import nesth2.synthesis as synthesis

    def gains(plant, bundle, coupling):
        K_private, L_common = structured_gains(plant, bundle, coupling)
        mutate(K_private, L_common)
        return K_private, L_common

    monkeypatch.setattr(synthesis, "structured_gains", gains)
    with pytest.raises(SolverError, match=message):
        optimal_controller(make_random_fixture())


def test_synthesis_factors_no_matrix_beyond_the_hamiltonian(monkeypatch):
    # the 3n-state loop and A_gap are certified blockwise; the largest matrix
    # factored is a 2n x 2n Hamiltonian
    import scipy.linalg

    plant = random_plant(0, (8, 8), (8, 8), (8, 8))
    rows = []
    for home, name in ((np.linalg, "eig"), (np.linalg, "eigvals"),
                       (scipy.linalg, "schur")):
        original = getattr(home, name)

        def counted(a, *args, _original=original, **kwargs):
            rows.append(np.shape(a)[0])
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(home, name, counted)
    optimal_controller(plant)
    assert rows and max(rows) <= 2 * plant.n


def _count_factorizations(monkeypatch):
    import scipy.linalg

    counts = dict.fromkeys(("eigvals", "schur"), 0)
    for home, name in ((np.linalg, "eigvals"), (scipy.linalg, "schur")):
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(home, name, counted)
    return counts


def test_synthesis_leaves_the_loop_factors_unbuilt(monkeypatch):
    # the checks' shared factorization of the loop is built on first use:
    # synthesis alone takes the coupling solve's two Schur forms, and
    # building the loop factors eagerly would add three. The plant is drawn
    # before counting, so its draw's spectra are not counted. The two
    # eigvals are player 1's PBH tests, whose single input (output) cannot
    # certify two states; the four Riccati closed loops are certified
    # Hurwitz with none
    plant = make_random_fixture()
    counts = _count_factorizations(monkeypatch)
    synth = optimal_controller(plant)
    assert counts == {"eigvals": 2, "schur": 2}
    assert "loop_factors" not in vars(synth)
    assert synth.loop_factors is synth.loop_factors
    assert counts == {"eigvals": 2, "schur": 5}


def test_synthesis_certifies_every_verdict_by_cholesky_factors(monkeypatch):
    # a plant with as many inputs and outputs per player as states: the
    # assumption checks and the four Riccati gates are all certified by
    # Cholesky factors, so no spectral test runs
    plant = random_plant(0, (16, 16), (16, 16), (16, 16))
    counts = dict.fromkeys(("eigvals", "eigvalsh", "svd"), 0)
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    optimal_controller(plant)
    assert counts == {"eigvals": 0, "eigvalsh": 0, "svd": 0}


def test_loop_factors_are_a_schur_form_of_the_loop():
    for plant in (make_random_fixture(), make_decoupled(),
                  random_plant(0, (4, 4), (4, 4), (4, 4))):
        synth = optimal_controller(plant)
        n = plant.n
        factors = synth.loop_factors
        A, B = error_coordinates(synth.closed_loop, n)
        assert np.array_equal(factors.loop.A, A)
        assert np.array_equal(factors.loop.B, B)
        # the new coordinates leave the loop's transfer function as it was
        for s in (0.3 + 0.7j, -1.2 + 2.0j):
            want = synth.closed_loop.eval_at(s)
            assert np.linalg.norm(factors.loop.eval_at(s) - want) \
                <= 1e-10 * (1.0 + np.linalg.norm(want))
        T, U = factors.schur
        assert np.linalg.norm(U.T @ U - np.eye(3 * n)) <= 1e-13 * n
        # quasi upper triangular, exact zeros below each diagonal block
        assert not np.any(np.tril(T, -2))
        for i in range(3):
            assert not np.any(T[(i + 1) * n:, i * n:(i + 1) * n])
        assert np.linalg.norm(U @ T @ U.T - A) \
            <= 10 * SEPARATION_TOL * np.linalg.norm(A)
        assert np.max(np.diag(T)) < 0.0


def test_controller_realizations_same_transfer_function():
    plant = make_random_fixture()
    res = optimal_controller(plant)
    n = plant.n
    assert res.controller.nx == 2 * n
    assert res.controller_alt.nx == 2 * n
    m1 = markov_parameters(res.controller, 4 * n + 1)
    m2 = markov_parameters(res.controller_alt, 4 * n + 1)
    for a, b in zip(m1, m2):
        assert np.linalg.norm(a - b) <= 1e-7 * (1.0 + np.linalg.norm(b))


def test_controller_block_lower_and_stabilizing():
    for plant in (make_random_fixture(),
                  random_plant(seed=33, n_split=(1, 2), m_split=(2, 1),
                               k_split=(1, 2))):
        res = optimal_controller(plant)
        assert is_block_lower_tf(res.controller, plant.partition.m,
                                 plant.partition.k, tol=1e-8)
        closed = _closed_loop(plant, res.controller)
        assert is_hurwitz(closed.A, margin=0.0)
        for M in "ABCD":
            assert np.array_equal(getattr(res.closed_loop, M),
                                  getattr(closed, M))


def test_doubling_sized_verdicts_hold():
    # the n >= 32 verdicts that the synth-scale benchmark counts: its eight
    # 32-state stress plants are refused by the Riccati stage, and its
    # square plants synthesize controllers that pass its three checks
    for seed in range(8):
        plant = random_plant(seed, n_split=(16, 16), scale_cap=None)
        with pytest.raises(SolverError, match="ARE solve failed for"):
            optimal_controller(plant)
    for n in (32, 48, 64):
        h = n // 2
        for seed in range(3):
            plant = random_plant(seed, (h, h), (h, h), (h, h))
            res = optimal_controller(plant)
            assert is_block_lower_tf(res.controller, plant.partition.m,
                                     plant.partition.k, tol=1e-8)
            assert is_hurwitz(res.A_gap, margin=0.0)
            assert is_hurwitz(res.closed_loop.A, margin=0.0)


def test_optimal_between_centralized_and_nominal():
    plant = make_random_fixture()
    res = optimal_controller(plant)
    n_opt = h2_norm(_closed_loop(plant, res.controller))
    gains = youla_data(plant, res.bundle).gains
    n_nom = h2_norm(_closed_loop(plant, nominal_controller(plant, gains)))
    _, n_cen = centralized_h2(plant)
    assert n_cen <= n_opt + 1e-9
    assert n_opt <= n_nom + 1e-9


def test_zeta_xi_blocks_match_realization():
    plant = make_random_fixture()
    res = optimal_controller(plant)
    n = plant.n
    expected_zeta = (plant.A + plant.B2 @ res.bundle.K_cen
                     + res.L_common @ plant.C2)
    assert np.allclose(res.controller.A[:n, :n], expected_zeta, atol=1e-12)


def test_synthesis_carries_the_centralized_norm():
    plant = make_random_fixture()
    res = optimal_controller(plant)
    assert res.centralized_norm == centralized_h2(plant)[1]


def test_nominal_gains_reuse_the_local_riccati_gains():
    plant = make_random_fixture()
    res = optimal_controller(plant)
    n1, m1, k1 = plant.n1, plant.m1, plant.k1
    gains = youla_data(plant, res.bundle).gains
    assert np.array_equal(gains.K_d[m1:, n1:], res.bundle.K_loc2)
    assert np.array_equal(gains.L_d[:n1, :k1], res.bundle.L_loc1)


def test_centralized_h2_trace_formulas_agree():
    plant = make_decoupled()
    K_cen, norm = centralized_h2(plant)
    bundle = solve_four_ares(plant)
    cc = cost_cov_matrices(plant)
    X, K = bundle.X_cen, bundle.K_cen
    Y, L = bundle.Y_cen, bundle.L_cen
    via_x = np.trace(X @ cc.W) + np.trace(Y @ K.T @ cc.R @ K)
    via_y = np.trace(Y @ cc.Q) + np.trace(X @ L @ cc.V @ L.T)
    assert abs(via_x - via_y) < 1e-9
    assert abs(norm - np.sqrt(via_x)) < 1e-9
    assert abs(norm - h2_norm(_closed_loop(plant, K_cen))) < 1e-9


def test_centralized_norm_refuses_trace_formulas_that_disagree():
    import nesth2.synthesis as synthesis

    plant = make_random_fixture()
    b = solve_four_ares(plant)
    with pytest.raises(SolverError, match=r"^difference of the centralized "
                       r"trace formulas: \S+ / \S+ against gate 1e-06$"):
        synthesis._centralized_norm(plant.B1, plant.C1, plant.D12, plant.D21,
                                    2.0 * b.X_cen, b.K_cen, b.Y_cen, b.L_cen)


def test_centralized_h2_matches_assembled_loop_on_filter_example():
    fe = make_filter_example()
    K_cen, norm = centralized_h2(fe)
    P = StateSpace(
        fe.A, np.hstack([fe.B1, fe.B2]), np.vstack([fe.C1, fe.C2]),
        np.block([[np.zeros((2, 2)), fe.D12], [fe.D21, np.zeros((1, 1))]]))
    closed = lft_lower(P, K_cen, nz=2, nw=2)
    assert abs(norm - h2_norm(closed)) < 1e-9
    # scalar Riccati roots: X = sqrt(17) - 4 and Y = 1, L = -1
    assert abs(norm ** 2 - (np.sqrt(17.0) - 3.0)) < 1e-9


def test_centralized_h2_rejects_unstabilizable_pair():
    class Record:
        pass

    r = Record()
    r.A = np.diag([1.0, -1.0])
    r.B2 = np.array([[0.0], [1.0]])
    r.B1 = np.hstack([np.eye(2), np.zeros((2, 1))])
    r.C1 = np.vstack([np.eye(2), np.zeros((1, 2))])
    r.D12 = np.array([[0.0], [0.0], [1.0]])
    r.C2 = np.array([[1.0, 1.0]])
    r.D21 = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(SolverError, match="stabilizable"):
        centralized_h2(r)


def test_optimal_controller_rejects_inadmissible_plant():
    with pytest.raises(AssumptionError, match="A5"):
        optimal_controller(make_unstabilizable_pair())


def test_duality_maps_synthesis_quantities():
    plant = make_random_fixture()
    p = plant.partition
    res = optimal_controller(plant)
    res_d = optimal_controller(dual_plant(plant))

    def close(got, want):
        return np.abs(got - want).max() <= 1e-7 * (1.0 + np.abs(want).max())

    assert close(res_d.bundle.X_cen, swap_transpose(res.bundle.Y_cen, p.n, p.n))
    assert close(res_d.bundle.Y_cen, swap_transpose(res.bundle.X_cen, p.n, p.n))
    assert close(res_d.bundle.K_cen, swap_transpose(res.bundle.L_cen, p.n, p.k))
    assert close(res_d.bundle.L_cen, swap_transpose(res.bundle.K_cen, p.m, p.n))
    assert close(res_d.K_private, swap_transpose(res.L_common, p.n, p.k))
    assert close(res_d.L_common, swap_transpose(res.K_private, p.m, p.n))
    assert close(res_d.A_gap, swap_transpose(res.A_gap, p.n, p.n))


def test_dual_of_dual_is_identity():
    plant = make_random_fixture()
    back = dual_plant(dual_plant(plant))
    for name in ("A", "B1", "B2", "C1", "C2", "D12", "D21"):
        assert np.array_equal(getattr(back, name), getattr(plant, name))
    assert back.partition.n == plant.partition.n
    assert back.partition.m == plant.partition.m
    assert back.partition.k == plant.partition.k


def test_decoupled_dynamics_make_local_filter_exact():
    # No dynamic coupling and block-diagonal noise: player 1's local filter
    # already matches the corner of the centralized one, and the cross gain
    # (which is nonzero here through the cost coupling) cannot change the
    # controller's transfer function.
    plant = make_decoupled_crosscost()
    res = optimal_controller(plant)
    n1 = plant.n1
    assert np.abs(res.bundle.Y_loc1 - res.bundle.Y_cen[:n1, :n1]).max() < 1e-8
    assert np.abs(res.K_private[plant.m1:, :n1]).max() > 1e-3

    K_zero_H = res.K_private.copy()
    K_zero_H[plant.m1:, :n1] = 0.0
    zero_H, _ = controller_realizations(plant, res.bundle, K_zero_H,
                                        res.L_common)
    n_with = h2_norm(_closed_loop(plant, res.controller))
    n_zero = h2_norm(_closed_loop(plant, zero_H))
    assert abs(n_with - n_zero) < 1e-8


def test_uninformative_second_measurement_reduces_to_centralized():
    plant = make_pure_noise_channel()
    res = optimal_controller(plant)
    n_struct = h2_norm(_closed_loop(plant, res.controller))
    _, n_cen = centralized_h2(plant)
    assert abs(n_struct - n_cen) < 1e-8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_synthesis_invariants_random(seed):
    plant = random_plant(seed=seed)
    bundle = solve_four_ares(plant)
    sol = solve_phi_psi(plant, bundle)
    r_phi, r_psi = _coupling_residuals(plant, bundle, sol.X_cross, sol.Y_cross)
    scale = 1.0 + max(np.abs(sol.X_cross).max(), np.abs(sol.Y_cross).max())
    assert r_phi < 1e-7 * scale
    assert r_psi < 1e-7 * scale
    res = optimal_controller(plant)
    assert is_block_lower_tf(res.controller, plant.partition.m,
                             plant.partition.k, tol=1e-8)
    closed = _closed_loop(plant, res.controller)
    assert is_hurwitz(closed.A, margin=0.0)
    _, n_cen = centralized_h2(plant)
    assert n_cen <= h2_norm(closed) + 1e-7
