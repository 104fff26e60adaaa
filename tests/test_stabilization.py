import numpy as np

from nesth2.statespace import StateSpace, is_block_lower_tf, lft_lower, vcat
from nesth2.linalg import is_hurwitz, pbh_detectable, pbh_stabilizable
from nesth2.stabilization import (
    controller_from_q,
    exists_triangular_stabilizing,
    nominal_controller,
    nominal_gains,
    q_from_controller,
    youla_data,
)
from nesth2.synthesis import solve_four_ares
from nesth2.fixtures import (
    make_decoupled,
    make_random_fixture,
    make_stabilizable_pair,
    make_unstabilizable_pair,
    random_plant,
)

from markov_oracle import markov_parameters

SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)


def _gains(plant):
    """Nominal gains on the plant's own Riccati bundle."""
    return nominal_gains(plant, solve_four_ares(plant))


def _side_by_side(g1, g2):
    """[g1 g2] = g1 [I 0] + g2 [0 I]."""
    nu = g1.nu + g2.nu
    return (g1 * StateSpace.gain(np.eye(g1.nu, nu))
            + g2 * StateSpace.gain(np.eye(g2.nu, nu, k=g1.nu)))


def _closed_loop(plant, K):
    return lft_lower(plant.generalized(), K, nz=plant.nz, nw=plant.nw)


def _markov_close(g1, g2, count=8, tol=1e-7):
    m1 = markov_parameters(g1, count)
    m2 = markov_parameters(g2, count)
    return all(np.linalg.norm(a - b) <= tol * (1.0 + np.linalg.norm(b))
               for a, b in zip(m1, m2))


def _random_stable_lower_q(rng, m_split, k_split, states=2):
    """Random stable block-lower parameter with a strictly zero (1,2) block."""
    def block(ny, nu):
        A = rng.standard_normal((states, states))
        A = A - (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(states)
        return StateSpace(A, rng.standard_normal((states, nu)),
                          rng.standard_normal((ny, states)),
                          0.3 * rng.standard_normal((ny, nu)))

    q11 = block(m_split[0], k_split[0])
    q21 = block(m_split[1], k_split[0])
    q22 = block(m_split[1], k_split[1])
    zero12 = StateSpace.gain(np.zeros((m_split[0], k_split[1])))
    return vcat(_side_by_side(q11, zero12), _side_by_side(q21, q22))


def test_exists_triangular_stabilizing_fixtures():
    assert exists_triangular_stabilizing(make_decoupled())
    plant_s, _ = make_stabilizable_pair()
    assert exists_triangular_stabilizing(plant_s)
    diag = exists_triangular_stabilizing(make_unstabilizable_pair())
    assert not diag
    assert not diag.player1_detectable
    assert diag.player1_stabilizable
    assert diag.player2_stabilizable and diag.player2_detectable
    assert any("player 1" in msg and "detectable" in msg for msg in diag.failures)


def test_unstabilizable_fixture_still_centrally_stabilizable():
    # the obstruction is structural: with full information the plant is fine
    plant = make_unstabilizable_pair()
    assert pbh_stabilizable(plant.A, plant.B2)
    assert pbh_detectable(plant.C2, plant.A)


def test_nominal_gains_frozen_decoupled_values():
    g = _gains(make_decoupled())
    assert np.allclose(g.K_d, np.diag([1.0 - SQRT2, 2.0 - SQRT5]), atol=1e-12)
    assert np.allclose(g.L_d, np.diag([1.0 - SQRT2, 2.0 - SQRT5]), atol=1e-12)
    assert is_hurwitz(g.A_Kd)
    assert is_hurwitz(g.A_Ld)


def test_nominal_gains_block_diagonal():
    plant = make_random_fixture()
    g = _gains(plant)
    assert np.all(g.K_d[:plant.m1, plant.n1:] == 0.0)
    assert np.all(g.K_d[plant.m1:, :plant.n1] == 0.0)
    assert np.all(g.L_d[:plant.n1, plant.k1:] == 0.0)
    assert np.all(g.L_d[plant.n1:, :plant.k1] == 0.0)
    assert is_hurwitz(g.A_Kd, margin=0.0)
    assert is_hurwitz(g.A_Ld, margin=0.0)


def test_nominal_controller_stabilizes():
    for plant in (make_stabilizable_pair()[0], make_random_fixture()):
        K0 = nominal_controller(plant, _gains(plant))
        assert K0.nx == plant.n
        assert is_block_lower_tf(K0, plant.partition.m, plant.partition.k)
        cl = _closed_loop(plant, K0)
        assert is_hurwitz(cl.A, margin=0.0)


def test_parameterization_at_zero_recovers_nominal():
    plant = make_random_fixture()
    data = youla_data(plant, solve_four_ares(plant))
    K0 = nominal_controller(plant, data.gains)
    Q0 = StateSpace.gain(np.zeros((plant.m, plant.k)))
    assert _markov_close(controller_from_q(data, Q0), K0)


def test_two_port_inverse_realization():
    plant = make_random_fixture()
    data = youla_data(plant, solve_four_ares(plant))
    J, Jinv = data.J_d, data.J_d_inverse
    # displayed inverse has the same state count and D-inverse feedthrough
    assert Jinv.nx == J.nx
    # state-space inversion of J_d must match the display
    Dinv = np.linalg.inv(J.D)
    direct = StateSpace(J.A - J.B @ Dinv @ J.C, J.B @ Dinv, -Dinv @ J.C, Dinv)
    assert _markov_close(direct, Jinv, count=10, tol=1e-9)


def test_model_match_blocks_stable_and_strictly_proper():
    plant = make_random_fixture()
    data = youla_data(plant, solve_four_ares(plant))
    for blk in (data.T11, data.T12, data.T21):
        assert is_hurwitz(blk.A, margin=0.0)
    assert np.all(data.T11.D == 0.0)
    assert data.T11.nx == 2 * plant.n


def test_closed_loop_equals_affine_model_match():
    plant = make_random_fixture()
    data = youla_data(plant, solve_four_ares(plant))
    rng = np.random.default_rng(3)
    Q = _random_stable_lower_q(rng, plant.partition.m, plant.partition.k)
    K = controller_from_q(data, Q)
    cl = _closed_loop(plant, K)
    freqs = [0.0, 0.31j, 1.0j, -0.62j, 2.7j, 0.45 + 1.0j, 1.8 - 0.4j, 5.0j]
    for s in freqs:
        lhs = cl.eval_at(s)
        rhs = (data.T11.eval_at(s)
               + data.T12.eval_at(s) @ Q.eval_at(s) @ data.T21.eval_at(s))
        assert np.linalg.norm(lhs - rhs) < 1e-7 * (1.0 + np.linalg.norm(rhs))


def test_round_trip_q_controller_q():
    plant = make_random_fixture()
    data = youla_data(plant, solve_four_ares(plant))
    rng = np.random.default_rng(4)
    Q = _random_stable_lower_q(rng, plant.partition.m, plant.partition.k)
    K = controller_from_q(data, Q)
    Q_back = q_from_controller(data, K)
    assert _markov_close(Q_back, Q, count=10)
    # and through the nominal controller the parameter is zero
    K0 = nominal_controller(plant, data.gains)
    Q0 = q_from_controller(data, K0)
    # the cancelling realization contains the raw (unstable) plant modes, so
    # rounding grows with the Markov order; six terms is a meaningful zero test
    for mp in markov_parameters(Q0, 6):
        assert np.linalg.norm(mp) < 1e-8


def test_non_lower_q_breaks_structure():
    plant = make_random_fixture()
    data = youla_data(plant, solve_four_ares(plant))
    rng = np.random.default_rng(5)
    Qfull = StateSpace.gain(rng.standard_normal((plant.m, plant.k)))
    K = controller_from_q(data, Qfull)
    assert not is_block_lower_tf(K, plant.partition.m, plant.partition.k)


def test_sixty_four_random_parameters_stay_lower_and_stabilizing():
    """Forward direction of the parameterization, checked over 64 seeds."""
    plant = make_random_fixture()
    data = youla_data(plant, solve_four_ares(plant))
    P = plant.generalized()
    for seed in range(64):
        rng = np.random.default_rng(1000 + seed)
        Q = _random_stable_lower_q(rng, plant.partition.m, plant.partition.k)
        K = controller_from_q(data, Q)
        assert is_block_lower_tf(K, plant.partition.m, plant.partition.k), seed
        cl = lft_lower(P, K, nz=plant.nz, nw=plant.nw)
        assert is_hurwitz(cl.A, margin=0.0), seed


def test_q_maps_work_for_asymmetric_splits():
    plant = random_plant(7, n_split=(1, 2), m_split=(2, 1), k_split=(1, 2))
    data = youla_data(plant, solve_four_ares(plant))
    rng = np.random.default_rng(6)
    Q = _random_stable_lower_q(rng, plant.partition.m, plant.partition.k)
    K = controller_from_q(data, Q)
    assert K.ny == plant.m and K.nu == plant.k
    assert is_block_lower_tf(K, plant.partition.m, plant.partition.k)
    assert _markov_close(q_from_controller(data, K), Q, count=10)
