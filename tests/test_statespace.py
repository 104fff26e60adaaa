import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from nesth2.fixtures import random_plant
from nesth2.stabilization import youla_data
from nesth2.statespace import (
    BALANCE_SWEEPS,
    MARKOV_BLOCK,
    StateSpace,
    _orth_cols,
    balance_realization,
    is_block_lower_tf,
    lft_lower,
    lft_upper,
    minreal,
    reachable_basis,
    scaled_markov_parameters,
    vcat,
)
from nesth2.synthesis import optimal_controller

EVAL_POINTS = [0.3 + 0.7j, -1.2 + 2.0j, 2.5 - 0.4j, 0.0 + 1.0j]


def _random_system(rng, nx, nu, ny, stable=False):
    A = rng.standard_normal((nx, nx))
    if stable:
        A = A - (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(nx)
    return StateSpace(A, rng.standard_normal((nx, nu)),
                      rng.standard_normal((ny, nx)), rng.standard_normal((ny, nu)))


def _tf_close(g1, g2, tol=1e-9):
    for s in EVAL_POINTS:
        if np.linalg.norm(g1.eval_at(s) - g2.eval_at(s)) > tol:
            return False
    return True


def test_shapes_and_defaults():
    g = StateSpace([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]], [[1.0, 0.0]])
    assert g.nx == 2 and g.nu == 1 and g.ny == 1
    assert np.all(g.D == 0.0)
    s = 1.0 + 0.5j
    expect = 1.0 / (s + 1.0)
    assert abs(g.eval_at(s) - expect) < 1e-12


def test_scalar_and_gain_systems():
    g = StateSpace.gain([[2.0, 0.0], [1.0, 3.0]])
    assert g.nx == 0
    assert np.allclose(g.eval_at(1.0 + 1.0j), [[2.0, 0.0], [1.0, 3.0]])
    h = StateSpace(-4.0, 2.0, 1.0, 0.5)
    assert h.nx == 1 and h.nu == 1 and h.ny == 1
    assert abs(h.eval_at(0.0) - (0.5 + 2.0 / 4.0)) < 1e-12


def test_series_matches_pointwise_product():
    rng = np.random.default_rng(7)
    g1 = _random_system(rng, 3, 2, 4)
    g2 = _random_system(rng, 2, 3, 2)
    g = g1 * g2
    assert g.nx == 5 and g.nu == 3 and g.ny == 4
    for s in EVAL_POINTS:
        assert np.linalg.norm(g.eval_at(s) - g1.eval_at(s) @ g2.eval_at(s)) < 1e-9


def test_add_sub_neg():
    rng = np.random.default_rng(8)
    g1 = _random_system(rng, 3, 2, 2)
    g2 = _random_system(rng, 2, 2, 2)
    for s in EVAL_POINTS:
        assert np.linalg.norm((g1 + g2).eval_at(s)
                              - (g1.eval_at(s) + g2.eval_at(s))) < 1e-9
        assert np.linalg.norm((g1 - g2).eval_at(s)
                              - (g1.eval_at(s) - g2.eval_at(s))) < 1e-9
        assert np.linalg.norm((-g1).eval_at(s) + g1.eval_at(s)) < 1e-12


def test_transpose_and_adjoint():
    rng = np.random.default_rng(9)
    g = _random_system(rng, 4, 2, 3)
    gt = g.transpose()
    ga = g.conjugate_transpose()
    for s in EVAL_POINTS:
        assert np.linalg.norm(gt.eval_at(s) - g.eval_at(s).T) < 1e-9
        # adjoint realization evaluates G(-s)^T
        assert np.linalg.norm(ga.eval_at(s) - g.eval_at(-s).T) < 1e-9


def test_hcat_vcat():
    rng = np.random.default_rng(10)
    g1 = _random_system(rng, 2, 2, 3)
    g2 = _random_system(rng, 3, 1, 3)
    # side by side, [g1 g2] = g1 [I 0] + g2 [0 I]
    h = (g1 * StateSpace.gain(np.eye(2, 3))
         + g2 * StateSpace.gain(np.eye(1, 3, k=2)))
    assert h.nu == 3 and h.ny == 3
    g3 = _random_system(rng, 2, 2, 1)
    v = vcat(g1, g3)
    assert v.nu == 2 and v.ny == 4
    for s in EVAL_POINTS:
        assert np.linalg.norm(h.eval_at(s)
                              - np.hstack([g1.eval_at(s), g2.eval_at(s)])) < 1e-9
        assert np.linalg.norm(v.eval_at(s)
                              - np.vstack([g1.eval_at(s), g3.eval_at(s)])) < 1e-9


def test_subsystem_selects_rows_and_cols():
    rng = np.random.default_rng(11)
    g = _random_system(rng, 3, 3, 3)
    sub = g.subsystem([0, 2], [1])
    for s in EVAL_POINTS:
        assert np.linalg.norm(sub.eval_at(s) - g.eval_at(s)[np.ix_([0, 2], [1])]) < 1e-10


def test_markov_parameters():
    rng = np.random.default_rng(12)
    g = _random_system(rng, 3, 2, 2)
    mp = g.markov_parameters(4)
    assert len(mp) == 4
    assert np.allclose(mp[0], g.D)
    assert np.allclose(mp[1], g.C @ g.B)
    assert np.allclose(mp[2], g.C @ g.A @ g.B)
    assert np.allclose(mp[3], g.C @ g.A @ g.A @ g.B)


def _markov_loop(g, count):
    """Markov parameters one product with A at a time."""
    out = [g.D]
    An_B = g.B
    for _ in range(1, count):
        out.append(g.C @ An_B)
        An_B = g.A @ An_B
    return np.array(out[:count]).reshape(count, g.ny, g.nu)


@pytest.mark.parametrize("nx", [0, 3, 11])
@pytest.mark.parametrize("count", [0, 1, 2, MARKOV_BLOCK, MARKOV_BLOCK + 1,
                                   2 * MARKOV_BLOCK + 1, 30])
def test_blocked_markov_parameters_match_the_plain_loop(nx, count):
    rng = np.random.default_rng(100 + nx)
    g = _random_system(rng, nx, 2, 3, stable=nx > 0)
    g = StateSpace(g.A / max(1.0, np.linalg.norm(g.A, 2)), g.B, g.C, g.D)
    want = _markov_loop(g, count)
    got = g.markov_parameters(count)
    assert got.shape == want.shape == (count, 3, 2)
    # powers of A come from squaring, so the rounding differs from the loop
    peak = max(1.0, np.abs(want).max(initial=0.0))
    tol = 64 * np.finfo(float).eps * peak
    assert np.abs(got - want).max(initial=0.0) <= tol


def _partition_eval(P, nz, nw, s):
    M = P.eval_at(s)
    return M[:nz, :nw], M[:nz, nw:], M[nz:, :nw], M[nz:, nw:]


def test_markov_parameters_stack():
    g = _random_system(np.random.default_rng(4), 3, 2, 1)
    assert g.markov_parameters(5).shape == (5, 1, 2)
    assert g.markov_parameters(1).shape == (1, 1, 2)
    assert g.markov_parameters(0).shape == (0, 1, 2)
    gain = StateSpace.gain(np.ones((2, 3)))
    assert np.array_equal(gain.markov_parameters(3),
                          np.stack([np.ones((2, 3)), np.zeros((2, 3)),
                                    np.zeros((2, 3))]))


def test_lft_lower_matches_formula():
    rng = np.random.default_rng(13)
    # plant with 2 performance outs / 2 dist ins, 1x1 control channel
    P = _random_system(rng, 3, 3, 3)
    P.D[2, 2] = 0.0  # keep the loop well posed at s = inf
    K = _random_system(rng, 2, 1, 1)
    cl = lft_lower(P, K, nz=2, nw=2)
    assert cl.nx == 5 and cl.ny == 2 and cl.nu == 2
    for s in EVAL_POINTS:
        P11, P12, P21, P22 = _partition_eval(P, 2, 2, s)
        Kv = K.eval_at(s)
        want = P11 + P12 @ Kv @ np.linalg.solve(np.eye(1) - P22 @ Kv, P21)
        assert np.linalg.norm(cl.eval_at(s) - want) < 1e-8


def test_lft_lower_rejects_ill_posed_loop():
    P = StateSpace.gain(np.array([[0.0, 1.0], [1.0, 1.0]]))
    K = StateSpace.gain(np.array([[1.0]]))
    try:
        lft_lower(P, K, nz=1, nw=1)
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_lft_upper_matches_formula():
    rng = np.random.default_rng(14)
    P = _random_system(rng, 2, 3, 3)
    P.D[0, 0] = 0.0
    K = _random_system(rng, 1, 1, 1)
    cl = lft_upper(P, K, nq=1, np_=1)
    for s in EVAL_POINTS:
        M = P.eval_at(s)
        P11, P12 = M[:1, :1], M[:1, 1:]
        P21, P22 = M[1:, :1], M[1:, 1:]
        Kv = K.eval_at(s)
        want = P22 + P21 @ Kv @ np.linalg.solve(np.eye(1) - P11 @ Kv, P12)
        assert np.linalg.norm(cl.eval_at(s) - want) < 1e-8


def test_is_block_lower_tf():
    # block-lower by construction: x1 feeds only from u1
    A = np.array([[-1.0, 0.0], [2.0, -3.0]])
    B = np.eye(2)
    C = np.eye(2)
    g = StateSpace(A, B, C, np.zeros((2, 2)))
    assert is_block_lower_tf(g, (1, 1), (1, 1))
    g2 = StateSpace(np.array([[-1.0, 1.0], [2.0, -3.0]]), B, C, np.zeros((2, 2)))
    assert not is_block_lower_tf(g2, (1, 1), (1, 1))


def test_is_block_lower_tf_refuses_nan():
    A = np.array([[-1.0, 0.0], [2.0, -3.0]])
    B = np.eye(2)
    B[0, 1] = np.nan
    g = StateSpace(A, B, np.eye(2), np.zeros((2, 2)))
    assert not is_block_lower_tf(g, (1, 1), (1, 1))


def test_is_block_lower_tf_is_relative_to_the_system():
    # ||A|| ~ 1e6 with unit B and C: the scaled parameters peak near 1e-6,
    # so a (1,2) coupling of about 1e-6 of that peak sits far under an
    # absolute 1e-8 while it is 100 times the relative 1e-8
    rng = np.random.default_rng(11)
    A = -1e6 * (np.eye(4) + 0.1 * rng.standard_normal((4, 4)))
    A[:2, 2:] = 0.0
    B = rng.standard_normal((4, 2))
    B[:2, 1] = 0.0
    C = rng.standard_normal((2, 4))
    C[0, 2:] = 0.0
    g = StateSpace(A, B, C, np.zeros((2, 2)))
    assert is_block_lower_tf(g, (1, 1), (1, 1))
    C[0, 2] = 1e-6
    coupled = StateSpace(A, B, C, g.D)
    _, (params,) = scaled_markov_parameters([coupled], 2 * g.nx + 1)
    peak, link = np.abs(params).max(), np.abs(params[:, 0, 1]).max()
    assert peak < 1e-5 and link < 1e-10
    assert 1e-7 < link / peak < 1e-5
    assert not is_block_lower_tf(coupled, (1, 1), (1, 1))


def test_is_block_lower_tf_reads_the_coupling_first_shown_at_index_nx():
    # a chain of nx states: the (1,2) block C1 (A)^k B2 is zero up to
    # k = nx - 2 and first shows at k = nx - 1, stack index nx; a count of
    # nx parameters would pass this coupled system as block lower
    nx = 5
    A = -np.eye(nx) + np.eye(nx, k=1)
    B = np.zeros((nx, 2))
    B[0, 0] = B[-1, 1] = 1.0
    C = np.zeros((2, nx))
    C[0, 0] = C[1, -1] = 1.0
    g = StateSpace(A, B, C, np.zeros((2, 2)))
    _, (params,) = scaled_markov_parameters([g], nx + 1)
    assert np.all(params[:nx, 0, 1] == 0.0)
    assert params[nx, 0, 1] != 0.0
    assert not is_block_lower_tf(g, (1, 1), (1, 1))
    C[0, 0] = 0.0
    assert is_block_lower_tf(StateSpace(A, B, C, g.D), (1, 1), (1, 1))


def _stiff_block_lower(rng, h=30, size=1e6):
    """A block-lower system whose raw Markov parameters overflow."""
    def lower(rows, cols):
        M = rng.standard_normal((sum(rows), sum(cols)))
        M[:rows[0], cols[0]:] = 0.0
        return M
    return StateSpace(size * lower((h, h), (h, h)), lower((h, h), (1, 1)),
                      lower((1, 1), (h, h)), np.zeros((2, 2)))


def test_is_block_lower_tf_on_a_stiff_realization():
    # C A^k B reaches inf by k = 2 nx, and 0 * inf is NaN in the zero block;
    # the frequency-scaled parameters stay bounded and exactly zero there
    g = _stiff_block_lower(np.random.default_rng(3))
    with np.errstate(over="ignore", invalid="ignore"):
        raw = g.markov_parameters(2 * g.nx + 1)
    assert not np.all(np.isfinite(raw[-1]))
    assert is_block_lower_tf(g, (1, 1), (1, 1))
    B = g.B.copy()
    B[0, 1] = 1.0
    assert not is_block_lower_tf(StateSpace(g.A, B, g.C, g.D), (1, 1), (1, 1))


def test_orth_cols_falls_back_to_gesvd(monkeypatch):
    rng = np.random.default_rng(4)
    M = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 5))
    want = _orth_cols(M)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    got = _orth_cols(M)
    assert got.shape == want.shape == (8, 3)
    assert np.allclose(got.T @ got, np.eye(3), atol=1e-12)
    assert np.allclose(got @ got.T, want @ want.T, atol=1e-12)


def test_reachable_basis_factors_only_the_newest_block(monkeypatch):
    # the staircase SVDs B once, then each projected block A new alone, never
    # the growing basis [V, A V]
    rng = np.random.default_rng(21)
    n, nu = 12, 2
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, nu))
    widths = []
    svd = np.linalg.svd

    def counting_svd(M, *args, **kwargs):
        widths.append(M.shape[1])
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    V = reachable_basis(A, B)
    assert V.shape == (n, n)
    assert np.allclose(V.T @ V, np.eye(n), atol=1e-12)
    assert len(widths) == n // nu
    assert max(widths[1:]) <= nu


def test_minreal_removes_cancelling_states():
    rng = np.random.default_rng(15)
    g = _random_system(rng, 3, 2, 2, stable=True)
    z = g - g
    assert z.nx == 6
    zr = minreal(z)
    assert zr.nx == 0
    assert _tf_close(zr, StateSpace.gain(np.zeros((2, 2))))


def test_minreal_keeps_transfer_function():
    rng = np.random.default_rng(16)
    g = _random_system(rng, 3, 2, 2, stable=True)
    # pad with an unreachable and an unobservable state
    A = np.zeros((5, 5))
    A[:3, :3] = g.A
    A[3, 3] = -0.5
    A[4, 4] = -0.7
    B = np.vstack([g.B, np.zeros((1, 2)), np.ones((1, 2))])
    C = np.hstack([g.C, np.ones((2, 1)), np.zeros((2, 1))])
    padded = StateSpace(A, B, C, g.D)
    red = minreal(padded)
    assert red.nx == 3
    assert _tf_close(red, g, tol=1e-8)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_series_associativity_pointwise(seed):
    rng = np.random.default_rng(seed)
    g1 = _random_system(rng, 2, 2, 2)
    g2 = _random_system(rng, 3, 2, 2)
    g3 = _random_system(rng, 1, 2, 2)
    left = (g1 * g2) * g3
    right = g1 * (g2 * g3)
    s = 0.37 + 1.1j
    assert np.linalg.norm(left.eval_at(s) - right.eval_at(s)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_adjoint_is_involutive(seed):
    rng = np.random.default_rng(seed)
    g = _random_system(rng, 3, 2, 2)
    gg = g.conjugate_transpose().conjugate_transpose()
    s = -0.8 + 0.45j
    assert np.linalg.norm(gg.eval_at(s) - g.eval_at(s)) < 1e-9


def _weights(A, B, C):
    """Row weight through [A B] and column weight through [A; C] of every
    state, the diagonal of A left out."""
    off = np.abs(A) * (1.0 - np.eye(A.shape[0]))
    return (off.sum(axis=1) + np.abs(B).sum(axis=1),
            off.sum(axis=0) + np.abs(C).sum(axis=0))


def _balance_reference(sys):
    """Reference balancing on the scaled matrices: every state's weights
    are read off one sweep's matrices, then all states move at once, by
    rint(log2(r / c) / 4). Returns the balanced system and the number of
    sweeps that moved a state; BALANCE_SWEEPS means the cap was reached."""
    A, B, C = sys.A.copy(), sys.B.copy(), sys.C.copy()
    for sweep in range(BALANCE_SWEEPS):
        moves = np.zeros(A.shape[0])
        for i, (r, c) in enumerate(zip(*_weights(A, B, C))):
            if r > 0.0 and c > 0.0:
                moves[i] = np.rint(np.log2(r / c) / 4.0)
        if not moves.any():
            return StateSpace(A, B, C, sys.D), sweep
        f = 2.0 ** moves
        A = A / f[:, None] * f[None, :]
        B = B / f[:, None]
        C = C * f[None, :]
    return StateSpace(A, B, C, sys.D), BALANCE_SWEEPS


def _assert_same_balancing(sys):
    got = balance_realization(sys)
    ref, sweeps = _balance_reference(sys)
    assert sweeps < BALANCE_SWEEPS
    for name in "ABCD":
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    _assert_balanced(sys, got)


def _is_power_of_two(x):
    return np.all(np.frexp(x)[0] == 0.5)


def _assert_balanced(sys, got):
    """got is sys under an exact diagonal powers-of-two similarity, and
    every state with weight on both sides ends with r / c within 4."""
    assert np.array_equal(np.diag(got.A), np.diag(sys.A))
    assert np.array_equal(got.D, sys.D)
    for new, old in ((got.A, sys.A), (got.B, sys.B), (got.C, sys.C)):
        assert np.array_equal(new == 0.0, old == 0.0)
        assert _is_power_of_two(new[old != 0.0] / old[old != 0.0])
    r, c = _weights(got.A, got.B, got.C)
    both = (r > 0.0) & (c > 0.0)
    ratio = r[both] / c[both]
    slack = 1.0 + 1e-12
    assert np.all((ratio <= 4.0 * slack) & (ratio >= 0.25 / slack))


def _badly_scaled_system(rng, nx, nu, ny):
    scale = 10.0 ** rng.uniform(-6.0, 6.0, size=(nx, 1))
    g = _random_system(rng, nx, nu, ny)
    return StateSpace(g.A * scale / scale.T,
                      g.B * 10.0 ** rng.uniform(-4.0, 4.0),
                      g.C * 10.0 ** rng.uniform(-4.0, 4.0), g.D)


def test_balance_matches_the_reference_sweeps():
    rng = np.random.default_rng(21)
    for _ in range(200):
        nx, nu, ny = (int(v) for v in rng.integers(1, (12, 4, 4)))
        _assert_same_balancing(_badly_scaled_system(rng, nx, nu, ny))


def test_balance_matches_on_ties():
    # integer entries make r / c an exact power of two, where rint() sends
    # log2(r / c) / 4 = k + 1/2 to the even neighbour
    assert balance_realization(StateSpace(0.0, 4.0, 1.0)).B[0, 0] == 4.0
    assert balance_realization(StateSpace(0.0, 64.0, 1.0)).B[0, 0] == 16.0
    _assert_same_balancing(StateSpace(0.0, 4.0, 1.0))
    _assert_same_balancing(StateSpace(0.0, 64.0, 1.0))
    rng = np.random.default_rng(23)
    for _ in range(100):
        nx, nu, ny = (int(v) for v in rng.integers(1, (8, 3, 3)))
        g = _random_system(rng, nx, nu, ny)
        _assert_same_balancing(StateSpace(np.round(4.0 * g.A),
                                          np.round(4.0 * g.B),
                                          np.round(4.0 * g.C), g.D))


def test_balance_skips_states_without_weight():
    # an all-zero row through [A B] or column through [A; C] leaves its
    # state unscaled
    rng = np.random.default_rng(22)
    for i in range(6):
        g = _badly_scaled_system(rng, 6, 2, 2)
        A, B, C = g.A.copy(), g.B.copy(), g.C.copy()
        A[i, :] = 0.0
        B[i, :] = 0.0
        A[:, (i + 1) % 6] = 0.0
        C[:, (i + 1) % 6] = 0.0
        _assert_same_balancing(StateSpace(A, B, C, g.D))
    _assert_same_balancing(StateSpace(np.zeros((3, 3)), np.zeros((3, 1)),
                                      np.zeros((1, 3))))


def test_balance_of_a_gain_is_the_gain():
    for g in (StateSpace.gain(np.ones((2, 3))),
              StateSpace(np.zeros((0, 0)), np.zeros((0, 0)),
                         np.zeros((0, 0)))):
        _assert_same_balancing(g)
        assert balance_realization(g).A.shape == (0, 0)


def _markov_close(g1, g2, tol):
    count = 2 * g1.nx + 2
    _, (p1, p2) = scaled_markov_parameters([g1, g2], count)
    return np.abs(p1 - p2).max() <= tol * np.abs(p2).max()


def test_balance_matches_on_the_certificate_realizations():
    for seed, n in ((0, 4), (1, 6), (2, 8)):
        h = n // 2
        plant = random_plant(seed, (h, h), (h, h), (h, h))
        synth = optimal_controller(plant)
        T = youla_data(plant, synth.bundle)
        for g in (T.T12, synth.closed_loop, T.T21):
            _assert_same_balancing(g)
            assert _markov_close(balance_realization(g), g, 1e-12)


def test_balance_keeps_the_markov_parameters():
    rng = np.random.default_rng(24)
    for _ in range(50):
        nx, nu, ny = (int(v) for v in rng.integers(1, (12, 4, 4)))
        g = _random_system(rng, nx, nu, ny)
        scale = 2.0 ** rng.integers(-20, 21, size=(nx, 1))
        g = StateSpace(g.A * scale / scale.T, g.B * scale, g.C / scale.T,
                       g.D)
        assert _markov_close(balance_realization(g), g, 1e-12)
