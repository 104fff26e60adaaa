import json

import numpy as np
import pytest

from nesth2.plant import (
    Partition,
    TwoPlayerPlant,
    check_assumptions,
    cost_cov_matrices,
    load_plant,
    plant_from_dict,
    plant_to_dict,
    save_plant,
)
from nesth2.fixtures import (
    make_decoupled,
    make_decoupled_crosscost,
    make_pure_noise_channel,
    make_stabilizable_pair,
    make_unstabilizable_pair,
    make_random_fixture,
    random_plant,
)
from nesth2.linalg import SolverError, is_hurwitz, solve_are


def test_partition_rejects_zero_splits():
    with pytest.raises(ValueError):
        Partition((0, 2), (1, 1), (1, 1))
    with pytest.raises(ValueError):
        Partition((1, 1), (1, 0), (1, 1))
    p = Partition([2, 1], [1, 1], [1, 1])
    assert p.n == (2, 1)


def test_plant_rejects_upper_blocks():
    part = Partition((1, 1), (1, 1), (1, 1))
    B1 = np.hstack([np.eye(2), np.zeros((2, 2))])
    C1 = np.vstack([np.eye(2), np.zeros((2, 2))])
    D12 = np.vstack([np.zeros((2, 2)), np.eye(2)])
    D21 = np.hstack([np.zeros((2, 2)), np.eye(2)])
    A_bad = np.array([[-1.0, 0.5], [0.0, -2.0]])
    with pytest.raises(ValueError, match="A has a nonzero upper-right"):
        TwoPlayerPlant(A_bad, B1, np.eye(2), C1, np.eye(2), D12, D21, part)
    B2_bad = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(ValueError, match="B2 has a nonzero upper-right"):
        TwoPlayerPlant(np.diag([-1.0, -2.0]), B1, B2_bad, C1, np.eye(2),
                       D12, D21, part)


def test_plant_blocks_and_sizes():
    plant = make_unstabilizable_pair()
    assert plant.n == 3 and plant.m == 2 and plant.k == 2
    assert (plant.n1, plant.n2) == (2, 1)
    assert np.array_equal(plant.A11, np.diag([-1.0, 1.0]))
    assert np.array_equal(plant.A22, np.array([[-1.0]]))
    assert np.array_equal(plant.B2_11, np.array([[1.0], [1.0]]))
    assert np.array_equal(plant.C2_11, np.array([[1.0, 0.0]]))
    assert np.array_equal(plant.C2_22, np.array([[1.0]]))


def test_generalized_plant_shape():
    plant = make_decoupled()
    P = plant.generalized()
    assert P.ny == plant.nz + plant.k
    assert P.nu == plant.nw + plant.m
    # performance-to-disturbance feedthrough block is zero
    assert np.all(P.D[:plant.nz, :plant.nw] == 0.0)
    assert np.all(P.D[plant.nz:, plant.nw:] == 0.0)


def test_cost_cov_decoupled_fixture():
    cc = cost_cov_matrices(make_decoupled())
    assert np.allclose(cc.Q, np.eye(2))
    assert np.allclose(cc.R, np.eye(2))
    assert np.allclose(cc.S, 0.0)
    assert np.allclose(cc.W, np.eye(2))
    assert np.allclose(cc.V, np.eye(2))
    assert np.allclose(cc.U, 0.0)


def test_cost_cov_filter_numbers():
    # scalar estimation data: B1=[3 0], D21=[0 1]
    B1 = np.array([[3.0, 0.0]])
    D21 = np.array([[0.0, 1.0]])
    assert np.allclose(B1 @ B1.T, [[9.0]])
    assert np.allclose(D21 @ D21.T, [[1.0]])
    assert np.allclose(D21 @ B1.T, [[0.0]])


def test_cost_cov_gram_invariants():
    plant = make_random_fixture()
    cc = cost_cov_matrices(plant)
    top = np.block([[cc.Q, cc.S], [cc.S.T, cc.R]])
    bot = np.block([[cc.W, cc.U.T], [cc.U, cc.V]])
    assert np.min(np.linalg.eigvalsh(top)) > -1e-10
    assert np.min(np.linalg.eigvalsh(bot)) > -1e-10
    stacked = np.hstack([plant.C1, plant.D12])
    assert np.allclose(top, stacked.T @ stacked)
    stacked2 = np.vstack([plant.B1, plant.D21])
    assert np.allclose(bot, stacked2 @ stacked2.T)


def test_cost_cov_block_slices():
    plant = make_decoupled_crosscost()
    cc = cost_cov_matrices(plant)
    assert cc.Q21.shape == (1, 1)
    assert abs(cc.Q21[0, 0] - 0.5) < 1e-12
    assert np.allclose(cc.S12, 0.0)
    assert np.allclose(cc.R22, [[1.0]])
    assert np.allclose(cc.V11, [[1.0]])
    assert np.allclose(cc.U12, 0.0)


def test_assumptions_decoupled_all_pass():
    report = check_assumptions(make_decoupled())
    assert report.passed
    assert report.failures == []


def test_assumptions_unstabilizable_fixture():
    report = check_assumptions(make_unstabilizable_pair())
    assert not report.passed
    assert "A5" in report.failures
    # the hidden mode is a detectability failure, not stabilizability
    assert report["A2"].passed


def test_assumptions_stabilizable_fixture():
    plant, K0 = make_stabilizable_pair()
    report = check_assumptions(plant)
    assert report.passed
    # the advertised static gain closes the loop at {-1, -1}
    Acl = plant.A + plant.B2 @ K0 @ plant.C2
    assert np.allclose(sorted(np.linalg.eigvals(Acl).real), [-1.0, -1.0])
    assert is_hurwitz(Acl)


def test_assumptions_a2_and_a4_failures():
    part = Partition((1, 1), (1, 1), (1, 1))
    n, m, k = 2, 2, 2
    B1 = np.hstack([np.eye(n), np.zeros((n, k))])
    C1 = np.vstack([np.eye(n), np.zeros((m, n))])
    D12 = np.vstack([np.zeros((n, m)), np.eye(m)])
    # unstable first subsystem with a dead input channel
    A = np.diag([1.0, -1.0])
    B2 = np.diag([0.0, 1.0])
    D21 = np.hstack([np.zeros((k, n)), np.eye(k)])
    rep = check_assumptions(TwoPlayerPlant(A, B1, B2, C1, np.eye(2), D12, D21, part))
    assert "A2" in rep.failures
    # noiseless measurement channel
    rep2 = check_assumptions(TwoPlayerPlant(
        np.diag([-1.0, -1.0]), B1, np.eye(2), C1, np.eye(2), D12,
        np.zeros((k, n + k)), part))
    assert "A4" in rep2.failures


def test_minimality_is_warning_not_failure():
    # state 2 is stable but driven by nothing: not minimal, yet admissible
    part = Partition((1, 1), (1, 1), (1, 1))
    A = np.diag([-1.0, -2.0])
    B1 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    B2 = np.diag([1.0, 0.0])
    C1 = np.vstack([np.eye(2), np.zeros((2, 2))])
    D12 = np.vstack([np.zeros((2, 2)), np.eye(2)])
    C2 = np.eye(2)
    D21 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    plant = TwoPlayerPlant(A, B1, B2, C1, C2, D12, D21, part)
    report = check_assumptions(plant)
    assert report.passed  # A1-A6 do not require minimality


def test_assumptions_of_a_fully_actuated_plant_take_no_spectral_decomposition(
        monkeypatch):
    # each player has as many inputs and outputs as states, and each axis
    # test has as many spare outputs as states: Cholesky factors certify
    # A1 and A4, each PBH test through B B^T, and each axis test through a
    # QR factorization of D and the projected C, so no eigenvalue, SVD or
    # least-squares solve runs
    plant = random_plant(0, (8, 8), (8, 8), (8, 8))
    counts = dict.fromkeys(("eigvals", "eigvalsh", "svd", "lstsq"), 0)
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert check_assumptions(plant).passed
    assert counts == {"eigvals": 0, "eigvalsh": 0, "svd": 0, "lstsq": 0}


def test_rank_deficient_control_weight_fails_on_the_spectral_fallback(
        monkeypatch):
    # a zero column of D12 leaves no Cholesky certificate to find: eigvalsh
    # decides A1 and an SVD of D12 decides A3, and solve_are refuses with
    # the spectral test's message
    base = make_random_fixture()
    D12 = base.D12.copy()
    D12[:, 1] = 0.0
    plant = TwoPlayerPlant(base.A, base.B1, base.B2, base.C1, base.C2, D12,
                           base.D21, base.partition)
    counts = dict.fromkeys(("eigvalsh", "svd"), 0)
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    report = check_assumptions(plant)
    assert {"A1", "A3"} <= set(report.failures)
    assert counts["eigvalsh"] >= 1 and counts["svd"] >= 1
    with pytest.raises(SolverError, match="control weight D\\^T D is not "
                                          "positive definite"):
        solve_are(plant.A, plant.B2, plant.C1, plant.D12)


def test_random_plant_deterministic_and_admissible():
    p1 = random_plant(4242)
    p2 = random_plant(4242)
    assert np.array_equal(p1.A, p2.A)
    assert np.array_equal(p1.D21, p2.D21)
    assert check_assumptions(p1).passed
    assert np.all(p1.A[:p1.n1, p1.n1:] == 0.0)
    assert np.min(np.abs(np.linalg.eigvals(p1.A).real)) >= 0.05


def test_random_plant_other_splits():
    for split in ((1, 1), (1, 2), (2, 2)):
        p = random_plant(99, n_split=split)
        assert (p.n1, p.n2) == split
        assert check_assumptions(p).passed


# A[0, 0] of the accepted draw, which tells the draws apart: a changed verdict
# of a screen in check_assumptions or solve_are shows here as a failure, not
# as silently different plants in the benchmark and the tests
_STRESS_A00 = {
    8: (0.04445234596761114, 0.12218246283994222, 0.06684046413622831,
        0.7215738752923765, -0.2304429719645608, -0.28352557442165277,
        -0.5123954906933128, 0.0004349248904876637),
    16: (0.031432555273348324, 0.0863960480161965, 0.047263345448383266,
         0.25028549060390964, -0.508989457456811, -0.08105275885523097,
         0.26327893862168955, 0.19178326183992572),
    24: (0.09109678365148904, -0.05586076772910334, 0.03859035996181094,
         -0.017224554823887902, -0.14377404829798832, 0.045512518741423355,
         0.2149663532148902, -0.044406003567796094),
    32: (0.16586274799956152, 0.3382917432868202, 0.005628813998928333,
         -0.048958220176611056, -0.08901151733840464, 0.043802597869091964,
         0.15323822609823287, -0.20551456092586204),
}
_SWEEP_A00 = {8: 0.04445234596761114, 16: 0.031432555273348324,
              20: 0.1266998241761009}


def test_random_plant_draws_are_pinned():
    # the benchmark's under-actuated stress family, its verify sweep (plant
    # seed 0, (h, h) splits) and the shared fixture
    for n, expected in _STRESS_A00.items():
        got = tuple(random_plant(s, n_split=(n // 2, n // 2),
                                 scale_cap=None).A[0, 0] for s in range(8))
        assert got == expected, n
    for n, expected in _SWEEP_A00.items():
        h = (n // 2, n // 2)
        assert random_plant(0, h, h, h).A[0, 0] == expected, n
    assert make_random_fixture().A[0, 0] == 0.0197412033779641


def test_pure_noise_channel_admissible():
    report = check_assumptions(make_pure_noise_channel())
    assert report.passed


def test_json_round_trip(tmp_path):
    plant = make_random_fixture()
    path = tmp_path / "plant.json"
    save_plant(plant, path)
    loaded = load_plant(path)
    assert np.array_equal(loaded.A, plant.A)
    assert np.array_equal(loaded.B1, plant.B1)
    assert np.array_equal(loaded.D21, plant.D21)
    assert loaded.partition == plant.partition


def test_json_rejects_nonzero_d11(tmp_path):
    d = plant_to_dict(make_decoupled())
    d["D11"] = np.ones((4, 4)).tolist()
    with pytest.raises(ValueError, match="D11"):
        plant_from_dict(d)
    d["D11"] = np.zeros((4, 4)).tolist()  # explicit zeros are fine
    plant_from_dict(d)


def test_json_missing_key_rejected():
    d = plant_to_dict(make_decoupled())
    del d["C2"]
    with pytest.raises(ValueError, match="C2"):
        plant_from_dict(d)
    with pytest.raises(ValueError):
        plant_from_dict({"partitions": {"n": [1, 1]}})


@pytest.mark.parametrize("key, entry", [
    ("A", {"a": 1}), ("D11", {"a": 1}), ("C2", [[1.0, {"a": 1}, 0.0]]),
    ("D12", [[1.0], [1.0, 2.0]]), ("A", [["-1", 0], [0, "-2"]]),
    ("B2", [[True, False], [False, True]]), ("A", [[10 ** 400, 0], [0, -2]]),
])
def test_json_non_numeric_matrix_rejected(key, entry):
    d = plant_to_dict(make_decoupled())
    d[key] = entry
    with pytest.raises(ValueError, match=f"matrix '{key}'"):
        plant_from_dict(d)


def test_dict_accepts_numpy_numbers_and_tuples():
    # a library caller's dict may hold what numpy built; only strings and
    # booleans (numpy's too) are refused
    plant = make_decoupled()
    d = plant_to_dict(plant)
    d["A"] = plant.A
    d["B1"] = [[np.float64(x) for x in row] for row in d["B1"]]
    d["B2"] = tuple(tuple(np.int64(round(x)) for x in row)
                    for row in d["B2"])
    loaded = plant_from_dict(d)
    for key in ("A", "B1", "B2"):
        assert np.array_equal(getattr(loaded, key), getattr(plant, key))
    d["B2"] = plant.B2.astype(bool)
    with pytest.raises(ValueError, match="matrix 'B2'"):
        plant_from_dict(d)


def _mangle_partitions(data, parts):
    if isinstance(parts, dict):
        data["partitions"].update(parts)
    else:
        data["partitions"] = parts


@pytest.mark.parametrize("parts", [
    {"n": 5}, {"n": [1, None]}, "nmk", {"n": [1.7, 1.4]}, {"n": [True, 1]},
])
def test_json_malformed_partitions_rejected(parts):
    d = plant_to_dict(make_decoupled())
    _mangle_partitions(d, parts)
    with pytest.raises(ValueError, match="partitions|split"):
        plant_from_dict(d)


def test_partition_accepts_integral_numbers():
    p = Partition((2.0, np.int64(1)), np.array([1, 1]), [1, 1])
    assert p.n == (2, 1) and p.m == (1, 1)
    assert all(type(x) is int for x in p.n + p.m)


def test_json_structural_violation_rejected(tmp_path):
    d = plant_to_dict(make_decoupled())
    d["A"][0][1] = 0.25  # breaks the required sparsity
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="upper-right"):
        load_plant(path)
