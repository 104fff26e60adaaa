import json
import re
import sys

import numpy as np
import pytest

from nesth2.cli import main
from nesth2.fixtures import (
    make_decoupled,
    make_random_fixture,
    make_unstabilizable_pair,
    random_plant,
)
from nesth2.linalg import SolverError
from nesth2.plant import Partition, TwoPlayerPlant, plant_to_dict
from nesth2.synthesis import optimal_controller


def _write_plant(tmp_path, plant, name="plant.json", mangle=None):
    data = plant_to_dict(plant)
    if mangle is not None:
        mangle(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _record_lyapunov_solves(monkeypatch, record):
    """Call record(A, trans) at every Lyapunov solve, from every nesth2
    module namespace."""
    import nesth2.linalg as linalg

    original = linalg._lyapunov_from_schur

    def recorded(A, schur, Q, trans):
        record(A, trans)
        return original(A, schur, Q, trans)
    for key, module in list(sys.modules.items()):
        if module is not None and key.startswith("nesth2") \
                and vars(module).get("_lyapunov_from_schur") is original:
            monkeypatch.setattr(module, "_lyapunov_from_schur", recorded)


def _count_calls(monkeypatch, names):
    """Count calls of linalg functions from every nesth2 module namespace."""
    import nesth2.linalg as linalg

    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and key.startswith("nesth2")]
    for name in names:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


def test_each_riccati_equation_is_solved_once(tmp_path, capsys, monkeypatch):
    # the four synthesis AREs and nothing more; the structural screens run
    # in check_assumptions only
    plant = make_random_fixture()
    path = _write_plant(tmp_path, plant)
    counts = _count_calls(monkeypatch, ("solve_are", "axis_rank_ok",
                                        "pbh_stabilizable"))
    optimal_controller(plant)
    assert counts == {"solve_are": 4, "axis_rank_ok": 3, "pbh_stabilizable": 4}
    for command in ("synthesize", "analyze"):
        counts.update(dict.fromkeys(counts, 0))
        assert main([command, path]) == 0
        assert counts["solve_are"] == 4
    counts.update(dict.fromkeys(counts, 0))
    assert main(["check", path]) == 0
    assert counts["pbh_stabilizable"] == 4
    capsys.readouterr()


def _player1_axis_zero_plant():
    # admissible, but the player-1 control pencil [A11 - s, B2_11; C1_1,
    # D12_1] = [-s, 1; 0, 0; 0, 1; 0, 0] has a zero at s = 0 on the axis
    eye, zero = np.eye(2), np.zeros((2, 2))
    return TwoPlayerPlant(
        A=[[0.0, 0.0], [1.0, -1.0]], B1=np.hstack([eye, zero]), B2=eye,
        C1=[[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]], C2=eye,
        D12=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], D21=np.hstack([zero, eye]),
        partition=Partition((1, 1), (1, 1), (1, 1)))


def test_synthesis_does_not_screen_the_nominal_equations(tmp_path, capsys):
    # the nominal gains serve only the parameterization checks of verify
    path = _write_plant(tmp_path, _player1_axis_zero_plant())
    for command in ("check", "synthesize", "analyze"):
        assert main([command, path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "verdict: pass" in out
    # verify names the failing stage and skips the checks that need it
    assert main(["verify", path, "--oracle"]) == 2
    out = capsys.readouterr().out
    assert ("FAIL  nominal gains for the parameterization: nominal gains, "
            "player-1 control equation: axis-rank condition fails") in out
    for label in ("parameter extraction round trip",
                  "structured optimality certificate",
                  "partial-optimization fixed points",
                  "vectorization oracle agreement"):
        assert f"FAIL  {label}: skipped: nominal gains failed" in out
    assert "pass  decentralization cost certificates" in out
    assert "verdict: FAIL" in out


def test_check_passes_on_clean_plant(tmp_path, capsys):
    path = _write_plant(tmp_path, make_decoupled())
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    for label in ("A1", "A2", "A3", "A4", "A5", "A6"):
        assert label in out


def test_check_fails_the_axis_check_without_full_rank_noise(tmp_path, capsys):
    # A6 compresses out the rows of D21, so it presupposes A4
    def mangle(data):
        data["D21"] = np.zeros_like(np.array(data["D21"])).tolist()
    path = _write_plant(tmp_path, make_decoupled(), mangle=mangle)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL  A4 " in out
    assert "FAIL  A6 " in out
    assert out.count("FAIL") == 3  # A4, A6 and the verdict


def test_check_rejects_structurally_unstabilizable(tmp_path, capsys):
    path = _write_plant(tmp_path, make_unstabilizable_pair())
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "cannot be stabilized by a block-lower-triangular controller" in out
    assert "verdict: FAIL" in out


def test_nonzero_feedthrough_is_input_error(tmp_path, capsys):
    def mangle(data):
        data["D11"] = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
    path = _write_plant(tmp_path, make_decoupled(), mangle=mangle)
    assert main(["check", path]) == 3
    assert "D11" in capsys.readouterr().err


def test_malformed_input_is_input_error(tmp_path, capsys):
    def mangle(data):
        del data["B1"]
    path = _write_plant(tmp_path, make_decoupled(), mangle=mangle)
    assert main(["check", path]) == 3
    assert "B1" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("parts", [
    {"n": 5}, {"n": [1, None]}, "nmk", {"n": [1.7, 1.4]}, {"n": [True, 1]},
])
def test_malformed_partitions_are_input_errors(tmp_path, capsys, parts):
    def mangle(data):
        if isinstance(parts, dict):
            data["partitions"].update(parts)
        else:
            data["partitions"] = parts
    path = _write_plant(tmp_path, make_decoupled(), mangle=mangle)
    assert main(["check", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "split must be" in err or "'partitions' must be" in err


@pytest.mark.parametrize("key, entry", [
    ("A", {"a": 1}), ("D11", {"a": 1}), ("B1", [[1.0, {"a": 1}]]),
    ("A", [["-1", 0], [0, "-2"]]),
])
def test_non_numeric_matrix_is_input_error(tmp_path, capsys, key, entry):
    def mangle(data):
        data[key] = entry
    path = _write_plant(tmp_path, make_decoupled(), mangle=mangle)
    assert main(["check", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"matrix '{key}'" in err


@pytest.mark.parametrize("key, entry, message", [
    ("B2", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "B2 must be 2x2, got (2, 3)"),
    ("A", [[float("nan"), 0.0], [0.0, -2.0]],
     "plant matrices must be finite"),
])
def test_unusable_plant_matrix_is_input_error(tmp_path, capsys, key, entry,
                                              message):
    # numbers that the plant refuses: a wrong shape, or a NaN, which the
    # json module writes and reads as a bare NaN token
    def mangle(data):
        data[key] = entry
    path = _write_plant(tmp_path, make_decoupled(), mangle=mangle)
    assert main(["check", path]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("option", [
    "--seed=-1", "--tol=nan", "--tol=inf", "--tol=-inf", "--tol=-1e-6",
])
def test_unusable_option_values_are_input_errors(tmp_path, capsys, option):
    path = _write_plant(tmp_path, make_decoupled())
    assert main(["verify", path, option]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = option.split("=")[0]
    assert captured.err.startswith(f"error: {flag} must be")
    assert captured.err.count("\n") == 1


def test_zero_seed_and_tolerance_are_accepted(tmp_path, capsys):
    path = _write_plant(tmp_path, make_decoupled())
    assert main(["verify", path, "--seed", "0", "--tol", "0.05"]) == 0
    capsys.readouterr()


def test_synthesize_rejection_exit_code(tmp_path, capsys):
    path = _write_plant(tmp_path, make_unstabilizable_pair())
    assert main(["synthesize", path]) == 1
    capsys.readouterr()


def test_synthesize_writes_round_trip_document(tmp_path, capsys):
    plant = make_random_fixture()
    path = _write_plant(tmp_path, plant)
    out = tmp_path / "controller.json"
    assert main(["synthesize", path, "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    synth = optimal_controller(plant)
    # The 17-digit decimal serialization must reproduce every double bitwise.
    for key, ref in (("A", synth.controller.A), ("B", synth.controller.B),
                     ("C", synth.controller.C), ("D", synth.controller.D)):
        assert np.array_equal(np.array(doc["controller"][key]), ref)
    assert np.array_equal(np.array(doc["gains"]["K_private"]),
                          synth.K_private)
    assert doc["controller"]["A"] == np.array(doc["controller"]["A"]).tolist()


def test_synthesize_alternative_realization(tmp_path, capsys):
    plant = make_random_fixture()
    path = _write_plant(tmp_path, plant)
    out = tmp_path / "controller.json"
    assert main(["synthesize", path, "--out", str(out),
                 "--realization", "alternative"]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    synth = optimal_controller(plant)
    assert doc["realization"] == "alternative"
    assert np.array_equal(np.array(doc["controller"]["A"]),
                          synth.controller_alt.A)


def test_analyze_reports_three_agreeing_deltas(tmp_path, capsys):
    path = _write_plant(tmp_path, make_random_fixture())
    assert main(["analyze", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    values = payload["values"]
    deltas = [values["delta (Y-weighted trace)"],
              values["delta (X-weighted trace)"],
              values["delta (closed-loop gap)"]]
    assert max(deltas) - min(deltas) < 1e-7 * (1.0 + max(deltas))
    assert values["structured norm"] > values["centralized norm"]


def test_verify_with_oracle_passes(tmp_path, capsys):
    path = _write_plant(tmp_path, make_decoupled())
    assert main(["verify", path, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "vectorization oracle agreement" in out
    assert "verdict: pass" in out


def test_readme_oracle_gap_is_at_rounding(tmp_path, capsys):
    # the oracle reduces no output: rank cuts at REDUCE_TOL on its answer
    # and closed loop move this gap to 1.75e-11
    path = _write_plant(tmp_path, make_random_fixture())
    assert main(["verify", path, "--oracle", "--seed", "7", "--json"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert values["oracle relative gap"] <= 1e-13


@pytest.mark.parametrize("n", [None, 8, 16, 20])
def test_benchmark_requests_pass(tmp_path, capsys, n):
    # the fixed requests the benchmark times, which it counts only when they
    # pass: the README's Monte Carlo example and the plant-size sweep
    if n is None:
        path = _write_plant(tmp_path, make_random_fixture())
        argv = ["verify", path, "--oracle", "--seed", "7"]
    else:
        h = n // 2
        path = _write_plant(tmp_path, random_plant(0, (h, h), (h, h), (h, h)))
        argv = ["verify", path]
    assert main(argv) == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_synthesize_report_does_not_depend_on_the_riccati_path(
        tmp_path, capsys, monkeypatch):
    # at n = 32 the plant's two full-order Riccati equations take the sign
    # path; forcing every equation onto the eigenvector path must print the
    # same report. The report prints 17 significant digits, so its text
    # must match with the numbers masked, and the numbers must agree to
    # rounding: the two paths' rounding errors differ.
    import nesth2.linalg as linalg

    path = _write_plant(tmp_path,
                        random_plant(0, (16, 16), (16, 16), (16, 16)))
    reports = []
    for cutoff in (linalg._SIGN_MIN_STATES, sys.maxsize):
        monkeypatch.setattr(linalg, "_SIGN_MIN_STATES", cutoff)
        assert main(["synthesize", path]) == 0
        reports.append(capsys.readouterr().out)
    number = re.compile(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")
    sign_text, eig_text = (number.sub("#", r) for r in reports)
    assert sign_text == eig_text
    sign_num, eig_num = (np.array(number.findall(r), dtype=float)
                         for r in reports)
    assert np.all(np.abs(sign_num - eig_num)
                  <= 1e-10 * (1.0 + np.abs(eig_num)))


def test_verify_oracle_guard_failure_is_numerical(tmp_path, capsys, monkeypatch):
    import nesth2.cli as cli

    monkeypatch.setattr(cli.va, "ORACLE_STATE_GUARD", 1)
    path = _write_plant(tmp_path, make_random_fixture())
    assert main(["verify", path, "--oracle"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  vectorization oracle agreement" in out
    assert "verdict: FAIL" in out


def test_verify_linalg_error_is_numerical(tmp_path, capsys, monkeypatch):
    # numpy's SVD can fail to converge inside minreal on large plants (for
    # random_plant(37) with (12, 12) splits it does under two OpenBLAS
    # threads, not under one); the check fails and the exit code stays 2
    import nesth2.cli as cli

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli.va, "structured_optimality_residual", no_convergence)
    path = _write_plant(tmp_path, make_random_fixture())
    assert main(["verify", path]) == 2
    out = capsys.readouterr().out
    assert "FAIL  structured optimality certificate: SVD did not converge" in out
    assert "  pass  partial-optimization fixed points" in out
    assert "verdict: FAIL" in out


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_analyze_linalg_error_is_a_failed_check(tmp_path, capsys, monkeypatch):
    import nesth2.cli as cli

    monkeypatch.setattr(cli.va, "orthogonality_residuals", _no_convergence)
    path = _write_plant(tmp_path, make_random_fixture())
    assert main(["analyze", path]) == 2
    out = capsys.readouterr().out
    assert ("FAIL  orthogonality residuals under tolerance: "
            "SVD did not converge") in out
    assert "  pass  three delta formulas agree" in out
    assert "verdict: FAIL" in out


def test_escaping_linalg_error_is_numerical(tmp_path, capsys, monkeypatch):
    import nesth2.cli as cli

    monkeypatch.setattr(cli, "optimal_controller", _no_convergence)
    path = _write_plant(tmp_path, make_random_fixture())
    assert main(["synthesize", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: SVD did not converge\n"


def test_verify_solves_the_shared_data_once(tmp_path, capsys, monkeypatch):
    # one HatPair serves the identity chain, the Gramian's middle reference,
    # delta_cost and the Monte Carlo target, and one youla_data serves the
    # parameter round trip, the structured certificate and the oracle; of
    # the loop checks' Lyapunov equations only the Gramian's n x n reference
    # Z goes through solve_lyapunov, every other one is solved from the
    # design's loop factors
    import nesth2.cli as cli

    counts = _count_calls(monkeypatch, ("solve_lyapunov", "solve_are"))
    counts.update(hat_pair=0, youla_data=0)

    def counted(home, name):
        original = getattr(home, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(home, name, wrapper)

    counted(cli.va, "hat_pair")
    counted(cli, "youla_data")
    path = _write_plant(tmp_path, make_decoupled())
    assert main(["verify", path, "--oracle", "--seed", "7"]) == 0
    assert counts == {"solve_lyapunov": 1, "solve_are": 8, "hat_pair": 1,
                      "youla_data": 1}
    capsys.readouterr()


@pytest.mark.parametrize("entry", [(0, 0), (5, 1)])
def test_verify_reports_a_nan_loop(tmp_path, capsys, monkeypatch, entry):
    # the loop factors' Schur forms come from the finite A_ctrl, A_gap and
    # A_filt, so a NaN in the loop reaches the checks through their
    # residual gates, and the balancing leaves its state where it is
    import nesth2.cli as cli

    original = cli.optimal_controller

    def broken(plant):
        synth = original(plant)
        synth.closed_loop.A[entry] = np.nan
        return synth
    monkeypatch.setattr(cli, "optimal_controller", broken)
    path = _write_plant(tmp_path, make_random_fixture())
    assert main(["verify", path]) == 2
    out = capsys.readouterr().out
    assert "  FAIL  closed-loop Gramian block diagonal: " in out
    # every reader of the loop's Gramian raises again: a cached_property
    # whose computation raised has kept nothing
    assert "  FAIL  error/innovations orthogonality: " in out
    assert "  FAIL  decentralization cost certificates: " in out
    assert "  FAIL  structured optimality certificate: " in out
    assert "verdict: FAIL" in out


def test_verify_solves_the_loop_gramian_once(tmp_path, capsys, monkeypatch):
    # by state count: the loop's Gramian Theta and the design norm's
    # observability Gramian (9 states); the two Gramians of player 1's
    # orthogonality product (6), whose W is Theta's trailing 2n block;
    # player 2's product, the gap Lyapunov pair and the reference block Z
    # (3); a 0-state call solves nothing
    states = {}

    def record(A, trans):
        if A.shape[0]:
            states[A.shape[0]] = states.get(A.shape[0], 0) + 1
    _record_lyapunov_solves(monkeypatch, record)
    path = _write_plant(tmp_path, make_random_fixture())
    assert main(["verify", path]) == 0
    capsys.readouterr()
    assert states == {3: 5, 6: 2, 9: 2}


def _count_factorizations(tmp_path, capsys, monkeypatch, command):
    """eigvals and schur calls of one `command` run on the random fixture."""
    import scipy.linalg

    path = _write_plant(tmp_path, make_random_fixture())
    counts = dict.fromkeys(("eigvals", "schur"), 0)
    for home, name in ((np.linalg, "eigvals"), (scipy.linalg, "schur")):
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(home, name, counted)
    assert main([command, path]) == 0
    capsys.readouterr()
    return counts


def test_verify_factors_each_state_matrix_once(tmp_path, capsys, monkeypatch):
    # two Schur forms in the coupling solve, three n x n ones of A_ctrl,
    # A_gap and A_filt that every loop check shares, one more of A_ctrl in
    # the Gramian's solve_lyapunov reference Z, and two in the structured
    # certificate, whose T12 and T21 share one factorization of A_T^T; a
    # redundant spectrum or factorization shows up here. The two eigvals
    # are player 1's PBH tests in A2 and A5, whose single input (output)
    # cannot certify two states. A rank test that B certifies computes no
    # eigenvalues at all, each Riccati solution's closed loop is certified
    # Hurwitz by its Lyapunov identity, and no check re-tests a matrix that
    # synthesis already certified Hurwitz: the nominal gains' loops are
    # certified by separation, and their stabilizability is not screened
    # again after A2 and A5.
    assert _count_factorizations(tmp_path, capsys, monkeypatch, "verify") \
        == {"eigvals": 2, "schur": 8}


def test_verify_parameter_checks_solve_no_stack_beyond_2n(tmp_path, capsys,
                                                         monkeypatch):
    # the parameter frame reads Q_opt from its two n-state blocks, K (2n
    # states), J_d and J_d^-1 (n each) and the fixed points' g1 and g2 (n
    # each), and the two closures pointwise by the LFT formula; evaluating
    # a 3n-state closure would show up here as a stack of 3n
    plant = random_plant(0, (4, 4), (4, 4), (4, 4))
    path = _write_plant(tmp_path, plant)
    sizes = []
    original = np.linalg.solve

    def recorded(a, b):
        if np.ndim(a) == 3:
            sizes.append(np.shape(a)[-1])
        return original(a, b)
    monkeypatch.setattr(np.linalg, "solve", recorded)
    assert main(["verify", path]) == 0
    capsys.readouterr()
    assert sizes and max(sizes) == 2 * plant.n


def test_analyze_factors_each_state_matrix_once(tmp_path, capsys,
                                                monkeypatch):
    # beyond the coupling solve's two, the loop factors' Schur forms of
    # A_ctrl, A_gap and A_filt, which the design norm, the gap Lyapunov
    # pair, the Gramian and both players' orthogonality products share, and
    # the n x n one of the Gramian's solve_lyapunov reference Z. The two
    # eigvals are player 1's PBH tests in the synthesis' assumption check;
    # every Riccati solution's closed loop is certified Hurwitz by its
    # Lyapunov identity
    assert _count_factorizations(tmp_path, capsys, monkeypatch, "analyze") \
        == {"eigvals": 2, "schur": 6}


def test_a_failed_identity_chain_skips_no_check(tmp_path, capsys,
                                                monkeypatch):
    # the cost certificate and the Monte Carlo check read the gap pair, not
    # the chain's verdict, so each prints its own
    import nesth2.cli as cli

    def broken(plant, synth, hats):
        raise SolverError("identity check failed")

    monkeypatch.setattr(cli.va, "identity_chain", broken)
    path = _write_plant(tmp_path, make_decoupled())
    assert main(["verify", path, "--seed", "7"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  gap Lyapunov identity chain: identity check failed" in out
    for label in ("closed-loop Gramian block diagonal",
                  "decentralization cost certificates",
                  "Monte Carlo covariance cross-check"):
        assert f"  pass  {label}\n" in out


@pytest.mark.parametrize("argv, skipped, passed", [
    (["verify", "--seed", "7"],
     ("gap Lyapunov identity chain", "closed-loop Gramian block diagonal",
      "decentralization cost certificates",
      "Monte Carlo covariance cross-check"),
     "error/innovations orthogonality"),
    (["analyze"],
     ("three delta formulas agree", "closed-loop Gramian block diagonal"),
     "orthogonality residuals under tolerance"),
], ids=["verify", "analyze"])
def test_monte_carlo_is_skipped_without_the_gap_pair(tmp_path, capsys,
                                                     monkeypatch, argv,
                                                     skipped, passed):
    import nesth2.cli as cli

    def broken(plant, synth):
        raise SolverError("Lyapunov residual 1e-03 exceeds tolerance")

    monkeypatch.setattr(cli.va, "hat_pair", broken)
    path = _write_plant(tmp_path, make_decoupled())
    assert main([argv[0], path] + argv[1:]) == 2
    out = capsys.readouterr().out
    for label in skipped:
        assert (f"FAIL  {label}: skipped: gap Lyapunov pair unsolved: "
                "Lyapunov residual 1e-03 exceeds tolerance") in out
    assert f"  pass  {passed}\n" in out


def test_a_failed_parameter_frame_fails_each_reader(tmp_path, capsys,
                                                    monkeypatch):
    # the frame is evaluated once; both checks that read it fail with its
    # error, and the certificate, which reads the nominal gains alone, runs
    import nesth2.cli as cli

    calls = []

    def broken(*args):
        calls.append(args)
        _no_convergence()
    monkeypatch.setattr(cli.va, "parameter_frame", broken)
    path = _write_plant(tmp_path, make_decoupled())
    assert main(["verify", path]) == 2
    assert len(calls) == 1
    out = capsys.readouterr().out
    for label in ("parameter extraction round trip",
                  "partial-optimization fixed points"):
        assert f"  FAIL  {label}: SVD did not converge\n" in out
    assert "  pass  structured optimality certificate\n" in out
    assert "verdict: FAIL" in out


@pytest.mark.parametrize("argv", [["analyze"], ["verify"],
                                  ["verify", "--oracle", "--seed", "7"]])
def test_each_gap_equation_is_solved_once(tmp_path, capsys, monkeypatch,
                                          argv):
    # the Y equation (trans "N") and the X equation ("T") on A_gap, each
    # solved once, by hat_pair: the chain, the Gramian, the cost certificate
    # and the Monte Carlo target read the pair and solve nothing on A_gap
    import nesth2.cli as cli

    gaps, solves = [], []

    def record(A, trans):
        if any(A is A_gap for A_gap in gaps):
            solves.append(trans)
    _record_lyapunov_solves(monkeypatch, record)
    synthesize = cli.optimal_controller

    def kept(plant):
        synth = synthesize(plant)
        gaps.append(synth.A_gap)
        return synth
    monkeypatch.setattr(cli, "optimal_controller", kept)
    path = _write_plant(tmp_path, make_random_fixture())
    assert main([argv[0], path] + argv[1:]) == 0
    capsys.readouterr()
    assert solves == ["N", "T"]


@pytest.mark.parametrize("residuals", [(0.0, np.nan), (np.nan, 0.0)])
@pytest.mark.parametrize("command, label", [
    ("analyze", "orthogonality residuals under tolerance"),
    ("verify", "error/innovations orthogonality"),
])
def test_orthogonality_gate_refuses_nan(tmp_path, capsys, monkeypatch,
                                        command, label, residuals):
    # max(r1, r2) would depend on the order: max(0.0, nan) is 0.0
    import nesth2.cli as cli

    monkeypatch.setattr(cli.va, "orthogonality_residuals",
                        lambda plant, synth: residuals)
    path = _write_plant(tmp_path, make_decoupled())
    assert main([command, path]) == 2
    out = capsys.readouterr().out
    assert f"FAIL  {label}" in out
    assert "verdict: FAIL" in out


@pytest.mark.parametrize("cell", [(0, 0), (1, 0), (1, 1)])
def test_structured_gate_refuses_nan(tmp_path, capsys, monkeypatch, cell):
    # max(0.0, nan, 0.0) is 0.0: a NaN past the first block used to pass
    import nesth2.cli as cli

    res = np.zeros((2, 2))
    res[cell] = np.nan
    monkeypatch.setattr(cli.va, "structured_optimality_residual",
                        lambda data, q: res)
    path = _write_plant(tmp_path, make_decoupled())
    assert main(["verify", path]) == 2
    out = capsys.readouterr().out
    assert "FAIL  structured optimality certificate" in out
    assert "verdict: FAIL" in out


def test_report_body_is_deterministic(tmp_path, capsys):
    path = _write_plant(tmp_path, make_random_fixture())
    assert main(["analyze", path, "--json"]) == 0
    first = capsys.readouterr()
    assert main(["analyze", path, "--json"]) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert "wall time" not in first.out
    assert "wall time" in first.err


def test_seeded_verify_report_is_deterministic(tmp_path, capsys):
    # the Monte Carlo line is fixed by the seed; the parser is built once and
    # reused, so a second call in the same process reads the same options
    path = _write_plant(tmp_path, make_random_fixture())
    argv = ["verify", path, "--oracle", "--seed", "7", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "Monte Carlo relative error" in first


@pytest.mark.parametrize("argv", [["analyze"],
                                  ["verify", "--oracle", "--seed", "7"]])
def test_a_passing_run_leaves_no_reference_cycle(tmp_path, capsys, argv):
    # a cycle keeps each run's design alive until the cyclic collector
    # runs; in a loop of verify requests at n = 20 it raised peak memory 9 %
    import gc

    path = _write_plant(tmp_path, make_random_fixture())
    gc.collect()
    gc.disable()
    try:
        assert main([argv[0], path] + argv[1:]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
