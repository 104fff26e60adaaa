"""Command-line front end: load a plant file, synthesize, analyze, verify.

One exit-code contract across all subcommands: 0 for a clean pass, 1 when
the plant fails an admissibility or stabilizability precondition, 2 when a
numerical check or verification fails, 3 for malformed input. The report
body on standard output is deterministic for a fixed input file, flag set,
and seed; wall time goes to standard error so byte comparison of report
bodies stays meaningful.
"""

import argparse
import functools
import json
import sys
import time

import numpy as np

from .linalg import RESIDUAL_TOL, SolverError
from .plant import AssumptionError, check_assumptions, load_plant
from .stabilization import youla_data
from .statespace import is_block_lower_tf, tf_mismatch
from .synthesis import optimal_controller
from . import validation as va

EXIT_PASS = 0
EXIT_ASSUMPTION = 1
EXIT_NUMERICAL = 2
EXIT_INPUT = 3

ORTHOGONALITY_TOL = 1e-7
MONTE_CARLO_REL_TOL = 5e-2

_REJECTION = "cannot be stabilized by a block-lower-triangular controller"


def _fmt(x):
    return format(float(x), ".17g")


def _write_json(obj):
    """Serialize with decimal floats at 17 significant digits.

    The stdlib encoder prints shortest round-trip floats, which are exact
    but not the documented format; this writer pins the convention. Both
    re-read to the identical double.
    """
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _write_json(obj.tolist())
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(key))}: {_write_json(value)}"
                          for key, value in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_write_json(value) for value in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class RunReport:
    """Pass/fail rows plus named numeric results for one invocation."""

    def __init__(self, command, plant):
        self.command = command
        self.digest = {
            "n": list(plant.partition.n),
            "m": list(plant.partition.m),
            "k": list(plant.partition.k),
            "noise": plant.nw,
            "cost": plant.nz,
        }
        self.checks = []
        self.values = {}
        self.document = None

    def check(self, label, passed, detail=""):
        self.checks.append((label, bool(passed), str(detail)))
        return bool(passed)

    def number(self, label, value):
        self.values[label] = float(value)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def render_text(self):
        d = self.digest
        lines = [
            f"nesth2 {self.command}",
            "plant: n=%s m=%s k=%s (noise %d, cost %d)"
            % (d["n"], d["m"], d["k"], d["noise"], d["cost"]),
            "",
        ]
        for label, ok, detail in self.checks:
            mark = "pass" if ok else "FAIL"
            tail = f": {detail}" if detail else ""
            lines.append(f"  {mark}  {label}{tail}")
        if self.values:
            lines.append("")
            width = max(len(key) for key in self.values)
            for key, value in self.values.items():
                lines.append(f"  {key.ljust(width)}  {_fmt(value)}")
        lines.append("")
        lines.append("verdict: %s" % ("pass" if self.passed else "FAIL"))
        out = "\n".join(lines) + "\n"
        if self.document is not None:
            out += _write_json(self.document) + "\n"
        return out

    def render_json(self):
        payload = {
            "command": self.command,
            "plant": self.digest,
            "checks": [
                {"label": label, "passed": ok, "detail": detail}
                for label, ok, detail in self.checks
            ],
            "values": self.values,
            "verdict": "pass" if self.passed else "fail",
        }
        if self.document is not None:
            payload["output"] = self.document
        return _write_json(payload) + "\n"


def cmd_check(plant, args):
    rep = RunReport("check", plant)
    report = check_assumptions(plant)
    for c in report.checks:
        rep.check(f"{c.label} {c.description}", c.passed)
    diag = report.stabilizability
    if diag:
        rep.check("triangular stabilizability", True)
    else:
        rep.check("triangular stabilizability", False,
                  _REJECTION + "; " + "; ".join(diag.failures))
    return rep, EXIT_PASS if rep.passed else EXIT_ASSUMPTION


def cmd_synthesize(plant, args):
    rep = RunReport("synthesize", plant)
    synth = optimal_controller(plant)
    K = synth.controller if args.realization == "primary" \
        else synth.controller_alt
    n_struct, n_cen = synth.loop_factors.h2_norm, synth.centralized_norm
    rep.check("controller uses twice the plant state dimension",
              K.nx == 2 * plant.n, f"{K.nx} states")
    rep.check("controller transfer function is block lower",
              is_block_lower_tf(K, (plant.m1, plant.m2),
                                (plant.k1, plant.k2), tol=1e-8))
    mismatch = tf_mismatch(synth.controller, synth.controller_alt)
    rep.check("primary and alternative realizations agree",
              mismatch <= args.tol, f"transfer mismatch {_fmt(mismatch)}")
    worst_are = max(synth.bundle.residuals)
    worst_coupling = max(synth.coupling.residuals)
    rep.check("equation residuals under tolerance",
              max(worst_are, worst_coupling) <= RESIDUAL_TOL)
    rep.number("structured norm", n_struct)
    rep.number("centralized norm", n_cen)
    rep.number("worst Riccati residual", worst_are)
    rep.number("worst coupling residual", worst_coupling)
    b = synth.bundle
    doc = {
        "realization": args.realization,
        "controller": {"A": K.A, "B": K.B, "C": K.C, "D": K.D},
        "gains": {
            "K_cen": b.K_cen,
            "L_cen": b.L_cen,
            "K_private": synth.K_private,
            "L_common": synth.L_common,
            "X_cross": synth.coupling.X_cross,
            "Y_cross": synth.coupling.Y_cross,
        },
        "norms": {"structured": n_struct, "centralized": n_cen},
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_write_json(doc) + "\n")
        rep.check("controller written", True, args.out)
    else:
        rep.document = doc
    return rep, EXIT_PASS if rep.passed else EXIT_NUMERICAL


def _attempt(rep, label, fn):
    """Run one check: its value, or a FAIL line and None if it raised."""
    try:
        value = fn()
    except (SolverError, np.linalg.LinAlgError) as exc:
        rep.check(label, False, exc)
        return None
    rep.check(label, True)
    return value


def _needed(value, reason):
    """The value an earlier stage produced, or a SolverError that marks the
    dependent check as skipped for `reason`."""
    if value is None:
        raise SolverError(f"skipped: {reason}")
    return value


def _gap_pair(plant, synth):
    """The design's gap Lyapunov pair, solved once here for every check
    that reads it. Returns a callable that gives the pair, or, when it
    could not be solved, raises a SolverError that marks the reading check
    as skipped. A failed identity-chain verdict skips nothing."""
    try:
        hats, reason = va.hat_pair(plant, synth), None
    except (SolverError, np.linalg.LinAlgError) as exc:
        hats, reason = None, f"gap Lyapunov pair unsolved: {exc}"
    return lambda: _needed(hats, reason)


def _orthogonality(plant, synth):
    r1, r2 = va.orthogonality_residuals(plant, synth)
    if not (r1 <= ORTHOGONALITY_TOL and r2 <= ORTHOGONALITY_TOL):
        raise SolverError(f"residuals {r1:.3e}, {r2:.3e} above "
                          f"{ORTHOGONALITY_TOL:.1e}")
    return r1, r2


def _structured(synth, data, tol):
    """Worst constrained block of the structured certificate, gated at tol."""
    res = va.structured_optimality_residual(data, synth.closed_loop)
    worst = float(np.max([res[0, 0], res[1, 0], res[1, 1]]))
    if not worst <= tol:
        raise SolverError(f"constrained blocks carry causal content "
                          f"{worst:.3e}")
    return worst


def _oracle(synth, data, tol):
    """Oracle norm and its relative gap to the design norm, gated at tol."""
    n_struct = synth.loop_factors.h2_norm
    _, n_oracle = va.vectorization_oracle(data)
    rel = abs(n_oracle - n_struct) / (1.0 + n_struct)
    if not rel <= tol:
        raise SolverError(f"oracle norm {n_oracle:.9e} disagrees "
                          f"with the design norm {n_struct:.9e}")
    return n_oracle, rel


def _monte_carlo(plant, synth, hats, seed):
    """Relative error of the sampled error covariance against Y_common,
    gated at MONTE_CARLO_REL_TOL."""
    target = hats.Y_common
    sample = va.simulated_error_covariance(plant, synth, seed=seed)
    rel = np.linalg.norm(sample - target) \
        / max(np.linalg.norm(target), 1e-12)
    if not rel <= MONTE_CARLO_REL_TOL:
        raise SolverError(f"sample covariance off by {rel:.3f} relative")
    return rel


def cmd_analyze(plant, args):
    rep = RunReport("analyze", plant)
    synth = optimal_controller(plant)
    rep.number("centralized norm", synth.centralized_norm)
    rep.number("structured norm", synth.loop_factors.h2_norm)
    hats = _gap_pair(plant, synth)
    deltas = _attempt(rep, "three delta formulas agree",
                      lambda: va.delta_cost(plant, synth, hats()))
    if deltas is not None:
        rep.number("delta (Y-weighted trace)", deltas[0])
        rep.number("delta (X-weighted trace)", deltas[1])
        rep.number("delta (closed-loop gap)", deltas[2])
    triple = _attempt(rep, "closed-loop Gramian block diagonal",
                      lambda: va.closed_loop_gramian(plant, synth, hats()))
    if triple is not None:
        rep.number("Gramian off-diagonal residual", triple.offdiag)
    pair = _attempt(rep, "orthogonality residuals under tolerance",
                    lambda: _orthogonality(plant, synth))
    if pair is not None:
        rep.number("orthogonality residual player 1", pair[0])
        rep.number("orthogonality residual player 2", pair[1])
    return rep, EXIT_PASS if rep.passed else EXIT_NUMERICAL


def cmd_verify(plant, args):
    rep = RunReport("verify", plant)
    synth = optimal_controller(plant)

    attempt = functools.partial(_attempt, rep)
    hats = _gap_pair(plant, synth)
    attempt("gap Lyapunov identity chain",
            lambda: va.identity_chain(plant, synth, hats()))
    attempt("closed-loop Gramian block diagonal",
            lambda: va.closed_loop_gramian(plant, synth, hats()))
    pair = attempt("error/innovations orthogonality",
                   lambda: _orthogonality(plant, synth))
    if pair is not None:
        rep.number("orthogonality residual player 1", pair[0])
        rep.number("orthogonality residual player 2", pair[1])

    deltas = attempt("decentralization cost certificates",
                     lambda: va.delta_cost(plant, synth, hats()))
    if deltas is not None:
        rep.number("delta", deltas[0])

    data = attempt("nominal gains for the parameterization",
                   lambda: youla_data(plant, synth.bundle))

    def checked_data():
        return _needed(data, "nominal gains failed")

    attempt("parameter extraction round trip",
            lambda: va.youla_parameters(plant, synth, checked_data()))
    worst = attempt("structured optimality certificate",
                    lambda: _structured(synth, checked_data(), args.tol))
    if worst is not None:
        rep.number("structured residual", worst)
    attempt("partial-optimization fixed points",
            lambda: va.fixed_point_maps(plant, synth, checked_data()))

    if args.oracle:
        got = attempt("vectorization oracle agreement",
                      lambda: _oracle(synth, checked_data(), args.tol))
        if got is not None:
            rep.number("oracle norm", got[0])
            rep.number("oracle relative gap", got[1])

    if args.seed is not None:
        rel = attempt("Monte Carlo covariance cross-check",
                      lambda: _monte_carlo(plant, synth, hats(), args.seed))
        if rel is not None:
            rep.number("Monte Carlo relative error", rel)

    return rep, EXIT_PASS if rep.passed else EXIT_NUMERICAL


_COMMANDS = {
    "check": cmd_check,
    "synthesize": cmd_synthesize,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nesth2",
        description="Synthesize and verify the structured H2-optimal "
                    "controller for a two-player plant file.")
    parser.add_argument("command",
                        choices=("check", "synthesize", "analyze", "verify"))
    parser.add_argument("plant", metavar="plant.json",
                        help="plant description file")
    parser.add_argument("--out", metavar="F",
                        help="with synthesize: write the controller document "
                             "to this path instead of standard output")
    parser.add_argument("--realization", choices=("primary", "alternative"),
                        default="primary",
                        help="which displayed controller realization to emit")
    parser.add_argument("--oracle", action="store_true",
                        help="with verify: re-solve the structured problem "
                             "by vectorization and compare norms")
    parser.add_argument("--json", dest="as_json", action="store_true",
                        help="machine-readable report on standard output")
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="comparison tolerance (default 1e-6)")
    parser.add_argument("--seed", type=int, default=None,
                        help="with verify: also run the Monte Carlo "
                             "covariance cross-check with this seed")
    return parser


#: built once at import; parsing reads it and never changes it
_PARSER = _build_parser()


def _check_args(args):
    """Refuse option values the checks cannot use, as malformed input."""
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, "
                         f"got {args.seed}")
    if not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be a finite nonnegative number, "
                         f"got {args.tol}")


def main(argv=None):
    args = _PARSER.parse_args(argv)
    start = time.perf_counter()
    try:
        _check_args(args)
        plant = load_plant(args.plant)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        rep, code = _COMMANDS[args.command](plant, args)
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (SolverError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(rep.render_json() if args.as_json else rep.render_text())
    print(f"wall time {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
