"""The detuning matrix: which `verify` check tells which wrong design from
the optimum.

The matrix iterates `cli.VERIFY_CHECKS` at `verify`'s default gates, the
options of `verify p --oracle --seed 7`, and runs each row directly on the
design's own nominal gains, so the CLI's skip chain hides nothing. The
designs come from `detuning`: the two coupled gain blocks
K_private[m1:, :n1] ("K") and L_common[n1:, :k1] ("L") scaled by
1 + 1e-6, 1 + 1e-4 and the coarse 1 + 1e-1 (the norm-based oracle reads
the detuning only to second order); player 2's rows of the controller's C
scaled by 1 + 1e-4 and 1 + 1e-1 ("C"); and one corrupted two-port. They are
built on the random fixture and on plant 1000, plus the 1 + 1e-6 "C" design
of plant 14580, whose structured certificate used to abort instead of
failing.
"""

import functools

import numpy as np
import pytest

from nesth2 import cli
from nesth2.fixtures import make_random_fixture, random_plant
from nesth2.linalg import SolverError
from nesth2.stabilization import youla_data
from nesth2.synthesis import optimal_controller

from detuning import corrupted_two_port, detuned_controller, detuned_gains

#: the verify rows; the nominal gains are left out, since they depend on the
#: plant alone
CHECKS = {row.name: row.run for row in cli.VERIFY_CHECKS if not row.gives}
ARGS = cli._PARSER.parse_args(["verify", "p", "--oracle", "--seed", "7"])

#: checks that no design fails, with the open ROADMAP item that closes each
KNOWN_GAPS = {
    "fixed points": "item 3: both best-response maps compare a system with "
                    "itself; a real best-response solve replaces them",
}

_GAINS_FINE = {"chain", "gramian", "orthogonality", "certificate"}
_GAINS_COARSE = _GAINS_FINE | {"oracle"}
_LOOP = {"gramian", "orthogonality", "cost", "round trip", "certificate",
         "oracle"}

#: the checks each design FAILS; the cost certificate fails no gain
#: detuning, since the decomposition it certifies holds for any gains of the
#: estimator structure, and catches only a loop that is not the design's
EXPECTED = {
    ("fixture", "optimum"): set(),
    ("fixture", "K 1e-6"): {"chain"},
    ("fixture", "K 1e-4"): _GAINS_FINE,
    ("fixture", "K 1e-1"): _GAINS_COARSE,
    ("fixture", "L 1e-6"): {"chain", "orthogonality"},
    ("fixture", "L 1e-4"): _GAINS_FINE,
    ("fixture", "L 1e-1"): _GAINS_COARSE,
    ("fixture", "C 1e-4"): _LOOP,
    ("fixture", "two-port"): {"round trip"},
    ("1000", "optimum"): set(),
    ("1000", "K 1e-6"): {"chain"},
    ("1000", "K 1e-4"): _GAINS_FINE,
    ("1000", "K 1e-1"): _GAINS_COARSE,
    ("1000", "L 1e-6"): {"chain", "orthogonality"},
    ("1000", "L 1e-4"): _GAINS_FINE,
    # the oracle norm moves by 5.1e-8 relative: second order in 1e-1
    ("1000", "L 1e-1"): _GAINS_FINE,
    ("1000", "C 1e-4"): _LOOP,
    ("1000", "two-port"): {"round trip"},
    # the loop's Lyapunov residual stays under its gate at 1e-6, so the
    # loop factors read the design norm of a loop that does not separate:
    # 369.44499 against 369.44461 from h2_norm of the loop itself, which the
    # cost certificate and the oracle both catch
    ("14580", "C 1e-6"): {"cost", "round trip", "certificate", "oracle"},
    # the Monte Carlo check reads a gain detuning in the loop and its target
    # Y_common alike, so only a loop that disagrees with its pair fails it,
    # and only coarsely: 0.114 on the fixture and 4.9e-3 on plant 1000
    # against the 5 % gate (the fixture's C at 1 + 1e-2 reads 0.016, at
    # 1 + 1e-4 1.7e-4); ROADMAP item 6 would sharpen the gate
    ("fixture", "C 1e-1"): _LOOP | {"Monte Carlo"},
    ("1000", "C 1e-1"): _LOOP,
}


def _designs(name, plant):
    """(design name, synth, data) of each design on `plant`."""
    optimum = optimal_controller(plant)
    data = youla_data(plant, optimum.bundle)
    if name == "14580":
        yield "C 1e-6", detuned_controller(plant, optimum, 1.0 + 1e-6), data
        return
    yield "optimum", optimum, data
    for block in ("K", "L"):
        for exponent in (6, 4, 1):
            synth = detuned_gains(plant, block, 1.0 + 10.0 ** -exponent)
            yield (f"{block} 1e-{exponent}", synth,
                   youla_data(plant, synth.bundle))
    for exponent in (4, 1):
        yield (f"C 1e-{exponent}",
               detuned_controller(plant, optimum, 1.0 + 10.0 ** -exponent),
               data)
    yield "two-port", optimum, corrupted_two_port(plant, data, 1.0 + 1e-4)


@functools.lru_cache(maxsize=None)
def _failures():
    """The set of failing checks of every design, keyed as EXPECTED."""
    plants = (("fixture", make_random_fixture()),
              ("1000", random_plant(1000, n_split=(2, 2))),
              ("14580", random_plant(14580, n_split=(2, 2))))
    failures = {}
    for name, plant in plants:
        for design, synth, data in _designs(name, plant):
            inputs = cli._Inputs(plant, synth)
            inputs.made["data"] = data
            failed = set()
            for check, run in CHECKS.items():
                try:
                    run(plant, synth, inputs.read, ARGS)
                except (SolverError, np.linalg.LinAlgError):
                    failed.add(check)
            failures[name, design] = failed
    return failures


@pytest.mark.parametrize("design", list(EXPECTED))
def test_detuning_matrix_pins_each_verdict(design):
    assert _failures()[design] == EXPECTED[design]


def test_every_check_fails_a_design_or_is_a_known_gap():
    assert set(_failures()) == set(EXPECTED)
    caught = set().union(*EXPECTED.values())
    assert caught.isdisjoint(KNOWN_GAPS)
    assert caught | set(KNOWN_GAPS) == set(CHECKS)
