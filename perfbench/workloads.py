"""The four workloads: plants drawn at set-up, the requests of one pass, and
the checks on each request's output.

Plants are drawn during set-up and handed to the program as a plant file
(for command-line requests) or a plant object (for library requests). The
benchmark's seed is the plant seed of the timed `synth-scale` plants. Four
inputs are fixed whatever the seed:

- the Monte Carlo seed of `mc-verify`, the README's 7: the command's 5 %
  covariance gate, checked with 4,000 paths, fails on a few per cent of seeds;
- the `verify-sweep` plants, plant seed 0: `verify` crashes in `minreal` on
  about one plant seed in a hundred at n = 20, and more often at n = 24;
- the stress set;
- the acceptance ensemble (other blocks of that seed sequence hold plants
  that the program fails on, one of them by asking for a 17 GiB Kronecker
  operator in the oracle).

Requests call `nesth2.cli.main` and `nesth2.synthesis.optimal_controller`
through their modules at call time, so a traced run reaches the wrappers.
"""

import contextlib
import io
import os
from dataclasses import dataclass

import numpy as np

from nesth2 import cli, fixtures, synthesis
from nesth2.linalg import SolverError, is_hurwitz
from nesth2.plant import AssumptionError, save_plant
from nesth2.statespace import StateSpace, is_block_lower_tf, lft_lower

#: what a stress plant may raise instead of returning a controller; any other
#: exception is a failed request
REFUSALS = (AssumptionError, SolverError)

#: the acceptance suite's ensemble: four state splits, eight plants each,
#: plant seeds 1000 + 97 i
ENSEMBLE_SPLITS = ((1, 1), (2, 1), (1, 2), (2, 2))
ENSEMBLE_PER_SPLIT = 8

#: the Monte Carlo seed of the README's `verify --oracle --seed` example
README_MC_SEED = 7

#: the plant seed of every `verify-sweep` plant
SWEEP_PLANT_SEED = 0

#: the under-actuated stress family is fixed (seeds 0-7 at every size), so
#: its pass count is a regression target that does not move with the seed
STRESS_SIZES = (8, 16, 24, 32)
STRESS_SEEDS = tuple(range(8))


@dataclass
class Request:
    """One call into the program.

    `call` is the timed part and returns the output; `check` runs outside
    the timed region and returns (problem or None, digest). The digest must
    be identical in every pass of a run.
    """

    label: str
    call: object
    check: object
    stress: bool = False


@dataclass
class Workload:
    name: str
    why: str
    build: object


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_exit(result):
    code, body = result
    return (None if code == 0 else f"exit code {code}"), body


def cli_request(label, argv):
    return Request(label, lambda: _run_cli(argv), _check_exit)


def _check_controller(plant, synth):
    """Block-lower controller, Hurwitz estimate gap and closed loop."""
    K = synth.controller
    digest = b"".join(np.ascontiguousarray(M).tobytes()
                      for M in (K.A, K.B, K.C, K.D))
    # The Markov parameters of a large controller overflow to nan, which
    # compares as small. Checking K(alpha s), realized as (A/alpha, B/alpha,
    # C, D), keeps them bounded and leaves the zero blocks where they are.
    alpha = max(1.0, np.linalg.norm(K.A, 2))
    scaled = StateSpace(K.A / alpha, K.B / alpha, K.C, K.D)
    if not is_block_lower_tf(scaled, (plant.m1, plant.m2),
                             (plant.k1, plant.k2), tol=1e-8):
        return "controller is not block lower", digest
    if not is_hurwitz(synth.A_gap, margin=0.0):
        return "A_gap is not Hurwitz", digest
    closed = lft_lower(plant.generalized(), K, plant.nz, plant.nw)
    if not is_hurwitz(closed.A, margin=0.0):
        return "closed loop is not Hurwitz", digest
    return None, digest


def synth_request(label, plant, stress=False):
    return Request(label, lambda: synthesis.optimal_controller(plant),
                   lambda synth: _check_controller(plant, synth), stress)


def _write(plant, workdir, name):
    path = os.path.join(workdir, name)
    save_plant(plant, path)
    return path


def _square_plant(seed, n):
    h = n // 2
    return fixtures.random_plant(seed, n_split=(h, h), m_split=(h, h),
                                 k_split=(h, h))


def build_mc_verify(seed, workdir, sizes):
    # the decoupled plant's loop settles four times faster than the fixture's
    plant = fixtures.make_decoupled() if sizes.get("tiny") else \
        fixtures.make_random_fixture()
    path = _write(plant, workdir, "fixture.json")
    argv = ["verify", path, "--oracle", "--seed", str(README_MC_SEED)]
    return [cli_request("verify fixture --oracle --seed", argv)]


def build_verify_sweep(seed, workdir, sizes):
    requests = []
    for n in sizes["sweep"]:
        path = _write(_square_plant(SWEEP_PLANT_SEED, n), workdir,
                      f"sweep-{n}.json")
        requests.append(cli_request(f"verify n={n}", ["verify", path]))
    return requests


def build_synth_scale(seed, workdir, sizes):
    requests = [synth_request(f"synthesize n={n}", _square_plant(seed, n))
                for n in sizes["synth"]]
    for n in sizes["stress"]:
        for s in sizes["stress_seeds"]:
            plant = fixtures.random_plant(s, n_split=(n // 2, n // 2),
                                          scale_cap=None)
            requests.append(synth_request(f"stress n={n} seed={s}", plant,
                                          stress=True))
    return requests


def build_ensemble_oracle(seed, workdir, sizes):
    requests = []
    per_split = sizes["per_split"]
    for j, split in enumerate(ENSEMBLE_SPLITS):
        for i in range(j * per_split, (j + 1) * per_split):
            plant = fixtures.random_plant(1000 + 97 * i, n_split=split)
            path = _write(plant, workdir, f"ensemble-{i}.json")
            requests.append(cli_request(f"synthesize plant {i}",
                                        ["synthesize", path]))
            requests.append(cli_request(f"verify --oracle plant {i}",
                                        ["verify", path, "--oracle"]))
    return requests


FULL = {"sweep": (8, 16, 20), "synth": (32, 48, 64),
        "stress": STRESS_SIZES, "stress_seeds": STRESS_SEEDS,
        "per_split": ENSEMBLE_PER_SPLIT}
TINY = {"tiny": True, "sweep": (4, 6), "synth": (4, 6), "stress": (16,),
        "stress_seeds": (6, 7), "per_split": 1}

WORKLOADS = {
    "mc-verify": Workload(
        "mc-verify",
        "README example verify --oracle --seed 7 on the random fixture: the "
        "Euler path kernel is ~99% of the request",
        build_mc_verify),
    "verify-sweep": Workload(
        "verify-sweep",
        "verify at n=8,16,20: dense Kronecker Lyapunov/Sylvester solves grow "
        "as n^6 and dominate; the path kernel never runs",
        build_verify_sweep),
    "synth-scale": Workload(
        "synth-scale",
        "optimal_controller alone at n=32,48,64 (AREs, assumption checks, "
        "coupling solve), plus a fixed under-actuated stress set for failures",
        build_synth_scale),
    "ensemble-oracle": Workload(
        "ensemble-oracle",
        "synthesize and verify --oracle on the 32-plant acceptance ensemble: "
        "per-request overhead sets p50, the oracle sets p90",
        build_ensemble_oracle),
}


def build(name, seed, workdir, tiny=False):
    """Draw the plants of one workload and return its requests, in order."""
    return WORKLOADS[name].build(seed, workdir, TINY if tiny else FULL)
