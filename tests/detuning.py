"""Wrong designs for the verification checks.

Each function returns a design that differs from the optimum in one known
way, so a test can ask which checks tell it from the optimum:

- `detuned_gains` scales one coupled gain block and lets
  `optimal_controller` rebuild the gains, both realizations, the loop and
  the synthesis certificates consistently around it;
- `detuned_controller` scales player 2's rows of the controller's output
  map and rebuilds the loop with `lft_lower`, leaving the gains as they are;
- `corrupted_two_port` scales the injection columns of the parameterization
  two-port J_d, leaving its inverse and the model-matching data as they are.
"""

import dataclasses
from unittest import mock

from nesth2 import synthesis
from nesth2.statespace import StateSpace, lft_lower


def detuned_gains(plant, block, factor):
    """The design whose K_private[m1:, :n1] (block "K") or
    L_common[n1:, :k1] (block "L") is scaled by `factor`."""
    original = synthesis.structured_gains

    def detuned(*args):
        K_private, L_common = original(*args)
        if block == "K":
            K_private[plant.m1:, :plant.n1] *= factor
        else:
            L_common[plant.n1:, :plant.k1] *= factor
        return K_private, L_common
    with mock.patch.object(synthesis, "structured_gains", detuned):
        return synthesis.optimal_controller(plant)


def detuned_controller(plant, synth, factor, columns=slice(None)):
    """`synth` with player 2's rows of the controller's C, in `columns`,
    scaled by `factor`, and the loop closed around that controller."""
    K = synth.controller
    C = K.C.copy()
    C[plant.m1:, columns] *= factor
    detuned = StateSpace(K.A, K.B, C, K.D)
    loop = lft_lower(plant.generalized(), detuned, plant.nz, plant.nw)
    return dataclasses.replace(synth, controller=detuned, closed_loop=loop)


def corrupted_two_port(plant, data, factor):
    """`data` with the injection columns -L_d of J_d's input map scaled by
    `factor`."""
    J = data.J_d
    B = J.B.copy()
    B[:, :plant.k] *= factor
    return dataclasses.replace(data, J_d=StateSpace(J.A, B, J.C, J.D))
