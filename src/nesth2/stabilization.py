"""Structured stabilizability, nominal gains, and the controller parameterization.

A block-lower controller exists iff each player's diagonal subsystem is
stabilizable through its own input and detectable from its own measurement.
When it does, block-diagonal gains K_d and L_d give a nominal controller K0,
and every stabilizing block-lower controller is reached from K0 by closing a
stable block-lower parameter Q through a fixed two-port system. That two-port
and the stable model-matching data (T11, T12, T21) are produced here.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .statespace import StateSpace, lft_lower, lft_upper
from .linalg import (SolverError, _check_separation, pbh_detectable,
                     pbh_stabilizable, screen_axis_rank, solve_are)


@dataclass
class StabilizabilityDiagnostics:
    """Per-subsystem stabilizability/detectability verdicts."""

    player1_stabilizable: bool
    player1_detectable: bool
    player2_stabilizable: bool
    player2_detectable: bool

    @property
    def passed(self):
        return (self.player1_stabilizable and self.player1_detectable
                and self.player2_stabilizable and self.player2_detectable)

    def __bool__(self):
        return self.passed

    @property
    def failures(self):
        names = {
            "player1_stabilizable": "player 1 subsystem not stabilizable",
            "player1_detectable": "player 1 subsystem not detectable",
            "player2_stabilizable": "player 2 subsystem not stabilizable",
            "player2_detectable": "player 2 subsystem not detectable",
        }
        return [msg for attr, msg in names.items() if not getattr(self, attr)]


def exists_triangular_stabilizing(plant):
    """Can any block-lower controller stabilize this plant?

    True iff (A11, B2_11) and (A22, B2_22) are stabilizable and (C2_11, A11)
    and (C2_22, A22) are detectable. Returns diagnostics that are truthy on
    success.
    """
    return StabilizabilityDiagnostics(
        player1_stabilizable=pbh_stabilizable(plant.A11, plant.B2_11),
        player1_detectable=pbh_detectable(plant.C2_11, plant.A11),
        player2_stabilizable=pbh_stabilizable(plant.A22, plant.B2_22),
        player2_detectable=pbh_detectable(plant.C2_22, plant.A22),
    )


@dataclass
class NominalGains:
    """Block-diagonal state feedback K_d and injection L_d, with derived loops.

    K_d = diag(K1, K2) and L_d = diag(L1, L2) build the nominal controller
    that `youla_data` parameterizes from; the design does not use them. K2
    and L1 are K_loc2 and L_loc1 of the synthesis' AreBundle, which makes the
    downstream simplifications exact rather than merely admissible. K1 and
    L2 solve the player-1 control and player-2 filter AREs.
    """

    K_d: np.ndarray
    L_d: np.ndarray
    A_Kd: np.ndarray
    A_Ld: np.ndarray
    C_Kd: np.ndarray
    B_Ld: np.ndarray


def _nominal_are(name, data):
    """Screen the axis rank of one nominal-gain equation and solve it; an
    error names it."""
    try:
        screen_axis_rank(*data)
        return solve_are(*data)
    except SolverError as exc:
        raise SolverError(f"nominal gains, {name} equation: {exc}") from exc


def nominal_gains(plant, bundle):
    """Block-diagonal nominal gains of an admissible plant.

    `bundle` is the plant's AreBundle (see `synthesis.solve_four_ares`); its
    K_loc2 and L_loc1 become K2 and L1. The two equations solved here are
    screened for their axis-rank conditions first, because the player-1
    control and player-2 filter pencils drop rows that A3 and A6 keep. Their
    stabilizability is not screened again: A2 and A5 of `check_assumptions`
    ran the identical `pbh_stabilizable(A11, B2_11)` and
    `pbh_detectable(C2_22, A22)`. A failure raises a SolverError that names
    the equation.

    A_Kd and A_Ld are certified Hurwitz without an eigenvalue solve, by the
    separation certificate of the synthesis: both are block lower, since
    A, B2 and C2 are and K_d and L_d are block diagonal, so each must have
    an exactly zero (1,2) block and diagonal blocks equal, within
    SEPARATION_TOL, to closed loops that `solve_are` certified Hurwitz:
    A11 + B2_11 K1 and A_ctrl2 for A_Kd, A_filt1 and A22 + L2 C2_22 for
    A_Ld.
    """
    n1, m1, k1 = plant.n1, plant.m1, plant.k1
    ctrl1 = (plant.A11, plant.B2_11, plant.C1[:, :n1], plant.D12[:, :m1])
    filt2 = (plant.A22.T, plant.C2_22.T, plant.B1[n1:, :].T,
             plant.D21[k1:, :].T)
    K1 = _nominal_are("player-1 control", ctrl1).K
    L2 = _nominal_are("player-2 filter", filt2).K.T
    K_d = scipy.linalg.block_diag(K1, bundle.K_loc2)
    L_d = scipy.linalg.block_diag(bundle.L_loc1, L2)
    A_Kd = plant.A + plant.B2 @ K_d
    A_Ld = plant.A + L_d @ plant.C2
    try:
        for M, diagonal in (
                (A_Kd, (plant.A11 + plant.B2_11 @ K1, bundle.A_ctrl2)),
                (A_Ld, (bundle.A_filt1, plant.A22 + L2 @ plant.C2_22))):
            if np.any(M[:n1, n1:] != 0.0):
                raise SolverError("nonzero (1,2) block")
            _check_separation("nominal closed loop", M, [],
                              [(M[:n1, :n1], diagonal[0]),
                               (M[n1:, n1:], diagonal[1])])
    except SolverError as exc:
        raise SolverError("nominal gains failed the closed-loop Hurwitz "
                          "check") from exc
    return NominalGains(
        K_d=K_d, L_d=L_d, A_Kd=A_Kd, A_Ld=A_Ld,
        C_Kd=plant.C1 + plant.D12 @ K_d,
        B_Ld=plant.B1 + L_d @ plant.D21,
    )


def nominal_controller(plant, gains):
    """The observer-based nominal stabilizing controller K0 (block-lower)."""
    A0 = plant.A + plant.B2 @ gains.K_d + gains.L_d @ plant.C2
    return StateSpace(A0, -gains.L_d, gains.K_d, np.zeros((plant.m, plant.k)))


@dataclass
class ModelMatchData:
    """Controller parameterization two-port and the model-matching systems.

    lft_lower(J_d, Q) runs over all stabilizing block-lower controllers as Q
    runs over stable block-lower parameters, and the closed loop satisfies
    F(P, K) = T11 + T12 Q T21 with T11, T12, T21 all stable; the three
    share one 2n x 2n state matrix A_T. J_d_inverse is the exact state-space
    inverse of J_d (same state dimension). `gains` are the nominal gains the
    two-port is built on.
    """

    J_d: StateSpace
    J_d_inverse: StateSpace
    T11: StateSpace
    T12: StateSpace
    T21: StateSpace
    gains: NominalGains
    partition: object = None


def youla_data(plant, bundle):
    """Two-port and model-matching data of an admissible plant.

    `bundle` is the plant's AreBundle. The nominal gains are built on it by
    `nominal_gains`, whose SolverError propagates, and kept in `gains`.
    """
    gains = nominal_gains(plant, bundle)
    n, m, k = plant.n, plant.m, plant.k
    A0 = nominal_controller(plant, gains).A
    D_swap = np.block([
        [np.zeros((m, k)), np.eye(m)],
        [np.eye(k), np.zeros((k, m))],
    ])
    J_d = StateSpace(A0, np.hstack([-gains.L_d, plant.B2]),
                     np.vstack([gains.K_d, -plant.C2]), D_swap)
    D_swap_inv = np.block([
        [np.zeros((k, m)), np.eye(k)],
        [np.eye(m), np.zeros((m, k))],
    ])
    J_d_inverse = StateSpace(plant.A, np.hstack([plant.B2, -gains.L_d]),
                             np.vstack([plant.C2, -gains.K_d]), D_swap_inv)
    A_T = np.block([
        [gains.A_Kd, -plant.B2 @ gains.K_d],
        [np.zeros((n, n)), gains.A_Ld],
    ])
    B_w = np.vstack([plant.B1, gains.B_Ld])
    C_z = np.hstack([gains.C_Kd, -plant.D12 @ gains.K_d])
    T11 = StateSpace(A_T, B_w, C_z, np.zeros((plant.nz, plant.nw)))
    T12 = StateSpace(A_T, np.vstack([plant.B2, np.zeros((n, m))]), C_z, plant.D12)
    T21 = StateSpace(A_T, B_w, np.hstack([np.zeros((k, n)), plant.C2]), plant.D21)
    return ModelMatchData(J_d=J_d, J_d_inverse=J_d_inverse,
                          T11=T11, T12=T12, T21=T21, gains=gains,
                          partition=plant.partition)


def controller_from_q(data, Q):
    """Close the parameter Q through J_d: the resulting controller maps y to u."""
    J_d = data.J_d
    nz = J_d.ny - Q.nu
    nw = J_d.nu - Q.ny
    return lft_lower(J_d, Q, nz=nz, nw=nw)


def q_from_controller(data, K):
    """Invert the parameterization: recover Q from a stabilizing controller."""
    J_inv = data.J_d_inverse
    nq = J_inv.ny - K.ny
    np_top = J_inv.nu - K.nu
    return lft_upper(J_inv, K, nq=nq, np_=np_top)
