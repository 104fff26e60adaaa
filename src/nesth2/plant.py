"""Two-player plant model: partitioned matrices, structural checks, JSON I/O.

The plant is

    xdot = A x + B1 w + B2 u
    z    = C1 x          + D12 u
    y    = C2 x + D21 w

with every signal split between the two players. A, B2 and C2 must be
block-lower-triangular for the given partition: player 1's subsystem is not
influenced by player 2's state or input, and player 1's measurement does not
see player 2's state. The (1,1) feedthroughs D11 and D22 are identically zero
and are not stored.
"""

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .statespace import StateSpace, _mat
from .linalg import _exceeds, axis_rank_ok
from .stabilization import (StabilizabilityDiagnostics,
                            exists_triangular_stabilizing)


def _pair(v, name):
    # two positive integers; a float equal to one counts, a bool does not
    t = tuple(v) if isinstance(v, (list, tuple, np.ndarray)) else ()
    if len(t) != 2 or not all(
            isinstance(x, numbers.Real) and not isinstance(x, bool)
            and float(x).is_integer() and x >= 1 for x in t):
        raise ValueError(f"{name} split must be two positive integers, "
                         f"got {v!r}")
    return tuple(int(x) for x in t)


@dataclass(frozen=True)
class Partition:
    """Two-block splits of the state (n), input (m) and measurement (k)."""

    n: tuple
    m: tuple
    k: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _pair(self.n, "n"))
        object.__setattr__(self, "m", _pair(self.m, "m"))
        object.__setattr__(self, "k", _pair(self.k, "k"))


def _upper_block_error(name, M, rows, cols):
    blk = M[:rows, cols:]
    if blk.size and np.any(blk != 0.0):
        return (f"{name} has a nonzero upper-right block "
                f"(rows :{rows}, cols {cols}:); it must be exactly zero")
    return None


class TwoPlayerPlant:
    """Validated container for the partitioned plant matrices."""

    def __init__(self, A, B1, B2, C1, C2, D12, D21, partition):
        if not isinstance(partition, Partition):
            partition = Partition(*partition)
        self.partition = partition
        n = sum(partition.n)
        m = sum(partition.m)
        k = sum(partition.k)
        self.A = _mat(A, "A")
        self.B1 = _mat(B1, "B1")
        self.B2 = _mat(B2, "B2")
        self.C1 = _mat(C1, "C1")
        self.C2 = _mat(C2, "C2")
        self.D12 = _mat(D12, "D12")
        self.D21 = _mat(D21, "D21")
        if self.A.shape != (n, n):
            raise ValueError(f"A must be {n}x{n}, got {self.A.shape}")
        if self.B2.shape != (n, m):
            raise ValueError(f"B2 must be {n}x{m}, got {self.B2.shape}")
        if self.C2.shape != (k, n):
            raise ValueError(f"C2 must be {k}x{n}, got {self.C2.shape}")
        if self.B1.shape[0] != n:
            raise ValueError(f"B1 must have {n} rows, got {self.B1.shape[0]}")
        if self.C1.shape[1] != n:
            raise ValueError(f"C1 must have {n} columns, got {self.C1.shape[1]}")
        nw = self.B1.shape[1]
        nz = self.C1.shape[0]
        if self.D12.shape != (nz, m):
            raise ValueError(f"D12 must be {nz}x{m}, got {self.D12.shape}")
        if self.D21.shape != (k, nw):
            raise ValueError(f"D21 must be {k}x{nw}, got {self.D21.shape}")
        for M in (self.A, self.B1, self.B2, self.C1, self.C2, self.D12, self.D21):
            if not np.all(np.isfinite(M)):
                raise ValueError("plant matrices must be finite")
        problems = [
            _upper_block_error("A", self.A, partition.n[0], partition.n[0]),
            _upper_block_error("B2", self.B2, partition.n[0], partition.m[0]),
            _upper_block_error("C2", self.C2, partition.k[0], partition.n[0]),
        ]
        problems = [p for p in problems if p]
        if problems:
            raise ValueError("; ".join(problems))

    # -- sizes ------------------------------------------------------------

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B2.shape[1]

    @property
    def k(self):
        return self.C2.shape[0]

    @property
    def nw(self):
        return self.B1.shape[1]

    @property
    def nz(self):
        return self.C1.shape[0]

    @property
    def n1(self):
        return self.partition.n[0]

    @property
    def n2(self):
        return self.partition.n[1]

    @property
    def m1(self):
        return self.partition.m[0]

    @property
    def m2(self):
        return self.partition.m[1]

    @property
    def k1(self):
        return self.partition.k[0]

    @property
    def k2(self):
        return self.partition.k[1]

    # -- blocks of the structured matrices --------------------------------

    @property
    def A11(self):
        return self.A[:self.n1, :self.n1]

    @property
    def A21(self):
        return self.A[self.n1:, :self.n1]

    @property
    def A22(self):
        return self.A[self.n1:, self.n1:]

    @property
    def B2_11(self):
        return self.B2[:self.n1, :self.m1]

    @property
    def B2_22(self):
        return self.B2[self.n1:, self.m1:]

    @property
    def C2_11(self):
        return self.C2[:self.k1, :self.n1]

    @property
    def C2_22(self):
        return self.C2[self.k1:, self.n1:]

    # -- derived systems ---------------------------------------------------

    def generalized(self):
        """The 2x2-block system mapping (w, u) to (z, y) for LFT closure."""
        B = np.hstack([self.B1, self.B2])
        C = np.vstack([self.C1, self.C2])
        D = np.block([
            [np.zeros((self.nz, self.nw)), self.D12],
            [self.D21, np.zeros((self.k, self.m))],
        ])
        return StateSpace(self.A, B, C, D)

    def __repr__(self):
        return (f"TwoPlayerPlant(n={self.partition.n}, m={self.partition.m}, "
                f"k={self.partition.k}, nw={self.nw}, nz={self.nz})")


@dataclass
class CostCovariance:
    """Quadratic cost blocks (Q, S, R) and noise covariance blocks (W, U, V).

    Q = C1'C1, S = C1'D12, R = D12'D12 come from the performance output;
    W = B1 B1', U = D21 B1', V = D21 D21' from the disturbance input. The
    stacked matrices [Q S; S' R] and [W U'; U V] are Gram matrices, hence
    positive semidefinite by construction.
    """

    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    W: np.ndarray
    U: np.ndarray
    V: np.ndarray
    partition: Partition = field(repr=False, default=None)

    @property
    def Q21(self):
        n1 = self.partition.n[0]
        return self.Q[n1:, :n1]

    @property
    def S12(self):
        n1, m1 = self.partition.n[0], self.partition.m[0]
        return self.S[:n1, m1:]

    @property
    def R22(self):
        m1 = self.partition.m[0]
        return self.R[m1:, m1:]

    @property
    def W21(self):
        n1 = self.partition.n[0]
        return self.W[n1:, :n1]

    @property
    def U12(self):
        k1, n1 = self.partition.k[0], self.partition.n[0]
        return self.U[:k1, n1:]

    @property
    def V11(self):
        k1 = self.partition.k[0]
        return self.V[:k1, :k1]


def cost_cov_matrices(plant):
    """Cost and covariance data derived from the plant's output/input maps."""
    C1, D12, B1, D21 = plant.C1, plant.D12, plant.B1, plant.D21
    return CostCovariance(
        Q=C1.T @ C1, S=C1.T @ D12, R=D12.T @ D12,
        W=B1 @ B1.T, U=D21 @ B1.T, V=D21 @ D21.T,
        partition=plant.partition,
    )


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------

class AssumptionError(ValueError):
    """A plant fails the admissibility preconditions for synthesis."""


@dataclass
class AssumptionResult:
    label: str
    passed: bool
    description: str


@dataclass
class AssumptionReport:
    """Outcome of the six structural checks.

    The labels A1..A6 are this package's own numbering of the conditions,
    in the order they are checked:

      A1  control weight D12'D12 positive definite
      A2  (A11, B2_11) and (A22, B2_22) stabilizable
      A3  no control-side invariant zero on the imaginary axis
      A4  noise covariance D21 D21' positive definite
      A5  (C2_11, A11) and (C2_22, A22) detectable
      A6  no filter-side invariant zero on the imaginary axis

    A3 presupposes A1 and A6 presupposes A4: the axis checks compress out
    the columns of D12 (the rows of D21) and report a fail when D12 lacks
    full column rank (D21 full row rank), so a plant that fails A1 or A4
    fails A3 or A6 as well.

    `stabilizability` holds the four per-player verdicts behind A2 and A5.
    Together with the block-triangular structure, A1-A6 imply that all four
    Riccati equations of the synthesis have stabilizing solutions, so the
    solver does not screen them again. Minimality of the realization is not
    needed and not checked.
    """

    checks: list
    stabilizability: StabilizabilityDiagnostics

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return [c.label for c in self.checks if not c.passed]

    def __getitem__(self, label):
        for c in self.checks:
            if c.label == label:
                return c
        raise KeyError(label)


def _positive_definite(M):
    """lambda_min(M) > 0 for a Gram matrix M: proved by a Cholesky
    factorization (`linalg._exceeds`), or else read off eigvalsh."""
    return _exceeds(M, 0.0) or np.linalg.eigvalsh(M).min() > 0.0


def check_assumptions(plant):
    """Evaluate the six synthesis preconditions; failures are reported, not raised."""
    diag = exists_triangular_stabilizing(plant)
    checks = []

    def record(label, passed, description):
        checks.append(AssumptionResult(label, bool(passed), description))

    record("A1", _positive_definite(plant.D12.T @ plant.D12),
           "control weight D12'D12 is positive definite")
    record("A2", diag.player1_stabilizable and diag.player2_stabilizable,
           "each player's subsystem is stabilizable through its own input")
    record("A3", axis_rank_ok(plant.A, plant.B2, plant.C1, plant.D12,
                              side="column"),
           "no control-side invariant zero on the imaginary axis")
    record("A4", _positive_definite(plant.D21 @ plant.D21.T),
           "measurement noise covariance D21 D21' is positive definite")
    record("A5", diag.player1_detectable and diag.player2_detectable,
           "each player's subsystem is detectable from its own measurement")
    record("A6", axis_rank_ok(plant.A, plant.B1, plant.C2, plant.D21,
                              side="row"),
           "no filter-side invariant zero on the imaginary axis")
    return AssumptionReport(checks=checks, stabilizability=diag)


# ---------------------------------------------------------------------------
# JSON plant files
# ---------------------------------------------------------------------------

_MATRIX_KEYS = ("A", "B1", "B2", "C1", "C2", "D12", "D21")


def _json_matrix(data, key):
    """data[key] as a float array; ValueError naming the key when the entry
    is not a (nested list of) numbers, for instance a JSON object."""
    try:
        return np.array(data[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix '{key}' is not a nested list of numbers: "
                         f"{exc}") from exc


def plant_from_dict(data):
    """Build a TwoPlayerPlant from the documented JSON structure.

    Expects {"partitions": {"n": [n1, n2], "m": [m1, m2], "k": [k1, k2]},
    "A": ..., ..., "D21": ...} with matrices as row-major nested lists.
    Optional "D11"/"D22" entries must be zero if present.
    """
    if not isinstance(data, dict):
        raise ValueError("plant description must be a JSON object")
    if "partitions" not in data:
        raise ValueError("missing 'partitions' entry")
    parts = data["partitions"]
    if not isinstance(parts, dict):
        raise ValueError("'partitions' must be an object")
    for key in ("n", "m", "k"):
        if key not in parts:
            raise ValueError(f"partitions must contain '{key}'")
    partition = Partition(parts["n"], parts["m"], parts["k"])
    mats = {}
    for key in _MATRIX_KEYS:
        if key not in data:
            raise ValueError(f"missing matrix '{key}'")
        mats[key] = _json_matrix(data, key)
    for key in ("D11", "D22"):
        if key in data and np.any(_json_matrix(data, key) != 0.0):
            raise ValueError(f"{key} must be zero: the model is strictly "
                             "proper in that channel")
    return TwoPlayerPlant(partition=partition, **mats)


def plant_to_dict(plant):
    return {
        "partitions": {
            "n": list(plant.partition.n),
            "m": list(plant.partition.m),
            "k": list(plant.partition.k),
        },
        **{key: getattr(plant, key).tolist() for key in _MATRIX_KEYS},
    }


def load_plant(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    return plant_from_dict(data)


def save_plant(plant, path):
    with open(path, "w") as fh:
        json.dump(plant_to_dict(plant), fh, indent=2)
        fh.write("\n")
