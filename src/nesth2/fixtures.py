"""Reference plants used across the test-suite and the benchmark scripts.

Each builder returns a fully validated TwoPlayerPlant (or, for the filter
example, a small record of raw matrices). The cost/noise embedding used
throughout is the standard one: unit state weight and unit control weight on
the performance side, unit process noise and unit measurement noise on the
disturbance side, with no cross terms, unless a fixture says otherwise.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import SolverError, solve_are
from .plant import Partition, TwoPlayerPlant, check_assumptions

#: seed for the deterministic pseudo-random fixture; chosen (by scanning small
#: integers) so the admissible draw is also well conditioned: the central
#: Riccati solutions and the nominal gains all have norms below ~10
RANDOM_FIXTURE_SEED = 11
MAX_DRAWS = 500
AXIS_MARGIN = 0.05


def _standard_embedding(A, B2, C2, partition):
    """Wrap (A, B2, C2) with identity cost and noise channels."""
    n = A.shape[0]
    m = B2.shape[1]
    k = C2.shape[0]
    B1 = np.hstack([np.eye(n), np.zeros((n, k))])
    D21 = np.hstack([np.zeros((k, n)), np.eye(k)])
    C1 = np.vstack([np.eye(n), np.zeros((m, n))])
    D12 = np.vstack([np.zeros((n, m)), np.eye(m)])
    return TwoPlayerPlant(A, B1, B2, C1, C2, D12, D21, partition)


def make_decoupled():
    """Two independent scalar subsystems; every cross quantity is zero."""
    A = np.diag([-1.0, -2.0])
    return _standard_embedding(A, np.eye(2), np.eye(2),
                               Partition((1, 1), (1, 1), (1, 1)))


def make_unstabilizable_pair():
    """3-state plant whose player-1 subsystem hides an unstable mode.

    The transfer function from u to y is lower triangular, but the mode at
    +1 sits in player 1's block and is invisible to player 1's measurement,
    so no block-lower controller can stabilize the loop. A centralized
    controller (free to use both measurements everywhere) still can.
    """
    A = np.diag([-1.0, 1.0, -1.0])
    B2 = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    C2 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    return _standard_embedding(A, B2, C2, Partition((2, 1), (1, 1), (1, 1)))


def make_stabilizable_pair():
    """2-state plant with an unstable but fixable player-1 mode, plus a gain.

    Returns (plant, K0) where K0 is a static block-lower output feedback
    that places the closed loop at {-1, -1}.
    """
    A = np.diag([1.0, -1.0])
    B2 = np.eye(2)
    C2 = np.array([[1.0, 0.0], [1.0, 1.0]])
    plant = _standard_embedding(A, B2, C2, Partition((1, 1), (1, 1), (1, 1)))
    K0 = np.diag([-2.0, 0.0])
    return plant, K0


@dataclass
class FilterExample:
    """Raw matrices of the scalar estimation example (not a two-player plant).

    The cost channel (C1, D12) penalizes state and input with unit weights,
    which makes the record a complete single-player plant, so the centralized
    solver can run on it as well as the estimator builders.
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C2: np.ndarray
    D21: np.ndarray
    C1: np.ndarray
    D12: np.ndarray


def make_filter_example():
    """Scalar plant driving the estimator worked example."""
    return FilterExample(
        A=np.array([[-4.0]]),
        B1=np.array([[3.0, 0.0]]),
        B2=np.array([[1.0]]),
        C2=np.array([[1.0]]),
        D21=np.array([[0.0, 1.0]]),
        C1=np.array([[1.0], [0.0]]),
        D12=np.array([[0.0], [1.0]]),
    )


def make_pure_noise_channel():
    """Player 2's measurement is pure noise, so it carries no information.

    The optimal filter then ignores y2 entirely; the structured and the
    centralized synthesis coincide and the cost of decentralization is zero.
    """
    A = np.array([[-1.0, 0.0], [0.4, -2.0]])
    B2 = np.eye(2)
    C2 = np.array([[1.0, 0.0], [0.0, 0.0]])
    return _standard_embedding(A, B2, C2, Partition((1, 1), (1, 1), (1, 1)))


def make_decoupled_crosscost():
    """Decoupled dynamics and noise, but a cross-coupled state cost.

    A, B2, C2 are block-diagonal and the noise data W, U, V are
    block-diagonal too, yet the state weight couples the players, producing
    a nonzero coupling gain in the synthesized controller. The closed loop
    must nevertheless be invariant to that gain.
    """
    A = np.diag([-1.0, -3.0])
    B2 = np.eye(2)
    C2 = np.eye(2)
    n, m, k = 2, 2, 2
    B1 = np.hstack([np.eye(n), np.zeros((n, k))])
    D21 = np.hstack([np.zeros((k, n)), np.eye(k)])
    C1 = np.array([
        [1.0, 0.5],
        [0.0, 1.0],
        [0.0, 0.0],
        [0.0, 0.0],
    ])
    D12 = np.array([
        [0.0, 0.0],
        [0.0, 0.0],
        [1.0, 0.0],
        [0.0, 1.0],
    ])
    return TwoPlayerPlant(A, B1, B2, C1, C2, D12, D21,
                          Partition((1, 1), (1, 1), (1, 1)))


def random_plant(seed, n_split=(2, 1), m_split=(1, 1), k_split=(1, 1),
                 scale_cap=20.0):
    """Draw a random plant until every synthesis precondition holds.

    All structured matrices are dense below the diagonal blocks, the
    disturbance and performance channels have generic cross terms, and A is
    redrawn whenever one of its eigenvalues comes within AXIS_MARGIN of the
    imaginary axis. No check splits a spectrum at the axis any more, but the
    margin stays: the seeded plants of the tests, of the 400-plant family
    and of the benchmark are the draws it accepts, and any other margin
    would draw other plants. A is block lower, so its spectrum is that of
    A11 and A22, tested in that order. The draw is deterministic in `seed`.

    Draws whose centralized Riccati solutions or gains exceed `scale_cap` in
    norm are rejected as well (pass None to disable). Raw Gaussian draws
    occasionally produce nearly unstabilizable geometry where those norms run
    into the hundreds; the verification layer's tolerances sit 10 or more
    orders below the scales it subtracts, so such draws are outside the
    regime double precision can certify, and every consumer of this builder
    wants a well-conditioned plant, not a stress test.
    """
    partition = Partition(n_split, m_split, k_split)
    n1, n2 = partition.n
    m1, m2 = partition.m
    k1, k2 = partition.k
    n, m, k = n1 + n2, m1 + m2, k1 + k2
    nw = n + k
    nz = n + m
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        A[:n1, n1:] = 0.0
        B2 = rng.standard_normal((n, m))
        B2[:n1, m1:] = 0.0
        C2 = rng.standard_normal((k, n))
        C2[:k1, n1:] = 0.0
        B1 = rng.standard_normal((n, nw)) / np.sqrt(nw)
        C1 = rng.standard_normal((nz, n)) / np.sqrt(nz)
        D12 = rng.standard_normal((nz, m)) / np.sqrt(nz)
        D21 = rng.standard_normal((k, nw)) / np.sqrt(nw)
        if any(np.min(np.abs(np.linalg.eigvals(blk).real)) < AXIS_MARGIN
               for blk in (A[:n1, :n1], A[n1:, n1:])):
            continue
        plant = TwoPlayerPlant(A, B1, B2, C1, C2, D12, D21, partition)
        if not check_assumptions(plant).passed:
            continue
        if scale_cap is not None:
            try:
                ctrl = solve_are(A, B2, C1, D12)
                filt = solve_are(A.T, C2.T, B1.T, D21.T)
            except SolverError:
                continue
            worst = max(np.linalg.norm(ctrl.X), np.linalg.norm(filt.X),
                        np.linalg.norm(ctrl.K), np.linalg.norm(filt.K))
            if worst > scale_cap:
                continue
        return plant
    raise RuntimeError(f"no admissible plant found in {MAX_DRAWS} draws")


def make_random_fixture():
    """The deterministic pseudo-random fixture (seeded, shared by tests)."""
    return random_plant(RANDOM_FIXTURE_SEED)
