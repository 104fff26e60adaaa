"""Dense solvers for the small matrix equations behind H2 synthesis.

Riccati equations take the stable invariant subspace of the associated
2n x 2n Hamiltonian: from its eigenvectors below n = 32 states, and from its
matrix sign function (Byers 1987, Linear Algebra Appl. 85) from n = 32 on.
The sign function costs a few LU inversions, BLAS-3 work, where the
eigenvectors need a nonsymmetric eigensolver. It is the faster of the two
from about n = 24 on; `solve_are` gives the measured crossover, and why
the cutoff stays at 32.

Lyapunov and Sylvester equations use the Bartels-Stewart method (Bartels &
Stewart 1972, CACM Alg. 432): a real Schur form of each coefficient, then
LAPACK's quasi-triangular solver `trsyl`. That costs O(n^3) time and O(n^2)
memory, where vectorizing with Kronecker products would cost O(n^6) time and
O(n^4) memory. Every solver verifies its result with a residual check scaled
to the size of the equation's terms.

A state matrix is factored once. Its real Schur form A = U T U^T carries the
spectrum on the diagonal of T (LAPACK's standardized 2 x 2 blocks have equal
diagonal entries, the real part of the pair), so the Hurwitz test reads it
there, and the same (T, U) serves A P + P A^T and A^T P + P A through
`trsyl`'s transpose flags. `h2_norm` takes both Gramians and its stability
test from one factorization; `solve_lyapunov` and `solve_sylvester` are thin
wrappers over the same from-Schur solvers. The from-Schur solvers also
accept the factors of a nearby matrix, such as the block upper triangular
form that `synthesis.LoopFactors` assembles from the synthesized loop's
diagonal blocks: every residual is checked against the matrix passed in,
so the shortcut holds only where that matrix agrees with its factors.
`_h2_from_schur` also takes a controllability Gramian that its caller has
already solved, as `LoopFactors` does with the loop's.

The structural preconditions of a Riccati equation are PBH rank tests:
stabilizability, and the absence of invariant zeros on the imaginary axis,
which `axis_rank_ok` reduces to a PBH test by compressing out the
feedthrough. Since [M, B][M, B]^H >= B B^H, the smallest singular value of
[A - l I, B] is at least sigma_n(B) at every l. So when B has at least n
columns and sigma_n(B) clears the rank tolerance, B alone certifies full
rank everywhere, with no eigenvalue computed. That is the case for a player
whose input (output) block has full rank n, and for a compressed pair whose
C - D F has full column rank. A Cholesky factorization of B B^T, shifted by
the tolerance and a bound on its own rounding, proves that inequality (see
`_exceeds`); only when it fails does one SVD of B decide. Otherwise the test
takes one SVD per real eigenvalue in the region of interest, in real
arithmetic, and one per conjugate pair: [A - conj(l) I, B] is the conjugate
of [A - l I, B] and has the same singular values.

The same shifted factorization certifies the one-sided questions that
`check_assumptions` and `solve_are` ask of a matrix in hand: D^T D > 0,
X > 0, and A + B K Hurwitz through the Lyapunov identity that the Riccati
equation supplies. A factorization that fails proves nothing, and the
spectral test of the same matrix then decides, with its own message.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .statespace import StateSpace, _mat

HURWITZ_MARGIN = 1e-9
AXIS_TOL = 1e-7
RESIDUAL_TOL = 1e-8
RANK_TOL = 1e-9
H2_CONSISTENCY_TOL = 1e-6
#: a block that a block-triangular structure makes zero, or equal to a
#: matrix already certified Hurwitz, may differ from it by at most this
#: multiple of the norm of the matrix it is read from; correct designs read
#: at most 1.4e-16 (400-plant family, stress set, n = 32-96)
SEPARATION_TOL = 1e-12

# Riccati equations with at least this many states take the matrix sign
# function of the Hamiltonian, smaller ones its eigenvectors (see solve_are)
_SIGN_MIN_STATES = 32
# Newton steps the sign iteration may take; the benchmark's plants need 7-8,
# and eigenvalues within 1e-4 of the axis about 20
_SIGN_MAX_STEPS = 60

_EPS = np.finfo(float).eps
_POTRF = scipy.linalg.lapack.dpotrf
_GEQRF = scipy.linalg.lapack.dgeqrf
_ORMQR = scipy.linalg.lapack.dormqr
_TRTRS = scipy.linalg.lapack.dtrtrs


class SolverError(RuntimeError):
    """A solver's preconditions failed or its result did not verify."""


_MARGIN_BAND = ("Hamiltonian eigenvalue inside the margin band; "
                "no strictly stabilizing solution")


def is_hurwitz(A, margin=HURWITZ_MARGIN):
    """True iff every eigenvalue of A satisfies Re(lambda) < -margin."""
    A = _mat(A, "A")
    if A.shape[0] == 0:
        return True
    return bool(np.max(np.linalg.eigvals(A).real) < -margin)


def _exceeds(M, gate, formed=0.0):
    """Whether a Cholesky factorization proves lambda_min(M0) > gate for
    every symmetric M0 within `formed` of the symmetric M in the 2-norm.

    LAPACK `potrf` factors M - c I, with the floor c = f + 2 (n + 2) eps
    (|tr M| + f) and f = gate + formed. When it succeeds, the factor R has
    R^T R = M - c I + dM with |dM| <= gamma_{n+1} |R^T| |R| (Higham 2002,
    Accuracy and Stability of Numerical Algorithms, Thm 10.3), so
    ||dM||_2 <= gamma_{n+1} ||R||_F^2, about (n + 1) eps tr M. With the
    rounding of the shift itself that leaves lambda_min(M) > f + (n + 1)
    eps tr M, a margin that also covers the backward error of an eigvalsh
    of M and a relative error of a few eps in a computed gate. A
    factorization that fails proves nothing; so do an empty M and a floor
    that is not finite. `potrf` reads one triangle, so M must be exactly
    symmetric. A NaN or infinite entry there reaches the factor's diagonal,
    and a factor whose trace is not finite proves nothing either: some
    `potrf` implementations pass a NaN pivot.
    """
    n = M.shape[0]
    floor = gate + formed
    floor += 2 * (n + 2) * _EPS * (abs(M.trace()) + floor)
    if not (n and math.isfinite(floor)):
        return False
    # the transpose of a symmetric C-ordered array is its Fortran-ordered
    # self, which potrf factors in place
    factor, info = _POTRF((M - floor * np.eye(n)).T, overwrite_a=True,
                          clean=False)
    return info == 0 and math.isfinite(factor.trace())


def _sigma_n_exceeds(B, tol):
    """Whether `_exceeds` proves sigma_n(B) > tol for an n x m B, n <= m.

    It factors B B^T, whose rounding is at most gamma_m ||B||_F^2, against
    the gate (tol + (n + m) eps ||B||_F)^2: the extra term covers the error
    of an SVD's sigma_n, so the SVD test `sigma_n(B) > tol` passes too.
    """
    n, m = B.shape
    norm_B = np.linalg.norm(B)
    return _exceeds(B @ B.T, (tol + (n + m) * _EPS * norm_B) ** 2,
                    (m + 2) * _EPS * norm_B ** 2)


def _check_separation(stage, M, zero_blocks, matched_blocks):
    """Refuse M unless each of `zero_blocks` vanishes and each (block,
    target) pair of `matched_blocks` agrees, to SEPARATION_TOL * ||M||_F.

    Raises SolverError naming `stage`, with the largest residual against
    the scale; a NaN residual is refused too.
    """
    scale = float(np.linalg.norm(M))
    res = float(np.max([np.linalg.norm(Z) for Z in zero_blocks]
                       + [np.linalg.norm(X - Y) for X, Y in matched_blocks]))
    if not res <= SEPARATION_TOL * scale:
        raise SolverError(f"{stage}: residual/scale {res:.2e}/{scale:.2e}")


def triangular_sylvester(R, S, F, trana, tranb, singular):
    """Solve op(R) Y + Y op(S) = F for quasi-triangular R and S.

    R and S are real Schur forms; op is the identity for 'N' and the
    transpose for 'T'. The scaled LAPACK `trsyl` solution is divided by its
    overflow guard `scale`. trsyl flags a singular operator (op(R) and
    -op(S) share an eigenvalue) with info == 1 and then solves a perturbed
    equation; that answer is refused with SolverError(singular).
    """
    trsyl, = scipy.linalg.get_lapack_funcs(("trsyl",), (R, S))
    Y, scale, info = trsyl(R, S, F, trana=trana, tranb=tranb)
    if info == 1:
        raise SolverError(singular)
    return Y / scale


def _real_schur(A):
    """Real Schur form (T, U) of a square A = U T U^T.

    A 0 x 0 matrix gives empty factors. Like `np.linalg.eigvals`, a matrix
    with a NaN or infinite entry raises LinAlgError.
    """
    if A.shape[0] == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    if not np.isfinite(A).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    return scipy.linalg.schur(A, output="real", check_finite=False)


def _require_hurwitz(T, message):
    """SolverError(message) unless every eigenvalue of the real Schur form
    T has Re < -HURWITZ_MARGIN.

    The real parts are the diagonal of T: real eigenvalues sit there, and
    each standardized 2 x 2 block carries the real part of its pair on both
    diagonal entries.
    """
    if T.shape[0] and not np.max(np.diag(T)) < -HURWITZ_MARGIN:
        raise SolverError(message)


def _hurwitz_schur(A, message):
    """Real Schur form (T, U) of A, or SolverError(message) unless every
    eigenvalue has Re < -HURWITZ_MARGIN (see `_require_hurwitz`)."""
    T, U = _real_schur(A)
    _require_hurwitz(T, message)
    return T, U


def _schur_sylvester(R, U, S, V, F, trana, tranb, singular):
    """Solve op(U R U^T) X + X op(V S V^T) = F from real Schur factors."""
    return U @ triangular_sylvester(R, S, U.T @ F @ V, trana, tranb,
                                    singular) @ V.T


def _lyapunov_from_schur(A, schur, Q, trans):
    """Solve op(A) P + P op(A)^T + Q = 0 given schur = (T, U) of A.

    op is the identity for trans 'N' and the transpose for 'T', so one
    factorization of A serves both Gramians. Raises SolverError when the
    equation is singular or the residual check fails. If Q is symmetric the
    result is symmetrized.
    """
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    T, U = schur
    P = _schur_sylvester(
        T, U, T, U, -Q, trans, "T" if trans == "N" else "N",
        "singular Lyapunov operator: A and -A^T share an eigenvalue")
    if np.linalg.norm(Q - Q.T) <= 1e-12 * max(1.0, np.linalg.norm(Q)):
        P = 0.5 * (P + P.T)
    opA = A if trans == "N" else A.T
    res = np.linalg.norm(opA @ P + P @ opA.T + Q)
    scale = 1.0 + np.linalg.norm(Q) + 2.0 * np.linalg.norm(A) * np.linalg.norm(P)
    if not res <= RESIDUAL_TOL * scale:
        raise SolverError(f"Lyapunov residual {res:.2e} exceeds tolerance")
    return P


def solve_lyapunov(A, Q):
    """Solve A P + P A^T + Q = 0 by the Bartels-Stewart method.

    One real Schur form A = U T U^T serves both sides of the equation.
    Raises SolverError when the equation is singular (A and -A^T share an
    eigenvalue) or the residual check fails. If Q is symmetric the result is
    symmetrized.
    """
    A = _mat(A, "A")
    Q = _mat(Q, "Q")
    n = A.shape[0]
    if Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
    return _lyapunov_from_schur(A, _real_schur(A), Q, "N")


def _sylvester_from_schur(A1, schur1, A0, A2, schur2):
    """Solve A1 * Om + Om * A2 + A0 = 0 given the real Schur forms
    schur1 = (R, U) of A1 and schur2 = (S, V) of A2.

    Raises SolverError when the equation is singular (A1 and -A2 share an
    eigenvalue) or the residual check fails.
    """
    n, m = A0.shape
    if n == 0 or m == 0:
        return np.zeros((n, m))
    (R, U), (S, V) = schur1, schur2
    Om = _schur_sylvester(
        R, U, S, V, -A0, "N", "N",
        "singular Sylvester operator: A1 and -A2 share an eigenvalue")
    res = np.linalg.norm(A1 @ Om + Om @ A2 + A0)
    scale = (1.0 + np.linalg.norm(A0)
             + (np.linalg.norm(A1) + np.linalg.norm(A2)) * np.linalg.norm(Om))
    if not res <= RESIDUAL_TOL * scale:
        raise SolverError(f"Sylvester residual {res:.2e} exceeds tolerance")
    return Om


def solve_sylvester(A1, A0, A2):
    """Solve A1 * Om + Om * A2 + A0 = 0 for Om by the Bartels-Stewart method.

    Raises SolverError when the equation is singular (A1 and -A2 share an
    eigenvalue) or the residual check fails.
    """
    A1 = _mat(A1, "A1")
    A0 = _mat(A0, "A0")
    A2 = _mat(A2, "A2")
    n, m = A0.shape
    if A1.shape != (n, n) or A2.shape != (m, m):
        raise ValueError("incompatible Sylvester dimensions")
    if n == 0 or m == 0:
        return np.zeros((n, m))
    return _sylvester_from_schur(A1, _real_schur(A1), A0, A2, _real_schur(A2))


def _pbh_rank_ok(A, B, region):
    """[A - lambda I, B] has full row rank at each eigenvalue lambda of A
    for which region(lambda) holds, at RANK_TOL against the data's size.

    When B (n x m) has m >= n and sigma_n(B) > RANK_TOL * scale, the answer
    is True with no eigenvalue computed: [M, B][M, B]^H >= B B^H gives
    sigma_n([A - lambda I, B]) >= sigma_n(B) at every lambda, so each test
    below would pass. A Cholesky factorization of B B^T proves that
    inequality (`_sigma_n_exceeds`); if it fails, one SVD of B decides it.
    Otherwise each eigenvalue is tested. region must be symmetric under
    conjugation. Only eigenvalues with Im >= 0 are visited, since A and B
    are real; a real eigenvalue is tested in real arithmetic. Like
    `np.linalg.eigvals`, a NaN or infinite entry raises LinAlgError,
    whether or not the certificate would have read it."""
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    n = A.shape[0]
    tol = RANK_TOL * max(1.0, np.linalg.norm(A) + np.linalg.norm(B))
    if 0 < n <= B.shape[1] and (
            _sigma_n_exceeds(B, tol)
            or np.linalg.svd(B, compute_uv=False)[n - 1] > tol):
        return True
    for lam in np.linalg.eigvals(A):
        if lam.imag < 0.0 or not region(lam):
            continue
        shift = lam.real if lam.imag == 0.0 else lam
        M = np.hstack([A - shift * np.eye(n), B])
        if np.linalg.svd(M, compute_uv=False)[-1] <= tol:
            return False
    return True


def pbh_stabilizable(A, B):
    """PBH test: each eigenvalue with Re >= -HURWITZ_MARGIN is controllable."""
    return _pbh_rank_ok(_mat(A, "A"), _mat(B, "B"),
                        lambda lam: lam.real >= -HURWITZ_MARGIN)


def pbh_detectable(C, A):
    """PBH test: each eigenvalue with Re >= -HURWITZ_MARGIN is observable."""
    return pbh_stabilizable(_mat(A, "A").T, _mat(C, "C").T)


def axis_rank_ok(A, B, C, D, side="column"):
    """Check full column (or row) rank of [A - iwI, B; C, D] for all real w.

    With D of full column rank, the pencil loses column rank at s exactly
    when s is an unobservable mode of (At, Ct) = (A - B F, C - D F), where
    F = D^+ C (Zhou, Doyle & Glover 1996, ch. 13): the columns of D are
    compressed out and what is left is a PBH test. It runs at each
    eigenvalue of At within AXIS_TOL * max(1, ||A||_F) of the imaginary
    axis, unless Ct has full column rank above RANK_TOL: then there is no
    unobservable mode anywhere, and Ct alone settles it (see
    `_pbh_rank_ok`). That needs at least n more outputs than inputs. A D
    without full column rank (row rank for side="row") gives False, so the
    check presupposes the weight condition that makes D of full rank.

    With n more outputs than inputs, `_axis_certificate` first tries to
    prove True from a QR factorization of D and two Cholesky factors, with
    no SVD or eigenvalue. When it cannot, one SVD of D gives the rank
    verdict, at `np.linalg.matrix_rank`'s threshold, and F, and the PBH
    test decides. A NaN or infinite entry in any argument raises
    LinAlgError.
    """
    A = _mat(A, "A")
    B = _mat(B, "B")
    C = _mat(C, "C")
    D = _mat(D, "D")
    if side == "row":
        return axis_rank_ok(A.T, C.T, B.T, D.T, side="column")
    if not all(np.isfinite(M).all() for M in (A, B, C, D)):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    if side != "column":
        raise ValueError("side must be 'column' or 'row'")
    if _axis_certificate(A, B, C, D):
        return True
    U, s, Vt = np.linalg.svd(D, full_matrices=False)
    rank_tol = s.max(initial=0.0) * max(D.shape) * np.finfo(float).eps
    if np.count_nonzero(s > rank_tol) < D.shape[1]:
        return False
    F = Vt.T @ ((U.T @ C) / s[:, None])
    band = AXIS_TOL * max(1.0, np.linalg.norm(A))
    return _pbh_rank_ok((A - B @ F).T, (C - D @ F).T,
                        lambda lam: abs(lam.real) <= band)


def _axis_certificate(A, B, C, D):
    """Whether Cholesky factors prove that `axis_rank_ok`'s SVD path, on
    the column side, would return True through its certificate.

    Needs p >= m + n for a p x m D. A Householder QR factorization D = Q R
    gives F, from the triangular system R F = Q^T C, Ct = C - D F, and
    s_lo = 1 / (2 ||R^-1||_F), half an estimate of sigma_m(D).
    `_sigma_n_exceeds` then proves sigma_m(D) > s_lo, which bounds the
    condition of D, and D of full column rank above
    `np.linalg.matrix_rank`'s threshold. Any backward stable least-squares
    residual, this one or the SVD path's, lies within

        err = (p + 1)(m + 1) eps (||C||_F + ||D||_F ||F||_F
                                  + ||D||_F ||Ct||_F / s_lo)

    of the exact (I - D D^+) C, to first order (Higham 2002, Thms 19.4 and
    20.3), and the two F within err / s_lo of each other. So the SVD path's
    tolerance is at most tol = RANK_TOL * max(1, ||A - B F||_F + ||Ct||_F
    + 2 err (1 + ||B||_F / s_lo)), and proving sigma_n(Ct) > tol + 2 err
    proves that its sigma_n clears its tolerance. A singular R proves
    nothing, and the SVD path then meets the same data.
    """
    p, m = D.shape
    n = A.shape[0]
    if not (m and 0 < n <= p - m):
        return False
    # Householder QR: R is the upper triangle of qr[:m]; the triangular
    # solves read no other entry
    qr, tau, _, _ = _GEQRF(D)
    R_inv, info = _TRTRS(qr[:m], np.eye(m))
    if info:
        return False
    s_lo = 0.5 / np.linalg.norm(R_inv)
    norm_D = np.linalg.norm(D)
    if not _sigma_n_exceeds(D.T, max(s_lo, max(p, m) * _EPS * norm_D)):
        return False
    QtC, _, _ = _ORMQR("L", "T", qr, tau, C, n)
    F, _ = _TRTRS(qr[:m], QtC[:m])
    Ct = C - D @ F
    norm_Ct = np.linalg.norm(Ct)
    err = (p + 1) * (m + 1) * _EPS * (
        np.linalg.norm(C) + norm_D * (np.linalg.norm(F) + norm_Ct / s_lo))
    tol = RANK_TOL * max(1.0, np.linalg.norm(A - B @ F) + norm_Ct
                         + 2.0 * err * (1.0 + np.linalg.norm(B) / s_lo))
    return _sigma_n_exceeds(Ct.T, tol + 2.0 * err)


@dataclass
class AreSolution:
    """Stabilizing Riccati solution X, its gain K and the verified residual."""

    X: np.ndarray
    K: np.ndarray
    residual: float


def screen_are(A, B, C, D):
    """Refuse Riccati data that has no stabilizing solution, before solving.

    Raises SolverError if (A, B) is not stabilizable or the pencil
    [A - iwI, B; C, D] loses column rank on the imaginary axis, by the PBH
    tests of `pbh_stabilizable` and `axis_rank_ok`. The second test also
    fails when D lacks full column rank, which `solve_are` refuses too.
    `solve_are` does not run this screen: for the plant equations it is
    implied by `check_assumptions`. Only callers whose data those checks do
    not cover call it.
    """
    if not pbh_stabilizable(A, B):
        raise SolverError("(A, B) is not stabilizable")
    screen_axis_rank(A, B, C, D)


def screen_axis_rank(A, B, C, D):
    """The axis-rank half of `screen_are`, for callers whose
    stabilizability is already tested: SolverError if the pencil
    [A - iwI, B; C, D] loses column rank on the imaginary axis."""
    if not axis_rank_ok(A, B, C, D, side="column"):
        raise SolverError("axis-rank condition fails: the pencil "
                          "[A - iwI, B; C, D] loses column rank on the axis")


def _eig_solution(H, n):
    """X from the eigenvectors of the n stable eigenvalues of H.

    Raises SolverError if an eigenvalue of H falls in the +-HURWITZ_MARGIN
    band, the stable eigenvalues do not number n, or their basis is singular.
    """
    w, V = np.linalg.eig(H)
    if np.any(np.abs(w.real) <= HURWITZ_MARGIN):
        raise SolverError(_MARGIN_BAND)
    sel = w.real < -HURWITZ_MARGIN
    if int(np.sum(sel)) != n:
        raise SolverError(
            f"Hamiltonian has {int(np.sum(sel))} stable eigenvalues, expected {n}")
    V1 = V[:n, sel]
    V2 = V[n:, sel]
    try:
        return np.real(np.linalg.solve(V1.T, V2.T).T)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"stable-subspace basis is singular: {exc}") from exc


def _sign_solution(H, n):
    """X from the matrix sign function Z = sign(H) (Byers 1987).

    Newton's iteration Z <- (mu Z + (mu Z)^{-1}) / 2 starts from H and takes
    one LU factorization (`getrf`) and one inversion from it (`getri`) per
    step. Determinantal scaling mu = |det Z|^(-1/(2n)), read off the diagonal
    of the LU factor, runs until the relative 1-norm step falls below 1e-2.
    The iteration stops at a relative step of at most 1e-13, or when an
    unscaled step fails to halve the one before it: quadratic convergence
    has then reached the rounding floor. The stable invariant subspace of H
    is the null space of Z + I, so [I; X] spans it exactly when
    [Z12; Z22 + I] X = -[Z11 + I; Z21], which is solved by QR.

    Raises LinAlgError for a NaN or infinite entry, as `np.linalg.eig`
    does. Raises SolverError if an iterate is singular: H then has an
    eigenvalue on the imaginary axis (at 0 if H itself is singular; the
    Newton map keeps the axis and sends +-i to 0). Also if the iteration
    takes more than _SIGN_MAX_STEPS steps, the trace of Z shows that the
    stable eigenvalues do not number n, or their basis is singular.
    """
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    getrf, getri = scipy.linalg.get_lapack_funcs(("getrf", "getri"), (H,))
    Z = H
    scaled = True
    last = np.inf
    for _ in range(_SIGN_MAX_STEPS):
        lu, piv, info = getrf(Z)
        if info > 0:
            raise SolverError("Hamiltonian sign iterate is singular; "
                              "H has an eigenvalue on the imaginary axis")
        Z_inv, _ = getri(lu, piv)
        mu = 1.0
        if scaled:
            mu = np.exp(-np.sum(np.log(np.abs(np.diag(lu)))) / (2 * n))
        Z_next = 0.5 * (mu * Z + Z_inv / mu)
        step = np.linalg.norm(Z_next - Z, 1) / np.linalg.norm(Z_next, 1)
        Z = Z_next
        if step <= 1e-13 or (not scaled and step > 0.5 * last):
            break
        scaled = scaled and step >= 1e-2
        last = step
    else:
        raise SolverError(f"Hamiltonian sign iteration did not converge in "
                          f"{_SIGN_MAX_STEPS} steps")
    # trace Z counts unstable minus stable eigenvalues; round(trace) == 0
    # exactly when |trace| <= 0.5, a form that also refuses a NaN
    trace = np.trace(Z)
    if not abs(trace) <= 0.5:
        raise SolverError(f"Hamiltonian sign has trace {trace:.3g}; its "
                          f"stable eigenvalues do not number {n}")
    eye = np.eye(n)
    Q, R = np.linalg.qr(np.vstack([Z[:n, n:], Z[n:, n:] + eye]))
    rhs = -np.vstack([Z[:n, :n] + eye, Z[n:, :n]])
    try:
        return scipy.linalg.solve_triangular(R, Q.T @ rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"stable-subspace basis is singular: {exc}") from exc


def solve_are(A, B, C, D):
    """Stabilizing solution of the Riccati equation with cross weights.

        A^T X + X A + C^T C
            - (X B + C^T D) (D^T D)^{-1} (B^T X + D^T C) = 0

    returning AreSolution(X, K, residual) with K = -(D^T D)^{-1}(B^T X + D^T C)
    and A + B K Hurwitz.

    Method: absorb the cross term, form the 2n x 2n Hamiltonian H and find
    the basis [I; X] of its stable invariant subspace. Below
    _SIGN_MIN_STATES = 32 states, X comes from the eigenvectors of the n
    strictly-stable eigenvalues (complex arithmetic is fine at this scale,
    `_eig_solution`); from 32 on, from the matrix sign function of H
    (`_sign_solution`). The cutoff is the measured crossover. On one BLAS
    thread of a 2-core Intel Xeon, one solve, checks included, took 0.68
    of the eigenvector path's time at n = 32, 0.56-0.58 at n = 40-48 and
    0.50-0.52 at n = 64; 0.71-0.78 at n = 28, 0.90-0.92 at n = 24 and
    0.98-1.00 at n = 20; and 1.25-1.50 times as long at n = 12-16 (least
    of 400 or 100 solves of the control and filter equations of
    `random_plant(0)` with square splits, two runs). The cutoff stays at
    32 although the sign path is the faster from about n = 24: moving it
    would change the path that the benchmark's n = 24 stress plants take.

    The result is symmetrized and verified on both paths: residual,
    positive semidefiniteness and the closed-loop property that A + B K has
    every eigenvalue left of -HURWITZ_MARGIN are all checked. Cholesky
    factors certify what they can (see `_exceeds`): D^T D > 0; X > 0, which
    passes the semidefiniteness gate; and then W = -((A + B K)^T X + X (A +
    B K)) >= 2 HURWITZ_MARGIN ||X||_F I, which proves the margin
    (`_lyapunov_certifies`). For a Riccati solution W = (C + D K)^T (C + D
    K), so that certificate holds when X is definite and C + D K has full
    column rank. Each certificate proves, for the exact matrix, the
    inequality that the spectral test checks. Where a factorization fails,
    the spectral test of the same matrix decides, with its own message:
    eigvalsh of D^T D, eigvalsh of X, eigvals of A + B K. The spectrum of
    A + B K is the stable half of H's, whose eigenvalues come in +-lambda
    pairs, so a Hamiltonian eigenvalue inside the margin band shows up
    there on either path. The eigenvalue computation of A + B K gives its
    largest real part; in [-HURWITZ_MARGIN, 0) the refusal names the margin
    band, with the eigenvector path's wording, and any other value that is
    not below -HURWITZ_MARGIN refuses the closed loop as not Hurwitz. With
    zero states, once D^T D is found definite, X is empty, K is m x 0 and
    the residual is 0.

    Raises SolverError if D^T D is not positive definite, a Hamiltonian
    eigenvalue falls in the +-HURWITZ_MARGIN band (tested on H's spectrum
    on the eigenvector path, on that of A + B K on both), the stable
    eigenvalues do not number n, the
    sign iteration does not converge, or any verification fails. Data
    without a stabilizing solution ends in one of those. A NaN or infinite
    entry raises LinAlgError. The structural preconditions (stabilizable
    (A, B), no axis zero) are not re-checked here: `check_assumptions` covers
    the plant's equations, and `screen_are` covers the rest.
    """
    A = _mat(A, "A")
    B = _mat(B, "B")
    C = _mat(C, "C")
    D = _mat(D, "D")
    n = A.shape[0]
    m = B.shape[1]
    R = D.T @ D
    R_sym = 0.5 * (R + R.T)
    if not _exceeds(R_sym, 0.0) and np.linalg.eigvalsh(R_sym).min() <= 0.0:
        raise SolverError("control weight D^T D is not positive definite")
    if n == 0:
        return AreSolution(X=np.zeros((0, 0)), K=np.zeros((m, 0)),
                           residual=0.0)
    S = C.T @ D
    Qm = C.T @ C
    Rinv = np.linalg.inv(R)
    At = A - B @ Rinv @ S.T
    Qt = Qm - S @ Rinv @ S.T
    H = np.block([[At, -B @ Rinv @ B.T], [-Qt, -At.T]])
    solution = _sign_solution if n >= _SIGN_MIN_STATES else _eig_solution
    X = solution(H, n)
    X = 0.5 * (X + X.T)
    K = -Rinv @ (B.T @ X + D.T @ C)
    quad = (X @ B + S) @ Rinv @ (B.T @ X + S.T)
    res = np.linalg.norm(A.T @ X + X @ A + Qm - quad)
    scale = 1.0 + 2.0 * np.linalg.norm(A.T @ X) + np.linalg.norm(Qm) + np.linalg.norm(quad)
    if not res <= RESIDUAL_TOL * scale:
        raise SolverError(f"Riccati residual {res:.2e} exceeds tolerance")
    definite = _exceeds(X, 0.0)
    if not definite and (np.linalg.eigvalsh(X).min()
                         < -1e-8 * (1.0 + np.linalg.norm(X))):
        raise SolverError("Riccati solution is not positive semidefinite")
    A_cl = A + B @ K
    if not (definite and _lyapunov_certifies(A_cl, X)):
        top = np.max(np.linalg.eigvals(A_cl).real, initial=-np.inf)
        if -HURWITZ_MARGIN <= top < 0.0:
            raise SolverError(_MARGIN_BAND)
        if not top < -HURWITZ_MARGIN:
            raise SolverError("closed loop A + B K is not Hurwitz")
    return AreSolution(X=X, K=K, residual=float(res))


def _lyapunov_certifies(A, X):
    """Whether, for a symmetric X > 0, `_exceeds` proves every eigenvalue
    of A has Re < -HURWITZ_MARGIN.

    For A v = lambda v, v^H W v = -2 Re(lambda) v^H X v with W = -(A^T X
    + X A). So W >= w I with w > 0 gives -2 Re(lambda) >= w / lambda_max(X)
    >= w / ||X||_F, and the gate w = 2 HURWITZ_MARGIN ||X||_F proves the
    margin. The product X A is formed to within gamma_n ||X||_F ||A||_F,
    so W to within 2 (n + 2) eps ||X||_F ||A||_F. For a Riccati solution,
    W = (C + D K)^T (C + D K) (Zhou, Doyle & Glover 1996, ch. 13), which is
    definite when C + D K has full column rank.
    """
    n = A.shape[0]
    norm_X = np.linalg.norm(X)
    G = X @ A
    return _exceeds(-(G + G.T), 2.0 * HURWITZ_MARGIN * norm_X,
                    2 * (n + 2) * _EPS * norm_X * np.linalg.norm(A))


_NOT_HURWITZ = "Gramian of a non-Hurwitz system is undefined"


def gramian(sys, kind="controllability"):
    """Controllability or observability Gramian of a Hurwitz system."""
    schur = _hurwitz_schur(sys.A, _NOT_HURWITZ)
    if kind == "controllability":
        return _lyapunov_from_schur(sys.A, schur, sys.B @ sys.B.T, "N")
    if kind == "observability":
        return _lyapunov_from_schur(sys.A, schur, sys.C.T @ sys.C, "T")
    raise ValueError("kind must be 'controllability' or 'observability'")


def _gramian_traces(A, schur, B, C, Wc=None):
    """The two trace forms tr(C Wc C^T) and tr(B^T Wo B) of the squared H2
    norm of (A, B, C, 0), given schur = (T, U) of a Hurwitz A.

    Wc from A Wc + Wc A^T + B B^T = 0 and Wo from A^T Wo + Wo A + C^T C = 0
    both come from the one factorization, the second through `trsyl`'s
    transpose flag. A caller that already holds Wc passes it, and only Wo
    is solved. The Hurwitz test is the caller's: this reads no spectrum.
    """
    if Wc is None:
        Wc = _lyapunov_from_schur(A, schur, B @ B.T, "N")
    Wo = _lyapunov_from_schur(A, schur, C.T @ C, "T")
    return float(np.trace(C @ Wc @ C.T)), float(np.trace(B.T @ Wo @ B))


def _h2_from_schur(A, schur, B, C, Wc=None):
    """H2 norm of (A, B, C, 0) from `_gramian_traces`, whose two forms must
    agree to H2_CONSISTENCY_TOL."""
    sq_c, sq_o = _gramian_traces(A, schur, B, C, Wc)
    if not abs(sq_c - sq_o) <= H2_CONSISTENCY_TOL * (1.0 + abs(sq_c)):
        raise SolverError(
            f"Gramian forms disagree: {sq_c:.12e} vs {sq_o:.12e}")
    return float(np.sqrt(max(sq_c, 0.0)))


def h2_norm(sys):
    """H2 norm sqrt(trace(C Wc C^T)), cross-checked via the observability form.

    One real Schur form of A serves the Hurwitz test and both Gramians of
    `_h2_from_schur`. Wc takes the exact path of `solve_lyapunov`, so the
    norm equals sqrt(trace(C solve_lyapunov(A, B B^T) C^T)) to the last bit.

    Raises SolverError for a non-Hurwitz A, and ValueError for a nonzero
    feedthrough (the norm is infinite).
    """
    if np.linalg.norm(sys.D) != 0.0:
        raise ValueError("nonzero feedthrough: the H2 norm is unbounded")
    schur = _hurwitz_schur(sys.A, _NOT_HURWITZ)
    return _h2_from_schur(sys.A, schur, sys.B, sys.C)


def stable_antistable_decompose(sys):
    """Additive split G = Gs + Ga with Gs Hurwitz and Ga anti-Hurwitz.

    The feedthrough is carried by the stable part; the antistable part is
    strictly proper. An eigenvalue of A within HURWITZ_MARGIN of the imaginary
    axis is an error: the split would not be well defined. Like
    `np.linalg.eigvals`, a NaN or infinite entry of A raises LinAlgError.

    The stable invariant subspace comes from one ordered real Schur form,
    whose diagonal also carries the margin-band test, rather than an
    eigenvector basis: eigenvectors of clustered or defective
    eigenvalues can be nearly dependent, while the Schur basis stays
    orthonormal no matter how the spectrum clusters. The state is balanced
    first (an exact powers-of-two similarity); long product chains otherwise
    reach block separations poor enough to wreck the decoupling shear.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = sys.nx
    if not np.isfinite(A).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    if n:
        A, Tb = scipy.linalg.matrix_balance(A)
        B = np.linalg.solve(Tb, sys.B)
        C = sys.C @ Tb
    empty = StateSpace(np.zeros((0, 0)), np.zeros((0, sys.nu)),
                       np.zeros((sys.ny, 0)), np.zeros_like(D))
    if n == 0:
        return StateSpace.gain(D), empty
    At, T, ns = scipy.linalg.schur(A, output="real", sort="lhp",
                                   check_finite=False)
    # the diagonal of the real Schur form carries the real parts
    if np.any(np.abs(np.diag(At)) <= HURWITZ_MARGIN):
        raise SolverError("eigenvalue inside the margin band around the axis; "
                          "stable/antistable split is ill defined")
    if ns == 0:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, sys.nu)),
                          np.zeros((sys.ny, 0)), D), StateSpace(A, B, C, np.zeros_like(D))
    if ns == n:
        return sys, empty
    As, A12, Au = At[:ns, :ns], At[:ns, ns:], At[ns:, ns:]
    # Decouple the triangular form with a Sylvester-driven shear; As and -Au
    # are already quasi-triangular, so each is its own Schur form.
    minus_Au = -Au
    Z = _sylvester_from_schur(As, (As, np.eye(ns)), A12,
                              minus_Au, (minus_Au, np.eye(n - ns)))
    Sinv_rows = np.block([[np.eye(ns), -Z], [np.zeros((n - ns, ns)), np.eye(n - ns)]]) @ T.T
    S_cols = T @ np.block([[np.eye(ns), Z], [np.zeros((n - ns, ns)), np.eye(n - ns)]])
    Bt = Sinv_rows @ B
    Ct = C @ S_cols
    Gs = StateSpace(As, Bt[:ns], Ct[:, :ns], D)
    Ga = StateSpace(Au, Bt[ns:], Ct[:, ns:], np.zeros_like(D))
    return Gs, Ga
