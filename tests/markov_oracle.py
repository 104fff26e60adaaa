"""Markov-parameter comparison of transfer functions, kept as a test oracle.

The package decides whether two realizations share a transfer function by
evaluating both at four fixed points (`statespace.tf_mismatch`). This module
answers the same question structurally, for the tests to check it against:
by Cayley-Hamilton, g1 - g2, realized on N = g1.nx + g2.nx states, is zero
iff D and its first N Markov parameters are. The stacks cost O(N^4), so
they stay out of the package.

Parameters are read on the frequency-scaled G(alpha s), realized as
(A/alpha, B/alpha, C, D) with one alpha = max(1, ||A||_2) for all systems
compared, so powers of A/alpha stay bounded where C A^k B overflows.
"""

import numpy as np

from nesth2.statespace import StateSpace

#: below this fraction of a realization's parameter bound, a Markov peak
#: counts as a zero transfer function carrying rounding noise
FLOOR = 1e-6


def markov_parameters(g, count):
    """First `count` Markov parameters [D, CB, CAB, ...] of g, one product
    with A at a time, as one (count, ny, nu) array."""
    out = np.empty((count, g.ny, g.nu))
    out[:1] = g.D
    AkB = g.B
    for k in range(1, count):
        out[k] = g.C @ AkB
        AkB = g.A @ AkB
    return out


def scaled_markov_parameters(systems, count):
    """(alpha, [first `count` Markov parameters of each G(alpha s)]). A
    non-finite A takes no part in alpha; its parameters carry the NaN."""
    alpha = max([1.0] + [np.linalg.norm(g.A, 2) for g in systems
                         if np.isfinite(g.A).all()])
    return alpha, [markov_parameters(StateSpace(g.A / alpha, g.B / alpha,
                                                g.C, g.D), count)
                   for g in systems]


def peak(stack):
    """Largest absolute entry of an array; NaN if any entry is NaN."""
    return float(np.abs(stack).max(initial=0.0))


def markov_scale(g, alpha, params):
    """Peak of the scaled parameters `params` of g, floored at FLOOR times
    the bound ||C|| ||B|| / alpha + ||D|| on any of them."""
    floor = FLOOR * (np.linalg.norm(g.C) * np.linalg.norm(g.B) / alpha
                     + np.linalg.norm(g.D))
    return float(np.max([peak(params), floor]))


def markov_mismatch(g1, g2):
    """Largest difference of D and the first g1.nx + g2.nx scaled Markov
    parameters of g1 and g2, relative to the larger `markov_scale` of the
    two. Exactly zero parameters on both sides read 0.0; a NaN anywhere
    reads NaN."""
    alpha, (p1, p2) = scaled_markov_parameters([g1, g2], g1.nx + g2.nx + 1)
    scale = float(np.max([markov_scale(g1, alpha, p1),
                          markov_scale(g2, alpha, p2)]))
    if scale == 0.0:
        return 0.0
    return peak(p1 - p2) / scale
