"""The nodal P1 kernel and the wavelet-space operators built from it.

The basis spans the continuous piecewise-linear functions on the
collocation grid, as the nodal hats h_a do.  With T the basis values at
the grid nodes (basis._nodal_matrix), basis function i is
sum_a T[a, i] h_a, so every operator is a change of coordinates of the
closed-form tridiagonal hat matrices of p1_kernel: the Gram matrix is
T^T M T and the derivative inner products are T^T K T, with M the P1
mass matrix and K[a, b] = integral of h_a' h_b.  The solver reads the
kernel directly; the wavelet-space matrices serve only the operator dump
and the tests, and the package namespace does not export their builders.
They are not cached and return fresh, writable arrays on every call
(wavecol.bench keeps one read-only set per resolution for the dump).
The package's one quadrature rule, Gauss-Legendre of order 10, sits
beside the kernel: the initial projection and the oracle's moments both
integrate with it.

Everything here is dense: with at most 65 basis functions at desk scale
there is nothing to gain from exploiting the block sparsity of the Gram
matrix, so it is asserted in tests rather than used.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .basis import BasisSpec, _nodal_matrix
from .errors import ConditioningError

#: Condition-number guard for the dense solves.  Failures must be
#: loud: a silently inaccurate dual basis corrupts every later expansion.
CONDITION_LIMIT = 1e12

#: Gauss-Legendre nodes and weights of order 10 on [-1, 1], as
#: numpy.polynomial.legendre.leggauss(10) gives them.
_GAUSS10_X = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717])
_GAUSS10_W = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814])


def gram_matrix(spec: BasisSpec) -> np.ndarray:
    """Dense matrix of pairwise basis inner products, T^T M T.

    The upper triangle is mirrored so that the matrix is exactly symmetric.
    """
    nodal = _nodal_matrix(spec.max_level)
    mass, _, _ = p1_kernel(spec.n_functions)
    upper = np.triu(nodal.T @ mass @ nodal)
    return upper + np.triu(upper, 1).T


def check_condition(condition: float, what: str) -> float:
    """condition, once checked against CONDITION_LIMIT.

    A condition that is not a number counts as infinite.  Raises
    ConditioningError when it exceeds CONDITION_LIMIT.
    """
    condition = math.inf if math.isnan(condition) else condition
    if condition > CONDITION_LIMIT:
        raise ConditioningError(f"{what} is numerically singular", condition)
    return condition


def guarded_inverse(matrix: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """matrix^-1 and its exact 1-norm condition ||A||_1 ||A^-1||_1, checked.

    The package's one explicit inverse, for T once per resolution (the
    solver keeps it for the initial state) and for dual_transform.  A
    matrix numpy cannot invert counts as infinitely ill-conditioned;
    check_condition raises ConditioningError.
    """
    try:
        inverse = np.linalg.inv(matrix)
        condition = (float(np.linalg.norm(matrix, 1))
                     * float(np.linalg.norm(inverse, 1)))
    except np.linalg.LinAlgError:
        inverse, condition = None, math.inf
    return inverse, check_condition(condition, what)


def dual_transform(gram: np.ndarray) -> np.ndarray:
    """Inverse of the Gram matrix; maps raw moments to expansion coefficients.

    The guard's inverse is the result: np.linalg.inv solves G X = I as
    np.linalg.solve(gram, I) does, bitwise.  Raises ConditioningError as
    guarded_inverse does.
    """
    return guarded_inverse(gram, "Gram matrix")[0]


def derivative_inner_products(spec: BasisSpec) -> np.ndarray:
    """Matrix of integrals (basis function i)' times (basis function j), T^T K T."""
    nodal = _nodal_matrix(spec.max_level)
    _, _, hat_deriv = p1_kernel(spec.n_functions)
    return nodal.T @ hat_deriv @ nodal


def derivative_matrix(spec: BasisSpec, gram: np.ndarray) -> np.ndarray:
    """Operational matrix mapping coefficients to first-derivative coefficients.

    Basis derivatives are piecewise constant and therefore not inside the
    (continuous piecewise-linear) basis span; the matrix realizes the L2
    projection of the derivative onto the span.  It is exact whenever the
    target's derivative lies in the span, e.g. for affine functions.
    """
    return derivative_inner_products(spec) @ dual_transform(gram)


@functools.lru_cache(maxsize=8)
def p1_kernel(n_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mass M, stiffness S and derivative products K of the nodal hats on [0, 1].

    The hats sit on the uniform grid of n_points nodes, spacing
    h = 1 / (n_points - 1).  M[a, b] = integral of h_a h_b: tridiagonal
    h/6, 2h/3, h/6 with corner entries h/3.  S[a, b] = integral of
    h_a' h_b': tridiagonal -1/h, 2/h, -1/h with corner entries 1/h.
    K[a, b] = integral of h_a' h_b: -1/2 above the diagonal and +1/2
    below it; the diagonal vanishes except for the corners, -1/2 and +1/2.
    The three are built once per n_points and returned read-only.
    """
    if n_points < 2:
        raise ValueError("need at least two nodes")
    h = 1.0 / (n_points - 1)
    off = np.ones(n_points - 1)
    mass = (np.diag(np.full(n_points, 2.0 * h / 3.0))
            + np.diag(off * h / 6.0, 1) + np.diag(off * h / 6.0, -1))
    stiffness = (np.diag(np.full(n_points, 2.0 / h))
                 - np.diag(off / h, 1) - np.diag(off / h, -1))
    mass[0, 0] = mass[-1, -1] = h / 3.0
    stiffness[0, 0] = stiffness[-1, -1] = 1.0 / h
    half = np.full(n_points - 1, 0.5)
    hat_deriv = np.diag(half, -1) - np.diag(half, 1)
    hat_deriv[0, 0], hat_deriv[-1, -1] = -0.5, 0.5
    for matrix in (mass, stiffness, hat_deriv):
        matrix.flags.writeable = False
    return mass, stiffness, hat_deriv
