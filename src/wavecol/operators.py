"""The nodal P1 kernel and the wavelet-space operators built from it.

The basis spans the continuous piecewise-linear functions on the
collocation grid, as the nodal hats h_a do.  With T = basis_matrix(spec,
grid), basis function i is sum_a T[a, i] h_a, so every operator is a change
of coordinates of the closed-form tridiagonal hat matrices of p1_kernel:
the Gram matrix is T^T M T and the derivative inner products are T^T K T,
with M the P1 mass matrix and K[a, b] = integral of h_a' h_b.  The solver
reads the kernel directly; the wavelet-space matrices serve approximation
studies and the operator dumps.

Everything here is dense: with at most 65 basis functions at desk scale
there is nothing to gain from exploiting the block sparsity of the Gram
matrix, so it is asserted in tests rather than used.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_solve

from .basis import BasisSpec, basis_matrix, collocation_points
from .errors import ConditioningError

#: Condition-number guard for the dense factorizations.  Failures must be
#: loud: a silently inaccurate dual basis corrupts every later expansion.
CONDITION_LIMIT = 1e12

_getrf, _gecon = get_lapack_funcs(("getrf", "gecon"), dtype=np.float64)


def gram_matrix(spec: BasisSpec) -> np.ndarray:
    """Dense matrix of pairwise basis inner products, T^T M T.

    The upper triangle is mirrored so that the matrix is exactly symmetric.
    """
    nodal = basis_matrix(spec, collocation_points(spec))
    mass, _, _ = p1_kernel(spec.n_functions)
    upper = np.triu(nodal.T @ mass @ nodal)
    return upper + np.triu(upper, 1).T


def guarded_lu_factor(matrix: np.ndarray,
                      what: str) -> tuple[np.ndarray, np.ndarray]:
    """LU factors of matrix, as scipy.linalg.lu_factor returns them.

    The condition number is LAPACK gecon's estimate of the 1-norm condition
    from these factors, so no second factorisation or SVD is needed.  An
    exactly singular or non-finite matrix estimates as infinite.  Raises
    ConditioningError when the estimate exceeds CONDITION_LIMIT.
    """
    lu, piv, _ = _getrf(matrix)
    rcond, info = _gecon(lu, np.linalg.norm(matrix, 1))
    cond = 1.0 / rcond if info == 0 and rcond > 0 else math.inf
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise ConditioningError(f"{what} is numerically singular", cond)
    return lu, piv


def dual_transform(gram: np.ndarray) -> np.ndarray:
    """Inverse of the Gram matrix; maps raw moments to expansion coefficients.

    Raises ConditioningError if the condition estimate exceeds
    CONDITION_LIMIT.
    """
    lu = guarded_lu_factor(gram, "Gram matrix")
    return lu_solve(lu, np.eye(gram.shape[0]))


def derivative_inner_products(spec: BasisSpec) -> np.ndarray:
    """Matrix of integrals (basis function i)' times (basis function j), T^T K T."""
    nodal = basis_matrix(spec, collocation_points(spec))
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


def p1_kernel(n_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mass M, stiffness S and derivative products K of the nodal hats on [0, 1].

    The hats sit on the uniform grid of n_points nodes, spacing
    h = 1 / (n_points - 1).  M[a, b] = integral of h_a h_b: tridiagonal
    h/6, 2h/3, h/6 with corner entries h/3.  S[a, b] = integral of
    h_a' h_b': tridiagonal -1/h, 2/h, -1/h with corner entries 1/h.
    K[a, b] = integral of h_a' h_b: -1/2 above the diagonal and +1/2
    below it; the diagonal vanishes except for the corners, -1/2 and +1/2.
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
    return mass, stiffness, hat_deriv
