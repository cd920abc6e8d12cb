"""Finite-difference spatial operators with Neumann (no-flux) boundaries.

The DL model imposes ``dI/dx = 0`` at both ends of the distance interval
("no flux of information across the boundaries").  The standard second-order
discretisation of the 1-D Laplacian with Neumann conditions uses ghost points
mirrored across the boundary, which is equivalent to the matrix

    [[-2  2  0 ...]
     [ 1 -2  1 ...]
     [ ...        ]
     [ ...  2 -2 ]] / h**2

This module provides the dense matrix (the reference ``"dense"`` operator
mode), its tridiagonal bands (the banded factorization) and a
matrix-free application (the Crank-Nicolson right-hand side and the scipy
method-of-lines backend).
"""

from __future__ import annotations

import numpy as np


def laplacian_matrix(num_points: int, spacing: float) -> np.ndarray:
    """Dense second-order Neumann Laplacian matrix.

    Parameters
    ----------
    num_points:
        Number of grid nodes (>= 2).
    spacing:
        Grid spacing ``h`` (> 0).

    Returns
    -------
    numpy.ndarray
        A ``(num_points, num_points)`` matrix ``A`` such that ``A @ u``
        approximates ``u_xx`` with mirrored ghost points at the boundaries.
    """
    if num_points < 2:
        raise ValueError(f"num_points must be >= 2, got {num_points}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    matrix = np.zeros((num_points, num_points))
    inv_h2 = 1.0 / (spacing * spacing)
    for i in range(1, num_points - 1):
        matrix[i, i - 1] = inv_h2
        matrix[i, i] = -2.0 * inv_h2
        matrix[i, i + 1] = inv_h2
    # Neumann boundaries via mirrored ghost nodes: u_{-1} = u_{1}, u_{n} = u_{n-2}.
    matrix[0, 0] = -2.0 * inv_h2
    matrix[0, 1] = 2.0 * inv_h2
    matrix[-1, -1] = -2.0 * inv_h2
    matrix[-1, -2] = 2.0 * inv_h2
    return matrix


def laplacian_tridiagonal(
    num_points: int, spacing: float
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Tridiagonal ``(sub, diag, super)`` bands of the Neumann Laplacian.

    The same entries as :func:`laplacian_matrix` without the O(n^2) zeros:
    ``sub`` holds the subdiagonal (length ``num_points - 1``), ``diag`` the
    main diagonal and ``super`` the superdiagonal.  The mirrored ghost nodes
    of the Neumann boundaries double the first superdiagonal and the last
    subdiagonal entry, which is what makes the matrix nonsymmetric in the
    boundary rows.
    """
    if num_points < 2:
        raise ValueError(f"num_points must be >= 2, got {num_points}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    inv_h2 = 1.0 / (spacing * spacing)
    diag = np.full(num_points, -2.0 * inv_h2)
    sub = np.full(num_points - 1, inv_h2)
    sup = np.full(num_points - 1, inv_h2)
    sup[0] = 2.0 * inv_h2
    sub[-1] = 2.0 * inv_h2
    return sub, diag, sup


def second_derivative(values: np.ndarray, spacing: float) -> np.ndarray:
    """Matrix-free second derivative with Neumann boundary conditions.

    Equivalent to ``laplacian_matrix(len(values), spacing) @ values`` but
    without building the matrix.  ``values`` may be one state vector ``(n,)``
    or a block of batch columns ``(n, k)``; the operator is applied along the
    first axis either way.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2):
        raise ValueError("values must be one- or two-dimensional")
    if values.shape[0] < 2:
        raise ValueError("at least two values are required")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    result = np.empty_like(values)
    inv_h2 = 1.0 / (spacing * spacing)
    result[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) * inv_h2
    result[0] = 2.0 * (values[1] - values[0]) * inv_h2
    result[-1] = 2.0 * (values[-2] - values[-1]) * inv_h2
    return result

