"""Shared cache of prefactorized spatial operators.

Every Crank-Nicolson step solves a linear system with the same matrix

    (I - dt/2 * d * A)

where ``A`` is the Neumann Laplacian of the grid.  During calibration the
same (grid, dt, d) triple recurs thousands of times -- once per candidate
parameter set and once per corrector of every internal time step (one on a
non-stiff step) -- so refactorizing per solve dominates the runtime.  This module holds a
process-wide cache keyed by the *values* that determine the operator
(``num_points``, ``spacing``, ``dt``, ``diffusion_rate``) rather than object
identity, so the factorization is paid once per (grid, dt, d) and shared
across time steps, solves, calibration candidates and batch columns.

The Neumann Laplacian is tridiagonal, so two factorization *modes* are
offered through :func:`crank_nicolson_operator`:

``"banded"`` (the default for the Crank-Nicolson engine)
    Symmetric tridiagonal ``L D L^T`` through LAPACK ``pttrf``/``pttrs`` --
    O(n) memory and O(n) per solve.  The operator is not symmetric (the
    Neumann ghost node doubles the boundary coupling), but halving its first
    and last row makes it symmetric positive definite, and a solve halves
    the same rows of the right-hand side; halving is exact.  No general LU
    (``gttrs``) is used.
``"dense"``
    The original dense LU (:func:`scipy.linalg.lu_factor`), kept as the
    reference implementation the equivalence tests and the substrate
    benchmark compare against.

:func:`stacked_crank_nicolson_operator` assembles the block-diagonal
operator of a whole batch, one block per column, from the cached per-rate
factors, so one ``pttrs`` call solves every column of a step.  It caches
nothing keyed by the column layout.

Cached arrays are returned read-only; callers that need to modify an operator
must copy it first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

OPERATOR_MODES = ("dense", "banded")
"""Factorization modes accepted by :func:`crank_nicolson_operator`."""


@lru_cache(maxsize=64)
def neumann_laplacian_matrix(num_points: int, spacing: float) -> np.ndarray:
    """Dense Neumann Laplacian for a uniform grid, cached and read-only."""
    from repro.numerics.finite_difference import laplacian_matrix

    matrix = laplacian_matrix(num_points, spacing)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=64)
def neumann_laplacian_tridiagonal(
    num_points: int, spacing: float
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Tridiagonal ``(sub, diag, super)`` bands of the Neumann Laplacian.

    Identical entries to :func:`neumann_laplacian_matrix` without the O(n^2)
    zeros; all three arrays are cached read-only.
    """
    from repro.numerics.finite_difference import laplacian_tridiagonal

    bands = laplacian_tridiagonal(num_points, spacing)
    for band in bands:
        band.setflags(write=False)
    return bands


@lru_cache(maxsize=512)
def crank_nicolson_factor(
    num_points: int, spacing: float, dt: float, diffusion_rate: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Dense LU factorization of ``I - dt/2 * d * A`` for the Neumann Laplacian.

    The returned value is the ``(lu, piv)`` pair produced by
    :func:`scipy.linalg.lu_factor`, directly usable with
    :func:`scipy.linalg.lu_solve` (which accepts one right-hand side or a
    matrix of right-hand-side columns, enabling the batched solver).
    """
    from scipy.linalg import lu_factor

    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    laplacian = neumann_laplacian_matrix(num_points, spacing)
    lhs = np.eye(num_points) - (0.5 * dt * diffusion_rate) * laplacian
    lu, piv = lu_factor(lhs)
    lu.setflags(write=False)
    piv.setflags(write=False)
    return lu, piv


def _crank_nicolson_bands(
    num_points: int, spacing: float, dt: float, diffusion_rate: float
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Writable ``(sub, diag, super)`` bands of ``I - dt/2 * d * A``."""
    sub, diag, sup = neumann_laplacian_tridiagonal(num_points, spacing)
    scale = 0.5 * dt * diffusion_rate
    return (-scale * sub, 1.0 - scale * diag, -scale * sup)


class DenseFactorization:
    """Dense LU factorization with a uniform ``solve`` interface."""

    mode = "dense"

    def __init__(self, lu: np.ndarray, piv: np.ndarray) -> None:
        self._lu_piv = (lu, piv)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the stored factors."""
        return sum(int(array.nbytes) for array in self._lu_piv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side ``(n,)`` or a column block ``(n, k)``."""
        from scipy.linalg import lu_solve

        return lu_solve(self._lu_piv, rhs)


def _halved_symmetric_bands(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray
) -> "tuple[np.ndarray, np.ndarray] | None":
    """``(diag, off)`` of ``W M`` when that is symmetric with a positive diagonal.

    ``W = diag(1/2, 1, ..., 1, 1/2)`` halves the first and last row.  The
    Neumann ghost node doubles the boundary coupling of the Laplacian, so
    every Crank-Nicolson operator ``I - dt/2 * d * A`` becomes symmetric --
    and, being diagonally dominant, positive definite -- once those two rows
    are halved.  Halving is exact in floating point.  Returns ``None`` for
    bands this does not symmetrize.
    """
    diag = np.array(diag, dtype=float)
    lower = np.array(sub, dtype=float)
    upper = np.array(sup, dtype=float)
    if diag.size < 2:
        return None
    diag[[0, -1]] *= 0.5
    lower[-1] *= 0.5  # the last row's coupling
    upper[0] *= 0.5  # the first row's coupling
    if not (np.array_equal(lower, upper) and np.all(diag > 0.0)):
        return None
    return diag, upper


def _halve_block_ends(rhs: np.ndarray, block: int) -> None:
    """Halve the first and last row of every ``block`` rows of an F-ordered ``rhs``."""
    rhs.reshape((block, -1), order="F")[:: block - 1] *= 0.5


class BandedFactorization:
    """Symmetric tridiagonal LDL^T via LAPACK ``pttrf``/``pttrs`` -- O(n) memory and solves.

    A Crank-Nicolson operator ``M`` is factored as the symmetric positive
    definite ``W M = L D L^T`` (see :func:`_halved_symmetric_bands`), and a
    solve halves the first and last row of the right-hand side before one
    ``pttrs`` call.  ``pttrs`` keeps no division on its dependency chain, so
    it runs about twice as fast as a general tridiagonal LU solve.

    Every grid of two or more points takes this path.  Bands that halving
    does not make symmetric with a positive diagonal raise ``ValueError``;
    a Crank-Nicolson operator always qualifies, since a problem's diffusion
    rate is positive.  Symmetric bands that are not positive definite raise
    :class:`numpy.linalg.LinAlgError`.
    """

    mode = "banded"

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> None:
        symmetric = _halved_symmetric_bands(sub, diag, sup)
        if symmetric is None:
            raise ValueError(
                "bands must become symmetric with a positive diagonal once their "
                "first and last row are halved"
            )
        from scipy.linalg.lapack import dpttrf, dpttrs

        pivots, multipliers, info = dpttrf(*symmetric)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"halved bands are not positive definite (pttrf info={info})"
            )
        self._factor = (pivots, multipliers)
        # Bound once: the per-solve import lookup costs as much as a small
        # solve's arithmetic.
        self._pttrs = dpttrs
        self._block = int(pivots.size)

    @classmethod
    def block_diagonal(
        cls, blocks: "Sequence[BandedFactorization]", layout: np.ndarray
    ) -> "BandedFactorization":
        """The factorization of ``diag(M[layout[0]], M[layout[1]], ...)``.

        ``blocks`` are factorizations of one size; ``layout`` picks the block
        at each position.  Their ``L D L^T`` factors are concatenated with
        zero multipliers between blocks -- what ``pttrf`` computes for the
        block-diagonal matrix, since a zero coupling adds exact zeros -- so
        this costs O(len(layout) n) and no factorization.  With a finite
        right-hand side every block's solution is bit-identical to its own
        solve; a non-finite entry does not stay in its block (``0 * inf`` is
        NaN).
        """
        size = blocks[0]._block
        if any(block._block != size for block in blocks):
            raise ValueError("blocks must be LDL^T factorizations of one size")
        pivots = np.stack([block._factor[0] for block in blocks])
        multipliers = np.zeros((len(blocks), size))
        multipliers[:, :-1] = np.stack([block._factor[1] for block in blocks])
        stacked = cls.__new__(cls)
        stacked._factor = (pivots[layout].ravel(), multipliers[layout].ravel()[:-1])
        stacked._pttrs = blocks[0]._pttrs
        stacked._block = size
        return stacked

    def __getstate__(self) -> dict:
        # LAPACK wrappers do not pickle; __setstate__ binds it again.
        return {**self.__dict__, "_pttrs": None}

    def __setstate__(self, state: dict) -> None:
        from scipy.linalg.lapack import dpttrs

        self.__dict__.update(state)
        self._pttrs = dpttrs

    @property
    def nbytes(self) -> int:
        """Memory footprint of the stored factors."""
        return sum(int(array.nbytes) for array in self._factor)

    def solve(self, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Solve for one right-hand side ``(n,)`` or a column block ``(n, k)``.

        With ``overwrite=True`` the solution is written over ``rhs`` and
        ``rhs`` is returned; a Fortran-contiguous float64 ``rhs`` is solved
        in place, without a copy.
        """
        in_place = overwrite and rhs.dtype == np.float64 and rhs.flags.f_contiguous
        work = rhs if in_place else np.array(rhs, dtype=float, order="F")
        _halve_block_ends(work, self._block)
        solution, info = self._pttrs(*self._factor, work, overwrite_b=True)
        if info != 0:  # pragma: no cover - cannot happen for a valid factorization
            raise np.linalg.LinAlgError(f"tridiagonal solve failed (pttrs info={info})")
        if overwrite and not np.may_share_memory(solution, rhs):
            rhs[...] = solution
            return rhs
        return solution


@lru_cache(maxsize=512)
def crank_nicolson_operator(
    num_points: int,
    spacing: float,
    dt: float,
    diffusion_rate: float,
    mode: str = "banded",
):
    """Factorized ``I - dt/2 * d * A`` in the requested operator ``mode``.

    Returns an object with a ``solve(rhs)`` method accepting one right-hand
    side ``(n,)`` or a block of columns ``(n, k)``, plus ``mode`` and
    ``nbytes`` attributes.  Banded factorizations store O(n) data; the
    dense mode shares the factors of :func:`crank_nicolson_factor`.
    """
    if mode not in OPERATOR_MODES:
        raise ValueError(
            f"unknown operator mode {mode!r}; expected one of {OPERATOR_MODES}"
        )
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if mode == "dense":
        return DenseFactorization(*crank_nicolson_factor(num_points, spacing, dt, diffusion_rate))
    return BandedFactorization(*_crank_nicolson_bands(num_points, spacing, dt, diffusion_rate))


def stacked_crank_nicolson_operator(
    num_points: int,
    spacing: float,
    dt: float,
    diffusion_rates: "Sequence[float]",
) -> BandedFactorization:
    """Banded factorization of the block-diagonal ``diag(I - dt/2 * d_k * A)``.

    One block per entry of ``diffusion_rates``, in order, with zero coupling
    between blocks.  A column-major ``(n, k)`` state is, flattened, one
    right-hand side for this system, so one ``pttrs`` call solves every
    column.  Nothing keyed by the column layout is cached: the blocks come
    from the cached per-rate :func:`crank_nicolson_operator` factors and are
    assembled per call in O(k n) (:meth:`BandedFactorization.block_diagonal`).
    A single rate is the plain cached operator.
    """
    distinct, layout = np.unique(np.asarray(diffusion_rates, dtype=float), return_inverse=True)
    blocks = [
        crank_nicolson_operator(num_points, spacing, dt, float(rate), "banded")
        for rate in distinct
    ]
    if layout.size == 1:
        return blocks[0]
    return BandedFactorization.block_diagonal(blocks, layout)


def cache_stats() -> dict:
    """Hit/miss statistics for every operator cache (for tests and benchmarks)."""
    return {
        "laplacian": neumann_laplacian_matrix.cache_info()._asdict(),
        "laplacian_tridiagonal": neumann_laplacian_tridiagonal.cache_info()._asdict(),
        "crank_nicolson_factor": crank_nicolson_factor.cache_info()._asdict(),
        "crank_nicolson_operator": crank_nicolson_operator.cache_info()._asdict(),
    }


def clear_operator_caches() -> None:
    """Drop every cached operator (used by tests to measure cache behaviour)."""
    neumann_laplacian_matrix.cache_clear()
    neumann_laplacian_tridiagonal.cache_clear()
    crank_nicolson_factor.cache_clear()
    crank_nicolson_operator.cache_clear()
