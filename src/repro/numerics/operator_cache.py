"""Shared cache of prefactorized spatial operators.

Every Crank-Nicolson step solves a linear system with the same matrix

    (I - dt/2 * d * A)

where ``A`` is the Neumann Laplacian of the grid.  During calibration the
same (grid, dt, d) triple recurs thousands of times -- once per candidate
parameter set, once per internal time step, once per Picard iteration -- so
refactorizing per solve dominates the runtime.  This module holds a
process-wide cache keyed by the *values* that determine the operator
(``num_points``, ``spacing``, ``dt``, ``diffusion_rate``) rather than object
identity, so the factorization is paid once per (grid, dt, d) and shared
across time steps, solves, calibration candidates and batch columns.

The Neumann Laplacian is tridiagonal, so three factorization *modes* are
offered through :func:`crank_nicolson_operator`:

``"banded"`` (the default for the Crank-Nicolson engine)
    LAPACK ``gttrf``/``gttrs`` tridiagonal LU -- O(n) memory and O(n) per
    solve, with :func:`scipy.linalg.solve_banded` as a refactorizing fallback
    when the LAPACK wrappers are unavailable.
``"thomas"``
    A pure-numpy Thomas (tridiagonal) factorization with no scipy
    dependency, registered as its own solver backend in
    :mod:`repro.numerics.backends`.
``"dense"``
    The original dense LU (:func:`scipy.linalg.lu_factor`), kept as the
    reference implementation the equivalence tests and the substrate
    benchmark compare against.

Cached arrays are returned read-only; callers that need to modify an operator
must copy it first.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

OPERATOR_MODES = ("dense", "banded", "thomas")
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


class BandedFactorization:
    """Tridiagonal LU via LAPACK ``gttrf``/``gttrs`` -- O(n) memory and solves.

    When the LAPACK generator wrappers are unavailable the solve falls back to
    :func:`scipy.linalg.solve_banded` on the stored bands, which refactorizes
    per call but stays O(n).
    """

    mode = "banded"

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> None:
        self._bands = (sub, diag, sup)
        self._factor = None
        self._gttrs = None
        self._tiny = None
        if np.asarray(diag).size < 3:
            # The LAPACK gtt* wrappers reject the degenerate 2x2 case; the
            # pure-numpy elimination handles it at identical cost.
            self._tiny = ThomasFactorization(sub, diag, sup)
            return
        try:
            from scipy.linalg.lapack import dgttrf, dgttrs
        except ImportError:  # pragma: no cover - old scipy without the wrapper
            return
        dl, d, du, du2, ipiv, info = dgttrf(sub, diag, sup)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"tridiagonal factorization failed (gttrf info={info})"
            )
        self._factor = (dl, d, du, du2, ipiv)
        # Bound once: the per-solve import lookup costs as much as a small
        # solve's arithmetic.
        self._gttrs = dgttrs

    def __getstate__(self) -> dict:
        # LAPACK wrappers do not pickle; __setstate__ binds it again.
        return {**self.__dict__, "_gttrs": None}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._factor is not None:
            from scipy.linalg.lapack import dgttrs

            self._gttrs = dgttrs

    @property
    def nbytes(self) -> int:
        """Memory footprint of the stored factors."""
        arrays = self._bands if self._factor is None else self._factor
        return sum(int(np.asarray(array).nbytes) for array in arrays)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side ``(n,)`` or a column block ``(n, k)``."""
        if self._tiny is not None:
            return self._tiny.solve(rhs)
        if self._factor is None:  # pragma: no cover - exercised only on old scipy
            from scipy.linalg import solve_banded

            sub, diag, sup = self._bands
            ab = np.zeros((3, diag.size))
            ab[0, 1:] = sup
            ab[1, :] = diag
            ab[2, :-1] = sub
            return solve_banded((1, 1), ab, rhs)
        solution, info = self._gttrs(*self._factor, rhs)
        if info != 0:  # pragma: no cover - cannot happen for a valid factorization
            raise np.linalg.LinAlgError(f"tridiagonal solve failed (gttrs info={info})")
        return solution


class ThomasFactorization:
    """Pure-numpy Thomas algorithm with a precomputed forward elimination.

    The factorization stores the elimination multipliers ``w_i = a_i / b'_{i-1}``
    and the modified pivots ``b'_i`` once, so repeated solves cost one forward
    and one backward sweep (O(n) each, vectorised across right-hand-side
    columns).  No pivoting is performed, so the matrix must be (strictly)
    diagonally dominant -- which every Crank-Nicolson operator
    ``I - dt/2 * d * A`` is, since the diagonal is ``1 + |off-diagonals|``.
    """

    mode = "thomas"

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> None:
        sub = np.asarray(sub, dtype=float)
        diag = np.asarray(diag, dtype=float)
        sup = np.asarray(sup, dtype=float)
        n = diag.size
        if sub.shape != (n - 1,) or sup.shape != (n - 1,):
            raise ValueError(
                f"bands must have shapes ({n - 1},), ({n},), ({n - 1},); "
                f"got {sub.shape}, {diag.shape}, {sup.shape}"
            )
        multipliers = np.empty(n - 1)
        pivots = np.empty(n)
        pivots[0] = diag[0]
        for i in range(1, n):
            if pivots[i - 1] == 0.0:
                raise np.linalg.LinAlgError(
                    "zero pivot in Thomas factorization (matrix must be "
                    "diagonally dominant; no pivoting is performed)"
                )
            multipliers[i - 1] = sub[i - 1] / pivots[i - 1]
            pivots[i] = diag[i] - multipliers[i - 1] * sup[i - 1]
        if pivots[-1] == 0.0:
            raise np.linalg.LinAlgError("zero pivot in Thomas factorization")
        self._multipliers = multipliers
        self._pivots = pivots
        self._sup = sup.copy()

    @property
    def nbytes(self) -> int:
        """Memory footprint of the stored factors."""
        return int(self._multipliers.nbytes + self._pivots.nbytes + self._sup.nbytes)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side ``(n,)`` or a column block ``(n, k)``."""
        rhs = np.asarray(rhs, dtype=float)
        n = self._pivots.size
        if rhs.shape[0] != n:
            raise ValueError(f"rhs has leading dimension {rhs.shape[0]}, expected {n}")
        w, bp, sup = self._multipliers, self._pivots, self._sup
        y = rhs.copy()
        for i in range(1, n):
            y[i] -= w[i - 1] * y[i - 1]
        y[n - 1] /= bp[n - 1]
        for i in range(n - 2, -1, -1):
            y[i] = (y[i] - sup[i] * y[i + 1]) / bp[i]
        return y


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
    ``nbytes`` attributes.  Banded and Thomas factorizations store O(n)
    data; the dense mode shares the factors of :func:`crank_nicolson_factor`.
    """
    if mode not in OPERATOR_MODES:
        raise ValueError(
            f"unknown operator mode {mode!r}; expected one of {OPERATOR_MODES}"
        )
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if mode == "dense":
        return DenseFactorization(*crank_nicolson_factor(num_points, spacing, dt, diffusion_rate))
    bands = _crank_nicolson_bands(num_points, spacing, dt, diffusion_rate)
    if mode == "banded":
        return BandedFactorization(*bands)
    return ThomasFactorization(*bands)


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
