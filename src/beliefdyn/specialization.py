"""Specialization and generalization matrices on the subset lattice.

A specialization matrix ``S`` is row-stochastic with ``s(A, B) = 0`` unless
``B`` is a subset of ``A``: applying it to a mass function (as a row vector,
``m' = m . S``) moves each mass only downward in the lattice, so the result
is always at least as committed as the input.  Two constructions matter:

* the conditioning matrix of ``C`` sends every ``A`` to ``A & C``;
* the Dempsterian matrix of ``m`` has as row ``A`` the conditioning of
  ``m`` on ``A``; applying it realizes conjunctive combination with ``m``.

Generalization matrices are the upward duals (mass flows to supersets);
de-specialization matrices are the linear inverses and realize retraction.
Every builder fills its rows with :func:`_transfer_rows`, which doubles the
rows filled so far by one fold per frame element: a row with an element
missing is the row with it present, conditioned (or, upward, enlarged) once
more.  The Dempsterian test and the eigenstructure are that fold and a pass
in place, and no test gathers entries: each is a few O(N**2) passes.

All dense-matrix operations require ``frame.n <= CAP_MATRIX``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import lattice
from .belief import MassFunction
from .errors import (
    EvidenceNotContainedError,
    FrameTooLargeError,
    InvalidSpecializationError,
    NotDempsterianError,
    SingularSpecializationError,
)
from .lattice import CAP_MATRIX, DEFAULT_TOL, Frame, require_same_frame


def _check_matrix_frame(frame: Frame) -> Frame:
    if frame.n > CAP_MATRIX:
        raise FrameTooLargeError(
            f"dense matrices limited to frames of {CAP_MATRIX} elements, got {frame.n}"
        )
    return frame


def _frozen_matrix(frame: Frame, values) -> np.ndarray:
    _check_matrix_frame(frame)
    out = np.array(values, dtype=np.float64)
    if out.shape != (frame.size, frame.size):
        raise InvalidSpecializationError(
            f"expected a {frame.size}x{frame.size} matrix, got shape {out.shape}"
        )
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SpecializationMatrix:
    """Row-stochastic operator with support on ``B subset of A`` (row A, column B).

    Construction only checks the shape; use :func:`is_valid_specialization`
    to test the invariants, which :func:`apply` enforces.
    """

    frame: Frame
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_matrix(self.frame, self.values))


@dataclass(frozen=True, eq=False)
class GeneralizationMatrix:
    """Row-stochastic operator with support on ``B superset of A``."""

    frame: Frame
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_matrix(self.frame, self.values))


@dataclass(frozen=True, eq=False)
class DespecializationMatrix:
    """Inverse of a Dempsterian specialization; entries may be negative.

    Applicable only to mass functions that actually contain the evidence
    being removed; :func:`apply_despecialization` rejects anything else.
    """

    frame: Frame
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_matrix(self.frame, self.values))


@functools.cache
def _off_support(size: int, upward: bool = False) -> np.ndarray:
    """True at (A, B) iff B is not a subset (``upward``: a superset) of A; built once, read-only."""
    row, col = np.arange(size)[:, None], np.arange(size)
    out = ((row & ~col) if upward else (col & ~row)) != 0
    out.flags.writeable = False
    return out


def _transfer_rows(values: np.ndarray, op) -> np.ndarray:
    """Matrices whose row ``A`` moves each mass of ``values`` from ``X`` to ``op(A, X)``.

    ``values`` is a ``(..., N)`` stack for ``N = 2**n`` subsets; the result is
    ``(..., N, N)``.  ``op`` is ``np.bitwise_and`` (row ``A`` is ``values``
    conditioned on ``A``) or ``np.bitwise_or`` (row ``A`` is ``values``
    enlarged by ``A``).  The rows are filled by ``n`` folds in place, with
    no index array.  For ``np.bitwise_and`` the full row is ``values + 0.0``;
    then for ``b = 1, 2, .., N/2`` the rows ``[N-2b, N-b)`` are the rows
    ``[N-b, N)`` with each entry at ``X | b`` added onto ``X``.  For
    ``np.bitwise_or`` the mirror: row empty is ``values + 0.0``, and the rows
    ``[b, 2b)`` are the rows ``[0, b)`` with each entry at ``X`` added onto
    ``X | b``.

    So an entry sums its inputs in fold order, not in increasing ``X`` order
    as :func:`lattice._transfer` does: a sum of three or more nonzero inputs
    can differ from that scatter in the last bit, and 0/1 rows stay exact.
    The seed row is ``values + 0.0`` and every other entry starts at +0.0, so
    no zero of the output is -0.0.  A matrix of a stack goes through the same
    additions as on its own, so it is bit for bit the matrix on its own.
    """
    size = values.shape[-1]
    out = np.zeros((*values.shape[:-1], size, size))
    down = op is np.bitwise_and
    np.add(values, 0.0, out=out[..., -1 if down else 0, :])
    b = 1
    with np.errstate(invalid="ignore"):  # inf + -inf gives NaN, as in the scatter
        while b < size:
            source, first, keep = (size - b, size - 2 * b, 0) if down else (0, b, 1)
            shape = (*out.shape[:-2], b, size // (2 * b), 2, b)
            src = out[..., source : source + b, :].reshape(shape)
            dst = out[..., first : first + b, :].reshape(shape)
            np.add(src[..., 0, :], src[..., 1, :], out=dst[..., keep, :])
            b *= 2
    return out


def conditioning_matrix(frame: Frame, condition_set: int) -> SpecializationMatrix:
    """0/1 matrix with the single 1 of row ``A`` at column ``A & condition_set``.

    Conditioning is combination with the categorical mass on ``condition_set``,
    so this is that mass's Dempsterian matrix.
    """
    _check_matrix_frame(frame)
    frame.check_subset(condition_set)
    categorical = np.zeros(frame.size)
    categorical[condition_set] = 1.0
    return SpecializationMatrix(frame, _transfer_rows(categorical, np.bitwise_and))


def dempsterian_matrix(m: MassFunction) -> SpecializationMatrix:
    """Matrix whose row ``A`` is ``m`` conditioned on ``A``; row full is ``m`` itself."""
    frame = _check_matrix_frame(m.frame)
    return SpecializationMatrix(frame, _transfer_rows(m.values, np.bitwise_and))


def _bounded(v: np.ndarray, tol: float) -> np.ndarray:
    """Per matrix: entries in ``[-tol, 1 + tol]`` and row sums within ``tol`` of one; NaN fails."""
    ok = (v.min(axis=(-2, -1)) >= -tol) & (v.max(axis=(-2, -1)) <= 1.0 + tol)
    with np.errstate(invalid="ignore", over="ignore"):  # inf + -inf gives NaN, huge rows inf; both fail
        sums = v.sum(axis=-1)
    return ok & (np.abs(sums - 1.0).max(axis=-1) <= tol)


def _valid(v: np.ndarray, tol: float, upward: bool = False) -> np.ndarray:
    """Per matrix of a ``(..., N, N)`` stack: the specialization invariants.

    :func:`_bounded`, and no entry above ``tol`` off the support (``upward``:
    the support transposed, the generalization invariants).  The one-sided
    test gathers nothing; where the bounds hold no entry is NaN or below
    ``-tol``, so it decides as ``|entry| <= tol`` would.
    """
    above = v > tol
    above &= _off_support(v.shape[-1], upward)
    return _bounded(v, tol) & ~above.any(axis=(-2, -1))


def is_valid_specialization(s: SpecializationMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Check row sums of one, entries in [0, 1], support only on subsets."""
    return bool(_valid(s.values, tol))


def is_valid_generalization(g: GeneralizationMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Check row sums of one, entries in [0, 1], support only on supersets."""
    return bool(_valid(g.values, tol, upward=True))


def _is_dempsterian(v: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per matrix of a stack: :func:`_bounded`, and every row the top row conditioned on its subset.

    The conditioned rows are +0.0 off the support, so a gap (taken in place)
    of at most ``tol`` bounds the off-support entries as :func:`_valid` does.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf gives NaN, huge entries inf; both fail
        gap = _transfer_rows(v[..., -1, :], np.bitwise_and)
        gap = np.abs(np.subtract(v, gap, out=gap), out=gap).max(axis=(-2, -1))
    return _bounded(v, tol) & (gap <= tol)


def is_dempsterian(s: SpecializationMatrix, tol: float = DEFAULT_TOL) -> bool:
    """True iff every row equals the top row conditioned on the row's subset.

    This is the closed form characterizing matrices generated by a mass
    function; it is checked deterministically rather than by searching for
    commutation witnesses.
    """
    return bool(_is_dempsterian(s.values, tol))


def _apply(a: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL, upward: bool = False) -> np.ndarray:
    """Each row of ``a`` times its matrix of ``v`` (``(..., N)`` by ``(..., N, N)``).

    Every matrix is first checked with :func:`_valid`; one that fails raises
    :class:`InvalidSpecializationError`.
    """
    if not _valid(v, tol, upward).all():
        kind = "generalization" if upward else "specialization"
        raise InvalidSpecializationError(f"matrix violates the {kind} invariants")
    return (a[..., None, :] @ v)[..., 0, :]


def apply(m: MassFunction, s: SpecializationMatrix, tol: float = DEFAULT_TOL) -> MassFunction:
    """Specialize ``m`` by ``s`` (row-vector product ``m . s``)."""
    require_same_frame(m, s)
    return MassFunction(m.frame, _apply(m.values, s.values, tol))


def apply_generalization(
    m: MassFunction, g: GeneralizationMatrix, tol: float = DEFAULT_TOL
) -> MassFunction:
    require_same_frame(m, g)
    return MassFunction(m.frame, _apply(m.values, g.values, tol, upward=True))


def apply_despecialization(
    m: MassFunction, d: DespecializationMatrix, tol: float = DEFAULT_TOL
) -> MassFunction:
    """Undo a specialization; defined only where the result is a valid bba.

    Masses in ``[-tol, 0)`` are clamped to zero; anything more negative
    means the evidence being removed was never combined in, and raises
    :class:`EvidenceNotContainedError`.
    """
    require_same_frame(m, d)
    out = m.values @ d.values
    if out.min() < -tol:
        raise EvidenceNotContainedError(
            f"de-specialization yields mass {out.min():.3e}; "
            "the belief state does not contain this evidence"
        )
    np.clip(out, 0.0, None, out=out)
    return MassFunction(m.frame, out)


def commute_check(
    s1: SpecializationMatrix, s2: SpecializationMatrix, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Max-norm deviation of ``s1.s2 - s2.s1`` and whether it is below ``tol``."""
    require_same_frame(s1, s2)
    deviation = float(np.abs(s1.values @ s2.values - s2.values @ s1.values).max())
    return deviation <= tol, deviation


def incidence_matrix(frame: Frame) -> np.ndarray:
    """0/1 matrix with 1 at (A, B) iff B is a subset of A; ``m . T`` is ``q``."""
    _check_matrix_frame(frame)
    return (~_off_support(frame.size)).astype(np.float64)


def incidence_inverse(frame: Frame) -> np.ndarray:
    """Exact inverse of :func:`incidence_matrix`: ``(-1)**|A - B|`` for B subset of A.

    Built from integer Moebius coefficients, never by numeric inversion: one
    more element doubles the inverse ``K`` on the elements so far to
    ``[[K, 0], [-K, K]]`` in place, with ``0.0 - K`` so that no zero is -0.0.
    """
    _check_matrix_frame(frame)
    out = np.eye(frame.size)
    for b in (1 << i for i in range(frame.n)):
        out[b : 2 * b, b : 2 * b] = out[:b, :b]
        np.subtract(0.0, out[:b, :b], out=out[b : 2 * b, :b])
    return out


@dataclass(frozen=True, eq=False)
class EigenStructure:
    """Eigendecomposition ``S = T diag(eigenvalues) T_inverse`` of a Dempsterian matrix.

    The eigenvalues are the commonality values of the generating mass
    function (also the diagonal of ``S``); the rows of ``t_inverse`` are
    left eigenvectors.
    """

    frame: Frame
    transform: np.ndarray
    eigenvalues: np.ndarray
    t_inverse: np.ndarray
    reconstruction_error: float


def _dempsterian_diagonal(s: SpecializationMatrix, tol: float) -> np.ndarray:
    """``diag(s)``, the commonality of the generating mass; only for Dempsterian ``s``."""
    if not is_dempsterian(s, tol):
        raise NotDempsterianError("eigenstructure is defined for Dempsterian matrices only")
    return np.diag(s.values).copy()


def eigen_structure(s: SpecializationMatrix, tol: float = DEFAULT_TOL) -> EigenStructure:
    """Diagonalize a Dempsterian ``s`` as ``T diag(q) T_inverse``.

    ``reconstruction_error`` is the max-norm distance from ``s`` to that
    product, the Dempsterian matrix of the signed masses ``mobius_supersets(q)``
    (see :func:`despecialize_matrix`): one :func:`_transfer_rows`, O(N**2)
    for ``N = 2**n`` subsets, with the error taken in place.
    """
    q = _dempsterian_diagonal(s, tol)
    gap = _transfer_rows(lattice.mobius_supersets(q), np.bitwise_and)
    err = float(np.abs(np.subtract(s.values, gap, out=gap), out=gap).max())
    return EigenStructure(s.frame, incidence_matrix(s.frame), q, incidence_inverse(s.frame), err)


def despecialize_matrix(s: SpecializationMatrix, tol: float = DEFAULT_TOL) -> DespecializationMatrix:
    """Inverse ``T diag(1/q) T_inverse`` of a Dempsterian matrix.

    Requires every eigenvalue (commonality value) to be nonzero; a zero
    eigenvalue means the generating mass function put no mass on the full
    frame's side of some subset and cannot be retracted.

    For any vector ``w``, ``T diag(w) T_inverse`` is the matrix whose row
    ``A`` moves the signed masses ``mobius_supersets(w)`` from ``X`` to
    ``A & X`` (the Dempsterian matrix of those masses), so the inverse is
    one Moebius transform and one :func:`_transfer_rows`, O(N**2) for
    ``N = 2**n`` subsets, with neither ``T`` nor ``T_inverse`` built.
    """
    q = _dempsterian_diagonal(s, tol)
    if np.abs(q).min() <= tol:
        worst = int(np.abs(q).argmin())
        raise SingularSpecializationError(
            f"singular: commonality of subset {worst} is {q[worst]:.3e}"
        )
    signed = lattice.mobius_supersets(1.0 / q)
    return DespecializationMatrix(s.frame, _transfer_rows(signed, np.bitwise_and))


def enlargement_matrix(frame: Frame, indiscernible: int) -> GeneralizationMatrix:
    """Generalization sending each ``X`` to ``X | indiscernible``.

    The minimal row-stochastic generalization making the elements of the
    given set indiscernible: after applying it, conditioning on ``X | Y``
    yields the same mass pattern for every ``Y`` inside the set.
    """
    _check_matrix_frame(frame)
    frame.check_subset(indiscernible)
    categorical = np.zeros(frame.size)
    categorical[indiscernible] = 1.0
    return GeneralizationMatrix(frame, _transfer_rows(categorical, np.bitwise_or))


def disjunctive_matrix(m: MassFunction) -> GeneralizationMatrix:
    """Generalization whose application realizes disjunctive combination with ``m``."""
    frame = _check_matrix_frame(m.frame)
    return GeneralizationMatrix(frame, _transfer_rows(m.values, np.bitwise_or))
