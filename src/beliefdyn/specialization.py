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
A specialization (generalization) matrix of a mass function is nonzero on
at most ``3**n`` of its ``4**n`` entries, the pairs ``B subset of A`` (``B
superset of A``), and every builder computes only those.  Entry (A, B) sums
``m(X)`` over the ``X`` with ``X & A = B`` (``X | A = B``), which holds one
frame element at a time, so the entries are built in one pass per element.
:func:`_transfer_rows` scatters them into zeros; the Dempsterian test and
the eigenstructure compare a matrix with them on the support alone.

Each matrix is built once.  The matrix classes adopt a read-only float64
array that owns its memory, which is how every builder hands over its
fresh rows, and copy anything else, so no later write through a caller's
array reaches a matrix.  The incidence matrix ``T`` and its inverse are
built once per frame size; every :class:`EigenStructure` on that size
shares them as read-only views.

The private array cores (:func:`_transfer_rows`, :func:`_apply`) compute
and check nothing; the public functions check their operands, and
:func:`apply` and :func:`apply_generalization` check their matrix with
:func:`_checked`.  The verification suite calls the cores, so the matrices
the builders make, which are what it tests, reach it unchecked.

All dense-matrix operations require ``frame.n <= CAP_MATRIX``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import lattice
from .belief import MassFunction
from .dynamics import _contained
from .errors import (
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
    """``values`` as a read-only float64 matrix; adopted if it already is one that owns its memory.

    A writable array, or a read-only view of one, is copied: its owner could
    still write through it.
    """
    _check_matrix_frame(frame)
    out = np.asarray(values)
    if np.iscomplexobj(out):
        raise InvalidSpecializationError("matrix entries must be real, got complex values")
    owned = out.flags.owndata and not out.flags.writeable
    if not (owned and type(out) is np.ndarray and out.dtype == np.float64):
        out = np.array(out, dtype=np.float64)
    if out.shape != (frame.size, frame.size):
        raise InvalidSpecializationError(
            f"expected a {frame.size}x{frame.size} matrix, got shape {out.shape}"
        )
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SpecializationMatrix:
    """Row-stochastic operator with support on ``B subset of A`` (row A, column B).

    Construction only checks the shape and rejects complex entries; use
    :func:`is_valid_specialization` to test the invariants, which
    :func:`apply` enforces.  ``values`` is adopted uncopied when it is a
    read-only float64 array that owns its memory, and copied otherwise; the
    same holds for the other two matrix classes.
    """

    frame: Frame
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_matrix(self.frame, self.values))


@dataclass(frozen=True, eq=False)
class GeneralizationMatrix:
    """Row-stochastic operator with support on ``B superset of A``.

    Constructed as :class:`SpecializationMatrix` is; :func:`is_valid_generalization`
    tests the invariants.
    """

    frame: Frame
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_matrix(self.frame, self.values))


@dataclass(frozen=True, eq=False)
class DespecializationMatrix:
    """Inverse of a Dempsterian specialization; entries may be negative.

    Applicable only to mass functions that actually contain the evidence
    being removed; :func:`apply_despecialization` rejects anything else.
    Constructed as :class:`SpecializationMatrix` is.
    """

    frame: Frame
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_matrix(self.frame, self.values))


@functools.cache
def _off_support(size: int, upward: bool = False) -> np.ndarray:
    """True at (A, B) iff B is not a subset (``upward``: a superset) of A; built once, read-only."""
    index = np.arange(size, dtype=np.int16)  # holds a subset of up to 15 elements
    row, col = index[:, None], index
    out = ((row & ~col) if upward else (col & ~row)) != 0
    out.flags.writeable = False
    return out


@functools.cache
def _support_positions(size: int, upward: bool) -> np.ndarray:
    """Position ``row * size + col`` of each entry of :func:`_support_values`; built once, read-only.

    Element ``i``'s three digits put ``(size + 1, size, 0) * 2**i``
    (``upward``: ``(size + 1, 1, 0) * 2**i``) into the position.
    """
    out, b = np.zeros(1, dtype=np.int32), 1
    while b < size:
        digits = np.array([size + 1, 1 if upward else size, 0], dtype=np.int32) * b
        out, b = (digits[:, None] + out).reshape(-1), 2 * b
    out.flags.writeable = False
    return out


def _support_values(values: np.ndarray, upward: bool) -> np.ndarray:
    """The ``3**n`` support entries of the :func:`_transfer_rows` matrices of a ``(..., N)`` stack.

    One pass per frame element, lowest first, over ``values + 0.0``: each
    views the entries as pairs, the element absent from ``X`` and present,
    and puts three entries in a pair's place, one per digit.  Downward the
    digits of (row ``A``, column ``B``) are: the element in ``B`` (the
    present entry), in ``A - B`` (the absent one), outside ``A`` (absent +
    present); upward: in ``A`` (absent + present), in ``B - A`` (present),
    outside ``B`` (absent).  :func:`_support_positions` places them.
    """
    lead, w = values.shape[:-1], 1
    copied, summed = (slice(1, 3), 0) if upward else (slice(0, 2), 2)
    out = values + 0.0
    with np.errstate(invalid="ignore"):  # inf + -inf gives NaN, as in the scatter
        for _ in range(values.shape[-1].bit_length() - 1):
            pairs = out.reshape(*lead, -1, 2, w)
            out = np.empty((*pairs.shape[:-2], 3, w))
            out[..., copied, :] = pairs[..., ::-1, :]
            np.add(pairs[..., 0, :], pairs[..., 1, :], out=out[..., summed, :])
            out, w = out.reshape(*lead, -1), 3 * w
    return out


def _transfer_rows(values: np.ndarray, op) -> np.ndarray:
    """Matrices whose row ``A`` moves each mass of ``values`` from ``X`` to ``op(A, X)``.

    ``values`` is a ``(..., N)`` stack for ``N = 2**n`` subsets; the result is
    a fresh ``(..., N, N)`` array.  ``op`` is ``np.bitwise_and`` (row ``A`` is
    ``values`` conditioned on ``A``) or ``np.bitwise_or`` (row ``A`` is
    ``values`` enlarged by ``A``).  Only the ``3**n`` support entries are
    computed, by :func:`_support_values`, and scattered into zeros.

    So an entry sums its inputs one frame element at a time, the lowest
    innermost, not in increasing ``X`` order as :func:`lattice._transfer`
    does: a sum of three or more nonzero inputs can differ from that scatter
    in the last bit, and 0/1 rows stay exact.  Every entry is ``values +
    0.0`` or a sum, so no zero of the output is -0.0, and an entry off the
    support is +0.0 even where ``values`` is not finite.  A matrix of a stack
    goes through the same additions as on its own, so it is bit for bit the
    matrix on its own up to the sign of a NaN: where two NaNs meet in one
    sum, numpy's ``np.add`` picks the sign by the element's place in its
    vector loop.
    """
    size, upward = values.shape[-1], op is not np.bitwise_and
    out = np.zeros((*values.shape[:-1], size, size))
    flat = _support_positions(size, upward)
    out.reshape(*values.shape[:-1], -1)[..., flat] = _support_values(values, upward)
    return out


def _sealed(out: np.ndarray) -> np.ndarray:
    """``out``, a fresh builder result, made read-only so that a matrix constructor adopts it uncopied."""
    out.flags.writeable = False
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
    return SpecializationMatrix(frame, _sealed(_transfer_rows(categorical, np.bitwise_and)))


def dempsterian_matrix(m: MassFunction) -> SpecializationMatrix:
    """Matrix whose row ``A`` is ``m`` conditioned on ``A``; row full is ``m`` itself."""
    frame = _check_matrix_frame(m.frame)
    return SpecializationMatrix(frame, _sealed(_transfer_rows(m.values, np.bitwise_and)))


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
    """Per matrix of a stack: :func:`_valid`, and every row the top row conditioned on its subset.

    Only the support entries are compared, against :func:`_support_values` of
    the top row.  The conditioned rows are +0.0 off the support, and
    :func:`_bounded` bounds every entry below by ``-tol``, so there a gap of
    at most ``tol`` is :func:`_valid`'s one-sided test.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf gives NaN, huge entries inf; both fail
        expected = _support_values(v[..., -1, :], upward=False)
        on = v.reshape(*v.shape[:-2], -1)[..., _support_positions(v.shape[-1], False)]
        gap = np.subtract(on, expected, out=expected)
        gap = np.abs(gap, out=gap).max(axis=-1)
    return _valid(v, tol) & (gap <= tol)


def is_dempsterian(s: SpecializationMatrix, tol: float = DEFAULT_TOL) -> bool:
    """True iff every row equals the top row conditioned on the row's subset.

    This is the closed form characterizing matrices generated by a mass
    function; it is checked deterministically rather than by searching for
    commutation witnesses.
    """
    return bool(_is_dempsterian(s.values, tol))


def _checked(v: np.ndarray, tol: float = DEFAULT_TOL, upward: bool = False) -> np.ndarray:
    """``v``, a ``(..., N, N)`` stack, once :func:`_valid` holds for every matrix.

    A matrix that fails raises :class:`InvalidSpecializationError`.
    """
    if not _valid(v, tol, upward).all():
        kind = "generalization" if upward else "specialization"
        raise InvalidSpecializationError(f"matrix violates the {kind} invariants")
    return v


def _apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each row of ``a`` times its matrix of ``v`` (``(..., N)`` by ``(..., N, N)``).

    Checks nothing: :func:`apply` and :func:`apply_generalization` check the matrix first.
    """
    return (a[..., None, :] @ v)[..., 0, :]


def apply(m: MassFunction, s: SpecializationMatrix, tol: float = DEFAULT_TOL) -> MassFunction:
    """Specialize ``m`` by ``s`` (row-vector product ``m . s``)."""
    require_same_frame(m, s)
    return MassFunction(m.frame, _apply(m.values, _checked(s.values, tol)))


def apply_generalization(
    m: MassFunction, g: GeneralizationMatrix, tol: float = DEFAULT_TOL
) -> MassFunction:
    require_same_frame(m, g)
    return MassFunction(m.frame, _apply(m.values, _checked(g.values, tol, upward=True)))


def apply_despecialization(
    m: MassFunction, d: DespecializationMatrix, tol: float = DEFAULT_TOL
) -> MassFunction:
    """Undo a specialization; defined only where the result is a valid bba.

    Masses in ``[-tol, 0)`` are clamped to zero; anything more negative
    means the evidence being removed was never combined in, and raises
    :class:`EvidenceNotContainedError`.
    """
    require_same_frame(m, d)
    return MassFunction(m.frame, _contained(m.values @ d.values, tol, "de-specialization"))


def commute_check(
    s1: SpecializationMatrix, s2: SpecializationMatrix, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Max-norm deviation of ``s1.s2 - s2.s1`` and whether it is below ``tol``."""
    require_same_frame(s1, s2)
    deviation = float(np.abs(s1.values @ s2.values - s2.values @ s1.values).max())
    return deviation <= tol, deviation


@functools.cache
def _incidence_pair(size: int) -> tuple[np.ndarray, np.ndarray]:
    """``T`` and ``T_inverse`` on ``size`` subsets; built once, read-only.

    ``T`` is 1.0 where :func:`_off_support` is False.  The inverse is built
    from integer Moebius coefficients, never by numeric inversion: one more
    element doubles the inverse ``K`` on the elements so far to
    ``[[K, 0], [-K, K]]`` in place, with ``0.0 - K`` so that no zero is -0.0.
    """
    t = (~_off_support(size)).astype(np.float64)
    t_inverse = np.eye(size)
    b = 1
    while b < size:
        t_inverse[b : 2 * b, b : 2 * b] = t_inverse[:b, :b]
        np.subtract(0.0, t_inverse[:b, :b], out=t_inverse[b : 2 * b, :b])
        b *= 2
    t.flags.writeable = t_inverse.flags.writeable = False
    return t, t_inverse


def incidence_matrix(frame: Frame) -> np.ndarray:
    """0/1 matrix with 1 at (A, B) iff B is a subset of A; ``m . T`` is ``q``.

    A fresh writable copy on every call.
    """
    _check_matrix_frame(frame)
    return _incidence_pair(frame.size)[0].copy()


def incidence_inverse(frame: Frame) -> np.ndarray:
    """Exact inverse of :func:`incidence_matrix`: ``(-1)**|A - B|`` for B subset of A.

    A fresh writable copy on every call.
    """
    _check_matrix_frame(frame)
    return _incidence_pair(frame.size)[1].copy()


@dataclass(frozen=True, eq=False)
class EigenStructure:
    """Eigendecomposition ``S = T diag(eigenvalues) T_inverse`` of a Dempsterian matrix.

    The eigenvalues are the commonality values of the generating mass
    function (also the diagonal of ``S``); the rows of ``t_inverse`` are
    left eigenvectors.  ``transform`` and ``t_inverse`` depend only on the
    frame size: every structure on that size shares them, as read-only views
    that cannot be made writable again (:func:`incidence_matrix` and
    :func:`incidence_inverse` give writable copies).
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
    (see :func:`despecialize_matrix`).  That matrix is +0.0 off the support,
    so the error is the larger of the gap on the ``3**n`` support entries,
    from :func:`_support_values`, and the largest ``|s|`` off the support,
    taken from one ``abs`` copy with the support zeroed.
    """
    q = _dempsterian_diagonal(s, tol)
    expected = _support_values(lattice.mobius_supersets(q), upward=False)
    flat = _support_positions(s.frame.size, False)
    on = np.subtract(s.values.reshape(-1)[flat], expected, out=expected)
    off = np.abs(s.values).reshape(-1)
    off[flat] = 0.0
    err = float(np.maximum(np.abs(on, out=on).max(), off.max()))
    t, t_inverse = _incidence_pair(s.frame.size)
    return EigenStructure(s.frame, t.view(), q, t_inverse.view(), err)


def despecialize_matrix(s: SpecializationMatrix, tol: float = DEFAULT_TOL) -> DespecializationMatrix:
    """Inverse ``T diag(1/q) T_inverse`` of a Dempsterian matrix.

    Requires every eigenvalue (commonality value) to be nonzero; a zero
    eigenvalue means the generating mass function put no mass on the full
    frame's side of some subset and cannot be retracted.

    For any vector ``w``, ``T diag(w) T_inverse`` is the matrix whose row
    ``A`` moves the signed masses ``mobius_supersets(w)`` from ``X`` to
    ``A & X`` (the Dempsterian matrix of those masses), so the inverse is
    one Moebius transform and one :func:`_transfer_rows`, ``3**n`` sums for
    ``2**n`` subsets, with neither ``T`` nor ``T_inverse`` built.
    """
    q = _dempsterian_diagonal(s, tol)
    if np.abs(q).min() <= tol:
        worst = int(np.abs(q).argmin())
        raise SingularSpecializationError(
            f"singular: commonality of subset {worst} is {q[worst]:.3e}"
        )
    signed = lattice.mobius_supersets(1.0 / q)
    return DespecializationMatrix(s.frame, _sealed(_transfer_rows(signed, np.bitwise_and)))


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
    return GeneralizationMatrix(frame, _sealed(_transfer_rows(categorical, np.bitwise_or)))


def disjunctive_matrix(m: MassFunction) -> GeneralizationMatrix:
    """Generalization whose application realizes disjunctive combination with ``m``."""
    frame = _check_matrix_frame(m.frame)
    return GeneralizationMatrix(frame, _sealed(_transfer_rows(m.values, np.bitwise_or)))
