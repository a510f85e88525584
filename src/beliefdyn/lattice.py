"""Frames of discernment and fast transforms on the subset lattice.

Subsets of a frame with elements ``e_0 .. e_{n-1}`` are encoded as integer
bitmasks: bit ``i`` set means ``e_i`` is present, so ``0`` is the empty set
and ``2**n - 1`` is the full frame.  Vectors indexed by subsets are plain
``numpy`` arrays of length ``2**n`` in bitmask order.  The transforms act
on the last axis, so a ``(..., 2**n)`` array is a stack of such vectors
transformed in one call.

Each transform is a butterfly of ``n`` passes: pass ``i`` adds (or
subtracts) every entry whose bit ``i`` is clear into its partner with that
bit set, or the other way round for supersets.  Below ``2**FUSED_ORDER``
entries the passes run one by one.  From ``2**FUSED_ORDER`` entries on, the
first ``LOW_BITS`` passes, whose inner runs of 1 to 16 entries make slow
sweeps over memory, run as one ``(M, 32) @ (32, 32)`` product with the
0/±1 matrix of those passes; the other passes run one by one.  The product
adds in another order, so its results can differ from the pass-by-pass
ones in the last bit (a few 1e-16 of the largest entry); exact 0/1 inputs
stay exact.  A row holding a non-finite value goes pass by pass, because
the product would turn ``inf * 0`` into NaN.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import FrameMismatchError, FrameTooLargeError

# Default comparison tolerance (absolute) for float values on the lattice.
DEFAULT_TOL = 1e-9

# Vector algebra is allowed up to 2**CAP_TRANSFORM entries; dense
# 2**n x 2**n matrices only up to CAP_MATRIX (about a million entries).
CAP_TRANSFORM = 20
CAP_MATRIX = 10


def _round12(x: float) -> float:
    """``x`` rounded to 12 significant digits, the precision documents and witnesses print."""
    return float(f"{x:.12g}")


@dataclass(frozen=True)
class Frame:
    """A finite frame of discernment: an ordered tuple of distinct labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("frame needs at least one element")
        if len(labels) > CAP_TRANSFORM:
            raise FrameTooLargeError(
                f"frame has {len(labels)} elements, cap is {CAP_TRANSFORM}"
            )
        if any(not isinstance(lab, str) or not lab for lab in labels):
            raise ValueError("frame labels must be non-empty strings")
        if len(set(labels)) != len(labels):
            raise ValueError("frame labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        """Number of subsets, ``2**n``."""
        return 1 << self.n

    @property
    def full(self) -> int:
        """Bitmask of the whole frame."""
        return self.size - 1

    def subset(self, members: Iterable[str]) -> int:
        """Bitmask of the subset containing the given labels."""
        index = {lab: i for i, lab in enumerate(self.labels)}
        bits = 0
        for lab in members:
            try:
                bits |= 1 << index[lab]
            except KeyError:
                raise FrameMismatchError(f"label {lab!r} not in frame {self.labels}")
        return bits

    def members(self, subset: int) -> tuple[str, ...]:
        """Labels of the elements in ``subset``, in frame order."""
        self.check_subset(subset)
        return tuple(lab for i, lab in enumerate(self.labels) if subset >> i & 1)

    def check_subset(self, subset: int) -> int:
        if not 0 <= subset < self.size:
            raise FrameMismatchError(
                f"subset {subset:#x} out of range for a frame of {self.n} elements"
            )
        return subset


def default_frame(n: int) -> Frame:
    """Frame with single-letter labels ``a, b, c, ...``."""
    if not 1 <= n <= CAP_TRANSFORM:
        raise FrameTooLargeError(f"frame size {n} outside [1, {CAP_TRANSFORM}]")
    return Frame(tuple(string.ascii_lowercase[:n]))


def require_same_frame(a, b) -> Frame:
    if a.frame != b.frame:
        raise FrameMismatchError(
            f"operands on different frames: {a.frame.labels} vs {b.frame.labels}"
        )
    return a.frame


def _checked(values) -> np.ndarray:
    """``values`` as a float64 array, not copied if it already is one."""
    out = np.asarray(values)
    if np.iscomplexobj(out):
        raise ValueError("lattice vectors must be real, got complex values")
    out = out.astype(np.float64, copy=False)
    if out.ndim == 0 or out.shape[-1] == 0 or out.shape[-1] & (out.shape[-1] - 1):
        raise ValueError("lattice vector length must be a power of two")
    return out


def order_of(size: int) -> int:
    """n such that ``size == 2**n``."""
    n = size.bit_length() - 1
    if size <= 0 or 1 << n != size:
        raise ValueError(f"{size} is not a power of two")
    return n


def _passes(out: np.ndarray, upward: bool, op, first: int) -> np.ndarray:
    """Butterfly passes ``first .. n-1`` along the last axis of ``out``, in place."""
    size = out.shape[-1]
    for i in range(first, order_of(size)):
        v = out.reshape(*out.shape[:-1], size >> (i + 1), 2, 1 << i)
        src, dst = (v[..., 0, :], v[..., 1, :]) if upward else (v[..., 1, :], v[..., 0, :])
        op(dst, src, out=dst)
    return out


# From 2**FUSED_ORDER entries on, the first LOW_BITS passes are one product.
# Every such product has at least 128 rows, where a row's result does not
# depend on how many rows share the call; smaller ones can differ.
FUSED_ORDER = 12
LOW_BITS = 5


@functools.cache
def _low_matrix(upward: bool, op) -> np.ndarray:
    """The first ``LOW_BITS`` passes as a matrix acting on rows, built on first use."""
    out = _passes(np.eye(1 << LOW_BITS), upward, op, 0)
    out.flags.writeable = False
    return out


def _butterfly(values, upward: bool, op) -> np.ndarray:
    """Butterfly along the last axis: ``upward`` sums over subsets, else over supersets.

    ``op`` is ``np.add`` for the zeta transforms and ``np.subtract`` for their
    inverses.  Below ``2**FUSED_ORDER`` entries every pass runs on a copy of
    the input.  From there on, the first ``LOW_BITS`` passes are one product
    with :func:`_low_matrix`, which writes a fresh array, and the other passes
    run on that; rows holding a non-finite value are redone pass by pass.
    """
    x = _checked(values)
    if x.shape[-1] < 1 << FUSED_ORDER:
        return _passes(np.array(x), upward, op, 0)
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf, in rows redone below
        out = (x.reshape(-1, 1 << LOW_BITS) @ _low_matrix(upward, op)).reshape(x.shape)
        bad = ~np.isfinite(x.sum(axis=-1))
    _passes(out, upward, op, LOW_BITS)
    if bad.any():
        out[bad] = _passes(x[bad], upward, op, 0)
    return out


def _focal(a: np.ndarray) -> np.ndarray:
    """Subsets nonzero in some row of the stack ``a``, in increasing order."""
    return np.flatnonzero(a.reshape(-1, a.shape[-1]).any(axis=0))


def _scatter(target: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Rows of ``size`` entries, each the sum of its row's ``weights`` at ``target``.

    ``weights`` has the shape ``(..., k)``, and ``target`` broadcasts against
    it.  One ``np.bincount`` over row-offset targets fills every row; each
    entry sums its inputs in their order along the last axis, from +0.0.
    """
    lead = weights.shape[:-1]
    rows = np.arange(0, size * np.prod(lead, dtype=np.int64), size).reshape(*lead, 1)
    return np.bincount((target + rows).ravel(), weights.ravel(), rows.size * size).reshape(*lead, size)


def _transfer(a: np.ndarray, op, c) -> np.ndarray:
    """Each row of ``a`` with its entry at ``X`` moved to ``op(X, c)``, in one scatter.

    ``c`` broadcasts against the leading axes of ``a``: one subset or one per
    row, as conditioning and enlargement use it.  ``np.arange(2**n)`` against
    ``a[..., None, :]`` gives the rows of a matrix; no matrix builder calls
    it, but the tests hold the fold builder
    :func:`specialization._transfer_rows` against it.  Only subsets nonzero
    in some row are scattered.  Each entry sums its inputs in increasing
    ``X`` order from +0.0, which a skipped zero leaves unchanged, so a row of
    a stack is bit for bit the row on its own.
    """
    focal = _focal(a)
    target = op(focal, np.asarray(c)[..., None])
    lead = np.broadcast_shapes(a.shape[:-1], target.shape[:-1])
    return _scatter(target, np.broadcast_to(a[..., focal], (*lead, focal.size)), a.shape[-1])


def _double_sum(a: np.ndarray, fa: np.ndarray, b: np.ndarray, fb: np.ndarray, op) -> np.ndarray:
    """Row-wise double sum: ``a[..., X] * b[..., Y]`` lands on ``op(X, Y)``, in one scatter.

    ``X`` runs over the subsets ``fa`` and ``Y`` over ``fb``, which must hold
    every subset nonzero in some row of ``a`` and of ``b`` (all subsets will
    do).  The leading axes of ``a`` and ``b`` broadcast.  Each entry sums its
    products in increasing ``(X, Y)`` order from +0.0, which a skipped zero
    product leaves unchanged, so any such ``fa`` and ``fb`` give the same bits.
    """
    weights = a[..., fa, None] * b[..., None, fb]
    return _scatter(op(fa[:, None], fb).ravel(), weights.reshape(*weights.shape[:-2], -1), a.shape[-1])


def zeta_subsets(values) -> np.ndarray:
    """Subset-sum transform: ``g(A) = sum of f(B) over B contained in A``."""
    return _butterfly(values, True, np.add)


def mobius_subsets(values) -> np.ndarray:
    """Inverse of :func:`zeta_subsets`."""
    return _butterfly(values, True, np.subtract)


def zeta_supersets(values) -> np.ndarray:
    """Superset-sum transform: ``g(A) = sum of f(B) over B containing A``."""
    return _butterfly(values, False, np.add)


def mobius_supersets(values) -> np.ndarray:
    """Inverse of :func:`zeta_supersets`."""
    return _butterfly(values, False, np.subtract)
