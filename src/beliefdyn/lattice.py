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
entries the passes run one by one.  From ``2**FUSED_ORDER`` entries on,
every group of up to ``LOW_BITS`` bits runs as one batch of small matrix
products with the 0/±1 matrix of its passes: bits 0-4, 5-9 and 10-14
block by block while each block stays in cache, and the bits above 14 in
one product per row.  The products add in another order, so their results
can differ from the pass-by-pass ones in the last bit (a few 1e-16 of the
largest entry); exact 0/1 inputs stay exact.  A row holding a non-finite
value goes pass by pass, because the products would turn ``inf * 0`` into
NaN.
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


def _passes(out: np.ndarray, upward: bool, op) -> np.ndarray:
    """Every butterfly pass along the last axis of ``out``, in place."""
    size = out.shape[-1]
    for i in range(order_of(size)):
        v = out.reshape(*out.shape[:-1], size >> (i + 1), 2, 1 << i)
        src, dst = (v[..., 0, :], v[..., 1, :]) if upward else (v[..., 1, :], v[..., 0, :])
        op(dst, src, out=dst)
    return out


# From 2**FUSED_ORDER entries on, the passes run as products over groups of
# LOW_BITS bits.  Bits 0-14 run on blocks of _BLOCK entries (256 KB) through
# one buffer of that size.  Each product is one batch item whose shape
# depends on n alone and lies inside one row, so a row's bits do not depend
# on the stack around it.  The products need 2**(2 * LOW_BITS) entries and
# are faster from there on (19 against 33 us a vector at n=10, one BLAS
# thread); the cutoff stays at 12 so that frames below it keep the bits of
# the pass-by-pass arithmetic.
FUSED_ORDER = 12
LOW_BITS = 5
_BLOCK = 1 << 3 * LOW_BITS


@functools.cache
def _low_matrix(upward: bool, op, bits: int) -> np.ndarray:
    """The first ``bits`` passes as a matrix acting on rows, built on first use."""
    out = _passes(np.eye(1 << bits), upward, op)
    out.flags.writeable = False
    return out


def _butterfly(values, upward: bool, op) -> np.ndarray:
    """Butterfly along the last axis: ``upward`` sums over subsets, else over supersets.

    ``op`` is ``np.add`` for the zeta transforms and ``np.subtract`` for their
    inverses.  Below ``2**FUSED_ORDER`` entries every pass runs on a copy of
    the input.  From there on each group of bits is a product with its
    :func:`_low_matrix` ``M``.  Bits 15 and up come first, as ``M.T @ X``
    from the input straight into the fresh result, one product per row on
    its ``(2**(n-15), 2**15)`` matrix.  Then each block of ``2**15``
    entries takes three products through one buffer of that size: bits 0-4
    as ``X @ M`` and bits 5-9 as ``M.T @ X`` on its ``(32, 32)`` matrices,
    and bits 10-14 as ``M.T @ X`` on its ``(2**k, 1024)`` ones, and is
    copied back.  A block of 256 KB stays in cache through the three, so it
    is read from memory once for 15 bits, and no second array of the
    result's size is made.  Every product's shape depends on ``n`` alone
    and lies inside one row, so a row of a stack gets the bits it gets on
    its own.  Rows holding a non-finite value are redone pass by pass.
    """
    x = _checked(values)
    n = order_of(x.shape[-1])
    if n < FUSED_ORDER:
        return _passes(np.array(x), upward, op)
    out = np.empty(x.shape)
    flat = out.reshape(-1)
    buffer = np.empty(min(_BLOCK, flat.size))
    low = _low_matrix(upward, op, LOW_BITS)
    high = _low_matrix(upward, op, min(n, 3 * LOW_BITS) - 2 * LOW_BITS).T
    square = (-1, len(low), len(low))
    wide = (-1, len(high), len(low) ** 2)
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf, in rows redone below
        bad = ~np.isfinite(x.sum(axis=-1))
        if n > 3 * LOW_BITS:
            top = x.reshape(-1, 1 << n - 3 * LOW_BITS, _BLOCK)
            np.matmul(_low_matrix(upward, op, n - 3 * LOW_BITS).T, top, out=out.reshape(top.shape))
            src = flat
        else:
            src = x.reshape(-1)
        for start in range(0, flat.size, _BLOCK):
            block = flat[start:start + _BLOCK]
            work = buffer[:block.size]
            np.matmul(src[start:start + _BLOCK].reshape(square), low, out=work.reshape(square))
            np.matmul(low.T, work.reshape(square), out=block.reshape(square))
            np.matmul(high, block.reshape(wide), out=work.reshape(wide))
            block[...] = work
    if bad.any():
        out[bad] = _passes(x[bad], upward, op)
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
