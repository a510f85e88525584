"""The commitment partial order on belief states.

State 1 is *at least as committed* as state 2 when ``pl1(A) <= pl2(A)`` for
every subset ``A``: it allocates no more potential support anywhere.  The
least committed state of all is the vacuous one.  An equivalent formulation
compares ``b(A) = bel(A) + m(empty)`` with the inequality reversed.

:func:`compare` runs one transform: ``d = b1 - b2`` is the subset sum of
``m1 - m2``, and since ``pl(A) = b(full) - b(complement of A)``, the
plausibility excess ``pl1 - pl2`` is ``d[full] - d`` read at the
complement of each subset.  The classification looks only at signs against
the tolerance, not at which subset holds them, so the excess needs no
reordering.
"""

from __future__ import annotations

import enum

import numpy as np

from . import lattice
from .belief import MassFunction
from .lattice import DEFAULT_TOL, require_same_frame


class Ordering(enum.Enum):
    EQUAL = "equal"
    FIRST_MORE_COMMITTED = "first-more-committed"
    SECOND_MORE_COMMITTED = "second-more-committed"
    INCOMPARABLE = "incomparable"


def _classify(first_excess: np.ndarray, tol: float) -> Ordering:
    """Ordering from the pointwise excess of the first state's pl over the second's, in any subset order."""
    first_above = bool((first_excess > tol).any())
    second_above = bool((first_excess < -tol).any())
    if first_above and second_above:
        return Ordering.INCOMPARABLE
    if first_above:
        return Ordering.SECOND_MORE_COMMITTED
    if second_above:
        return Ordering.FIRST_MORE_COMMITTED
    return Ordering.EQUAL


def compare(m1: MassFunction, m2: MassFunction, tol: float = DEFAULT_TOL) -> Ordering:
    """Compare two belief states through their plausibility functions.

    An inequality counts as strict only when the gap exceeds ``tol``, so
    floating-point ties never turn EQUAL into a strict ordering.
    """
    require_same_frame(m1, m2)
    d = lattice.zeta_subsets(m1.values - m2.values)
    # pl1 - pl2 at the complement of each subset
    return _classify(np.subtract(d[-1], d, out=d), tol)


def is_at_least_as_committed(m1: MassFunction, m2: MassFunction, tol: float = DEFAULT_TOL) -> bool:
    return compare(m1, m2, tol) in (Ordering.EQUAL, Ordering.FIRST_MORE_COMMITTED)
