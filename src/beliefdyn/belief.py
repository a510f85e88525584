"""Basic belief assignments and their equivalent set-function forms.

A mass function distributes one unit of belief over the subsets of a frame;
the mass on the empty set may be positive (open-world convention, no
normalization is applied unless requested).  Belief, plausibility,
commonality and implicability are alternative carriers of the same
information and interconvert losslessly:

    bel(A) = sum of m(X) over non-empty X contained in A
    pl(A)  = sum of m(X) over X meeting A  =  bel(full) - bel(complement A)
    q(A)   = sum of m(X) over X containing A
    b(A)   = bel(A) + m(empty)             (the subset-sum of m itself)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import lattice
from .errors import InfeasibleConstraintsError, NotABeliefFunctionError, TotalConflictError
from .lattice import DEFAULT_TOL, Frame


class Kind(str, enum.Enum):
    """The four equivalent set-function representations."""

    BELIEF = "bel"
    PLAUSIBILITY = "pl"
    COMMONALITY = "q"
    IMPLICABILITY = "b"

    def __str__(self) -> str:
        return self.value


def _frozen_vector(frame: Frame, values) -> np.ndarray:
    out = np.asarray(values)
    if np.iscomplexobj(out):
        raise NotABeliefFunctionError("values must be real, got complex values")
    out = np.array(out, dtype=np.float64)
    if out.shape != (frame.size,):
        raise NotABeliefFunctionError(
            f"expected {frame.size} values for a frame of {frame.n} elements, got shape {out.shape}"
        )
    if not np.isfinite(out).all():
        raise NotABeliefFunctionError("values must be finite")
    out.flags.writeable = False
    return out


def _check_masses(values: np.ndarray) -> None:
    """Raise unless each row of a ``(..., 2**n)`` stack is a bba.

    A row passes with no mass below ``-DEFAULT_TOL`` and a sum within
    ``DEFAULT_TOL`` of one; a non-finite row fails the sum test.
    """
    if values.min() < -DEFAULT_TOL:
        raise NotABeliefFunctionError(
            f"negative mass {values.min():.3e} at subset {int(values.argmin()) % values.shape[-1]}"
        )
    totals = np.ravel(values.sum(axis=-1))
    bad = ~(np.abs(totals - 1.0) <= DEFAULT_TOL)
    if bad.any():
        raise NotABeliefFunctionError(f"masses sum to {float(totals[bad.argmax()])!r}, expected 1")


@dataclass(frozen=True, eq=False)
class MassFunction:
    """A basic belief assignment: non-negative masses summing to one.

    Masses are validated on construction (tolerance ``DEFAULT_TOL``);
    sums are never silently repaired.  Instances are immutable.
    """

    frame: Frame
    values: np.ndarray

    def __post_init__(self):
        out = _frozen_vector(self.frame, self.values)
        _check_masses(out)
        object.__setattr__(self, "values", out)

    @classmethod
    def from_masses(cls, frame: Frame, masses: dict[int, float]) -> "MassFunction":
        """Build from a sparse ``{subset bitmask: mass}`` mapping."""
        values = np.zeros(frame.size)
        for subset, mass in masses.items():
            values[frame.check_subset(subset)] += mass
        return cls(frame, values)

    def mass(self, subset: int) -> float:
        return float(self.values[self.frame.check_subset(subset)])

    @property
    def empty_mass(self) -> float:
        return float(self.values[0])

    def focal_sets(self) -> list[int]:
        """Subsets whose mass exceeds ``DEFAULT_TOL``, in increasing order."""
        return [int(i) for i in np.flatnonzero(self.values > DEFAULT_TOL)]

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{'|'.join(self.frame.members(s)) or ''}}}:{self.values[s]:g}"
            for s in self.focal_sets()
        )
        return f"MassFunction({parts or '0'})"


# Anchor values that every representation must satisfy when the underlying
# masses sum to one; checked on construction, full validity is only decided
# by Moebius inversion back to masses.
_ANCHORS = {
    Kind.BELIEF: (0, 0.0),
    Kind.PLAUSIBILITY: (0, 0.0),
    Kind.COMMONALITY: (0, 1.0),
    Kind.IMPLICABILITY: (-1, 1.0),
}


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """One of the four set-function representations, tagged by kind."""

    frame: Frame
    kind: Kind
    values: np.ndarray

    def __post_init__(self):
        out = _frozen_vector(self.frame, self.values)
        kind = Kind(self.kind)
        index, anchor = _ANCHORS[kind]
        if abs(out[index] - anchor) > DEFAULT_TOL:
            raise NotABeliefFunctionError(
                f"{kind.value} must take value {anchor} on "
                f"{'the full frame' if index == -1 else 'the empty set'}, got {float(out[index])!r}"
            )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", out)

    def value(self, subset: int) -> float:
        return float(self.values[self.frame.check_subset(subset)])


def _bel(a: np.ndarray) -> np.ndarray:
    """Belief of each row of a ``(..., 2**n)`` mass stack."""
    bel = lattice.zeta_subsets(a)
    bel -= a[..., :1]
    bel[..., 0] = 0.0
    return bel


def _pl_of_bel(bel: np.ndarray) -> np.ndarray:
    """Plausibility of each row of a belief stack: the complement of ``A`` is the reversed index."""
    pl = bel[..., -1:] - bel[..., ::-1]
    pl[..., 0] = 0.0
    return pl


def _pl(a: np.ndarray) -> np.ndarray:
    """Plausibility of each row of a ``(..., 2**n)`` mass stack."""
    return _pl_of_bel(_bel(a))


def bel_from_mass(m: MassFunction) -> ValueFunction:
    """Belief function of ``m``; the empty-set mass is never counted."""
    return ValueFunction(m.frame, Kind.BELIEF, _bel(m.values))


def b_from_mass(m: MassFunction) -> ValueFunction:
    """Implicability function: ``b(A) = bel(A) + m(empty)``."""
    return ValueFunction(m.frame, Kind.IMPLICABILITY, lattice.zeta_subsets(m.values))


def pl_from_mass(m: MassFunction) -> ValueFunction:
    return ValueFunction(m.frame, Kind.PLAUSIBILITY, _pl(m.values))


def pl_from_bel(bel: ValueFunction, empty_mass: float | None = None) -> ValueFunction:
    """Plausibility via ``pl(A) = bel(full) - bel(complement A)``.

    ``empty_mass`` is redundant when total mass is one; if given it is
    checked for consistency with ``bel(full)``; a NaN is inconsistent.
    """
    if bel.kind is not Kind.BELIEF:
        raise NotABeliefFunctionError(f"expected a belief function, got {bel.kind.value}")
    frame = bel.frame
    if empty_mass is not None and not abs(bel.values[-1] + empty_mass - 1.0) <= DEFAULT_TOL:
        raise NotABeliefFunctionError(
            f"bel(full)={float(bel.values[-1])!r} inconsistent with m(empty)={float(empty_mass)!r}"
        )
    return ValueFunction(frame, Kind.PLAUSIBILITY, _pl_of_bel(bel.values))


def q_from_mass(m: MassFunction) -> ValueFunction:
    """Commonality function, the multiplicative carrier of conjunctive combination."""
    return ValueFunction(m.frame, Kind.COMMONALITY, lattice.zeta_supersets(m.values))


def mass_from(v: ValueFunction) -> MassFunction:
    """Invert any of the four representations back to masses.

    Raises :class:`NotABeliefFunctionError` if the inversion produces a
    negative mass beyond ``DEFAULT_TOL`` (the input was not a belief-function
    representation).
    """
    frame = v.frame
    if v.kind is Kind.COMMONALITY:
        masses = lattice.mobius_supersets(v.values)
    else:
        if v.kind is Kind.IMPLICABILITY:
            b = np.array(v.values)
        elif v.kind is Kind.BELIEF:
            # total mass one pins m(empty) = 1 - bel(full)
            b = v.values + (1.0 - v.values[-1])
        else:  # plausibility
            comp = np.arange(frame.size) ^ frame.full
            b = 1.0 - v.values[comp]
        masses = lattice.mobius_subsets(b)
    if masses.min() < -DEFAULT_TOL:
        raise NotABeliefFunctionError(
            f"{v.kind.value} values are not a belief-function representation: "
            f"inversion gives mass {masses.min():.3e}"
        )
    return MassFunction(frame, masses)


def vacuous(frame: Frame) -> MassFunction:
    """Total ignorance: all mass on the full frame."""
    values = np.zeros(frame.size)
    values[-1] = 1.0
    return MassFunction(frame, values)


def normalize(m: MassFunction) -> MassFunction:
    """Move to the closed-world convention: ``m(empty) = 0``, rescale the rest."""
    conflict = m.values[0]
    if conflict >= 1.0 - DEFAULT_TOL:
        raise TotalConflictError("all mass on the empty set, normalization undefined")
    out = m.values / (1.0 - conflict)
    out[0] = 0.0
    return MassFunction(m.frame, out)


def least_committed_from_disjoint_constraints(
    frame: Frame, constraints: Iterable[tuple[int, float]]
) -> MassFunction:
    """Least committed mass function with ``bel(A_i) >= v_i`` for disjoint ``A_i``.

    Each constraint value is placed directly on its subset and the leftover
    mass on the full frame, so no subset receives more support than the
    constraints justify.  Only pairwise-disjoint, non-empty constraint sets
    are supported.
    """
    values = np.zeros(frame.size)
    seen = 0
    total = 0.0
    for subset, value in constraints:
        subset = frame.check_subset(subset)
        if subset == 0:
            raise InfeasibleConstraintsError("constraint on the empty set")
        if subset & seen:
            raise InfeasibleConstraintsError(
                f"constraint sets overlap at {frame.members(subset & seen)}"
            )
        if value < -DEFAULT_TOL:
            raise InfeasibleConstraintsError(f"negative constraint value {float(value)!r}")
        seen |= subset
        total += value
        values[subset] += value
    if total > 1.0 + DEFAULT_TOL:
        raise InfeasibleConstraintsError(f"constraint values sum to {float(total)!r} > 1")
    values[-1] += max(1.0 - total, 0.0)
    return MassFunction(frame, values)
