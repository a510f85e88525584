"""Belief dynamics: conditioning, combination, retraction, enlargement.

Every rule here has an equivalent matrix formulation in
:mod:`beliefdyn.specialization`; the implementations below are the direct
O(2**n) or transform-based paths, and the agreement between the two routes
is part of the verification suite.
"""

from __future__ import annotations

import numpy as np

from . import lattice
from .belief import MassFunction, normalize, q_from_mass
from .errors import EvidenceNotContainedError, NonInvertibleEvidenceError
from .lattice import DEFAULT_TOL, require_same_frame


def condition(m: MassFunction, condition_set: int) -> MassFunction:
    """Unnormalized conditioning: each mass moves from ``X`` to ``X & condition_set``.

    Mass on subsets incompatible with the conditioning set ends up on the
    empty set (conflict) rather than being renormalized away.
    """
    m.frame.check_subset(condition_set)
    out = np.bincount(np.arange(m.frame.size) & condition_set, m.values, m.frame.size)
    return MassFunction(m.frame, out)


def combine_conjunctive(m0: MassFunction, m1: MassFunction) -> MassFunction:
    """Conjunctive (unnormalized Dempster) combination of distinct evidence.

    Computed through the commonality product ``q01 = q0 * q1`` in
    O(n 2**n); equals the quadratic sum of ``m0(X) m1(Y)`` over pairs with
    ``X & Y = A``.
    """
    require_same_frame(m0, m1)
    q01 = q_from_mass(m0).values * q_from_mass(m1).values
    return MassFunction(m0.frame, lattice.mobius_supersets(q01))


def combine_normalized(m0: MassFunction, m1: MassFunction) -> MassFunction:
    """Conjunctive combination followed by normalization (classical Dempster rule)."""
    return normalize(combine_conjunctive(m0, m1))


def combine_disjunctive(m0: MassFunction, m1: MassFunction) -> MassFunction:
    """Disjunctive combination: ``m0(X) m1(Y)`` is transferred to ``X | Y``.

    Computed through the implicability product ``b01 = b0 * b1``, the
    upward mirror of the commonality product.
    """
    require_same_frame(m0, m1)
    b01 = lattice.zeta_subsets(m0.values) * lattice.zeta_subsets(m1.values)
    return MassFunction(m0.frame, lattice.mobius_subsets(b01))


def retract(combined: MassFunction, evidence: MassFunction, tol: float = DEFAULT_TOL) -> MassFunction:
    """Remove previously combined evidence: ``q_rest = q_combined / q_evidence``.

    Requires every commonality value of the evidence to exceed ``tol``.
    If the quotient does not invert to a valid mass function, the combined
    state never contained the evidence and
    :class:`EvidenceNotContainedError` is raised.
    """
    require_same_frame(combined, evidence)
    q_evidence = q_from_mass(evidence).values
    if q_evidence.min() <= tol:
        worst = int(q_evidence.argmin())
        raise NonInvertibleEvidenceError(
            f"evidence commonality at subset {worst} is {q_evidence[worst]:.3e}, not invertible"
        )
    q_rest = q_from_mass(combined).values / q_evidence
    masses = lattice.mobius_supersets(q_rest)
    if masses.min() < -tol:
        raise EvidenceNotContainedError(
            f"retraction yields mass {masses.min():.3e}; "
            "the belief state does not contain this evidence"
        )
    np.clip(masses, 0.0, None, out=masses)
    return MassFunction(combined.frame, masses)


def enlarge(m: MassFunction, indiscernible: int) -> MassFunction:
    """Make the elements of a set indiscernible: each mass moves from ``X`` to ``X | set``."""
    m.frame.check_subset(indiscernible)
    out = np.bincount(np.arange(m.frame.size) | indiscernible, m.values, m.frame.size)
    return MassFunction(m.frame, out)
