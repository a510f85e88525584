"""Belief dynamics: conditioning, combination, retraction, enlargement.

Every rule here has an equivalent matrix formulation in
:mod:`beliefdyn.specialization`; the implementations below are the direct
O(2**n) or transform-based paths, and the agreement between the two routes
is part of the verification suite.  Each rule is a private array core over
``(..., 2**n)`` stacks of mass vectors, which the verification suite
evaluates over many instances at once; the public function validates its
operands and wraps the core's single row.  Conditioning and enlargement
are one call each to :func:`lattice._transfer`; the matrix builders fill
their rows by folds of their own, so the two routes share no kernel.
"""

from __future__ import annotations

import numpy as np

from . import lattice
from .belief import MassFunction, normalize
from .errors import EvidenceNotContainedError, NonInvertibleEvidenceError
from .lattice import DEFAULT_TOL, require_same_frame


def _condition(a: np.ndarray, c) -> np.ndarray:
    """Rows of ``a`` conditioned on ``c`` (one subset, or one per row)."""
    return lattice._transfer(a, np.bitwise_and, c)


def _enlarge(a: np.ndarray, x) -> np.ndarray:
    """Rows of ``a`` enlarged by ``x`` (one subset, or one per row)."""
    return lattice._transfer(a, np.bitwise_or, x)


def _conjunctive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise conjunctive combination of two mass stacks: the commonality product."""
    return lattice.mobius_supersets(lattice.zeta_supersets(a) * lattice.zeta_supersets(b))


def _disjunctive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise disjunctive combination of two mass stacks: the implicability product."""
    return lattice.mobius_subsets(lattice.zeta_subsets(a) * lattice.zeta_subsets(b))


def _retract(a: np.ndarray, q_evidence: np.ndarray) -> np.ndarray:
    """Masses whose commonality is ``q(a) / q_evidence``, row-wise and unclipped."""
    return lattice.mobius_supersets(lattice.zeta_supersets(a) / q_evidence)


def condition(m: MassFunction, condition_set: int) -> MassFunction:
    """Unnormalized conditioning: each mass moves from ``X`` to ``X & condition_set``.

    Mass on subsets incompatible with the conditioning set ends up on the
    empty set (conflict) rather than being renormalized away.
    """
    m.frame.check_subset(condition_set)
    return MassFunction(m.frame, _condition(m.values, condition_set))


def combine_conjunctive(m0: MassFunction, m1: MassFunction) -> MassFunction:
    """Conjunctive (unnormalized Dempster) combination of distinct evidence.

    Computed through the commonality product ``q01 = q0 * q1`` in
    O(n 2**n); equals the quadratic sum of ``m0(X) m1(Y)`` over pairs with
    ``X & Y = A``.
    """
    require_same_frame(m0, m1)
    return MassFunction(m0.frame, _conjunctive(m0.values, m1.values))


def combine_normalized(m0: MassFunction, m1: MassFunction) -> MassFunction:
    """Conjunctive combination followed by normalization (classical Dempster rule)."""
    return normalize(combine_conjunctive(m0, m1))


def combine_disjunctive(m0: MassFunction, m1: MassFunction) -> MassFunction:
    """Disjunctive combination: ``m0(X) m1(Y)`` is transferred to ``X | Y``.

    Computed through the implicability product ``b01 = b0 * b1``, the
    upward mirror of the commonality product.
    """
    require_same_frame(m0, m1)
    return MassFunction(m0.frame, _disjunctive(m0.values, m1.values))


def retract(combined: MassFunction, evidence: MassFunction, tol: float = DEFAULT_TOL) -> MassFunction:
    """Remove previously combined evidence: ``q_rest = q_combined / q_evidence``.

    Requires every commonality value of the evidence to exceed ``tol``.
    If the quotient does not invert to a valid mass function, the combined
    state never contained the evidence and
    :class:`EvidenceNotContainedError` is raised.
    """
    require_same_frame(combined, evidence)
    q_evidence = lattice.zeta_supersets(evidence.values)
    if q_evidence.min() <= tol:
        worst = int(q_evidence.argmin())
        raise NonInvertibleEvidenceError(
            f"evidence commonality at subset {worst} is {q_evidence[worst]:.3e}, not invertible"
        )
    masses = _retract(combined.values, q_evidence)
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
    return MassFunction(m.frame, _enlarge(m.values, indiscernible))
