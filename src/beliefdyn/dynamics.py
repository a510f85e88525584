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

The two combination rules take one of two routes, chosen by cost.  Let
``F(a)`` and ``F(b)`` be the subsets nonzero in some row of each operand
stack.  When ``PAIR_COST * |F(a)| * |F(b)| <= n * 2**n``, the combination
is the paper's double sum itself: one scatter of the products
``a[X] * b[Y]`` onto ``X & Y`` (or ``X | Y``).  Otherwise it is the
transform product: three butterflies of ``n`` passes over ``2**n``
entries.  The factor 16 holds each of the scatter's pair arrays to
``n / 16`` times the size of a vector.  So sparse evidence on a large
frame (256 by 33 focal sets at n=20) takes the scatter, while dense
operands, and every stack the verification suite draws, take the
transforms.  The routes differ by a few 1e-16.  The scatter adds only
the products, so an entry that no pair reaches is an exact zero, where the
transforms can leave roundoff; and a combination with a categorical mass
on the scatter route is bit for bit :func:`condition` (or
:func:`enlarge`).  A stack gives the bits of each of its rows on its own
when the stack and the row take the same route.
"""

from __future__ import annotations

import numpy as np

from . import lattice
from .belief import MassFunction, normalize
from .errors import EvidenceNotContainedError, NonInvertibleEvidenceError
from .lattice import DEFAULT_TOL, order_of, require_same_frame

# The double sum runs when PAIR_COST * (focal pairs) <= n * 2**n entry-passes.
PAIR_COST = 16


def _condition(a: np.ndarray, c) -> np.ndarray:
    """Rows of ``a`` conditioned on ``c`` (one subset, or one per row)."""
    return lattice._transfer(a, np.bitwise_and, c)


def _enlarge(a: np.ndarray, x) -> np.ndarray:
    """Rows of ``a`` enlarged by ``x`` (one subset, or one per row)."""
    return lattice._transfer(a, np.bitwise_or, x)


def _focal_pairs(a: np.ndarray, b: np.ndarray):
    """Focal subsets of the stacks ``a`` and ``b`` when their double sum is the cheaper route, else None."""
    size = a.shape[-1]
    budget = order_of(size) * size // PAIR_COST
    fa = lattice._focal(a)
    if fa.size > budget:
        return None
    fb = lattice._focal(b)
    return (fa, fb) if fa.size * fb.size <= budget else None


def _conjunctive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise conjunctive combination of two mass stacks: double sum or commonality product."""
    pairs = _focal_pairs(a, b)
    if pairs is not None:
        return lattice._double_sum(a, pairs[0], b, pairs[1], np.bitwise_and)
    return lattice.mobius_supersets(lattice.zeta_supersets(a) * lattice.zeta_supersets(b))


def _disjunctive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise disjunctive combination of two mass stacks: double sum or implicability product."""
    pairs = _focal_pairs(a, b)
    if pairs is not None:
        return lattice._double_sum(a, pairs[0], b, pairs[1], np.bitwise_or)
    return lattice.mobius_subsets(lattice.zeta_subsets(a) * lattice.zeta_subsets(b))


def _retract(a: np.ndarray, q_evidence: np.ndarray) -> np.ndarray:
    """Masses whose commonality is ``q(a) / q_evidence``, row-wise and unclipped."""
    return lattice.mobius_supersets(lattice.zeta_supersets(a) / q_evidence)


def _contained(masses: np.ndarray, removal: str) -> np.ndarray:
    """``masses`` left by a ``removal`` of evidence, clipped at zero in place.

    A mass below ``-DEFAULT_TOL`` means the state never contained the evidence, and
    raises :class:`EvidenceNotContainedError`.
    """
    if masses.min() < -DEFAULT_TOL:
        raise EvidenceNotContainedError(
            f"{removal} yields mass {masses.min():.3e}; "
            "the belief state does not contain this evidence"
        )
    np.clip(masses, 0.0, None, out=masses)
    return masses


def condition(m: MassFunction, condition_set: int) -> MassFunction:
    """Unnormalized conditioning: each mass moves from ``X`` to ``X & condition_set``.

    Mass on subsets incompatible with the conditioning set ends up on the
    empty set (conflict) rather than being renormalized away.
    """
    return MassFunction(m.frame, _condition(m.values, m.frame.check_subset(condition_set)))


def combine_conjunctive(m0: MassFunction, m1: MassFunction) -> MassFunction:
    """Conjunctive (unnormalized Dempster) combination of distinct evidence.

    ``m01(A)`` is the sum of ``m0(X) m1(Y)`` over pairs with ``X & Y = A``.
    With ``F0`` and ``F1`` focal sets, that double sum runs as one scatter
    when ``PAIR_COST * F0 * F1 <= n 2**n``, in O(F0 F1); otherwise the
    commonality product ``q01 = q0 * q1`` runs in O(n 2**n).  The routes
    agree to a few 1e-16; the double sum leaves exact zeros where no pair
    lands, and with a categorical ``m1`` it is bit for bit :func:`condition`.
    """
    require_same_frame(m0, m1)
    return MassFunction(m0.frame, _conjunctive(m0.values, m1.values))


def combine_normalized(m0: MassFunction, m1: MassFunction) -> MassFunction:
    """Conjunctive combination followed by normalization (classical Dempster rule)."""
    return normalize(combine_conjunctive(m0, m1))


def combine_disjunctive(m0: MassFunction, m1: MassFunction) -> MassFunction:
    """Disjunctive combination: ``m0(X) m1(Y)`` is transferred to ``X | Y``.

    Takes the route of :func:`combine_conjunctive` by the same cost rule:
    the double sum onto ``X | Y``, or the implicability product
    ``b01 = b0 * b1``, the upward mirror of the commonality product.  With
    a categorical ``m1`` the double sum is bit for bit :func:`enlarge`.
    """
    require_same_frame(m0, m1)
    return MassFunction(m0.frame, _disjunctive(m0.values, m1.values))


def retract(combined: MassFunction, evidence: MassFunction) -> MassFunction:
    """Remove previously combined evidence: ``q_rest = q_combined / q_evidence``.

    Requires every commonality value of the evidence to exceed ``DEFAULT_TOL``.
    If the quotient does not invert to a valid mass function, the combined
    state never contained the evidence and
    :class:`EvidenceNotContainedError` is raised.
    """
    require_same_frame(combined, evidence)
    q_evidence = lattice.zeta_supersets(evidence.values)
    if q_evidence.min() <= DEFAULT_TOL:
        worst = int(q_evidence.argmin())
        raise NonInvertibleEvidenceError(
            f"evidence commonality at subset {worst} is {q_evidence[worst]:.3e}, not invertible"
        )
    return MassFunction(combined.frame, _contained(_retract(combined.values, q_evidence), "retraction"))


def enlarge(m: MassFunction, indiscernible: int) -> MassFunction:
    """Make the elements of a set indiscernible: each mass moves from ``X`` to ``X | set``."""
    return MassFunction(m.frame, _enlarge(m.values, m.frame.check_subset(indiscernible)))
