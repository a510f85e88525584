"""Mechanical verification of the calculus on enumerated and sampled instances.

Each check runs a batch of randomly sampled (or exhaustively enumerated)
instances against one algebraic statement and returns a
:class:`CheckReport`.  Checks are deterministic given (frame size, sample
count, seed), and a failing report always carries a JSON witness with the
concrete instance that violated the statement.

Instances are evaluated as stacks: each sub-identity runs once over
``(k, 2**n)`` rows or ``(k, 2**n, 2**n)`` matrices through the private
array cores that the public functions wrap, and one :meth:`_Fold.add`
folds the stack.  A stack's largest per-instance block holds at most
``_BLOCK`` (2**17) entries, so memory stays flat in the sample count and a
larger frame splits into more stacks.  The cap is the smallest power of two
under which every check of the default suite with a ``16×16`` block per
instance runs as one stack at n=4; the largest is
``conditioning-least-committed``'s 500 matrices.  Double sums and matrix
products use no transform.  The row-dominated sampler builds its rows from
the conditioning scatter and the subset transform, not from the matrix
builder or the plausibility route that the checks test.
Sampled masses and matrices are checked once, where they are drawn, by
the rules of ``MassFunction`` and ``is_valid_specialization``.  Matrices
the library builds are not checked: they are what the checks test, so a
builder fault is a violation with a witness, not an input error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import lattice
from .belief import MassFunction, _bel, _check_masses, _pl
from .dynamics import _condition, _conjunctive, _disjunctive, _enlarge, _retract
from .errors import FrameMismatchError, FrameTooLargeError, InputError
from .lattice import CAP_MATRIX, DEFAULT_TOL, Frame, _round12, default_frame
from .specialization import (
    SpecializationMatrix, _apply, _check_matrix_frame, _checked, _transfer_rows,
    incidence_inverse, incidence_matrix,
)

TOL = 1e-9
TOL_EXACT = 1e-12
TOL_RETRACT = 1e-8

# Entries that the largest per-instance block of one stack may hold in all: the
# smallest power of two above 500 * 16**2 = 128 000, conditioning-least-committed's
# matrices at n=4, so every check of the default suite with a 16x16 block is one stack.
_BLOCK = 2**17


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check at one frame size."""

    check: str
    n: int
    instances: int
    violations: int
    worst_deviation: float
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.check:<32} n={self.n} instances={self.instances:>5} "
            f"violations={self.violations:>3} worst={self.worst_deviation:.3e} [{status}]"
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _witness(check: str, n: int, **data) -> str:
    return json.dumps(_jsonable({"check": check, "n": n, **data}), sort_keys=True, separators=(",", ":"))


@dataclass
class _Fold:
    """Turns a check's instance stacks into its :class:`CheckReport`.

    Each :meth:`add` folds one stack, and is the one place where a deviation
    meets its tolerance.  The report keeps the worst of all deviations,
    counts the violating instances (not their failed sub-identities), and
    carries the witness of the first violating one.  A NaN deviation is a
    violation and the worst deviation.
    """

    check: str
    n: int
    instances: int = 0
    violations: int = 0
    worst_deviation: float = 0.0
    witness: str | None = None

    def add(self, deviations: dict, failed: bool = False, **witness) -> None:
        """Fold one instance per entry of each ``(deviation, tolerance)`` that ``deviations`` names.

        A violation is ``~(deviation <= tolerance)``, so NaN and ``inf`` fail.  The witness holds
        each ``witness`` field's entry and each deviation by name, or with ``failed`` the
        violated ones in a ``failed`` map.
        """
        bad = {name: ~(dev <= tol) for name, (dev, tol) in deviations.items()}
        violated = np.any(list(bad.values()), axis=0)
        self.instances += violated.size
        self.worst_deviation = float(np.max([dev for dev, _ in deviations.values()], initial=self.worst_deviation))
        self.violations += int(violated.sum())
        if self.witness is None and violated.any():
            i = int(violated.argmax())
            named = {name: dev[i] for name, (dev, _) in deviations.items() if not failed or bad[name][i]}
            row = {k: v[i] for k, v in witness.items()}
            self.witness = _witness(self.check, self.n, **row, **({"failed": named} if failed else named))

    def report(self) -> CheckReport:
        return CheckReport(**vars(self))


def _check_run(seed, samples: int | None) -> None:
    """Reject a sample count below 1, where a check would pass on no instance, and a negative seed."""
    if samples is not None and samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InputError(f"seed must be at least 0, got {seed}")


def _start(
    check: str, frame: Frame, seed, samples: int | None = None
) -> tuple[_Fold, np.random.Generator]:
    """A check's fold and generator; every check builds dense matrices, so their cap holds."""
    _check_matrix_frame(frame)
    _check_run(seed, samples)
    return _Fold(check, frame.n), np.random.default_rng(seed)


def _blocks(count: int, entries: int) -> Iterator[np.ndarray]:
    """``range(count)`` in index blocks of at most ``_BLOCK`` entries, at ``entries`` an index.

    Blocks are made one at a time, so any count holds one block in memory.
    """
    step = max(1, _BLOCK // entries)
    for start in range(0, count, step):
        yield np.arange(start, min(start + step, count))


def _worst(x: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each instance of a stack; NaN where one is NaN."""
    return np.abs(x).max(axis=tuple(range(1, x.ndim)))


# ---------------------------------------------------------------------------
# instance samplers

def _random_masses(size: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` random bbas as rows: uniforms on (0, 1] with a random subset zeroed, normalized.

    Zeroing a varying fraction of entries gives sparse and dense focal structures alike.  The
    entry with the largest keep-draw is always kept: a uniform pick when no other entry is.
    """
    draw = rng.random((k, 2 * size + 1))
    keep = draw[:, size:-1] >= draw[:, -1:]
    keep[np.arange(k), draw[:, size:-1].argmax(axis=1)] = True
    u = (1.0 - draw[:, :size]) * keep
    out = u / u.sum(axis=1, keepdims=True)
    _check_masses(out)
    return out


def random_mass(frame: Frame, rng: np.random.Generator) -> MassFunction:
    """Random bba: one row of the checks' mass sampler."""
    return MassFunction(frame, _random_masses(frame.size, 1, rng)[0])


def _random_rows(support: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Normalized uniforms on ``(0, 1]`` over the nonzero entries of each row of ``support``.

    One array, filled in place: bit for bit ``support * (1 - u)`` over its row sums.
    """
    w = rng.random(support.shape)
    np.subtract(1.0, w, out=w)
    w *= support
    w /= w.sum(axis=-1, keepdims=True)
    return w


def _specializations(support: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """:func:`_random_rows` on ``support``, checked as specializations."""
    return _checked(_random_rows(support, rng))


def random_specialization(frame: Frame, rng: np.random.Generator) -> SpecializationMatrix:
    """Random valid specialization: each row a distribution over the row's subsets."""
    return SpecializationMatrix(frame, _specializations(incidence_matrix(frame), rng))


def _sigma_star(t: np.ndarray, c, rng: np.random.Generator) -> np.ndarray:
    """A specialization per conditioning set in ``c``, row ``A`` on the subsets of ``A & c``.

    ``t`` is the incidence matrix; this is the support condition that
    :func:`sigma_star_specialization` describes.
    """
    return _specializations((t != 0)[np.arange(len(t)) & np.asarray(c)[..., None]], rng)


def sigma_star_specialization(
    frame: Frame, condition_set: int, rng: np.random.Generator
) -> SpecializationMatrix:
    """Random specialization that forces plausibility zero outside ``condition_set``.

    Row ``A`` is supported on subsets of ``A & condition_set``, the support
    condition characterizing the matrices whose output always gives the
    complement of the conditioning set zero plausibility.
    """
    frame.check_subset(condition_set)
    return SpecializationMatrix(frame, _sigma_star(incidence_matrix(frame), condition_set, rng))


def _dominated(t: np.ndarray, m0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One specialization per anchor of the ``(k, N)`` mass stack ``m0``, each of its rows dominated by it.

    Row domination (row plausibility below the anchor's everywhere) is the
    checkable characterization of the matrices whose application always
    yields a state at least as committed as the anchor.  Row ``A`` of the
    anchor's Dempsterian matrix is the anchor conditioned on ``A``, with
    ``pl(X) = pl0(X & A) <= pl0(X)``, and a specialization only lowers
    plausibility; so each base row, the conditioned anchor (one scatter, not
    the builder the checks test) times a random specialization, is dominated.
    ``pl`` is linear in a row, so each row is mixed with a fresh candidate at
    the largest weight ``alpha`` in [0, 1] that keeps it dominated.  A row
    summing to one has ``pl(X) = 1 - b(~X)``, so that holds wherever the
    row's implicability is at least the anchor's; sets holding ``A`` bound
    no row ``A``, whose plausibility is zero outside ``A``.  The stack is
    checked as specializations.
    """
    size = len(t)
    support = np.broadcast_to(t != 0, (len(m0), size, size))
    rows = lattice._transfer(m0[:, None, :], np.bitwise_and, np.arange(size)) @ _specializations(support, rng)
    cand = _random_rows(support, rng)
    b0 = lattice.zeta_subsets(m0)[:, None, :]
    # the base rows' slack, clipped where rounding takes it below 0, and the candidate's;
    # where the candidate's is negative, alpha <= slack / (slack - its slack)
    slack = np.maximum(lattice.zeta_subsets(rows) - b0, 0.0)
    gap = lattice.zeta_subsets(cand)
    gap -= b0
    binding = (gap < 0.0) & (t.T == 0)
    np.subtract(slack, gap, out=gap)
    ratio = np.divide(slack, gap, out=slack, where=binding)
    alpha = ratio.min(axis=-1, keepdims=True, where=binding, initial=1.0)
    cand -= rows
    cand *= alpha
    rows += cand
    return _checked(rows)


def dominated_specialization(
    frame: Frame, anchor: MassFunction, rng: np.random.Generator
) -> SpecializationMatrix:
    """Random specialization with every row at least as committed as ``anchor``, built by :func:`_dominated`."""
    if anchor.frame != frame:
        raise FrameMismatchError(f"anchor on frame {anchor.frame.labels}, matrix on {frame.labels}")
    return SpecializationMatrix(frame, _dominated(incidence_matrix(frame), anchor.values[None], rng)[0])


# ---------------------------------------------------------------------------
# checks

def check_conditioning_least_committed(frame: Frame, samples: int = 500, seed=0) -> CheckReport:
    """Conditioning is the least committed update killing the complement's plausibility.

    For sampled matrices with the zero-plausibility support property and
    random masses, the conditioned state must dominate: its plausibility is
    pointwise largest, and the alternative's complement plausibility is zero.
    """
    fold, rng = _start("conditioning-least-committed", frame, seed, samples)
    t = incidence_matrix(frame)
    for rows in _blocks(samples, frame.size**2):
        c = rng.integers(frame.size, size=rows.size)
        s = _sigma_star(t, c, rng)
        m = _random_masses(frame.size, rows.size, rng)
        pl_alt = _pl(_apply(m, s))
        outside = pl_alt[np.arange(rows.size), frame.full ^ c]
        dev = np.maximum(outside, (pl_alt - _pl(_condition(m, c))).max(axis=1))
        fold.add({"deviation": (dev, TOL)}, m=m, C=c, S=s)
    return fold.report()


def check_conditioning_idempotent(frame: Frame, samples: int | None = None, seed=0) -> CheckReport:
    """All conditioning matrices are idempotent, and products compose by intersection.

    Exhaustive over every conditioning set (and every pair); the matrices
    are 0/1 so both identities must hold exactly.
    """
    fold, _ = _start("conditioning-idempotent", frame, seed)
    size = frame.size
    # row C of the identity is the categorical mass on C, whose Dempsterian matrix conditions on C
    matrices = _transfer_rows(np.eye(size), np.bitwise_and)
    fold.add({"deviation": (_worst(matrices @ matrices - matrices), 0.0)}, C=np.arange(size))
    for pairs in _blocks(size * size, size * size):
        c1, c2 = np.divmod(pairs, size)
        fold.add({"deviation": (_worst(matrices[c1] @ matrices[c2] - matrices[c1 & c2]), 0.0)}, C1=c1, C2=c2)
    return fold.report()


def check_commuting_implies_dempsterian(frame: Frame, samples: int = 100, seed=0) -> CheckReport:
    """Commuting with every conditioning matrix characterizes the Dempsterian family.

    Forward direction: sampled Dempsterian matrices commute with all
    conditioning matrices.  Converse (frames of 2 or 3 elements): row ``full``
    of ``S C_A - C_A S`` is row ``A`` of ``D(top row of S) - S``, so a matrix
    that commutes with every ``C_A`` is the Dempsterian matrix ``D`` of its
    top row; that identity is checked on sampled valid specializations.
    """
    fold, rng = _start("commuting-implies-dempsterian", frame, seed, samples)
    size = frame.size
    conditioners = _transfer_rows(np.eye(size), np.bitwise_and)
    # each stack's two products go into these, sized for the largest stack, not into temporaries
    products = np.empty((2, min(samples, max(1, _BLOCK // size**3)), size, size, size))

    def commutator(s):
        """``s @ conditioners - conditioners @ s`` for a ``(k, 1, N, N)`` stack, in ``products``."""
        left, right = products[:, : len(s)]
        np.matmul(s, conditioners, out=left)
        return np.subtract(left, np.matmul(conditioners, s, out=right), out=left)

    for rows in _blocks(samples, size**3):
        s = _transfer_rows(_random_masses(size, rows.size, rng), np.bitwise_and)[:, None]
        c = commutator(s)
        fold.add({"deviation": (np.abs(c, out=c).max(axis=(1, 2, 3)), TOL)}, S=s[:, 0])
    if 2 <= frame.n <= 3:
        for rows in _blocks(samples, size**3):
            s = _specializations(np.broadcast_to(incidence_matrix(frame), (rows.size, size, size)), rng)
            top = commutator(s[:, None])[..., -1, :]
            converse = _worst(top - (_transfer_rows(s[:, -1], np.bitwise_and) - s))
            fold.add({"converse_deviation": (converse, TOL)}, S=s)
    return fold.report()


def check_dempsterian_commutation(frame: Frame, samples: int = 200, seed=0) -> CheckReport:
    """Dempsterian matrices commute, and their product is the combination's matrix."""
    fold, rng = _start("dempsterian-commutation", frame, seed, samples)
    size = frame.size
    for rows in _blocks(samples, size**2):
        m1, m2 = (_random_masses(size, rows.size, rng) for _ in range(2))
        s1, s2, s12 = (_transfer_rows(m, np.bitwise_and) for m in (m1, m2, _conjunctive(m1, m2)))
        product = s1 @ s2
        dev = np.maximum(_worst(product - s2 @ s1), _worst(product - s12))
        fold.add({"deviation": (dev, TOL)}, m1=m1, m2=m2)
    return fold.report()


def check_combination_least_committed(frame: Frame, samples: int = 300, seed=0) -> CheckReport:
    """The Dempsterian matrix is the least committed row-dominated update.

    For sampled anchors m0, matrices S whose rows are dominated by m0 (built
    by :func:`_dominated`), and random m: applying m0's own matrix equals
    conjunctive combination, and its plausibility dominates every alternative
    ``m . S`` pointwise.  The domination deviation is signed: the largest
    ``pl(m . S) - pl(m . D(m0))`` over the non-empty sets (at the empty set
    both are 0).
    """
    fold, rng = _start("combination-least-committed", frame, seed, samples)
    size = frame.size
    t = incidence_matrix(frame)
    for rows in _blocks(samples, size**2):
        m0 = _random_masses(size, rows.size, rng)
        s = _dominated(t, m0, rng)
        m = _random_masses(size, rows.size, rng)
        best = _apply(m, _transfer_rows(m0, np.bitwise_and))
        fold.add({
            "equality_deviation": (_worst(best - _conjunctive(m, m0)), TOL_EXACT),
            "domination_deviation": ((_pl(_apply(m, s)) - _pl(best))[:, 1:].max(axis=1), TOL),
        }, m0=m0, m=m, S=s)
    return fold.report()


def check_eigen_structure(frame: Frame, samples: int = 200, seed=0, inject_fault: bool = False) -> CheckReport:
    """Dempsterian matrices diagonalize over the subset-incidence basis.

    The diagonal (and eigenvalue) vector is the commonality function of the
    generating mass, and the rows of the inverse incidence matrix are left
    eigenvectors.  ``inject_fault`` perturbs one entry of the first sampled
    matrix; it exists so the fault path of the reporting machinery can be
    exercised end to end.
    """
    fold, rng = _start("eigenstructure", frame, seed, samples)
    t, t_inv = incidence_matrix(frame), incidence_inverse(frame)
    for rows in _blocks(samples, frame.size**2):
        m = _random_masses(frame.size, rows.size, rng)
        values = _transfer_rows(m, np.bitwise_and)
        if inject_fault and rows[0] == 0:
            values[0, -1, 0] += 1e-3
        q = lattice.zeta_supersets(m)
        fold.add({
            "diagonal_deviation": (_worst(np.diagonal(values, axis1=1, axis2=2) - q), TOL_EXACT),
            "reconstruction_deviation": (_worst(values - (t * q[:, None, :]) @ t_inv), TOL),
            "eigenrow_deviation": (_worst(t_inv @ values - q[:, :, None] * t_inv), TOL),
        }, m=m)
    return fold.report()


def check_dynamics_invariants(frame: Frame, samples: int = 300, seed=0) -> CheckReport:
    """Cross-route agreement of the dynamics rules on random instances.

    Covers: conditioning by transfer / matrix / closed belief form, zero
    plausibility outside the conditioning set, conjunctive combination
    against the quadratic double sum plus commutativity, associativity and
    vacuous neutrality, conditioning composition, expansion order
    independence, retraction round trips, the disjunctive rule against its
    double sum and implicability product, and enlargement indiscernibility.
    """
    fold, rng = _start("dynamics-invariants", frame, seed, samples)
    size, full = frame.size, frame.full
    idx = np.arange(size)
    vac = np.eye(size)[-1]
    q, b = lattice.zeta_supersets, lattice.zeta_subsets
    for rows in _blocks(samples, size**2):
        k = rows.size
        m0, m1, m2 = (_random_masses(size, k, rng) for _ in range(3))
        c, c2 = rng.integers(size, size=(2, k))
        at = np.arange(k)[:, None]
        devs = {}

        # conditioning: transfer vs matrix vs closed belief form, and pl outside C; the
        # expansion order is taken here too, so its two matrices are freed before the double sums
        cond = _condition(m0, c)
        s_c, s_m1 = (_transfer_rows(v, np.bitwise_and) for v in (np.eye(size)[c], m1))
        devs["cond-matrix"] = _worst(cond - _apply(m0, s_c)), TOL
        expansion = _worst(_apply(_apply(m0, s_m1), s_c) - _apply(_apply(m0, s_c), s_m1))
        del s_c, s_m1
        bel0 = _bel(m0)
        comp = (full ^ c)[:, None]
        devs["cond-bel-form"] = _worst(_bel(cond) - (bel0[at, idx | comp] - bel0[at, comp])), TOL
        devs["cond-pl-outside"] = _pl(cond)[at, comp][:, 0], TOL

        # conjunctive rule: fast path vs double sum, q-product, algebra
        m01 = _conjunctive(m0, m1)
        devs["conj-double-sum"] = _worst(m01 - lattice._double_sum(m0, idx, m1, idx, np.bitwise_and)), TOL
        devs["conj-q-product"] = _worst(q(m01) - q(m0) * q(m1)), TOL
        devs["conj-commutative"] = _worst(m01 - _conjunctive(m1, m0)), TOL
        devs["conj-associative"] = _worst(_conjunctive(m01, m2) - _conjunctive(m0, _conjunctive(m1, m2))), TOL
        devs["conj-vacuous-neutral"] = _worst(_conjunctive(m0, vac) - m0), TOL

        # conditioning composes by intersection; expansions commute
        devs["cond-compose"] = _worst(_condition(cond, c2) - _condition(m0, c & c2)), TOL
        devs["expansion-order"] = expansion, TOL

        # retraction round trip (evidence kept invertible by vacuous mixing); a
        # row public retract would reject is a violation, never clipped to a pass
        safe = 0.9 * m1 + 0.1 * vac
        q_safe = q(safe)
        rest = _retract(_conjunctive(m0, safe), q_safe)
        rejected = (q_safe.min(axis=1) <= DEFAULT_TOL) | (rest.min(axis=1) < -DEFAULT_TOL)
        devs["retract-round-trip"] = np.where(rejected, np.inf, _worst(rest.clip(0.0) - m0)), TOL_RETRACT

        # disjunctive rule: fast path vs double sum, b-product, matrix path
        m_or = _disjunctive(m0, m1)
        devs["disj-double-sum"] = _worst(m_or - lattice._double_sum(m0, idx, m1, idx, np.bitwise_or)), TOL
        devs["disj-b-product"] = _worst(b(m_or) - b(m0) * b(m1)), TOL
        devs["disj-matrix"] = _worst(_apply(m0, _transfer_rows(m1, np.bitwise_or)) - m_or), TOL

        # enlargement: conditioning is invariant under choices inside the set
        a, x, y = rng.integers(size, size=(3, k))
        x &= full ^ a
        y &= a
        m_a = _enlarge(m0, a)
        devs["enlarge-invariance"] = _worst(_condition(m_a, x | y) - _enlarge(_condition(m_a, x), y)), TOL
        fold.add(devs, failed=True, m0=m0, m1=m1, m2=m2, C=c, C2=c2, A=a, X=x, Y=y)
    return fold.report()


# ---------------------------------------------------------------------------
# suite

# Each check and the largest frame size it runs at; sample counts are the checks' own defaults.
_CHECKS = {
    "conditioning-least-committed": (check_conditioning_least_committed, 4),
    "conditioning-idempotent": (check_conditioning_idempotent, 4),
    "commuting-implies-dempsterian": (check_commuting_implies_dempsterian, 4),
    "dempsterian-commutation": (check_dempsterian_commutation, 5),
    "combination-least-committed": (check_combination_least_committed, 4),
    "eigenstructure": (check_eigen_structure, 5),
    "dynamics-invariants": (check_dynamics_invariants, 6),
}

CHECK_NAMES = tuple(_CHECKS)
# Checks that enumerate all their instances, so a sample count does not apply to them.
EXHAUSTIVE_CHECKS = ("conditioning-idempotent",)


def run_all(
    sizes=(1, 2, 3, 4),
    samples: int | None = None,
    seed: int = 0,
    checks=None,
    inject_fault: bool = False,
) -> list[CheckReport]:
    """Run the selected checks at every frame size; deterministic per seed.

    Checks are skipped at sizes above their cap (exhaustive enumeration and
    dense matrix stacks do not scale past desk-size frames); a selection that
    runs no check at all is an input error, as is a negative seed.  ``samples``
    overrides every check's own default sample count; the exhaustive checks
    ignore it.
    """
    _check_run(seed, samples)
    selected = list(CHECK_NAMES) if checks is None else list(checks)
    for name in selected:
        if name not in _CHECKS:
            raise InputError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    sizes = list(sizes)
    for n in sizes:
        if not 1 <= n <= CAP_MATRIX:
            raise FrameTooLargeError(f"check sizes must lie in [1, {CAP_MATRIX}], got {n}")
    reports = []
    for n in sizes:
        frame = default_frame(n)
        for index, name in enumerate(CHECK_NAMES):
            if name not in selected:
                continue
            fn, max_n = _CHECKS[name]
            if n > max_n:
                continue
            child_seed = int(np.random.SeedSequence((seed, index, n)).generate_state(1)[0])
            kwargs = {} if samples is None else {"samples": samples}
            if name == "eigenstructure" and inject_fault:
                kwargs["inject_fault"] = True
            reports.append(fn(frame, seed=child_seed, **kwargs))
    if not reports:
        raise InputError(f"the selected checks run at none of the sizes {sizes}")
    return reports


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


def format_reports(reports) -> str:
    lines = []
    for r in reports:
        lines.append(r.to_line())
        if r.witness is not None:
            lines.append(f"    witness: {r.witness}")
    failed = sum(1 for r in reports if not r.passed)
    lines.append(f"summary: {len(reports)} checks, {len(reports) - failed} passed, {failed} failed")
    return "\n".join(lines)
