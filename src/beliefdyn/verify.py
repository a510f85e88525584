"""Mechanical verification of the calculus on enumerated and sampled instances.

Each check runs a batch of randomly sampled (or exhaustively enumerated)
instances against one algebraic statement and returns a
:class:`CheckReport`.  Checks are deterministic given (frame size, sample
count, seed), and a failing report always carries a JSON witness with the
concrete instance that violated the statement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import lattice
from .belief import MassFunction, bel_from_mass, pl_from_mass, q_from_mass, vacuous
from .dynamics import (
    combine_conjunctive,
    combine_disjunctive,
    condition,
    enlarge,
    retract,
)
from .errors import FrameTooLargeError, InputError
from .lattice import CAP_MATRIX, Frame, _round12, default_frame
from .specialization import (
    SpecializationMatrix,
    apply,
    apply_generalization,
    commute_check,
    conditioning_matrix,
    dempsterian_matrix,
    disjunctive_matrix,
    incidence_inverse,
    incidence_matrix,
    is_dempsterian,
)

TOL = 1e-9
TOL_EXACT = 1e-12
TOL_RETRACT = 1e-8


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
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _witness(check: str, n: int, **data) -> str:
    payload = {"check": check, "n": n}
    payload.update({k: _jsonable(v) for k, v in data.items()})
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class _Fold:
    """Turns a check's instances into its :class:`CheckReport`.

    Each :meth:`add` is one instance.  The report keeps the worst of all
    deviations, counts the violating instances (not their failed
    sub-identities), and carries the witness of the first violating one.
    """

    check: str
    n: int
    instances: int = 0
    violations: int = 0
    worst_deviation: float = 0.0
    witness: str | None = None

    def add(self, violated: bool, deviations=(), **witness) -> None:
        self.instances += 1
        self.worst_deviation = max((self.worst_deviation, *deviations))
        if violated:
            self.violations += 1
            if self.witness is None:
                self.witness = _witness(self.check, self.n, **witness)

    def report(self) -> CheckReport:
        return CheckReport(**vars(self))


# ---------------------------------------------------------------------------
# instance samplers

def random_mass(frame: Frame, rng: np.random.Generator) -> MassFunction:
    """Random bba: uniform entries with a random subset zeroed, normalized.

    Zeroing a varying fraction of entries produces sparse and dense focal
    structures alike.
    """
    u = rng.random(frame.size)
    keep = rng.random(frame.size) >= rng.random()
    if not keep.any():
        keep[rng.integers(frame.size)] = True
    u *= keep
    total = u.sum()
    if total <= 0.0:
        u[rng.integers(frame.size)] = 1.0
        total = 1.0
    return MassFunction(frame, u / total)


def _random_rows(support: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Normalized uniforms on ``(0, 1]`` over the nonzero entries of each row of ``support``."""
    w = support * (1.0 - rng.random(support.shape))
    return w / w.sum(axis=-1, keepdims=True)


def random_specialization(frame: Frame, rng: np.random.Generator) -> SpecializationMatrix:
    """Random valid specialization: each row a distribution over the row's subsets."""
    return SpecializationMatrix(frame, _random_rows(incidence_matrix(frame), rng))


def sigma_star_specialization(
    frame: Frame, condition_set: int, rng: np.random.Generator
) -> SpecializationMatrix:
    """Random specialization that forces plausibility zero outside ``condition_set``.

    Row ``A`` is supported on subsets of ``A & condition_set``, the support
    condition characterizing the matrices whose output always gives the
    complement of the conditioning set zero plausibility.
    """
    support = incidence_matrix(frame)[np.arange(frame.size) & condition_set]
    return SpecializationMatrix(frame, _random_rows(support, rng))


# Candidate rows tried per row of a dominated specialization before the fallback.
_CANDIDATES_PER_ROW = 40


def dominated_specialization(
    frame: Frame, anchor: MassFunction, rng: np.random.Generator
) -> SpecializationMatrix:
    """Random specialization each of whose rows is at least as committed as ``anchor``.

    Row domination (row plausibility below the anchor's everywhere) is the
    checkable characterization of the matrices whose application always
    yields a state at least as committed as the anchor.  Rows are rejection
    sampled, all candidates in one block; when no candidate qualifies, a fresh
    one is shrunk toward the point mass on the empty set until it does.
    """
    pl0 = pl_from_mass(anchor).values
    size = frame.size
    # one candidate beyond the cap per row: the fresh one the fallback shrinks
    shape = (size, _CANDIDATES_PER_ROW + 1, size)
    cands = _random_rows(np.broadcast_to(incidence_matrix(frame)[:, None, :], shape), rng)
    # pl(D) = total - b(full - D), and full - D is the reversed index
    pl = cands.sum(axis=-1, keepdims=True) - lattice.zeta_subsets(cands)[..., ::-1]
    pl[..., 0] = 0.0
    passed = (pl[:, :-1] <= pl0 + TOL_EXACT).all(axis=-1)
    s = cands[np.arange(size), passed.argmax(axis=1)]
    fallback = ~passed.any(axis=1)
    if fallback.any():
        cand, pl_row = cands[fallback, -1], pl[fallback, -1]
        ratio = np.divide(pl0, pl_row, out=np.full_like(pl_row, np.inf), where=pl_row > 0.0)
        alpha = np.minimum(1.0, ratio.min(axis=1))
        cand *= alpha[:, None]
        cand[:, 0] += 1.0 - alpha
        s[fallback] = cand
    return SpecializationMatrix(frame, s)


# ---------------------------------------------------------------------------
# checks

def check_conditioning_least_committed(frame: Frame, samples: int = 500, seed=0) -> CheckReport:
    """Conditioning is the least committed update killing the complement's plausibility.

    For sampled matrices with the zero-plausibility support property and
    random masses, the conditioned state must dominate: its plausibility is
    pointwise largest, and the alternative's complement plausibility is zero.
    """
    fold = _Fold("conditioning-least-committed", frame.n)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        c = int(rng.integers(frame.size))
        s = sigma_star_specialization(frame, c, rng)
        m = random_mass(frame, rng)
        pl_alt = pl_from_mass(apply(m, s)).values
        pl_cond = pl_from_mass(condition(m, c)).values
        dev = max(float(pl_alt[frame.full ^ c]), float((pl_alt - pl_cond).max()))
        fold.add(dev > TOL, (dev,), m=m.values, C=c, S=s.values, deviation=dev)
    return fold.report()


def check_conditioning_idempotent(frame: Frame, samples: int | None = None, seed=0) -> CheckReport:
    """All conditioning matrices are idempotent, and products compose by intersection.

    Exhaustive over every conditioning set (and every pair); the matrices
    are 0/1 so both identities must hold exactly.
    """
    fold = _Fold("conditioning-idempotent", frame.n)
    matrices = [conditioning_matrix(frame, c) for c in range(frame.size)]
    for c, s in enumerate(matrices):
        dev = float(np.abs(s.values @ s.values - s.values).max())
        fold.add(dev > 0.0, (dev,), C=c, deviation=dev)
    for c1, s1 in enumerate(matrices):
        for c2, s2 in enumerate(matrices):
            dev = float(np.abs(s1.values @ s2.values - matrices[c1 & c2].values).max())
            fold.add(dev > 0.0, (dev,), C1=c1, C2=c2, deviation=dev)
    return fold.report()


def check_commuting_implies_dempsterian(frame: Frame, samples: int = 100, seed=0) -> CheckReport:
    """Commuting with every conditioning matrix characterizes the Dempsterian family.

    Forward direction: sampled Dempsterian matrices commute with all
    conditioning matrices.  Contrapositive (frames of 2 or 3 elements):
    for sampled valid non-Dempsterian matrices, some conditioning matrix
    must witness non-commutation.
    """
    fold = _Fold("commuting-implies-dempsterian", frame.n)
    rng = np.random.default_rng(seed)
    conditioners = [conditioning_matrix(frame, c) for c in range(frame.size)]
    for _ in range(samples):
        s = dempsterian_matrix(random_mass(frame, rng))
        dev = max(commute_check(s, sc)[1] for sc in conditioners)
        fold.add(dev > TOL, (dev,), S=s.values, deviation=dev)
    if 2 <= frame.n <= 3:
        # violations only: a non-Dempsterian matrix far from commuting is a pass
        for _ in range(samples):
            s = random_specialization(frame, rng)
            tries = 0
            while is_dempsterian(s) and tries < 100:
                s = random_specialization(frame, rng)
                tries += 1
            best = max(commute_check(s, sc)[1] for sc in conditioners)
            fold.add(best <= TOL, S=s.values, best_witness_deviation=best)
    return fold.report()


def check_dempsterian_commutation(frame: Frame, samples: int = 200, seed=0) -> CheckReport:
    """Dempsterian matrices commute, and their product is the combination's matrix."""
    fold = _Fold("dempsterian-commutation", frame.n)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        m1 = random_mass(frame, rng)
        m2 = random_mass(frame, rng)
        s1 = dempsterian_matrix(m1)
        s2 = dempsterian_matrix(m2)
        s12 = dempsterian_matrix(combine_conjunctive(m1, m2))
        product = s1.values @ s2.values
        dev = max(
            float(np.abs(product - s2.values @ s1.values).max()),
            float(np.abs(product - s12.values).max()),
        )
        fold.add(dev > TOL, (dev,), m1=m1.values, m2=m2.values, deviation=dev)
    return fold.report()


def check_combination_least_committed(frame: Frame, samples: int = 300, seed=0) -> CheckReport:
    """The Dempsterian matrix is the least committed row-dominated update.

    For sampled anchors m0, matrices S whose rows are dominated by m0, and
    random m: applying m0's own matrix equals conjunctive combination, and
    its plausibility dominates every alternative ``m . S`` pointwise.
    """
    fold = _Fold("combination-least-committed", frame.n)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        m0 = random_mass(frame, rng)
        s = dominated_specialization(frame, m0, rng)
        m = random_mass(frame, rng)
        best = apply(m, dempsterian_matrix(m0))
        eq_dev = float(np.abs(best.values - combine_conjunctive(m, m0).values).max())
        dom_dev = float((pl_from_mass(apply(m, s)).values - pl_from_mass(best).values).max())
        fold.add(
            eq_dev > TOL_EXACT or dom_dev > TOL, (eq_dev, dom_dev), m0=m0.values, m=m.values,
            S=s.values, equality_deviation=eq_dev, domination_deviation=dom_dev,
        )
    return fold.report()


def check_eigen_structure(frame: Frame, samples: int = 200, seed=0, inject_fault: bool = False) -> CheckReport:
    """Dempsterian matrices diagonalize over the subset-incidence basis.

    The diagonal (and eigenvalue) vector is the commonality function of the
    generating mass, and the rows of the inverse incidence matrix are left
    eigenvectors.  ``inject_fault`` perturbs one entry of the first sampled
    matrix; it exists so the fault path of the reporting machinery can be
    exercised end to end.
    """
    fold = _Fold("eigenstructure", frame.n)
    rng = np.random.default_rng(seed)
    t = incidence_matrix(frame)
    t_inv = incidence_inverse(frame)
    for k in range(samples):
        m = random_mass(frame, rng)
        values = dempsterian_matrix(m).values
        if inject_fault and k == 0:
            values = values.copy()
            values[-1, 0] += 1e-3
        q = q_from_mass(m).values
        diag_dev = float(np.abs(np.diag(values) - q).max())
        recon_dev = float(np.abs(values - (t * q[None, :]) @ t_inv).max())
        row_dev = float(np.abs(t_inv @ values - q[:, None] * t_inv).max())
        fold.add(
            diag_dev > TOL_EXACT or recon_dev > TOL or row_dev > TOL,
            (diag_dev, recon_dev, row_dev), m=m.values, diagonal_deviation=diag_dev,
            reconstruction_deviation=recon_dev, eigenrow_deviation=row_dev,
        )
    return fold.report()


def _double_sum(m0: np.ndarray, m1: np.ndarray, op) -> np.ndarray:
    """Quadratic double sum: ``m0[x] * m1[y]`` lands on ``op(x, y)``, no transform involved."""
    idx = np.arange(m0.size)
    out = np.zeros_like(m0)
    np.add.at(out, op(idx[:, None], idx), np.multiply.outer(m0, m1))
    return out


def check_dynamics_invariants(frame: Frame, samples: int = 300, seed=0) -> CheckReport:
    """Cross-route agreement of the dynamics rules on random instances.

    Covers: conditioning by transfer / matrix / closed belief form, zero
    plausibility outside the conditioning set, conjunctive combination
    against the quadratic double sum plus commutativity, associativity and
    vacuous neutrality, conditioning composition, expansion order
    independence, retraction round trips, the disjunctive rule against its
    double sum and implicability product, and enlargement indiscernibility.
    """
    fold = _Fold("dynamics-invariants", frame.n)
    rng = np.random.default_rng(seed)
    vac = vacuous(frame)
    for _ in range(samples):
        m0 = random_mass(frame, rng)
        m1 = random_mass(frame, rng)
        m2 = random_mass(frame, rng)
        c = int(rng.integers(frame.size))
        c2 = int(rng.integers(frame.size))
        devs: dict[str, float] = {}

        # conditioning: transfer vs matrix vs closed belief form, and pl outside C
        cond = condition(m0, c)
        s_c = conditioning_matrix(frame, c)
        devs["cond-matrix"] = float(np.abs(cond.values - apply(m0, s_c).values).max())
        bel0 = bel_from_mass(m0).values
        comp = frame.full ^ c
        closed = bel0[np.arange(frame.size) | comp] - bel0[comp]
        devs["cond-bel-form"] = float(np.abs(bel_from_mass(cond).values - closed).max())
        devs["cond-pl-outside"] = float(pl_from_mass(cond).values[comp]) if comp else 0.0

        # conjunctive rule: fast path vs double sum, q-product, algebra
        m01 = combine_conjunctive(m0, m1)
        devs["conj-double-sum"] = float(
            np.abs(m01.values - _double_sum(m0.values, m1.values, np.bitwise_and)).max()
        )
        devs["conj-q-product"] = float(
            np.abs(q_from_mass(m01).values - q_from_mass(m0).values * q_from_mass(m1).values).max()
        )
        devs["conj-commutative"] = float(
            np.abs(m01.values - combine_conjunctive(m1, m0).values).max()
        )
        devs["conj-associative"] = float(
            np.abs(
                combine_conjunctive(m01, m2).values
                - combine_conjunctive(m0, combine_conjunctive(m1, m2)).values
            ).max()
        )
        devs["conj-vacuous-neutral"] = float(
            np.abs(combine_conjunctive(m0, vac).values - m0.values).max()
        )

        # conditioning composes by intersection; expansions commute
        devs["cond-compose"] = float(
            np.abs(condition(cond, c2).values - condition(m0, c & c2).values).max()
        )
        s_m1 = dempsterian_matrix(m1)
        devs["expansion-order"] = float(
            np.abs(apply(apply(m0, s_m1), s_c).values - apply(apply(m0, s_c), s_m1).values).max()
        )

        # retraction round trip (evidence kept invertible by vacuous mixing)
        safe = MassFunction(frame, 0.9 * m1.values + 0.1 * vac.values)
        devs["retract-round-trip"] = float(
            np.abs(retract(combine_conjunctive(m0, safe), safe).values - m0.values).max()
        )

        # disjunctive rule: fast path vs double sum, b-product, matrix path
        m_or = combine_disjunctive(m0, m1)
        devs["disj-double-sum"] = float(
            np.abs(m_or.values - _double_sum(m0.values, m1.values, np.bitwise_or)).max()
        )
        devs["disj-b-product"] = float(
            np.abs(
                lattice.zeta_subsets(m_or.values)
                - lattice.zeta_subsets(m0.values) * lattice.zeta_subsets(m1.values)
            ).max()
        )
        devs["disj-matrix"] = float(
            np.abs(apply_generalization(m0, disjunctive_matrix(m1)).values - m_or.values).max()
        )

        # enlargement: conditioning is invariant under choices inside the set
        a = int(rng.integers(frame.size))
        x = int(rng.integers(frame.size)) & (frame.full ^ a)
        y = int(rng.integers(frame.size)) & a
        enlarged = enlarge(m0, a)
        devs["enlarge-invariance"] = float(
            np.abs(
                condition(enlarged, x | y).values
                - enlarge(condition(enlarged, x), y).values
            ).max()
        )

        tolerances = {k: TOL_RETRACT if k == "retract-round-trip" else TOL for k in devs}
        failed = [k for k, v in devs.items() if v > tolerances[k]]
        fold.add(
            bool(failed), devs.values(), m0=m0.values, m1=m1.values, m2=m2.values,
            C=c, C2=c2, A=a, X=x, Y=y, failed={k: devs[k] for k in failed},
        )
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


def run_all(
    sizes=(1, 2, 3, 4),
    samples: int | None = None,
    seed: int = 0,
    checks=None,
    inject_fault: bool = False,
) -> list[CheckReport]:
    """Run the selected checks at every frame size; deterministic per seed.

    Checks are skipped at sizes above their cap (exhaustive enumeration and
    witness searches do not scale past desk-size frames); a selection that
    runs no check at all is an input error.  ``samples`` overrides every
    check's own default sample count.
    """
    if samples is not None and samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
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
