"""The stacked evaluation of the checks speaks for the public API.

Each rule's private array core must give, on every row of a stack, the bits
the public function gives on that row alone (for a combination, when the
row and its stack take the same route); and a fault planted in a core
must fail its check with a witness that replays through the public
functions on its own.
"""

import json

import numpy as np
import pytest

from beliefdyn import belief, cli, dynamics, lattice, specialization, verify
from beliefdyn.belief import MassFunction, bel_from_mass, pl_from_bel, pl_from_mass, q_from_mass
from beliefdyn.dynamics import (
    combine_conjunctive,
    combine_disjunctive,
    condition,
    enlarge,
    retract,
)
from beliefdyn.errors import EvidenceNotContainedError, InvalidSpecializationError, NotABeliefFunctionError
from beliefdyn.lattice import default_frame, zeta_supersets
from beliefdyn.specialization import (
    GeneralizationMatrix,
    SpecializationMatrix,
    apply,
    apply_generalization,
    conditioning_matrix,
    dempsterian_matrix,
    disjunctive_matrix,
    enlargement_matrix,
    is_dempsterian,
    is_valid_generalization,
    is_valid_specialization,
)

SIZES = [1, 2, 3, 4, 5, 6]
K = 9


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def stack(n: int, seed: int):
    """``K`` sampled bbas on a frame of ``n`` elements, as rows and as MassFunctions."""
    frame = default_frame(n)
    rows = verify._random_masses(frame.size, K, np.random.default_rng(seed))
    return frame, rows, [MassFunction(frame, r) for r in rows]


@pytest.mark.parametrize("n", SIZES)
class TestCoresEqualPublicRowByRow:
    def test_condition_and_enlarge(self, n):
        frame, a, ms = stack(n, 1)
        subsets = np.random.default_rng(2).integers(frame.size, size=K)
        cond, enl = dynamics._condition(a, subsets), dynamics._enlarge(a, subsets)
        for i, m in enumerate(ms):
            assert same_bits(cond[i], condition(m, int(subsets[i])).values)
            assert same_bits(enl[i], enlarge(m, int(subsets[i])).values)

    def test_combinations(self, n):
        frame, a, ms0 = stack(n, 3)
        _, b, ms1 = stack(n, 4)
        conj, disj = dynamics._conjunctive(a, b), dynamics._disjunctive(a, b)
        for i in range(K):
            # a row sparse enough for the double sum alone can differ from its stack in the last bit
            assert dynamics._focal_pairs(a[i], b[i]) is None
            assert same_bits(conj[i], combine_conjunctive(ms0[i], ms1[i]).values)
            assert same_bits(disj[i], combine_disjunctive(ms0[i], ms1[i]).values)

    def test_retract(self, n):
        frame, a, ms = stack(n, 5)
        _, e, _ = stack(n, 6)
        e = 0.9 * e + 0.1 * np.eye(frame.size)[-1]
        combined = dynamics._conjunctive(a, e)
        rest = np.clip(dynamics._retract(combined, zeta_supersets(e)), 0.0, None)
        for i in range(K):
            evidence = MassFunction(frame, e[i])
            assert same_bits(rest[i], retract(MassFunction(frame, combined[i]), evidence).values)

    def test_belief_and_plausibility(self, n):
        frame, a, ms = stack(n, 7)
        bel, pl = belief._bel(a), belief._pl(a)
        for i, m in enumerate(ms):
            assert same_bits(bel[i], bel_from_mass(m).values)
            assert same_bits(pl[i], pl_from_mass(m).values)
            assert same_bits(pl[i], pl_from_bel(bel_from_mass(m)).values)

    def test_matrix_builders(self, n):
        frame, a, ms = stack(n, 8)
        dempsterian = specialization._transfer_rows(a, np.bitwise_and)
        disjunctive = specialization._transfer_rows(a, np.bitwise_or)
        for i, m in enumerate(ms):
            assert same_bits(dempsterian[i], dempsterian_matrix(m).values)
            assert same_bits(disjunctive[i], disjunctive_matrix(m).values)
        # rows of the identity are the categorical masses of the two one-hot builders
        conditioning = specialization._transfer_rows(np.eye(frame.size), np.bitwise_and)
        enlargement = specialization._transfer_rows(np.eye(frame.size), np.bitwise_or)
        for c in range(frame.size):
            assert same_bits(conditioning[c], conditioning_matrix(frame, c).values)
            assert same_bits(enlargement[c], enlargement_matrix(frame, c).values)

    def test_apply(self, n):
        frame, a, ms = stack(n, 9)
        _, b, _ = stack(n, 10)
        s = specialization._transfer_rows(b, np.bitwise_and)
        g = specialization._transfer_rows(b, np.bitwise_or)
        spec, gen = specialization._apply(a, s), specialization._apply(a, g)
        for i, m in enumerate(ms):
            assert same_bits(spec[i], apply(m, SpecializationMatrix(frame, s[i])).values)
            assert same_bits(gen[i], apply_generalization(m, GeneralizationMatrix(frame, g[i])).values)

    def test_validity_and_dempsterian_tests(self, n):
        frame, a, _ = stack(n, 11)
        v = specialization._transfer_rows(a, np.bitwise_and)
        # valid but not Dempsterian, off the support, not stochastic, NaN
        v[1, -1] = 0.5 * v[1, -1] + 0.5 * np.eye(frame.size)[0]
        v[2, 0, -1] = 1e-3
        v[3, -1, -1] += 1e-3
        v[4, -1, -1] = np.nan
        valid, dempsterian = specialization._valid(v), specialization._is_dempsterian(v)
        gen = specialization._transfer_rows(a, np.bitwise_or)
        gen[5, 0, 0] -= 1e-3
        valid_gen = specialization._valid(gen, upward=True)
        for i in range(K):
            assert valid[i] == is_valid_specialization(SpecializationMatrix(frame, v[i]))
            assert dempsterian[i] == is_dempsterian(SpecializationMatrix(frame, v[i]))
            assert valid_gen[i] == is_valid_generalization(GeneralizationMatrix(frame, gen[i]))
        assert not valid[3] and not valid[4] and not valid_gen[5]
        assert valid[0] and dempsterian[0] and valid[1] and not valid[2]

    def test_double_sum_is_the_loop_order_scatter(self, n):
        _, a, _ = stack(n, 12)
        _, b, _ = stack(n, 13)
        idx = np.arange(a.shape[1])
        for op in (np.bitwise_and, np.bitwise_or):
            out = lattice._double_sum(a, idx, b, idx, op)
            focal = lattice._double_sum(a, lattice._focal(a), b, lattice._focal(b), op)
            for i in range(K):
                ref = np.zeros(a.shape[1])
                np.add.at(ref, op(idx[:, None], idx), np.multiply.outer(a[i], b[i]))
                assert same_bits(out[i], ref) and same_bits(focal[i], ref)


def sparse_stack(n: int, focal: int, seed: int):
    """``K`` bbas drawn over one set of ``focal`` subsets, some rows missing some of them."""
    frame = default_frame(n)
    rng = np.random.default_rng(seed)
    rows = np.zeros((K, frame.size))
    sets = rng.choice(frame.size, focal, replace=False)
    rows[:, sets] = rng.random((K, focal)) * (rng.random((K, focal)) < 0.7)
    rows[:, sets[0]] += 0.1
    return frame, rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n, focal", [(4, 2), (6, 4), (10, 20), (14, 100)])
def test_sparse_stack_on_the_double_sum_is_its_rows(n, focal):
    frame, a = sparse_stack(n, focal, 15)
    _, b = sparse_stack(n, focal, 16)
    assert dynamics._focal_pairs(a, b) is not None
    conj, disj = dynamics._conjunctive(a, b), dynamics._disjunctive(a, b)
    for i in range(K):
        m0, m1 = MassFunction(frame, a[i]), MassFunction(frame, b[i])
        assert same_bits(conj[i], combine_conjunctive(m0, m1).values)
        assert same_bits(disj[i], combine_disjunctive(m0, m1).values)


def test_sampled_masses_pass_the_mass_function_rules():
    for n in SIZES:
        _, rows, ms = stack(n, 14)
        assert all(same_bits(r, m.values) for r, m in zip(rows, ms))
    with pytest.raises(NotABeliefFunctionError, match="sum"):
        belief._check_masses(np.array([[0.5, 0.5], [0.5, np.nan]]))
    with pytest.raises(NotABeliefFunctionError, match="negative mass .* at subset 1"):
        belief._check_masses(np.array([[0.5, 0.5], [1.5, -0.5]]))


# ---------------------------------------------------------------------------
# planted faults: each fails its check, and the first witness replays alone

def patch(monkeypatch, name, module, fault):
    """Plant ``fault`` for the core ``name`` wherever it is bound."""
    for owner in (module, verify):
        if hasattr(owner, name):
            monkeypatch.setattr(owner, name, fault)


def failed_witness(report) -> dict:
    assert not report.passed and report.violations >= 1
    witness = json.loads(report.witness)
    assert witness["check"] == report.check and witness["n"] == report.n
    return witness


def leak_top_row(real):
    """A matrix builder whose mass-built matrices move 1e-3 of the top row from full to empty."""
    def fault(values, op):
        out = real(values, op)
        if not np.isin(values, (0.0, 1.0)).all():  # the conditioning matrices stay exact
            out[..., -1, -1] -= 1e-3
            out[..., -1, 0] += 1e-3
        return out
    return fault


def mix_vacuous(real):
    """A conjunctive rule that mixes 0.1 % of the vacuous mass into every result."""
    def fault(a, b):
        return 0.999 * real(a, b) + 0.001 * np.eye(a.shape[-1])[-1]
    return fault


F3 = default_frame(3)


def test_fault_in_condition_fails_conditioning_least_committed(monkeypatch):
    real = dynamics._condition
    patch(monkeypatch, "_condition", dynamics, lambda a, c: real(a, np.asarray(c) & ~1))
    w = failed_witness(verify.check_conditioning_least_committed(F3, samples=40, seed=1))
    m, s = MassFunction(F3, w["m"]), SpecializationMatrix(F3, w["S"])
    pl_alt = pl_from_mass(apply(m, s)).values
    dev = max(pl_alt[F3.full ^ w["C"]], (pl_alt - pl_from_mass(condition(m, w["C"])).values).max())
    assert dev > verify.TOL and dev == pytest.approx(w["deviation"], abs=1e-9)


def test_fault_in_builder_fails_conditioning_idempotent(monkeypatch):
    real = specialization._transfer_rows
    patch(monkeypatch, "_transfer_rows", specialization, lambda v, op: 0.999 * real(v, op))
    w = failed_witness(verify.check_conditioning_idempotent(F3))
    s = conditioning_matrix(F3, w["C"]).values
    assert np.abs(s @ s - s).max() == pytest.approx(w["deviation"]) and w["deviation"] > 0.0


def test_fault_in_builder_fails_commuting_implies_dempsterian(monkeypatch):
    patch(monkeypatch, "_transfer_rows", specialization, leak_top_row(specialization._transfer_rows))
    w = failed_witness(verify.check_commuting_implies_dempsterian(F3, samples=20, seed=2))
    s = SpecializationMatrix(F3, w["S"])
    conditioners = (conditioning_matrix(F3, c).values for c in range(F3.size))
    dev = max(np.abs(s.values @ c - c @ s.values).max() for c in conditioners)
    assert dev > verify.TOL and dev == pytest.approx(w["deviation"], abs=1e-9)


def scale_mass_built(real):
    """A matrix builder whose mass-built matrices are scaled by 0.999; the conditioning matrices stay exact."""
    def fault(values, op):
        out = real(values, op)
        return out if np.isin(values, (0.0, 1.0)).all() else 0.999 * out
    return fault


@pytest.mark.parametrize("fault", [
    lambda real: lambda v, op: np.swapaxes(real(v, op), -1, -2),  # S^T C^T - C^T S^T = (C S - S C)^T
    scale_mass_built,  # a scaled Dempsterian matrix commutes as the exact one does
])
@pytest.mark.parametrize("n", [2, 3])
def test_builder_fault_only_the_converse_catches(monkeypatch, n, fault):
    # both faults leave every forward commutator zero; the converse's identity fails on each sample
    patch(monkeypatch, "_transfer_rows", specialization, fault(specialization._transfer_rows))
    report = verify.check_commuting_implies_dempsterian(default_frame(n), samples=20, seed=n)
    w = failed_witness(report)
    assert (report.instances, report.violations) == (40, 20)
    assert w["converse_deviation"] > verify.TOL and "deviation" not in w


def test_builder_fault_breaking_validity_fails_the_check_cli_with_witnesses(monkeypatch, capsys):
    # built matrices are what the checks test: an invalid one is a violation, not an input error
    real = specialization._transfer_rows
    patch(monkeypatch, "_transfer_rows", specialization, lambda v, op: (1 + 1e-8) * real(v, op))
    assert cli.main(["check"]) == 1
    captured = capsys.readouterr()
    assert "    witness: {" in captured.out and captured.err == ""


def test_fault_in_conjunctive_fails_dempsterian_commutation(monkeypatch):
    patch(monkeypatch, "_conjunctive", dynamics, mix_vacuous(dynamics._conjunctive))
    w = failed_witness(verify.check_dempsterian_commutation(F3, samples=20, seed=3))
    m1, m2 = MassFunction(F3, w["m1"]), MassFunction(F3, w["m2"])
    product = dempsterian_matrix(m1).values @ dempsterian_matrix(m2).values
    dev = np.abs(product - dempsterian_matrix(combine_conjunctive(m1, m2)).values).max()
    assert dev > verify.TOL and dev == pytest.approx(w["deviation"], abs=1e-9)


def test_fault_in_conjunctive_fails_combination_least_committed(monkeypatch):
    patch(monkeypatch, "_conjunctive", dynamics, mix_vacuous(dynamics._conjunctive))
    w = failed_witness(verify.check_combination_least_committed(F3, samples=20, seed=4))
    m0, m = MassFunction(F3, w["m0"]), MassFunction(F3, w["m"])
    dev = np.abs(apply(m, dempsterian_matrix(m0)).values - combine_conjunctive(m, m0).values).max()
    assert dev > verify.TOL_EXACT and dev == pytest.approx(w["equality_deviation"], abs=1e-9)


def test_fault_in_builder_fails_eigenstructure(monkeypatch):
    patch(monkeypatch, "_transfer_rows", specialization, leak_top_row(specialization._transfer_rows))
    w = failed_witness(verify.check_eigen_structure(F3, samples=20, seed=5))
    m = MassFunction(F3, w["m"])
    dev = np.abs(np.diag(dempsterian_matrix(m).values) - q_from_mass(m).values).max()
    assert dev > verify.TOL_EXACT and dev == pytest.approx(w["diagonal_deviation"], abs=1e-9)


def test_fault_in_enlarge_fails_dynamics_invariants(monkeypatch):
    real = dynamics._enlarge
    patch(monkeypatch, "_enlarge", dynamics, lambda a, x: real(a, np.asarray(x) | 1))
    w = failed_witness(verify.check_dynamics_invariants(F3, samples=40, seed=6))
    assert set(w["failed"]) == {"enlarge-invariance"}
    enlarged = enlarge(MassFunction(F3, w["m0"]), w["A"])
    x, y = w["X"], w["Y"]
    dev = np.abs(condition(enlarged, x | y).values - enlarge(condition(enlarged, x), y).values).max()
    assert dev > verify.TOL and dev == pytest.approx(w["failed"]["enlarge-invariance"], abs=1e-9)


def test_fault_in_transfer_kernel_fails_dynamics_invariants(monkeypatch):
    # the matrix builder folds its own rows, so the conditioning matrix catches the faulty scatter too
    real = lattice._transfer
    monkeypatch.setattr(lattice, "_transfer", lambda a, op, c: real(
        a, op, np.asarray(c) & ~1 if op is np.bitwise_and else c))
    assert not verify.check_conditioning_least_committed(F3, samples=40, seed=8).passed
    w = failed_witness(verify.check_dynamics_invariants(F3, samples=40, seed=8))
    assert "cond-bel-form" in w["failed"] and "cond-matrix" in w["failed"]
    m0 = MassFunction(F3, w["m0"])
    comp = F3.full ^ w["C"]
    bel0 = bel_from_mass(m0).values
    closed = bel0[np.arange(F3.size) | comp] - bel0[comp]
    dev = np.abs(bel_from_mass(condition(m0, w["C"])).values - closed).max()
    assert dev > verify.TOL and dev == pytest.approx(w["failed"]["cond-bel-form"], abs=1e-9)


def test_fault_in_a_later_stack_is_witnessed_by_its_row(monkeypatch):
    # dynamics-invariants at n=6 folds 10 stacks of at most 32; a fault planted in row 5 of
    # the third stack only is instance 69, and its witness holds that row, not row 5 of the first
    calls, seen = [], {}

    def fault(a, b):
        out = dynamics._disjunctive(a, b)
        calls.append(len(a))
        if len(calls) == 3:
            seen.update(m0=a[5], m1=b[5])
            out[5] = 0.999 * out[5] + 0.001 * np.eye(a.shape[-1])[-1]
        return out

    monkeypatch.setattr(verify, "_disjunctive", fault)
    report = verify.check_dynamics_invariants(default_frame(6), seed=9)
    w = failed_witness(report)
    assert calls == [32] * 9 + [12]
    assert report.instances == 300 and report.violations == 1
    assert w["m0"] == verify._jsonable(seen["m0"]) and w["m1"] == verify._jsonable(seen["m1"])
    assert set(w["failed"]) == {"disj-double-sum", "disj-b-product", "disj-matrix"}
    m_or = combine_disjunctive(*(MassFunction(default_frame(6), seen[k]) for k in ("m0", "m1")))
    dev = 0.001 * np.abs(np.eye(64)[-1] - m_or.values).max()
    assert dev == pytest.approx(w["failed"]["disj-double-sum"], abs=1e-9)


def test_rejected_retraction_counts_as_a_violation(monkeypatch):
    # a retraction that public retract refuses is never clipped into a pass
    real = dynamics._retract
    patch(monkeypatch, "_retract", dynamics, lambda a, q: real(a, q) - np.eye(a.shape[-1])[1])
    report = verify.check_dynamics_invariants(F3, samples=30, seed=7)
    w = failed_witness(report)
    assert report.violations == 30 and report.worst_deviation == np.inf
    assert w["failed"] == {"retract-round-trip": np.inf}
    m0, m1 = MassFunction(F3, w["m0"]), MassFunction(F3, w["m1"])
    safe = MassFunction(F3, 0.9 * m1.values + 0.1 * np.eye(F3.size)[-1])
    with pytest.raises(EvidenceNotContainedError):
        retract(combine_conjunctive(m0, safe), safe)


def test_invalid_sampled_matrices_raise(monkeypatch):
    # sampled matrices are checked by the is_valid_specialization rules once per stack
    real = verify._random_rows
    monkeypatch.setattr(verify, "_random_rows", lambda support, rng: 1.5 * real(support, rng))
    frame = default_frame(2)
    for check in (verify.check_conditioning_least_committed, verify.check_commuting_implies_dempsterian,
                  verify.check_combination_least_committed):
        with pytest.raises(InvalidSpecializationError, match="specialization invariants"):
            check(frame, samples=3)


def test_invalid_sampled_public_matrices_raise(monkeypatch):
    # the public samplers draw through the checks' samplers, and so are checked where drawn
    real = verify._random_rows
    monkeypatch.setattr(verify, "_random_rows", lambda support, rng: 1.5 * real(support, rng))
    frame, rng = default_frame(2), np.random.default_rng(0)
    with pytest.raises(InvalidSpecializationError, match="specialization invariants"):
        verify.random_specialization(frame, rng)
    with pytest.raises(InvalidSpecializationError, match="specialization invariants"):
        verify.sigma_star_specialization(frame, 0b11, rng)
    with pytest.raises(InvalidSpecializationError, match="specialization invariants"):
        verify.dominated_specialization(frame, verify.random_mass(frame, rng), rng)


F2 = default_frame(2)


# one planted fault per check, and one that only the converse of commuting-implies-dempsterian
# catches, run at n=2, and the exact witness text of its first violation
WITNESS_TEXTS = {
    "conditioning-least-committed": (
        "_condition", lambda real: lambda a, c: real(a, np.asarray(c) & ~1),
        lambda: verify.check_conditioning_least_committed(F2, samples=10, seed=1),
        '{"C":1,"S":[[1.0,0.0,0.0,0.0],[0.797783842688,0.202216157312,0.0,0.0],[1.0,0.0,0.0,0.0],'
        '[0.428357545142,0.571642454858,0.0,0.0]],"check":"conditioning-least-committed",'
        '"deviation":0.276398849625,"m":[0.32996274687,0.28861748963,0.0,0.3814197635],"n":2}',
    ),
    "conditioning-idempotent": (
        "_transfer_rows", lambda real: lambda v, op: 0.999 * real(v, op),
        lambda: verify.check_conditioning_idempotent(F2),
        '{"C":0,"check":"conditioning-idempotent","deviation":0.000999,"n":2}',
    ),
    "commuting-implies-dempsterian": (
        "_transfer_rows", leak_top_row,
        lambda: verify.check_commuting_implies_dempsterian(F2, samples=5, seed=2),
        '{"S":[[1.0,0.0,0.0,0.0],[0.512806129979,0.487193870021,0.0,0.0],[1.0,0.0,0.0,0.0],'
        '[0.513806129979,0.487193870021,0.0,-0.001]],"check":"commuting-implies-dempsterian",'
        '"deviation":0.001,"n":2}',
    ),
    "commuting-implies-dempsterian-converse": (
        "_transfer_rows", scale_mass_built,
        lambda: verify.check_commuting_implies_dempsterian(F2, samples=5, seed=2),
        '{"S":[[1.0,0.0,0.0,0.0],[0.763347987571,0.236652012429,0.0,0.0],[0.862292025818,0.0,0.137707974182,0.0],'
        '[0.0952090394074,0.241078313129,0.326896352012,0.336816295451]],"check":"commuting-implies-dempsterian",'
        '"converse_deviation":0.001,"n":2}',
    ),
    "dempsterian-commutation": (
        "_conjunctive", mix_vacuous,
        lambda: verify.check_dempsterian_commutation(F2, samples=5, seed=3),
        '{"check":"dempsterian-commutation","deviation":0.001,"m1":[0.0,0.0,1.0,0.0],'
        '"m2":[0.470317536799,0.236859485066,0.0,0.292822978134],"n":2}',
    ),
    "combination-least-committed": (
        "_conjunctive", mix_vacuous,
        lambda: verify.check_combination_least_committed(F2, samples=5, seed=4),
        '{"S":[[1.0,0.0,0.0,0.0],[1.0,0.0,0.0,0.0],[0.738148148457,0.0,0.261851851543,0.0],'
        '[0.389950881087,0.0,0.610049118913,0.0]],"check":"combination-least-committed",'
        '"domination_deviation":0.0,"equality_deviation":0.001,"m":[0.622178729176,0.0,0.377821270824,0.0],'
        '"m0":[0.0,0.0,1.0,0.0],"n":2}',
    ),
    "eigenstructure": (
        "_transfer_rows", leak_top_row,
        lambda: verify.check_eigen_structure(F2, samples=5, seed=5),
        '{"check":"eigenstructure","diagonal_deviation":0.001,"eigenrow_deviation":0.001,'
        '"m":[0.22368957587,0.220319422788,0.555991001342,0.0],"n":2,"reconstruction_deviation":0.001}',
    ),
    "dynamics-invariants": (
        "_disjunctive", mix_vacuous,
        lambda: verify.check_dynamics_invariants(F2, samples=10, seed=6),
        '{"A":3,"C":2,"C2":3,"X":0,"Y":3,"check":"dynamics-invariants","failed":{'
        '"disj-b-product":0.001,"disj-double-sum":0.001,"disj-matrix":0.001},"m0":[1.0,0.0,0.0,0.0],"m1":[1.0,0.0,0.0,0.0],'
        '"m2":[0.690684661292,0.0,0.0,0.309315338708],"n":2}',
    ),
}


@pytest.mark.parametrize("case", WITNESS_TEXTS)
def test_planted_fault_witness_text(monkeypatch, case):
    # the verdict rule, the names of the deviations and the rounding of every witness field, pinned
    name, fault, run, text = WITNESS_TEXTS[case]
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, fault(real))
    report = run()
    failed_witness(report)
    assert report.witness == text
