"""Output checks computed apart from the program.

Everything here works on plain numpy vectors indexed by subset bitmask and
on JSON text read with :mod:`json` and a label map of its own; nothing
calls into ``beliefdyn``.  The combination checks use the double sum over
focal-set pairs or, when an input is dense, the commonality (conjunctive)
or implicability (disjunctive) product at sampled subsets with each
factor found by direct enumeration.
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-9
TOL_ROUND_TRIP = 1e-8
# Documents carry 12 significant digits, so values re-derived from a
# written document agree to about 1e-12 per entry.
TOL_DOCUMENT = 1e-10


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def require_close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    dev = float(np.abs(got - want).max(initial=0.0))
    require(dev <= tol, f"{what}: deviation {dev:.3e} > {tol:.0e}")


def require_mass(values, what: str, tol: float = TOL) -> None:
    values = np.asarray(values, dtype=np.float64)
    require(float(values.min()) >= -tol, f"{what}: negative mass {values.min():.3e}")
    require(abs(float(values.sum()) - 1.0) <= tol, f"{what}: masses sum to {values.sum()!r}")


# ---------------------------------------------------------------------------
# direct enumeration on the subset lattice

def subsets_of_mask(mask: int) -> np.ndarray:
    """Every subset of ``mask`` as a bitmask array."""
    out = np.zeros(1, dtype=np.int64)
    bit = 1
    while bit <= mask:
        if mask & bit:
            out = np.concatenate([out, out | bit])
        bit <<= 1
    return out


def q_at(values: np.ndarray, subset: int) -> float:
    """Commonality: mass of every superset of ``subset``."""
    full = values.size - 1
    return float(values[subset | subsets_of_mask(full ^ subset)].sum())


def b_at(values: np.ndarray, subset: int) -> float:
    """Implicability: mass of every subset of ``subset``, empty set included."""
    return float(values[subsets_of_mask(subset)].sum())


def bel_at(values: np.ndarray, subset: int) -> float:
    """Belief: mass of every non-empty subset of ``subset``."""
    return b_at(values, subset) - float(values[0])


def pl_at(values: np.ndarray, subset: int) -> float:
    """Plausibility: mass of every set meeting ``subset``.

    A set misses ``subset`` exactly when it lies inside the complement, so
    those are enumerated and taken from the total.
    """
    if subset == 0:
        return 0.0
    full = values.size - 1
    return float(values.sum()) - b_at(values, full ^ subset)


def transfer(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Move the mass of each subset ``X`` to ``targets[X]``."""
    return np.bincount(targets, weights=values, minlength=values.size)


def double_sum(m0: np.ndarray, m1: np.ndarray, rule: str) -> np.ndarray:
    """``sum m0(X) m1(Y)`` moved to ``X & Y`` (conjunctive) or ``X | Y`` (disjunctive)."""
    x = np.flatnonzero(m0)
    y = np.flatnonzero(m1)
    op = np.bitwise_and if rule == "conjunctive" else np.bitwise_or
    targets = op(x[:, None], y[None, :]).ravel()
    weights = np.outer(m0[x], m1[y]).ravel()
    return np.bincount(targets, weights=weights, minlength=m0.size)


def is_sparse(values: np.ndarray) -> bool:
    return np.count_nonzero(values) * 16 <= values.size


def sample_subsets(n: int, count: int, rng: np.random.Generator) -> list[int]:
    """The empty set, the full frame, then in turn a set of one or two
    elements, the complement of one, and a uniformly drawn set.

    Small sets have many supersets and large sets many subsets, so the
    sampled commonality and implicability sums between them reach most of
    the lattice.
    """
    full = (1 << n) - 1
    out = [0, full]
    while len(out) < count:
        small = sum(1 << int(i) for i in rng.choice(n, 1 + int(rng.integers(2)), replace=False))
        out.append([small, full ^ small, int(rng.integers(full + 1))][len(out) % 3])
    return out


# ---------------------------------------------------------------------------
# checks on the outputs of the dynamics rules

def check_combination(rule: str, m0, m1, out, subsets, tol: float = TOL) -> None:
    what = f"combine {rule}"
    require_mass(out, what, tol)
    if is_sparse(m0) and is_sparse(m1):
        require_close(out, double_sum(m0, m1, rule), tol, f"{what} vs double sum")
        return
    factor = q_at if rule == "conjunctive" else b_at
    for s in subsets:
        want = factor(m0, s) * factor(m1, s)
        got = factor(out, s)
        require(abs(got - want) <= tol, f"{what}: product at {s} is {got!r}, want {want!r}")


def check_transfer(values, targets, out, what: str, tol: float = TOL) -> None:
    require_close(out, transfer(values, targets), tol, f"{what} vs direct transfer")


def check_condition(values, condition_set: int, out, tol: float = TOL) -> None:
    idx = np.arange(values.size)
    check_transfer(values, idx & condition_set, out, f"condition on {condition_set}", tol)


def check_enlarge(values, indiscernible: int, out, tol: float = TOL) -> None:
    idx = np.arange(values.size)
    check_transfer(values, idx | indiscernible, out, f"enlarge by {indiscernible}", tol)


def check_values(kind: str, masses, values, subsets, tol: float = TOL) -> None:
    direct = {"bel": bel_at, "pl": pl_at, "q": q_at, "b": b_at}[kind]
    for s in subsets:
        want = direct(masses, s)
        require(abs(values[s] - want) <= tol, f"{kind} at {s} is {values[s]!r}, want {want!r}")


def check_round_trip(got, want, what: str, tol: float = TOL_ROUND_TRIP) -> None:
    require_close(got, want, tol, f"{what} round trip")


# ---------------------------------------------------------------------------
# documents, read and written without the program

def labels_for(n: int) -> list[str]:
    return [f"s{i:02d}" for i in range(n)]


def key_of(labels: list[str], subset: int) -> str:
    return "|".join(lab for i, lab in enumerate(labels) if subset >> i & 1)


class LabelMap:
    """Subset keys of one frame, both ways; keys join labels in frame order."""

    def __init__(self, labels: list[str]):
        self.labels = labels
        self.bit = {lab: 1 << i for i, lab in enumerate(labels)}
        self.keys = [key_of(labels, s) for s in range(1 << len(labels))]
        self.subset = {key: s for s, key in enumerate(self.keys)}

    def parse_key(self, key: str) -> int:
        if key in self.subset:
            return self.subset[key]
        subset = 0
        for lab in key.split("|"):
            require(lab in self.bit, f"unknown label {lab!r} in key {key!r}")
            require(not subset & self.bit[lab], f"label {lab!r} repeated in key {key!r}")
            subset |= self.bit[lab]
        return subset


def write_mass_document(labels: LabelMap, values: np.ndarray) -> str:
    """A mass document listing every non-zero mass at full float precision."""
    keys = labels.keys
    masses = {keys[s]: float(values[s]) for s in np.flatnonzero(values).tolist()}
    return json.dumps({"frame": labels.labels, "masses": masses})


def read_document(text: str, labels: LabelMap) -> tuple[str, np.ndarray]:
    """(kind, dense vector) of a mass or value document on the given frame."""
    doc = json.loads(text)
    require(doc.get("frame") == labels.labels,
            f"document frame {doc.get('frame')!r} != {labels.labels!r}")
    if "masses" in doc:
        kind, mapping = "mass", doc["masses"]
    else:
        kind, mapping = doc.get("kind"), doc.get("values")
    require(isinstance(mapping, dict), "document carries no value map")
    require(all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in mapping.values()),
            "document holds a value that is not a number")
    subsets = [labels.parse_key(key) for key in mapping]
    require(len(set(subsets)) == len(subsets), "document lists a subset twice")
    out = np.zeros(1 << len(labels.labels))
    out[subsets] = list(mapping.values())
    return kind, out
