"""Naive reference implementations used as independent test oracles.

Everything here is deliberately quadratic (or worse) enumeration straight
from the defining formulas, kept free of the library's fast transforms so
the two routes stay independent.  Two exceptions reuse library routes on
purpose: :func:`reference_dominated` pins a sampler's draws through its own
cores, one anchor at a time, and :func:`compare_bel_form` holds
``compare``'s one transform of a difference against one transform per state.
"""

import json

import numpy as np

from beliefdyn.commitment import _classify
from beliefdyn.lattice import DEFAULT_TOL, _transfer, require_same_frame, zeta_subsets


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def naive_zeta_subsets(f):
    f = np.asarray(f, dtype=float)
    return np.array([sum(f[b] for b in range(f.size) if is_subset(b, a)) for a in range(f.size)])


def naive_zeta_supersets(f):
    f = np.asarray(f, dtype=float)
    return np.array([sum(f[b] for b in range(f.size) if is_subset(a, b)) for a in range(f.size)])


def plain_butterfly(f, upward, subtract):
    """Subset (``upward``) or superset sums along the last axis, one pass per bit.

    With ``subtract`` the passes subtract, which inverts the sums.  Each pass
    gathers and scatters through index arrays, so it shares no code with the
    library's kernel; it is O(n 2**n) and serves the frames too large for
    the quadratic oracles.
    """
    out = np.array(f, dtype=float)
    size = out.shape[-1]
    idx = np.arange(size)
    bit = 1
    while bit < size:
        high = idx[idx & bit != 0]
        src, dst = (high ^ bit, high) if upward else (high, high ^ bit)
        if subtract:
            out[..., dst] -= out[..., src]
        else:
            out[..., dst] += out[..., src]
        bit <<= 1
    return out


def naive_mobius_subsets(g):
    g = np.asarray(g, dtype=float)
    return np.array(
        [
            sum(
                (-1) ** (a.bit_count() - b.bit_count()) * g[b]
                for b in range(g.size)
                if is_subset(b, a)
            )
            for a in range(g.size)
        ]
    )


def naive_incidence_inverse(size):
    """``(-1)**|A - B|`` at (A, B) for B inside A, else 0."""
    return np.array(
        [
            [(-1.0) ** (a & ~b).bit_count() if is_subset(b, a) else 0.0 for b in range(size)]
            for a in range(size)
        ]
    )


def dense_eigen_product(w):
    """``T diag(w) T^-1`` by dense products; ``T`` is 1 at (A, B) iff B is inside A."""
    w = np.asarray(w, dtype=float)
    t = np.array([[float(is_subset(b, a)) for b in range(w.size)] for a in range(w.size)])
    return (t * w[None, :]) @ naive_incidence_inverse(w.size)


def dense_fold_rows(values, op):
    """Matrices whose row ``A`` moves each mass of ``values`` from ``X`` to ``op(A, X)``, by dense folds.

    The library's builder as it was before it computed only the support
    entries: the seed row is ``values + 0.0`` (row full for ``np.bitwise_and``,
    row empty for ``np.bitwise_or``), and ``n`` folds in place fill every
    other row with all ``N`` entries, off-support ones as ``0.0 + 0.0``.  Kept
    so the tests can hold the support plan to these bits.
    """
    size = values.shape[-1]
    out = np.zeros((*values.shape[:-1], size, size))
    down = op is np.bitwise_and
    np.add(values, 0.0, out=out[..., -1 if down else 0, :])
    b = 1
    with np.errstate(invalid="ignore"):  # inf + -inf gives NaN
        while b < size:
            source, first, keep = (size - b, size - 2 * b, 0) if down else (0, b, 1)
            shape = (*out.shape[:-2], b, size // (2 * b), 2, b)
            src = out[..., source : source + b, :].reshape(shape)
            dst = out[..., first : first + b, :].reshape(shape)
            np.add(src[..., 0, :], src[..., 1, :], out=dst[..., keep, :])
            b *= 2
    return out


def gathered_valid(v, tol, upward=False):
    """Specialization (``upward``: generalization) invariants per matrix of a ``(k, N, N)`` stack.

    Entries in ``[-tol, 1 + tol]``, row sums within ``tol`` of one, and the
    off-support entries gathered into one copy whose largest magnitude is at
    most ``tol``: the two-sided test, as the library made it before its
    one-sided, gather-free form.
    """
    v = np.asarray(v, dtype=float)
    size = v.shape[-1]
    outside = np.array([[not is_subset(b, a) for b in range(size)] for a in range(size)])
    ok = (v.min(axis=(-2, -1)) >= -tol) & (v.max(axis=(-2, -1)) <= 1.0 + tol)
    ok &= np.abs(v.sum(axis=-1) - 1.0).max(axis=-1) <= tol
    off = v[np.broadcast_to(outside.T if upward else outside, v.shape)]
    return ok & (np.abs(off).reshape(v.shape[0], -1).max(axis=-1, initial=0.0) <= tol)


def gathered_is_dempsterian(v, tol):
    """:func:`gathered_valid`, and every row within ``tol`` of the top row conditioned on its subset.

    The conditioned rows come from one ``np.add.at`` scatter of the top row
    to ``X & A`` in increasing ``X`` order, so they are the library's fold
    bit for bit wherever every partial sum is exact (dyadic masses).
    """
    v = np.asarray(v, dtype=float)
    k, size = v.shape[0], v.shape[-1]
    idx = np.arange(size)
    rows = np.zeros_like(v)
    with np.errstate(invalid="ignore"):  # inf + -inf and inf - inf give NaN, which fails
        for i in range(k):
            np.add.at(rows[i], (idx[:, None], idx[:, None] & idx[None, :]), v[i, -1][None, :])
        gap = np.abs(v - rows).max(axis=(-2, -1))
    return gathered_valid(v, tol) & (gap <= tol)


def reference_dominated(t, m0, rng):
    """Row-dominated specializations built as the sampler builds them, one anchor at a time.

    The same uniforms in the same order (every anchor's specialization, then
    every anchor's candidate rows) and the same cores: the conditioning
    scatter, the matrix product and the subset transform.  Each candidate row
    goes in at the largest weight in [0, 1] under which the row's
    implicability stays at least the anchor's on every set not holding the
    row's own set, found here set by set.
    """
    size = len(t)
    idx = np.arange(size)

    def draw():
        w = (t != 0) * (1.0 - rng.random((len(m0), size, size)))
        return w / w.sum(axis=-1, keepdims=True)

    spec, cand = draw(), draw()
    out = np.empty((len(m0), size, size))
    for i, anchor in enumerate(m0):
        rows = _transfer(anchor, np.bitwise_and, idx) @ spec[i]
        b0 = zeta_subsets(anchor)
        slack = np.maximum(zeta_subsets(rows) - b0, 0.0)
        gap = zeta_subsets(cand[i]) - b0
        alpha = np.ones((size, 1))
        for a, y in zip(*np.nonzero((gap < 0.0) & ((idx[:, None] & idx) != idx[:, None]))):
            alpha[a] = min(alpha[a, 0], slack[a, y] / (slack[a, y] - gap[a, y]))
        out[i] = rows + alpha * (cand[i] - rows)
    return out


def naive_bel(masses):
    masses = np.asarray(masses, dtype=float)
    return np.array(
        [
            sum(masses[x] for x in range(1, masses.size) if is_subset(x, a))
            for a in range(masses.size)
        ]
    )


def naive_pl(masses):
    masses = np.asarray(masses, dtype=float)
    return np.array(
        [sum(masses[x] for x in range(masses.size) if x & a) for a in range(masses.size)]
    )


def naive_q(masses):
    return naive_zeta_supersets(masses)


def naive_b(masses):
    return naive_zeta_subsets(masses)


def naive_conjunctive(m0, m1):
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    out = np.zeros_like(m0)
    for x in range(m0.size):
        for y in range(m1.size):
            out[x & y] += m0[x] * m1[y]
    return out


def naive_disjunctive(m0, m1):
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    out = np.zeros_like(m0)
    for x in range(m0.size):
        for y in range(m1.size):
            out[x | y] += m0[x] * m1[y]
    return out


def naive_condition(masses, c, full):
    """Sum over the complement's subsets, the empty remainder included."""
    masses = np.asarray(masses, dtype=float)
    comp = full ^ c
    out = np.zeros_like(masses)
    for b in range(masses.size):
        if not is_subset(b, c):
            continue
        for y in range(masses.size):
            if is_subset(y, comp):
                out[b] += masses[b | y]
    return out


def reference_document(labels, values, kind=None, rounded=True):
    """Document text built as a dict and dumped by ``json.dumps(indent=2)``.

    Applies the writer's zero rule (values below 1e-12 become 0 when their
    magnitudes add up to at most 1e-10) and 12-significant-digit rounding
    one entry at a time.  ``rounded=False`` writes the writer's unrounded
    fallback at the edge of the reader's checks instead: every value as
    it is, which ``json`` writes as its ``repr``; whether the fallback
    applies is not modelled.  ``kind=None`` writes a mass document, which
    lists only the nonzero entries; otherwise a dense value document of
    that kind.
    """
    tiny_total = sum(abs(x) for x in values if abs(x) < 1e-12)
    entries = {}
    for subset, x in enumerate(values):
        x = float(x)
        if rounded:
            if abs(x) < 1e-12 and tiny_total <= 1e-10:
                x = 0.0
            x = float(f"{x:.12g}")
        if kind is None and x == 0.0:
            continue
        key = "|".join(label for i, label in enumerate(labels) if subset >> i & 1)
        entries[key] = x
    if kind is None:
        doc = {"frame": list(labels), "masses": entries}
    else:
        doc = {"frame": list(labels), "kind": kind, "values": entries}
    return json.dumps(doc, indent=2) + "\n"


def reference_values(text):
    """The vector of the map a document lists, read whole by ``json.loads`` and key by key."""
    doc = json.loads(text)
    bit = {label: 1 << i for i, label in enumerate(doc["frame"])}
    values = np.zeros(1 << len(bit))
    for key, x in doc["masses" if "masses" in doc else "values"].items():
        values[sum(bit[label] for label in key.split("|")) if key else 0] = x
    return values


def compare_bel_form(m1, m2, tol=DEFAULT_TOL):
    """``commitment.compare``'s ordering from ``b = bel + m(empty)``, larger-is-more-committed."""
    require_same_frame(m1, m2)
    b1 = zeta_subsets(m1.values)
    b2 = zeta_subsets(m2.values)
    # b1 >= b2 everywhere  <=>  pl1 <= pl2 everywhere (total mass is one)
    return _classify(b2 - b1, tol)
