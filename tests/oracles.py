"""Naive reference implementations used as independent test oracles.

Everything here is deliberately quadratic (or worse) enumeration straight
from the defining formulas, kept free of the library's fast transforms so
the two routes stay independent.  The one exception is
:func:`reference_dominated`, which pins a sampler's draws and so reuses the
library's plausibility route on purpose.
"""

import json

import numpy as np


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


def reference_dominated(t, pl0, rng, block, candidates, tol):
    """Row-dominated specializations drawn as the sampler draws them, with the fit tested by ``_pl``.

    The same uniforms in the same order, row blocks of ``block`` entries,
    ``candidates`` rounds and the same shrink toward the empty set; each
    candidate's plausibility comes from the library's butterfly ``_pl``, the
    route the checks test, where the sampler takes one product.
    """
    from beliefdyn.belief import _pl

    def draw(support):
        w = support * (1.0 - rng.random(support.shape))
        return w / w.sum(axis=-1, keepdims=True)

    size = len(t)
    out = np.empty((len(pl0) * size, size))
    step = max(1, block // size)
    for start in range(0, len(out), step):
        rows = np.arange(start, min(start + step, len(out)))
        for _ in range(candidates):
            cand = draw(t[rows % size])
            fits = (_pl(cand) <= pl0[rows // size] + tol).all(axis=1)
            out[rows[fits]] = cand[fits]
            rows = rows[~fits]
            if not rows.size:
                break
        if rows.size:
            cand = draw(t[rows % size])
            pl_row = _pl(cand)
            ratio = np.divide(pl0[rows // size], pl_row, out=np.full_like(pl_row, np.inf), where=pl_row > 0.0)
            alpha = np.minimum(1.0, ratio.min(axis=1))
            cand *= alpha[:, None]
            cand[:, 0] += 1.0 - alpha
            out[rows] = cand
    return out.reshape(len(pl0), size, size)


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


def reference_document(labels, values, kind=None):
    """Document text built as a dict and dumped by ``json.dumps(indent=2)``.

    Applies the writer's zero rule (values below 1e-12 become 0 when their
    magnitudes add up to at most 1e-10) and 12-significant-digit rounding
    one entry at a time; the writer's unrounded fallback at the edge of the
    reader's checks is not modelled.  ``kind=None`` writes a mass document,
    which lists only the nonzero entries; otherwise a dense value document
    of that kind.
    """
    tiny_total = sum(abs(x) for x in values if abs(x) < 1e-12)
    entries = {}
    for subset, x in enumerate(values):
        if abs(x) < 1e-12 and tiny_total <= 1e-10:
            x = 0.0
        x = float(f"{float(x):.12g}")
        if kind is None and x == 0.0:
            continue
        key = "|".join(label for i, label in enumerate(labels) if subset >> i & 1)
        entries[key] = x
    if kind is None:
        doc = {"frame": list(labels), "masses": entries}
    else:
        doc = {"frame": list(labels), "kind": kind, "values": entries}
    return json.dumps(doc, indent=2) + "\n"
