import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdyn.errors import FrameMismatchError, FrameTooLargeError
from beliefdyn.lattice import (
    FUSED_ORDER,
    Frame,
    _transfer,
    default_frame,
    mobius_subsets,
    mobius_supersets,
    order_of,
    zeta_subsets,
    zeta_supersets,
)
from oracles import (
    naive_mobius_subsets,
    naive_zeta_subsets,
    naive_zeta_supersets,
    plain_butterfly,
)

TRANSFORMS = [zeta_subsets, mobius_subsets, zeta_supersets, mobius_supersets]
# (upward, subtract) of each transform, as plain_butterfly takes them
ROUTES = {
    zeta_subsets: (True, False),
    mobius_subsets: (True, True),
    zeta_supersets: (False, False),
    mobius_supersets: (False, True),
}
# both sides of the product route's cutoff, a 4-bit group inside the cached blocks (14) and
# above them (19), the documents' size and the frame cap
FUSED_SIZES = [FUSED_ORDER - 1, FUSED_ORDER, FUSED_ORDER + 1, 14, 16, 19, 20]


class TestFrame:
    def test_basic_properties(self):
        f = Frame(("a", "b", "c"))
        assert f.n == 3
        assert f.size == 8
        assert f.full == 7

    def test_subset_encoding(self):
        f = Frame(("a", "b", "c"))
        assert f.subset(["a"]) == 1
        assert f.subset(["b", "c"]) == 6
        assert f.members(6) == ("b", "c")
        assert f.members(0) == ()

    def test_invalid_frames(self):
        with pytest.raises(ValueError):
            Frame(())
        with pytest.raises(ValueError):
            Frame(("a", "a"))
        with pytest.raises(ValueError):
            Frame(("a", ""))
        with pytest.raises(FrameTooLargeError):
            default_frame(21)
        with pytest.raises(FrameTooLargeError, match="^frame has 21 elements, cap is 20$"):
            Frame(tuple(f"e{i}" for i in range(21)))

    def test_unknown_label(self):
        with pytest.raises(FrameMismatchError):
            Frame(("a", "b")).subset(["z"])

    def test_subset_range_check(self):
        f = Frame(("a", "b"))
        with pytest.raises(FrameMismatchError):
            f.members(4)


class TestSubsetOps:
    def test_order_of(self):
        assert order_of(16) == 4
        with pytest.raises(ValueError):
            order_of(12)


class TestZetaTransforms:
    def test_unit_at_bottom(self):
        f = np.zeros(8)
        f[0] = 1.0
        assert np.array_equal(zeta_subsets(f), np.ones(8))
        g = zeta_supersets(f)
        assert g[0] == 1.0 and not g[1:].any()

    def test_unit_at_top(self):
        f = np.zeros(8)
        f[-1] = 1.0
        g = zeta_subsets(f)
        assert g[-1] == 1.0 and not g[:-1].any()
        assert np.array_equal(zeta_supersets(f), np.ones(8))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_naive_enumeration(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(20):
            f = rng.standard_normal(1 << n)
            np.testing.assert_allclose(zeta_subsets(f), naive_zeta_subsets(f), atol=1e-12)
            np.testing.assert_allclose(zeta_supersets(f), naive_zeta_supersets(f), atol=1e-12)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_naive_on_larger_frames(self, n):
        rng = np.random.default_rng(20 + n)
        f = rng.random(1 << n)
        np.testing.assert_allclose(zeta_subsets(f), naive_zeta_subsets(f), atol=1e-12)
        np.testing.assert_allclose(zeta_supersets(f), naive_zeta_supersets(f), atol=1e-12)

    def test_matches_incidence_product_on_1000_random_vectors(self):
        # second independent route: multiply by the dense 0/1 incidence matrix
        rng = np.random.default_rng(29)
        for i in range(1000):
            n = i % 8 + 1
            size = 1 << n
            idx = np.arange(size)
            contains = (idx[None, :] & ~idx[:, None]) == 0  # [A, B]: B subset of A
            f = rng.standard_normal(size)
            np.testing.assert_allclose(zeta_subsets(f), contains @ f, atol=1e-12)
            np.testing.assert_allclose(zeta_supersets(f), contains.T @ f, atol=1e-12)

    def test_mobius_matches_naive_signs(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(16)
        np.testing.assert_allclose(mobius_subsets(g), naive_mobius_subsets(g), atol=1e-12)

    def test_input_not_mutated(self):
        f = np.arange(8.0)
        zeta_subsets(f)
        assert np.array_equal(f, np.arange(8.0))

    @pytest.mark.parametrize("n", [1, FUSED_ORDER])
    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_rejects_complex_values(self, transform, n):
        f = np.zeros(1 << n, dtype=complex)
        f[0] = 0.5 + 3j
        with pytest.raises(ValueError, match="complex"):
            transform(f)

    def test_rejects_non_power_of_two(self):
        for bad in (np.zeros(6), np.zeros((3, 6)), np.zeros((2, 0)), 1.0):
            with pytest.raises(ValueError):
                zeta_subsets(bad)

    @pytest.mark.parametrize("n", [1, 2, 4, 7, *FUSED_SIZES])
    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_stack_matches_row_by_row(self, transform, n):
        rng = np.random.default_rng(40 + n)
        stack = rng.standard_normal((2, 3, 1 << n))
        before = stack.copy()
        out = transform(stack)
        assert out.shape == stack.shape
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], transform(stack[i, j]))
        assert np.array_equal(transform(stack[1, 2:]), out[1, 2:])
        assert np.array_equal(stack, before)


class TestFusedKernel:
    @pytest.mark.parametrize("n", FUSED_SIZES)
    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_layout_and_dtype_leave_the_result_unchanged(self, transform, n):
        rng = np.random.default_rng(70 + n)
        view = rng.standard_normal((1 << n, 3)).T
        assert view.flags.f_contiguous and not view.flags.c_contiguous
        assert np.array_equal(transform(view), transform(np.ascontiguousarray(view)))
        ints = rng.integers(-8, 8, size=(3, 1 << n))
        assert np.array_equal(transform(ints), transform(ints.astype(np.float64)))

    @pytest.mark.parametrize("n", FUSED_SIZES)
    def test_indicators_stay_exact(self, n):
        rng = np.random.default_rng(80 + n)
        family = (rng.random(1 << n) < 0.3).astype(np.float64)
        for zeta, mobius in ((zeta_subsets, mobius_subsets), (zeta_supersets, mobius_supersets)):
            counts = zeta(family)
            assert np.array_equal(counts, np.round(counts))
            assert np.array_equal(counts, plain_butterfly(family, *ROUTES[zeta]))
            assert np.array_equal(mobius(counts), family)

    @pytest.mark.parametrize("n", FUSED_SIZES)
    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_matches_plain_butterfly(self, transform, n):
        rng = np.random.default_rng(90 + n)
        f = rng.standard_normal((2, 1 << n))
        ref = plain_butterfly(f, *ROUTES[transform])
        assert np.abs(transform(f) - ref).max() <= 8 * 2**-52 * np.abs(ref).max()

    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_non_finite_rows_take_the_plain_passes(self, transform):
        f = np.ones((3, 1 << FUSED_ORDER))
        f[1, 5] = np.inf
        f[2, 7] = np.nan
        with np.errstate(invalid="ignore"):
            out = transform(f)
            ref = plain_butterfly(f, *ROUTES[transform])
        np.testing.assert_array_equal(out[1:], ref[1:])
        assert np.array_equal(out[0], transform(f[0]))

    @pytest.mark.parametrize("transform", [zeta_subsets, mobius_supersets])
    def test_peak_memory_is_the_result_and_one_block(self, transform):
        f = np.random.default_rng(5).random(1 << 20)
        transform(f)  # the cached matrices are built outside the trace
        tracemalloc.start()
        try:
            transform(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < f.nbytes + (1 << 19)

    def test_result_does_not_depend_on_blas_threads(self):
        # a 3-bit group inside the cached blocks, the 5-bit group above them, and a stack
        code = (
            "import hashlib, numpy as np\n"
            "from beliefdyn import lattice as L\n"
            "rng = np.random.default_rng(16)\n"
            "h = hashlib.sha256()\n"
            "for shape in ((4, 1 << 16), (3, 1 << 13), (1, 1 << 20)):\n"
            "    f = rng.standard_normal(shape)\n"
            "    for t in (L.zeta_subsets, L.mobius_subsets, L.zeta_supersets, L.mobius_supersets):\n"
            "        h.update(t(f).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]


def dense_scatter(row, targets):
    """Each entry of ``row`` added at its target in increasing index order, from +0.0."""
    out = np.zeros(row.size)
    np.add.at(out, targets, row)
    return out


class TestTransferKernel:
    @pytest.mark.parametrize("op", [np.bitwise_and, np.bitwise_or])
    def test_sparse_vector_at_the_frame_cap_is_the_dense_scatter(self, op):
        rng = np.random.default_rng(23)
        size = 1 << 20
        a = np.zeros(size)
        a[rng.choice(size, 40, replace=False)] = rng.random(40)
        c = int(rng.integers(size))
        out = _transfer(a, op, c)
        assert out.tobytes() == dense_scatter(a, op(np.arange(size), c)).tobytes()

    @pytest.mark.parametrize("op", [np.bitwise_and, np.bitwise_or])
    def test_signed_zeros_and_nan_in_a_stack_are_the_dense_scatter(self, op):
        rng = np.random.default_rng(24)
        a = rng.random((5, 32)) * (rng.random((5, 32)) < 0.3)
        a[:, 6] = -0.0  # a column that is zero in every row, skipped by the kernel
        a[1, 3] = a[2, 9] = -0.0
        a[3] = -0.0
        a[4, 17] = np.nan
        idx = np.arange(32)
        c = rng.integers(32, size=5)
        rows = _transfer(a, op, c)
        matrices = _transfer(a[:, None, :], op, idx)
        for i in range(5):
            assert rows[i].tobytes() == dense_scatter(a[i], op(idx, c[i])).tobytes()
            for s in range(32):
                assert matrices[i, s].tobytes() == dense_scatter(a[i], op(idx, s)).tobytes()
        assert np.isnan(rows[4]).sum() == 1 and not np.signbit(rows[3]).any()


class TestRoundTrips:
    def test_all_ones_inverts_to_bottom_indicator(self):
        m = mobius_subsets(np.ones(8))
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_round_trip_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = rng.standard_normal(64)
            np.testing.assert_allclose(mobius_subsets(zeta_subsets(f)), f, atol=1e-12)
            np.testing.assert_allclose(zeta_subsets(mobius_subsets(f)), f, atol=1e-12)
            np.testing.assert_allclose(mobius_supersets(zeta_supersets(f)), f, atol=1e-12)
            np.testing.assert_allclose(zeta_supersets(mobius_supersets(f)), f, atol=1e-12)

    def test_superset_round_trip_on_basis_vectors(self):
        for i in range(16):
            f = np.zeros(16)
            f[i] = 1.0
            np.testing.assert_allclose(mobius_supersets(zeta_supersets(f)), f, atol=1e-12)


@given(
    st.lists(st.floats(-10, 10), min_size=8, max_size=8),
    st.lists(st.floats(-10, 10), min_size=8, max_size=8),
    st.floats(-5, 5),
    st.floats(-5, 5),
)
@settings(max_examples=60, deadline=None)
def test_zeta_linearity(fs, gs, alpha, beta):
    f = np.array(fs)
    g = np.array(gs)
    for transform in (zeta_subsets, zeta_supersets):
        np.testing.assert_allclose(
            transform(alpha * f + beta * g),
            alpha * transform(f) + beta * transform(g),
            atol=1e-9,
        )
