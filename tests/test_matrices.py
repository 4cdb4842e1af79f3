import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from htt.matrices import (
    TruncationLevels,
    _circulant,
    _hankel,
    _projection_column,
    _toeplitz,
    build_circulant,
    build_toeplitz,
    circulant_eigs,
    clip_entries,
    projection_matrix,
    projection_symbol,
    sandwich,
    stage_eigvals,
    toeplitz_eigvalsh,
    topk_coefficients,
)
from htt.sampler import AlphaParams, RngSeed, sample_entries
from oracles import band_truncate, cosine_spectrum, dft_matrix


def _entries(n, seed=0, alpha=0.8, p=0.5):
    return sample_entries(n, AlphaParams(alpha, p), RngSeed(seed))


def _fixed_entries(b):
    """Entry sequence with prescribed b values (for structural checks)."""
    from htt.sampler import EntrySequence

    return EntrySequence(c_n=1.0, b=np.asarray(b, dtype=float), alpha=1.0, p=0.5)


@st.composite
def vectors(draw, max_size=64):
    """Real or complex vector of 1 to max_size finite entries."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    parts = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
    v = np.array(draw(parts))
    if draw(st.booleans()):
        v = v + 1j * np.array(draw(parts))
    return v


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestConstructors:
    """The numpy constructors against scipy.linalg, element for element."""

    @settings(max_examples=150, deadline=None)
    @given(vectors(), vectors())
    def test_match_scipy(self, c, r):
        _assert_same(_toeplitz(c), scipy.linalg.toeplitz(c))
        _assert_same(_toeplitz(c, r), scipy.linalg.toeplitz(c, r))
        _assert_same(_hankel(np.concatenate([c, r[1:]]), r.size), scipy.linalg.hankel(c, r))
        _assert_same(_circulant(c), scipy.linalg.circulant(c))

    @settings(max_examples=64, deadline=None)
    @given(st.integers(min_value=1, max_value=64))
    def test_projection_matrix_matches_scipy(self, n):
        _assert_same(projection_matrix(n), scipy.linalg.toeplitz(_projection_column(n)))


class TestToeplitz:
    def test_one_by_one(self):
        t = build_toeplitz(_fixed_entries([3.5]))
        np.testing.assert_array_equal(t, [[3.5]])

    def test_tridiagonal(self):
        t = build_toeplitz(_fixed_entries([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(
            t, [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        )

    def test_structure_random(self):
        e = _entries(4)
        t = build_toeplitz(e)
        np.testing.assert_array_equal(t, t.T)
        for k in range(4):
            for l in range(4):
                assert t[k, l] == e.b[abs(k - l)]

    def test_view_is_read_only_and_solves_like_a_copy(self):
        # T is a strided view: writes are refused, and eigvalsh reads it to
        # the bit as it reads a contiguous copy
        for n in (1, 2, 3, 255, 256, 1024):
            t = build_toeplitz(_entries(n, seed=n, alpha=0.5))
            assert not t.flags.writeable
            with pytest.raises(ValueError):
                t[0, 0] = 1.0
            assert np.linalg.eigvalsh(t).tobytes() == np.linalg.eigvalsh(np.array(t)).tobytes()


class TestCirculant:
    def test_n1(self):
        g = build_circulant(_fixed_entries([2.0]))
        np.testing.assert_array_equal(g, [[2.0, 0.0], [0.0, 2.0]])

    def test_n2_symbol(self):
        e = _fixed_entries([1.5, -0.5])
        g = build_circulant(e)
        # circulant of (b0, b1, 0, b1)
        expected = np.array(
            [
                [1.5, -0.5, 0.0, -0.5],
                [-0.5, 1.5, -0.5, 0.0],
                [0.0, -0.5, 1.5, -0.5],
                [-0.5, 0.0, -0.5, 1.5],
            ]
        )
        np.testing.assert_array_equal(g, expected)

    def test_principal_block_is_toeplitz(self):
        for n in range(1, 17):
            e = _entries(n, seed=n)
            g = build_circulant(e)
            np.testing.assert_array_equal(g[:n, :n], build_toeplitz(e))

    def test_wrap_entry_outside_principal_block(self):
        e = _entries(4, seed=1)
        g = build_circulant(e, wrap_entry=9.0)
        np.testing.assert_array_equal(g[:4, :4], build_toeplitz(e))
        assert g[0, 4] == 9.0


class TestCirculantEigs:
    def test_n2_by_hand(self):
        # cos(pi k / 2) at k = 0..3 gives (b0+2b1, b0, b0-2b1, b0)
        e = _fixed_entries([1.2, 0.7])
        d = circulant_eigs(e)
        np.testing.assert_allclose(d, [1.2 + 1.4, 1.2, 1.2 - 1.4, 1.2], atol=1e-12)

    def test_identity_symbol(self):
        e = _fixed_entries([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(circulant_eigs(e), np.ones(8), atol=1e-12)

    def test_trace(self):
        e = _entries(16, seed=3)
        assert abs(circulant_eigs(e).sum() - 32 * e.b[0]) < 1e-10

    def test_matches_dense_eigensolver(self):
        for n in (2, 5, 16, 128):
            e = _entries(n, seed=n)
            d = np.sort(circulant_eigs(e))
            ev = np.sort(np.linalg.eigvalsh(build_circulant(e)))
            scale = max(1.0, np.abs(d).max())
            np.testing.assert_allclose(d, ev, atol=1e-10 * scale)

    def test_wrap_entry_matches_dense_eigensolver(self):
        e = _entries(16, seed=4)
        d = np.sort(circulant_eigs(e, wrap_entry=0.75))
        ev = np.linalg.eigvalsh(build_circulant(e, wrap_entry=0.75))
        np.testing.assert_allclose(d, ev, atol=1e-10 * max(1.0, np.abs(d).max()))


class TestApproxEigs:
    def test_shift_is_b0(self):
        e = _entries(12, seed=5)
        np.testing.assert_allclose(
            cosine_spectrum(e.b) - circulant_eigs(e), np.full(24, e.b[0]), atol=1e-12
        )

    def test_identity_symbol_doubles(self):
        e = _fixed_entries([1.0, 0.0, 0.0])
        np.testing.assert_allclose(cosine_spectrum(e.b), np.full(6, 2.0), atol=1e-12)

    def test_zero_frequency_is_full_sum(self):
        e = _entries(10, seed=6)
        assert abs(cosine_spectrum(e.b)[0] - 2 * e.b.sum()) < 1e-10


class TestProjection:
    def test_n1_by_hand(self):
        np.testing.assert_allclose(projection_matrix(1), 0.5 * np.ones((2, 2)))

    def test_matches_dft_conjugation(self):
        for n in (1, 2, 3, 5, 8, 16):
            p = projection_matrix(n)
            f = dft_matrix(2 * n)
            q = np.diag(np.concatenate([np.ones(n), np.zeros(n)]))
            direct = f.conj().T @ q @ f
            assert np.abs(p - direct).max() <= 1e-12

    def test_projection_properties(self):
        for n in (2, 7, 16):
            p = projection_matrix(n)
            assert np.abs(np.diag(p) - 0.5).max() < 1e-15
            assert np.abs(p @ p - p).max() < 1e-10
            assert abs(np.trace(p).real - n) < 1e-9
            assert np.linalg.matrix_rank(p) == n
            # even nonzero differences vanish
            assert p[0, 2] == 0 and p[2, 0] == 0

    def test_entry_deviation_from_kernel_halves(self):
        # |P(k,l) - kernel(k,l)| ~ 1/(2N) at fixed offset: doubling N
        # should halve the worst deviation over offsets up to 8
        from htt.limit_operator import projection_entry

        devs = {}
        for n in (256, 512, 1024):
            p = projection_matrix(n)
            devs[n] = max(
                abs(p[0, m] - projection_entry(0, m)) for m in range(1, 9)
            )
        for n in (256, 512):
            ratio = devs[2 * n] / devs[n]
            assert 0.4 <= ratio <= 0.6


class TestBandTruncate:
    def test_zero_band_is_half_identity(self):
        p = projection_matrix(4)
        np.testing.assert_allclose(band_truncate(p, 0), 0.5 * np.eye(8))

    def test_boundary_inclusive(self):
        p = projection_matrix(8)
        pl = band_truncate(p, 3)
        assert pl[0, 3] == p[0, 3]
        assert pl[0, 4] == 0.0  # |k-l| = 4 not wrapped
        assert pl[0, 13] == p[0, 13]  # |k-l| = 13 >= 2N - 3

    def test_full_band_warns_and_copies(self):
        p = projection_matrix(4)
        with pytest.warns(UserWarning):
            pl = band_truncate(p, 4)
        np.testing.assert_array_equal(pl, p)

    def test_operator_norm_log_growth(self):
        p = projection_matrix(512)
        for l in (4, 16, 64):
            pl = band_truncate(p, l)
            norm = np.abs(np.linalg.eigvalsh(pl)).max()
            assert norm <= 2.0 + 2.0 * np.log(l)


class TestClipAndTopK:
    def test_clip_values(self):
        np.testing.assert_array_equal(
            clip_entries(np.array([5.0, -5.0, 1.5]), 2.0), [2.0, -2.0, 1.5]
        )
        b = np.array([0.3, -1.9])
        np.testing.assert_array_equal(clip_entries(b, 2.0), b)
        np.testing.assert_array_equal(clip_entries(np.array([2.0]), 2.0), [2.0])

    def test_clip_rejects(self):
        with pytest.raises(ValueError):
            clip_entries(np.array([1.0]), 0.0)

    def test_full_k_equals_clipped_spectrum(self):
        e = _entries(32, seed=7)
        m = 1.5
        full = cosine_spectrum(topk_coefficients(e, m, 32))
        ref = cosine_spectrum(clip_entries(e.b, m))
        np.testing.assert_allclose(full, ref, atol=1e-10)

    def test_single_term(self):
        e = _entries(16, seed=8)
        m = 2.0
        d = cosine_spectrum(topk_coefficients(e, m, 1))
        s = e.top(1)[0]
        val = clip_entries(e.b[[s]], m)[0]
        k = np.arange(32)
        np.testing.assert_allclose(d, 2 * val * np.cos(np.pi * k * s / 16), atol=1e-12)

    def test_parseval_defect(self):
        # sum_k (d^m_k - d^{m,k}_k)^2 = 4N sum_{j>=K} clip(b_(j))^2, plus
        # 4N clip(b_0)^2 when the zero frequency is among the dropped terms:
        # the spectrum doubles the j = 0 coefficient, so frequencies 0 and
        # 2N alias and that coefficient enters Parseval at twice the weight.
        for seed, k in ((9, 5), (10, 3), (11, 20)):
            e = _entries(64, seed=seed, alpha=0.6)
            m = 1.2
            d_m = cosine_spectrum(clip_entries(e.b, m))
            d_mk = cosine_spectrum(topk_coefficients(e, m, k))
            lhs = np.sum((d_m - d_mk) ** 2)
            order = e.top(64)
            tail = clip_entries(np.abs(e.b)[order[k:]], m)
            rhs = 4 * 64 * np.sum(tail**2)
            if 0 not in order[:k]:
                rhs += 4 * 64 * clip_entries(e.b[[0]], m)[0] ** 2
            assert abs(lhs - rhs) <= 1e-8 * max(rhs, 1.0)

    def test_topk_rejects(self):
        e = _entries(8, seed=1)
        with pytest.raises(ValueError):
            topk_coefficients(e, 1.0, 0)
        with pytest.raises(ValueError):
            topk_coefficients(e, 1.0, 9)


class TestSandwich:
    def test_identity_diagonal(self):
        p = projection_matrix(5)
        np.testing.assert_allclose(sandwich(p, np.ones(10)), p @ p, atol=1e-14)

    def test_zero_diagonal(self):
        p = projection_matrix(3)
        np.testing.assert_array_equal(sandwich(p, np.zeros(6)), np.zeros((6, 6)))

    def test_hermitian(self):
        e = _entries(20, seed=10)
        h = sandwich(projection_matrix(20), cosine_spectrum(e.b))
        assert np.abs(h - h.conj().T).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sandwich(projection_matrix(2), np.ones(3))

    def test_corner_embedding_identity(self):
        # eigenvalues of [[T, 0], [0, 0]] match those of P D P exactly
        for n, seed in ((4, 0), (16, 1), (64, 2)):
            e = _entries(n, seed=seed, alpha=0.5)
            t = build_toeplitz(e)
            lhs = np.sort(np.concatenate([np.linalg.eigvalsh(t), np.zeros(n)]))
            h = sandwich(projection_matrix(n), circulant_eigs(e))
            rhs = np.sort(np.linalg.eigvalsh(h))
            assert np.abs(lhs - rhs).max() <= 1e-8


@st.composite
def coefficients(draw, max_size=48):
    """Real coefficient vectors of length 1..max_size, some sparse, some
    with c_0 = 0."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    c = np.array(draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n)))
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        c = np.where(keep, c, 0.0)
    if draw(st.booleans()):
        c[0] = 0.0
    return c


def _band(n, l):
    """Projection symbol and dense band truncation at (n, l), and whether
    each warned that the band covers the whole matrix."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        q = projection_symbol(n, l)
        q_warned = len(caught)
        pl = band_truncate(projection_matrix(n), l)
    return q, pl, q_warned, len(caught) - q_warned


def _blocks_eigvalsh(even, odd):
    """Sorted eigenvalues of explicitly built even and odd blocks."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(x) for x in (even, odd) if x.size]))


def _toeplitz_split_oracle(b):
    """``toeplitz_eigvalsh`` from A = toeplitz(b[:m]) and H(i, j) =
    b[n-1-i-j] built by indexing, each block in its own array."""
    n = b.size
    if n == 1:
        return b.copy()
    m = (n + 1) // 2
    i = np.arange(m)
    a = b[np.abs(i[:, None] - i[None, :])]
    h = b[n - 1 - i[:, None] - i[None, :]]
    even, odd = a + h, a - h
    if n % 2:
        even[-1, :] *= np.sqrt(0.5)
        even[:, -1] *= np.sqrt(0.5)
        odd = odd[:-1, :-1].copy()
    return _blocks_eigvalsh(even, odd)


def _stage_split_oracle(c, band):
    """``stage_eigvals(c, band)`` from q q^T * (toep +- hank) built by
    indexing the circulant symbol, each block in its own array."""
    n = c.size
    s = np.concatenate([[2.0 * c[0]], c[1:], [0.0], c[:0:-1]])
    parity = n % 2
    t = np.arange(n + parity)
    q = band[(n // 2 + 1 + t) % (2 * n)]
    if parity:
        q[[0, -1]] *= np.sqrt(0.5)
    toep = s[np.abs(t[:, None] - t[None, :])]
    hank = s[(t[:, None] + t[None, :] + 1 - parity) % (2 * n)]
    weights = q[:, None] * q[None, :]
    even, odd = weights * (toep + hank), weights * (toep - hank)
    if parity:
        odd = odd[1:-1, 1:-1].copy()
    return _blocks_eigvalsh(even, odd)


def _peak_blocks(solve, m):
    """tracemalloc peak of ``solve()`` in units of one m x m float block."""
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * m * m)


class TestToeplitzEigvalsh:
    """Half-size solves against the dense N x N oracle."""

    def test_working_memory_is_one_block(self):
        # one ceil(n/2)^2 block; numpy's own copy inside eigvalsh is not traced
        for n in (2048, 2047):
            b = _entries(n, seed=n, alpha=0.5).b
            assert _peak_blocks(lambda: toeplitz_eigvalsh(b), (n + 1) // 2) <= 1.1

    @settings(max_examples=120, deadline=None)
    @given(coefficients(max_size=64))
    def test_matches_dense(self, b):
        want = np.linalg.eigvalsh(build_toeplitz(_fixed_entries(b)))
        tol = 1e-13 * max(1.0, np.abs(b).sum())
        np.testing.assert_allclose(toeplitz_eigvalsh(b), want, rtol=0, atol=tol)
        np.testing.assert_array_equal(toeplitz_eigvalsh(b), _toeplitz_split_oracle(b))

    def test_heavy_tailed_entries(self):
        for n in (255, 256):
            e = _entries(n, seed=n, alpha=0.5)
            want = np.linalg.eigvalsh(build_toeplitz(e))
            tol = 1e-13 * max(1.0, np.abs(e.b).sum())
            np.testing.assert_allclose(toeplitz_eigvalsh(e.b), want, rtol=0, atol=tol)
            np.testing.assert_array_equal(toeplitz_eigvalsh(e.b), _toeplitz_split_oracle(e.b))


class TestStageSpectra:
    """Circulant-basis stages against the dense complex oracles."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=48), st.data())
    def test_projection_symbol_is_band_spectrum(self, n, data):
        l = data.draw(st.integers(min_value=0, max_value=n + 2))
        q, pl, q_warned, dense_warned = _band(n, l)
        np.testing.assert_allclose(np.sort(q), np.linalg.eigvalsh(pl), rtol=0, atol=1e-12)
        assert q_warned == dense_warned == (l >= n)

    @settings(max_examples=80, deadline=None)
    @given(coefficients(), st.data())
    def test_stage_matches_sandwich(self, c, data):
        n = c.size
        l = data.draw(st.integers(min_value=0, max_value=n + 2))
        q, pl, _, _ = _band(n, l)
        # d_k = 2 sum_j c_j cos(pi j k / N), summed directly
        d = 2.0 * np.cos(np.pi * np.outer(np.arange(2 * n), np.arange(n)) / n) @ c
        tol = 1e-12 * max(1.0, np.abs(c).sum())
        for got, p in ((stage_eigvals(c), projection_matrix(n)), (stage_eigvals(c, q), pl)):
            want = np.linalg.eigvalsh(sandwich(p, d))
            np.testing.assert_allclose(np.sort(got), want, rtol=0, atol=tol)
        np.testing.assert_array_equal(stage_eigvals(c, q), _stage_split_oracle(c, q))

    def test_split_stage_at_larger_sizes(self):
        # odd and even N against the dense sandwich and the explicit blocks
        for n in (17, 64, 255, 256):
            for l in (0, 1, 8, n - 1):
                c = clip_entries(_entries(n, seed=l + 3, alpha=0.6).b, 4.0)
                q, pl, _, _ = _band(n, l)
                want = np.linalg.eigvalsh(sandwich(pl, cosine_spectrum(c)))
                tol = 1e-12 * max(1.0, np.abs(c).sum())
                np.testing.assert_allclose(stage_eigvals(c, q), want, rtol=0, atol=tol)
                np.testing.assert_array_equal(stage_eigvals(c, q), _stage_split_oracle(c, q))

    def test_working_memory_is_one_block(self):
        # one block of side n + n % 2; the q q^T weights are applied row by row
        for n in (512, 511):
            c = clip_entries(_entries(n, seed=n, alpha=0.6).b, 4.0)
            q = projection_symbol(n, 8)
            assert _peak_blocks(lambda: stage_eigvals(c, q), n + n % 2) <= 1.1

    def test_untruncated_stage_ends_in_exact_zeros(self):
        c = _entries(12, seed=4).b
        np.testing.assert_array_equal(stage_eigvals(c)[12:], np.zeros(12))


class TestTruncationLevels:
    def test_coupled(self):
        lv = TruncationLevels.coupled(512)
        assert lv.m == 512.0 ** (1.0 / 9.0)
        assert lv.k == round(512.0 ** (1.0 / 9.0))
        assert lv.w == 8 * 512

    def test_core_radius(self):
        # w - l while the band is narrower than the window, else the window
        assert TruncationLevels(m=1.0, k=1, l=3, w=16, j=1).core == 13
        assert TruncationLevels(m=1.0, k=1, l=16, w=16, j=1).core == 16
        assert TruncationLevels(m=1.0, k=1, l=20, w=16, j=1).core == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationLevels(m=0.0, k=1, l=1, w=1, j=1)
        with pytest.raises(ValueError):
            TruncationLevels(m=1.0, k=0, l=1, w=1, j=1)
