import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htt.limit_operator import (
    CosineSeries,
    _projection_block,
    _turn_of,
    _turn_tables,
    operator_window,
    projection_entry,
    projection_unit_vector,
    series_coefficients,
    series_value,
    series_values,
    shift_environment,
    window_from_diagonal,
)
from htt.matrices import TruncationLevels
from htt.sampler import TURN_BITS, AlphaParams, Environment, RngSeed, sample_environment
from htt.spectra import spectral_measure_at

# i**k for k mod 4, exact; the gauge is Phi = diag(i**k)
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _phase(k):
    return _I_POWERS[np.mod(k, 4)]


def _gauge(mat, rows, cols):
    """Phi mat Phi* for a block indexed by rows x cols."""
    return _phase(rows)[:, None] * mat * np.conj(_phase(cols))[None, :]


def _complex_block(rows, cols, band):
    """Band-truncated kernel on rows x cols from the scalar definition."""
    return np.array(
        [[projection_entry(k, m) if abs(k - m) <= band else 0.0 for m in cols]
         for k in rows]
    )


# Grid index of the turn 1/8
_EIGHTH = 1 << (TURN_BITS - 3)


def _env(gamma, zeta, u, alpha=0.5):
    # zeta and u are grid indices: index n is the turn n / 2**TURN_BITS
    return Environment(
        gamma=np.asarray(gamma, dtype=float),
        zeta=np.asarray(zeta, dtype=np.uint64),
        u=np.asarray(u, dtype=np.uint64),
        alpha=alpha,
    )


class TestProjectionEntry:
    def test_three_cases(self):
        assert projection_entry(0, 0) == 0.5
        assert projection_entry(0, 2) == 0.0
        assert projection_entry(5, 5) == 0.5
        # odd difference: -i/(pi (k-l)); at (1, 0) this is -i/pi
        assert projection_entry(1, 0) == -1j / math.pi
        assert projection_entry(0, 1) == 1j / math.pi

    def test_hermitian_pairs(self):
        for k, l in ((0, 1), (3, -2), (7, 4)):
            assert projection_entry(l, k) == np.conj(projection_entry(k, l))

    def test_magnitude_bounded_by_half(self):
        vals = [abs(projection_entry(0, l)) for l in range(-9, 10)]
        assert max(vals) == 0.5


def _kernel_window(w, band=None):
    # the (2w+1)-dimensional gauge-kernel window indexed by k in {-w, ..., w}
    ks = np.arange(-w, w + 1)
    return _projection_block(ks, ks, band)


class TestProjectionWindow:
    def test_w1_structure(self):
        w = _kernel_window(1)
        expected = np.array(
            [
                [0.5, 1j / math.pi, 0.0],
                [-1j / math.pi, 0.5, 1j / math.pi],
                [0.0, -1j / math.pi, 0.5],
            ]
        )
        ks = np.arange(-1, 2)
        assert w.dtype == np.float64
        np.testing.assert_allclose(w, _gauge(expected, ks, ks), atol=1e-15)

    def test_gauge_of_scalar_entries(self):
        ks = np.arange(-9, 10)
        expected = _gauge(_complex_block(ks, ks, 5), ks, ks)
        np.testing.assert_allclose(_kernel_window(9, band=5), expected, atol=1e-15)

    def test_band_truncation_no_wrap(self):
        w = _kernel_window(3, band=1)
        assert w[0, 1] != 0
        assert w[0, 2] == 0 and w[0, 3] == 0
        # corners stay zero: the band never wraps around
        assert w[0, 6] == 0

    def test_row_square_sums_approach_diagonal(self):
        # projection identity: sum_m |entry(0, m)|^2 = entry(0, 0) = 1/2
        w = 512
        col = _kernel_window(w)[:, w]
        assert abs(np.sum(np.abs(col) ** 2) - 0.5) < 1e-3

    def test_band_norm_log_shape(self):
        for band in (4, 16, 64):
            win = _kernel_window(128, band=band)
            norm = np.abs(np.linalg.eigvalsh(win)).max()
            assert norm <= 2.0 + 2.0 * np.log(band)

    def test_hermitian(self):
        w = _kernel_window(16, band=5)
        np.testing.assert_allclose(w, w.conj().T, atol=1e-15)


class TestCosineSeries:
    def test_single_term(self):
        env = _env([1.0], [3 * _EIGHTH], [0])
        assert series_value(CosineSeries(env), 0) == 2.0

    def test_clip_floors_small_arrivals(self):
        # gamma = 1e-3 at alpha = 1 with clip 2: coefficient becomes
        # 1/max(1e-3, 1/2) = 2, not 1000
        env = _env([1e-3], [_EIGHTH], [0], alpha=1.0)
        assert series_value(CosineSeries(env, clip=2.0), 0) == 2.0 * 2.0
        assert series_value(CosineSeries(env), 0) == 2.0 * 1000.0

    def test_top_k_cutoff(self):
        env = _env([1.0, 2.0, 3.0], [_EIGHTH, 2 * _EIGHTH, 3 * _EIGHTH], [0, 0, 0], alpha=1.0)
        full = series_value(CosineSeries(env), 0)
        top1 = series_value(CosineSeries(env, top_k=1), 0)
        assert top1 == 2.0
        assert abs(full - 2.0 * (1.0 + 0.5 + 1.0 / 3.0)) < 1e-12

    def test_bound_two_mk(self):
        # |value| <= 2 * clip * top_k over random environments and offsets
        rng = np.random.default_rng(5)
        params = AlphaParams(0.5, 0.5)
        for trial in range(1000):
            env = sample_environment(20, params, RngSeed(100, trial))
            m = float(rng.uniform(0.2, 3.0))
            k = int(rng.integers(1, 10))
            offset = int(rng.integers(-50, 50))
            val = series_value(CosineSeries(env, clip=m, top_k=k), offset)
            assert abs(val) <= 2.0 * m * k + 1e-12

    def test_vectorized_matches_scalar(self):
        env = sample_environment(64, AlphaParams(0.7), RngSeed(3))
        s = CosineSeries(env, clip=1.5, top_k=10)
        ks = np.arange(-5, 6)
        vec = series_values(s, ks)
        scal = [series_value(s, int(k)) for k in ks]
        np.testing.assert_allclose(vec, scal, atol=1e-12)

    @pytest.mark.parametrize(
        "ks",
        [
            np.arange(-40, -29),
            np.array([7]),
            np.array([-300, -5, 0, 17, 1000]),
            np.arange(-1000, 1000),
        ],
        ids=["negative", "singleton", "non-contiguous", "2000-wide"],
    )
    def test_blocked_matches_fsum_oracle(self, ks):
        # alpha = 0.9 runs at the 100000-term cap of the default length;
        # error measured against the series' absolute sum 2 * sum |c_j|
        env = sample_environment(100_000, AlphaParams(0.9), RngSeed(13))
        s = CosineSeries(env)
        vec = series_values(s, ks)
        assert vec.shape == ks.shape
        check = np.unique(np.concatenate([np.arange(0, ks.size, 97), [ks.size - 1]]))
        scal = [series_value(s, int(ks[i])) for i in check]
        scale = 2.0 * np.abs(series_coefficients(s)).sum()
        np.testing.assert_allclose(vec[check], scal, rtol=0, atol=1e-14 * scale)


class TestSeriesValues:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3073),
        st.integers(min_value=-10**6, max_value=10**6),
        st.sampled_from([0.5, 0.9, 1.5]),
        st.one_of(st.none(), st.floats(min_value=0.2, max_value=5.0)),
        st.one_of(st.none(), st.integers(min_value=1, max_value=3000)),
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.data(),
    )
    def test_matches_fsum_oracle(self, span, k_min, alpha, clip, top_k, terms, seed, data):
        # error measured against the series' absolute sum 2 * sum |c_j|, at
        # the span's ends and a few offsets between
        env = sample_environment(terms, AlphaParams(alpha), RngSeed(seed))
        s = CosineSeries(env, terms=terms, clip=clip, top_k=top_k)
        ks = np.arange(k_min, k_min + span)
        picks = data.draw(st.lists(st.integers(0, span - 1), max_size=3))
        check = np.unique([0, span - 1, *picks])
        vec = series_values(s, ks)
        scal = [series_value(s, int(ks[i])) for i in check]
        scale = 2.0 * np.abs(series_coefficients(s)).sum()
        np.testing.assert_allclose(vec[check], scal, rtol=0, atol=1e-14 * scale)

    def test_transcendentals_per_row(self, monkeypatch):
        # every row's three factors are read from the phase tables: building
        # them evaluates 3 * 2**11 turns, once, and no row takes an exp, cos
        # or sin (a cos/sin table over this span-3000 grid takes 220 per row)
        env = sample_environment(10_000, AlphaParams(0.9), RngSeed(14))
        evaluated = {"count": 0}
        for name in ("exp", "cos", "sin"):
            fn = getattr(np, name)

            def counting(x, *args, _fn=fn, **kwargs):
                evaluated["count"] += np.size(x)
                return _fn(x, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        _turn_tables.cache_clear()
        series_values(CosineSeries(env), np.arange(-1500, 1500))
        first = evaluated["count"]
        assert 0 < first <= 3 * 2**11
        series_values(CosineSeries(env), np.arange(-1500, 1500))
        assert evaluated["count"] == first

    def test_offsets_taken_mod_2_33(self):
        # phase indices are integers mod 2**33, so offsets 2**33 apart give
        # the same values bit for bit, far beyond where u + k zeta rounds
        env = sample_environment(5_000, AlphaParams(0.9), RngSeed(16))
        s = CosineSeries(env)
        for ks in (np.arange(-300, 300), np.array([-7, 0, 5, 2**20 + 3])):
            assert np.array_equal(series_values(s, ks + 2**33), series_values(s, ks))


class TestPhaseTables:
    def test_product_matches_mpmath(self):
        # exp(2 pi i n / 2**33) from three table entries, against a 40-digit
        # oracle, at random indices and at every digit's edges: two roundings
        # near 1e-16 (a plain product of three rounded entries reaches 3.2e-16)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        edges = [0, 1, 2**11 - 1, 2**11, 2**22 - 1, 2**22, 2**31 - 1, 2**31 + 1,
                 2**32 - 1, 2**32 + 1, 2**33 - 1]
        n = np.concatenate([edges, rng.integers(0, 2**33, size=3000)]).astype(np.uint64)
        got = _turn_of(n)
        with mpmath.workdps(40):
            exact = [mpmath.expjpi(mpmath.mpf(int(k)) / 2**32) for k in n]
        err = [abs(mpmath.mpc(complex(g)) - e) for g, e in zip(got, exact)]
        assert float(max(err)) <= 2.5e-16

    def test_quarter_turns_exact(self):
        n = np.arange(4, dtype=np.uint64) << np.uint64(31)
        assert np.array_equal(_turn_of(n), [1.0, 1.0j, -1.0, -1.0j])
        # indices are taken mod 2**33
        assert np.array_equal(_turn_of(n + np.uint64(2**33)), _turn_of(n))


class TestShift:
    def test_zero_shift_identity(self):
        env = sample_environment(32, AlphaParams(0.5), RngSeed(6))
        shifted = shift_environment(env, 0)
        np.testing.assert_array_equal(env.u, shifted.u)

    def test_ergodic_identity_exact(self):
        env = sample_environment(256, AlphaParams(0.5), RngSeed(7))
        s = CosineSeries(env)
        for k, l in ((0, 1), (5, -17), (-40, 1000), (123, -999)):
            lhs = series_value(CosineSeries(shift_environment(env, l)), k)
            rhs = series_value(s, k + l)
            assert lhs == rhs  # dyadic phases make this exact

    @pytest.mark.parametrize(
        "ks, l",
        [
            (np.arange(-40, 41), 1),
            (np.array([-300, -5, 0, 17, 1000]), -999),
            (np.arange(-1000, 1000), 123_457),
            (np.arange(998_000, 999_000), -1_000_000),
        ],
        ids=["unit", "non-contiguous", "2000-wide", "far"],
    )
    def test_ergodic_identity_exact_vectorized(self, ks, l):
        # 20000 terms: several row chunks of series_values
        env = sample_environment(20_000, AlphaParams(0.9), RngSeed(7))
        lhs = series_values(CosineSeries(shift_environment(env, l)), ks)
        rhs = series_values(CosineSeries(env), ks + l)
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize(
        "l",
        [2**40, -(2**40), 2**40 + 12_345, -(2**40) - 12_345],
        ids=["+2^40", "-2^40", "+2^40+12345", "-2^40-12345"],
    )
    def test_ergodic_identity_exact_far_beyond_float_phases(self, l):
        # a float phase u + l zeta would need 40 integer and 33 fractional
        # bits, beyond the 53 of a double; integer indices stay exact.  The
        # offsets 2**40 + 12345 also rotate phases, since 2**40 is a whole
        # number of grid periods 2**33
        env = sample_environment(5_000, AlphaParams(0.9), RngSeed(7))
        ks = np.arange(-200, 200)
        lhs = series_values(CosineSeries(shift_environment(env, l)), ks)
        rhs = series_values(CosineSeries(env), ks + l)
        assert np.array_equal(lhs, rhs)

    def test_round_trip(self):
        env = sample_environment(64, AlphaParams(1.5), RngSeed(8))
        back = shift_environment(shift_environment(env, 37), -37)
        assert np.array_equal(back.u, env.u)

    def test_only_phases_change(self):
        env = sample_environment(16, AlphaParams(0.5), RngSeed(9))
        shifted = shift_environment(env, 3)
        np.testing.assert_array_equal(env.gamma, shifted.gamma)
        np.testing.assert_array_equal(env.zeta, shifted.zeta)


class TestOperatorWindow:
    def test_identity_diagonal_gives_projection_square(self):
        # all-ones diagonal, untruncated band: the window of the squared
        # projection; its center entry tends to 1/2
        w, l = 512, 1024
        diag = np.ones(2 * (w + l) + 1)
        win = window_from_diagonal(diag, w, l)
        assert abs(win.matrix[w, w].real - 0.5) < 1e-3
        assert abs(win.matrix[w, w].imag) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.data(),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_banded_assembly_matches_dense_product(self, w, data, seed):
        # row blocks of the band-2l product against the dense triple product
        # a diag(d) a^T over the padded inner range; small bands give
        # several blocks and a short last one
        l = data.draw(st.one_of(st.integers(0, min(2 * w, 8)), st.integers(0, 2 * w)))
        diag = np.random.default_rng(seed).standard_normal(2 * (w + l) + 1)
        ks = np.arange(-w, w + 1)
        ms = np.arange(-w - l, w + l + 1)
        a = _gauge(_complex_block(ks, ms, l), ks, ms).real
        dense = (a * diag) @ a.T
        win = window_from_diagonal(diag, w, l).matrix
        np.testing.assert_allclose(win, dense, rtol=0, atol=1e-15 * np.abs(dense).max())
        assert np.array_equal(win, win.T)

    def test_rejects_diagonal_of_wrong_length(self):
        with pytest.raises(ValueError):
            window_from_diagonal(np.ones(2 * (8 + 2)), 8, 2)

    def test_huge_arrivals_give_near_zero(self):
        env = _env([1e12, 2e12], [_EIGHTH, 2 * _EIGHTH], [3 * _EIGHTH, 4 * _EIGHTH], alpha=0.5)
        lv = TruncationLevels(m=math.inf, k=2, l=4, w=16, j=2)
        win = operator_window(env, lv)
        assert np.abs(win.matrix).max() < 1e-20

    def test_hermitian_to_1e12(self):
        env = sample_environment(128, AlphaParams(0.5), RngSeed(10))
        win = operator_window(env, TruncationLevels(m=2.0, k=8, l=8, w=32, j=128))
        assert np.abs(win.matrix - win.matrix.conj().T).max() < 1e-12

    def test_rejects_band_beyond_reach(self):
        env = sample_environment(8, AlphaParams(0.5), RngSeed(1))
        with pytest.raises(ValueError):
            operator_window(env, TruncationLevels(m=1.0, k=2, l=17, w=8, j=8))

    def test_band_beyond_window_gives_2l_bandwidth(self):
        env = sample_environment(32, AlphaParams(0.5), RngSeed(2))
        lv = TruncationLevels(m=1.0, k=4, l=3, w=10, j=32)
        win = operator_window(env, lv).matrix
        # the sandwich has bandwidth 2l: entries beyond |k-l| > 6 vanish
        for off in range(7, 21):
            assert win[0, off] == 0.0

    def test_moment_bound(self):
        # |<e0, A^r e0>| <= (m k)^r 2^(-2r) (2l+1)^(2r-1) for r <= 4
        params = AlphaParams(0.5, 0.5)
        rng = np.random.default_rng(11)
        for trial in range(20):
            l = int(rng.choice([4, 8, 16]))
            m = float(rng.uniform(0.5, 3.0))
            k = int(rng.integers(1, 6))
            lv = TruncationLevels(m=m, k=k, l=l, w=4 * l, j=64)
            env = sample_environment(64, params, RngSeed(200, trial))
            win = operator_window(env, lv)
            e0 = win.basis_vector(0).astype(complex)
            vec = e0.copy()
            for r in range(1, 5):
                vec = win.matrix @ vec
                moment = abs(np.vdot(e0, vec).real)
                bound = (m * k) ** r * 2.0 ** (-2 * r) * (2 * l + 1) ** (2 * r - 1)
                assert moment <= bound

    def test_window_equals_infinite_matrix_elements(self):
        # brute-force oracle: entry (k, l) of the infinite sandwich is
        # sum_m band(k, m) diag_m band(m, l) over all m with |k-m| <= band
        env = sample_environment(32, AlphaParams(0.5), RngSeed(12))
        lv = TruncationLevels(m=1.5, k=5, l=3, w=6, j=32)
        win = operator_window(env, lv).matrix
        series = CosineSeries(env, terms=32, clip=1.5, top_k=5)
        for k in (-6, -2, 0, 3, 6):
            for l in (-6, -1, 0, 2, 6):
                acc = 0.0 + 0.0j
                for mm in range(min(k, l) - 3, max(k, l) + 4):
                    pk = projection_entry(k, mm) if abs(k - mm) <= 3 else 0.0
                    pl = projection_entry(mm, l) if abs(mm - l) <= 3 else 0.0
                    acc += pk * series_value(series, mm) * pl
                assert abs(win[k + 6, l + 6] - _phase(k - l) * acc) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.data(),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_real_window_is_gauge_of_complex_window(self, w, data, seed):
        # the complex window built from the scalar kernel definition, at
        # small (w, l): the real window is its Phi-conjugate, and the
        # spectral measures at u and Phi u (and at e_0) coincide
        _check_gauge_of_complex_window(w, data.draw(st.integers(1, 2 * w)), seed)

    @pytest.mark.parametrize("w, l, seed", [(10, 18, 987704), (12, 22, 676388)])
    def test_gauge_measures_agree_at_near_degenerate_eigenvalues(self, w, l, seed):
        # near-degenerate eigenvalues: eigh splits their joint weight
        # differently for the real and the complex window, moving per-atom
        # weights by 1.2e-12 and 2.2e-12
        _check_gauge_of_complex_window(w, l, seed)


def _cluster_starts(locations, gap):
    """Indices opening each run of sorted locations closer than gap."""
    return np.flatnonzero(np.diff(locations, prepend=-np.inf) >= gap)


def _check_gauge_of_complex_window(w, l, seed):
    env = sample_environment(64, AlphaParams(0.5, 0.5), RngSeed(seed))
    lv = TruncationLevels(m=2.0, k=8, l=l, w=w, j=64)
    win = operator_window(env, lv)
    assert win.matrix.dtype == np.float64
    ks = np.arange(-w, w + 1)
    ms = np.arange(-w - l, w + l + 1)
    series = CosineSeries(env, terms=64, clip=2.0, top_k=8)
    diag = np.array([series_value(series, int(m)) for m in ms])
    a = _complex_block(ks, ms, l)
    full = (a * diag) @ a.conj().T
    np.testing.assert_allclose(win.matrix, _gauge(full, ks, ks), rtol=0, atol=1e-13)
    u = np.sqrt(2.0) * _complex_block(ks, [0], 2 * w)[:, 0]
    u /= np.linalg.norm(u)
    phi_u = projection_unit_vector(w)
    phi_u /= np.linalg.norm(phi_u)
    # an eigenvector's weight moves by about eps * |A| / gap under rounding,
    # so weights are compared per cluster of eigenvalues within 1e-3 |A|
    gap = 1e-3 * np.linalg.norm(win.matrix, 2)
    for real_vec, complex_vec in ((phi_u, u), (win.basis_vector(0),) * 2):
        real_m = spectral_measure_at(win.matrix, real_vec)
        complex_m = spectral_measure_at(full, complex_vec)
        assert len(real_m) == len(complex_m)
        np.testing.assert_allclose(
            real_m.locations, complex_m.locations, rtol=0, atol=1e-12
        )
        starts = _cluster_starts(real_m.locations, gap)
        np.testing.assert_allclose(
            np.add.reduceat(real_m.weights, starts),
            np.add.reduceat(complex_m.weights, starts),
            rtol=0,
            atol=1e-12,
        )


class TestUnitVector:
    def test_entries(self):
        # Phi u, with u = sqrt(2) times the kernel column at 0
        w = 8
        u = projection_unit_vector(w)
        assert u.dtype == np.float64
        assert u[w] == np.sqrt(2.0) * 0.5
        assert u[w + 2] == 0.0
        assert abs(u[w + 1] - _phase(1) * np.sqrt(2.0) * (-1j / math.pi)) < 1e-15
        ks = np.arange(-w, w + 1)
        expected = _phase(ks) * np.sqrt(2.0) * _complex_block(ks, [0], 2 * w)[:, 0]
        np.testing.assert_allclose(u, expected, rtol=0, atol=1e-15)

    def test_norm_tends_to_one(self):
        norms = [np.linalg.norm(projection_unit_vector(w)) for w in (64, 512)]
        assert norms[0] < norms[1] < 1.0
        assert norms[1] >= 0.999


class TestDistributionalProperties:
    def test_series_symmetric_in_law(self):
        # signed KS statistic between the law of the series at 0 and its
        # mirror, over 10^4 environments
        params = AlphaParams(0.5, 0.5)
        vals = np.empty(10_000)
        for r in range(vals.size):
            env = sample_environment(50, params, RngSeed(300, r))
            vals[r] = series_value(CosineSeries(env), 0)
        xs = np.sort(vals)
        f_right = np.searchsorted(xs, xs, side="right") / xs.size
        f_mirror = 1.0 - np.searchsorted(xs, -xs, side="left") / xs.size
        assert np.abs(f_right - f_mirror).max() < 0.03

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_weighted_square_sums_stabilize(self, alpha):
        # MC average of sum (1+k^2)^-1 rho_k^2 moves < 1% from w=256 to 512
        params = AlphaParams(alpha, 0.5)
        reps = 100
        sums = {256: 0.0, 512: 0.0}
        ks = np.arange(-512, 513)
        weight = 1.0 / (1.0 + ks.astype(float) ** 2)
        for r in range(reps):
            env = sample_environment(1000, params, RngSeed(400, r))
            rho = series_values(CosineSeries(env), ks)
            contrib = weight * rho**2
            sums[512] += contrib.sum() / reps
            inner = np.abs(ks) <= 256
            sums[256] += contrib[inner].sum() / reps
        assert abs(sums[512] - sums[256]) / sums[512] < 0.01
