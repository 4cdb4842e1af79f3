import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from htt.sampler import (
    COUPLED_TOP_RANKS,
    TURN_BITS,
    AlphaParams,
    RngSeed,
    RunRefused,
    _coupled_layout,
    _place_ranks,
    coupled_entry_draws,
    default_series_length,
    entries_from_uniforms,
    normalizer,
    redraw_phases,
    sample_entries,
    sample_environment,
)


class TestAlphaParams:
    def test_bounds(self):
        AlphaParams(0.5, 0.0)
        AlphaParams(1.999, 1.0)
        for alpha in (0.0, 2.0, -1.0):
            with pytest.raises(ValueError):
                AlphaParams(alpha)
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError):
                AlphaParams(0.5, p)


class TestNormalizer:
    def test_values(self):
        # inf{t : t**-alpha <= 1/n} = n**(1/alpha), solved by hand
        assert normalizer(1, 0.7) == 1.0
        assert normalizer(16, 2.0) == 4.0
        assert normalizer(8, 1.0) == 8.0

    def test_rejects(self):
        with pytest.raises(ValueError):
            normalizer(0, 0.5)
        with pytest.raises(ValueError):
            normalizer(4, 0.0)

    def test_beyond_float_range_is_inf(self):
        # 4096**100 exceeds the float range
        assert normalizer(4096, 0.01) == math.inf


class TestEntries:
    def test_inverse_cdf_by_hand(self):
        # v**(-1/alpha) at alpha=1: |a| = (4, 2, ~1); c_3 = 3
        params = AlphaParams(1.0, 1.0)
        e = entries_from_uniforms([0.25, 0.5, 1.0 - 1e-12], [1.0, 1.0, 1.0], params)
        assert e.c_n == 3.0
        np.testing.assert_allclose(e.b, [4.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0], rtol=1e-9)
        np.testing.assert_array_equal(e.top(3), [0, 1, 2])

    def test_b_scaling_exact(self):
        # b is exactly the inverse-CDF value divided by c_n, at any alpha
        params = AlphaParams(0.5, 0.4)
        rng = np.random.default_rng(1)
        v = 1.0 - rng.random(100)
        signs = np.where(rng.random(100) < params.p, 1.0, -1.0)
        e = entries_from_uniforms(v, signs, params)
        assert e.c_n == 100.0**2
        np.testing.assert_array_equal(e.b, signs * v ** (-1.0 / params.alpha) / e.c_n)

    def test_one_sided_tail(self):
        e = sample_entries(500, AlphaParams(1.0, 1.0), RngSeed(5))
        # a >= 1, and rounded division is monotone, so b >= 1 / c_n exactly
        assert np.all(e.b >= 1.0 / e.c_n)

    def test_reproducible(self):
        a = sample_entries(64, AlphaParams(0.7, 0.4), RngSeed(9, 3))
        b = sample_entries(64, AlphaParams(0.7, 0.4), RngSeed(9, 3))
        np.testing.assert_array_equal(a.b, b.b)
        np.testing.assert_array_equal(a.top(64), b.top(64))
        c = sample_entries(64, AlphaParams(0.7, 0.4), RngSeed(9, 4))
        assert not np.array_equal(a.b, c.b)

    def test_order_is_descending_permutation(self):
        n = 200
        e = sample_entries(n, AlphaParams(1.2, 0.3), RngSeed(2))
        order = e.top(n)
        assert sorted(order.tolist()) == list(range(n))
        assert np.all(np.diff(np.abs(e.b)[order]) <= 0)
        for k in (1, 7, n - 1):
            np.testing.assert_array_equal(e.top(k), order[:k])

    def test_order_tie_break_lower_index_first(self):
        params = AlphaParams(1.0, 1.0)
        e = entries_from_uniforms([0.5, 0.25, 0.5], [1.0, 1.0, 1.0], params)
        np.testing.assert_array_equal(e.top(3), [1, 0, 2])
        np.testing.assert_array_equal(e.top(2), [1, 0])
        # opposite signs tie on magnitude too; a cut inside a tie keeps
        # the lower indices
        e = entries_from_uniforms([0.5, 0.5, 0.125, 0.5, 0.5],
                                  [-1.0, 1.0, 1.0, -1.0, 1.0], params)
        np.testing.assert_array_equal(e.top(5), [2, 0, 1, 3, 4])
        for k in (1, 2, 3, 4):
            np.testing.assert_array_equal(e.top(k), [2, 0, 1, 3][:k])

    def test_draws_run_no_sort(self, monkeypatch):
        # a draw stores b alone; sorting waits for the first top(k) query
        def no_argsort(*args, **kwargs):
            raise AssertionError("argsort called while drawing")

        monkeypatch.setattr(np, "argsort", no_argsort)
        params = AlphaParams(0.7, 0.4)
        assert len(sample_entries(64, params, RngSeed(3))) == 64
        draws = coupled_entry_draws((4, 64, 100), params, RngSeed(3))
        assert {n: len(e) for n, e in draws.items()} == {4: 4, 64: 64, 100: 100}

    def test_rejects(self):
        with pytest.raises(ValueError):
            sample_entries(0, AlphaParams(0.5), RngSeed(0))
        with pytest.raises(ValueError):
            entries_from_uniforms([0.0], [1.0], AlphaParams(0.5))

    def test_small_alpha_draws_are_finite(self):
        # at alpha = 0.01, v**(-100) overflows in 4 of these 20 draws,
        # although every scaled entry (256 v)**(-100) lies in range
        params = AlphaParams(0.01)
        for r in range(20):
            e = sample_entries(256, params, RngSeed(20240901, r))
            assert np.all(np.isfinite(e.b))

    def test_small_alpha_keeps_finite_bits(self):
        # wherever signs * v**(-1/alpha) / c_n is finite it is the entry, bit
        # for bit; elsewhere the entry is (n v)**(-1/alpha) to rounding
        params = AlphaParams(0.01)
        redone = 0
        for r in range(20):
            rng = RngSeed(20240901, r).generator()
            v = 1.0 - rng.random(256)
            signs = np.where(rng.random(256) < params.p, 1.0, -1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                plain = signs * v ** (-1.0 / params.alpha) / normalizer(256, params.alpha)
            e = sample_entries(256, params, RngSeed(20240901, r))
            finite = np.isfinite(plain)
            np.testing.assert_array_equal(e.b[finite], plain[finite])
            np.testing.assert_allclose(e.b[~finite], signs[~finite] * (256 * v[~finite]) ** -100.0,
                                       rtol=1e-13)
            redone += int((~finite).sum())
        assert redone >= 4

    def test_normalizer_overflow_scales_each_entry(self):
        # c_4096 = inf at alpha = 0.01: each entry is (n v)**(-100), which
        # underflows to 0 for n v above ~1202
        e = sample_entries(4096, AlphaParams(0.01), RngSeed(20240901))
        assert e.c_n == math.inf
        assert np.all(np.isfinite(e.b)) and np.any(e.b != 0.0)
        v = np.array([0.5, 1e-3, 1.0])
        e = entries_from_uniforms(v, np.array([1.0, -1.0, 1.0]), AlphaParams(0.01))
        np.testing.assert_allclose(e.b, [1.5 ** -100.0, -(3e-3) ** -100.0, 3.0 ** -100.0],
                                   rtol=1e-13)

    def test_entry_beyond_float_range_raises(self):
        # (1e-300)**(-100) exceeds the float range at every size
        with pytest.raises(RunRefused, match="float range"):
            entries_from_uniforms([1e-300, 0.5], [1.0, 1.0], AlphaParams(0.01))

    def test_tail_law(self):
        # empirical survival of |a| vs t**-alpha within 3 binomial SEs
        n = 1_000_000
        alpha = 0.5
        e = sample_entries(n, AlphaParams(alpha), RngSeed(77))
        mags = np.abs(e.b) * e.c_n
        for t in (2.0, 8.0, 32.0):
            q = t**-alpha
            se = np.sqrt(q * (1 - q) / n)
            assert abs(np.mean(mags >= t) - q) <= 3 * se

    def test_sign_frequency(self):
        n = 100_000
        p = 0.3
        e = sample_entries(n, AlphaParams(0.8, p), RngSeed(11))
        se = np.sqrt(p * (1 - p) / n)
        assert abs(np.mean(e.b > 0) - p) <= 3 * se


class TestCoupledEntries:
    # each size of coupled_entry_draws must be an exact i.i.d. signed
    # Pareto sample; the sizes share their top ranks' signs and cells
    SIZES = (16, 64, 256)

    def _replicas(self, params, reps, sizes=SIZES, seed=40):
        return [coupled_entry_draws(sizes, params, RngSeed(seed, r)) for r in range(reps)]

    def test_pooled_magnitudes_are_pareto(self):
        alpha = 0.7
        reps = self._replicas(AlphaParams(alpha), 200)
        for n in self.SIZES:
            c_n = reps[0][n].c_n
            scaled = np.abs(np.concatenate([d[n].b for d in reps]))
            assert np.all(scaled >= 1.0 / c_n)
            mags = scaled * c_n
            pvalue = scipy.stats.kstest(mags, lambda t: 1.0 - t ** (-alpha)).pvalue
            assert pvalue > 0.01, (n, pvalue)

    def test_normalized_like_independent_draws(self):
        params = AlphaParams(0.5)
        d = coupled_entry_draws((5, 40), params, RngSeed(3))
        gamma, signs, _, layout = _coupled_layout((5, 40), params.p, RngSeed(3))
        for n, e in d.items():
            assert len(e) == n
            assert e.c_n == n**2.0
            # rank i sits at positions[i] with a = sign_i * (G_i / G_{n+1})**-2
            a = signs[:n] * (gamma[:n] / gamma[n]) ** (-1.0 / params.alpha)
            np.testing.assert_array_equal(e.b[layout[n]], a / e.c_n)

    def test_largest_entry_position_uniform(self):
        reps = self._replicas(AlphaParams(0.5), 2000)
        for n in self.SIZES:
            counts = np.bincount([d[n].top(1)[0] for d in reps], minlength=n)
            pvalue = scipy.stats.chisquare(counts).pvalue
            assert pvalue > 0.01, (n, pvalue)

    def test_small_size_permutation_uniform(self):
        # at n = 4 every rank is a top rank and cells collide often; the
        # rank-to-cell map must still be uniform over all 24 permutations
        reps = self._replicas(AlphaParams(0.5), 2400, sizes=(4, 16))
        perms = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
        counts = np.bincount([perms[tuple(d[4].top(4))] for d in reps],
                             minlength=math.factorial(4))
        pvalue = scipy.stats.chisquare(counts).pvalue
        assert pvalue > 0.01, pvalue

    def test_sign_frequency(self):
        p = 0.3
        reps = self._replicas(AlphaParams(0.8, p), 100)
        for n in self.SIZES:
            signs = np.concatenate([d[n].b > 0 for d in reps])
            se = np.sqrt(p * (1 - p) / signs.size)
            assert abs(np.mean(signs) - p) <= 3 * se, n

    def test_reproducible(self):
        params = AlphaParams(0.7, 0.4)
        a = coupled_entry_draws(self.SIZES, params, RngSeed(9, 3))
        b = coupled_entry_draws(self.SIZES, params, RngSeed(9, 3))
        c = coupled_entry_draws(self.SIZES, params, RngSeed(9, 4))
        for n in self.SIZES:
            np.testing.assert_array_equal(a[n].b, b[n].b)
            np.testing.assert_array_equal(a[n].top(n), b[n].top(n))
            assert not np.array_equal(a[n].b, c[n].b)

    def test_top_ranks_keep_sign_and_cell(self):
        params = AlphaParams(0.5, 0.5)
        for r in range(20):
            seed = RngSeed(50, r)
            draws = coupled_entry_draws(self.SIZES, params, seed)
            _, signs, zeta, layout = _coupled_layout(self.SIZES, params.p, seed)
            assert zeta.size == COUPLED_TOP_RANKS
            for n, positions in layout.items():
                top = min(n, COUPLED_TOP_RANKS)
                order = draws[n].top(n)
                np.testing.assert_array_equal(order[:top], positions[:top])
                # one sign per rank, the same at every size
                np.testing.assert_array_equal(np.sign(draws[n].b[order]), signs[:n])
                # a rank is redrawn exactly when a larger rank already holds
                # its proposed cell
                cells = np.floor(zeta[:top] * n).astype(int)
                redrawn = positions[:top] != cells
                kept = ~redrawn
                np.testing.assert_array_equal(positions[:top][kept], cells[kept])
                for i in np.flatnonzero(redrawn):
                    assert cells[i] in positions[:i]
            # rank 0 never collides, so its cell is nested across sizes
            p16, p256 = layout[16][0], layout[256][0]
            assert p16 == p256 // 16

    def test_place_ranks_redraws_taken_cell(self):
        # proposed cells 2, 2, 0 at n = 4: rank 1 always moves to a free
        # cell; rank 2 moves only if rank 1 took cell 0
        seen = set()
        for r in range(30):
            rng = np.random.default_rng(r)
            zeta = np.array([0.5, 0.55, 0.0])
            positions = _place_ranks(zeta, 4, rng)
            redrawn = positions[:3] != np.floor(zeta * 4)
            assert sorted(positions.tolist()) == [0, 1, 2, 3]
            assert positions[0] == 2 and not redrawn[0]
            assert positions[1] in (0, 1, 3) and redrawn[1]
            assert redrawn[2] == (positions[1] == 0)
            if not redrawn[2]:
                assert positions[2] == 0
            seen.add(int(positions[1]))
        assert seen == {0, 1, 3}

    def test_rejects(self):
        with pytest.raises(ValueError):
            coupled_entry_draws((), AlphaParams(0.5), RngSeed(0))
        with pytest.raises(ValueError):
            coupled_entry_draws((0, 4), AlphaParams(0.5), RngSeed(0))


class TestEnvironment:
    def test_partial_sums_and_ranges(self):
        env = sample_environment(1000, AlphaParams(0.5), RngSeed(21))
        assert np.all(np.diff(env.gamma) > 0)
        assert env.gamma[0] > 0
        # gamma must be the running sum of its own positive increments
        incr = np.diff(np.concatenate([[0.0], env.gamma]))
        np.testing.assert_allclose(np.cumsum(incr), env.gamma, rtol=1e-12)
        # grid indices: frequencies are turns in [0, 1/2), phases even
        # indices of turns in [0, 1)
        assert env.zeta.dtype == env.u.dtype == np.uint64
        assert np.all(env.zeta < 1 << (TURN_BITS - 1))
        assert np.all(env.u < 1 << TURN_BITS) and np.all(env.u % 2 == 0)

    def test_rejects_float_phases(self):
        env = sample_environment(4, AlphaParams(0.5), RngSeed(0))
        with pytest.raises(TypeError, match="uint64"):
            replace(env, u=env.u * 2.0**-TURN_BITS)

    def test_overflowing_series_weight_raises(self):
        # this stream draws Gamma_1 = 2.1e-4, so the series weight
        # Gamma_1**(-100) at alpha = 0.01 exceeds the float range
        with pytest.raises(RunRefused, match=r"alpha = 0\.01, stream 501830: Gamma_1 = 0\.00021"):
            sample_environment(64, AlphaParams(0.01), RngSeed(20240901, 501830))

    def test_gamma_law_of_large_numbers(self):
        j = 100_000
        env = sample_environment(j, AlphaParams(0.5), RngSeed(30))
        assert abs(env.gamma[-1] / j - 1.0) < 0.05

    def test_reproducible(self):
        a = sample_environment(50, AlphaParams(1.5, 0.6), RngSeed(4, 2))
        b = sample_environment(50, AlphaParams(1.5, 0.6), RngSeed(4, 2))
        for f in ("gamma", "zeta", "u"):
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))

    def test_redraw_phases_keeps_environment(self):
        env = sample_environment(40, AlphaParams(0.5), RngSeed(8))
        rng = np.random.default_rng(0)
        env2 = redraw_phases(env, rng)
        np.testing.assert_array_equal(env.gamma, env2.gamma)
        np.testing.assert_array_equal(env.zeta, env2.zeta)
        assert not np.array_equal(env.u, env2.u)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_environment(0, AlphaParams(0.5), RngSeed(0))

    def test_top_entry_matches_first_arrival_law(self):
        # the largest |b| converges in law to gamma_0**(-1/alpha): compare
        # 1000 replicas against 1000 direct draws with a two-sample KS test,
        # for independent draws and for the size-coupled draws alike
        alpha = 0.5
        n = 100_000
        reps = 1000
        draws = {
            "independent": lambda seed: sample_entries(n, AlphaParams(alpha), seed),
            "coupled": lambda seed: coupled_entry_draws(
                (n // 100, n), AlphaParams(alpha), seed)[n],
        }
        rng = RngSeed(4321).generator()
        ref = rng.standard_exponential(reps) ** (-1.0 / alpha)
        for name, draw in draws.items():
            tops = np.empty(reps)
            for r in range(reps):
                tops[r] = np.abs(draw(RngSeed(1234, r)).b).max()
            stat = scipy.stats.ks_2samp(tops, ref).statistic
            assert stat < 0.08, name


class TestSeriesLength:
    def test_alpha_above_one_fixed(self):
        assert default_series_length(1.0) == 10_000
        assert default_series_length(1.5) == 10_000

    def test_alpha_below_one_tail_controlled(self):
        j = default_series_length(0.5)
        tail = j ** (1.0 - 2.0) / (2.0 - 1.0)
        partial = 1.0 + np.sum(np.arange(1, j, dtype=float) ** -2.0)
        assert tail < 1e-4 * partial

    def test_cap_binds_near_one(self):
        assert default_series_length(0.95) == 100_000
