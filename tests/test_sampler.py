import itertools
import math

import numpy as np
import pytest
import scipy.stats

from htt.sampler import (
    COUPLED_TOP_RANKS,
    AlphaParams,
    RngSeed,
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


class TestEntries:
    def test_inverse_cdf_by_hand(self):
        # v**(-1/alpha) at alpha=1: |a| = (4, 2, ~1); c_3 = 3
        params = AlphaParams(1.0, 1.0)
        e = entries_from_uniforms([0.25, 0.5, 1.0 - 1e-12], [1.0, 1.0, 1.0], params)
        np.testing.assert_allclose(e.a, [4.0, 2.0, 1.0], rtol=1e-9)
        assert e.c_n == 3.0
        np.testing.assert_allclose(e.b, [4.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0], rtol=1e-9)
        np.testing.assert_array_equal(e.order, [0, 1, 2])
        np.testing.assert_allclose(e.sorted_abs, np.abs(e.b)[e.order])

    def test_one_sided_tail(self):
        e = sample_entries(500, AlphaParams(1.0, 1.0), RngSeed(5))
        assert np.all(e.a >= 1.0)

    def test_reproducible(self):
        a = sample_entries(64, AlphaParams(0.7, 0.4), RngSeed(9, 3))
        b = sample_entries(64, AlphaParams(0.7, 0.4), RngSeed(9, 3))
        np.testing.assert_array_equal(a.a, b.a)
        np.testing.assert_array_equal(a.order, b.order)
        c = sample_entries(64, AlphaParams(0.7, 0.4), RngSeed(9, 4))
        assert not np.array_equal(a.a, c.a)

    def test_b_scaling_exact(self):
        e = sample_entries(100, AlphaParams(0.5), RngSeed(1))
        np.testing.assert_array_equal(e.b, e.a / e.c_n)

    def test_order_is_descending_permutation(self):
        e = sample_entries(200, AlphaParams(1.2, 0.3), RngSeed(2))
        assert sorted(e.order.tolist()) == list(range(200))
        assert np.all(np.diff(e.sorted_abs) <= 0)

    def test_order_tie_break_lower_index_first(self):
        params = AlphaParams(1.0, 1.0)
        e = entries_from_uniforms([0.5, 0.25, 0.5], [1.0, 1.0, 1.0], params)
        np.testing.assert_array_equal(e.order, [1, 0, 2])

    def test_rejects(self):
        with pytest.raises(ValueError):
            sample_entries(0, AlphaParams(0.5), RngSeed(0))
        with pytest.raises(ValueError):
            entries_from_uniforms([0.0], [1.0], AlphaParams(0.5))

    def test_tail_law(self):
        # empirical survival of |a| vs t**-alpha within 3 binomial SEs
        n = 1_000_000
        alpha = 0.5
        e = sample_entries(n, AlphaParams(alpha), RngSeed(77))
        mags = np.abs(e.a)
        for t in (2.0, 8.0, 32.0):
            q = t**-alpha
            se = np.sqrt(q * (1 - q) / n)
            assert abs(np.mean(mags >= t) - q) <= 3 * se

    def test_sign_frequency(self):
        n = 100_000
        p = 0.3
        e = sample_entries(n, AlphaParams(0.8, p), RngSeed(11))
        se = np.sqrt(p * (1 - p) / n)
        assert abs(np.mean(e.a > 0) - p) <= 3 * se


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
            mags = np.abs(np.concatenate([d[n].a for d in reps]))
            assert np.all(mags >= 1.0)
            pvalue = scipy.stats.kstest(mags, lambda t: 1.0 - t ** (-alpha)).pvalue
            assert pvalue > 0.01, (n, pvalue)

    def test_normalized_like_independent_draws(self):
        d = coupled_entry_draws((5, 40), AlphaParams(0.5), RngSeed(3))
        for n, e in d.items():
            assert len(e) == n
            assert e.c_n == n**2.0
            np.testing.assert_array_equal(e.b, e.a / e.c_n)

    def test_largest_entry_position_uniform(self):
        reps = self._replicas(AlphaParams(0.5), 2000)
        for n in self.SIZES:
            counts = np.bincount([d[n].order[0] for d in reps], minlength=n)
            pvalue = scipy.stats.chisquare(counts).pvalue
            assert pvalue > 0.01, (n, pvalue)

    def test_small_size_permutation_uniform(self):
        # at n = 4 every rank is a top rank and cells collide often; the
        # rank-to-cell map must still be uniform over all 24 permutations
        reps = self._replicas(AlphaParams(0.5), 2400, sizes=(4, 16))
        perms = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
        counts = np.bincount([perms[tuple(d[4].order)] for d in reps],
                             minlength=math.factorial(4))
        pvalue = scipy.stats.chisquare(counts).pvalue
        assert pvalue > 0.01, pvalue

    def test_sign_frequency(self):
        p = 0.3
        reps = self._replicas(AlphaParams(0.8, p), 100)
        for n in self.SIZES:
            signs = np.concatenate([d[n].a > 0 for d in reps])
            se = np.sqrt(p * (1 - p) / signs.size)
            assert abs(np.mean(signs) - p) <= 3 * se, n

    def test_reproducible(self):
        params = AlphaParams(0.7, 0.4)
        a = coupled_entry_draws(self.SIZES, params, RngSeed(9, 3))
        b = coupled_entry_draws(self.SIZES, params, RngSeed(9, 3))
        c = coupled_entry_draws(self.SIZES, params, RngSeed(9, 4))
        for n in self.SIZES:
            np.testing.assert_array_equal(a[n].a, b[n].a)
            np.testing.assert_array_equal(a[n].order, b[n].order)
            assert not np.array_equal(a[n].a, c[n].a)

    def test_top_ranks_keep_sign_and_cell(self):
        params = AlphaParams(0.5, 0.5)
        for r in range(20):
            seed = RngSeed(50, r)
            draws = coupled_entry_draws(self.SIZES, params, seed)
            _, signs, zeta, layout = _coupled_layout(self.SIZES, params.p, seed)
            assert zeta.size == COUPLED_TOP_RANKS
            for n, (positions, redrawn) in layout.items():
                top = min(n, COUPLED_TOP_RANKS)
                order = draws[n].order
                np.testing.assert_array_equal(order[:top], positions[:top])
                # one sign per rank, the same at every size
                np.testing.assert_array_equal(np.sign(draws[n].a[order]), signs[:n])
                kept = ~redrawn
                np.testing.assert_array_equal(
                    positions[:top][kept], np.floor(zeta[:top][kept] * n).astype(int))
            # rank 0 never collides, so its cell is nested across sizes
            p16, p256 = layout[16][0][0], layout[256][0][0]
            assert p16 == p256 // 16

    def test_place_ranks_redraws_taken_cell(self):
        # proposed cells 2, 2, 0 at n = 4: rank 1 always moves to a free
        # cell; rank 2 moves only if rank 1 took cell 0
        seen = set()
        for r in range(30):
            rng = np.random.default_rng(r)
            positions, redrawn = _place_ranks(np.array([0.5, 0.55, 0.0]), 4, rng)
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
        assert np.all(env.zeta >= 0) and np.all(env.zeta <= 0.5)
        assert np.all(env.u >= 0) and np.all(env.u < 1.0)
        assert set(np.unique(env.eps)) <= {-1, 1}

    def test_gamma_law_of_large_numbers(self):
        j = 100_000
        env = sample_environment(j, AlphaParams(0.5), RngSeed(30))
        assert abs(env.gamma[-1] / j - 1.0) < 0.05

    def test_reproducible(self):
        a = sample_environment(50, AlphaParams(1.5, 0.6), RngSeed(4, 2))
        b = sample_environment(50, AlphaParams(1.5, 0.6), RngSeed(4, 2))
        for f in ("gamma", "zeta", "u", "eps"):
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
                tops[r] = draw(RngSeed(1234, r)).sorted_abs[0]
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
