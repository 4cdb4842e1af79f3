import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htt.metrics import (
    levy_distance,
    log_mgf,
    mgf,
    series_tail_estimate,
    subgaussian_bound,
    support_bound,
)
from htt.sampler import AlphaParams, Environment, RngSeed, sample_environment
from htt.spectra import PointMeasure, esd
from oracles import ks_distance


def _delta(x):
    return PointMeasure.from_atoms([x], [1.0])


def _random_measure(rng, max_atoms=8, scale=2.0):
    n = int(rng.integers(1, max_atoms + 1))
    w = rng.random(n) + 1e-3
    return PointMeasure.from_atoms(rng.standard_normal(n) * scale, w / w.sum())


@st.composite
def measures(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    locs = draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    return PointMeasure.from_atoms(np.asarray(locs), np.asarray(raw) / np.sum(raw))


def _bisection_levy(m1, m2, width=1e-12):
    """Oracle: the smallest corridor width in [0, 1] at which each CDF stays
    within the other's corridor, bisected down to ``width``.  For step CDFs
    F1(t - eps) - F2(t) peaks just after an atom of m1 enters the shifted CDF,
    so checking F2(x + eps) >= F1(x) - eps at the atoms x of m1 (and the
    same with the roles swapped) decides a width."""
    own1, own2 = m1.cdf(m1.locations), m2.cdf(m2.locations)

    def feasible(eps):
        return not (np.any(own1 - eps > m2.cdf(m1.locations + eps))
                    or np.any(own2 - eps > m1.cdf(m2.locations + eps)))

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def levy_measures(draw):
    """1-39 atoms: either equal weights on a dyadic grid (exact ties and
    dyadic distances) or random weights at floats scaled up to 1e6."""
    n = draw(st.integers(min_value=1, max_value=39))
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(-128, 128), min_size=n, max_size=n))
        return PointMeasure.from_atoms(np.asarray(ks) / 64.0, np.full(n, 1.0 / n))
    scale = draw(st.sampled_from((1.0, 1e6)))
    locs = draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    raw = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return PointMeasure.from_atoms(scale * np.asarray(locs), raw / raw.sum())


class TestLevy:
    def test_identical_zero(self):
        m = _random_measure(np.random.default_rng(0))
        assert levy_distance(m, m) == 0.0

    def test_point_masses_closed_form(self):
        # d(delta_0, delta_a) = min(a, 1)
        for a, expect in ((0.3, 0.3), (0.9, 0.9), (5.0, 1.0)):
            d = levy_distance(_delta(0.0), _delta(a))
            assert abs(d - expect) <= 1e-10

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m1, m2 = _random_measure(rng), _random_measure(rng)
            assert levy_distance(m1, m2) == levy_distance(m2, m1)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, c = (_random_measure(rng) for _ in range(3))
            assert levy_distance(a, c) <= (
                levy_distance(a, b) + levy_distance(b, c) + 1e-12
            )

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = levy_distance(_random_measure(rng), _random_measure(rng, scale=30))
            assert 0.0 <= d <= 1.0

    def test_dominated_by_ks(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m1, m2 = _random_measure(rng), _random_measure(rng)
            assert levy_distance(m1, m2) <= ks_distance(m1, m2) + 1e-12

    def test_rejects_unnormalized(self):
        # distances need probability measures, and PointMeasure holds no other
        with pytest.raises(ValueError, match="not 1"):
            PointMeasure(np.array([0.0]), np.array([0.7]))

    @settings(max_examples=60, deadline=None)
    @given(measures(), measures())
    def test_metric_properties_hypothesis(self, m1, m2):
        d = levy_distance(m1, m2)
        assert 0.0 <= d <= 1.0
        assert d == levy_distance(m2, m1)
        assert d <= ks_distance(m1, m2) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(levy_measures(), levy_measures())
    def test_matches_bisection(self, m1, m2):
        # the bisection stops at the first feasible width past the exact one
        exact = levy_distance(m1, m2)
        assert exact - 1e-15 <= _bisection_levy(m1, m2) <= exact + 1e-12

    def test_pooled_replica_atoms(self):
        # pooled measures keep tied atoms apart when they carry replica ids
        locs = np.array([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])
        m1 = PointMeasure.from_atoms(locs, np.full(6, 1 / 6), replica_ids=[0, 1, 0, 1, 0, 1])
        m2 = PointMeasure.from_atoms([0.25, 1.0, 1.5], [0.5, 0.25, 0.25])
        assert levy_distance(m1, m1) == 0.0
        exact = levy_distance(m1, m2)
        assert exact - 1e-15 <= _bisection_levy(m1, m2) <= exact + 1e-12


class TestKs:
    def test_identical_zero(self):
        m = _random_measure(np.random.default_rng(5))
        assert ks_distance(m, m) == 0.0

    def test_disjoint_point_masses(self):
        assert ks_distance(_delta(0.0), _delta(0.5)) == 1.0
        assert ks_distance(_delta(0.0), _delta(50.0)) == 1.0

    def test_one_sided_limits_matter(self):
        # measures sharing a breakpoint: the sup lives at the left limit
        m1 = PointMeasure.from_atoms([0.0, 1.0], [0.5, 0.5])
        m2 = PointMeasure.from_atoms([0.0, 1.0], [0.1, 0.9])
        assert abs(ks_distance(m1, m2) - 0.4) < 1e-15


class TestMgf:
    def test_point_mass_at_zero(self):
        for beta in (-3.0, 0.0, 2.0):
            assert mgf(_delta(0.0), beta) == 1.0

    def test_rademacher_cosh(self):
        m = PointMeasure.from_atoms([-1.0, 1.0], [0.5, 0.5])
        assert abs(mgf(m, 1.7) - math.cosh(1.7)) < 1e-12

    def test_beta_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            assert abs(mgf(_random_measure(rng), 0.0) - 1.0) < 1e-12

    def test_overflow_guarded(self):
        m = _delta(1000.0)
        assert log_mgf(m, 2.0) == 2000.0
        assert mgf(m, 2.0) == math.inf

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = _random_measure(rng)
            beta = float(rng.uniform(0.1, 2.0))
            assert mgf(m, beta) * mgf(m, -beta) >= 1.0 - 1e-12


def _env_from_gamma(gamma, alpha=0.5):
    gamma = np.asarray(gamma, dtype=float)
    n = len(gamma)
    return Environment(
        gamma=gamma,
        zeta=np.zeros(n, dtype=np.uint64),
        u=np.zeros(n, dtype=np.uint64),
        alpha=alpha,
    )


class TestSubgaussianBound:
    def test_beta_zero(self):
        env = _env_from_gamma([1.0, 2.0])
        assert subgaussian_bound(env, 0.0) == 2.0

    def test_single_term(self):
        # the partial sum 1 plus the tail estimate of the unsampled j >= 1
        env = _env_from_gamma([1.0])
        for beta in (0.5, 1.0):
            s = 1.0 + series_tail_estimate(1, 4.0)
            assert subgaussian_bound(env, beta) == 2.0 * math.exp(2.0 * beta * beta * s)
            assert subgaussian_bound(env, beta) > 2.0 * math.exp(2.0 * beta * beta)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            subgaussian_bound(_env_from_gamma([1.0], alpha=2.5), 1.0)


class TestSupportBound:
    def test_single_term(self):
        env = _env_from_gamma([1.0])
        assert support_bound(env) == 2.0 + 2.0 * series_tail_estimate(1, 2.0)

    def test_geometric_series(self):
        # gamma = (1, 2, 4, ...): 2 * sum 4^-j = 8/3, plus the tail estimate
        env = _env_from_gamma(2.0 ** np.arange(30))
        expect = 8.0 / 3.0 + 2.0 * series_tail_estimate(30, 2.0)
        assert abs(support_bound(env) - expect) < 1e-12

    def test_divergence_at_alpha_one(self):
        for alpha in (1.0, 1.5):
            assert support_bound(_env_from_gamma([1.0, 2.0], alpha)) == math.inf

    def test_tail_estimate_positive(self):
        env = _env_from_gamma([1.0, 2.0, 3.0])
        assert support_bound(env) > 2.0 * np.sum(env.gamma ** -2.0)
        assert series_tail_estimate(3, 2.0) > 0
        assert series_tail_estimate(3, 1.0) == math.inf


class TestHoffmanWielandt:
    def test_cubed_levy_bounded_by_frobenius(self):
        # d_L(esd A, esd B)^4 <= d_L^3 <= ||A - B||_F^2 / n, 5% slack
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            b = a + rng.standard_normal((n, n)) * rng.uniform(0.01, 0.5)
            b = (b + b.T) / 2
            ma, mb = esd(np.linalg.eigvalsh(a)), esd(np.linalg.eigvalsh(b))
            d = levy_distance(ma, mb)
            rhs = np.sum((a - b) ** 2) / n
            assert d**4 <= d**3 * 1.0000001
            assert d**3 <= rhs * 1.05


class TestQuenchedBoundsOnSamples:
    def test_window_measure_respects_mgf_bound(self):
        # quenched check at unit-test scale: the symmetrized window measure
        # at the unit vector satisfies the subgaussian MGF bound per draw
        from htt.matrices import TruncationLevels
        from htt.spectra import window_measure

        params = AlphaParams(0.5, 0.5)
        lv = TruncationLevels(m=math.inf, k=500, l=16, w=128, j=500)
        for r in range(10):
            env = sample_environment(500, params, RngSeed(600, r))
            sym = window_measure(env, lv).mirrored()
            for beta in (0.5, 1.0):
                assert mgf(sym, beta) <= 1.1 * subgaussian_bound(env, beta)
