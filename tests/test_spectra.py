import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htt import spectra
from htt.limit_operator import operator_window, projection_unit_vector
from htt.matrices import TruncationLevels
from htt.metrics import levy_distance, support_bound
from htt.sampler import AlphaParams, RngSeed, redraw_phases, sample_environment
from htt.spectra import (
    PointMeasure,
    esd,
    mc_limit_measure,
    quenched_sub_measure,
    resolvent_identity_residual,
    spectral_measure_at,
    window_measure,
)


class TestPointMeasure:
    def test_sorted_and_merged(self):
        m = PointMeasure.from_atoms([3.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_array_equal(m.locations, [0.0, 3.0])
        np.testing.assert_allclose(m.weights, [2 / 3, 1 / 3])

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            PointMeasure(np.array([0.0]), np.array([0.5]))

    def test_cdf_sides(self):
        m = PointMeasure.from_atoms([0.0, 1.0], [0.25, 0.75])
        assert m.cdf(0.0) == 0.25
        assert m.cdf(0.0, side="left") == 0.0
        assert m.cdf(0.5) == 0.25
        assert m.cdf(1.0) == 1.0

    def test_replica_ids_preserved(self):
        m = PointMeasure.from_atoms([1.0, -1.0], [0.5, 0.5], replica_ids=[1, 0])
        np.testing.assert_array_equal(m.replica_ids, [0, 1])
        sub = quenched_sub_measure(m, 1)
        np.testing.assert_array_equal(sub.locations, [1.0])

    def test_reflection(self):
        m = PointMeasure.from_atoms([-1.0, 2.0], [0.25, 0.75])
        r = m.reflected()
        np.testing.assert_array_equal(r.locations, [-2.0, 1.0])
        np.testing.assert_array_equal(r.weights, [0.75, 0.25])


@st.composite
def pooling_parts(draw):
    """1-6 measures of 1-8 atoms, drawn from a small location pool so that
    locations tie within and across parts."""
    pool = draw(st.lists(st.floats(-5, 5), min_size=1, max_size=4))
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 8))
        locs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        raw = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        parts.append(PointMeasure.from_atoms(locs, raw / raw.sum()))
    return parts


class TestPooled:
    @settings(max_examples=100, deadline=None)
    @given(pooling_parts())
    def test_pooling_is_inverted_by_quenched_sub_measure(self, parts):
        pooled = PointMeasure.pooled(parts)
        assert abs(pooled.weights.sum() - 1.0) <= 1e-12
        for r, part in enumerate(parts):
            atoms = pooled.replica_ids == r
            np.testing.assert_array_equal(pooled.locations[atoms], part.locations)
            sub = quenched_sub_measure(pooled, r)
            np.testing.assert_array_equal(sub.locations, part.locations)
            np.testing.assert_allclose(sub.weights, part.weights, rtol=1e-14)
        assert set(pooled.replica_ids) == set(range(len(parts)))

    def test_equal_weight_per_part(self):
        pooled = PointMeasure.pooled([esd([0.0, 1.0]), esd([1.0])])
        np.testing.assert_array_equal(pooled.locations, [0.0, 1.0, 1.0])
        np.testing.assert_array_equal(pooled.weights, [0.25, 0.25, 0.5])
        np.testing.assert_array_equal(pooled.replica_ids, [0, 0, 1])


class TestEsd:
    def test_merging(self):
        m = esd([0.0, 0.0, 3.0])
        np.testing.assert_array_equal(m.locations, [0.0, 3.0])
        np.testing.assert_allclose(m.weights, [2 / 3, 1 / 3])

    def test_singleton(self):
        m = esd([5.0])
        np.testing.assert_array_equal(m.locations, [5.0])
        np.testing.assert_array_equal(m.weights, [1.0])

    def test_mean_is_trace_over_n(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2
        m = esd(np.linalg.eigvalsh(a))
        assert abs(m.weights @ m.locations - np.trace(a) / 6) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            esd([])


class TestSpectralMeasure:
    def test_diagonal_at_basis_vector(self):
        m = spectral_measure_at(np.diag([2.0, 7.0]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(m.locations, [2.0])
        np.testing.assert_allclose(m.weights, [1.0])

    def test_flip_matrix(self):
        m = spectral_measure_at(
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0])
        )
        np.testing.assert_allclose(m.locations, [-1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(m.weights, [0.5, 0.5], atol=1e-12)

    def test_moments_match_quadratic_forms(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a = (a + a.conj().T) / 2
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v /= np.linalg.norm(v)
        m = spectral_measure_at(a, v)
        for r in range(7):
            lhs = m.weights @ m.locations**r
            rhs = np.vdot(v, np.linalg.matrix_power(a, r) @ v).real
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            spectral_measure_at(np.eye(2), np.array([1.0, 1.0]))

    def test_rejects_non_hermitian(self):
        e0 = np.array([1.0, 0.0])
        # real, and complex symmetric: equal to its transpose, not to its adjoint
        for a in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 1j], [1j, 0.0]])):
            with pytest.raises(ValueError, match="not Hermitian"):
                spectral_measure_at(a, e0)


class TestVectorMoment:
    def test_projection_window_center(self):
        # untruncated-band window with unit diagonal: first moment at e0
        # approaches the kernel diagonal 1/2
        from htt.limit_operator import window_from_diagonal

        w = 512
        win = window_from_diagonal(np.ones(2 * (w + 1024) + 1), w, 1024)
        e0 = win.basis_vector(0)
        assert abs(e0 @ win.matrix @ e0 - 0.5) < 1e-3


def _two_step_window_measure(env, levels):
    """The window measure built in two steps, window then vector: the
    oracle of window_measure."""
    window = operator_window(env, levels)
    w = window.half_width
    ks = np.arange(-w, w + 1)
    v = np.where(np.abs(ks) <= levels.core, projection_unit_vector(w), 0.0)
    v = v / np.linalg.norm(v)
    return spectral_measure_at(window.matrix, v)


class TestWindowMeasure:
    @pytest.mark.parametrize("levels", [
        TruncationLevels(m=math.inf, k=300, l=4, w=16, j=300),
        TruncationLevels(m=math.inf, k=300, l=32, w=16, j=300),
        TruncationLevels.coupled(8, w=64, j=300),
        TruncationLevels(m=2.0, k=5, l=1, w=1, j=300),
    ], ids=["band-inside", "band-at-window-reach", "coupled", "smallest"])
    def test_equals_two_step_path(self, levels):
        env = sample_environment(300, AlphaParams(0.7), RngSeed(31))
        got = window_measure(env, levels)
        want = _two_step_window_measure(env, levels)
        np.testing.assert_array_equal(got.locations, want.locations)
        np.testing.assert_array_equal(got.weights, want.weights)


class TestMcLimitMeasure:
    def test_total_mass(self):
        lv = TruncationLevels(m=2.0, k=4, l=4, w=16, j=32)
        m = mc_limit_measure(AlphaParams(0.5), lv, streams=range(3), inner=2, seed=RngSeed(1))
        assert abs(m.weights.sum() - 1.0) <= 1e-12

    def test_tiny_clip_concentrates_at_zero(self):
        # clip ~ 0 forces every series coefficient to ~0: mass piles at 0
        lv = TruncationLevels(m=1e-9, k=4, l=4, w=16, j=32)
        m = mc_limit_measure(AlphaParams(0.5), lv, streams=range(2), inner=1, seed=RngSeed(2))
        inside = m.weights[np.abs(m.locations) <= 1e-6].sum()
        assert inside >= 0.99

    def test_symmetrized_estimate_is_exactly_symmetric(self):
        lv = TruncationLevels(m=2.0, k=4, l=4, w=16, j=32)
        m = mc_limit_measure(AlphaParams(0.5), lv, streams=range(2), inner=1, seed=RngSeed(3))
        r = m.reflected()
        np.testing.assert_array_equal(m.locations, r.locations)
        np.testing.assert_allclose(m.weights, r.weights, atol=1e-15)

    def test_raw_estimate_symmetric_within_mc_error(self):
        # without antithetic mirroring the pooled CDF asymmetry must still
        # be statistically consistent with zero: compare the mean per-replica
        # asymmetry against 4 standard errors
        lv = TruncationLevels(m=math.inf, k=64, l=8, w=64, j=64)
        reps = 40
        m = mc_limit_measure(
            AlphaParams(0.5), lv, streams=range(reps), inner=4, seed=RngSeed(4),
            symmetrize=False,
        )
        assert len(m) >= 10_000
        for x in (0.5, 1.0, 2.0):
            d = np.array(
                [
                    quenched_sub_measure(m, r).cdf(-x)
                    + quenched_sub_measure(m, r).cdf(x, side="left")
                    - 1.0
                    for r in range(reps)
                ]
            )
            assert abs(d.mean()) <= 4.0 * d.std() / np.sqrt(reps) + 1e-12

    def test_quenched_support_bound(self):
        # every atom of each environment's sub-measure lies within the
        # support radius computed from that environment
        params = AlphaParams(0.5)
        lv = TruncationLevels.coupled(8, w=32, j=256)
        seed = RngSeed(5)
        m = mc_limit_measure(params, lv, streams=range(5), inner=1, seed=seed)
        for r in range(5):
            env = sample_environment(lv.j, params, seed.with_stream(r))
            sub = quenched_sub_measure(m, r)
            assert np.abs(sub.locations).max() <= support_bound(env)

    def test_reproducible_and_worker_invariant(self):
        lv = TruncationLevels(m=2.0, k=4, l=4, w=8, j=16)
        a = mc_limit_measure(AlphaParams(0.5), lv, streams=range(3), inner=1, seed=RngSeed(6))
        b = mc_limit_measure(AlphaParams(0.5), lv, streams=range(3), inner=1, seed=RngSeed(6))
        np.testing.assert_array_equal(a.locations, b.locations)
        np.testing.assert_array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("inner", [1, 2, 4])
    def test_phases_redrawn_only_between_windows(self, inner, monkeypatch):
        # inner windows need inner - 1 redraws; none after the last window
        calls = []

        def counting(env, rng):
            calls.append(env)
            return redraw_phases(env, rng)

        monkeypatch.setattr(spectra, "redraw_phases", counting)
        lv = TruncationLevels(m=2.0, k=4, l=2, w=8, j=16)
        replicas = 3
        mc_limit_measure(AlphaParams(0.5), lv, streams=range(replicas), inner=inner,
                         seed=RngSeed(7))
        assert len(calls) == replicas * (inner - 1)

    def test_process_pool_matches_serial(self):
        # the ProcessPoolExecutor path gives byte-identical atoms
        lv = TruncationLevels(m=math.inf, k=256, l=4, w=32, j=256)
        runs = [
            mc_limit_measure(AlphaParams(0.5), lv, streams=range(3), inner=2,
                             seed=RngSeed(9), workers=workers)
            for workers in (1, 2)
        ]
        for field in ("locations", "weights", "replica_ids"):
            serial, pooled = (getattr(m, field) for m in runs)
            assert serial.dtype == pooled.dtype
            assert serial.tobytes() == pooled.tobytes()


class TestResolventIdentity:
    def test_zero_operator_exact(self):
        # arrivals so large the coefficients underflow to zero: the window
        # vanishes and the identity holds with zero residual
        from htt.sampler import Environment

        env = Environment(
            gamma=np.array([1e300, 2e300]),
            # grid indices of the turns 1/8, 1/4 and 3/8, 1/2
            zeta=np.array([1, 2], dtype=np.uint64) << np.uint64(30),
            u=np.array([3, 4], dtype=np.uint64) << np.uint64(30),
            alpha=0.5,
        )
        lv = TruncationLevels(m=math.inf, k=2, l=1, w=32, j=2)
        res = resolvent_identity_residual(env, lv, 1j)
        assert res < 1e-13

    def test_residual_small_and_shrinking(self):
        params = AlphaParams(0.5)
        env = sample_environment(512, params, RngSeed(7))
        res = {}
        for w in (64, 128):
            lv = TruncationLevels(m=1.0, k=4, l=1, w=w, j=512)
            res[w] = resolvent_identity_residual(env, lv, 1j)
        assert res[64] < 5e-3
        assert res[64] / res[128] >= 1.5

    def test_rejects_real_z(self):
        env = sample_environment(8, AlphaParams(0.5), RngSeed(8))
        lv = TruncationLevels(m=1.0, k=2, l=1, w=4, j=8)
        with pytest.raises(ValueError):
            resolvent_identity_residual(env, lv, 1.0)


class TestWindowStability:
    def test_measure_stable_under_window_doubling(self):
        # surrogate for strong convergence: at fixed (m, k, l) the spectral
        # measure at e_0 moves little (on average over environments) when
        # the window doubles
        params = AlphaParams(0.5)
        dists = []
        for seed in range(8):
            env = sample_environment(512, params, RngSeed(500, seed))
            measures = {}
            for w in (256, 512):
                lv = TruncationLevels.coupled(32, w=w, j=512)
                win = operator_window(env, lv)
                measures[w] = spectral_measure_at(win.matrix, win.basis_vector(0))
            dists.append(levy_distance(measures[256], measures[512]))
        assert np.mean(dists) < 1e-2
