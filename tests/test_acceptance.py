"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Monte Carlo criteria run at fixed seeds with their stated slacks.  Run
``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
"""

import math
import time

import numpy as np

from htt.experiments import (
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    _stream_blocks,
    corner_embedding_deviation,
    limit_distances,
    reference_limit_measure,
    run_equidistribution,
)
from htt.limit_operator import CosineSeries, operator_window, series_value, shift_environment
from htt.matrices import (
    TruncationLevels,
    build_circulant,
    build_toeplitz,
    circulant_eigs,
    projection_matrix,
    toeplitz_eigvalsh,
)
from htt.metrics import levy_distance, mgf, subgaussian_bound, support_bound
from htt.sampler import (
    AlphaParams,
    RngSeed,
    coupled_entry_draws,
    default_series_length,
    sample_entries,
    sample_environment,
)
from htt.spectra import (
    PointMeasure,
    esd,
    resolvent_identity_residual,
    window_measure,
)
from oracles import dft_matrix, ks_distance

SEED = 20240901


def _verdict(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_esd_identity():
    # sorted spectra of [[T,0],[0,0]] and P D P agree to 1e-8 over 20 draws
    # at each n in {4, 16, 64}; runtime < 10 s
    t0 = time.perf_counter()
    worst = 0.0
    for i, n in enumerate((4, 16, 64)):
        for r in range(20):
            entries = sample_entries(n, AlphaParams(0.5, 0.5), RngSeed(SEED, 100 * i + r))
            worst = max(worst, corner_embedding_deviation(entries)[0])
    dt = time.perf_counter() - t0
    _verdict(1, "esd-identity", worst <= 1e-8 and dt < 10.0,
             f"max deviation {worst:.2e} <= 1e-08; {dt:.1f}s < 10s")


def test_criterion_02_circulant_diagonalization():
    # eigenvalue formula vs dense eigendecomposition, 1e-10 relative, n <= 128
    t0 = time.perf_counter()
    worst = 0.0
    for i, n in enumerate((1, 2, 3, 5, 8, 16, 32, 64, 128)):
        for r in range(3):
            entries = sample_entries(n, AlphaParams(0.5, 0.5), RngSeed(SEED, 10 * i + r))
            d = np.sort(circulant_eigs(entries))
            ev = np.sort(np.linalg.eigvalsh(build_circulant(entries)))
            scale = max(1.0, np.abs(d).max())
            worst = max(worst, np.abs(d - ev).max() / scale)
    dt = time.perf_counter() - t0
    _verdict(2, "circulant-diagonalization", worst <= 1e-10 and dt < 10.0,
             f"max relative deviation {worst:.2e} <= 1e-10; {dt:.1f}s < 10s")


def test_criterion_03_projection_formula():
    # closed-form projection entries vs direct F* Q F, max deviation 1e-12
    worst = 0.0
    for n in (1, 2, 3, 4, 6, 8, 16, 32, 64, 128):
        p = projection_matrix(n)
        f = dft_matrix(2 * n)
        q = np.zeros((2 * n, 2 * n))
        q[:n, :n] = np.eye(n)
        worst = max(worst, np.abs(p - f.conj().T @ q @ f).max())
    _verdict(3, "projection-formula", worst <= 1e-12,
             f"max entry deviation {worst:.2e} <= 1e-12")


def test_criterion_04_ergodic_shift():
    # series under an l-fold phase shift equals the series at offset k + l,
    # to 1e-12, over 1000 random (environment, k, l); runtime < 5 s
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for trial in range(1000):
        env = sample_environment(128, AlphaParams(0.5, 0.5), RngSeed(SEED, trial))
        k = int(rng.integers(-100, 101))
        l = int(rng.integers(-100, 101))
        lhs = series_value(CosineSeries(shift_environment(env, l)), k)
        rhs = series_value(CosineSeries(env), k + l)
        worst = max(worst, abs(lhs - rhs))
    dt = time.perf_counter() - t0
    _verdict(4, "ergodic-shift", worst <= 1e-12 and dt < 5.0,
             f"max deviation {worst:.2e} <= 1e-12; {dt:.1f}s < 5s")


def test_criterion_05_stieltjes_identity():
    # resolvent identity residual at z = i: mean over 20 environments below
    # 1e-3 at window 256 (projection untruncated at window scale), and the
    # mean residual shrinks by >= 1.5x when the window doubles; < 60 s
    t0 = time.perf_counter()
    params = AlphaParams(0.5, 0.5)
    res = {256: [], 512: []}
    for r in range(20):
        env = sample_environment(512, params, RngSeed(SEED, 700 + r))
        for w in (256, 512):
            lv = TruncationLevels(m=1.0, k=4, l=1, w=w, j=512)
            res[w].append(resolvent_identity_residual(env, lv, 1j))
    mean256 = float(np.mean(res[256]))
    mean512 = float(np.mean(res[512]))
    shrink = mean256 / mean512
    dt = time.perf_counter() - t0
    _verdict(5, "stieltjes-identity",
             mean256 < 1e-3 and shrink >= 1.5 and dt < 60.0,
             f"mean residual {mean256:.2e} < 1e-03 (max {max(res[256]):.2e}), "
             f"shrink x{shrink:.2f} >= 1.5; {dt:.1f}s < 60s")


def test_criterion_06_interlacing():
    # circulant-embedding eigenvalues interlace the Toeplitz ones with
    # slack 1e-9, zero violations over 50 replicas at n = 64, using the
    # independent-copy wrap entry
    n = 64
    params = AlphaParams(0.5, 0.5)
    wrap_rng = RngSeed(SEED, 911).generator()
    violations = 0
    worst = -math.inf
    for r in range(50):
        entries = sample_entries(n, params, RngSeed(SEED, 800 + r))
        sign = 1.0 if wrap_rng.random() < params.p else -1.0
        wrap = sign * (1.0 - wrap_rng.random()) ** (-1.0 / params.alpha) / entries.c_n
        g = np.linalg.eigvalsh(build_circulant(entries, wrap_entry=wrap))
        t = np.linalg.eigvalsh(build_toeplitz(entries))
        v = max(np.max(g[:n] - t), np.max(t - g[n:]))
        worst = max(worst, v)
        violations += v > 1e-9
    _verdict(6, "interlacing", violations == 0,
             f"0 violations required, saw {violations}/50 (worst signed gap {worst:.2e})")


def test_criterion_07_support_bound():
    # alpha = 0.5: every window eigenvalue of the coupled truncation lies
    # within the support radius (sampled sum plus analytic tail), zero
    # violations over 100 environments
    params = AlphaParams(0.5, 0.5)
    j = default_series_length(0.5)
    levels = TruncationLevels.coupled(64, w=512, j=j)
    violations = 0
    worst = 0.0
    for r in range(100):
        env = sample_environment(j, params, RngSeed(SEED, 1000 + r))
        window = operator_window(env, levels)
        top = float(np.abs(np.linalg.eigvalsh(window.matrix)).max())
        ratio = top / support_bound(env)
        worst = max(worst, ratio)
        violations += ratio > 1.0
    _verdict(7, "support-bound", violations == 0,
             f"0 violations over 100 environments (worst |eig|/radius {worst:.3f})")


def test_criterion_08_subgaussian_mgf():
    # quenched MGF of the window measure at the projected vector is within
    # 10% of the subgaussian bound at beta in {0.5, 1}; at least 95% of 100
    # environments pass, at alpha in {0.5, 1.5}
    fractions = {}
    for a_idx, alpha in enumerate((0.5, 1.5)):
        params = AlphaParams(alpha, 0.5)
        j = default_series_length(alpha)
        levels = TruncationLevels(m=math.inf, k=j, l=32, w=256, j=j)
        passed = {0.5: 0, 1.0: 0}
        for r in range(100):
            env = sample_environment(j, params, RngSeed(SEED, 2000 + 500 * a_idx + r))
            sym = window_measure(env, levels).mirrored()
            for beta in (0.5, 1.0):
                if mgf(sym, beta) <= 1.10 * subgaussian_bound(env, beta):
                    passed[beta] += 1
        for beta in (0.5, 1.0):
            fractions[(alpha, beta)] = passed[beta] / 100.0
    ok = all(f >= 0.95 for f in fractions.values())
    detail = ", ".join(
        f"alpha={a} beta={b}: {100 * f:.0f}%" for (a, b), f in fractions.items()
    )
    _verdict(8, "subgaussian-mgf", ok, f"pass rates >= 95% required: {detail}")


def test_criterion_09_limit_convergence():
    # annealed Levy distance between pooled ESDs (20 replicas) and the
    # Monte Carlo limit estimate (200 environments, window 512) strictly
    # decreases over n in {256, 1024, 4096} with slack 0.005; < 10 min.
    # A single heavy-tailed ESD does not self-average (its limit is a
    # random measure), so replicas are coupled across sizes through their
    # largest entries, which set that random limit; each size is still an
    # exact i.i.d. sample, so every pooled ESD keeps its law
    t0 = time.perf_counter()
    n_list = (256, 1024, 4096)
    replicas = 20
    cfg = ExperimentConfig(
        experiment="limit", alpha=0.5, p=0.5, n_list=n_list,
        replicas=replicas, ref_envs=200, w=512, seed=SEED,
    )
    ref = reference_limit_measure(cfg)
    per_size = {n: [] for n in n_list}
    for stream in _stream_blocks(cfg)["replicas"]:
        draws = coupled_entry_draws(n_list, cfg.params(), RngSeed(SEED, stream))
        for n, entries in draws.items():
            per_size[n].append(esd(toeplitz_eigvalsh(entries.b)))
    # htt limit's own reduction: pool each size, Levy distance to the reference
    distances = list(limit_distances(per_size, ref)[1].values())
    dt = time.perf_counter() - t0
    # diagnostic: did the replicas move together from size to size?
    medians = [float(np.median([levy_distance(m, ref) for m in per_size[n]]))
               for n in n_list]
    slack = DEFAULT_TOLERANCES["limit_trend_slack"]
    ok = all(b - a <= slack for a, b in zip(distances, distances[1:])) and dt < 600.0
    details = "; ".join(
        f"levy distance at n={n}: {d:.6f} (median per replica {m:.6f})"
        for n, d, m in zip(n_list, distances, medians)
    )
    _verdict(9, "limit-convergence", ok, f"{details}; slack {slack}; {dt:.0f}s < 600s")


def test_criterion_10_moment_bound():
    # |<e0, A^r e0>| <= (m k)^r 2^(-2r) (2l+1)^(2r-1) for r <= 4 on 50
    # random windows, zero violations
    params = AlphaParams(0.5, 0.5)
    rng = np.random.default_rng(SEED)
    violations = 0
    for trial in range(50):
        l = int(rng.choice([4, 8, 16]))
        m = float(rng.uniform(0.5, 3.0))
        k = int(rng.integers(1, 6))
        levels = TruncationLevels(m=m, k=k, l=l, w=4 * l, j=128)
        env = sample_environment(128, params, RngSeed(SEED, 3000 + trial))
        window = operator_window(env, levels)
        e0 = window.basis_vector(0).astype(complex)
        vec = e0.copy()
        for r in range(1, 5):
            vec = window.matrix @ vec
            moment = abs(np.vdot(e0, vec).real)
            bound = (m * k) ** r * 2.0 ** (-2 * r) * (2 * l + 1) ** (2 * r - 1)
            violations += moment > bound
    _verdict(10, "moment-bound", violations == 0,
             f"0 violations required over 50 windows x r<=4, saw {violations}")


def test_criterion_11_metric_properties():
    # levy distance reproduces min(a, 1) on point masses to 1e-10; is
    # dominated by the KS distance on 100 random pairs; and the cubed
    # distance obeys the Frobenius bound with 5% slack on 100 pairs
    delta = lambda x: PointMeasure.from_atoms([x], [1.0])
    point_ok = all(
        abs(levy_distance(delta(0.0), delta(a)) - min(a, 1.0)) <= 1e-10
        for a in (0.3, 0.9, 5.0)
    )
    rng = np.random.default_rng(SEED + 1)

    def random_measure():
        n = int(rng.integers(1, 9))
        w = rng.random(n) + 1e-3
        return PointMeasure.from_atoms(rng.standard_normal(n) * 2.0, w / w.sum())

    dominated = all(
        levy_distance(m1, m2) <= ks_distance(m1, m2) + 1e-12
        for m1, m2 in ((random_measure(), random_measure()) for _ in range(100))
    )
    hw_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 33))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        b = a + rng.standard_normal((n, n)) * rng.uniform(0.01, 0.5)
        b = (b + b.T) / 2
        d = levy_distance(esd(np.linalg.eigvalsh(a)), esd(np.linalg.eigvalsh(b)))
        hw_ok &= d**3 <= 1.05 * np.sum((a - b) ** 2) / n
    _verdict(11, "metric-properties", point_ok and dominated and hw_ok,
             f"point masses exact: {point_ok}, levy <= ks: {dominated}, "
             f"cubed-distance Frobenius bound: {hw_ok}")


def test_criterion_12_equidistribution(tmp_path):
    # per-coordinate KS statistic of the rescaled top-frequency dilations
    # against U[0,1) below the 1% critical value; 4 coordinates, n = 1e4,
    # 1000 replicas
    cfg = ExperimentConfig(
        experiment="equidist",
        alpha=0.5,
        p=0.5,
        n_list=(10_000,),
        replicas=1000,
        top_coords=4,
        seed=SEED,
        out_dir=str(tmp_path),
    )
    report = run_equidistribution(cfg)
    ks = [c for c in report.checks if c.name.startswith("ks_uniform")]
    ok = len(ks) == 4 and all(c.passed for c in ks)
    stats = ", ".join(f"{c.observed:.4f}" for c in ks)
    _verdict(12, "equidistribution", ok,
             f"KS statistics {stats} all below critical value {ks[0].threshold:.4f}")
