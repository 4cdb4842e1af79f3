"""Convergence of the empirical spectral distribution to the limit.

Pooled ESDs of Toeplitz draws at growing sizes are compared, in Levy
distance, against a Monte Carlo estimate of the limiting measure (the
expected spectral measure of the operator window at the projected basis
vector).  The distance decreases with the matrix size.  Scaled-down
version of the `htt limit` experiment; see the acceptance suite for the
full-size run.
"""

from pathlib import Path

from htt import RngSeed, esd, sample_entries, toeplitz_eigvalsh
from htt.experiments import ExperimentConfig, limit_distances, reference_limit_measure
from htt.plots import emit_plots
from htt.serialize import histogram, save_histogram_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

sizes = (128, 512, 2048)
cfg = ExperimentConfig(
    experiment="limit", alpha=0.5, n_list=sizes, ref_envs=60, w=256, seed=4,
    out_dir=str(OUT),
)
print("estimating the limiting measure from 60 environments ...")
ref = reference_limit_measure(cfg)

params = cfg.params()
replicas = 10
per_size = {
    n: [esd(toeplitz_eigvalsh(sample_entries(n, params, RngSeed(4, 1000 * (i + 1) + r)).b))
        for r in range(replicas)]
    for i, n in enumerate(sizes)
}
# htt limit's reduction: pool each size's ESDs, Levy distance to the estimate
pooled, distances = limit_distances(per_size, ref)
for n, d in distances.items():
    print(f"n = {n:5d}: levy distance to the limit estimate {d:.4f}")
    edges, masses = histogram(pooled[n], bins=60)
    save_histogram_csv(OUT / f"demo_esd_n{n}.csv", edges, masses)

edges, masses = histogram(ref, bins=60)
save_histogram_csv(OUT / "demo_reference.csv", edges, masses)
svg = emit_plots(
    [OUT / "demo_esd_n2048.csv", OUT / "demo_reference.csv"],
    out_path=OUT / "demo_overlay.svg",
    title="pooled ESD at n=2048 vs the limit estimate (alpha = 0.5)",
)[0]
print(f"wrote {svg}")
