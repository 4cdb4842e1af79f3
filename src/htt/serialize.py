"""File formats: CSV for point measures and histograms.  Schemas:

* measures:   header ``location,weight,replica_id``
* histograms: header ``bin_left,bin_right,mass``
"""

from __future__ import annotations

import numpy as np

from .spectra import PointMeasure

__all__ = [
    "save_measure_csv",
    "load_measure_csv",
    "histogram",
    "save_histogram_csv",
    "load_histogram_csv",
]


def save_measure_csv(path, m: PointMeasure):
    ids = m.replica_ids if m.replica_ids is not None else np.zeros(len(m), dtype=int)
    with open(path, "w") as fh:
        fh.write("location,weight,replica_id\n")
        for loc, w, rid in zip(m.locations, m.weights, ids):
            fh.write(f"{float(loc)!r},{float(w)!r},{int(rid)}\n")


def load_measure_csv(path) -> PointMeasure:
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    return PointMeasure.from_atoms(
        data[:, 0], data[:, 1], replica_ids=data[:, 2].astype(int)
    )


def _freedman_diaconis_bins(m: PointMeasure) -> int:
    """Bin count from the weighted interquartile range."""
    cum = np.cumsum(m.weights)
    q1 = m.locations[np.searchsorted(cum, 0.25)]
    q3 = m.locations[np.searchsorted(cum, 0.75)]
    span = m.locations[-1] - m.locations[0]
    iqr = q3 - q1
    if iqr <= 0 or span <= 0:
        return 1
    width = 2.0 * iqr / len(m) ** (1.0 / 3.0)
    return max(1, min(512, int(np.ceil(span / width))))


def histogram(m: PointMeasure, bins: int | None = None):
    """Weighted histogram of a point measure.

    Returns (edges, masses) with ``len(edges) == len(masses) + 1``; masses
    sum to the measure's total mass.  Bin count defaults to the
    Freedman-Diaconis rule.  Bins only affect plots; distances always use
    the raw atoms.
    """
    if bins is None:
        bins = _freedman_diaconis_bins(m)
    lo, hi = m.locations[0], m.locations[-1]
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    masses, _ = np.histogram(m.locations, bins=edges, weights=m.weights)
    return edges, masses


def save_histogram_csv(path, edges: np.ndarray, masses: np.ndarray):
    with open(path, "w") as fh:
        fh.write("bin_left,bin_right,mass\n")
        for left, right, mass in zip(edges[:-1], edges[1:], masses):
            fh.write(f"{float(left)!r},{float(right)!r},{float(mass)!r}\n")


def load_histogram_csv(path):
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    if data.size == 0 or np.isnan(data).any():
        raise ValueError(f"malformed histogram CSV: {path}")
    edges = np.append(data[:, 0], data[-1, 1])
    return edges, data[:, 2]
