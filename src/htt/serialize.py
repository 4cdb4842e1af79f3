"""File formats: JSON for sampled objects, a dense binary matrix layout,
and CSV for point measures and histograms.

Matrix layout: three little-endian uint64 (rows, cols, components) followed
by row-major float64 values, little-endian; components is 1 for real and 2
for complex (interleaved re, im).  CSV schemas:

* measures:   header ``location,weight,replica_id``
* histograms: header ``bin_left,bin_right,mass``
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .sampler import Environment, EntrySequence
from .spectra import PointMeasure

__all__ = [
    "environment_to_dict",
    "environment_from_dict",
    "entries_to_dict",
    "entries_from_dict",
    "save_json",
    "load_json",
    "save_matrix",
    "load_matrix",
    "save_measure_csv",
    "load_measure_csv",
    "histogram",
    "save_histogram_csv",
    "load_histogram_csv",
]


def environment_to_dict(env: Environment) -> dict:
    return {
        "alpha": env.alpha,
        "p": env.p,
        "gamma": env.gamma.tolist(),
        "zeta": env.zeta.tolist(),
        "u": env.u.tolist(),
        "eps": env.eps.tolist(),
    }


def environment_from_dict(d: dict) -> Environment:
    return Environment(
        gamma=np.asarray(d["gamma"], dtype=float),
        zeta=np.asarray(d["zeta"], dtype=float),
        u=np.asarray(d["u"], dtype=float),
        eps=np.asarray(d["eps"], dtype=np.int64),
        alpha=float(d["alpha"]),
        p=float(d["p"]),
    )


def entries_to_dict(entries: EntrySequence) -> dict:
    return {
        "alpha": entries.alpha,
        "p": entries.p,
        "a": entries.a.tolist(),
        "c_n": entries.c_n,
        "b": entries.b.tolist(),
        "order": entries.order.tolist(),
    }


def entries_from_dict(d: dict) -> EntrySequence:
    b = np.asarray(d["b"], dtype=float)
    order = np.asarray(d["order"], dtype=np.intp)
    return EntrySequence(
        a=np.asarray(d["a"], dtype=float),
        c_n=float(d["c_n"]),
        b=b,
        order=order,
        sorted_abs=np.abs(b)[order],
        alpha=float(d["alpha"]),
        p=float(d["p"]),
    )


def save_json(path, obj: dict):
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True))


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_matrix(path, a: np.ndarray):
    a = np.atleast_2d(a)
    ncomp = 2 if np.iscomplexobj(a) else 1
    dtype = "<c16" if ncomp == 2 else "<f8"
    with open(path, "wb") as fh:
        np.asarray([a.shape[0], a.shape[1], ncomp], dtype="<u8").tofile(fh)
        np.ascontiguousarray(a, dtype=dtype).tofile(fh)


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        rows, cols, ncomp = np.fromfile(fh, dtype="<u8", count=3)
        dtype = "<c16" if ncomp == 2 else "<f8"
        flat = np.fromfile(fh, dtype=dtype, count=int(rows * cols))
    return flat.reshape(int(rows), int(cols)).astype(flat.dtype, copy=False)


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
