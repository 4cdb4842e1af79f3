import numpy as np
import pytest

from htt.serialize import (
    histogram,
    load_histogram_csv,
    load_measure_csv,
    save_histogram_csv,
    save_measure_csv,
)
from htt.spectra import PointMeasure


class TestMeasureCsv:
    def test_round_trip(self, tmp_path):
        m = PointMeasure.from_atoms(
            [-1.0, 0.5, 2.0], [0.25, 0.25, 0.5], replica_ids=[0, 1, 1]
        )
        path = tmp_path / "m.csv"
        save_measure_csv(path, m)
        header = path.read_text().splitlines()[0]
        assert header == "location,weight,replica_id"
        back = load_measure_csv(path)
        np.testing.assert_array_equal(back.locations, m.locations)
        np.testing.assert_array_equal(back.weights, m.weights)
        np.testing.assert_array_equal(back.replica_ids, m.replica_ids)


class TestHistogram:
    def test_masses_sum_to_total(self):
        m = PointMeasure.from_atoms([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        edges, masses = histogram(m, bins=4)
        assert len(edges) == 5
        assert abs(masses.sum() - 1.0) < 1e-12

    def test_default_bin_rule(self):
        rng = np.random.default_rng(6)
        m = PointMeasure.from_atoms(
            rng.standard_normal(1000), np.full(1000, 1e-3)
        )
        edges, masses = histogram(m)
        assert 5 <= len(masses) <= 512

    def test_single_atom(self):
        edges, masses = histogram(PointMeasure.from_atoms([3.0], [1.0]))
        assert masses.sum() == 1.0

    def test_csv_round_trip(self, tmp_path):
        m = PointMeasure.from_atoms([0.0, 1.0], [0.5, 0.5])
        edges, masses = histogram(m, bins=3)
        path = tmp_path / "h.csv"
        save_histogram_csv(path, edges, masses)
        assert path.read_text().splitlines()[0] == "bin_left,bin_right,mass"
        e2, m2 = load_histogram_csv(path)
        np.testing.assert_array_equal(e2, edges)
        np.testing.assert_array_equal(m2, masses)

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bin_left,bin_right,mass\n0.0,not_a_number,0.5\n")
        with pytest.raises(ValueError):
            load_histogram_csv(path)
