"""Tests for metric discretization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.discretization import DEFAULT_BINS, Discretizer


class TestFit:
    def test_requires_2d(self):
        with pytest.raises(ValueError):
            Discretizer().fit(np.array([1.0, 2.0, 3.0]))

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            Discretizer().fit(np.array([[1.0, 2.0]]))

    def test_min_two_bins(self):
        with pytest.raises(ValueError):
            Discretizer(n_bins=1)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            Discretizer(strategy="magic")

    def test_unfitted_transform_rejected(self):
        with pytest.raises(RuntimeError):
            Discretizer().transform(np.zeros((2, 3)))

    def test_n_attributes(self):
        disc = Discretizer().fit(np.random.default_rng(0).normal(size=(50, 4)))
        assert disc.n_attributes == 4


class TestTransform:
    def test_bins_cover_training_range(self):
        data = np.linspace(0, 100, 101).reshape(-1, 1)
        disc = Discretizer(n_bins=10).fit(data)
        bins = disc.transform(data)
        assert bins.min() == 0
        assert bins.max() == 9

    def test_equal_width_bins_uniform(self):
        data = np.linspace(0, 80, 81).reshape(-1, 1)
        disc = Discretizer(n_bins=8).fit(data)
        bins = disc.transform(data)[:, 0]
        counts = np.bincount(bins, minlength=8)
        assert counts.min() >= 9  # roughly uniform

    def test_clamps_out_of_range(self):
        data = np.linspace(0, 10, 20).reshape(-1, 1)
        disc = Discretizer(n_bins=4).fit(data)
        assert disc.transform(np.array([-100.0]))[0] == 0
        assert disc.transform(np.array([100.0]))[0] == 3

    def test_1d_and_2d_shapes(self):
        data = np.random.default_rng(1).normal(size=(30, 3))
        disc = Discretizer().fit(data)
        assert disc.transform(data).shape == (30, 3)
        assert disc.transform(data[0]).shape == (3,)

    def test_wrong_width_rejected(self):
        disc = Discretizer().fit(np.zeros((5, 3)) + np.arange(5)[:, None])
        with pytest.raises(ValueError):
            disc.transform(np.zeros((2, 4)))

    def test_constant_attribute_maps_to_bin_zero(self):
        data = np.column_stack([np.full(20, 7.0), np.arange(20.0)])
        disc = Discretizer(n_bins=5).fit(data)
        bins = disc.transform(data)
        assert (bins[:, 0] == 0).all()

    def test_transform_value_matches_transform(self):
        data = np.random.default_rng(2).normal(size=(40, 2))
        disc = Discretizer().fit(data)
        full = disc.transform(data)
        for i in range(10):
            for j in range(2):
                assert disc.transform_value(j, data[i, j]) == full[i, j]


class TestQuantileStrategy:
    def test_quantile_balances_skewed_data(self):
        rng = np.random.default_rng(3)
        data = rng.lognormal(0, 1.5, size=(500, 1))
        width = Discretizer(n_bins=8, strategy="width").fit(data)
        quant = Discretizer(n_bins=8, strategy="quantile").fit(data)
        wc = np.bincount(width.transform(data)[:, 0], minlength=8)
        qc = np.bincount(quant.transform(data)[:, 0], minlength=8)
        assert qc.std() < wc.std()


class TestCenters:
    def test_center_roundtrip_within_bin(self):
        data = np.linspace(0, 100, 50).reshape(-1, 1)
        disc = Discretizer(n_bins=10).fit(data)
        for value in (5.0, 37.0, 99.0):
            b = disc.transform_value(0, value)
            center = disc.center(0, b)
            assert abs(center - value) <= 10.0 / 2.0 + 1e-9

    def test_center_clamps_index(self):
        data = np.linspace(0, 10, 20).reshape(-1, 1)
        disc = Discretizer(n_bins=4).fit(data)
        assert disc.center(0, -5) == disc.center(0, 0)
        assert disc.center(0, 99) == disc.center(0, 3)


class TestProperties:
    @settings(max_examples=40)
    @given(
        st.lists(
            st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
            min_size=4, max_size=60,
        ),
        st.integers(min_value=2, max_value=16),
    )
    def test_bins_always_in_range(self, values, n_bins):
        data = np.array(values).reshape(-1, 1)
        disc = Discretizer(n_bins=n_bins).fit(data)
        bins = disc.transform(data)
        assert bins.min() >= 0
        assert bins.max() <= n_bins - 1

    @settings(max_examples=40)
    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=4, max_size=40, unique=True,
        )
    )
    def test_monotone_values_monotone_bins(self, values):
        data = np.sort(np.array(values)).reshape(-1, 1)
        disc = Discretizer(n_bins=6).fit(data)
        bins = disc.transform(data)[:, 0]
        assert (np.diff(bins) >= 0).all()


class TestRefit:
    @pytest.mark.parametrize("strategy", ["width", "quantile"])
    def test_refit_is_a_fresh_fit(self, strategy):
        rng = np.random.default_rng(7)
        old = rng.normal(0.0, 100.0, size=(90, 5))
        data = np.column_stack([
            rng.lognormal(0.0, 1.0, 60), np.full(60, 2.0), rng.uniform(size=60),
        ])
        refit = Discretizer(n_bins=6, strategy=strategy).fit(old).fit(data)
        fresh = Discretizer(n_bins=6, strategy=strategy).fit(data)
        assert refit.n_attributes == 3
        assert refit.to_dict() == fresh.to_dict()
        probe = np.vstack([data, old[:, :3]])
        assert refit.transform(probe).tobytes() == fresh.transform(probe).tobytes()

    @pytest.mark.parametrize("strategy", ["width", "quantile"])
    def test_snapshot_roundtrip_transforms_bitwise(self, strategy):
        rng = np.random.default_rng(8)
        data = np.column_stack([
            rng.normal(50.0, 10.0, 80), np.full(80, -4.0), rng.exponential(size=80),
        ])
        disc = Discretizer(n_bins=7, strategy=strategy).fit(data)
        restored = Discretizer.from_dict(disc.to_dict())
        # Out-of-range rows clamp identically on both sides.
        probe = np.vstack([data, data * 5.0 - 100.0, data * -3.0])
        assert restored.transform(probe).tobytes() == disc.transform(probe).tobytes()
        for j in range(3):
            for b in range(7):
                assert restored.center(j, b) == disc.center(j, b)


class TestConstantAttributeRegression:
    def test_idle_then_active_metric_stays_in_bin_zero(self):
        # An attribute flat during training (idle disk, say) must map
        # every later value to bin 0 — the docstring's promise.  The
        # old edges (linspace(lo+1, lo+2)) put values above lo+1 into
        # bins >= 1.
        data = np.column_stack([
            np.zeros(50),                       # idle during training
            np.linspace(0.0, 10.0, 50),
        ])
        disc = Discretizer(n_bins=6).fit(data)
        active = np.column_stack([
            np.linspace(0.0, 400.0, 30),        # bursts after training
            np.linspace(0.0, 10.0, 30),
        ])
        binned = disc.transform(active)
        assert (binned[:, 0] == 0).all()
        assert disc.transform_value(0, 1.5) == 0
        assert disc.transform_value(0, 1e9) == 0

    def test_constant_bins_survive_snapshot_roundtrip(self):
        data = np.column_stack([np.full(20, 7.0), np.arange(20.0)])
        disc = Discretizer(n_bins=4).fit(data)
        restored = Discretizer.from_dict(disc.to_dict())
        assert restored.transform_value(0, 123.0) == 0
        np.testing.assert_array_equal(
            restored.transform(data), disc.transform(data)
        )


class TestSnapshotCompatibility:
    """Snapshots once carried each attribute's training ``"range"``;
    they must still load, and re-serialise without it."""

    @pytest.mark.parametrize("strategy", ["width", "quantile"])
    def test_snapshot_with_range_entries_loads_bitwise(self, strategy):
        rng = np.random.default_rng(5)
        data = np.column_stack([
            rng.normal(50.0, 10.0, 80), np.full(80, 3.0), rng.uniform(size=80),
        ])
        current = Discretizer(n_bins=6, strategy=strategy).fit(data).to_dict()
        legacy = {**current, "bins": [
            {**entry, "range": [float(col.min()), float(col.max())]}
            for entry, col in zip(current["bins"], data.T)
        ]}
        old, new = Discretizer.from_dict(legacy), Discretizer.from_dict(current)
        probe = np.vstack([data, data * 3.0 - 7.0])
        assert old.transform(probe).tobytes() == new.transform(probe).tobytes()
        assert old.to_dict() == current
        assert all("range" not in entry for entry in old.to_dict()["bins"])

    def test_fresh_registry_snapshot_has_no_range_key(self, tmp_path):
        from repro.core.predictor import AnomalyPredictor
        from repro.serve.registry import SCHEMA_VERSION, ModelRegistry

        rng = np.random.default_rng(9)
        values = np.cumsum(rng.normal(size=(120, 3)), axis=0)
        labels = (rng.random(120) < 0.3).astype(int)
        predictor = AnomalyPredictor(["a", "b", "c"], n_bins=6)
        info = ModelRegistry(tmp_path).save(
            "m", {"vm1": predictor.train(values, labels)},
            created_at="2026-01-01T00:00:00+00:00",
        )
        document = (info.path / "snapshot.json").read_text()
        assert '"range"' not in document
        assert f'"schema":{SCHEMA_VERSION}' in document
        restored = ModelRegistry(tmp_path).load("m")["vm1"]
        assert restored.discretizer.to_dict() == predictor.discretizer.to_dict()
