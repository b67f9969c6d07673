"""Autocovariance, ESS estimator, and run report tests."""

import json

import numpy as np
import pytest

from lgm.diagnostics import (
    RunReport,
    TABLE_COLUMNS,
    aggregate_reports,
    autocovariance,
    ess_geyer,
    summarize_run,
)


def ar1(t, rho, rng, scale=1.0):
    noise = rng.standard_normal(t)
    x = np.empty(t)
    x[0] = noise[0] / np.sqrt(1 - rho**2)
    for i in range(1, t):
        x[i] = rho * x[i - 1] + noise[i]
    return scale * x


class TestAutocovariance:
    def test_matches_direct_computation(self, rng):
        x = rng.standard_normal(300)
        acov = autocovariance(x, max_lag=20)
        centered = x - x.mean()
        for lag in range(21):
            direct = np.sum(centered[: 300 - lag] * centered[lag:]) / 300
            assert acov[lag] == pytest.approx(direct, abs=1e-12)

    def test_constant_series_gives_zeros(self):
        acov = autocovariance(np.full(50, 3.0), max_lag=5)
        np.testing.assert_array_equal(acov, np.zeros(6))

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="one-dimensional"):
            autocovariance(rng.standard_normal((10, 2)))
        with pytest.raises(ValueError, match="too short"):
            autocovariance(np.arange(5.0))
        with pytest.raises(ValueError, match="max_lag"):
            autocovariance(rng.standard_normal(20), max_lag=20)


class TestEssGeyer:
    def test_iid_series_near_full_size(self):
        rng = np.random.default_rng(0)
        t = 30_000
        ess = ess_geyer(rng.standard_normal(t))
        assert 0.85 * t < ess < 1.15 * t

    def test_positively_correlated_series_shrinks(self):
        rng = np.random.default_rng(1)
        t = 50_000
        ess = ess_geyer(ar1(t, 0.5, rng))
        # integrated autocorrelation time of AR(1) at rho=0.5 is 3
        assert abs(ess - t / 3) < 0.12 * (t / 3)

    def test_antithetic_series_capped_at_size(self):
        # super-efficient chains exist, but the estimate is clipped to T
        rng = np.random.default_rng(2)
        t = 20_000
        assert ess_geyer(ar1(t, -0.6, rng)) == t

    def test_constant_series_reported_as_full(self):
        assert ess_geyer(np.zeros(200)) == 200.0

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="too short"):
            ess_geyer(rng.standard_normal(99))
        with pytest.raises(ValueError, match="one-dimensional"):
            ess_geyer(rng.standard_normal((100, 2)))

    def test_result_clipped_to_sample_size_bounds(self, rng):
        # a strongly trending series has tiny but still positive ESS
        ess = ess_geyer(np.linspace(0, 1, 500) + 0.001 * rng.standard_normal(500))
        assert 1.0 <= ess <= 500.0


class TestRunReport:
    def make_report(self, **overrides):
        fields = dict(
            method="mGrad", seed=0, delta=0.5, kappa=None,
            collect_seconds=2.0, burn_in_seconds=1.0,
            ess_min=100.0, ess_median=150.0, ess_max=200.0,
            acceptance_rate=0.55, matvecs=600, factorizations=0,
            n_samples=200, dimension=3,
        )
        fields.update(overrides)
        return RunReport(**fields)

    def test_throughput_properties(self):
        report = self.make_report()
        assert report.min_ess_per_second == pytest.approx(50.0)
        assert report.min_ess_per_second_total == pytest.approx(100.0 / 3.0)

    def test_zero_time_gives_nan(self):
        report = self.make_report(collect_seconds=0.0, burn_in_seconds=0.0)
        assert np.isnan(report.min_ess_per_second)
        assert np.isnan(report.min_ess_per_second_total)

    def test_json_round_trip(self):
        report = self.make_report(extra={"note": "x"})
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["method"] == "mGrad"
        assert payload["min_ess_per_second"] == pytest.approx(50.0)
        assert payload["note"] == "x"
        assert payload["schema_version"] == 1


class TestSummarizeRun:
    def test_fields_and_degenerate_columns(self, rng):
        t = 400
        samples = np.column_stack([rng.standard_normal(t), np.full(t, 7.0)])
        report = summarize_run(
            samples, method="pCN", seed=3, delta=0.1,
            collect_seconds=1.0, burn_in_seconds=0.5, acceptance_rate=0.25,
            matvecs=t, factorizations=0,
        )
        assert report.n_samples == t
        assert report.dimension == 2
        assert report.degenerate_coords == 1
        assert report.ess_max == t  # the constant column reports full size
        assert 0 < report.ess_min <= t

    def test_rejects_non_matrix_input(self, rng):
        with pytest.raises(ValueError, match="T x n"):
            summarize_run(
                rng.standard_normal(100), method="x", seed=0, delta=None,
                collect_seconds=1.0, burn_in_seconds=0.0, acceptance_rate=0.0,
                matvecs=0, factorizations=0,
            )


class TestAggregateReports:
    def make_report(self, method, seed, ess_min, seconds=2.0, error=None):
        return RunReport(
            method=method, seed=seed, delta=0.3, kappa=None,
            collect_seconds=seconds, burn_in_seconds=0.0,
            ess_min=ess_min, ess_median=ess_min + 10, ess_max=ess_min + 20,
            acceptance_rate=0.5, matvecs=10, factorizations=0,
            n_samples=100, dimension=2, error=error,
        )

    def test_one_row_per_method_with_means(self):
        reports = [
            self.make_report("mGrad", 0, 100.0),
            self.make_report("mGrad", 1, 120.0),
            self.make_report("pCN", 0, 10.0),
        ]
        rows = aggregate_reports(reports)
        assert [row["Method"] for row in rows] == ["mGrad", "pCN"]
        mgrad = rows[0]
        assert mgrad["ESS Min"] == pytest.approx(110.0)
        assert mgrad["Min ESS/s"] == pytest.approx(55.0)
        assert mgrad["Min ESS/s s.d."] > 0
        assert set(rows[0]) == set(TABLE_COLUMNS)

    def test_failed_runs_excluded(self):
        reports = [
            self.make_report("mGrad", 0, 100.0),
            self.make_report("mGrad", 1, float("nan"), error="boom"),
        ]
        rows = aggregate_reports(reports)
        assert len(rows) == 1
        assert rows[0]["ESS Min"] == pytest.approx(100.0)
        assert rows[0]["Min ESS/s s.d."] == 0.0
