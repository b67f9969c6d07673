"""Benchmark harness tests: config schema, datasets, orchestration, outputs."""

import json
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest

import lgm.harness as harness
from lgm.harness import (
    ConfigError,
    KIND_STREAM_INDEX,
    RUNS_CSV_COLUMNS,
    TIMING_FIELDS,
    benchmark_single,
    determinism_digest,
    down_sample_cox,
    format_summary_table,
    load_dataset,
    parse_config,
    resolve_dataset,
    run_benchmark,
    simulate_dataset,
    validate_config,
    validate_simulate_spec,
    write_benchmark_outputs,
    write_dataset,
)
from lgm.samplers import DISPLAY_NAMES, MATVEC_BUDGET, Chain, SamplerKind
from lgm.spectral import TorusPrior, eigendecompose_covariance
from lgm.targets import GaussianRegression, PoissonCounts, TargetModel, squared_exponential_kernel

from conftest import make_spd


class NanGradientTarget(TargetModel):
    """f identically zero with a NaN gradient: every gradient proposal is rejected."""

    def __init__(self, dimension: int):
        self.dimension = dimension

    def evaluate(self, x):
        return 0.0, np.full_like(x, np.nan)


def base_config(**overrides):
    raw = {
        "model": "regression",
        "simulate": {"n": 12, "sigma2": 0.5, "seed": 3},
        "samplers": ["mgrad", "pcn"],
        "seeds": [0, 1],
        "burn_in": 200,
        "collect": 150,
    }
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_valid_config_parses(self):
        config = validate_config(base_config())
        assert config.model == "regression"
        assert config.samplers == (SamplerKind.MGRAD, SamplerKind.PCN)
        assert config.seeds == (0, 1)
        assert config.thin == 1
        assert config.hyper_mode == "fixed"

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="config"):
            validate_config(base_config(extra_knob=1))

    def test_exactly_one_data_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(base_config(dataset={"path": "x.csv"}))
        raw = base_config()
        del raw["simulate"]
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(raw)

    def test_bad_sampler_name(self):
        with pytest.raises(ConfigError, match="samplers"):
            validate_config(base_config(samplers=["mgrad", "nuts"]))

    def test_duplicate_sampler(self):
        with pytest.raises(ConfigError, match="repeats"):
            validate_config(base_config(samplers=["pcn", "pcn"]))

    def test_seed_validation(self):
        with pytest.raises(ConfigError, match="seeds"):
            validate_config(base_config(seeds=[]))
        with pytest.raises(ConfigError, match="seeds"):
            validate_config(base_config(seeds=[0, -1]))
        with pytest.raises(ConfigError, match="seeds"):
            validate_config(base_config(seeds=[True]))
        with pytest.raises(ConfigError, match=r"config\.seeds repeats a seed"):
            validate_config(base_config(seeds=[3, 1, 3]))

    def test_run_length_floors(self):
        with pytest.raises(ConfigError, match="burn_in"):
            validate_config(base_config(burn_in=10))
        with pytest.raises(ConfigError, match="collect"):
            validate_config(base_config(collect=5))
        with pytest.raises(ConfigError, match="thin"):
            validate_config(base_config(thin=0))

    def test_hyper_learning_requires_the_auxiliary_kernel(self):
        raw = base_config(hyper={"mode": "joint"})
        with pytest.raises(ConfigError, match="agrad-z"):
            validate_config(raw)
        raw = base_config(samplers=["agrad-z"], hyper={"mode": "joint", "kappa": 0.5})
        config = validate_config(raw)
        assert config.hyper_mode == "joint"
        assert config.hyper["kappa"] == 0.5

    def test_theta0_holds_exactly_the_log_amplitude(self):
        for theta0 in ([], [0.0, 1.0]):
            raw = base_config(samplers=["agrad-z"], hyper={"mode": "joint", "theta0": theta0})
            with pytest.raises(ConfigError, match="config.hyper.theta0"):
                validate_config(raw)
        raw = base_config(samplers=["agrad-z"], hyper={"mode": "joint", "theta0": [0.5]})
        assert validate_config(raw).hyper["theta0"] == [0.5]

    @pytest.mark.parametrize("mode", ["joint", "gibbs"])
    def test_hyper_learning_refuses_thinning(self, mode):
        # a theta run records one (theta, x) sample per sweep and never reads thin
        raw = base_config(samplers=["agrad-z"], hyper={"mode": mode}, thin=5)
        with pytest.raises(ConfigError, match=r"config\.thin must be 1"):
            validate_config(raw)
        assert validate_config(base_config(samplers=["agrad-z"], hyper={"mode": mode}, thin=1)).thin == 1
        assert validate_config(base_config(thin=5)).thin == 5

    def test_dataset_without_kernel_takes_the_manifest_kernel(self, tmp_path):
        bundle = simulate_dataset("regression", {"n": 25, "seed": 7, "sigma2": 0.3, "lengthscale2": 0.05,
                                                 "amplitude": 2.0})
        paths = write_dataset(bundle, tmp_path)
        raw = base_config(dataset={"path": str(paths["data"])})
        del raw["simulate"]
        loaded = resolve_dataset(validate_config(raw))
        np.testing.assert_array_equal(loaded.covariance, bundle.covariance)
        assert loaded.manifest["kernel"] == {"type": "squared_exponential", "lengthscale2": 0.05, "amplitude": 2.0}

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        raw = base_config(out="results")
        config = validate_config(raw, base_dir=tmp_path)
        assert config.out == tmp_path / "results"

    def test_parse_config_reads_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()))
        assert parse_config(path).model == "regression"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(path)


FIELD_TABLES = (
    [("config", None, harness.CONFIG_TABLE), ("hyper", None, harness.HYPER_TABLE)]
    + [("simulate", model, table) for model, table in harness.SIMULATE_TABLES.items()]
    + [("kernel", ktype, table) for ktype, table in harness.KERNEL_TABLES.items()]
    + [("likelihood", model, table) for model, table in harness.LIKELIHOOD_TABLES.items()]
)


def config_with(section, variant, key, value):
    """A valid config but for ``value`` at ``key`` of one section; returns it and the section's path."""
    if section == "config":
        return base_config(**{key: value}), "config"
    if section == "hyper":
        return base_config(samplers=["agrad-z"], hyper={"mode": "joint", key: value}), "config.hyper"
    if section == "simulate":
        return base_config(model=variant, simulate={key: value}), "config.simulate"
    if section == "kernel":
        model, simulate = ("cox", {"side": 4}) if variant == "grid_exponential" else ("regression", {"n": 12})
        return base_config(model=model, simulate=simulate, kernel={"type": variant, key: value}), "config.kernel"
    raw = base_config(model=variant, dataset={"path": "d.csv"}, likelihood={key: value})
    del raw["simulate"]
    return raw, "config.likelihood"


def bad_numbers():
    """Every numeric key of the field tables, with each value its field must refuse."""
    for section, variant, table in FIELD_TABLES:
        for key, field in table.items():
            kind = field.item or field.kind
            if kind not in (int, float):
                continue
            bad = {"nan": float("nan"), "inf": float("inf"), "string": "abc"}
            if field.low is not None:
                bad["below"] = kind(field.low - 1)
            if field.above:
                bad["at-bound"] = kind(field.low)
            # a list field holds the bad value as its first entry
            tail = list(field.default[1:]) if isinstance(field.default, tuple) else []
            for label, value in bad.items():
                placed = [value, *tail] if field.item else value
                yield pytest.param(section, variant, key, placed, id=f"{section}-{variant}-{key}-{label}")


class TestFieldTables:
    @pytest.mark.parametrize("section, variant, key, value", bad_numbers())
    def test_every_numeric_key_refuses_non_finite_mistyped_and_out_of_bound_values(
        self, tmp_path, section, variant, key, value
    ):
        raw, path = config_with(section, variant, key, value)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))  # NaN and Infinity as JSON writes them
        with pytest.raises(ConfigError, match=re.escape(f"{path}.{key}")):
            parse_config(config)

    @pytest.mark.parametrize("section, variant", [pytest.param(s, v, id=f"{s}-{v}") for s, v, _ in FIELD_TABLES])
    def test_every_section_names_an_unknown_key_by_its_path(self, section, variant):
        raw, path = config_with(section, variant, "bogus", 1)
        with pytest.raises(ConfigError, match=re.escape(f"{path}.bogus")):
            validate_config(raw)

    def test_kernel_keys_left_out_stay_none(self):
        config = validate_config(base_config(kernel={"type": "grid_exponential"}))
        assert config.kernel == {"type": "grid_exponential", "jitter": 0.0, "side": None, "beta": None,
                                 "amplitude": None, "scale_divisor": None}

    def test_every_json_config_block_in_the_readme_validates(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) >= 3
        for block in blocks:
            validate_config(json.loads(block), base_dir=tmp_path)


class TestSimulateSpec:
    def test_defaults_filled(self):
        spec = validate_simulate_spec("regression", {})
        assert spec["n"] == 200
        assert spec["sigma2"] == 1.0
        cox = validate_simulate_spec("cox", {})
        assert cox["side"] == 16
        assert cox["scale_divisor"] == 16.0

    def test_cox_side_must_be_even(self):
        with pytest.raises(ConfigError, match="even"):
            validate_simulate_spec("cox", {"side": 15})

    def test_input_range_validated(self):
        with pytest.raises(ConfigError, match="input_range"):
            validate_simulate_spec("regression", {"input_range": [5, 1]})


class TestSimulateDataset:
    def test_regression_reproducible_by_seed(self):
        a = simulate_dataset("regression", {"n": 30, "seed": 11, "sigma2": 0.2})
        b = simulate_dataset("regression", {"n": 30, "seed": 11, "sigma2": 0.2})
        np.testing.assert_array_equal(a.observations, b.observations)
        assert a.target.dimension == 30
        assert a.covariance.shape == (30, 30)

    def test_cox_offset_and_exposure(self):
        bundle = simulate_dataset("cox", {"side": 8, "seed": 1, "amplitude": 1.91, "mean_count": 126.0})
        assert bundle.target.exposure == pytest.approx(1.0 / 64)
        assert bundle.target.offset == pytest.approx(math.log(126.0) - 0.5 * 1.91)
        assert bundle.observations.shape == (8, 8)
        assert bundle.manifest["cell_area"] == pytest.approx(1.0 / 64)

    def test_binary_labels(self):
        bundle = simulate_dataset("binary", {"n": 25, "seed": 2})
        assert set(np.unique(bundle.observations)) <= {0, 1}

    def test_multiclass_block_covariance(self):
        bundle = simulate_dataset("multiclass", {"n": 10, "classes": 3, "seed": 4})
        assert bundle.target.dimension == 30
        assert bundle.covariance.shape == (30, 30)
        # class blocks are independent copies of the base kernel
        np.testing.assert_array_equal(bundle.covariance[:10, :10], bundle.covariance[10:20, 10:20])
        np.testing.assert_array_equal(bundle.covariance[:10, 10:20], np.zeros((10, 10)))


class TestDownSampling:
    def test_block_sums(self):
        counts = np.arange(16).reshape(4, 4)
        merged = down_sample_cox(counts)
        assert merged.shape == (2, 2)
        assert merged[0, 0] == 0 + 1 + 4 + 5
        assert merged[1, 1] == 10 + 11 + 14 + 15

    def test_total_count_conserved(self, rng):
        counts = rng.poisson(5.0, (16, 16))
        assert down_sample_cox(counts).sum() == counts.sum()

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            down_sample_cox(np.zeros((4, 6)))
        with pytest.raises(ValueError, match="even"):
            down_sample_cox(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="merged side 1"):
            down_sample_cox(np.zeros((2, 2)))


class TestDatasetIO:
    def test_regression_round_trip(self, tmp_path):
        bundle = simulate_dataset("regression", {"n": 20, "seed": 5, "sigma2": 0.3})
        paths = write_dataset(bundle, tmp_path)
        assert paths["data"].exists() and paths["manifest"].exists()
        loaded = load_dataset(
            "regression", paths["data"],
            kernel={"type": "squared_exponential", "lengthscale2": 1.0, "amplitude": 1.0, "jitter": 0.0},
        )
        np.testing.assert_allclose(loaded.observations, bundle.observations)
        np.testing.assert_allclose(loaded.covariance, bundle.covariance, atol=1e-12)
        # sigma2 recovered from the manifest sidecar
        assert loaded.target.noise_variance == pytest.approx(0.3)

    def test_cox_round_trip(self, tmp_path):
        bundle = simulate_dataset("cox", {"side": 6, "seed": 6})
        paths = write_dataset(bundle, tmp_path, stem="counts")
        loaded = load_dataset("cox", paths["data"], kernel=None)
        np.testing.assert_array_equal(loaded.observations, bundle.observations)
        np.testing.assert_allclose(loaded.covariance, bundle.covariance, atol=1e-12)
        assert loaded.target.offset == pytest.approx(bundle.target.offset)

    def test_cox_kernel_section_falls_back_to_the_manifest_key_by_key(self, tmp_path):
        bundle = simulate_dataset("cox", {"side": 6, "seed": 6, "beta": 0.2, "amplitude": 0.7, "scale_divisor": 3.0})
        paths = write_dataset(bundle, tmp_path, stem="counts")

        def loaded(kernel):
            raw = {"model": "cox", "dataset": {"path": str(paths["data"])}, "kernel": kernel, "samplers": ["pcn"],
                   "seeds": [0], "burn_in": 200, "collect": 150}
            return resolve_dataset(validate_config(raw)).grid

        grid = loaded({"type": "grid_exponential", "jitter": 1e-6})
        assert (grid.beta, grid.variance, grid.scale) == (0.2, 0.7, 3.0)
        np.testing.assert_array_equal(grid.matrix(), bundle.covariance)
        grid = loaded({"type": "grid_exponential", "beta": 0.5})
        assert (grid.beta, grid.variance, grid.scale) == (0.5, 0.7, 3.0)

    def test_a_cox_file_is_loaded_with_the_kernel_its_config_names(self, tmp_path):
        paths = write_dataset(simulate_dataset("cox", {"side": 6, "seed": 6}), tmp_path, stem="counts")
        with pytest.raises(ConfigError, match="5x5 grid"):
            load_dataset("cox", paths["data"], kernel={"type": "grid_exponential", "side": 5})
        with pytest.raises(ConfigError, match="requires input locations"):
            load_dataset("cox", paths["data"], kernel={"type": "squared_exponential"})

    def test_simulated_grid_kernel_section_records_the_parameters_it_used(self):
        spec = {"side": 6, "seed": 6, "beta": 0.2, "amplitude": 0.7, "scale_divisor": 3.0}
        raw = {"model": "cox", "simulate": spec, "kernel": {"type": "grid_exponential", "beta": 0.5},
               "samplers": ["pcn"], "seeds": [0], "burn_in": 200, "collect": 150}
        bundle = resolve_dataset(validate_config(raw))
        assert (bundle.grid.beta, bundle.grid.variance, bundle.grid.scale) == (0.5, 0.7, 3.0)
        assert bundle.manifest["kernel"] == {"type": "grid_exponential", "jitter": 0.0, "side": 6,
                                             "beta": 0.5, "amplitude": 0.7, "scale_divisor": 3.0}

    def test_squared_exponential_kernel_section_falls_back_to_the_manifest_key_by_key(self, tmp_path):
        spec = {"n": 25, "seed": 7, "sigma2": 0.3, "lengthscale2": 0.05, "amplitude": 2.0}
        bundle = simulate_dataset("regression", spec)
        paths = write_dataset(bundle, tmp_path)

        def loaded(kernel, source):
            raw = {"model": "regression", **source, "kernel": kernel, "samplers": ["pcn"],
                   "seeds": [0], "burn_in": 200, "collect": 150}
            return resolve_dataset(validate_config(raw))

        # both paths record the parameters the covariance was built with
        for source in ({"dataset": {"path": str(paths["data"])}}, {"simulate": spec}):
            loaded_bundle = loaded({"type": "squared_exponential"}, source)
            np.testing.assert_array_equal(loaded_bundle.covariance, bundle.covariance)
            kernel = loaded_bundle.manifest["kernel"]
            assert (kernel["lengthscale2"], kernel["amplitude"]) == (0.05, 2.0)
            loaded_bundle = loaded({"type": "squared_exponential", "lengthscale2": 0.5}, source)
            np.testing.assert_array_equal(loaded_bundle.covariance, squared_exponential_kernel(bundle.inputs, 2.0, 0.5))
            kernel = loaded_bundle.manifest["kernel"]
            assert (kernel["lengthscale2"], kernel["amplitude"]) == (0.5, 2.0)

    def test_regression_sigma2_comes_from_the_config_or_the_manifest(self, tmp_path):
        bundle = simulate_dataset("regression", {"n": 20, "seed": 5, "sigma2": 0.3})
        paths = write_dataset(bundle, tmp_path)
        raw = {"model": "regression", "dataset": {"path": str(paths["data"])},
               "kernel": {"type": "squared_exponential"}, "samplers": ["pcn"], "seeds": [0],
               "burn_in": 200, "collect": 150}
        assert resolve_dataset(validate_config(raw)).target.noise_variance == 0.3
        raw["likelihood"] = {"sigma2": 0.7}
        assert resolve_dataset(validate_config(raw)).target.noise_variance == 0.7
        # without the manifest neither source has it: the load refuses the file
        paths["manifest"].unlink()
        del raw["likelihood"]
        with pytest.raises(ConfigError, match="sigma2"):
            resolve_dataset(validate_config(raw))

    @pytest.mark.parametrize("model, key, value", [
        ("regression", "sigma2", -1.0), ("regression", "sigma2", "0.1"), ("regression", "lengthscale2", 0.0),
        ("binary", "amplitude", math.nan), ("multiclass", "classes", 1), ("cox", "cell_area", -1.0),
        ("cox", "offset", math.inf), ("cox", "beta", 0.0), ("cox", "model", "regression"), ("cox", "notes", 1),
    ])
    def test_manifest_values_are_checked_against_the_simulate_table(self, tmp_path, model, key, value):
        spec = {"side": 4} if model == "cox" else {"n": 12}
        paths = write_dataset(simulate_dataset(model, spec), tmp_path)
        manifest = json.loads(paths["manifest"].read_text())
        manifest[key] = value
        paths["manifest"].write_text(json.dumps(manifest))
        with pytest.raises(ConfigError) as exc:
            load_dataset(model, paths["data"], kernel=None)
        assert str(paths["manifest"]) in str(exc.value) and f"manifest.{key}" in str(exc.value)

    def test_manifest_that_is_not_json_is_a_config_error(self, tmp_path):
        paths = write_dataset(simulate_dataset("regression", {"n": 12}), tmp_path)
        paths["manifest"].write_text("{sigma2: 1}")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_dataset("regression", paths["data"], kernel=None)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_dataset("cox", tmp_path / "nope.csv", kernel=None)

    @pytest.mark.parametrize("model, text, likelihood, column, where, value", [
        ("binary", "input,label\n0,0\n1,1.7\n2,1\n", {}, "column 'label'", "data row 2", "1.7"),
        ("binary", "input,label\n0,0\n1,2\n2,1\n", {}, "column 'label'", "data row 2", "2"),
        ("binary", "input,label\n0,-1\n1,0\n2,1\n", {}, "column 'label'", "data row 1", "-1"),
        ("multiclass", "input,label\n0,0\n1,1.7\n2,2\n", {}, "column 'label'", "data row 2", "1.7"),
        ("multiclass", "input,label\n0,0\n1,-1\n2,2\n", {}, "column 'label'", "data row 2", "-1"),
        ("multiclass", "input,label\n0,0\n1,1\n2,3\n", {"classes": 3}, "column 'label'", "data row 3", "3"),
        ("regression", "input,y\n0,1\n1,nan\n2,0.5\n", {"sigma2": 0.1}, "column 'y'", "data row 2", "nan"),
        ("regression", "input,y\n0,1\nnan,0\n2,0.5\n", {"sigma2": 0.1}, "column 'input'", "data row 2", "nan"),
        ("cox", "1,2\n1.5,0\n", {}, "the counts grid", "data row 2, column 1", "1.5"),
        ("cox", "1,2\n0,nan\n", {}, "the counts grid", "data row 2, column 2", "nan"),
        ("cox", "1,-2\n0,1\n", {}, "the counts grid", "data row 1, column 2", "-2"),
    ], ids=["binary-fraction", "binary-2", "binary-negative", "multiclass-fraction", "multiclass-negative",
            "multiclass-at-classes", "regression-nan-y", "regression-nan-input", "cox-fraction", "cox-nan",
            "cox-negative"])
    def test_a_malformed_entry_is_a_config_error_naming_file_column_and_row(
        self, tmp_path, model, text, likelihood, column, where, value
    ):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_dataset(model, path, kernel=None, likelihood=likelihood)
        message = str(exc.value)
        assert str(path) in message and column in message and f"{where} holds {value}" in message

    @pytest.mark.parametrize("model, text, likelihood, fragment", [
        ("cox", "1,2\nabc,4\n", {}, "the counts grid must hold numbers"),
        ("binary", "input,label\n", {}, "has a header but no data rows"),
        ("multiclass", "input,label\n", {}, "has a header but no data rows"),
        ("regression", "input,y\n", {"sigma2": 0.1}, "has a header but no data rows"),
    ], ids=["cox-not-a-number", "binary-no-rows", "multiclass-no-rows", "regression-no-rows"])
    def test_a_non_number_or_no_data_rows_is_a_config_error_naming_the_file(
        self, tmp_path, model, text, likelihood, fragment
    ):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_dataset(model, path, kernel=None, likelihood=likelihood)
        assert str(path) in str(exc.value) and fragment in str(exc.value)

    def test_resolve_dataset_from_simulate(self):
        config = validate_config(base_config())
        bundle = resolve_dataset(config)
        assert bundle.target.dimension == 12


class TestBenchmarkSingle:
    def test_report_and_counters(self):
        gen = np.random.default_rng(8)
        cov = make_spd(10, gen, spread=4.0)
        prior = eigendecompose_covariance(cov)
        target = GaussianRegression(gen.standard_normal(10), 0.5)
        result = benchmark_single(SamplerKind.MGRAD, prior, target, seed=0, burn_in=300, collect=200)
        report = result.report
        assert report.method == "mGrad"
        assert report.n_samples == 200
        assert report.dimension == 10
        assert report.factorizations == 0
        assert report.matvecs == 200 * MATVEC_BUDGET[SamplerKind.MGRAD]
        assert 0 < report.ess_min <= 200
        assert result.samples.shape == (200, 10)

    @pytest.mark.parametrize("mode", ["joint", "gibbs"])
    def test_a_stuck_theta_run_reports_the_fixed_chains_burn_in_warning(self, mode, caplog):
        # grad f is NaN everywhere, so every latent proposal is rejected: its
        # guarded ratio is -inf, and a NaN theta ratio added to it stays -inf
        prior = eigendecompose_covariance(make_spd(6, np.random.default_rng(9)))
        target = NanGradientTarget(6)
        config = validate_config(base_config(samplers=["agrad-z"], burn_in=200, collect=150, R=2, hyper={"mode": mode}))
        with caplog.at_level(logging.WARNING, logger="lgm.samplers"):
            theta_run = harness.run_hyper_chain(config, target, prior, seed=0, keep_samples=False)
            fixed_run = benchmark_single(SamplerKind.AGRAD_Z, prior, target, seed=0, burn_in=200, collect=150)
        expected = "untunable: agrad-z acceptance stuck at 0 through the second half of burn-in"
        assert theta_run.report.warning == fixed_run.report.warning == expected
        assert [r.getMessage() for r in caplog.records if "non-finite MH log-ratio" in r.getMessage()] == []

    def test_stream_keyed_by_kernel(self):
        assert len(set(KIND_STREAM_INDEX.values())) == len(SamplerKind)


class TestRunBenchmark:
    def test_digest_stable_across_reruns(self):
        config = validate_config(base_config())
        first = run_benchmark(config, threads=1, write=False)
        second = run_benchmark(config, threads=1, write=False)
        assert first.digest == second.digest
        assert len(first.reports) == 4
        assert first.meta["setup_factorizations"] == 1

    @pytest.mark.parametrize("case", ["joint theta", "cox file", "multiclass file"])
    def test_summary_json_parses_and_carries_the_bundle_manifest(self, tmp_path, case):
        if case == "joint theta":
            raw = base_config(samplers=["agrad-z"], seeds=[0], hyper={"mode": "joint"})
        else:
            model = case.split()[0]
            spec = {"side": 4, "seed": 2} if model == "cox" else {"n": 12, "classes": 3, "seed": 2}
            paths = write_dataset(simulate_dataset(model, spec), tmp_path / "data")
            raw = base_config(model=model, simulate=None, dataset={"path": str(paths["data"])}, samplers=["pcn"])
        config = validate_config({**raw, "out": str(tmp_path / "out")})
        result = run_benchmark(config)
        payload = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert payload["meta"]["manifest"] == harness.resolve_dataset(config).manifest
        assert payload["digest"] == result.digest and len(payload["reports"]) == len(result.reports)
        assert all(report["error"] is None for report in payload["reports"])

    def test_jobs_run_in_the_calling_thread_only(self):
        with pytest.raises(ValueError, match="threads must be 1"):
            run_benchmark(validate_config(base_config()), threads=2, write=False)

    def test_digest_ignores_wall_clock(self):
        config = validate_config(base_config())
        result = run_benchmark(config, threads=1, write=False)
        perturbed = list(result.reports)
        perturbed[0].collect_seconds *= 10
        perturbed[0].burn_in_seconds += 1
        assert determinism_digest(perturbed) == result.digest
        assert "min_ess_per_second" in TIMING_FIELDS

    def test_failures_isolated_per_run(self, monkeypatch):
        config = validate_config(base_config())
        real = benchmark_single

        def sabotaged(kind, *args, **kwargs):
            if kind is SamplerKind.PCN:
                raise RuntimeError("injected failure")
            return real(kind, *args, **kwargs)

        monkeypatch.setattr(harness, "benchmark_single", sabotaged)
        result = run_benchmark(config, threads=1, write=False)
        errors = [r for r in result.reports if r.error is not None]
        healthy = [r for r in result.reports if r.error is None]
        assert len(errors) == 2 and all(r.method == "pCN" for r in errors)
        failed = errors[0].to_json_dict()
        nan_keys = ("ess_min", "ess_median", "ess_max", "acceptance_rate", "min_ess_per_second", "min_ess_per_second_total")
        assert all(math.isnan(failed.pop(key)) for key in nan_keys)
        assert failed == {
            "method": "pCN", "seed": 0, "delta": None, "kappa": None, "collect_seconds": 0.0, "burn_in_seconds": 0.0,
            "matvecs": 0, "factorizations": 0, "n_samples": 0, "dimension": 0, "degenerate_coords": 0,
            "warning": None, "error": "RuntimeError: injected failure", "schema_version": 1,
        }
        assert len(healthy) == 2 and all(math.isfinite(r.ess_min) for r in healthy)
        assert [row["Method"] for row in result.summary_rows] == ["mGrad"]

    def test_hyper_mode_runs_theta_chain(self):
        raw = base_config(samplers=["agrad-z"], hyper={"mode": "gibbs", "kappa": 0.5}, collect=120)
        config = validate_config(raw)
        result = run_benchmark(config, threads=1, keep_samples=True, write=False)
        assert len(result.reports) == 2
        report = result.reports[0]
        assert "gibbs" in report.method
        assert report.extra["theta_mean"] is not None
        single = result.runs[("aGrad-z", 0)]
        assert single.theta_samples.shape == (120, 1)

    @pytest.mark.parametrize("mode", ["joint", "gibbs"])
    def test_hyper_mode_shares_the_setup_decomposition(self, mode):
        raw = base_config(samplers=["agrad-z"], seeds=[0], hyper={"mode": mode}, collect=120)
        result = run_benchmark(validate_config(raw), threads=1, write=False)
        (report,) = result.reports
        assert report.error is None
        assert report.factorizations == 0
        assert result.meta["setup_factorizations"] == 1
        assert report.burn_in_seconds > 0 and report.collect_seconds > 0
        assert 1.0 <= report.extra["theta_ess"] <= 120

    def test_joint_report_counts_the_collect_sweeps_only(self):
        raw = base_config(samplers=["agrad-z"], seeds=[0], hyper={"mode": "joint"}, burn_in=150, collect=120, R=4)
        (report,) = run_benchmark(validate_config(raw), threads=1, write=False).reports
        # each collected sweep: R aGrad-z steps of 2 matvecs, then a joint move of 3
        assert report.matvecs == 120 * (2 * 4 + 3)


COX_SAMPLERS = [kind.value for kind in SamplerKind]


def cox_config(simulate, **overrides):
    raw = {"model": "cox", "simulate": simulate, "samplers": COX_SAMPLERS, "seeds": [0], "burn_in": 200, "collect": 150}
    raw.update(overrides)
    return validate_config(raw)


class TestCoxPriorRoute:
    def test_fixed_grid_cox_runs_on_the_torus(self):
        result = run_benchmark(cox_config({"side": 6, "seed": 2}), threads=1, keep_samples=True, write=False)
        assert result.meta["prior"] == "torus 12x12"
        assert 0.0 < result.meta["torus_eigenvalue_ratio"] < 1.0
        assert result.meta["dimension"] == 36
        assert result.meta["setup_factorizations"] == 1
        for kind in SamplerKind:
            report = next(r for r in result.reports if r.method == DISPLAY_NAMES[kind])
            assert report.error is None and report.dimension == 36
            assert report.matvecs == 150 * MATVEC_BUDGET[kind] and report.factorizations == 0
            assert result.runs[(report.method, 0)].samples.shape == (150, 36)

    def test_torus_likelihood_sees_only_the_observed_cells(self):
        bundle, prior = harness.dataset_and_prior(cox_config({"side": 6, "seed": 2}))
        target = bundle.target
        assert isinstance(prior, TorusPrior) and target.dimension == prior.observed_dimension == 36
        # reference: the grid padded to the torus with zero counts and zero exposure
        exposure = prior.embed(np.broadcast_to(target.exposure, target.counts.shape))
        padded = PoissonCounts(prior.embed(target.counts), exposure=exposure, offset=target.offset)
        x = np.random.default_rng(0).standard_normal(144)
        f, grad = padded.evaluate(x)
        state = Chain(SamplerKind.MGRAD, prior, target, np.random.default_rng(0), x0=x).state
        assert state.f_x == pytest.approx(f, rel=1e-13)
        np.testing.assert_array_equal(state.grad_x, grad)

    def test_non_psd_embedding_takes_the_dense_route_unchanged(self):
        simulate = {"side": 8, "seed": 0, "scale_divisor": 330.0}
        config = cox_config(simulate)
        result = run_benchmark(config, threads=1, write=False)
        assert result.meta["prior"] == "dense"
        assert result.meta["torus_eigenvalue_ratio"] == pytest.approx(-4.7e-3, rel=0.01)
        assert result.meta["dimension"] == 64 and result.meta["setup_factorizations"] == 1
        # the digest of the dense path: the shared decomposition of the matrix, one job per sampler
        bundle = simulate_dataset("cox", simulate)
        prior = eigendecompose_covariance(bundle.covariance)
        reports = [
            benchmark_single(kind, prior, bundle.target, 0, config.burn_in, config.collect).report
            for kind in config.samplers
        ]
        assert result.digest == determinism_digest(reports)

    def test_kernel_spec_reaches_the_torus_with_its_jitter(self):
        kernel = {"type": "grid_exponential", "jitter": 0.5}
        result = run_benchmark(cox_config({"side": 6, "seed": 2}, kernel=kernel, samplers=["mgrad"]),
                               threads=1, write=False)
        plain = run_benchmark(cox_config({"side": 6, "seed": 2}, samplers=["mgrad"]), threads=1, write=False)
        assert result.meta["prior"] == plain.meta["prior"] == "torus 12x12"
        assert result.meta["torus_eigenvalue_ratio"] > plain.meta["torus_eigenvalue_ratio"]
        with pytest.raises(ConfigError, match="5x5 grid"):
            run_benchmark(cox_config({"side": 6, "seed": 2}, kernel={"type": "grid_exponential", "side": 5}),
                          threads=1, write=False)

    def test_hyper_mode_and_other_models_stay_dense(self):
        learn = run_benchmark(
            cox_config({"side": 4, "seed": 2}, samplers=["agrad-z"], hyper={"mode": "joint"}, collect=100),
            threads=1, write=False,
        )
        assert learn.meta["prior"] == "dense" and learn.meta["torus_eigenvalue_ratio"] is None
        assert learn.meta["dimension"] == 16 and learn.reports[0].dimension == 16
        regression = run_benchmark(validate_config(base_config(seeds=[0])), threads=1, write=False)
        assert regression.meta["prior"] == "dense" and regression.meta["torus_eigenvalue_ratio"] is None


def count_decompositions(monkeypatch):
    """The covariances handed to the harness's ``eigendecompose_covariance``, recorded as it runs."""
    calls = []
    real = harness.eigendecompose_covariance

    def counting(cov, *args, **kwargs):
        calls.append(cov)
        return real(cov, *args, **kwargs)

    monkeypatch.setattr(harness, "eigendecompose_covariance", counting)
    return calls


class TestSetupDecompositions:
    """Set-up decomposes each covariance once, and every dataset stays as ``simulate_dataset`` draws it."""

    @pytest.mark.parametrize("model", ["regression", "binary"])
    def test_simulated_dense_config_decomposes_once(self, monkeypatch, model):
        raw = base_config(model=model, simulate={"n": 12, "seed": 3})
        calls = count_decompositions(monkeypatch)
        result = run_benchmark(validate_config(raw), threads=1, write=False)
        assert len(calls) == 1 and result.meta["setup_factorizations"] == 1

    def test_cox_hyper_config_decomposes_once(self, monkeypatch):
        config = cox_config({"side": 4, "seed": 2}, samplers=["agrad-z"], hyper={"mode": "joint"}, collect=100)
        calls = count_decompositions(monkeypatch)
        result = run_benchmark(config, threads=1, write=False)
        assert len(calls) == 1 and result.meta["setup_factorizations"] == 1

    def test_fixed_cox_decomposes_the_dense_draw_and_the_torus(self, monkeypatch):
        calls = count_decompositions(monkeypatch)
        result = run_benchmark(cox_config({"side": 4, "seed": 2}, samplers=["mgrad"]), threads=1, write=False)
        assert [type(cov) for cov in calls] == [np.ndarray, harness.GridKernel]
        assert result.meta["setup_factorizations"] == 1

    def test_a_kernel_section_decomposes_the_draw_and_the_inference_covariance(self, monkeypatch):
        raw = base_config(seeds=[0], kernel={"type": "squared_exponential", "jitter": 1e-6})
        calls = count_decompositions(monkeypatch)
        run_benchmark(validate_config(raw), threads=1, write=False)
        assert len(calls) == 2

    def test_multiclass_draws_every_class_from_one_decomposition(self, monkeypatch):
        spec = {"n": 10, "classes": 3, "seed": 4}
        calls = count_decompositions(monkeypatch)
        bundle = simulate_dataset("multiclass", spec)
        assert len(calls) == 1 and calls[0].shape == (10, 10)
        # the same draws as one decomposition per class, in class order
        rng = np.random.default_rng(4)
        fields = []
        for _ in range(3):
            prior = eigendecompose_covariance(bundle.covariance[:10, :10])
            fields.append(prior.basis @ (prior.sqrt_eigenvalues * rng.standard_normal(10)[: prior.rank]))
        probs = np.exp(np.stack(fields) - np.max(fields, axis=0))
        probs /= probs.sum(axis=0)
        labels = [rng.choice(3, p=probs[:, i]) for i in range(10)]
        np.testing.assert_array_equal(bundle.observations, labels)

    @pytest.mark.parametrize("model, simulate, hyper", [
        ("regression", {"n": 12, "sigma2": 0.5, "seed": 3}, {}),
        ("binary", {"n": 12, "seed": 3}, {}),
        ("cox", {"side": 4, "seed": 2}, {"mode": "joint"}),
    ])
    def test_the_shared_decomposition_draws_the_dataset_simulate_dataset_draws(self, model, simulate, hyper):
        raw = base_config(model=model, simulate=simulate, samplers=["agrad-z"], hyper=hyper)
        bundle, prior = harness.dataset_and_prior(validate_config(raw))
        alone = simulate_dataset(model, simulate)
        np.testing.assert_array_equal(bundle.observations, alone.observations)
        np.testing.assert_array_equal(bundle.covariance, alone.covariance)
        assert bundle.manifest == alone.manifest
        reference = eigendecompose_covariance(alone.covariance)
        np.testing.assert_array_equal(prior.eigenvalues, reference.eigenvalues)
        np.testing.assert_array_equal(prior.basis, reference.basis)


class TestOutputs:
    def test_written_files(self, tmp_path):
        config = validate_config(base_config(seeds=[0]))
        result = run_benchmark(config, threads=1, keep_samples=True, write=False)
        paths = write_benchmark_outputs(result, tmp_path, traces=True)

        header = paths["runs"].read_text().splitlines()[0]
        assert header == ",".join(RUNS_CSV_COLUMNS)

        payload = json.loads(paths["json"].read_text())
        assert payload["digest"] == result.digest
        assert payload["schema_version"] == 1
        assert len(payload["reports"]) == 2

        traces = [p for key, p in paths.items() if key.startswith("trace_")]
        assert len(traces) == 2
        loaded = np.loadtxt(traces[0], delimiter=",")
        assert loaded.shape == (150, 12)

    def test_summary_table_renders(self):
        config = validate_config(base_config(seeds=[0]))
        result = run_benchmark(config, threads=1, write=False)
        table = format_summary_table(result.summary_rows)
        assert "mGrad" in table and "pCN" in table
        assert "Min ESS/s" in table
        assert format_summary_table([]) == "(no successful runs)"
