"""End-to-end command-line tests driven through main()."""

import json

import numpy as np
import pytest

from lgm.cli import build_parser, main
from lgm.harness import run_benchmark, validate_config


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def tiny_run_config(tmp_path, **overrides):
    raw = {
        "model": "regression",
        "simulate": {"n": 10, "sigma2": 0.5, "seed": 1},
        "samplers": ["mgrad", "pcn"],
        "seeds": [0],
        "burn_in": 150,
        "collect": 120,
        "out": str(tmp_path / "results"),
    }
    raw.update(overrides)
    return write_json(tmp_path / "config.json", raw)


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["run", "c.json", "--trace"])
        assert args.command == "run" and args.trace
        args = parser.parse_args(["simulate", "s.json", "--seed", "7"])
        assert args.command == "simulate" and args.seed == 7
        assert parser.parse_args(["validate"]).command == "validate"
        assert parser.parse_args(["tune", "c.json"]).command == "tune"
        assert parser.parse_args(["downsample", "x.csv"]).command == "downsample"

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [
        ["run", "c.json", "--threads", "2"],
        ["simulate", "s.json", "--threads", "1"], ["simulate", "s.json", "--trace"],
        ["tune", "c.json", "--threads", "1"], ["tune", "c.json", "--trace"],
        ["validate", "--seed", "3"], ["validate", "--threads", "0"], ["validate", "--trace"],
        ["downsample", "x.csv", "--seed", "3"], ["downsample", "x.csv", "--threads", "1"],
        ["downsample", "x.csv", "--trace"],
    ])
    def test_a_flag_the_subcommand_does_not_read_is_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_writes_data_and_manifest(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "spec.json",
            {"model": "cox", "side": 6, "seed": 3, "out": str(tmp_path / "data")},
        )
        assert main(["simulate", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        counts = np.loadtxt(tmp_path / "data" / "data.csv", delimiter=",")
        assert counts.shape == (6, 6)
        manifest = json.loads((tmp_path / "data" / "data.manifest.json").read_text())
        assert manifest["side"] == 6

    def test_seed_and_out_flags_override_spec(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {"model": "regression", "n": 15, "seed": 1})
        out_dir = tmp_path / "override"
        assert main(["simulate", str(spec), "--seed", "9", "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "data.manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_missing_model_is_config_error(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {"n": 10})
        assert main(["simulate", str(spec)]) == 2

    def test_negative_seed_is_a_config_error(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {"model": "regression", "n": 15})
        assert main(["simulate", str(spec), "--seed", "-5"]) == 2

    @pytest.mark.parametrize("spec, key", [
        ({"model": "regression", "n": 20, "out": 5}, "spec.out"),
        ({"model": 5, "n": 20}, "spec.model"),
        ({"model": "poisson", "n": 20}, "spec.model"),
    ])
    def test_model_and_out_are_type_checked(self, tmp_path, capsys, spec, key):
        assert main(["simulate", str(write_json(tmp_path / "spec.json", spec))]) == 2
        assert key in capsys.readouterr().err

    def test_spec_that_is_not_json_is_a_config_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{model: regression}", encoding="utf-8")
        assert main(["simulate", str(spec)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_spec_file_is_io_error(self, tmp_path):
        assert main(["simulate", str(tmp_path / "absent.json")]) == 1


class TestRunCommand:
    def test_end_to_end_writes_outputs(self, tmp_path, capsys):
        config = tiny_run_config(tmp_path)
        assert main(["run", str(config)]) == 0
        out = capsys.readouterr().out
        assert "determinism digest:" in out
        assert "mGrad" in out
        results = tmp_path / "results"
        assert (results / "runs.csv").exists()
        assert (results / "summary.csv").exists()
        payload = json.loads((results / "summary.json").read_text())
        assert len(payload["reports"]) == 2

    def test_trace_flag_persists_samples(self, tmp_path):
        config = tiny_run_config(tmp_path)
        assert main(["run", str(config), "--trace"]) == 0
        traces = sorted((tmp_path / "results").glob("trace_*.csv"))
        assert len(traces) == 2
        assert np.loadtxt(traces[0], delimiter=",").shape == (120, 10)

    def test_config_error_exit_code(self, tmp_path):
        config = tiny_run_config(tmp_path, burn_in=3)
        assert main(["run", str(config)]) == 2

    def test_repeated_seed_is_a_config_error(self, tmp_path, capsys):
        config = tiny_run_config(tmp_path, seeds=[0, 0])
        assert main(["run", str(config)]) == 2
        assert "config.seeds repeats a seed" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 1

    @pytest.mark.parametrize("command", ["run", "tune"])
    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys, command):
        config = tiny_run_config(tmp_path)
        assert main([command, str(config), "--seed", "-5"]) == 2
        assert "--seed must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("likelihood", [{"sigma2": -1}, {"sigma2": "abc"}, {"exposure": -1}, {"offset": "x"}])
    def test_bad_likelihood_value_is_a_config_error(self, tmp_path, capsys, likelihood):
        model = "regression" if "sigma2" in likelihood else "cox"
        config = tiny_run_config(tmp_path, model=model, simulate=None, dataset={"path": "d.csv"}, likelihood=likelihood)
        assert main(["run", str(config)]) == 2
        (key,) = likelihood
        assert f"config.likelihood.{key}" in capsys.readouterr().err

    def test_bad_manifest_value_is_a_config_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"model": "regression", "n": 10, "out": str(tmp_path / "data")})
        assert main(["simulate", str(spec)]) == 0
        manifest_path = tmp_path / "data" / "data.manifest.json"
        manifest_path.write_text(json.dumps({**json.loads(manifest_path.read_text()), "sigma2": -1.0}))
        config = tiny_run_config(tmp_path, simulate=None, dataset={"path": str(tmp_path / "data" / "data.csv")})
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(manifest_path) in err and "manifest.sigma2" in err


class TestTuneCommand:
    def test_prints_deltas_and_writes_csv(self, tmp_path, capsys):
        config = tiny_run_config(tmp_path, samplers=["mgrad"], burn_in=400)
        out_dir = tmp_path / "tuned"
        assert main(["tune", str(config), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "delta=" in out and "acceptance=" in out
        lines = (out_dir / "tuning.csv").read_text().splitlines()
        assert lines[0] == "method,seed,delta,acceptance_rate,warning"
        assert lines[1].startswith("mgrad,0,")

    def test_cox_tunes_the_chain_that_run_tunes(self, tmp_path):
        config = tiny_run_config(tmp_path, model="cox", simulate={"side": 6, "seed": 2}, samplers=["mgrad"])
        out_dir = tmp_path / "tuned"
        assert main(["tune", str(config), "--out", str(out_dir)]) == 0
        tuned = float((out_dir / "tuning.csv").read_text().splitlines()[1].split(",")[2])
        raw = json.loads(config.read_text())
        (report,) = run_benchmark(validate_config(raw), threads=1, write=False).reports
        assert tuned == report.delta


    @pytest.mark.parametrize("mode", ["joint", "gibbs"])
    def test_hyperparameter_config_is_refused(self, tmp_path, capsys, mode):
        # a theta run tunes delta inside its own sweeps, not on the fixed base prior that tune would use
        config = tiny_run_config(tmp_path, samplers=["agrad-z"], hyper={"mode": mode}, R=3)
        out_dir = tmp_path / "tuned"
        assert main(["tune", str(config), "--out", str(out_dir)]) == 2
        assert "config.hyper.mode" in capsys.readouterr().err
        assert not out_dir.exists()

class TestValidateCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        total = lines[-1]
        passed, ran = total.split()[0].split("/")
        assert passed == ran
        assert int(ran) >= 50

    def test_csv_output(self, tmp_path, capsys):
        out_dir = tmp_path / "val"
        assert main(["validate", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        lines = (out_dir / "validation.csv").read_text().splitlines()
        assert lines[0] == "name,passed,residual,tolerance"
        assert all(",True," in line for line in lines[1:])


class TestDownsampleCommand:
    def test_merges_and_updates_manifest(self, tmp_path, capsys):
        counts = np.arange(16.0).reshape(4, 4)
        src = tmp_path / "counts.csv"
        np.savetxt(src, counts, fmt="%d", delimiter=",")
        write_json(
            tmp_path / "counts.manifest.json",
            {"side": 4, "cell_area": 1 / 16, "scale_divisor": 4.0},
        )
        assert main(["downsample", str(src)]) == 0
        assert "wrote" in capsys.readouterr().out

        merged = np.loadtxt(tmp_path / "counts_down.csv", delimiter=",")
        assert merged.shape == (2, 2)
        assert merged.sum() == counts.sum()
        manifest = json.loads((tmp_path / "counts_down.manifest.json").read_text())
        assert manifest["side"] == 2
        assert manifest["cell_area"] == pytest.approx(4 / 16)
        assert manifest["scale_divisor"] == pytest.approx(2.0)

    def test_odd_grid_rejected(self, tmp_path):
        src = tmp_path / "bad.csv"
        np.savetxt(src, np.zeros((3, 3)), fmt="%d", delimiter=",")
        assert main(["downsample", str(src)]) == 1

    def test_grid_that_would_merge_below_side_2_is_refused_before_writing(self, tmp_path, capsys):
        src = tmp_path / "counts.csv"
        np.savetxt(src, np.ones((2, 2)), fmt="%d", delimiter=",")
        write_json(tmp_path / "counts.manifest.json", {"side": 2, "cell_area": 0.25})
        assert main(["downsample", str(src)]) == 1
        assert "merged side 1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv", "counts.manifest.json"]

    @pytest.mark.parametrize("text, message", [
        ("not json", "not valid JSON"),
        ('{"cell_area": -1.0}', "manifest.cell_area must be above"),
        ('{"model": "regression"}', "manifest.model must be one of"),
    ])
    def test_bad_source_manifest_is_a_config_error(self, tmp_path, capsys, text, message):
        src = tmp_path / "counts.csv"
        np.savetxt(src, np.ones((4, 4)), fmt="%d", delimiter=",")
        (tmp_path / "counts.manifest.json").write_text(text, encoding="utf-8")
        assert main(["downsample", str(src)]) == 2
        err = capsys.readouterr().err
        assert message in err and "counts.manifest.json" in err
        assert not (tmp_path / "counts_down.csv").exists()

    def test_out_flag_redirects(self, tmp_path):
        src = tmp_path / "counts.csv"
        np.savetxt(src, np.zeros((4, 4)), fmt="%d", delimiter=",")
        dest = tmp_path / "elsewhere"
        assert main(["downsample", str(src), "--out", str(dest)]) == 0
        assert (dest / "counts_down.csv").exists()
