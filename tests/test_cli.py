import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfcov
from mfcov.cli import RunConfig, main, read_container, write_container
from mfcov.data import cross_products, gram_factors, load_csv, make_folds, save_csv
from mfcov.kernel import KernelSpec
from mfcov.simulate import SimSetting, generate
from mfcov.solver import FitConfig, admm_fit, cv_select
from mfcov.spectral import l2_eigensystem, marginal_basis

# Small coefficients move at this scale; keeps the tiny fits off the zero
# solution and converging in well under a second.
FIT_FLAGS = ["--gram-cap", "4", "--eta", "1e-9", "--lambda", "3e-6",
             "--beta", "0.5"]


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-data") / "data.csv"
    data = generate(SimSetting(setting=3, n=8, m=4, sigma=0.2, seed=5))
    save_csv(data, path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def _huge_dataset():
    """Finite values whose cross-products overflow float64."""
    data = generate(SimSetting(setting=3, n=8, m=4, sigma=0.2, seed=5))
    data.values = [v * 1e200 for v in data.values]
    return data


class TestContainer:
    def test_round_trip_single_file(self, tmp_path):
        path = tmp_path / "c.mcov"
        coeffs = np.arange(24.0).reshape(2, 3, 2, 2)
        write_container(path, coeffs, {"format": "MCOV1", "note": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["c.mcov"]
        back, sidecar = read_container(path)
        assert np.array_equal(back, coeffs)
        assert back.dtype == np.float64
        assert sidecar == {"format": "MCOV1", "note": 1}

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.mcov"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not an MCOV1 container"):
            read_container(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "c.mcov"
        write_container(path, np.ones((2, 2)), {})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="payload"):
            read_container(path)

    def test_missing_sidecar_tail(self, tmp_path):
        path = tmp_path / "c.mcov"
        sidecar = {"format": "MCOV1"}
        write_container(path, np.ones((2, 2)), sidecar)
        blob = path.read_bytes()
        tail = len(json.dumps(sidecar).encode())
        path.write_bytes(blob[: len(blob) - tail])
        with pytest.raises(ValueError, match="sidecar is missing"):
            read_container(path)

    def test_corrupt_sidecar_tail(self, tmp_path):
        path = tmp_path / "c.mcov"
        write_container(path, np.ones((2, 2)), {"format": "MCOV1"})
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="not valid JSON"):
            read_container(path)


class TestRunConfig:
    def test_lambda_key_round_trip(self):
        cfg = RunConfig.from_dict({"command": "fit", "lambda": 0.25})
        assert cfg.lam == 0.25
        assert cfg.to_dict()["lambda"] == 0.25
        assert "lam" not in cfg.to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'lambd'"):
            RunConfig.from_dict({"command": "fit", "lambd": 0.1})

    def test_resolved_fills_defaults(self):
        cfg = RunConfig.from_dict({"command": "simulate"}).resolved()
        assert cfg.reps == 20
        assert cfg.threads == 1
        assert cfg.setting == 1
        assert len(cfg.lambda_grid) >= 1


class TestFit:
    def test_writes_three_outputs_and_exits_zero(self, dataset_csv, tmp_path):
        before = dataset_csv.read_bytes()
        out = tmp_path / "fit"
        code = run("fit", "--data", dataset_csv, "--out", out, *FIT_FLAGS)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "coeffs.mcov", "fit.json", "rank_report.json"]
        diag = json.loads((out / "fit.json").read_text())
        assert diag["converged"] is True
        assert "max_skew" not in diag
        ranks = json.loads((out / "rank_report.json").read_text())
        assert ranks["two_way"] >= 0 and len(ranks["one_way"]) == 2
        cfg = diag["run_config"]
        assert cfg["command"] == "fit"
        assert cfg["lambda"] == 3e-6
        assert dataset_csv.read_bytes() == before  # inputs untouched

    def test_default_config_three_files(self, dataset_csv, tmp_path):
        out = tmp_path / "fit"
        assert run("fit", "--data", dataset_csv, "--out", out) == 0
        assert len(list(out.iterdir())) == 3

    def test_replay_from_diagnostics(self, dataset_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("fit", "--data", dataset_csv, "--out", out1,
                   *FIT_FLAGS) == 0
        assert run("fit", "--config", out1 / "fit.json", "--out", out2) == 0
        assert ((out1 / "coeffs.mcov").read_bytes()
                == (out2 / "coeffs.mcov").read_bytes())
        assert ((out1 / "rank_report.json").read_bytes()
                == (out2 / "rank_report.json").read_bytes())

    def test_replay_of_config_with_threads_key(self, dataset_csv, tmp_path):
        # files written while fit still took --threads carry the key
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("fit", "--data", dataset_csv, "--out", out1,
                   *FIT_FLAGS) == 0
        diag = json.loads((out1 / "fit.json").read_text())
        assert diag["run_config"]["threads"] is None
        diag["run_config"]["threads"] = 1
        old = tmp_path / "old_fit.json"
        old.write_text(json.dumps(diag))
        assert run("fit", "--config", old, "--out", out2) == 0
        assert ((out1 / "coeffs.mcov").read_bytes()
                == (out2 / "coeffs.mcov").read_bytes())

    @pytest.mark.parametrize("command", ["fit", "cv", "eigen"])
    def test_threads_flag_only_on_simulate(self, command, tmp_path):
        with pytest.raises(SystemExit):
            run(command, "--out", tmp_path / "o", "--threads", "2")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_one(self, dataset_csv, tmp_path, capsys,
                                        value):
        lines = dataset_csv.read_text().splitlines()
        row = lines[2].split(",")
        lines[2] = ",".join(row[:-1] + [value])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run("fit", "--data", bad, "--out", tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"mfcov fit: {bad}:3: non-finite value\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_solver_failure_exits_one(self, tmp_path, capsys):
        # finite values whose cross-products overflow are refused up front
        path = tmp_path / "huge.csv"
        save_csv(_huge_dataset(), path)
        code = run("fit", "--data", path, "--out", tmp_path / "o", *FIT_FLAGS)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("mfcov fit: cross-products overflow float64")
        assert err.count("\n") == 1

    def test_overflow_writes_one_stderr_line(self, tmp_path):
        # a real process: numpy's warnings would reach stderr unfiltered
        path = tmp_path / "huge.csv"
        save_csv(_huge_dataset(), path)
        src = str(Path(mfcov.__file__).resolve().parent.parent)
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-m", "mfcov.cli", "fit", "--data", str(path),
             "--out", str(tmp_path / "o"), *FIT_FLAGS],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "mfcov fit: cross-products overflow float64; rescale the values"]

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = run("fit", "--data", tmp_path / "absent.csv",
                   "--out", tmp_path / "o")
        assert code == 1
        assert "absent.csv" in capsys.readouterr().err

    def test_missing_data_flag_exits_one(self, tmp_path, capsys):
        code = run("fit", "--out", tmp_path / "o")
        assert code == 1
        assert "--data" in capsys.readouterr().err

    def test_iteration_cap_exits_two_with_outputs(self, dataset_csv, tmp_path):
        out = tmp_path / "fit"
        code = run("fit", "--data", dataset_csv, "--out", out, *FIT_FLAGS,
                   "--max-iters", "1")
        assert code == 2
        diag = json.loads((out / "fit.json").read_text())
        assert diag["converged"] is False
        coeffs, sidecar = read_container(out / "coeffs.mcov")
        assert sidecar["fit"]["converged"] is False
        assert coeffs.shape == tuple(diag["dims"]) * 2


SIM_FLAGS = ["--setting", "3", "--n", "6", "--m", "4", "--sigma", "0.2",
             "--seed", "11", "--reps", "2", "--gram-cap", "3",
             "--lambda-grid", "1e-6", "--beta-grid", "0.5",
             "--eta", "1e-9", "--aise-grid", "5"]


class TestSimulate:
    def test_fixed_protocol_rows(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, *SIM_FLAGS, "--reps", "1") == 0
        result = json.loads((out / "benchmark.json").read_text())
        assert len(result["rows"]) == 1
        assert result["rows"][0]["lambda"] == 1e-6
        with open(out / "benchmark.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # header + single aggregate row
        assert rows[1][0] == "3"

    def test_identical_runs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--out", out1, *SIM_FLAGS) == 0
        assert run("simulate", "--out", out2, *SIM_FLAGS) == 0
        for name in ("benchmark.json", "benchmark.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        c1 = json.loads((out1 / "run_config.json").read_text())
        c2 = json.loads((out2 / "run_config.json").read_text())
        c1.pop("out"), c2.pop("out")
        assert c1 == c2

    def test_replay_from_persisted_config(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--out", out1, *SIM_FLAGS) == 0
        assert run("simulate", "--config", out1 / "run_config.json",
                   "--out", out2) == 0
        assert ((out1 / "benchmark.json").read_bytes()
                == (out2 / "benchmark.json").read_bytes())

    def test_flag_overrides_config_file(self, tmp_path):
        out1 = tmp_path / "a"
        assert run("simulate", "--out", out1, *SIM_FLAGS) == 0
        out2 = tmp_path / "b"
        assert run("simulate", "--config", out1 / "run_config.json",
                   "--out", out2, "--reps", "1") == 0
        result = json.loads((out2 / "benchmark.json").read_text())
        assert len(result["rows"]) == 1

    def test_invalid_setting_exits_one(self, tmp_path, capsys):
        code = run("simulate", "--out", tmp_path / "o", "--setting", "9")
        assert code == 1
        assert "setting" in capsys.readouterr().err


CV_FLAGS = ["--gram-cap", "4", "--eta", "1e-9", "--n-folds", "3"]


class TestCv:
    def test_single_cell_grid(self, dataset_csv, tmp_path):
        out = tmp_path / "cv"
        code = run("cv", "--data", dataset_csv, "--out", out, *CV_FLAGS,
                   "--lambda-grid", "1e-6", "--beta-grid", "0.25")
        assert code == 0
        selected = json.loads((out / "selected_config.json").read_text())
        assert selected["command"] == "fit"
        assert selected["lambda"] == 1e-6
        assert selected["beta"] == 0.25
        with open(out / "cv_scores.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "beta", "score", "n_iters", "unconverged_folds"]
        assert len(rows) == 2

    def test_matches_library_and_feeds_fit(self, dataset_csv, tmp_path):
        out = tmp_path / "cv"
        grid_flags = ["--lambda-grid", "3e-6", "1e-5",
                      "--beta-grid", "0.0", "0.5"]
        assert run("cv", "--data", dataset_csv, "--out", out, *CV_FLAGS,
                   *grid_flags) == 0

        data = load_csv(dataset_csv)
        grams = gram_factors(data, KernelSpec(), tol=1e-10, cap=4)
        folds = make_folds(data, 3, 0)
        chosen, scores, cells = cv_select(data, grams, (3e-6, 1e-5), (0.0, 0.5),
                                          folds=folds, base=FitConfig(eta=1e-9))
        selected = json.loads((out / "selected_config.json").read_text())
        assert selected["lambda"] == chosen.lam
        assert selected["beta"] == chosen.beta
        with open(out / "cv_scores.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        table = {(float(r[0]), float(r[1])): r[2:] for r in rows}
        for li, lam in enumerate((3e-6, 1e-5)):
            for bj, beta in enumerate((0.0, 0.5)):
                score, n_iters, unconverged = table[(lam, beta)]
                assert float(score) == scores[li, bj]
                assert int(n_iters) == cells.n_iters[li, bj] >= 3
                assert int(unconverged) == cells.unconverged_folds[li, bj]

        fit_out = tmp_path / "fit"
        assert run("fit", "--config", out / "selected_config.json",
                   "--out", fit_out) == 0
        coeffs, _ = read_container(fit_out / "coeffs.mcov")
        direct = admm_fit(data, cross_products(data), grams, chosen)
        assert np.array_equal(coeffs, direct.coeffs)

    def test_empty_grid_exits_one(self, dataset_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_grid": []}))
        code = run("cv", "--config", cfg, "--data", dataset_csv,
                   "--out", tmp_path / "o", *CV_FLAGS)
        assert code == 1
        assert "grid" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, dataset_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lamda_grid": [1e-6]}))
        code = run("cv", "--config", cfg, "--data", dataset_csv,
                   "--out", tmp_path / "o")
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fitted(dataset_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-fit")
    assert run("fit", "--data", dataset_csv, "--out", out, *FIT_FLAGS) == 0
    return out


class TestEigen:
    def test_pipeline_exports(self, dataset_csv, fitted, tmp_path):
        out = tmp_path / "eig"
        code = run("eigen", "--container", fitted / "coeffs.mcov",
                   "--data", dataset_csv, "--out", out, "--eigen-grid", "9",
                   "--components", "2")
        assert code == 0
        report = json.loads((out / "eigen.json").read_text())
        vals = report["eigenvalues"]
        assert vals == sorted(vals, reverse=True) and vals[0] > 0
        assert abs(sum(report["fve"]) - 1.0) < 1e-9
        assert report["fve_cumulative"][-1] == pytest.approx(1.0, abs=1e-9)
        assert (out / "marginal_1.csv").exists()
        assert (out / "marginal_2.csv").exists()
        n_csv = len(list(out.glob("eigenfunction_*.csv")))
        assert n_csv == report["components_exported"] == min(2, len(vals))

    def test_grid_export_matches_library_exactly(self, dataset_csv, fitted,
                                                 tmp_path):
        out = tmp_path / "eig"
        assert run("eigen", "--container", fitted / "coeffs.mcov",
                   "--data", dataset_csv, "--out", out,
                   "--eigen-grid", "9") == 0

        data = load_csv(dataset_csv)
        spec = KernelSpec()
        grams = gram_factors(data, spec, tol=1e-10, cap=4)
        fit = admm_fit(data, cross_products(data), grams,
                       FitConfig(lam=3e-6, beta=0.5, eta=1e-9))
        eig = l2_eigensystem(fit, spec)
        ax = np.linspace(0.0, 1.0, 9)

        with open(out / "eigenfunction_01.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        exported = np.array([float(r[2]) for r in rows])
        expected = eig.eigenfunction_grid(0, [ax, ax]).ravel()
        assert np.array_equal(exported, expected)

        mb = marginal_basis(fit, spec, 0)
        with open(out / "marginal_1.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        exported = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.array_equal(exported, mb.basis_grid(ax))

    def test_tampered_sidecar_exits_one(self, dataset_csv, fitted, tmp_path,
                                        capsys):
        coeffs, sidecar = read_container(fitted / "coeffs.mcov")
        sidecar["gram"]["locations_sha256"][0] = "0" * 64
        tampered = tmp_path / "coeffs.mcov"
        write_container(tampered, coeffs, sidecar)
        code = run("eigen", "--container", tampered,
                   "--data", dataset_csv, "--out", tmp_path / "o")
        assert code == 1
        assert "provenance mismatch" in capsys.readouterr().err

    def test_wrong_dataset_exits_one(self, fitted, tmp_path, capsys):
        other = tmp_path / "other.csv"
        save_csv(generate(SimSetting(setting=3, n=8, m=4, sigma=0.2, seed=6)),
                 other)
        code = run("eigen", "--container", fitted / "coeffs.mcov",
                   "--data", other, "--out", tmp_path / "o")
        assert code == 1
        assert "provenance mismatch" in capsys.readouterr().err
