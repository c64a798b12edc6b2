import contextlib
import csv
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import mfcov
from mfcov import cli, simulate, solver
from mfcov.cli import MAGIC, RunConfig, main, read_container, write_container
from mfcov.data import cross_products, gram_factors, load_csv, make_folds, save_csv
from mfcov.kernel import KernelSpec
from mfcov.simulate import SimSetting, generate
from mfcov.solver import FitConfig, admm_fit, cv_select
from mfcov.spectral import l2_eigensystem, marginal_basis

# Small coefficients move at this scale; keeps the tiny fits off the zero
# solution and converging in well under a second.
FIT_FLAGS = ["--gram-cap", "4", "--eta", "1e-9", "--lambda", "3e-6",
             "--beta", "0.5"]

# A kernel truncation order whose cosine basis (8 bytes per term) exceeds any
# 64-bit address space.
HUGE_ORDER = 10 ** 17


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-data") / "data.csv"
    data = generate(SimSetting(setting=3, n=8, m=4, sigma=0.2, seed=5))
    save_csv(data, path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def run_python(*args):
    """A fresh interpreter that imports this mfcov, where warnings reach
    stderr unfiltered."""
    src = str(Path(mfcov.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def run_process(*argv):
    """One CLI call in a fresh interpreter."""
    return run_python("-m", "mfcov.cli", *argv)


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

    def test_element_count_does_not_wrap(self, tmp_path):
        # 2^32 * 2^32 wraps to 0 in int64
        path = tmp_path / "c.mcov"
        path.write_bytes(MAGIC + struct.pack("<B2Q", 2, 2 ** 32, 2 ** 32) + b"{}")
        with pytest.raises(ValueError, match=f"^{path}: .*needs {2 ** 64}$"):
            read_container(path)

    def test_order_zero_rejected(self, tmp_path):
        path = tmp_path / "c.mcov"
        path.write_bytes(MAGIC + b"\x00" + b"{}")
        with pytest.raises(ValueError, match=f"^{path}: tensor order 0"):
            read_container(path)


def container_bytes():
    """Arbitrary bytes, and MCOV1 headers with arbitrary shapes and tails."""
    header = st.builds(
        lambda dims, rest: MAGIC + struct.pack(f"<B{len(dims)}Q", len(dims), *dims) + rest,
        st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2 ** 64 - 1)), max_size=4),
        st.binary(max_size=64))
    return st.one_of(st.binary(max_size=200),
                     st.binary(max_size=200).map(lambda b: MAGIC + b), header)


def run_captured(*argv):
    """Exit code and stderr lines of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        code = run(*argv)
    return code, err.getvalue().splitlines()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def fitted_container(dataset_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-fit")
    assert run("fit", "--data", dataset_csv, "--out", out, *FIT_FLAGS) == 0
    return out / "coeffs.mcov"


def json_paths(node, prefix=()):
    """Key paths of every value nested inside a JSON object."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


# small JSON values: wrong types for every sidecar field, but no magnitude
# that would make a kernel or gram factorization expensive
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3.0, 3.0)
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


class TestBadInputFuzz:
    @given(container_bytes())
    def test_container_loads_or_raises_value_error(self, fuzz_dir, blob):
        path = fuzz_dir / "c.mcov"
        path.write_bytes(blob)
        try:
            coeffs, sidecar = read_container(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert isinstance(sidecar, dict) and coeffs.dtype == np.float64

    @given(container_bytes())
    def test_eigen_on_unreadable_container_exits_one(self, fuzz_dir, dataset_csv, blob):
        path = fuzz_dir / "c.mcov"
        path.write_bytes(blob)
        try:
            read_container(path)
            assume(False)
        except ValueError:
            pass
        code, err = run_captured("eigen", "--container", path, "--data", dataset_csv,
                                 "--out", fuzz_dir / "o")
        assert code == 1
        assert len(err) == 1 and err[0].startswith("mfcov eigen: ")

    @given(st.data())
    def test_eigen_on_altered_sidecar_exits_zero_or_one(self, fuzz_dir, dataset_csv,
                                                        fitted_container, data):
        coeffs, sidecar = read_container(fitted_container)
        where = data.draw(st.sampled_from(sorted(json_paths(sidecar), key=str)))
        node = sidecar
        for key in where[:-1]:
            node = node[key]
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[where[-1]]
        else:
            node[where[-1]] = data.draw(json_values)
        path = fuzz_dir / "altered.mcov"
        write_container(path, coeffs, sidecar)
        code, err = run_captured("eigen", "--container", path, "--data", dataset_csv,
                                 "--out", fuzz_dir / "o")
        assert code in (0, 1)
        assert len(err) == code
        assert all(line.startswith("mfcov eigen: ") for line in err)

    @given(st.one_of(st.binary(max_size=300), st.text(max_size=300).map(str.encode),
                     st.text(alphabet="ab,.0123456789e-+\"\n inf", max_size=300).map(
                         lambda body: ("subject,t1,y\n" + body).encode())))
    def test_fit_and_eigen_on_unloadable_csv_exit_one(self, fuzz_dir, fitted_container, blob):
        path = fuzz_dir / "data.csv"
        path.write_bytes(blob)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                load_csv(path)
            assume(False)
        except ValueError:
            pass
        for argv in (["fit", "--data", path], ["eigen", "--container", fitted_container,
                                               "--data", path]):
            code, err = run_captured(*argv, "--out", fuzz_dir / "o")
            assert code == 1
            assert len(err) == 1 and err[0].startswith(f"mfcov {argv[0]}: {path}")


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

    @pytest.mark.parametrize("command", list(cli._FLAGS))
    def test_every_flag_mirrors_its_config_key(self, command, tmp_path, monkeypatch):
        # a flag and its config-file key resolve to the same RunConfig, and
        # the flag overrides the file
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, (seen.append, ""))

        def resolve(*argv):
            assert run(command, *argv) is None
            return seen.pop()

        def config(key, value):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({key: value}))
            return ["--config", path]

        keys = dict(zip(("command",) + cli._FLAGS[command],
                        RunConfig(command).to_dict()))
        kinds = {f.name: f.type for f in fields(RunConfig)}
        if command != "eigen":
            # a persisted kernel or fit config replays only through flags;
            # cv and simulate take lambda and beta from their grids
            flags = {keys[name] for name in cli._FLAGS[command]}
            grid_set = set() if command == "fit" else {"lambda", "beta"}
            model = {cli._key(name) for name in (*asdict(KernelSpec()), *asdict(FitConfig()))}
            model -= grid_set
            assert model <= flags and not grid_set & flags
        for name in cli._FLAGS[command]:
            key = keys[name]
            flag = "--" + key.replace("_", "-")
            argv, value, other = {
                bool: (["--no-" + flag[2:]], False, True),
                list: ([flag, "1", "2"], [1, 2], [3]),
                str: ([flag, "x"], "x", "y"),
            }.get(kinds[name], ([flag, "1"], 1, 2))
            from_flag = resolve(*argv)
            assert getattr(from_flag, name) == value
            assert resolve(*config(key, value)) == from_flag
            assert resolve(*config(key, other), *argv) == from_flag

    @pytest.mark.parametrize("command,flag", [
        ("cv", "--lambda"), ("cv", "--beta"), ("simulate", "--lambda"),
        ("simulate", "--beta"), ("simulate", "--fold-seed")])
    def test_flags_without_effect_are_refused(self, command, flag, tmp_path, capsys):
        # refused like any unknown flag, and never read as an abbreviation
        # of --lambda-grid or --beta-grid
        def refusal(name):
            with pytest.raises(SystemExit) as exc:
                run(command, "--out", tmp_path / "o", name, "0.5")
            return exc.value.code, capsys.readouterr().err.replace(name, "FLAG")

        code, err = refusal(flag)
        assert (code, err) == refusal("--no-such-flag")
        assert code == 2 and "unrecognized arguments: FLAG 0.5" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", list(cli._FLAGS))
    def test_resolved_sets_every_flag_but_the_paths(self, command):
        cfg = RunConfig(command=command).resolved()
        unset = [name for name in cli._FLAGS[command] if getattr(cfg, name) is None]
        assert set(unset) <= {"out", "data", "container"}

    @pytest.mark.parametrize("config", [{"lam": 0.1}, {"lam": 0.1, "lambda": 0.2}])
    def test_lam_is_not_a_config_key(self, dataset_csv, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, err = run_captured("fit", "--config", path, "--data", dataset_csv,
                                 "--out", tmp_path / "o")
        assert (code, err) == (1, ["mfcov fit: unknown config key 'lam'"])

    @pytest.mark.parametrize("config", [{"n_folds": "3"}, {"n_folds": True},
                                        {"lambda": "1e-3"}, {"lambda_grid": 0.1},
                                        {"include_constant": 1}])
    def test_wrongly_typed_config_value_exits_one(self, dataset_csv, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        (key,) = config
        command = "fit" if key == "lambda" else "cv"   # the command with this key
        code, err = run_captured(command, "--config", path, "--data", dataset_csv,
                                 "--out", tmp_path / "o")
        assert code == 1
        assert len(err) == 1 and err[0].startswith(
            f"mfcov {command}: config key '{key}' must be")

    def test_line_break_in_config_key_stays_on_one_line(self, dataset_csv, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"a\nb": 1}))
        code, err = run_captured("fit", "--config", path, "--data", dataset_csv,
                                 "--out", tmp_path / "o")
        assert code == 1
        assert err == ["mfcov fit: unknown config key 'a b'"]


class TestRetiredAdaptiveEta:
    """Outputs written while adaptive eta existed carry ``adaptive_eta``
    false; they replay, and true is refused with one line."""

    @pytest.mark.parametrize("flag", [False, True])
    def test_fit_json_and_selected_config(self, dataset_csv, fitted, tmp_path, flag):
        cv_out = tmp_path / "cv"
        assert run("cv", "--data", dataset_csv, "--out", cv_out, *CV_FLAGS,
                   "--lambda-grid", "3e-6", "--beta-grid", "0.5") == 0
        for name, fresh in (("fit.json", fitted / "fit.json"),
                            ("selected_config.json", cv_out / "selected_config.json")):
            old = json.loads(fresh.read_text())
            old.get("run_config", old)["adaptive_eta"] = flag
            path = tmp_path / name
            path.write_text(json.dumps(old))
            out = tmp_path / f"replay-{name}"
            code, err = run_captured("fit", "--config", path, "--out", out)
            if flag:
                assert code == 1
                assert err == ["mfcov fit: adaptive_eta is no longer supported"]
                continue
            assert code == 0 and err == []
            same = tmp_path / f"fresh-{name}"
            assert run("fit", "--config", fresh, "--out", same) == 0
            for output in ("coeffs.mcov", "rank_report.json"):
                assert (out / output).read_bytes() == (same / output).read_bytes()

    @pytest.mark.parametrize("flag", [False, True])
    def test_container_sidecar(self, dataset_csv, fitted, tmp_path, flag):
        coeffs, sidecar = read_container(fitted / "coeffs.mcov")
        sidecar["fit"]["config"]["adaptive_eta"] = flag
        sidecar["fit"]["eta_final"] = sidecar["fit"]["config"]["eta"]
        path = tmp_path / "old.mcov"
        write_container(path, coeffs, sidecar)
        code, err = run_captured("eigen", "--container", path, "--data", dataset_csv,
                                 "--out", tmp_path / "old")
        if flag:
            assert code == 1
            assert err == [f"mfcov eigen: {path}: malformed sidecar: "
                           "adaptive_eta is no longer supported"]
            return
        assert code == 0 and err == []
        assert run("eigen", "--container", fitted / "coeffs.mcov", "--data", dataset_csv,
                   "--out", tmp_path / "fresh") == 0
        for output in ("eigen.json", "eigenfunction_01.csv", "marginal_1.csv"):
            assert ((tmp_path / "old" / output).read_bytes()
                    == (tmp_path / "fresh" / output).read_bytes())


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
        assert diag["zero_solution"] is False
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

    def test_defaults_give_a_non_trivial_fit(self, tmp_path):
        # on the simulation's own data both the default fit and the default
        # cross-validation land below lambda_max
        data = tmp_path / "data.csv"
        save_csv(generate(SimSetting(setting=1, m=10)), data)
        assert run("fit", "--data", data, "--out", tmp_path / "fit") == 0
        assert run("cv", "--data", data, "--out", tmp_path / "cv") == 0
        assert run("fit", "--config", tmp_path / "cv" / "selected_config.json",
                   "--out", tmp_path / "tuned") == 0
        for out in ("fit", "tuned"):
            assert json.loads((tmp_path / out / "fit.json").read_text())["zero_solution"] is False

    def test_replay_from_diagnostics(self, dataset_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("fit", "--data", dataset_csv, "--out", out1,
                   *FIT_FLAGS) == 0
        assert run("fit", "--config", out1 / "fit.json", "--out", out2) == 0
        assert ((out1 / "coeffs.mcov").read_bytes()
                == (out2 / "coeffs.mcov").read_bytes())
        assert ((out1 / "rank_report.json").read_bytes()
                == (out2 / "rank_report.json").read_bytes())

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
        done = run_process("fit", "--data", path, "--out", tmp_path / "o", *FIT_FLAGS)
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "mfcov fit: cross-products overflow float64; rescale the values"]

    @pytest.mark.parametrize("command", ["fit", "cv", "eigen", "simulate"])
    def test_matrix_free_fit_imports_numpy_alone(self, dataset_csv, fitted_container,
                                                 tmp_path, command):
        # no subcommand loads scipy; a gram cap of 12 gives q = 144, past
        # DENSE_LIMIT, so fit's and cv's ridge solves run conjugate
        # gradients, stopped here at the iteration cap (exit 2)
        out = tmp_path / "o"
        matrix_free = ["--data", dataset_csv, "--gram-cap", "12", "--eta", "1.0",
                       "--max-iters", "2"]
        argv = {
            "fit": [*matrix_free, "--lambda", "1e-6"],
            "cv": [*matrix_free, "--lambda-grid", "1e-6", "--beta-grid", "0.5"],
            "eigen": ["--container", fitted_container, "--data", dataset_csv],
            "simulate": [*SIM_FLAGS, "--reps", "1"],
        }[command]
        script = (
            "import sys\n"
            "from mfcov import cli\n"
            f"rc = cli.main({[command, '--out', str(out), *map(str, argv)]!r})\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        done = run_python("-c", script)
        code = 2 if command in ("fit", "cv") else 0
        assert done.stdout.splitlines() == [f"{code} []"], done.stderr
        if command == "fit":
            fit = json.loads((out / "fit.json").read_text())
            assert math.prod(fit["dims"]) ** 2 > solver.DENSE_LIMIT
            assert fit["n_iters"] == 2 and not fit["zero_solution"]

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_order_beyond_memory_writes_one_stderr_line(self, dataset_csv, tmp_path,
                                                       command):
        # the basis for this order exceeds any address space, so its
        # allocation fails up front
        done = run_process(command, "--data", dataset_csv, "--out", tmp_path / "o",
                           "--truncation-order", HUGE_ORDER)
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"mfcov {command}: Unable to allocate")

    @pytest.mark.parametrize("option, value", [("--gram-cap", "0"),
                                               ("--gram-tol", "nan"),
                                               ("--gram-tol", "inf"),
                                               ("--gram-tol", "-1e-10"),
                                               ("--gram-tol", "-1"),
                                               ("--gram-tol", "1"),
                                               ("--gram-tol", "2")])
    def test_bad_gram_parameter_exits_one(self, dataset_csv, tmp_path, option, value):
        code, err = run_captured("fit", "--data", dataset_csv, "--out", tmp_path / "o",
                                 f"{option}={value}")
        assert code == 1
        name = option.removeprefix("--").replace("-", " ")
        assert len(err) == 1 and err[0].startswith(f"mfcov fit: {name} must be")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option", ["--lambda", "--eta", "--tol", "--rank-threshold"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_fit_parameter_exits_one(self, dataset_csv, tmp_path, option,
                                                value):
        out = tmp_path / "o"
        code, err = run_captured("fit", "--data", dataset_csv, "--out", out,
                                 *FIT_FLAGS, f"{option}={value}")
        assert code == 1
        name = "lam" if option == "--lambda" else option[2:].replace("-", "_")
        assert len(err) == 1 and err[0].startswith(f"mfcov fit: {name} must be finite")
        assert not out.exists()

    def test_dropped_subject_with_line_break_in_id(self, dataset_csv, tmp_path):
        path = tmp_path / "lonely.csv"
        path.write_text(dataset_csv.read_text() + '"lone\nly",0.5,0.5,1.0\n')
        code, err = run_captured("fit", "--data", path, "--out", tmp_path / "o",
                                 *FIT_FLAGS)
        assert code == 0
        assert len(err) == 1 and err[0].startswith("mfcov fit: dropped subjects")

    def test_dropped_subject_writes_one_stderr_line(self, dataset_csv, tmp_path):
        path = tmp_path / "lonely.csv"
        path.write_text(dataset_csv.read_text() + "lonely,0.5,0.5,1.0\n")
        done = run_process("fit", "--data", path, "--out", tmp_path / "o", *FIT_FLAGS)
        assert done.returncode == 0
        assert done.stderr.splitlines() == [
            "mfcov fit: dropped subjects with fewer than 2 observations: ['lonely']"]

    def test_zero_solution_is_flagged(self, dataset_csv, tmp_path):
        out = tmp_path / "fit"
        assert run("fit", "--data", dataset_csv, "--out", out, *FIT_FLAGS,
                   "--lambda", "1e6") == 0
        diag = json.loads((out / "fit.json").read_text())
        assert diag["zero_solution"] is True
        assert diag["converged"] is True and diag["n_iters"] == 0
        coeffs, _ = read_container(out / "coeffs.mcov")
        assert not coeffs.any()

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

    def test_protocol_base_omits_the_grid_values(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, *SIM_FLAGS, "--reps", "1") == 0
        base = json.loads((out / "benchmark.json").read_text())["protocol"]["base"]
        assert "lambda" not in base and "beta" not in base
        assert base["eta"] == 1e-9

    def test_nan_result_leaves_no_benchmark_json(self, tmp_path, monkeypatch):
        # the result is serialized before the file opens, so a NaN leaves
        # no truncated file behind
        monkeypatch.setattr(simulate, "rank_report", lambda fit: (math.nan, 1, 1))
        out = tmp_path / "sim"
        code, err = run_captured("simulate", "--out", out, *SIM_FLAGS, "--reps", "1")
        assert code == 1
        assert len(err) == 1 and err[0].startswith("mfcov simulate: ")
        assert not (out / "benchmark.json").exists()

    def test_non_finite_aise_is_a_failure_record(self, tmp_path, monkeypatch):
        # one replication's NaN AISE loses that row only: the first call
        # returns NaN, the later ones the real AISE
        scores = iter([math.nan])
        real = simulate.aise
        monkeypatch.setattr(simulate, "aise",
                            lambda *args: next(scores, None) or real(*args))
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, *SIM_FLAGS) == 0
        result = json.loads((out / "benchmark.json").read_text())
        assert [row["rep"] for row in result["rows"]] == [1]
        assert result["failures"] == [{"rep": 0, "error": "ValueError: non-finite AISE (nan)"}]

    @pytest.mark.parametrize("flags, message", [
        (["--sigma", "inf"], "sigma must be finite and nonnegative, got inf"),
        (["--n", "3", "--reps", "3"], "cannot split 3 subjects into 5 folds"),
    ])
    def test_configuration_that_cannot_run_exits_one(self, tmp_path, flags, message):
        # refused before any replication starts: the default protocol
        # cross-validates over 5 folds
        out = tmp_path / "sim"
        code, err = run_captured("simulate", "--out", out, "--n", "6", "--m", "4",
                                 "--reps", "2", "--gram-cap", "3", *flags)
        assert (code, err) == (1, [f"mfcov simulate: {message}"])
        assert not (out / "benchmark.json").exists()

    @pytest.mark.parametrize("tol", ["-1", "1", "2", "nan"])
    def test_gram_tolerance_outside_unit_interval_exits_one(self, tmp_path, monkeypatch,
                                                           tol):
        # refused while the protocol is built, before any replication starts
        started = []
        monkeypatch.setattr(simulate, "run_replication",
                            lambda *args: started.append(args))
        out = tmp_path / "sim"
        code, err = run_captured("simulate", "--out", out, *SIM_FLAGS,
                                 f"--gram-tol={tol}")
        assert (code, err) == (1, [f"mfcov simulate: gram tol must be in [0, 1), "
                                   f"got {float(tol)}"])
        assert started == []
        assert not (out / "benchmark.json").exists()

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

    @pytest.mark.parametrize("flags, message", [
        (["--threads", "0"], "--threads must be >= 1, got 0"),
        (["--threads", "-3"], "--threads must be >= 1, got -3"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_bad_threads_or_seed_exits_one(self, tmp_path, flags, message):
        code, err = run_captured("simulate", "--out", tmp_path / "o", *SIM_FLAGS,
                                 "--reps", "1", *flags)
        assert (code, err) == (1, [f"mfcov simulate: {message}"])
        assert not (tmp_path / "o").exists()

    def test_invalid_setting_exits_one(self, tmp_path, capsys):
        code = run("simulate", "--out", tmp_path / "o", "--setting", "9")
        assert code == 1
        assert "setting" in capsys.readouterr().err


CV_FLAGS = ["--gram-cap", "4", "--eta", "1e-9", "--n-folds", "3"]


class TestCv:
    @pytest.mark.parametrize("tol", ["-1", "1", "2", "nan"])
    def test_gram_tolerance_outside_unit_interval_exits_one(self, dataset_csv, tmp_path,
                                                           tol):
        out = tmp_path / "cv"
        code, err = run_captured("cv", "--data", dataset_csv, "--out", out, *CV_FLAGS,
                                 f"--gram-tol={tol}")
        assert (code, err) == (1, [f"mfcov cv: gram tol must be in [0, 1), "
                                   f"got {float(tol)}"])
        assert not out.exists()

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
        # the winning cell's step: --eta at the grid's median lambda, scaled
        assert selected["eta"] == chosen.eta == 1e-9 * (chosen.lam / ((3e-6 + 1e-5) / 2))
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
        assert json.loads((fit_out / "fit.json").read_text())["run_config"]["eta"] == chosen.eta

    @pytest.mark.parametrize("lambda_grid, max_iters, code", [
        (["3e-6"], "500", 0),
        (["3e-6"], "1", 2),         # every fold of the only cell is capped
        (["1e6", "1e-4"], "1", 0),  # 1e-4 is capped, but ties the zero fit of 1e6
    ])
    def test_exit_code_reports_a_capped_selection(self, dataset_csv, tmp_path,
                                                  lambda_grid, max_iters, code):
        # --eta is the step at the grid's median; the smallest lambda steps
        # at 1e-9 in every case
        grid = sorted(float(x) for x in lambda_grid)
        eta = 1e-9 * ((grid[(len(grid) - 1) // 2] + grid[len(grid) // 2]) / 2) / grid[0]
        out = tmp_path / "cv"
        assert run("cv", "--data", dataset_csv, "--out", out, *CV_FLAGS, "--eta", repr(eta),
                   "--lambda-grid", *lambda_grid, "--beta-grid", "0.5",
                   "--max-iters", max_iters) == code
        assert sorted(p.name for p in out.iterdir()) == [
            "cv_scores.csv", "run_config.json", "selected_config.json"]
        selected = json.loads((out / "selected_config.json").read_text())
        with open(out / "cv_scores.csv", newline="") as fh:
            capped = {float(r["lambda"]): int(r["unconverged_folds"])
                      for r in csv.DictReader(fh)}
        assert (capped[selected["lambda"]] > 0) == (code == 2)
        assert (sum(capped.values()) > 0) == (max_iters == "1")

    @pytest.mark.xfail(strict=True, reason="a step far below the loss curvature passes "
                       "the stop test at the zero start")
    def test_a_far_median_leaves_no_cell_falsely_converged(self, dataset_csv, tmp_path):
        # the median of (1e6, 1e-4) is 5e5, so at --eta 1e-9 the 1e-4 cell
        # steps at 2e-19; one iteration cannot fit it, yet every fold of it
        # reports convergence at the zero fit
        out = tmp_path / "cv"
        run("cv", "--data", dataset_csv, "--out", out, *CV_FLAGS, "--lambda-grid", "1e6",
            "1e-4", "--beta-grid", "0.5", "--max-iters", "1")
        with open(out / "cv_scores.csv", newline="") as fh:
            capped = {float(r["lambda"]): int(r["unconverged_folds"])
                      for r in csv.DictReader(fh)}
        assert capped[1e-4] > 0

    def test_empty_grid_exits_one(self, dataset_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_grid": []}))
        code = run("cv", "--config", cfg, "--data", dataset_csv,
                   "--out", tmp_path / "o", *CV_FLAGS)
        assert code == 1
        assert "grid" in capsys.readouterr().err

    def test_negative_fold_seed_exits_one(self, dataset_csv, tmp_path):
        code, err = run_captured("cv", "--data", dataset_csv, "--out", tmp_path / "o",
                                 "--fold-seed", "-1")
        assert (code, err) == (1, ["mfcov cv: fold_seed must be >= 0, got -1"])
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("sidecar", [{"kernel": 1, "gram": {}, "fit": {}},
                                         {"kernel": {}, "gram": {}, "fit": {}}])
    def test_wrongly_typed_sidecar_exits_one(self, dataset_csv, fitted, tmp_path,
                                             sidecar):
        coeffs, _ = read_container(fitted / "coeffs.mcov")
        path = tmp_path / "coeffs.mcov"
        write_container(path, coeffs, sidecar)
        code, err = run_captured("eigen", "--container", path, "--data", dataset_csv,
                                 "--out", tmp_path / "o")
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"mfcov eigen: {path}: ")

    def test_line_break_in_sidecar_key_stays_on_one_line(self, dataset_csv, fitted,
                                                        tmp_path):
        coeffs, sidecar = read_container(fitted / "coeffs.mcov")
        sidecar["fit"]["config"] = {"\x1e": None}
        path = tmp_path / "coeffs.mcov"
        write_container(path, coeffs, sidecar)
        code, err = run_captured("eigen", "--container", path, "--data", dataset_csv,
                                 "--out", tmp_path / "o")
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"mfcov eigen: {path}: malformed")

    def test_sidecar_order_beyond_memory_writes_one_stderr_line(self, dataset_csv,
                                                                fitted, tmp_path):
        coeffs, sidecar = read_container(fitted / "coeffs.mcov")
        sidecar["kernel"]["truncation_order"] = HUGE_ORDER
        path = tmp_path / "coeffs.mcov"
        write_container(path, coeffs, sidecar)
        done = run_process("eigen", "--container", path, "--data", dataset_csv,
                           "--out", tmp_path / "o")
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("mfcov eigen: Unable to allocate")

    @pytest.mark.parametrize("option, value, least", [("--components", "-2", 0),
                                                      ("--eigen-grid", "0", 1)])
    def test_bad_export_option_exits_one(self, dataset_csv, fitted, tmp_path,
                                         option, value, least):
        out = tmp_path / "o"
        code, err = run_captured("eigen", "--container", fitted / "coeffs.mcov",
                                 "--data", dataset_csv, "--out", out, option, value)
        assert code == 1
        assert err == [f"mfcov eigen: {option} must be >= {least}, got {value}"]
        assert not out.exists()

    def test_wrong_dataset_exits_one(self, fitted, tmp_path, capsys):
        other = tmp_path / "other.csv"
        save_csv(generate(SimSetting(setting=3, n=8, m=4, sigma=0.2, seed=6)),
                 other)
        code = run("eigen", "--container", fitted / "coeffs.mcov",
                   "--data", other, "--out", tmp_path / "o")
        assert code == 1
        assert "provenance mismatch" in capsys.readouterr().err


def option_keys(command):
    return {"command"} | {cli._key(name) for name in cli._FLAGS[command]}


@pytest.fixture(scope="module")
def fresh_runs(dataset_csv, fitted, tmp_path_factory):
    """One run of each subcommand: (its argv without --out, its output
    directory, the file holding its persisted config)."""
    root = tmp_path_factory.mktemp("fresh")
    argvs = {
        "fit": ["fit", "--data", dataset_csv, *FIT_FLAGS],
        "cv": ["cv", "--data", dataset_csv, *CV_FLAGS, "--lambda-grid", "3e-6", "1e-5",
               "--beta-grid", "0.5"],
        "simulate": ["simulate", *SIM_FLAGS, "--reps", "1"],
        "eigen": ["eigen", "--container", fitted / "coeffs.mcov", "--data", dataset_csv,
                  "--eigen-grid", "5"],
    }
    runs = {}
    for command, argv in argvs.items():
        assert run(*argv, "--out", root / command) == 0
        config = "fit.json" if command == "fit" else "run_config.json"
        runs[command] = (argv, root / command, root / command / config)
    return runs


class TestPersistedConfig:
    """A subcommand accepts, resolves and persists exactly its own options."""

    @pytest.mark.parametrize("command", list(cli._FLAGS))
    def test_persisted_keys_are_the_commands_options(self, fresh_runs, command):
        _, out, config = fresh_runs[command]
        persisted = json.loads(config.read_text())
        assert set(persisted.get("run_config", persisted)) == option_keys(command)
        if command == "cv":
            # a fit config, without cv's grids, folds or output directory
            selected = out / "selected_config.json"
            assert set(json.loads(selected.read_text())) == option_keys("fit") - {"out"}
            assert run_captured("fit", "--config", selected) == (
                1, ["mfcov fit: missing required option --out (config key 'out')"])

    @pytest.mark.parametrize("command, config", [("eigen", {"decay_exponent": 3.0}),
                                                 ("cv", {"lambda": 0.7})])
    def test_key_of_another_command_exits_one(self, fresh_runs, tmp_path, command,
                                              config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv, _, _ = fresh_runs[command]
        out = tmp_path / "o"
        code, err = run_captured(*argv, "--config", path, "--out", out)
        (key,) = config
        assert (code, err) == (1, [f"mfcov {command}: unknown config key '{key}'"])
        assert not out.exists()

    def test_readme_flag_table_marks_exactly_the_missing_flags(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        lines = readme.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("| flag |"))
        commands = re.findall(r"`(\w+)`", lines[start])
        assert sorted(commands) == sorted(cli._FLAGS)
        listed = set()
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            head, *cells = (cell.strip() for cell in line.strip("|").split("|"))
            names = [flag.replace("[no-]", "").replace("-", "_")
                     for flag in re.findall(r"`--([a-z\[\]-]+)`", head)]
            keys = set(names)
            listed |= keys
            for command, cell in zip(commands, cells, strict=True):
                assert (cell == "·") == (not keys <= option_keys(command)), (head, command)
                # a cell of one value per flag shows the flags' resolved defaults
                values = [{"off": "0", "on": "1"}.get(v, v) for v in cell.split(", ")]
                try:
                    values = [float(v) for v in values]
                except ValueError:
                    continue   # a range, a note, "required" or "·"
                resolved = RunConfig(command).resolved().to_dict()
                assert len(values) == len(names), (head, command)
                assert [resolved[name] for name in names] == values, (head, command)
        assert listed == set().union(*map(option_keys, cli._FLAGS)) - {"command"}

    @pytest.mark.parametrize("name", [*cli._FLAGS, "selected_config"])
    def test_parent_shape_replays_byte_identically(self, fresh_runs, tmp_path, name):
        # earlier versions persisted every RunConfig key, the other commands'
        # keys included (threads on fit, say), and maybe adaptive_eta false
        if name == "selected_config":
            command, config = "fit", fresh_runs["cv"][1] / "selected_config.json"
        else:
            command, config = name, fresh_runs[name][2]
        every = {}
        for _, _, path in fresh_runs.values():
            persisted = json.loads(path.read_text())
            every.update(persisted.get("run_config", persisted))
        fresh = json.loads(config.read_text())
        old_config = {**every, "threads": 1, "lambda": 0.7, "beta": 0.1,
                      **fresh.get("run_config", fresh), "adaptive_eta": False}
        old = {**fresh, "run_config": old_config} if "run_config" in fresh else old_config
        outputs = []
        for persisted in (fresh, old):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(persisted))
            replay = tmp_path / "replay"   # the same path, so the files can match
            assert run(command, "--config", path, "--out", replay) == 0
            outputs.append({p.name: p.read_bytes() for p in replay.iterdir()})
        assert outputs[0] == outputs[1]
