"""mfcov benchmark: three closed-loop workloads with output checks.

Run from the repository root:

    python3 perfbench/run.py --workload sim-replication --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps every public function of the package, prints the
per-layer metrics and writes the spans to ``perfbench/out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Diagnostics (environment,
failed checks, anchor mismatches) go to standard error.  See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fixed before numpy loads, so every machine runs the same BLAS thread count
# (at most the cores this process may use).
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

# Setup is sampled this many times per run (this process plus fresh
# processes that only set up) and reported as the median.
SETUP_SAMPLES = 5

# Relative tolerance of the PSD check on a square unfolding's eigenvalues.
PSD_RTOL = 1e-9


# The tracer of a traced run; None while tracing is off.
TRACER = None


@contextmanager
def span(name):
    """A harness span when tracing is on, otherwise nothing."""
    if TRACER is None:
        yield
        return
    rec = TRACER.begin(name)
    try:
        yield
    finally:
        TRACER.end(rec)


def load_mfcov():
    """Import the package from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mfcov
        import mfcov.cli  # noqa: F401  (imports every layer)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mfcov from {src}: {exc}")
    if Path(mfcov.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: mfcov was imported from {mfcov.__file__}, "
                 f"not from {src}")


def attempt(fn, *args):
    """Call one benchmark operation; an exception is returned, not raised."""
    try:
        return fn(*args)
    except Exception as exc:
        traceback.print_exc()
        return exc


def capture(module, name):
    """Rebind ``module.name`` to record each call's (args, result)."""
    calls = []
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, out))
        return out

    setattr(module, name, recorded)
    return calls


def psd_problem(b_sq):
    w = np.linalg.eigvalsh((b_sq + b_sq.T) / 2.0)
    scale = float(np.abs(w).max()) if w.size else 0.0
    if w.size and w.min() < -PSD_RTOL * scale:
        return f"square unfolding not PSD (min eigenvalue {w.min():.3e}, max |eig| {scale:.3e})"
    return None


def finite_problem(label, value):
    return None if math.isfinite(value) else f"{label} is not finite ({value})"


class Outcome:
    """Operations attempted and failed, anchor records and quality values."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.records = []    # one list of per-operation dicts per op
        self.aise = []
        self.unconverged = 0
        self.bytes_written = 0

    def operation(self, label, result, problems=()):
        self.attempted += 1
        problems = [p for p in problems if p]
        if isinstance(result, Exception):
            problems.insert(0, f"raised {type(result).__name__}: {result}")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: check failed [{label}]: {p}", file=sys.stderr)


# ---------------------------------------------------------------------------
# workloads.  Each op j draws its inputs from spawn key (seed, j); the op
# count comes from --seconds and a nominal op time, so the work a run does
# depends only on its arguments, never on the speed of the code under test.

class SimReplication:
    """Two ``simulate.run_replication`` calls (m=10, m=20), default protocol."""

    op_seconds = 10.0

    def __init__(self, seed, tiny):
        from mfcov.simulate import BENCHMARK_LAMBDA_GRID, FitProtocol
        self.seed = seed
        self.n, self.ms = (20, (5,)) if tiny else (100, (10, 20))
        self.protocol = (FitProtocol(lambda_grid=BENCHMARK_LAMBDA_GRID[2:3],
                                     beta_grid=(0.5, 1.0), n_folds=2)
                         if tiny else FitProtocol())

    def setup(self, workdir):
        from mfcov import simulate
        self.fits = capture(simulate, "admm_fit")

    def op(self, j):
        from mfcov import simulate
        out = []
        for m in self.ms:
            setting = simulate.SimSetting(setting=1, n=self.n, m=m, sigma=0.1,
                                          spawn_key=(self.seed, j))
            self.fits.clear()
            row = attempt(simulate.run_replication, setting, self.protocol)
            out.append((m, row, self.fits[-1][1] if self.fits else None))
        return out

    def verify(self, j, results, outcome):
        records = []
        for m, row, fit in results:
            problems = []
            if not isinstance(row, Exception):
                problems += [finite_problem("aise", row["aise"]),
                             psd_problem(fit.coeff_square())]
                outcome.aise.append(row["aise"])
                outcome.unconverged += 0 if row["converged"] else 1
                records.append({"m": m, "lambda": row["lambda"], "beta": row["beta"],
                                "ranks": [row["rank"], row["rank_1"], row["rank_2"]],
                                "n_iters": row["n_iters"], "converged": row["converged"],
                                "aise": row["aise"]})
            outcome.operation(f"op {j} m={m}", row, problems)
        outcome.records.append(records)


class LargeNFit:
    """One fixed-configuration fit on N=4000 pooled points per dimension."""

    op_seconds = 15.0

    def __init__(self, seed, tiny):
        self.seed = seed
        self.n, self.m = (10, 4) if tiny else (400, 10)

    def setup(self, workdir):
        pass

    def op(self, j):
        return [attempt(self._pipeline, j)]

    def _pipeline(self, j):
        # Module attributes, looked up per call, so a traced run sees the
        # wrapped functions.
        from dataclasses import replace
        from mfcov import data, simulate, solver, spectral

        setting = simulate.SimSetting(setting=1, n=self.n, m=self.m, sigma=0.1,
                                      spawn_key=(self.seed, j))
        protocol = simulate.FitProtocol()
        config = replace(protocol.base, lam=simulate.BENCHMARK_LAMBDA_GRID[2],
                         beta=solver.DEFAULT_BETA_GRID[2])
        dataset = simulate.generate(setting)
        grams = data.gram_factors(dataset, protocol.kernel, tol=protocol.gram_tol,
                                  cap=protocol.gram_cap)
        cross = data.cross_products(dataset)
        pre = solver.precompute(dataset, cross, grams)
        fit = solver.admm_fit(dataset, cross, grams, config, pre=pre)
        return {
            "fit": fit,
            "ranks": solver.rank_report(fit),
            "aise": simulate.aise(fit, protocol.kernel, setting, protocol.aise_grid),
            "eig": spectral.l2_eigensystem(fit, protocol.kernel),
            "marginals": [spectral.marginal_basis(fit, protocol.kernel, k)
                          for k in range(dataset.p)],
        }

    def verify(self, j, results, outcome):
        (res,) = results
        problems = []
        if not isinstance(res, Exception):
            fit = res["fit"]
            fve = res["eig"].fraction_of_variation
            problems += [finite_problem("aise", res["aise"]),
                         psd_problem(fit.coeff_square()),
                         fve_problem(list(fve))]
            if not all(np.isfinite(mb.singular_values).all() for mb in res["marginals"]):
                problems.append("marginal singular values are not finite")
            outcome.aise.append(res["aise"])
            outcome.unconverged += 0 if fit.converged else 1
            outcome.records.append([{
                "lambda": fit.config.lam, "beta": fit.config.beta,
                "ranks": [int(r) for r in res["ranks"]], "n_iters": int(fit.n_iters),
                "converged": bool(fit.converged), "aise": res["aise"]}])
        outcome.operation(f"op {j} fit", res, problems)


def fve_problem(fve):
    if any(b < a for a, b in zip(fve, fve[1:])):
        return "cumulative FVE decreases"
    if fve and abs(fve[-1] - 1.0) > 1e-9:
        return f"cumulative FVE ends at {fve[-1]!r}, not 1"
    return None


class CliTune:
    """``mfcov cv`` -> ``fit --config selected_config.json`` -> ``eigen``.

    CLI defaults throughout (gram cap 12, so q=144 and the matrix-free CG
    path; the 7x5 grid; 5 folds) except the iteration cap, which keeps a
    run near half a minute.
    """

    op_seconds = 13.0
    FILES = {
        "cv": ("cv_scores.csv", "selected_config.json", "run_config.json"),
        "fit": ("coeffs.mcov", "fit.json", "rank_report.json"),
        "eigen": ("eigen.json", "run_config.json"),
    }

    def __init__(self, seed, tiny):
        self.seed = seed
        self.n, self.m, self.max_iters = (10, 4, 5) if tiny else (20, 10, 25)

    def setup(self, workdir):
        from mfcov import cli
        from mfcov.data import save_csv
        from mfcov.simulate import SimSetting, generate
        self.workdir = workdir
        self.settings, self.csvs = [], []
        for j in range(self.ops):
            setting = SimSetting(setting=1, n=self.n, m=self.m, sigma=0.1,
                                 spawn_key=(self.seed, j))
            path = workdir / f"data-{j}.csv"
            save_csv(generate(setting), path)
            self.settings.append(setting)
            self.csvs.append(path)
        self.fits = capture(cli, "admm_fit")
        self.written = capture(cli, "write_container")

    def op(self, j):
        from mfcov import cli
        d = self.workdir / f"op-{j}"
        csv_path = str(self.csvs[j])
        argvs = {
            "cv": ["cv", "--data", csv_path, "--out", str(d / "cv"),
                   "--max-iters", str(self.max_iters)],
            "fit": ["fit", "--config", str(d / "cv" / "selected_config.json"),
                    "--out", str(d / "fit")],
            "eigen": ["eigen", "--container", str(d / "fit" / "coeffs.mcov"),
                      "--data", csv_path, "--out", str(d / "eigen")],
        }
        self.fits.clear()
        self.written.clear()
        out = []
        for command, argv in argvs.items():
            with span(f"cli.{command}"):
                out.append((command, attempt(cli.main, argv)))
        return out

    def verify(self, j, results, outcome):
        from mfcov.cli import read_container
        from mfcov.kernel import KernelSpec
        from mfcov.simulate import aise
        from mfcov.tensor import square_unfold

        d = self.workdir / f"op-{j}"
        record = {"exit_codes": [rc if isinstance(rc, int) else None for _, rc in results]}
        for command, rc in results:
            out = d / command
            problems = [f"missing {name}" for name in self.FILES[command]
                        if not (out / name).is_file()]
            if isinstance(rc, int) and rc not in (0, 2):
                problems.append(f"exit code {rc}")
            if problems or isinstance(rc, Exception):
                outcome.operation(f"op {j} {command}", rc, problems)
                continue
            if command == "cv":
                sel = json.loads((out / "selected_config.json").read_text())
                record["lambda"], record["beta"] = sel["lambda"], sel["beta"]
            elif command == "fit":
                coeffs, _ = read_container(out / "coeffs.mcov")
                written = np.ascontiguousarray(self.written[-1][0][1], dtype="<f8")
                if coeffs.shape != written.shape or coeffs.tobytes() != written.tobytes():
                    problems.append("read_container does not return the written coefficients")
                problems.append(psd_problem(square_unfold(coeffs)))
                fit = self.fits[-1][1]
                err = aise(fit, KernelSpec(), self.settings[j])
                problems.append(finite_problem("aise", err))
                outcome.aise.append(err)
                outcome.unconverged += 1 if rc == 2 else 0
                ranks = json.loads((out / "rank_report.json").read_text())
                record["ranks"] = [ranks["two_way"], *ranks["one_way"]]
                record["n_iters"] = json.loads((out / "fit.json").read_text())["n_iters"]
                record["aise"] = err
            else:
                eig = json.loads((out / "eigen.json").read_text())
                problems.append(fve_problem(eig["fve_cumulative"]))
                exported = [f"eigenfunction_{l + 1:02d}.csv"
                            for l in range(eig["components_exported"])]
                exported += [f"marginal_{k + 1}.csv" for k in range(len(eig["marginals"]))]
                problems += [f"missing {name}" for name in exported
                             if not (out / name).is_file()]
            outcome.bytes_written += sum(f.stat().st_size for f in out.iterdir())
            outcome.operation(f"op {j} {command}", rc, problems)
        outcome.records.append([record])


WORKLOADS = {
    "sim-replication": SimReplication,
    "large-n-fit": LargeNFit,
    "cli-tune": CliTune,
}

# ---------------------------------------------------------------------------
# metrics

def environment():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
    }


TIMED = (
    "kernel.assemble_gram", "kernel.factorize_gram", "kernel.cross_integral",
    "data.gram_factors", "data.load_csv", "data.cross_products",
    "solver.cv_select", "solver.precompute", "solver.admm_fit", "solver.rank_report",
    "spectral.l2_eigensystem", "spectral.marginal_basis", "spectral.evaluate_on_grid",
    "simulate.generate", "simulate.aise",
    "cli.cv", "cli.fit", "cli.eigen", "cli.write_container", "cli.read_container",
)
SPAN_OF = {"kernel.cross_integral": "kernel.kernel_cross_integral"}


def layer_metrics(tracer, outcome, walls):
    from spans import LAYERS
    ops = len(walls)
    incl, own, calls = tracer.summary()
    out = {}
    for metric in TIMED:
        name = SPAN_OF.get(metric, metric)
        out[f"{metric}_s"] = incl[name] / ops
        out[f"{metric}_self_s"] = own[name] / ops
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in own.items()
                                     if k.split(".")[0] == layer) / ops
    out["tensor.calls"] = sum(v for k, v in calls.items() if k.startswith("tensor.")) / ops
    out["kernel.gram_bytes"] = tracer.counts["kernel.gram_bytes"] / ops
    out["solver.precompute_calls"] = calls["solver.precompute"] / ops
    fits = tracer.counts["solver.cv_fits"]
    out["solver.cv_fits"] = fits / ops
    out["solver.cv_s_per_fit"] = incl["solver.cv_select"] / fits if fits else 0.0
    iters = tracer.counts["solver.admm_fit_iters"]
    out["solver.admm_fit_iters"] = iters / ops
    out["solver.admm_s_per_iter"] = incl["solver.admm_fit"] / iters if iters else 0.0
    out["solver.unconverged_fits"] = outcome.unconverged / ops
    out["simulate.aise"] = statistics.fmean(outcome.aise) if outcome.aise else float("nan")
    out["cli.bytes_written"] = outcome.bytes_written / ops
    out["trace.wall_s"] = statistics.fmean(walls)
    out["trace.spans"] = len(tracer.spans) / ops
    return out


def compare_anchors(workload, seed, records):
    """Print every difference from the recorded anchors of this seed."""
    path = HERE / "baseline.json"
    anchors = json.loads(path.read_text()).get("anchors", {}) if path.exists() else {}
    expected = anchors.get(workload, {}).get(str(seed))
    if expected is None:
        print(f"perfbench: no anchors recorded for {workload} seed {seed}", file=sys.stderr)
        return
    for j, (want_op, got_op) in enumerate(zip(expected, records)):
        for want, got in zip(want_op, got_op):
            for key, value in want.items():
                other = got.get(key)
                same = (abs(other - value) <= 1e-6 * abs(value)
                        if isinstance(value, float) and isinstance(other, float)
                        else other == value)
                if not same:
                    print(f"perfbench: anchor mismatch {workload} seed {seed} op {j} "
                          f"{key}: recorded {value!r}, got {other!r}", file=sys.stderr)


def setup_samples(args, own):
    """This process's setup time plus fresh processes that only set up."""
    samples = [own]
    for k in range(1, SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--setup-only", str(k)]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (n=10) instead of the benchmark sizes")
    parser.add_argument("--setup-only", type=int, metavar="K", default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    global TRACER
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_mfcov()

    if args.trace:
        from spans import Tracer, instrument
        TRACER = Tracer()
        instrument(TRACER)
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    workload.ops = max(1, int(args.seconds // workload.op_seconds))
    tag = f"{args.workload}-{args.seed}" + (f"-setup{args.setup_only}" if args.setup_only else "")
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload.setup(workdir)
    setup_own = time.perf_counter() - T0
    if args.setup_only is not None:
        shutil.rmtree(workdir, ignore_errors=True)
        print(repr(setup_own))
        return 0

    env = environment()
    print(f"perfbench: environment {json.dumps(env)}", file=sys.stderr)
    setup = setup_samples(args, setup_own) if not args.trace else [setup_own]

    outcome = Outcome()
    walls = []
    for j in range(workload.ops):
        if TRACER is not None:
            TRACER.run, TRACER.active = j, True
        with span("harness.op"):
            start = time.perf_counter()
            results = workload.op(j)
            walls.append(time.perf_counter() - start)
        if TRACER is not None:
            TRACER.active = False
        workload.verify(j, results, outcome)
        del results  # an op's arrays must not stay alive through the next op
    print(f"perfbench: op walls {walls} setup samples {setup}", file=sys.stderr)
    print(f"perfbench: anchors {json.dumps(outcome.records)}", file=sys.stderr)
    if not args.tiny:
        compare_anchors(args.workload, args.seed, outcome.records)

    if args.trace:
        values = layer_metrics(TRACER, outcome, walls)
        TRACER.dump(OUT / f"trace-{args.workload}.json",
                    workload=args.workload, seed=args.seed, environment=env)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.fmean(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
