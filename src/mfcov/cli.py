"""Command-line interface: fit, simulate, eigen, cv.

Every subcommand reads an optional JSON config file whose keys mirror the
flags one-to-one (flags override the file), resolves the remaining defaults,
and persists the effective configuration next to its outputs, so any run can
be replayed exactly: simulate, eigen, and cv write ``run_config.json``, while
fit keeps to its three outputs and records the configuration inside
``fit.json`` under ``run_config`` (``--config`` accepts either form).  Exit
status 1 reports an input, validation or solver failure, 2 a fit that
stopped on the iteration cap (outputs are still written); nothing mutates
its inputs.

Fitted coefficients persist in a single binary container: magic ``MCOV1``, a
shape header, the little-endian float64 payload, and a trailing UTF-8 JSON
sidecar recording the kernel, the gram factorization parameters, and
per-dimension SHA-256 hashes of the pooled coordinates.  The eigen subcommand
refuses a container whose provenance does not match the dataset it is given.
"""

import argparse
import csv
import json
import struct
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import cross_products, gram_factors, load_csv, make_folds
from .kernel import KernelSpec
from .simulate import FitProtocol, SimSetting, run_benchmark, save_json, save_table
from .solver import (DEFAULT_BETA_GRID, DEFAULT_LAMBDA_GRID, CovarianceFit,
                     FitConfig, admm_fit, cv_select, rank_report)
from .spectral import l2_eigensystem, marginal_basis

__all__ = [
    "RunConfig",
    "read_container",
    "write_container",
    "cmd_fit",
    "cmd_simulate",
    "cmd_eigen",
    "cmd_cv",
    "main",
]

MAGIC = b"MCOV1"


def write_container(path, coeffs, sidecar):
    """Write a coefficient tensor and its provenance sidecar as one file.

    Binary layout: magic, one byte of tensor order, little-endian uint64
    dimensions, the C-order float64 payload, then the sidecar as a UTF-8
    JSON tail.  The shape header fixes the payload length exactly, so the
    tail needs no length prefix.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype="<f8")
    if not 1 <= coeffs.ndim <= 255:
        raise ValueError(f"cannot store a tensor of order {coeffs.ndim}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", coeffs.ndim))
        fh.write(struct.pack(f"<{coeffs.ndim}Q", *coeffs.shape))
        fh.write(coeffs.tobytes())
        fh.write(json.dumps(sidecar).encode())


def read_container(path):
    """Read back a coefficient tensor and its sidecar dict."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not an MCOV1 container")
    if len(blob) < len(MAGIC) + 1:
        raise ValueError(f"{path}: truncated header")
    ndim = blob[len(MAGIC)]
    head = len(MAGIC) + 1 + 8 * ndim
    if len(blob) < head:
        raise ValueError(f"{path}: truncated shape header")
    shape = struct.unpack(f"<{ndim}Q", blob[len(MAGIC) + 1 : head])
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 0
    end = head + 8 * count
    if len(blob) < end:
        raise ValueError(
            f"{path}: payload holds {(len(blob) - head) // 8} values, "
            f"shape {shape} needs {count}"
        )
    coeffs = np.frombuffer(blob[head:end], dtype="<f8").reshape(shape).copy()
    tail = blob[end:]
    if not tail:
        raise ValueError(f"{path}: container sidecar is missing")
    try:
        sidecar = json.loads(tail.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ValueError(f"{path}: container sidecar is not valid JSON")
    if not isinstance(sidecar, dict):
        raise ValueError(f"{path}: sidecar must be a JSON object")
    return coeffs, sidecar


@dataclass
class RunConfig:
    """Effective configuration of one subcommand invocation.

    Unset fields are ``None`` until ``resolved()`` fills them with the
    subcommand's defaults; the resolved form is what gets persisted and what
    a replay consumes.  ``lam`` serializes under the key ``lambda``.
    """

    command: str
    data: str = None
    out: str = None
    container: str = None
    # kernel
    decay_exponent: float = None
    truncation_order: int = None
    include_constant: bool = None
    constant_coef: float = None
    # gram factorization
    gram_tol: float = None
    gram_cap: int = None
    # single fit
    lam: float = None
    beta: float = None
    eta: float = None
    max_iters: int = None
    tol: float = None
    rank_threshold: float = None
    adaptive_eta: bool = None
    # cross-validation
    lambda_grid: list = None
    beta_grid: list = None
    n_folds: int = None
    fold_seed: int = None
    # simulation
    setting: int = None
    n: int = None
    m: int = None
    sigma: float = None
    seed: int = None
    reps: int = None
    aise_grid: int = None
    threads: int = None
    # spectral exports
    eigen_grid: int = None
    components: int = None

    def to_dict(self):
        out = {}
        for f in fields(self):
            key = "lambda" if f.name == "lam" else f.name
            out[key] = getattr(self, f.name)
        return out

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown config key '{unknown[0]}'")
        return cls(**d)

    def resolved(self):
        """One copy with every unset field filled by the command's default."""
        out = replace(self)
        for key, value in _defaults(self.command).items():
            if getattr(out, key) is None:
                setattr(out, key, value)
        return out

    # --- domain objects -------------------------------------------------
    def kernel_spec(self):
        return KernelSpec(
            decay_exponent=self.decay_exponent,
            truncation_order=self.truncation_order,
            include_constant=self.include_constant,
            constant_coef=self.constant_coef,
        )

    def fit_config(self):
        return FitConfig(
            lam=self.lam, beta=self.beta, eta=self.eta,
            max_iters=self.max_iters, tol=self.tol,
            rank_threshold=self.rank_threshold,
            adaptive_eta=self.adaptive_eta,
        )

    def protocol(self):
        return FitProtocol(
            lambda_grid=tuple(self.lambda_grid),
            beta_grid=tuple(self.beta_grid),
            n_folds=self.n_folds, gram_cap=self.gram_cap,
            gram_tol=self.gram_tol, kernel=self.kernel_spec(),
            base=self.fit_config(), aise_grid=self.aise_grid,
        )

    def sim_setting(self):
        return SimSetting(setting=self.setting, n=self.n, m=self.m,
                          sigma=self.sigma, seed=self.seed)


def _defaults(command):
    """Per-subcommand defaults, taken from the library objects themselves."""
    spec = KernelSpec()
    out = {
        "decay_exponent": spec.decay_exponent,
        "truncation_order": spec.truncation_order,
        "include_constant": spec.include_constant,
        "constant_coef": spec.constant_coef,
        "n_folds": 5,
        "fold_seed": 0,
    }
    if command == "simulate":
        proto = FitProtocol()
        base = proto.base
        out.update(
            gram_tol=proto.gram_tol, gram_cap=proto.gram_cap,
            lambda_grid=list(proto.lambda_grid), beta_grid=list(proto.beta_grid),
            n_folds=proto.n_folds, aise_grid=proto.aise_grid,
            lam=base.lam, beta=base.beta, eta=base.eta,
            max_iters=base.max_iters, tol=base.tol,
            rank_threshold=base.rank_threshold, adaptive_eta=base.adaptive_eta,
            setting=1, n=100, m=10, sigma=0.1, seed=0, reps=20, threads=1,
        )
    else:
        base = FitConfig()
        out.update(
            gram_tol=1e-10, gram_cap=12,
            lam=base.lam, beta=base.beta, eta=base.eta,
            max_iters=base.max_iters, tol=base.tol,
            rank_threshold=base.rank_threshold, adaptive_eta=base.adaptive_eta,
            lambda_grid=[float(x) for x in DEFAULT_LAMBDA_GRID],
            beta_grid=[float(x) for x in DEFAULT_BETA_GRID],
        )
    if command == "eigen":
        out.update(eigen_grid=21, components=8)
    return out


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            flag = name.replace("_", "-")
            raise ValueError(f"missing required option --{flag} (config key '{name}')")


def _outdir(cfg):
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _persist_config(cfg, outdir):
    _write_json(outdir / "run_config.json", cfg.to_dict())


def _fit_sidecar(cfg, spec, grams, fit):
    return {
        "format": "MCOV1",
        "kernel": spec.to_dict(),
        "gram": {
            "tol": cfg.gram_tol,
            "cap": cfg.gram_cap,
            "ranks": [int(g.retained_rank) for g in grams],
            "locations_sha256": [g.locations_hash() for g in grams],
        },
        "fit": {
            "config": fit.config.to_dict(),
            "converged": bool(fit.converged),
            "n_iters": int(fit.n_iters),
            "objective_value": float(fit.objective_value),
            "eta_final": float(fit.eta_final),
        },
    }


def cmd_fit(cfg):
    """CSV dataset -> coefficient container + diagnostics + rank report.

    Exactly three files; the effective config travels inside ``fit.json``
    so the diagnostics double as a replayable ``--config``.
    """
    _require(cfg, "data", "out")
    data = load_csv(cfg.data)
    spec = cfg.kernel_spec()
    grams = gram_factors(data, spec, tol=cfg.gram_tol, cap=cfg.gram_cap)
    fit = admm_fit(data, cross_products(data), grams, cfg.fit_config())
    outdir = _outdir(cfg)
    write_container(outdir / "coeffs.mcov", fit.coeffs,
                    _fit_sidecar(cfg, spec, grams, fit))
    _write_json(outdir / "fit.json", {
        "converged": bool(fit.converged),
        "n_iters": int(fit.n_iters),
        "objective_value": float(fit.objective_value),
        "eta_final": float(fit.eta_final),
        "primal_residuals": [float(r) for r in fit.primal_residuals],
        "dims": [int(d) for d in fit.dims],
        "dataset": data.stats(),
        "run_config": cfg.to_dict(),
    })
    ranks = rank_report(fit)
    _write_json(outdir / "rank_report.json", {
        "threshold": fit.config.rank_threshold,
        "two_way": int(ranks[0]),
        "one_way": [int(r) for r in ranks[1:]],
    })
    return 0 if fit.converged else 2


def cmd_simulate(cfg):
    """Seeded replication benchmark -> JSON + CSV tables."""
    _require(cfg, "out")
    setting = cfg.sim_setting()
    protocol = cfg.protocol()
    result = run_benchmark(setting, cfg.reps, protocol, workers=cfg.threads)
    outdir = _outdir(cfg)
    save_json(result, outdir / "benchmark.json")
    save_table(result, outdir / "benchmark.csv")
    _persist_config(cfg, outdir)
    return 0


def cmd_cv(cfg):
    """Grid search -> score table CSV + a fit-ready selected config."""
    _require(cfg, "data", "out")
    data = load_csv(cfg.data)
    spec = cfg.kernel_spec()
    grams = gram_factors(data, spec, tol=cfg.gram_tol, cap=cfg.gram_cap)
    folds = make_folds(data, cfg.n_folds, cfg.fold_seed)
    chosen, scores, cells = cv_select(data, grams, cfg.lambda_grid, cfg.beta_grid,
                                      folds=folds, base=cfg.fit_config())
    outdir = _outdir(cfg)
    with open(outdir / "cv_scores.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "beta", "score", "n_iters", "unconverged_folds"])
        for li, lam in enumerate(cfg.lambda_grid):
            for bj, beta in enumerate(cfg.beta_grid):
                writer.writerow([repr(float(lam)), repr(float(beta)),
                                 repr(float(scores[li, bj])),
                                 int(cells.n_iters[li, bj]),
                                 int(cells.unconverged_folds[li, bj])])
    selected = replace(cfg, command="fit", lam=chosen.lam, beta=chosen.beta)
    _write_json(outdir / "selected_config.json", selected.to_dict())
    _persist_config(cfg, outdir)
    return 0


def _check_provenance(sidecar, grams, coeffs, container):
    gram_info = sidecar.get("gram", {})
    hashes = gram_info.get("locations_sha256")
    if not hashes or len(hashes) != len(grams):
        raise ValueError(f"{container}: sidecar lacks per-dimension location hashes")
    for k, (gf, expect) in enumerate(zip(grams, hashes), start=1):
        if gf.locations_hash() != expect:
            raise ValueError(
                f"gram provenance mismatch for dimension {k}: the dataset's "
                "pooled coordinates do not hash to the sidecar value"
            )
    dims = tuple(int(g.retained_rank) for g in grams)
    if coeffs.shape != dims + dims:
        raise ValueError(
            f"gram provenance mismatch: container shape {coeffs.shape} vs "
            f"refactorized dimensions {dims + dims}"
        )


def cmd_eigen(cfg):
    """Container + matching dataset -> spectrum JSON and gridded CSV exports."""
    _require(cfg, "container", "data", "out")
    coeffs, sidecar = read_container(cfg.container)
    for key in ("kernel", "gram", "fit"):
        if key not in sidecar:
            raise ValueError(f"{cfg.container}: sidecar lacks '{key}'")
    data = load_csv(cfg.data)
    spec = KernelSpec.from_dict(sidecar["kernel"])
    grams = gram_factors(data, spec, tol=sidecar["gram"]["tol"],
                         cap=sidecar["gram"]["cap"])
    _check_provenance(sidecar, grams, coeffs, cfg.container)
    p = len(grams)
    fit = CovarianceFit(
        coeffs=coeffs, config=FitConfig.from_dict(sidecar["fit"]["config"]),
        grams=grams, converged=bool(sidecar["fit"]["converged"]),
        n_iters=int(sidecar["fit"]["n_iters"]),
        objective_value=float(sidecar["fit"]["objective_value"]),
        primal_residuals=np.zeros(p + 1), objective_trace=np.zeros(0),
        eta_final=float(sidecar["fit"]["eta_final"]),
    )
    eig = l2_eigensystem(fit, spec)
    outdir = _outdir(cfg)
    ax = np.linspace(0.0, 1.0, int(cfg.eigen_grid))
    n_exported = min(int(cfg.components), len(eig))
    total = float(eig.eigenvalues.sum()) if len(eig) else 0.0
    shares = [float(v) / total for v in eig.eigenvalues] if total > 0 else []

    marginals = []
    for k in range(p):
        mb = marginal_basis(fit, spec, k)
        marginals.append({
            "dimension": k + 1,
            "singular_values": [float(s) for s in mb.singular_values],
        })
        with open(outdir / f"marginal_{k + 1}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"f{j + 1}" for j in range(len(mb))])
            vals = mb.basis_grid(ax)
            for row, t in enumerate(ax):
                writer.writerow([repr(float(t))]
                                + [repr(float(v)) for v in vals[row]])

    for l in range(n_exported):
        grid = eig.eigenfunction_grid(l, [ax] * p)
        with open(outdir / f"eigenfunction_{l + 1:02d}.csv", "w",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"t{k + 1}" for k in range(p)] + ["value"])
            for idx in np.ndindex(grid.shape):
                writer.writerow([repr(float(ax[i])) for i in idx]
                                + [repr(float(grid[idx]))])

    _write_json(outdir / "eigen.json", {
        "eigenvalues": [float(v) for v in eig.eigenvalues],
        "fve": shares,
        "fve_cumulative": [float(v) for v in eig.fraction_of_variation],
        "components_exported": n_exported,
        "marginals": marginals,
    })
    _persist_config(cfg, outdir)
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "eigen": cmd_eigen,
    "cv": cmd_cv,
}


def _add_option(parser, key, **kwargs):
    flag = "--" + ("lambda" if key == "lam" else key).replace("_", "-")
    kwargs.setdefault("default", argparse.SUPPRESS)
    parser.add_argument(flag, dest=key, **kwargs)


def _add_kernel_gram_fit(parser):
    _add_option(parser, "decay_exponent", type=float)
    _add_option(parser, "truncation_order", type=int)
    _add_option(parser, "include_constant", action=argparse.BooleanOptionalAction)
    _add_option(parser, "constant_coef", type=float)
    _add_option(parser, "gram_tol", type=float)
    _add_option(parser, "gram_cap", type=int)
    _add_option(parser, "lam", type=float)
    _add_option(parser, "beta", type=float)
    _add_option(parser, "eta", type=float)
    _add_option(parser, "max_iters", type=int)
    _add_option(parser, "tol", type=float)
    _add_option(parser, "rank_threshold", type=float)
    _add_option(parser, "adaptive_eta", action=argparse.BooleanOptionalAction)


def _add_grids(parser):
    _add_option(parser, "lambda_grid", type=float, nargs="+")
    _add_option(parser, "beta_grid", type=float, nargs="+")
    _add_option(parser, "n_folds", type=int)
    _add_option(parser, "fold_seed", type=int)


def _parser():
    parser = argparse.ArgumentParser(
        prog="mfcov",
        description="Low-rank covariance estimation for multidimensional "
                    "functional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a covariance from a CSV dataset")
    p_sim = sub.add_parser("simulate", help="run a replication benchmark")
    p_eig = sub.add_parser("eigen", help="export the spectrum of a fit")
    p_cv = sub.add_parser("cv", help="cross-validate the tuning grid")

    for p in (p_fit, p_sim, p_eig, p_cv):
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override its keys")
        _add_option(p, "out", help="output directory")
    for p in (p_fit, p_cv):
        _add_option(p, "data", help="input dataset CSV")
        _add_kernel_gram_fit(p)
    _add_grids(p_cv)

    _add_kernel_gram_fit(p_sim)
    _add_grids(p_sim)
    _add_option(p_sim, "setting", type=int)
    _add_option(p_sim, "n", type=int)
    _add_option(p_sim, "m", type=int)
    _add_option(p_sim, "sigma", type=float)
    _add_option(p_sim, "seed", type=int)
    _add_option(p_sim, "reps", type=int)
    _add_option(p_sim, "aise_grid", type=int)
    _add_option(p_sim, "threads", type=int,
                help="worker processes for the replications")

    _add_option(p_eig, "container", help="MCOV1 coefficient container")
    _add_option(p_eig, "data", help="dataset CSV the fit was built from")
    _add_option(p_eig, "eigen_grid", type=int)
    _add_option(p_eig, "components", type=int)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    ns = vars(args).copy()
    command = ns.pop("command")
    config_path = ns.pop("config", None)
    merged = {}
    try:
        if config_path:
            with open(config_path) as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError(f"{config_path}: config must be a JSON object")
            if isinstance(loaded.get("run_config"), dict):
                loaded = loaded["run_config"]  # a fit.json replays directly
            loaded.pop("command", None)
            merged.update(loaded)
        merged.update(ns)
        merged["command"] = command
        cfg = RunConfig.from_dict(merged).resolved()
        return _COMMANDS[command](cfg)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"mfcov {command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
