"""Command-line interface: fit, simulate, eigen, cv.

Each option is declared once, as a ``RunConfig`` field; ``_FLAGS`` lists
the fields each subcommand takes, and those are its whole configuration:
the flag, its type, its default and its config-file key all derive from the
field.  Every subcommand reads an optional JSON config file whose keys are
its flags (flags override the file), resolves the remaining defaults, and
persists its options next to its outputs, so any run can be replayed
exactly: simulate, eigen, and cv write ``run_config.json``, while fit keeps
to its three outputs and records the configuration inside ``fit.json``
under ``run_config`` (``--config`` accepts either form).  Exit status 1
reports an input, validation or solver failure, 2 a fit (or, for cv, a fold
of the selected cell) that stopped on the iteration cap (outputs are still
written); nothing mutates its inputs.

Fitted coefficients persist in a single binary container: magic ``MCOV1``, a
shape header, the little-endian float64 payload, and a trailing UTF-8 JSON
sidecar recording the kernel, the gram factorization parameters, and
per-dimension SHA-256 hashes of the pooled coordinates.  The eigen subcommand
refuses a container whose provenance does not match the dataset it is given.
"""

import argparse
import json
import math
import struct
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (DEFAULT_FOLD_SEED, cross_products, gram_factors, load_csv, make_folds,
                   write_csv)
from .kernel import KernelSpec, check_gram_options
from .simulate import FitProtocol, SimSetting, run_benchmark, save_table
from .solver import CovarianceFit, FitConfig, admm_fit, cv_select, rank_report
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
    if ndim == 0:
        raise ValueError(f"{path}: tensor order 0 in the shape header")
    head = len(MAGIC) + 1 + 8 * ndim
    if len(blob) < head:
        raise ValueError(f"{path}: truncated shape header")
    shape = struct.unpack(f"<{ndim}Q", blob[len(MAGIC) + 1 : head])
    count = math.prod(shape)  # exact: int64 products of large dims wrap
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


def _key(name):
    """The key of a ``RunConfig`` or ``FitConfig`` field in every file the
    CLI writes (configs and container sidecars): ``lam`` is spelled
    ``lambda``."""
    return "lambda" if name == "lam" else name


def _drop_retired(d):
    """``d`` without the keys of retired options that configs and container
    sidecars written by earlier versions hold: the AISE quadrature's node
    count whatever its value (AISE is exact and needs no grid), and
    ``adaptive_eta``, which they hold as false."""
    d = dict(d)
    d.pop("aise_grid", None)
    if d.pop("adaptive_eta", False) is not False:
        raise ValueError("adaptive_eta is no longer supported")
    return d


@dataclass
class RunConfig:
    """Effective configuration of one subcommand invocation.

    Only the subcommand's options, ``_FLAGS[command]``, are read, resolved
    and persisted.  They are ``None`` until ``resolved()`` fills them with
    the subcommand's defaults; the resolved form is what gets persisted and
    what a replay consumes.  ``lam`` serializes under the key ``lambda``.
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
    threads: int = None
    # spectral exports
    eigen_grid: int = None
    components: int = None

    def to_dict(self):
        """The command and its options, under their config keys."""
        names = ("command",) + _FLAGS[self.command]
        return {_key(name): getattr(self, name) for name in names}

    @classmethod
    def from_dict(cls, d):
        """Refuse a key that is not one of the command's options, except in a
        dict holding every field's key: that is the shape every earlier
        version wrote, whose other commands' keys those versions ignored, so
        they are dropped."""
        d = _drop_retired(d)
        kinds = {_key(f.name): f.type for f in fields(cls)}
        own = {_key(name): name for name in ("command",) + _FLAGS[d["command"]]}
        if kinds.keys() <= d.keys():
            for key in kinds.keys() - own.keys():
                del d[key]
        unknown = sorted(d.keys() - own.keys())
        if unknown:
            raise ValueError(f"unknown config key '{unknown[0]}'")
        for key, value in d.items():
            if value is not None and not _has_type(value, kinds[key]):
                raise ValueError(f"config key '{key}' must be {kinds[key].__name__}, "
                                 f"got {type(value).__name__}")
        return cls(**{own[key]: value for key, value in d.items()})

    def resolved(self):
        """One copy with every unset option filled by the command's default."""
        return replace(self, **{name: value for name, value in _defaults(self.command).items()
                                if getattr(self, name) is None})

    # --- domain objects -------------------------------------------------
    def _pick(self, cls, names):
        """``cls`` from the named fields; those outside the command's options
        (lambda and beta of cv and simulate, which the grid search sets)
        keep their library defaults."""
        return cls(**{name: getattr(self, name) for name in names
                      if name in _FLAGS[self.command]})

    def kernel_spec(self):
        return self._pick(KernelSpec, _KERNEL)

    def fit_config(self):
        return self._pick(FitConfig, _FIT)

    def protocol(self):
        return FitProtocol(
            lambda_grid=tuple(self.lambda_grid),
            beta_grid=tuple(self.beta_grid),
            n_folds=self.n_folds, gram_cap=self.gram_cap,
            gram_tol=self.gram_tol, kernel=self.kernel_spec(),
            base=self.fit_config(),
        )

    def sim_setting(self):
        return self._pick(SimSetting, _SIM)


_KERNEL = tuple(f.name for f in fields(KernelSpec))
_FIT = tuple(f.name for f in fields(FitConfig))
_SIM = ("setting", "n", "m", "sigma", "seed")
_MODEL = _KERNEL + ("gram_tol", "gram_cap") + _FIT
# the grid search sets lambda and beta, so cv and simulate take the grids only
_TUNED = tuple(name for name in _MODEL if name not in ("lam", "beta"))
_GRIDS = ("lambda_grid", "beta_grid", "n_folds")

#: Each subcommand's options, in flag order, by RunConfig field name.
_FLAGS = {
    "fit": ("out", "data") + _MODEL,
    "simulate": ("out",) + _TUNED + _GRIDS + _SIM + ("reps", "threads"),
    "eigen": ("out", "container", "data", "eigen_grid", "components"),
    "cv": ("out", "data") + _TUNED + _GRIDS + ("fold_seed",),
}

_HELP = {
    "out": "output directory",
    "data": "input dataset CSV",
    ("eigen", "data"): "dataset CSV the fit was built from",
    "container": "MCOV1 coefficient container",
    "threads": "worker processes for the replications",
}


def _has_type(value, kind):
    """Whether a config value fits a RunConfig annotation: a bool is not a
    number, an int is a float, and a list holds numbers."""
    if kind is list:
        return isinstance(value, list) and all(_has_type(v, float) for v in value)
    if kind in (int, float):
        return isinstance(value, (int, kind)) and not isinstance(value, bool)
    return isinstance(value, kind)


def _defaults(command):
    """Defaults of the command's options, taken from the library objects
    themselves (one set for every command); the paths have none."""
    proto, setting = FitProtocol(), SimSetting()
    out = {**asdict(proto.kernel), **asdict(proto.base),
           **{name: getattr(setting, name) for name in _SIM},
           "gram_tol": proto.gram_tol, "gram_cap": proto.gram_cap,
           "lambda_grid": list(proto.lambda_grid), "beta_grid": list(proto.beta_grid),
           "n_folds": proto.n_folds, "fold_seed": DEFAULT_FOLD_SEED,
           "reps": 20, "threads": 1,
           "eigen_grid": 21, "components": 8}
    return {name: out[name] for name in _FLAGS[command] if name in out}


def _flag(name):
    return "--" + _key(name).replace("_", "-")


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ValueError(f"missing required option {_flag(name)} (config key '{name}')")


def _outdir(cfg):
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, allow_nan=False)  # fails before the file opens
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _persist_config(cfg, outdir):
    _write_json(outdir / "run_config.json", cfg.to_dict())


def _fit_sidecar(cfg, spec, grams, fit):
    return {
        "format": "MCOV1",
        "kernel": asdict(spec),
        "gram": {
            "tol": cfg.gram_tol,
            "cap": cfg.gram_cap,
            "ranks": [int(g.retained_rank) for g in grams],
            "locations_sha256": [g.locations_hash() for g in grams],
        },
        "fit": {
            "config": {_key(k): v for k, v in asdict(fit.config).items()},
            "converged": bool(fit.converged),
            "n_iters": int(fit.n_iters),
            "objective_value": float(fit.objective_value),
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
        "zero_solution": not fit.coeffs.any(),
        "objective_value": float(fit.objective_value),
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
    if cfg.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {cfg.threads}")
    setting = cfg.sim_setting()
    protocol = cfg.protocol()
    result = run_benchmark(setting, cfg.reps, protocol, workers=cfg.threads)
    outdir = _outdir(cfg)
    _write_json(outdir / "benchmark.json", result.as_dict())
    save_table(result, outdir / "benchmark.csv")
    _persist_config(cfg, outdir)
    return 0


def cmd_cv(cfg):
    """Grid search -> score table CSV + a fit-ready selected config; exit 2
    when a fold of the selected cell stopped at the iteration cap."""
    _require(cfg, "data", "out")
    data = load_csv(cfg.data)
    folds = make_folds(data, cfg.n_folds, cfg.fold_seed)
    spec = cfg.kernel_spec()
    grams = gram_factors(data, spec, tol=cfg.gram_tol, cap=cfg.gram_cap)
    chosen, scores, cells = cv_select(data, grams, cfg.lambda_grid, cfg.beta_grid,
                                      folds=folds, base=cfg.fit_config())
    outdir = _outdir(cfg)
    write_csv(outdir / "cv_scores.csv",
              ["lambda", "beta", "score", "n_iters", "unconverged_folds"],
              ([repr(float(lam)), repr(float(beta)), repr(float(scores[li, bj])),
                int(cells.n_iters[li, bj]), int(cells.unconverged_folds[li, bj])]
               for li, lam in enumerate(cfg.lambda_grid)
               for bj, beta in enumerate(cfg.beta_grid)))
    # a fit config without a path to write to: fit --config needs its own --out
    selected = replace(cfg, command="fit", **asdict(chosen)).to_dict()
    del selected["out"]
    _write_json(outdir / "selected_config.json", selected)
    _persist_config(cfg, outdir)
    capped = cells.unconverged_folds[cfg.lambda_grid.index(chosen.lam),
                                     cfg.beta_grid.index(chosen.beta)]
    return 2 if capped else 0


def _sidecar_parts(container, sidecar):
    """The kernel spec, gram tolerance and cap, location hashes and fit
    record of a container's sidecar.  A missing key or a wrongly typed
    value raises a ValueError naming the container."""
    try:
        spec = KernelSpec(**sidecar["kernel"])
        gram, fit = sidecar["gram"], sidecar["fit"]
        tol, cap = float(gram["tol"]), int(gram["cap"])
        hashes = gram["locations_sha256"]
        check_gram_options(tol, cap)
        config = _drop_retired(fit["config"])
        if "lambda" in config:
            config["lam"] = config.pop("lambda")
        record = {
            "config": FitConfig(**config),
            "converged": bool(fit["converged"]),
            "n_iters": int(fit["n_iters"]),
            "objective_value": float(fit["objective_value"]),
        }
    except KeyError as exc:
        raise ValueError(f"{container}: sidecar lacks {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{container}: malformed sidecar: {exc}") from None
    return spec, tol, cap, hashes, record


def _check_provenance(hashes, grams, coeffs, container):
    if not isinstance(hashes, list) or len(hashes) != len(grams):
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
    grid, components = int(cfg.eigen_grid), int(cfg.components)
    if grid < 1:
        raise ValueError(f"--eigen-grid must be >= 1, got {grid}")
    if components < 0:
        raise ValueError(f"--components must be >= 0, got {components}")
    coeffs, sidecar = read_container(cfg.container)
    spec, tol, cap, hashes, record = _sidecar_parts(cfg.container, sidecar)
    data = load_csv(cfg.data)
    grams = gram_factors(data, spec, tol=tol, cap=cap)
    _check_provenance(hashes, grams, coeffs, cfg.container)
    p = len(grams)
    fit = CovarianceFit(coeffs=coeffs, grams=grams, primal_residuals=np.zeros(p + 1),
                        **record)
    eig = l2_eigensystem(fit, spec)
    outdir = _outdir(cfg)
    ax = np.linspace(0.0, 1.0, grid)
    n_exported = min(components, len(eig))
    total = float(eig.eigenvalues.sum()) if len(eig) else 0.0
    shares = [float(v) / total for v in eig.eigenvalues] if total > 0 else []

    marginals = []
    for k in range(p):
        mb = marginal_basis(fit, spec, k)
        marginals.append({
            "dimension": k + 1,
            "singular_values": [float(s) for s in mb.singular_values],
        })
        write_csv(outdir / f"marginal_{k + 1}.csv",
                  ["t"] + [f"f{j + 1}" for j in range(len(mb))],
                  ([repr(float(t))] + [repr(float(v)) for v in row]
                   for t, row in zip(ax, mb.basis_grid(ax))))

    for l in range(n_exported):
        grid = eig.eigenfunction_grid(l, [ax] * p)
        write_csv(outdir / f"eigenfunction_{l + 1:02d}.csv",
                  [f"t{k + 1}" for k in range(p)] + ["value"],
                  ([repr(float(ax[i])) for i in idx] + [repr(float(grid[idx]))]
                   for idx in np.ndindex(grid.shape)))

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
    "fit": (cmd_fit, "fit a covariance from a CSV dataset"),
    "simulate": (cmd_simulate, "run a replication benchmark"),
    "eigen": (cmd_eigen, "export the spectrum of a fit"),
    "cv": (cmd_cv, "cross-validate the tuning grid"),
}

# argparse keywords per RunConfig annotation; int, float and str convert by type
_ARGPARSE = {
    bool: {"action": argparse.BooleanOptionalAction},
    list: {"type": float, "nargs": "+"},
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="mfcov",
        description="Low-rank covariance estimation for multidimensional "
                    "functional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = {f.name: f.type for f in fields(RunConfig)}
    for command, names in _FLAGS.items():
        # no abbreviations: --lambda must not stand for --lambda-grid
        p = sub.add_parser(command, help=_COMMANDS[command][1], allow_abbrev=False)
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override its keys")
        for name in names:
            p.add_argument(_flag(name), dest=name, default=argparse.SUPPRESS,
                           help=_HELP.get((command, name), _HELP.get(name)),
                           **_ARGPARSE.get(kinds[name], {"type": kinds[name]}))
    return parser


def _run(command, config_path, ns):
    merged = {}
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{config_path}: config must be a JSON object")
        if isinstance(loaded.get("run_config"), dict):
            loaded = loaded["run_config"]  # a fit.json replays directly
        loaded.pop("command", None)
        merged.update(loaded)
    merged.update((_key(name), value) for name, value in ns.items())
    merged["command"] = command
    cfg = RunConfig.from_dict(merged).resolved()
    return _COMMANDS[command][0](cfg)


def main(argv=None):
    """Run one subcommand.  Each failure and each warning (such as a dropped
    subject) reaches stderr as one ``mfcov <command>: ...`` line."""
    args = _parser().parse_args(argv)
    ns = vars(args).copy()
    command = ns.pop("command")
    config_path = ns.pop("config", None)
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = _run(command, config_path, ns)
        except (ValueError, OSError, RuntimeError, MemoryError) as exc:
            code, failure = 1, exc
    messages = [w.message for w in caught] + ([failure] if failure is not None else [])
    for message in messages:
        # messages quote user text, which may hold line breaks
        print(f"mfcov {command}: " + " ".join(str(message).splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
