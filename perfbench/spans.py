"""In-memory spans around calls into mfcov's public functions.

The tracer never edits the package: it wraps each public function of a
layer module and rebinds the name wherever an ``mfcov`` module holds that
function object, so calls made through module globals (``cli`` calling
``cv_select``, ``cv_select`` calling ``precompute``) are timed.  Calls into
private names are not wrapped; their time counts as the caller's self time.
"""

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("tensor", "kernel", "data", "solver", "spectral", "simulate", "cli")


class Tracer:
    """Spans kept as ``[id, name, start_ns, end_ns, parent, run]`` lists.

    ``run`` is the index of the benchmark operation the span belongs to.
    ``counts`` accumulates work counters observed at the same boundaries.
    Wrapped functions record nothing while ``active`` is false, so the
    harness's own output checks stay out of the trace.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run = None
        self.active = False
        self._stack = []

    def begin(self, name):
        rec = [len(self.spans), name, time.perf_counter_ns(), None,
               self._stack[-1] if self._stack else None, self.run]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec):
        rec[3] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, observe=None):
        """``fn`` recording one span per call; ``observe`` sees each call."""
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if observe is not None:
                observe(self.counts, fn, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self, path, **meta):
        with open(path, "w") as fh:
            json.dump({**meta,
                       "fields": ["id", "name", "start_ns", "end_ns", "parent", "run"],
                       "spans": self.spans}, fh)

    def summary(self):
        """Inclusive seconds, self seconds and calls per span name."""
        covered = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        incl, own, calls = Counter(), Counter(), Counter()
        for sid, name, start, end, _, _ in self.spans:
            incl[name] += (end - start) * 1e-9
            own[name] += (end - start - covered[sid]) * 1e-9
            calls[name] += 1
        return incl, own, calls


def _cv_fits(counts, fn, args, kwargs, out):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    folds = a["folds"].n_folds if a["folds"] is not None else a["n_folds"]
    counts["solver.cv_fits"] += len(a["lambda_grid"]) * len(a["beta_grid"]) * folds


def _admm_iters(counts, fn, args, kwargs, fit):
    counts["solver.admm_fit_iters"] += int(fit.n_iters)


def _gram_bytes(counts, fn, args, kwargs, gram):
    counts["kernel.gram_bytes"] += gram.nbytes


OBSERVERS = {
    "solver.cv_select": _cv_fits,
    "solver.admm_fit": _admm_iters,
    "kernel.assemble_gram": _gram_bytes,
}

# The harness opens its own span per subcommand around ``cli.main``.
UNWRAPPED = {"cli.main"}


def instrument(tracer):
    """Wrap every public function of every layer and rebind its names."""
    modules = [importlib.import_module(f"mfcov.{layer}") for layer in LAYERS]
    for layer, module in zip(LAYERS, modules):
        for attr in module.__all__:
            fn = getattr(module, attr)
            name = f"{layer}.{attr}"
            if (not inspect.isfunction(fn) or fn.__module__ != module.__name__
                    or name in UNWRAPPED):
                continue
            traced = tracer.wrap(name, fn, OBSERVERS.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)
