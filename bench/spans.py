"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``skewbeta`` module (plus a
few named private ones that carry a layer metric) and records one span per
call: name, start, end, parent span and task id.  The program itself is not
changed: the wrappers are rebound at every module attribute (and every
module-level dict entry) that holds the original function, because ``cli``,
``verify``, ``transform`` and ``chain`` import names directly, and they are
removed again after each traced pass.

A span's self time is its duration minus the time its direct child spans
cover.  Every task of a traced pass runs under a root span ``bench.task``, so
the self times of all spans add up to the traced wall time of the pass.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

# modules that form the layers, in import order
LAYERS = ("streams", "ensembles", "spectral", "chain", "sturm", "densities",
          "transform", "stats", "verify", "cli")

# functions that live in spectral's layer but may still be defined in verify;
# looked up in the modules in this order
MOVABLE = {"positive_spectrum_batch": ("spectral", "verify"),
           "_first_component_sq_batch": ("spectral", "verify")}

# private functions wrapped because a layer metric is defined on them
PRIVATE = {"verify": ("_draw_with_spectrum",)}

# every entry point a layer metric is computed from; a missing one is an
# error, never a silent zero
REQUIRED = (
    "streams.RandomStream.split", "streams.RandomStream.__post_init__",
    "ensembles.build_antisym_tridiagonal", "ensembles.householder_reduce",
    "spectral.positive_spectrum", "spectral.charpoly_sequence",
    "spectral.positive_spectrum_batch", "spectral._first_component_sq_batch",
    "chain.chain_sample_batch", "chain.chain_sample", "chain.chain_step_up",
    "stats.ks_one_sample", "stats.ks_two_sample", "stats.quadrature_cdf",
    "verify.run_suite", "verify._draw_with_spectrum", "cli.main",
)


class MissingEntryPoint(RuntimeError):
    """A named entry point the layer metrics depend on does not exist."""


def resolve(name: str):
    """Current binding of a function that may move between modules."""
    for layer in MOVABLE[name]:
        fn = getattr(importlib.import_module(f"skewbeta.{layer}"), name, None)
        if fn is not None:
            return fn
    raise MissingEntryPoint(f"{name} not found in skewbeta.{' or skewbeta.'.join(MOVABLE[name])}")


def bad_rows(spectra: np.ndarray) -> int:
    """Rows that are not finite, positive and strictly descending."""
    ok = np.all(np.isfinite(spectra), axis=1) & np.all(spectra > 0, axis=1)
    if spectra.shape[1] > 1:
        ok &= np.all(np.diff(spectra, axis=1) < 0, axis=1)
    return int(spectra.shape[0] - np.count_nonzero(ok))


class Tracer:
    """Span recorder.  Spans are parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tasks: list[int] = []
        self.errors: list[str | None] = []
        self.stack: list[int] = []
        self.task = 0
        self.chain_depth = 0
        self.counters: Counter = Counter()
        self.entry_points: list[str] = []
        self._undo: list = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.tasks.append(self.task)
        self.errors.append(None)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int, error: str | None = None) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()
        self.errors[i] = error

    # ---- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self.close(i, error)
        return traced

    def _wrap_chain(self, name: str, fn):
        """Chain calls also count floating-point RuntimeWarnings (numpy's
        error state is left as the program sets it) and, for batches,
        rows that break the spectrum invariants."""
        inner = self._wrap(name, fn)
        is_batch = name.endswith("_batch")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.chain_depth:
                return inner(*args, **kwargs)
            self.chain_depth += 1
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    out = inner(*args, **kwargs)
            finally:
                self.chain_depth -= 1
                self.counters["chain.fp_warnings"] += sum(
                    issubclass(w.category, RuntimeWarning) for w in caught)
            if is_batch:
                self.counters["chain.bad_rows"] += bad_rows(np.atleast_2d(out))
            return out
        return traced

    def install(self) -> None:
        """Rebind wrappers for every entry point; see :meth:`uninstall`."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        targets: dict[str, object] = {}
        modules = {layer: importlib.import_module(f"skewbeta.{layer}")
                   for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and (not attr.startswith("_") or attr in PRIVATE.get(layer, ())):
                    targets[f"{layer}.{attr}"] = obj
        for name in MOVABLE:
            fn = resolve(name)
            for key in [k for k, v in targets.items() if v is fn]:
                del targets[key]
            targets[f"spectral.{name}"] = fn
        missing = [name for name in REQUIRED
                   if name not in targets and not name.startswith("streams.RandomStream")]
        if missing:
            raise MissingEntryPoint("entry points not found: " + ", ".join(missing))

        holders = [m for key, m in sorted(sys.modules.items())
                   if (key == "skewbeta" or key.startswith("skewbeta.")) and m is not None]
        for name, fn in targets.items():
            wrapper = (self._wrap_chain if name.startswith("chain.") else self._wrap)(name, fn)
            for mod in holders:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._undo.append((setattr, mod, attr, fn))
                    elif isinstance(val, dict):
                        for key, item in list(val.items()):
                            if item is fn:
                                val[key] = wrapper
                                self._undo.append((dict.__setitem__, val, key, fn))

        stream_cls = modules["streams"].RandomStream
        for attr in ("split", "__post_init__"):
            fn = stream_cls.__dict__.get(attr)
            if fn is None:
                self.uninstall()
                raise MissingEntryPoint(f"entry point not found: streams.RandomStream.{attr}")
            setattr(stream_cls, attr, self._wrap(f"streams.RandomStream.{attr}", fn))
            self._undo.append((setattr, stream_cls, attr, fn))
            targets[f"streams.RandomStream.{attr}"] = fn
        self.entry_points = sorted(targets)

    def uninstall(self) -> None:
        while self._undo:
            setter, holder, key, original = self._undo.pop()
            setter(holder, key, original)

    # ---- output ---------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "task", "error"])
            for i, name in enumerate(self.names):
                out.writerow([i, name, repr(self.starts[i]), repr(self.ends[i]),
                              self.parents[i], self.tasks[i], self.errors[i] or ""])


def _outermost(names: list[str], parents: list[int], i: int, match) -> bool:
    """True when no ancestor of span ``i`` has a name for which ``match`` holds."""
    p = parents[i]
    while p >= 0:
        if match(names[p]):
            return False
        p = parents[p]
    return True


def _is_chain(name: str) -> bool:
    return name.startswith("chain.")


def summarize(tracer: Tracer, first: int, last: int, counters: Counter) -> dict[str, float]:
    """Layer metrics of the spans ``first..last-1`` (one traced pass) and of
    the counters the wrappers incremented during that pass.

    The span range must hold complete trees, i.e. start at a root span.
    """
    names, parents = tracer.names, tracer.parents
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(first, last)]
    child = [0.0] * (last - first)
    for i in range(first, last):
        if parents[i] >= first:
            child[parents[i] - first] += dur[i - first]

    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    inclusive: dict[str, float] = defaultdict(float)
    errors: Counter = Counter()
    builds_in_draw = 0
    for i in range(first, last):
        name = names[i]
        layer = name.split(".", 1)[0]
        self_s[layer] += dur[i - first] - child[i - first]
        calls[name] += 1
        if tracer.errors[i]:
            errors[(name, tracer.errors[i])] += 1
        if _outermost(names, parents, i, name.__eq__):
            inclusive[name] += dur[i - first]
        if name == "ensembles.build_antisym_tridiagonal" and parents[i] >= 0 \
                and names[parents[i]] == "verify._draw_with_spectrum":
            builds_in_draw += 1

    def layer_calls(layer: str) -> int:
        return sum(c for n, c in calls.items() if n.startswith(layer + "."))

    chain_scalar = sum(dur[i - first] for i in range(first, last)
                       if names[i].startswith("chain.")
                       and names[i] != "chain.chain_sample_batch"
                       and _outermost(names, parents, i, _is_chain))
    spec_calls = calls["spectral.positive_spectrum"]
    spec_failed = sum(c for (n, _), c in errors.items() if n == "spectral.positive_spectrum")
    draws = calls["verify._draw_with_spectrum"]
    draws_ok = draws - sum(c for (n, _), c in errors.items()
                           if n == "verify._draw_with_spectrum")
    return {
        "streams.created": calls["streams.RandomStream.__post_init__"],
        "streams.self_s": self_s["streams"],
        "ensembles.calls": layer_calls("ensembles"),
        "ensembles.self_s": self_s["ensembles"],
        "ensembles.householder_s": inclusive["ensembles.householder_reduce"],
        "spectral.scalar_calls": spec_calls,
        "spectral.scalar_s": inclusive["spectral.positive_spectrum"],
        "spectral.charpoly_calls": calls["spectral.charpoly_sequence"],
        "spectral.degeneracy_errors": errors[("spectral.positive_spectrum", "DegeneracyError")],
        "spectral.ok_ratio": (spec_calls - spec_failed) / spec_calls if spec_calls else 1.0,
        "spectral.batch_s": inclusive["spectral.positive_spectrum_batch"]
        + inclusive["spectral._first_component_sq_batch"],
        "spectral.self_s": self_s["spectral"],
        "chain.batch_s": inclusive["chain.chain_sample_batch"],
        "chain.fp_warnings": counters["chain.fp_warnings"],
        "chain.bad_rows": counters["chain.bad_rows"],
        "chain.scalar_s": chain_scalar,
        "chain.border_steps": calls["chain.chain_step_up"] + calls["chain.step_down"],
        "chain.self_s": self_s["chain"],
        "sturm.calls": layer_calls("sturm"),
        "sturm.self_s": self_s["sturm"],
        "densities.calls": layer_calls("densities"),
        "densities.self_s": self_s["densities"],
        "transform.calls": layer_calls("transform"),
        "transform.self_s": self_s["transform"],
        "stats.ks_tests": calls["stats.ks_one_sample"] + calls["stats.ks_two_sample"],
        "stats.ks_s": inclusive["stats.ks_one_sample"] + inclusive["stats.ks_two_sample"],
        "stats.quadrature_s": inclusive["stats.quadrature_cdf"],
        "stats.self_s": self_s["stats"],
        "verify.self_s": self_s["verify"],
        "verify.draw_yield": draws_ok / builds_in_draw if builds_in_draw else 1.0,
        "cli.self_s": self_s["cli"],
        "bench.self_s": self_s["bench"],
        "trace.spans": last - first,
        "trace.self_sum_s": sum(self_s.values()),
    }
