"""Per-layer tracing from outside the package.

The tracer wraps named public functions of `pomdp_geometry` (and the numpy
kernels they call) for the length of each traced task, and records one span
per call: calls, self time (the span minus its wrapped child spans) and
exceptions leaving a layer.  A function is wrapped at every binding site in
the package, including the `from .freq import ...` copies other modules
hold; methods are wrapped on their class.  A target a later version of the
package no longer has is reported as missing and skipped.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "pomdp_geometry"


def _batch_points(args, kwargs, result):
    taus = kwargs["taus"] if "taus" in kwargs else args[1]
    return taus.shape[0]


def _monomials(args, kwargs, result):
    # A^|support| from the factored form; never touches `.terms`, whose
    # expansion may be made lazy
    return result.n_actions ** len(result.support_states)


def _solve_flops(args, kwargs, result):
    a = kwargs["a"] if "a" in kwargs else args[0]
    return math.prod(a.shape[:-2]) * 2.0 / 3.0 * a.shape[-1] ** 3


# (metric prefix, module, attribute path, counter name, counter)
TARGETS = (
    ("model.load_model_text", "model", "load_model_text", None, None),
    ("model.validate", "model", "validate", None, None),
    ("model.state_conditionals", "model", "state_conditionals", None, None),
    ("model.kernels_for_tau", "model", "kernels_for_tau", None, None),
    ("model.Policy", "model", "Policy.__post_init__", None, None),
    ("freq.eta_for_tau", "freq", "eta_for_tau", None, None),
    ("freq.state_action_frequency", "freq", "state_action_frequency", None, None),
    ("freq.value_bundle", "freq", "value_bundle", None, None),
    ("freq.policy_gradient", "freq", "policy_gradient", None, None),
    ("freq.reward_of", "freq", "reward_of", None, None),
    ("freq.batch_eta", "freq", "batch_eta", "freq.batch.points", _batch_points),
    ("freq.batch_rewards", "freq", "batch_rewards", "freq.batch.points", _batch_points),
    ("freq.fixed_point_residual", "freq", "fixed_point_residual", None, None),
    ("freq.truncated_series_oracle", "freq", "truncated_series_oracle", None, None),
    ("rational.fit_rational_curve", "rational", "fit_rational_curve", None, None),
    ("geometry.model_constraint_polynomials", "geometry", "model_constraint_polynomials",
     None, None),
    ("geometry.transfer_inequality", "geometry", "transfer_inequality",
     "geometry.monomials", _monomials),
    ("geometry.face_lattice", "geometry", "face_lattice", None, None),
    ("geometry.evaluate", "geometry", "PolynomialConstraint.evaluate", None, None),
    ("geometry.feasibility_report", "geometry", "feasibility_report", None, None),
    ("critical.blind_critical_points", "critical", "blind_critical_points", None, None),
    ("critical.landscape_scan", "critical", "landscape_scan", None, None),
    ("cli.main", "cli", "main", None, None),
    ("cli.emit_json", "cli", "emit_json", None, None),
    ("cli.render", "geometry", "PolynomialConstraint.to_dict", None, None),
    ("cli.render", "critical", "ScanGrid.to_csv", None, None),
    ("cli.render", "critical", "CriticalSet.to_dict", None, None),
    ("linalg.solve", "numpy.linalg", "solve", "linalg.solve.flops", _solve_flops),
    ("linalg.lstsq", "numpy.linalg", "lstsq", None, None),
    ("linalg.svd", "numpy.linalg", "svd", None, None),
    ("linalg.polyroots", "numpy.polynomial.polynomial", "polyroots", None, None),
)

LAYERS = ("model", "freq", "rational", "geometry", "critical", "cli", "linalg")
TASK_LAYER = "task"
OUTPUT_BYTES = "cli.output_bytes"


def metric_units():
    """Every per-layer metric name with its unit."""
    units = {}
    for prefix, *_ in TARGETS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update({"freq.batch.points": "count", "geometry.monomials": "count",
                  OUTPUT_BYTES: "bytes", "linalg.solve.flops": "flop-computed",
                  "trace.tasks": "count", "trace.wall_s": "s",
                  "trace.unattributed_s": "s", "trace.attributed_frac": "ratio",
                  "trace.overhead_frac": "ratio"})
    return units


class Tracer:
    """Spans around wrapped calls; the wrappers are in place only during `run_task`."""

    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.layer_errors = defaultdict(int)
        self.counters = defaultdict(float)
        self.found = set()  # metric names whose functions exist
        self.missing = []   # "module.attribute" of targets that do not
        self._patches = []  # (owner, attribute, original, wrapper, owned)
        self._prepare()

    # -- wrappers ------------------------------------------------------------

    def _prepare(self):
        resolved = [(target, _resolve(target[1], target[2])) for target in TARGETS]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for (prefix, module_name, path, counter_name, counter), (owner, attr) in resolved:
            if owner is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self.found.update({f"{prefix}.calls", f"{prefix}.self_s"})
            if counter_name is not None:
                self.found.add(counter_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, prefix, counter_name, counter)
            sites = [(owner, attr)]
            if not isinstance(owner, type):
                sites += [(module, name) for module in modules
                          for name, value in vars(module).items()
                          if value is original and (module, name) != (owner, attr)]
            self._patches += [(site, name, original, wrapper, name in vars(site))
                              for site, name in sites]

    def apply(self):
        for owner, attr, _, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original, _, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:  # inherited method: drop the override again
                delattr(owner, attr)

    def _wrap(self, fn, prefix, counter_name, counter):
        layer = prefix.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]  # layer, time spent in wrapped children
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(prefix, frame, start, failed=True)
                raise
            tracer._close(prefix, frame, start, failed=False)
            if counter is not None:
                tracer.counters[counter_name] += counter(args, kwargs, result)
            return result

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _close(self, key, frame, start, failed):
        elapsed = perf_counter() - start
        self.stack.pop()
        layer, children = frame
        self.calls[key] += 1
        self.self_s[key] += elapsed - children
        self.layer_self_s[layer] += elapsed - children
        parent = self.stack[-1]
        parent[1] += elapsed
        if failed and parent[0] != layer:
            self.layer_errors[layer] += 1

    def run_task(self, call):
        """Run one task traced, under a root span; returns (elapsed, result, exception)."""
        frame = [TASK_LAYER, 0.0]
        self.stack.append(frame)
        self.apply()
        try:
            start = perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # a task failure is a measured outcome
                result, error = None, exc
            elapsed = perf_counter() - start
        finally:
            self.restore()
            self.stack.pop()
        self.layer_self_s[TASK_LAYER] += elapsed - frame[1]
        return elapsed, result, error

    # -- report --------------------------------------------------------------

    def metrics(self, tasks, traced_wall, untraced_wall, output_bytes):
        """Per-layer metrics as {name: {"value", "unit"}}; missing names are left out."""
        units = metric_units()
        values = {}
        for prefix, _, _, counter_name, _ in TARGETS:
            values[f"{prefix}.calls"] = self.calls[prefix]
            values[f"{prefix}.self_s"] = self.self_s[prefix]
            if counter_name is not None:
                values[counter_name] = self.counters[counter_name]
        values = {k: v for k, v in values.items() if k in self.found}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.layer_self_s[layer]
            values[f"{layer}.errors"] = self.layer_errors[layer]
        values[OUTPUT_BYTES] = output_bytes
        attributed = traced_wall - self.layer_self_s[TASK_LAYER]
        values.update({
            "trace.tasks": tasks,
            "trace.wall_s": traced_wall,
            "trace.unattributed_s": self.layer_self_s[TASK_LAYER],
            "trace.attributed_frac": attributed / traced_wall if traced_wall else 0.0,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
        })
        return {name: {"value": values[name], "unit": units[name]}
                for name in units if name in values}


def _resolve(module_name, path):
    """(owner, attribute) of a target, or (None, None) if the package lacks it."""
    full = module_name if module_name.startswith("numpy") else f"{PACKAGE}.{module_name}"
    try:
        owner = importlib.import_module(full)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr
