"""In-memory span tracer that wraps rungelab's public functions from outside.

A span records (name, start, end, parent).  A layer's self time is its span's
duration minus the part of that interval its child spans cover.  The tracer
patches each function at every site where it is looked up: the defining
module, every ``rungelab.*`` module that imported it by name, and module-level
dicts that hold it (``experiments.RUNNERS``).  Methods are wrapped on their
class.  ``src/`` is not edited; ``uninstall`` restores every patched site.

The span stack is a plain list: the benchmark drives rungelab with
``jobs`` = 1, so every traced call runs on one thread.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent")

    def __init__(self, id_, name, start, parent):
        self.id = id_
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent}


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals,
    each child clipped to its parent."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1].id if t._stack else None
        self.span = Span(len(t.spans), self.name, time.perf_counter(), parent)
        t.spans.append(self.span)
        t._stack.append(self.span)
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans plus counters and maxima recorded at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self._stack = []

    def span(self, name):
        return _SpanContext(self, name)

    def add(self, name, n=1):
        self.counts[name] += n

    def max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_time_by_name(self):
        st = self_times(self.spans)
        out = Counter()
        calls = Counter()
        for s in self.spans:
            out[s.name] += st[s.id]
            calls[s.name] += 1
        return out, calls


# Spans that belong to the tracer itself, not to any rungelab layer.  Their
# time is excluded from the parent's self time and from every layer metric.
RESIDUAL_SPAN = "tracer.residual"

# (module, function, span name) for functions looked up by name.
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("solver", "assemble", "solver.assemble"),
    ("solver", "resonance_guard", "solver.resonance_guard"),
    ("solver", "solve_bvp", "solver.solve_bvp"),
    ("runge_op", "assemble_restriction", "runge_op.assemble_restriction"),
    ("runge_op", "weighted_svd", "runge_op.weighted_svd"),
    ("runge_op", "load_operator", "runge_op.load_operator"),
    ("runge_op", "save_operator", "runge_op.save_operator"),
    ("store", "read_envelope", "store.read_envelope"),
    ("store", "write_envelope", "store.write_envelope"),
    ("store", "fnv1a64", "store.checksum"),
    ("experiments", "cauchy_reconstruct", "experiments.cauchy_reconstruct"),
    ("analysis", "build_norm_weights", "analysis.build_norm_weights"),
    ("analysis", "hcurl_norm", "analysis.hcurl_norm"),
    ("analysis", "lp_norm", "analysis.lp_norm"),
    ("oracle", "convergence_study", "oracle.convergence_study"),
    ("oracle", "sample_on_grid", "oracle.sample_on_grid"),
    ("geometry", "build_grid", "geometry.region"),
    ("geometry", "boundary_patch", "geometry.region"),
    ("geometry", "carve_region", "geometry.region"),
    ("geometry", "chain_of_balls", "geometry.region"),
    ("geometry", "cube_cover", "geometry.region"),
    ("materials", "make_material", "materials.make_material"),
]

# (module, class, method, span name) for methods wrapped on their class.
METHODS = [
    ("experiments", "CauchyOperator", "__init__", "experiments.cauchy_operator"),
    ("experiments", "Report", "write", "experiments.report_write"),
]


def _after_hooks(tracer):
    """Counters recorded when a wrapped call returns, keyed by span name."""

    def restriction(result, args, kwargs):
        tracer.add("runge_op.restriction_columns", args[1].n_v)

    def read(result, args, kwargs):
        tracer.add("store.bytes_read", os.path.getsize(args[0]))

    def write(result, args, kwargs):
        tracer.add("store.bytes_written", os.path.getsize(args[0]))

    return {
        "runge_op.assemble_restriction": restriction,
        "runge_op.load_operator": lambda *_: tracer.add("runge_op.cache_hits"),
        "runge_op.save_operator": lambda *_: tracer.add("runge_op.cache_misses"),
        "store.read_envelope": read,
        "store.write_envelope": write,
    }


def _wrap(tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _wrap_factorize(tracer, fn):
    """Span only real factorizations; later calls return the cached LU."""

    def _factorize(self):
        if self._lu is not None:
            return fn(self)
        with tracer.span("solver.factorize"):
            lu = fn(self)
        tracer.add("solver.factorize_calls")
        tracer.add("solver.lu_nnz", lu.L.nnz + lu.U.nnz)
        tracer.max("solver.dimension_max", self.dimension)
        return lu

    _factorize.__wrapped__ = fn
    return _factorize


def _wrap_solve_interior(tracer, fn):
    """Count right-hand-side parts and recompute the true relative residual."""

    def solve_interior(self, rhs):
        with tracer.span("solver.solve_interior"):
            x = fn(self, rhs)
        parts = [rhs.real, rhs.imag] if np.iscomplexobj(rhs) else [rhs]
        tracer.add("solver.rhs_parts", len(parts))
        tracer.add("solver.useful_rhs_parts", sum(bool(np.any(p)) for p in parts))
        with tracer.span(RESIDUAL_SPAN):
            scale = np.linalg.norm(rhs)
            if scale > 0:
                tracer.max("solver.max_rel_residual",
                           float(np.linalg.norm(self.L_II @ x - rhs) / scale))
        return x

    solve_interior.__wrapped__ = fn
    return solve_interior


class Installation:
    """Every site patched by ``install``; ``uninstall`` puts the originals back."""

    def __init__(self):
        self._undo = []

    def set(self, obj, key, value, is_dict=False):
        if is_dict:
            self._undo.append((obj, key, obj[key], True))
            obj[key] = value
        else:
            self._undo.append((obj, key, obj.__dict__[key], False))
            setattr(obj, key, value)

    def uninstall(self):
        for obj, key, old, is_dict in reversed(self._undo):
            if is_dict:
                obj[key] = old
            else:
                setattr(obj, key, old)
        self._undo.clear()


def _rungelab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rungelab" or name.startswith("rungelab."))]


def _patch_everywhere(inst, original, replacement):
    """Replace ``original`` in every rungelab module namespace and every
    module-level dict that holds it."""
    for mod in _rungelab_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                inst.set(mod, key, replacement)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        inst.set(value, dkey, replacement, is_dict=True)


def install(tracer) -> Installation:
    """Wrap every traced function and method; returns the undo record."""
    import rungelab.cli  # noqa: F401  (loads every module the drivers use)
    from rungelab import experiments, solver

    inst = Installation()
    hooks = _after_hooks(tracer)
    for mod_name, fn_name, span_name in FUNCTIONS:
        original = getattr(sys.modules[f"rungelab.{mod_name}"], fn_name)
        _patch_everywhere(inst, original,
                          _wrap(tracer, span_name, original, hooks.get(span_name)))
    for runner in set(experiments.RUNNERS.values()):
        _patch_everywhere(inst, runner, _wrap(tracer, "experiments.runner", runner))
    for mod_name, cls_name, meth, span_name in METHODS:
        cls = getattr(sys.modules[f"rungelab.{mod_name}"], cls_name)
        inst.set(cls, meth, _wrap(tracer, span_name, cls.__dict__[meth]))
    system = solver.SystemMatrix
    inst.set(system, "solve_interior",
             _wrap_solve_interior(tracer, system.__dict__["solve_interior"]))
    inst.set(system, "_factorize", _wrap_factorize(tracer, system.__dict__["_factorize"]))
    return inst


# Per-layer metric -> span name whose self time it sums.
SELF_TIME_METRICS = {
    "solver.factorize_s": ["solver.factorize"],
    "solver.resonance_guard_s": ["solver.resonance_guard"],
    "solver.assemble_s": ["solver.assemble"],
    "solver.solve_interior_s": ["solver.solve_interior"],
    "solver.solve_bvp_s": ["solver.solve_bvp"],
    "runge_op.assemble_restriction_s": ["runge_op.assemble_restriction"],
    "runge_op.weighted_svd_s": ["runge_op.weighted_svd"],
    "runge_op.cache_io_s": ["runge_op.load_operator", "runge_op.save_operator"],
    "store.read_envelope_s": ["store.read_envelope"],
    "store.write_envelope_s": ["store.write_envelope"],
    "store.checksum_s": ["store.checksum"],
    "experiments.cauchy_operator_s": ["experiments.cauchy_operator"],
    "experiments.cauchy_reconstruct_s": ["experiments.cauchy_reconstruct"],
    "experiments.driver_self_s": ["experiments.runner"],
    "experiments.report_write_s": ["experiments.report_write"],
    "analysis.build_norm_weights_s": ["analysis.build_norm_weights"],
    "analysis.hcurl_norm_s": ["analysis.hcurl_norm"],
    "analysis.lp_norm_s": ["analysis.lp_norm"],
    "oracle.convergence_study_self_s": ["oracle.convergence_study"],
    "oracle.sample_on_grid_s": ["oracle.sample_on_grid"],
    "geometry.region_s": ["geometry.region"],
    "materials.make_material_s": ["materials.make_material"],
    "cli.self_s": ["cli.main"],
}

# Per-layer metric -> span name whose call count it reports.
CALL_METRICS = {
    "solver.assemble_calls": "solver.assemble",
    "solver.solve_interior_calls": "solver.solve_interior",
    "solver.solve_bvp_calls": "solver.solve_bvp",
    "experiments.cauchy_reconstruct_calls": "experiments.cauchy_reconstruct",
    "analysis.hcurl_norm_calls": "analysis.hcurl_norm",
}

COUNTER_METRICS = ["solver.factorize_calls", "solver.lu_nnz", "solver.rhs_parts",
                   "runge_op.restriction_columns", "runge_op.cache_hits",
                   "runge_op.cache_misses", "store.bytes_read", "store.bytes_written"]

MAX_METRICS = ["solver.dimension_max", "solver.max_rel_residual"]


def layer_metrics(tracer):
    """Per-layer metrics of everything the tracer recorded."""
    selfs, calls = tracer.self_time_by_name()
    out = {m: float(sum(selfs[n] for n in names)) for m, names in SELF_TIME_METRICS.items()}
    out.update({m: calls[n] for m, n in CALL_METRICS.items()})
    out.update({m: tracer.counts[m] for m in COUNTER_METRICS})
    out.update({m: tracer.maxima.get(m, 0) for m in MAX_METRICS})
    parts = tracer.counts["solver.rhs_parts"]
    out["solver.useful_rhs_ratio"] = (tracer.counts["solver.useful_rhs_parts"] / parts
                                      if parts else 0.0)
    return out
