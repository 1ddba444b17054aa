"""Outside-in span recording for the traced benchmark pass.

The library is left untouched: `Tracer.install` rebinds the public callables
of each measured layer, in every `qpscat` module namespace that holds them
(modules bind helpers such as `assemble` by name), on the classes for
methods, and on `numpy.linalg` for the dense LAPACK calls.  Each call then
leaves one span (name, start, end, parent, op) in memory; `uninstall`
restores the originals.  Spans are written out only when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time

#: (span name, module, attribute); "Class.method" rebinds on the class
TARGETS = (
    ("medium.load", "qpscat.medium", "load_sampled_medium"),
    ("medium.profiles", "qpscat.helmholtz", "_medium_profiles"),
    ("qpcore.beta_table", "qpscat.qpcore", "beta_table"),
    ("helmholtz.space", "qpscat.helmholtz", "FieldSpace.__init__"),
    ("helmholtz.assemble", "qpscat.helmholtz", "assemble"),
    ("helmholtz.assemble_eps_derivative", "qpscat.helmholtz", "assemble_eps_derivative"),
    ("helmholtz.whiten", "qpscat.helmholtz", "DiscreteOperator.whitened"),
    ("helmholtz.screen", "qpscat.helmholtz", "DiscreteOperator.whitened_singular_values"),
    ("helmholtz.solve", "qpscat.helmholtz", "solve"),
    ("helmholtz.rayleigh", "qpscat.helmholtz", "rayleigh_data"),
    ("modes.kernel", "qpscat.modes", "kernel"),
    ("lap.eps_sweep", "qpscat.lap", "eps_sweep"),
    ("lap.constrained_solve", "qpscat.lap", "constrained_solve"),
    ("lap.constraint_residual", "qpscat.lap", "constraint_residual"),
    ("cli.main", "qpscat.cli", "main"),
    ("linalg.svd", "numpy.linalg", "svd"),
    ("linalg.lstsq", "numpy.linalg", "lstsq"),
    ("linalg.solve", "numpy.linalg", "solve"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
)

#: per-layer metric -> span names whose self time (or call count) it sums
TIME_METRICS = {
    "medium.load_ms": ("medium.load",),
    "medium.profiles_ms": ("medium.profiles",),
    "qpcore.beta_table_ms": ("qpcore.beta_table",),
    "helmholtz.space_ms": ("helmholtz.space",),
    "helmholtz.assemble_ms": ("helmholtz.assemble", "helmholtz.assemble_eps_derivative"),
    "helmholtz.whiten_ms": ("helmholtz.whiten",),
    "helmholtz.screen_ms": ("helmholtz.screen",),
    "helmholtz.solve_ms": ("helmholtz.solve",),
    "helmholtz.rayleigh_ms": ("helmholtz.rayleigh",),
    "modes.kernel_ms": ("modes.kernel",),
    "lap.eps_sweep_ms": ("lap.eps_sweep",),
    "lap.constrained_solve_ms": ("lap.constrained_solve",),
    "lap.constraint_residual_ms": ("lap.constraint_residual",),
    "cli.main_ms": ("cli.main",),
    "linalg.svd_ms": ("linalg.svd",),
    "linalg.lstsq_ms": ("linalg.lstsq",),
    "linalg.solve_ms": ("linalg.solve",),
}
COUNT_METRICS = {
    "medium.profiles_calls": ("medium.profiles",),
    "helmholtz.assemble_calls": ("helmholtz.assemble", "helmholtz.assemble_eps_derivative"),
    "linalg.svd_calls": ("linalg.svd",),
    "linalg.lstsq_calls": ("linalg.lstsq",),
    "linalg.solve_calls": ("linalg.solve",),
    "linalg.eigh_calls": ("linalg.eigh",),
}


def _operator_size(result):
    """Span annotation for assembled operators: unknowns and whether dense."""
    return {"unknowns": result.space.size, "dense": result.dense is not None}


ANNOTATE = {"helmholtz.assemble": _operator_size,
            "helmholtz.assemble_eps_derivative": _operator_size}


class Tracer:
    """In-memory span store plus the install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer, annotate = self, ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = {"id": len(tracer.spans), "name": name, "op": tracer.op,
                    "parent": stack[-1] if stack else None}
            tracer.spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.update(annotate(result))
            return result
        return traced

    def install(self):
        import numpy.linalg
        for _, modname, _ in TARGETS:
            importlib.import_module(modname)
        mods = [m for n, m in sys.modules.items()
                if n == "qpscat" or n.startswith("qpscat.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                self._rebind(owner, meth, self._wrap(name, vars(owner)[meth]))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            holders = [numpy.linalg] if modname == "numpy.linalg" else \
                [m for m in mods if any(v is fn for v in vars(m).values())]
            for mod in holders:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._rebind(mod, key, wrapped)

    def _rebind(self, owner, key, value):
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s, sort_keys=True) + "\n")


def self_times(spans):
    """Span id -> self time in s: duration minus the time of direct child spans.

    numpy.linalg spans are leaves attributed to the stage that called them,
    so a stage's self time includes its LAPACK calls; they are also totalled
    under linalg.*.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        p = s["parent"]
        if p is not None and not s["name"].startswith("linalg."):
            out[p] -= s["end"] - s["start"]
    return out


def per_layer(spans, ops, process_wall=None):
    """Per-operation medians of every per-layer metric for the traced ops.

    `ops` lists the traced operation ids; `process_wall` maps an op id to the
    wall time of its process, when each operation is a process of its own.
    """
    by_op = {op: [] for op in ops}
    for s in spans:
        if s["op"] in by_op:
            by_op[s["op"]].append(s)
    rows = {name: [] for name in (*TIME_METRICS, *COUNT_METRICS,
                                  "cli.process_ms", "helmholtz.unknowns",
                                  "helmholtz.dense_mb")}
    for op, ss in by_op.items():
        st = self_times(ss)
        for metric, names in TIME_METRICS.items():
            rows[metric].append(1e3 * sum(st[s["id"]] for s in ss if s["name"] in names))
        for metric, names in COUNT_METRICS.items():
            rows[metric].append(sum(1 for s in ss if s["name"] in names))
        main = [s["end"] - s["start"] for s in ss if s["name"] == "cli.main"]
        rows["cli.process_ms"].append(
            1e3 * (process_wall[op] - sum(main)) if process_wall else 0.0)
        unknowns = [s["unknowns"] for s in ss if "unknowns" in s]
        rows["helmholtz.unknowns"].append(max(unknowns, default=0))
        # computed, not measured: bytes of the dense complex128 operator
        dense = [s["unknowns"] for s in ss if s.get("dense")]
        rows["helmholtz.dense_mb"].append(max(dense, default=0) ** 2 * 16 / 1e6)
    return {k: statistics.median(v) for k, v in rows.items()}
