"""Span recording for the traced benchmark pass.

The traced pass rebinds, by identity, the public functions of each optithresh
module, the public methods of its public classes, and scipy's ``pdist``, in
every ``optithresh.*`` namespace that holds them.  Each call then records a
span: name, parent span, start, end and optional work counts.  Private
(``_``-prefixed) names are never wrapped, so the spans survive refactors that
only move private helpers.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

#: Module of the package -> layer name used in metric names.
LAYERS = {
    "optithresh.simulation": "simulation",
    "optithresh.ingestion": "ingestion",
    "optithresh.histograms": "histograms",
    "optithresh.losses": "losses",
    "optithresh._interp": "interp",
    "optithresh.optimizers": "optimizers",
    "optithresh.evaluation": "evaluation",
    "optithresh.cli": "cli",
}

PDIST = "kernel.pdist"
INVOCATION = "cli.optimize"


def _ingest_counts(args, result) -> dict:
    kept = sum(len(series.values) for series in result.series)
    return {"rows": kept + len(result.skipped_rows), "rows_skipped": len(result.skipped_rows)}


#: Work counted per call, as named counts summed over spans.
WORK = {
    "interp.interp_rows": lambda args, out: {"points": int(out.size)},
    PDIST: lambda args, out: {"pair_cols": int(out.size) * int(args[0].shape[1])},
    "ingestion.read_cgm_csv": _ingest_counts,
}

# A span is [name, parent index, start, end, work counts or None, tag or None].
NAME, PARENT, START, END, COUNTS, TAG = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []

    def _open(self, name: str, tag=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, self.clock(), None, None, tag]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        record = self._open(name, tag)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(record)
            if work is not None:
                record[COUNTS] = work(args, out)
            return out

        return traced


def _targets() -> list:
    """(owner, attribute, span name) for every public callable to trace."""
    targets = []
    for module_name, layer in LAYERS.items():
        module = sys.modules[module_name]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
                continue
            if inspect.isfunction(obj):
                targets.append((module, name, f"{layer}.{name}"))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        targets.append((obj, attr, f"{layer}.{attr}"))
    return targets


def install(tracer: Tracer):
    """Rebind traced wrappers into the loaded package; returns an undo callable.

    Functions are matched by identity, so a name imported into another module
    (``from ._interp import interp_rows``) is wrapped there too.
    """
    import scipy.spatial.distance

    wrappers = {}
    patched = []
    names = set()
    for owner, attr, span_name in _targets():
        if span_name in names:
            raise RuntimeError(f"two traced callables share the span name {span_name}")
        names.add(span_name)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(span_name, original, WORK.get(span_name))
        wrappers[id(original)] = (original, wrapper)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, original))
    pdist = scipy.spatial.distance.pdist
    wrappers[id(pdist)] = (pdist, tracer.wrap(PDIST, pdist, WORK[PDIST]))

    package = [m for n, m in list(sys.modules.items()) if n == "optithresh" or n.startswith("optithresh.")]
    for module in package:
        for name, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
                patched.append((module, name, obj))

    def undo() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return undo


def self_times(spans: list) -> list:
    """Duration of each span minus the time covered by its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def root_tags(spans: list) -> list:
    """Tag of each span's outermost ancestor (parents precede their children)."""
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s[PARENT] < 0 else roots[s[PARENT]])
    return [spans[r][TAG] for r in roots]


def summarize(spans: list) -> dict:
    """Per (root tag, span name): calls, self seconds and summed work counts."""
    out: dict = {}
    for s, self_s, tag in zip(spans, self_times(spans), root_tags(spans)):
        entry = out.setdefault((tag, s[NAME]), {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, value in (s[COUNTS] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out


#: Layer callables reported on every workload (zero where a workload skips them).
LAYER_CALLS = (
    "simulation.generate_cohort",
    "ingestion.read_cgm_csv",
    "ingestion.apply_inclusion",
    "ingestion.empirical_histogram",
    "histograms.build_histogram",
    "histograms.linearized_quantile_grid",
    "histograms.soft_amalgamate",
    "losses.quantile_matrix",
    "losses.pairwise_base_norms",
    "losses.pairwise_base_bray_curtis",
    "losses.amalgamated_compositions",
    "losses.evaluate_loss",
    "interp.interp_rows",
    PDIST,
    "evaluation.tir_summary",
)
#: Work counts of a layer callable, by count name.
LAYER_COUNTS = {
    "interp.interp_rows": ("points",),
    PDIST: ("pair_cols",),
    "ingestion.read_cgm_csv": ("rows", "rows_skipped"),
}
#: Layers also split per solver invocation.
PER_METHOD_CALLS = ("interp.interp_rows", PDIST)
METHODS = ("de", "sa", "ss", "exhaustive", "paa")


def _count_name(name: str, key: str) -> str:
    # ingestion counts read as "ingestion.rows", the others as "<callable>.<count>".
    return f"ingestion.{key}" if name == "ingestion.read_cgm_csv" else f"{name}.{key}"


def layer_metrics(rows: list) -> dict:
    """Span-derived per-layer metrics of one traced pass.

    ``rows`` are ``[tag, span name, entry]`` from ``summarize``; tags are the
    invocation's method.  Self times are seconds summed over the pass; a layer
    the workload never calls reads 0 calls and 0 s.
    """
    out = {}
    for name in LAYER_CALLS:
        entries = [e for _, n, e in rows if n == name]
        out[f"{name}.calls"] = sum(e["calls"] for e in entries)
        out[f"{name}.self_s"] = sum(e["self_s"] for e in entries)
        for key in LAYER_COUNTS.get(name, ()):
            out[_count_name(name, key)] = sum(e.get(key, 0) for e in entries)
    out["cli.self_s"] = sum(e["self_s"] for _, n, e in rows if n == INVOCATION)
    for method in METHODS:
        mine = [(n, e) for tag, n, e in rows if tag == method]
        out[f"optimizers.{method}.self_s"] = sum(
            e["self_s"] for n, e in mine if n.startswith("optimizers.")
        )
        for name in PER_METHOD_CALLS:
            entries = [e for n, e in mine if n == name]
            out[f"{method}.{name}.calls"] = sum(e["calls"] for e in entries)
            out[f"{method}.{name}.self_s"] = sum(e["self_s"] for e in entries)
            for key in LAYER_COUNTS[name]:
                out[f"{method}.{name}.{key}"] = sum(e.get(key, 0) for e in entries)
    return out
