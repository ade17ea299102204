"""Per-layer tracing of kgbound from outside the package.

The layers are the package's modules.  Tracing wraps their public
functions while a traced op runs and restores the originals afterwards;
nothing inside ``src/kgbound`` changes.  A wrapper replaces the function
in every kgbound namespace that holds it, because callers look functions
up where they imported them: ``cli`` imports ``solve_spectrum``,
``build_wave_solution``, ``mass_at`` and others by name, while
``quantization`` reaches ``_kernels.residual_grid`` through the module.

Span wrappers record (name, start, end, parent, op id) in memory.  Hot
scalar functions, called per energy or per radius, get count-only
wrappers so that tracing does not swamp what it measures.  A layer's self
time is its span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]  # name, start, end, parent, op


# ------------------------------------------------- hooks on return values

def _grid_hook(counts, result):
    from kgbound._kernels import STATUS_OK
    status = result[3]
    counts["kernels.residual_grid.points"] += int(status.size)
    counts["kernels.residual_grid.ok"] += int((status == STATUS_OK).sum())


def _brackets_hook(counts, result):
    counts["rootfind.bracket_scan.brackets"] += len(result)


def _refine_hook(counts, result):
    counts["rootfind.secant_refine.iterations"] += result.iterations


def _refine_error(counts, err):
    from kgbound.errors import ConvergenceError
    if isinstance(err, ConvergenceError):
        counts["rootfind.secant_refine.failures"] += 1
        counts["rootfind.secant_refine.iterations"] += err.iterations


def _cell_hook(counts, result):
    for entry in result.entries:
        if entry.status in ("converged", "failed"):
            counts[f"rootfind.lines_{entry.status}"] += 1


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it is defined, its metric prefix, and
    whether it gets a span (calls, busy and self time) or a count only."""

    module: str
    attr: str
    layer: str
    span: bool = True
    on_result: Optional[Callable] = None
    on_error: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


TARGETS = (
    Target("kgbound.cli", "main", "cli"),
    Target("kgbound._kernels", "residual_grid", "kernels", on_result=_grid_hook),
    Target("kgbound._kernels", "residual_point", "kernels", span=False),
    Target("kgbound.quantization", "build_residual_spec", "quantization"),
    Target("kgbound.quantization", "evaluate", "quantization", span=False),
    Target("kgbound.quantization", "residual", "quantization", span=False),
    Target("kgbound.quantization", "sign_validity", "quantization", span=False),
    Target("kgbound.rootfind", "solve_spectrum", "rootfind"),
    Target("kgbound.rootfind", "solve_cell", "rootfind", on_result=_cell_hook),
    Target("kgbound.rootfind", "bracket_scan", "rootfind",
           on_result=_brackets_hook),
    Target("kgbound.rootfind", "secant_refine", "rootfind",
           on_result=_refine_hook, on_error=_refine_error),
    Target("kgbound.rootfind", "absence_reason", "rootfind"),
    Target("kgbound.model", "case_parameters", "model"),
    Target("kgbound.model", "vector_potential", "model", span=False),
    Target("kgbound.model", "mass_at", "model", span=False),
    Target("kgbound.special", "build_wave_solution", "special"),
    Target("kgbound.special", "boundary_report", "special"),
    Target("kgbound.special", "wavefunction_grid", "special"),
    Target("kgbound.special", "wavefunction_u", "special", span=False),
    Target("kgbound.special", "kummer_1f1", "special", span=False),
    Target("kgbound.aim", "terminates_at", "aim"),
    Target("kgbound.aim", "iterate", "aim"),
    Target("kgbound.aim", "poly_gcd", "aim"),
    Target("kgbound.aim", "Poly.divmod", "aim", span=False),
)

# Metrics derived from the counts, after the per-target ones.
DERIVED_METRICS = (
    ("cli.output_bytes", "bytes", "lower"),
    ("kernels.residual_grid.points", "count", "lower"),
    ("kernels.residual_grid.ok_frac", "ratio", "higher"),
    ("rootfind.bracket_scan.brackets", "count", "lower"),
    ("rootfind.secant_refine.iterations", "count", "lower"),
    ("rootfind.secant_refine.failures", "count", "lower"),
    ("rootfind.roots_rejected", "count", "lower"),
    ("rootfind.grid_points_per_cell", "count", "lower"),
    ("special.wavefunction_u.per_sample", "ratio", "lower"),
    ("aim.iterate.per_seed", "count", "lower"),
    ("trace.untraced_op_p50_ms", "ms", "lower"),
    ("trace.traced_op_p50_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)


def layer_metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for t in TARGETS:
        specs.append((f"{t.name}.calls", "count", "lower"))
        if t.span:
            specs.append((f"{t.name}.busy_s", "s", "lower"))
            specs.append((f"{t.name}.self_s", "s", "lower"))
    return specs + list(DERIVED_METRICS)


def self_times(spans: List[Span]) -> Dict[str, List[float]]:
    """Per span name: [calls, busy seconds, self seconds].

    Self time is each span's duration minus the union of its children's
    intervals, clipped to the span, so overlapping or nested children are
    not subtracted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        acc = out[name]
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - covered
    return out


class Tracer:
    """Installs the wrappers, records spans and counts, folds each op's
    spans into per-name totals."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.kept: List[Tuple[int, Span]] = []
        self.op = 0
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------ wrappers

    def _span_wrapper(self, target: Target, fn):
        name, spans, stack = target.name, self.spans, self._stack
        on_result, on_error = target.on_result, target.on_error
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(counts, err)
                raise
            finally:
                spans[sid] = (name, start, perf_counter(), parent, self.op)
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result
        return wrapped

    def _count_wrapper(self, target: Target, fn):
        key, counts = f"{target.name}.calls", self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sys.modules.items()
                      if name == "kgbound" or name.startswith("kgbound.")]
        for t in TARGETS:
            module = importlib.import_module(t.module)
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                owners = [(cls, meth)]
            else:
                original = getattr(module, t.attr)
                owners = [(ns, name) for ns in namespaces
                          for name, value in vars(ns).items()
                          if value is original]
            make = self._span_wrapper if t.span else self._count_wrapper
            wrapper = make(t, original)
            for owner, name in owners:
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------ folding

    def fold(self, keep: bool):
        """Add the spans of the op just traced to the totals; keep them
        for export when asked, else drop them.  Span ids and parents are
        indices within their op."""
        for name, acc in self_times(self.spans).items():
            tot = self.totals[name]
            tot[0] += acc[0]
            tot[1] += acc[1]
            tot[2] += acc[2]
        if keep:
            self.kept.extend(enumerate(self.spans))
        self.spans.clear()

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-target and derived counts per traced pass."""
        counts = self.counts
        m = {}
        for t in TARGETS:
            if t.span:
                calls, busy, own = self.totals.get(t.name, (0, 0.0, 0.0))
                m[f"{t.name}.calls"] = calls / passes
                m[f"{t.name}.busy_s"] = busy / passes
                m[f"{t.name}.self_s"] = own / passes
            else:
                m[f"{t.name}.calls"] = counts[f"{t.name}.calls"] / passes
        for key in ("cli.output_bytes", "kernels.residual_grid.points",
                    "rootfind.bracket_scan.brackets",
                    "rootfind.secant_refine.iterations",
                    "rootfind.secant_refine.failures"):
            m[key] = counts[key] / passes
        points = counts["kernels.residual_grid.points"]
        m["kernels.residual_grid.ok_frac"] = (
            counts["kernels.residual_grid.ok"] / points if points else 0.0)
        m["rootfind.roots_rejected"] = (
            counts["rootfind.bracket_scan.brackets"]
            - counts["rootfind.lines_converged"]
            - counts["rootfind.lines_failed"]) / passes
        cells = self.totals.get("rootfind.solve_cell", (0,))[0]
        m["rootfind.grid_points_per_cell"] = points / cells if cells else 0.0
        return m

    def export(self, path, t0: float):
        """Write the kept spans as JSON lines, times relative to t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in self.kept:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": start - t0,
                                     "end": end - t0}) + "\n")
