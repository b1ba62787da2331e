"""Per-layer tracing of `stfosls run`, taken from outside the program.

`Tracer.install()` replaces the layer functions that `stfosls.driver` and
`stfosls.cli` import by name with timing wrappers, and makes the system
constructors return a timing proxy.  Spans (name, start, end, parent,
workload, run, level) stay in memory; `uninstall()` restores the originals.

Work the tracer itself does (counting initial facets, the true-residual
matvec after each solve) runs outside every span and is summed in
`check_s`, so that top-level spans + driver self time + check time add up
to the traced wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import stfosls.cli as cli
import stfosls.driver as driver
from stfosls.mesh import initial_facet_list

# span name -> (module, attribute) of the call site that is wrapped
LAYER_FUNCTIONS = {
    "mesh.bisect": (driver, "bisect"),
    "spaces.build_dofmap": (driver, "build_dofmap"),
    "assembly.assemble": (driver, "assemble"),
    "assembly.solve_cg": (driver, "solve_cg"),
    "estimator.compute_indicators": (driver, "compute_indicators"),
    "estimator.u_norm_error": (driver, "u_norm_error"),
    "marking.mark": (driver, "mark"),
    "marking.verify": (driver, "verify_marking_property"),
    "cli.write_runlog_csv": (cli, "write_runlog_csv"),
    "cli.write_mesh": (cli, "write_mesh"),
}
SYSTEM_CONSTRUCTORS = ("parabolic_system", "poisson_sine_case")
# System methods that evaluate images of fields or interior data.
EVAL_METHODS = frozenset({"residual_u1", "residual_u2", "data_interior", "divergence"})
# Per-level table columns (span names), in pipeline order.
LEVEL_COLUMNS = (
    "spaces.build_dofmap",
    "assembly.assemble",
    "assembly.solve_cg",
    "estimator.compute_indicators",
    "estimator.u_norm_error",
    "marking.mark",
    "marking.verify",
    "mesh.bisect",
    "system.eval",
)
DEFAULT_CG_TOL = 1e-10  # solve_cg's own default, used when a caller passes no rel_tol


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    workload: str
    run: str
    level: int


@dataclass
class LevelRow:
    run: str
    level: int
    dofs: int = 0
    elements: int = 0
    cg_iters: int = 0
    true_rel_residual: float = 0.0


class _SystemProxy:
    """Forwards every attribute to the wrapped system; times its evaluations."""

    def __init__(self, system, tracer: "Tracer"):
        self._system = system
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._system, name)
        if name in EVAL_METHODS:
            return self._tracer.timed("system.eval", attr)
        if name == "data_initial":
            return self._tracer.timed("system.data_initial", attr)
        return attr


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Span] = []
        self.rows: List[LevelRow] = []
        self.counts: Dict[str, float] = {}
        self.check_s = 0.0
        self.run = ""
        self.level = -1
        self._stack: List[int] = []
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "mesh.bisect": self._after_bisect,
            "spaces.build_dofmap": self._after_dofmap,
            "assembly.assemble": self._after_assemble,
            "assembly.solve_cg": self._after_solve,
            "estimator.compute_indicators": self._after_indicators,
            "marking.mark": self._after_mark,
        }
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            self._patch(module, attr, self.timed(name, getattr(module, attr), hooks.get(name)))
        for attr in SYSTEM_CONSTRUCTORS:
            self._patch(cli, attr, self._proxied(getattr(cli, attr)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module, attr, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _proxied(self, constructor):
        def build(*args, **kwargs):
            out = constructor(*args, **kwargs)
            if isinstance(out, tuple):  # poisson_sine_case returns (system, exact)
                return (_SystemProxy(out[0], self),) + out[1:]
            return _SystemProxy(out, self)

        return build

    # -- spans ----------------------------------------------------------------

    def start_run(self, run: str) -> None:
        self.run = run
        self.level = -1

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, *args, **kwargs)`` runs outside it."""

        def wrapper(*args, **kwargs):
            if name == "spaces.build_dofmap":  # every level starts with its dof map
                self.level += 1
                self.rows.append(LevelRow(self.run, self.level))
            self.counts[name + ".calls"] = self.counts.get(name + ".calls", 0) + 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            span = Span(name, 0.0, 0.0, parent, self.workload, self.run, self.level)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                t0 = time.perf_counter()
                after(out, *args, **kwargs)
                self.check_s += time.perf_counter() - t0
            return out

        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- per-layer counts, recorded outside the spans ---------------------------

    def _after_bisect(self, out, mesh, marks):
        self._add("mesh.bisect.elements_out", out.n_elements)
        self._add("mesh.bisect.elements_added", out.n_elements - mesh.n_elements)
        self._add("mesh.bisect.elements_marked", len(marks))

    def _after_dofmap(self, out, mesh, *args, **kwargs):
        self.rows[-1].dofs = int(out.n_dofs)
        self.rows[-1].elements = int(mesh.n_elements)

    def _after_assemble(self, out, *args, **kwargs):
        self._add("assembly.assemble.nnz", out.matrix.nnz)

    def _after_solve(self, out, matrix, rhs, rel_tol=DEFAULT_CG_TOL, **kwargs):
        x, report = out
        b_norm = float(np.linalg.norm(rhs))
        true_rel = float(np.linalg.norm(rhs - matrix @ x)) / b_norm if b_norm > 0 else 0.0
        row = self.rows[-1]
        row.cg_iters = int(report.iterations)
        row.true_rel_residual = true_rel
        self._add("assembly.solve_cg.iters", report.iterations)
        self.counts["assembly.solve_cg.true_rel_residual_max"] = max(
            self.counts.get("assembly.solve_cg.true_rel_residual_max", 0.0), true_rel
        )
        self._add("assembly.solve_cg.false_converged", int(report.converged and true_rel > rel_tol))

    def _after_indicators(self, out, mesh, solution, system, *args, **kwargs):
        if system.has_initial_trace:
            self._add("estimator.initial_facets", len(initial_facet_list(mesh)))

    def _after_mark(self, out, indicators, config):
        self._add("marking.marked", len(out))
        self._add("marking.candidates", len(indicators))

    # -- reports ----------------------------------------------------------------

    def busy(self, name: str) -> float:
        return sum((s.end - s.start for s in self.spans if s.name == name), 0.0)

    def top_level_s(self) -> float:
        return sum((s.end - s.start for s in self.spans if s.parent is None), 0.0)

    def calls(self, name: str) -> int:
        return int(self.counts.get(name + ".calls", 0))

    def called_layers(self, run: str) -> set:
        return {s.name for s in self.spans if s.run == run}

    def level_seconds(self) -> Dict[tuple, Dict[str, float]]:
        out: Dict[tuple, Dict[str, float]] = {}
        for s in self.spans:
            cell = out.setdefault((s.run, s.level), {})
            cell[s.name] = cell.get(s.name, 0.0) + (s.end - s.start)
        return out

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of everything traced so far, against traced wall time."""
        c = self.counts
        last_iters = {}
        for row in self.rows:  # finest (last) level of each run
            last_iters[row.run] = row.cg_iters
        marked = c.get("mesh.bisect.elements_marked", 0)
        candidates = c.get("marking.candidates", 0)
        return {
            "mesh.bisect.s": self.busy("mesh.bisect"),
            "mesh.bisect.calls": self.calls("mesh.bisect"),
            "mesh.bisect.elements_out": int(c.get("mesh.bisect.elements_out", 0)),
            "mesh.bisect.closure_ratio": c.get("mesh.bisect.elements_added", 0) / marked if marked else 0.0,
            "spaces.build_dofmap.s": self.busy("spaces.build_dofmap"),
            "spaces.build_dofmap.calls": self.calls("spaces.build_dofmap"),
            "system.eval.s": self.busy("system.eval"),
            "system.eval.calls": self.calls("system.eval"),
            "system.data_initial.calls": self.calls("system.data_initial"),
            "assembly.assemble.s": self.busy("assembly.assemble"),
            "assembly.assemble.nnz": int(c.get("assembly.assemble.nnz", 0)),
            "assembly.solve_cg.s": self.busy("assembly.solve_cg"),
            "assembly.solve_cg.iters": int(c.get("assembly.solve_cg.iters", 0)),
            "assembly.solve_cg.iters_last": sum(last_iters.values()),
            "assembly.solve_cg.true_rel_residual_max": c.get("assembly.solve_cg.true_rel_residual_max", 0.0),
            "assembly.solve_cg.false_converged": int(c.get("assembly.solve_cg.false_converged", 0)),
            "estimator.compute_indicators.s": self.busy("estimator.compute_indicators"),
            "estimator.u_norm_error.s": self.busy("estimator.u_norm_error"),
            "estimator.initial_facets": int(c.get("estimator.initial_facets", 0)),
            "marking.mark.s": self.busy("marking.mark"),
            "marking.verify.s": self.busy("marking.verify"),
            "marking.marked_frac": c.get("marking.marked", 0) / candidates if candidates else 0.0,
            "driver.self_s": wall_s - self.top_level_s() - self.check_s,
            "cli.write_s": self.busy("cli.write_runlog_csv") + self.busy("cli.write_mesh"),
        }
