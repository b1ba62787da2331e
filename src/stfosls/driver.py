"""The solve-estimate-mark-refine loop, adaptive or uniform, with per-level
run logging and rate tables."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .assembly import SolverReport, assemble, element_fields, solve_cg
from .estimator import compute_indicators, u_norm_error
from .marking import MarkingConfig, mark, verify_marking_property
from .mesh import Mesh, bisect
from .problem import ExactFields
from .spaces import build_dofmap

__all__ = [
    "StopCriteria",
    "RunRecord",
    "RunLog",
    "SolverFailure",
    "MarkingPropertyError",
    "run",
    "rate_table",
    "write_runlog_csv",
]


class SolverFailure(RuntimeError):
    """A level's linear solve failed: SuperLU found the matrix singular, or
    the solve did not converge in the sense of SolverReport."""


class MarkingPropertyError(RuntimeError):
    """A produced mark set violated the marking property (internal bug guard)."""


@dataclass(frozen=True)
class StopCriteria:
    """Loop termination: any satisfied criterion stops the run.

    ``max_iterations`` bounds the number of refinement steps (a run records
    at most max_iterations + 1 levels), ``max_dofs`` stops once a solved
    level reaches that many unknowns, and ``estimator_tolerance`` is an
    absolute threshold on the global estimator.
    """

    max_iterations: Optional[int] = None
    max_dofs: Optional[int] = None
    estimator_tolerance: Optional[float] = None

    def __post_init__(self):
        if self.max_iterations is None and self.max_dofs is None \
                and self.estimator_tolerance is None:
            raise ValueError("at least one stopping criterion must be set")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.max_dofs is not None and self.max_dofs < 1:
            raise ValueError(f"max_dofs must be >= 1, got {self.max_dofs}")
        if self.estimator_tolerance is not None and not self.estimator_tolerance >= 0:
            raise ValueError(f"estimator_tolerance must be >= 0, got {self.estimator_tolerance}")


@dataclass
class RunRecord:
    level: int
    dofs: int
    elements: int
    estimator: float
    error: Optional[float]
    marked: int
    solver: SolverReport


@dataclass
class RunLog:
    records: List[RunRecord] = field(default_factory=list)
    reason: str = ""
    final_mesh: Optional[Mesh] = None

    def estimators(self) -> np.ndarray:
        return np.array([r.estimator for r in self.records])

    def errors(self) -> np.ndarray:
        return np.array([math.nan if r.error is None else r.error for r in self.records])

    def dofs(self) -> np.ndarray:
        return np.array([r.dofs for r in self.records])


def _solve_level(mesh, system, p, exact):
    """Solve one level; indicators and error reuse the level data assembly built."""
    dofmap = build_dofmap(mesh, p, system)
    level = assemble(mesh, dofmap, system)
    try:
        coeffs, report = solve_cg(level.matrix, level.rhs)
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise SolverFailure(f"level solve on {level.rhs.size} dofs failed: {exc}") from exc
    if not report.converged:
        raise SolverFailure(
            f"level solve on {level.rhs.size} dofs did not converge: relative residual "
            f"{report.relative_residual:.3e}, backward error {report.backward_error:.3e}"
        )
    fields = element_fields(coeffs, level)
    if exact is not None:  # the error reads the same per-block fields: evaluate them once
        fields, error_fields = itertools.tee(fields)
    indicators = compute_indicators(mesh, coeffs, system, level, fields)
    error = None
    if exact is not None:
        error = u_norm_error(coeffs, exact, system, level, error_fields).total
    return dofmap.n_dofs, report, indicators, error


def run(
    system,
    mesh0: Mesh,
    p: int,
    stop: StopCriteria,
    marking: Optional[MarkingConfig] = None,
    exact: Optional[ExactFields] = None,
) -> RunLog:
    """Solve, estimate, mark and refine ``system``, a first-order system of
    :mod:`stfosls.system`'s interface, until a stopping criterion fires.

    With a ``marking`` config each level marks by the indicators (verifying
    the marking property) and refines exactly the marked set plus bisection
    closure; all-zero indicators end the run as converged.  ``marking=None``
    refines uniformly: every element is marked and the mesh is bisected
    twice, which splits each triangle into four similar children and halves
    the mesh width.  Such a run ends only by ``stop``, and its
    ``max_iterations`` reason is reported as ``"levels"``.  Every record
    carries its level's SolverReport, the Galerkin defect included.
    """
    log = RunLog()
    mesh = mesh0
    level = 0
    while True:
        dofs, report, indicators, error = _solve_level(mesh, system, p, exact)
        record = RunRecord(
            level=level,
            dofs=dofs,
            elements=mesh.n_elements,
            estimator=indicators.total,
            error=error,
            marked=0,
            solver=report,
        )
        log.records.append(record)

        log.final_mesh = mesh
        if stop.estimator_tolerance is not None and indicators.total <= stop.estimator_tolerance:
            log.reason = "estimator_tolerance"
        elif marking is not None and np.all(indicators.per_element == 0.0):
            log.reason = "converged"
        elif stop.max_dofs is not None and dofs >= stop.max_dofs:
            log.reason = "max_dofs"
        elif stop.max_iterations is not None and level >= stop.max_iterations:
            log.reason = "max_iterations" if marking is not None else "levels"
        if log.reason:
            return log

        if marking is None:
            marks = np.arange(mesh.n_elements)
        else:
            marks = mark(indicators.per_element, marking)
            if not verify_marking_property(indicators.per_element, marks):
                raise MarkingPropertyError(
                    f"marking strategy {marking.strategy.value} violated the marking property"
                )
        record.marked = int(marks.size)
        mesh = bisect(mesh, marks)
        if marking is None:
            mesh = bisect(mesh, np.arange(mesh.n_elements))
        level += 1


def rate_table(runlog: RunLog):
    """Rows (dofs, estimator, error, order) with orders against mesh width.

    The order between consecutive records uses h ~ dofs^(-1/2) in the
    space-time plane: order = 2 log(v_prev / v) / log(dofs / dofs_prev).
    The orders rate the error when every record carries one, otherwise the
    estimator.
    """
    if len(runlog.records) < 2:
        raise ValueError("rate table needs at least two records")
    with_error = all(r.error is not None for r in runlog.records)
    values = runlog.errors() if with_error else runlog.estimators()
    dofs = runlog.dofs().astype(float)

    rows = []
    for i, rec in enumerate(runlog.records):
        order = None
        if i > 0:
            prev, cur = values[i - 1], values[i]
            if prev == cur:
                order = 0.0
            elif prev > 0 and cur > 0 and dofs[i] > dofs[i - 1]:
                order = 2.0 * math.log(prev / cur) / math.log(dofs[i] / dofs[i - 1])
            else:
                order = math.nan
        rows.append((rec.dofs, rec.estimator, rec.error, order))
    return rows


def write_runlog_csv(runlog: RunLog, path) -> None:
    """CSV log, one row per level; the error column is empty without a reference."""
    lines = ["level,dofs,elements,estimator,error,marked,cg_iters"]
    for r in runlog.records:
        err = "" if r.error is None else repr(float(r.error))
        lines.append(
            f"{r.level},{r.dofs},{r.elements},{float(r.estimator)!r},{err},{r.marked},{r.solver.iterations}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
