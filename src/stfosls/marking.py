"""Marking strategies for the adaptive loop.

Two properties of a mark set M are in play:

* the marking property of plain-convergence proofs, max over the unmarked
  indicators <= max over M (the identity as marking function);
  :func:`verify_marking_property` checks this one, and the adaptive
  loop checks it on every level it marks;
* the stronger one, max over the unmarked indicators <= min over M, which
  :func:`mark_doerfler` and :func:`mark_maximum` both guarantee by
  construction, the first by marking a prefix of the indicators sorted
  descending, the second by marking all indicators above a threshold.
  No function here checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mesh import _element_indices

__all__ = [
    "MarkStrategy",
    "MarkingConfig",
    "mark",
    "mark_doerfler",
    "mark_maximum",
    "verify_marking_property",
]


class MarkStrategy(Enum):
    DOERFLER = "doerfler"
    MAXIMUM = "maximum"


@dataclass(frozen=True)
class MarkingConfig:
    strategy: MarkStrategy
    theta: float

    def __post_init__(self):
        if self.strategy is MarkStrategy.DOERFLER:
            if not (0.0 < self.theta <= 1.0):
                raise ValueError(f"Doerfler marking needs theta in (0, 1], got {self.theta}")
        elif not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"maximum marking needs theta in [0, 1], got {self.theta}")


def mark_doerfler(indicators: np.ndarray, theta: float) -> np.ndarray:
    """Minimal set carrying at least the theta-fraction of the squared total.

    Indicators are sorted descending (ties broken by element index), and the
    shortest prefix with sum of squares >= theta * total is marked.  Sorting
    makes every unmarked indicator at most the smallest marked one, and the
    prefix is minimal: dropping its last element breaks the bulk inequality.
    """
    indicators = np.asarray(indicators, dtype=float)
    MarkingConfig(MarkStrategy.DOERFLER, theta)  # checks theta's range
    if indicators.size == 0:
        return np.empty(0, dtype=np.int64)
    eta2 = indicators**2
    order = np.argsort(-eta2, kind="stable")  # descending, ties by element index
    csum = np.cumsum(eta2[order])
    total = csum[-1]
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    cut = int(np.searchsorted(csum, theta * total, side="left"))
    return np.sort(order[: cut + 1]).astype(np.int64)


def mark_maximum(indicators: np.ndarray, theta: float) -> np.ndarray:
    """All elements with indicator >= (1 - theta) times the largest one."""
    indicators = np.asarray(indicators, dtype=float)
    MarkingConfig(MarkStrategy.MAXIMUM, theta)  # checks theta's range
    if indicators.size == 0:
        return np.empty(0, dtype=np.int64)
    top = indicators.max()
    if top == 0.0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(indicators >= (1.0 - theta) * top).astype(np.int64)


def mark(indicators: np.ndarray, config: MarkingConfig) -> np.ndarray:
    if config.strategy is MarkStrategy.DOERFLER:
        return mark_doerfler(indicators, config.theta)
    return mark_maximum(indicators, config.theta)


def verify_marking_property(indicators: np.ndarray, marks: np.ndarray) -> bool:
    """Check max over unmarked indicators <= max over marked indicators, the
    marking property with the identity as marking function.

    An empty mark set is admissible only when every indicator vanishes.
    Marks are checked like those of :func:`stfosls.mesh.bisect`.
    """
    indicators = np.asarray(indicators, dtype=float)
    marks = _element_indices(marks, indicators.size)
    if marks.size == 0:
        return bool(np.all(indicators == 0.0))
    unmarked = np.ones(indicators.size, dtype=bool)
    unmarked[marks] = False
    if not unmarked.any():
        return True
    return float(indicators[unmarked].max()) <= float(indicators[marks].max())
