"""Conforming triangulations of a space-time rectangle with newest-vertex bisection.

The computational domain is the rectangle (0, T) x (a, b) with coordinates
(t, x).  Meshes are stored as flat numpy arrays and are immutable by
convention: refinement returns a new mesh.

Element conventions
-------------------
* Vertices are ordered counterclockwise (positive signed area).
* Local edge ``k`` runs from local vertex ``k`` to local vertex ``(k+1) % 3``.
* Local edge 0, i.e. the edge between local vertices 0 and 1, is the
  refinement edge; local vertex 2 is the newest vertex.
* Bisecting at the midpoint ``m`` of edge (v0, v1) produces the children
  ``(v2, v0, m)`` and ``(v1, v2, m)``, whose refinement edges are the parent
  edges opposite the new vertex.

Boundary facets are read off the coordinates (:func:`facet_tags`): an edge
lies on a side when both its end points carry that side's coordinate
exactly.  This holds bit for bit, as the initial grid takes the sides from
``linspace`` endpoints and the midpoint of two equal coordinates is that
coordinate; a mesh whose midpoints collapse, as in a rectangle of denormal
width, is rejected as degenerate by :func:`stfosls.spaces.affine_maps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "FacetTag",
    "Mesh",
    "uniform_initial_mesh",
    "bisect",
    "facet_tags",
    "initial_facet_list",
    "is_conforming",
    "write_mesh",
]


class FacetTag(IntEnum):
    """Classification of element edges against the boundary of the rectangle."""

    INTERIOR = 0
    LATERAL_DIRICHLET = 1
    INITIAL = 2
    FINAL = 3


_TAG_NAMES = {
    FacetTag.LATERAL_DIRICHLET: "lateral",
    FacetTag.INITIAL: "initial",
    FacetTag.FINAL: "final",
}


@dataclass(frozen=True)
class Mesh:
    """Triangulation of the rectangle (0, t_end) x (x_lo, x_hi), whose
    extents are those of its points.

    Attributes
    ----------
    points : (n_points, 2) float array
        Vertex coordinates, columns (t, x).
    elements : (n_elements, 3) int array
        Vertex indices per triangle, counterclockwise; edge (v0, v1) is the
        refinement edge.
    generation : (n_elements,) int array
        Bisection depth of each element.
    refined_from : (n_elements,) int array
        Index of the ancestor element in the mesh this one was produced
        from by :func:`bisect` (the element's own index for an unrefined
        copy, and ``arange`` for an initial mesh).

    The mesh holds combinatorics and coordinates only.  The vertex
    coordinates of every element are ``points[elements]``, the ``FacetTag``
    of every local edge is :func:`facet_tags`, and the reference map of
    every element, with det J = 2 x area, is
    :func:`stfosls.spaces.affine_maps`.
    """

    points: np.ndarray
    elements: np.ndarray
    generation: np.ndarray
    refined_from: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


def uniform_initial_mesh(t_end: float, omega: tuple, nt: int, nx: int) -> Mesh:
    """Uniform triangulation of (0, t_end) x omega with 2*nt*nx triangles.

    Every grid cell is split along its diagonal, and the diagonal (the
    longest edge of both triangles) is chosen as their refinement edge.
    Diagonals are interior to their cell, so the refinement-edge assignment
    is compatible and bisection closure always terminates.

    Raises
    ------
    ValueError
        If the rectangle is degenerate or a resolution is not positive.
    """
    x_lo, x_hi = float(omega[0]), float(omega[1])
    if not (t_end > 0.0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not (x_lo < x_hi):
        raise ValueError(f"empty spatial interval ({x_lo}, {x_hi})")
    if nt < 1 or nx < 1:
        raise ValueError(f"grid resolutions must be >= 1, got nt={nt}, nx={nx}")

    # Point (i, j) = (t_i, x_j) has index i (nx + 1) + j.  Cell (i, j), in
    # row-major order, is split along its diagonal (p00, p11), the
    # refinement edge of both halves: lower-right (p00, p11, p01), then
    # upper-left (p11, p00, p10).
    tv = np.linspace(0.0, t_end, nt + 1)
    xv = np.linspace(x_lo, x_hi, nx + 1)
    points = np.column_stack([np.repeat(tv, nx + 1), np.tile(xv, nt + 1)])
    i, j = np.divmod(np.arange(nt * nx, dtype=np.int64), nx)
    p00 = i * (nx + 1) + j
    p11 = p00 + nx + 2
    elements = np.column_stack([p00, p11, p00 + 1, p11, p00, p11 - 1]).reshape(-1, 3)
    n_elems = elements.shape[0]
    return Mesh(
        points=points,
        elements=elements,
        generation=np.zeros(n_elems, dtype=np.int64),
        refined_from=np.arange(n_elems, dtype=np.int64),
    )


def _edge_keys(elements: np.ndarray, stride: int) -> np.ndarray:
    """Orientation-free integer key of every local edge, shape (n_elements, 3)."""
    a = elements
    b = np.roll(elements, -1, axis=1)
    lo = np.minimum(a, b).astype(np.int64)
    hi = np.maximum(a, b).astype(np.int64)
    return lo * stride + hi


# Children of one element per split case, in depth-first order: the edge-0
# split first, then the first child's split on edge 2, then the second
# child's split on edge 1.  A child is (three indices into [v0, v1, v2, m0,
# m1, m2], generation increment), m_k being the midpoint of local edge k.
# Cases: nothing scheduled, edge 0 only, edges 0 and 2, edges 0 and 1, all.
_FIRST, _SECOND = [(2, 0, 3, 1)], [(1, 2, 3, 1)]
_FIRST_SPLIT = [(3, 2, 5, 2), (0, 3, 5, 2)]
_SECOND_SPLIT = [(3, 1, 4, 2), (2, 3, 4, 2)]
_CASES = [[(0, 1, 2, 0)], _FIRST + _SECOND, _FIRST_SPLIT + _SECOND,
          _FIRST + _SECOND_SPLIT, _FIRST_SPLIT + _SECOND_SPLIT]
_SPLIT_COUNTS = np.array([len(c) for c in _CASES])
_SPLIT_TABLE = np.array([c + c[:1] * (4 - len(c)) for c in _CASES], dtype=np.int64)


def _element_indices(marks, n_elements: int) -> np.ndarray:
    """``marks`` as sorted distinct int64 indices of elements.  Raises
    TypeError unless they are integers (an empty list passes: its dtype is
    float) and IndexError unless each lies in [0, n_elements)."""
    marks = np.asarray(marks)
    if marks.size and not np.issubdtype(marks.dtype, np.integer):
        raise TypeError(f"element marks must be integer indices, got dtype {marks.dtype}")
    marks = np.unique(marks.astype(np.int64))
    if marks.size and (marks[0] < 0 or marks[-1] >= n_elements):
        raise IndexError("marked element index out of range")
    return marks


def bisect(mesh: Mesh, marks) -> Mesh:
    """Refine at least the marked elements by newest-vertex bisection.

    The refinement edges of the marked elements are scheduled for bisection;
    closure passes then schedule the refinement edge of any element that has
    some scheduled edge, until a fixpoint is reached.  Every element is
    finally split so that exactly its scheduled edges are bisected, which
    keeps the mesh conforming.  Each bisection introduces one new vertex,
    the midpoint of the parent's refinement edge; midpoints are deduplicated
    through the parent edge's vertex pair, never by coordinate comparison.

    Order contract: the children of an element replace it in place, in
    depth-first order (the refinement-edge split first, then the split of
    the first child, then that of the second), and new points are numbered
    in the order in which this element-by-element traversal first uses
    their edge.

    The halves of an edge on a side stay on it: a midpoint keeps the
    coordinate its end points share.  Marks must be integer indices in
    [0, n_elements): others raise TypeError or IndexError.
    """
    marks = _element_indices(marks, mesh.n_elements)
    n0 = mesh.n_points
    lo, hi, edge_id, _ = _edge_incidence(mesh)
    sched = np.zeros(lo.size, dtype=bool)
    sched[edge_id[marks, 0]] = True

    # Closure: an element with any scheduled edge must schedule its
    # refinement edge as well.  The scheduled set only grows, so the
    # fixpoint is reached after finitely many passes.
    while True:
        hit = sched[edge_id]
        need = hit.any(axis=1) & ~hit[:, 0]
        if not need.any():
            break
        sched[edge_id[need, 0]] = True

    # Midpoints are numbered by first use: element by element, edge 0, then
    # edge 2, then edge 1.
    uses = edge_id[:, [0, 2, 1]][hit[:, [0, 2, 1]]]
    used, first = np.unique(uses, return_index=True)
    new_edges = used[np.argsort(first)]
    midpoint = np.full(lo.size, -1, dtype=np.int64)
    midpoint[new_edges] = n0 + np.arange(new_edges.size)
    points = np.vstack([mesh.points, 0.5 * (mesh.points[lo[new_edges]] + mesh.points[hi[new_edges]])])

    case = hit[:, 0] * (1 + hit[:, 2] + 2 * hit[:, 1])
    counts = _SPLIT_COUNTS[case]
    parent = np.repeat(np.arange(mesh.n_elements), counts)
    rank = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
    child = _SPLIT_TABLE[case[parent], rank]
    verts = np.hstack([mesh.elements, midpoint[edge_id]])
    return Mesh(
        points=points,
        elements=np.take_along_axis(verts[parent], child[:, 0:3], axis=1),
        generation=mesh.generation[parent] + child[:, 3],
        refined_from=parent,
    )


# FacetTag of an edge whose end points share the sides in a 4-bit mask:
# bit 0 t = 0, bit 1 t = t_end, bit 2 x = x_lo, bit 3 x = x_hi.
_SIDE_TAGS = np.array([FacetTag.INITIAL if m & 1 else FacetTag.FINAL if m & 2
                       else FacetTag.LATERAL_DIRICHLET if m & 12 else FacetTag.INTERIOR
                       for m in range(16)], dtype=np.int64)


def facet_tags(mesh: Mesh) -> np.ndarray:
    """``FacetTag`` value of every local edge, shape (n_elements, 3): the
    side whose coordinate both end points carry exactly, t = 0, t = max t,
    x = min x or x = max x, and INTERIOR for none."""
    t, x = mesh.points.T
    t_end, x_lo, x_hi = t.max(), x.min(), x.max()
    sides = (t == 0.0) | (t == t_end) << 1 | (x == x_lo) << 2 | (x == x_hi) << 3
    ends = sides[mesh.elements]
    return _SIDE_TAGS[ends & np.roll(ends, -1, axis=1)]


def initial_facet_list(mesh: Mesh) -> np.ndarray:
    """All (element, local edge) pairs tagged Initial, in element order."""
    elems, locs = np.nonzero(facet_tags(mesh) == FacetTag.INITIAL)
    return np.column_stack([elems, locs])


def _edge_incidence(mesh: Mesh):
    """Distinct edges as vertex pairs a < b, the edge of every local edge
    (shape (n_elements, 3)) and the number of incidences of each edge."""
    n = mesh.n_points
    keys, edge_of, counts = np.unique(
        _edge_keys(mesh.elements, n).ravel(), return_inverse=True, return_counts=True
    )
    return keys // n, keys % n, edge_of.reshape(-1, 3), counts


def is_conforming(mesh: Mesh) -> bool:
    """True iff interior edges have two incident elements and boundary edges one.

    An edge with a single incidence counts as a boundary edge only when it
    lies on a side of the computational rectangle; a once-counted edge in
    the interior signals a hanging node.
    """
    _, _, edge_of, counts = _edge_incidence(mesh)
    single = counts[edge_of] == 1
    return bool(np.all(counts <= 2) and np.all(facet_tags(mesh)[single] != FacetTag.INTERIOR))


def write_mesh(mesh: Mesh, path) -> None:
    """Dump a mesh in the ASCII format ``spacetime-mesh v1``.

    Line 1 is the format header, line 2 holds point and element counts,
    followed by one ``t x`` line per point, one ``v0 v1 v2 generation`` line
    per element, and one ``elem edge tag`` line per tagged boundary facet.
    All blocks use insertion order.
    """
    lines = ["spacetime-mesh v1", f"{mesh.n_points} {mesh.n_elements}"]
    lines += [f"{t!r} {x!r}" for t, x in mesh.points.tolist()]
    rows = np.column_stack([mesh.elements, mesh.generation]).tolist()
    lines += [f"{v0} {v1} {v2} {g}" for v0, v1, v2, g in rows]
    sides = facet_tags(mesh)
    elems, locs = np.nonzero(sides != FacetTag.INTERIOR)
    tags = sides[elems, locs].tolist()
    lines += [f"{e} {loc} {_TAG_NAMES[t]}" for e, loc, t in zip(elems.tolist(), locs.tolist(), tags)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

