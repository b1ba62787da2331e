"""Mesh and interpolation helpers that only the tests use."""

import numpy as np

from stfosls.mesh import FacetTag


def element_patch(mesh, k: int) -> np.ndarray:
    """Indices of all elements sharing at least one vertex with element ``k``."""
    verts = set(int(v) for v in mesh.elements[k])
    hit = np.isin(mesh.elements, list(verts)).any(axis=1)
    return np.flatnonzero(hit)


def initial_facets(mesh, k: int):
    """Vertex pairs of the edges of element ``k`` tagged Initial."""
    tri = mesh.elements[k]
    out = []
    for loc in range(3):
        if mesh.edge_tags[k, loc] == FacetTag.INITIAL:
            out.append((int(tri[loc]), int(tri[(loc + 1) % 3])))
    return out


def sorted_angles(mesh) -> np.ndarray:
    """Interior angles per element, each row sorted ascending (radians)."""
    coords = mesh.element_coords()
    angles = np.empty((mesh.n_elements, 3))
    for loc in range(3):
        u = coords[:, (loc + 1) % 3] - coords[:, loc]
        v = coords[:, (loc + 2) % 3] - coords[:, loc]
        cosv = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles[:, loc] = np.arccos(np.clip(cosv, -1.0, 1.0))
    angles.sort(axis=1)
    return angles


def interpolate_nodes(f, dofmap) -> np.ndarray:
    """Nodal interpolation of a callable f(t, x) on the scalar Lagrange nodes."""
    t = dofmap.node_coords[:, 0]
    x = dofmap.node_coords[:, 1]
    return np.asarray([float(f(float(ti), float(xi))) for ti, xi in zip(t, x)])
