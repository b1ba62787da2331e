import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stfosls.driver as driver_mod
from stfosls.driver import StopCriteria, run
from stfosls.marking import MarkingConfig, MarkStrategy
from stfosls.mesh import (
    FacetTag,
    bisect,
    is_conforming,
    uniform_initial_mesh,
    write_mesh,
)
from stfosls.oracles import bisect_reference, element_measure
from helpers import boundary_tags_consistent, element_areas, element_patch, initial_facets, read_mesh_dump, sorted_angles
from stfosls.problem import make_problem
from stfosls.system import parabolic_system


def test_single_cell_mesh():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    assert mesh.n_points == 4
    assert mesh.n_elements == 2
    assert is_conforming(mesh)


def test_two_by_two_facet_tags():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    assert mesh.n_points == 9
    assert mesh.n_elements == 8
    counts = {tag: int((mesh.edge_tags == tag).sum()) for tag in FacetTag}
    assert counts[FacetTag.INITIAL] == 2
    assert counts[FacetTag.FINAL] == 2
    assert counts[FacetTag.LATERAL_DIRICHLET] == 4
    assert boundary_tags_consistent(mesh)


def test_non_square_grid_layout():
    """nt=3, nx=5: points row by row in t, each cell split along its
    diagonal (p00, p11), the shared refinement edge of its two halves, and
    every side of the rectangle tagged once per grid edge."""
    nt, nx = 3, 5
    mesh = uniform_initial_mesh(1.5, (-1.0, 1.5), nt, nx)
    t, x = np.meshgrid(np.linspace(0.0, 1.5, nt + 1), np.linspace(-1.0, 1.5, nx + 1), indexing="ij")
    assert np.array_equal(mesh.points, np.column_stack([t.ravel(), x.ravel()]))
    assert mesh.elements.dtype == mesh.edge_tags.dtype == np.int64
    assert mesh.elements[:4].tolist() == [[0, 7, 1], [7, 0, 6], [1, 8, 2], [8, 1, 7]]
    assert mesh.elements[-2:].tolist() == [[16, 23, 17], [23, 16, 22]]  # cell (2, 4)
    lower, upper = mesh.elements[0::2], mesh.elements[1::2]
    assert np.array_equal(lower[:, :2], upper[:, 1::-1])  # one diagonal per cell
    diagonal = mesh.points[lower[:, 1]] - mesh.points[lower[:, 0]]
    assert np.allclose(diagonal, [1.5 / nt, 2.5 / nx])
    assert np.all(element_areas(mesh) > 0)
    counts = {tag: int((mesh.edge_tags == tag).sum()) for tag in FacetTag}
    assert counts == {FacetTag.INTERIOR: 6 * nt * nx - 2 * (nt + nx), FacetTag.LATERAL_DIRICHLET: 2 * nt,
                      FacetTag.INITIAL: nx, FacetTag.FINAL: nx}
    assert np.all(mesh.edge_tags[:, 0] == FacetTag.INTERIOR)
    assert boundary_tags_consistent(mesh) and is_conforming(mesh)


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        uniform_initial_mesh(0.0, (0.0, 1.0), 1, 1)
    with pytest.raises(ValueError):
        uniform_initial_mesh(1.0, (1.0, 0.0), 1, 1)
    with pytest.raises(ValueError):
        uniform_initial_mesh(1.0, (0.0, 1.0), 0, 1)


def test_bisect_one_of_two_gives_four():
    # the shared diagonal is the refinement edge of both triangles, so
    # marking one forces its neighbor into the closure
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    refined = bisect(mesh, [0])
    assert refined.n_elements == 4
    assert refined.n_points == 5
    assert is_conforming(refined)
    assert boundary_tags_consistent(refined)


def test_bisect_empty_marks_is_identity():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    out = bisect(mesh, [])
    assert np.array_equal(out.points, mesh.points)
    assert np.array_equal(out.elements, mesh.elements)
    assert np.array_equal(out.generation, mesh.generation)
    assert np.array_equal(out.edge_tags, mesh.edge_tags)


def test_bisect_all_on_compatible_mesh_gives_two_children_each():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    refined = bisect(mesh, np.arange(mesh.n_elements))
    assert refined.n_elements == 2 * mesh.n_elements
    assert np.all(refined.generation == 1)
    assert is_conforming(refined)


def test_bisect_out_of_range_mark_rejected():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    with pytest.raises(IndexError):
        bisect(mesh, [5])


def _assert_same_mesh(a, b):
    """Byte and dtype equality of every array of two meshes."""
    for name in ("points", "elements", "generation", "edge_tags", "refined_from"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def test_bisect_duplicate_unsorted_marks_same_as_unique():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 3)
    _assert_same_mesh(bisect(mesh, [7, 2, 7, 0, 2, 11]), bisect(mesh, [0, 2, 7, 11]))


def test_bisect_negative_mark_rejected():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    with pytest.raises(IndexError):
        bisect(mesh, [0, -1])


def test_bisect_rejects_non_integer_marks():
    """A boolean mask or a float index is not cast to element indices; an
    empty list, whose dtype is float, still marks nothing."""
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 4, 4)
    mask = np.zeros(mesh.n_elements, dtype=bool)
    mask[20] = True
    for marks in (mask, [20.9], np.array([20.0])):
        with pytest.raises(TypeError):
            bisect(mesh, marks)
    _assert_same_mesh(bisect(mesh, []), bisect(mesh, np.empty(0, dtype=np.int64)))
    _assert_same_mesh(bisect(mesh, np.array([20], dtype=np.int32)), bisect(mesh, [20]))


def test_bisect_matches_reference_on_graded_run(monkeypatch):
    """Every bisect call of a Doerfler run on incompatible data (closure
    across graded levels) returns the reference's arrays."""
    calls = []

    def recording(mesh, marks):
        out = bisect(mesh, marks)
        calls.append((mesh, marks, out))
        return out

    monkeypatch.setattr(driver_mod, "bisect", recording)
    problem, _ = make_problem("incompatible")
    log = run(parabolic_system(problem), uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2), 1,
              StopCriteria(max_dofs=1000), MarkingConfig(MarkStrategy.DOERFLER, 0.5))
    assert log.records[-1].dofs >= 1000 and len(calls) >= 10
    for mesh, marks, out in calls:
        _assert_same_mesh(out, bisect_reference(mesh, marks))


def test_bisect_matches_reference_on_uniform_sweeps():
    mesh = uniform_initial_mesh(1.0, (0.0, 2.0), 24, 32)
    for _ in range(2):
        out = bisect(mesh, np.arange(mesh.n_elements))
        _assert_same_mesh(out, bisect_reference(mesh, np.arange(mesh.n_elements)))
        mesh = out
    assert mesh.n_elements == 4 * 1536


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_bisect_random_marks_property(nt, nx, data):
    """Random mark sets over a few levels: the reference's arrays, a
    conforming mesh, consistent tags and positive areas."""
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), nt, nx)
    for _ in range(data.draw(st.integers(1, 4))):
        marks = data.draw(st.lists(st.integers(0, mesh.n_elements - 1), max_size=12))
        out = bisect(mesh, marks)
        _assert_same_mesh(out, bisect_reference(mesh, marks))
        assert is_conforming(out) and boundary_tags_consistent(out)
        assert np.all(element_areas(out) > 0)
        mesh = out


def test_element_measure_reference_values():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    # both halves of the unit square
    assert element_measure(mesh, 0) == pytest.approx(0.5, abs=0.0)
    assert element_measure(mesh, 1) == pytest.approx(0.5, abs=0.0)
    for n in (1, 2, 3):
        m = uniform_initial_mesh(1.0, (0.0, 1.0), n, n)
        assert element_areas(m).sum() == pytest.approx(1.0, rel=1e-14)


def test_child_measures_halve():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 3)
    refined = bisect(mesh, [0, 4])
    parent_area = element_areas(mesh)
    child_area = element_areas(refined)
    for child in range(refined.n_elements):
        parent = refined.refined_from[child]
        depth = refined.generation[child] - mesh.generation[parent]
        assert child_area[child] == pytest.approx(parent_area[parent] / 2.0**depth, rel=1e-12)


def test_element_patch():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    assert set(element_patch(mesh, 0)) == {0, 1}
    assert set(element_patch(mesh, 1)) == {0, 1}

    big = uniform_initial_mesh(1.0, (0.0, 1.0), 4, 4)
    for k in range(big.n_elements):
        expected = {
            e
            for e in range(big.n_elements)
            if set(big.elements[e]) & set(big.elements[k])
        }
        assert set(element_patch(big, k)) == expected


def test_element_patch_single_element():
    from dataclasses import replace

    base = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    single = replace(
        base,
        points=base.points[:3],
        elements=np.array([[0, 1, 2]]),
        generation=np.zeros(1, dtype=np.int64),
        edge_tags=np.zeros((1, 3), dtype=np.int64),
        refined_from=np.zeros(1, dtype=np.int64),
    )
    assert list(element_patch(single, 0)) == [0]


def test_initial_facets():
    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    touching = [k for k in range(mesh.n_elements) if initial_facets(mesh, k)]
    assert len(touching) == 2
    for k in touching:
        (a, b), = initial_facets(mesh, k)
        assert mesh.points[a, 0] == 0.0 and mesh.points[b, 0] == 0.0
    # elements away from t=0, and elements touching t=0 only at a vertex
    for k in range(mesh.n_elements):
        if k not in touching:
            assert initial_facets(mesh, k) == []


def test_hanging_node_detected():
    from dataclasses import replace

    mesh = uniform_initial_mesh(1.0, (0.0, 1.0), 1, 1)
    # split element 0 by hand without touching its neighbor
    mid = 0.5 * (mesh.points[mesh.elements[0, 0]] + mesh.points[mesh.elements[0, 1]])
    points = np.vstack([mesh.points, mid])
    v0, v1, v2 = mesh.elements[0]
    elements = np.array([[v2, v0, 4], [v1, v2, 4], mesh.elements[1]])
    broken = replace(
        mesh,
        points=points,
        elements=elements,
        generation=np.array([1, 1, 0]),
        edge_tags=np.zeros((3, 3), dtype=np.int64),
        refined_from=np.arange(3),
    )
    assert not is_conforming(broken)


def _rows(a):
    """One opaque item per row, so that np.isin compares rows bit for bit."""
    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def test_random_refinement_invariants():
    """100 randomized mark sets: conformity, marked subset bisected, one new
    vertex per bisected edge at the parent midpoint, bounded angle classes."""
    rng = np.random.default_rng(7)
    initial = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    mesh = initial
    ancestor = np.arange(mesh.n_elements)
    classes = np.empty((0, 4))  # distinct (ancestor, sorted angles) rows

    for trial in range(100):
        marks = rng.choice(mesh.n_elements, size=rng.integers(1, max(2, mesh.n_elements // 4)),
                           replace=False)
        refined = bisect(mesh, marks)
        assert is_conforming(refined)
        assert boundary_tags_consistent(refined)
        assert np.all(element_areas(refined) > 0)

        # every marked element was replaced by at least two descendants
        children = np.bincount(refined.refined_from, minlength=mesh.n_elements)
        assert np.all(children[marks] >= 2)
        descendant = np.isin(refined.refined_from, marks)
        parents = refined.refined_from[descendant]
        assert np.all(refined.generation[descendant] > mesh.generation[parents])

        # every new vertex is the bit-exact midpoint of an edge of the
        # previous mesh (bisection only ever splits existing edges)
        tri = mesh.elements
        midpoints = 0.5 * (mesh.points[tri] + mesh.points[np.roll(tri, -1, axis=1)])
        new = refined.points[mesh.n_points:]
        assert np.all(np.isin(_rows(new), _rows(midpoints.reshape(-1, 2))))

        ancestor = ancestor[refined.refined_from]
        angles = np.round(sorted_angles(refined), 9)
        classes = np.unique(np.vstack([classes, np.column_stack([ancestor, angles])]), axis=0)
        mesh = refined
        if mesh.n_elements > 10000:
            mesh = initial
            ancestor = np.arange(mesh.n_elements)

    assert np.bincount(classes[:, 0].astype(int)).max() <= 8


# The documented dump of bisect(uniform_initial_mesh(1.0, (0.0, 2.0), 2, 3), [1, 5]):
# header, counts, ``t x`` per point in repr form, ``v0 v1 v2 generation`` per
# element and ``elem edge tag`` per tagged facet, each block in insertion order.
_BISECTED_DUMP = """\
spacetime-mesh v1
14 16
0.0 0.0
0.0 0.6666666666666666
0.0 1.3333333333333333
0.0 2.0
0.5 0.0
0.5 0.6666666666666666
0.5 1.3333333333333333
0.5 2.0
1.0 0.0
1.0 0.6666666666666666
1.0 1.3333333333333333
1.0 2.0
0.25 0.3333333333333333
0.25 1.6666666666666665
1 0 12 1
5 1 12 1
4 5 12 1
0 4 12 1
1 6 2 0
6 1 5 0
3 2 13 1
7 3 13 1
6 7 13 1
2 6 13 1
4 9 5 0
9 4 8 0
5 10 6 0
10 5 9 0
6 11 7 0
11 6 10 0
0 0 initial
3 0 lateral
4 2 initial
6 0 initial
7 0 lateral
11 1 lateral
11 2 final
13 2 final
14 1 lateral
15 2 final
"""


def test_mesh_dump_roundtrip(tmp_path):
    """No reader in the package checks the documented format, so its exact
    text is pinned here; the tests' own parser reads it back."""
    mesh = bisect(uniform_initial_mesh(1.0, (0.0, 2.0), 2, 3), [1, 5])
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    assert path.read_text() == _BISECTED_DUMP
    back = read_mesh_dump(path)
    assert np.array_equal(back.points, mesh.points)
    assert np.array_equal(back.elements, mesh.elements)
    assert np.array_equal(back.generation, mesh.generation)
    assert np.array_equal(back.edge_tags, mesh.edge_tags)
