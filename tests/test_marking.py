import numpy as np
import pytest

from stfosls.marking import (
    MarkingConfig,
    MarkStrategy,
    mark,
    mark_doerfler,
    mark_maximum,
    verify_marking_property,
)


def test_doerfler_theta_one_marks_all_positive():
    eta = np.array([3.0, 0.0, 2.0, 1.0, 0.0])
    marks = mark_doerfler(eta, 1.0)
    assert set(marks) == {0, 2, 3}


def test_doerfler_hand_example():
    # squared prefix sums 9, 13, 14; theta eta^2 = 7 -> only the largest
    marks = mark_doerfler(np.array([3.0, 2.0, 1.0]), 0.5)
    assert list(marks) == [0]


def test_doerfler_equal_indicators_tie_break():
    marks = mark_doerfler(np.full(4, 2.5), 0.5)
    assert list(marks) == [0, 1]


def test_doerfler_rejects_theta_zero():
    with pytest.raises(ValueError):
        mark_doerfler(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        MarkingConfig(MarkStrategy.DOERFLER, 0.0)


def test_maximum_theta_edge_cases():
    eta = np.array([3.0, 2.0, 1.0])
    assert list(mark_maximum(eta, 0.0)) == [0]
    assert list(mark_maximum(eta, 1.0)) == [0, 1, 2]
    assert list(mark_maximum(eta, 0.5)) == [0, 1]  # threshold 1.5
    with pytest.raises(ValueError):
        mark_maximum(eta, 1.5)


def test_all_zero_indicators_give_empty_set():
    zeros = np.zeros(6)
    assert mark_doerfler(zeros, 0.7).size == 0
    assert mark_maximum(zeros, 0.7).size == 0
    assert verify_marking_property(zeros, np.empty(0, dtype=np.int64))


def test_empty_mesh():
    empty = np.empty(0)
    assert mark_doerfler(empty, 0.5).size == 0
    assert mark_maximum(empty, 0.5).size == 0


def test_marking_property_counterexample():
    eta = np.array([3.0, 2.0, 1.0])
    assert not verify_marking_property(eta, np.array([2]))  # marked only the min
    assert verify_marking_property(eta, np.array([0]))
    assert not verify_marking_property(eta, np.empty(0, dtype=np.int64))


def test_marking_property_checks_marks_like_bisect():
    """Marks outside [0, n) raise IndexError and non-integer marks TypeError,
    as in ``bisect``; an empty list is still an empty mark set."""
    eta = np.array([3.0, 2.0, 1.0])
    for marks in ([-1], [3], [0, 5]):
        with pytest.raises(IndexError):
            verify_marking_property(eta, marks)
    for marks in ([0.0], np.array([True, False, False])):
        with pytest.raises(TypeError):
            verify_marking_property(eta, marks)
    assert not verify_marking_property(eta, [])


def _random_cases():
    """100 random (indicators, theta) pairs, the same on every call."""
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        eta = rng.random(n) * rng.choice([1.0, 10.0])
        yield eta, float(rng.uniform(0.05, 1.0))


def test_random_property_and_minimality():
    """Both strategies satisfy the marking property; the Doerfler set is
    minimal: dropping its smallest member breaks the bulk inequality."""
    for eta, theta in _random_cases():
        md = mark_doerfler(eta, theta)
        mm = mark_maximum(eta, theta)
        assert verify_marking_property(eta, md)
        assert verify_marking_property(eta, mm)
        assert np.sum(eta[md] ** 2) >= theta * np.sum(eta**2) * (1.0 - 1e-13)
        if md.size > 1:
            drop = md[np.argmin(eta[md])]
            kept = np.array([k for k in md if k != drop])
            assert np.sum(eta[kept] ** 2) < theta * np.sum(eta**2)


def test_marks_dominate_every_unmarked_indicator():
    """Both strategies mark sets whose smallest member is at least every
    unmarked indicator, a stronger property than the one
    ``verify_marking_property`` checks: it compares against the largest
    marked indicator only."""
    for eta, theta in _random_cases():
        for marks in (mark_doerfler(eta, theta), mark_maximum(eta, theta)):
            unmarked = np.delete(eta, marks)
            assert unmarked.size == 0 or unmarked.max() <= eta[marks].min()
    # The unmarked 2 exceeds the marked 1, yet the weaker property holds.
    assert verify_marking_property(np.array([3.0, 2.0, 1.0]), np.array([0, 2]))


def test_deterministic_outputs():
    rng = np.random.default_rng(5)
    eta = rng.random(30)
    eta[3] = eta[17]  # force a tie
    a = mark_doerfler(eta, 0.4)
    b = mark_doerfler(eta.copy(), 0.4)
    assert np.array_equal(a, b)
    config = MarkingConfig(MarkStrategy.MAXIMUM, 0.4)
    assert np.array_equal(mark(eta, config), mark_maximum(eta, 0.4))
