"""The decision rules of `TolerancePolicy`, each against the expression it
replaced at its sites (kept in `oracles.py`), on either side of its cut."""

import numpy as np
import pytest

from kreinrel.tolerances import DEFAULT_TOL, TolerancePolicy
from oracles import (angle_equal_by_cut, apart_by_cut, full_rank_by_last,
                     gamma0_regular_by_all, map_rank_by_rtol, regular_by_last,
                     span_rank_by_cut)

LOOSE = TolerancePolicy(1e-3, 1e-6, 1e-4)
POLICIES = pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE], ids=["default", "loose"])
SIDES = (1 - 1e-3, 1 + 1e-3)


def _at_cut(top: float, cut: float) -> list[np.ndarray]:
    """Descending values with the last one just under, then just over, the cut."""
    return [np.array([top, 0.5 * top + 0.5 * cut, side * cut]) for side in SIDES]


def _span_cases(tol):
    # the relative term decides at top = 1e3, the absolute floor at top = 1e-4
    return [s for top in (1e3, 1.0, 1e-4) for s in _at_cut(top, tol.rank_cut(top))]


def _map_cases(tol):
    return [s for top in (1e3, 1.0, 1e-4) for s in _at_cut(top, tol.rank_rel * top)]


@POLICIES
def test_span_rule_at_its_cut(tol):
    for s in _span_cases(tol):
        got = tol.span_rank(s)
        assert type(got) is int and got == span_rank_by_cut(s, tol)
        assert (got == s.size) == full_rank_by_last(s, tol) == regular_by_last(s, tol)
    assert [tol.span_rank(s) for s in _span_cases(tol)] == [2, 3] * 3


@POLICIES
def test_map_rule_at_its_cut(tol):
    for s in _map_cases(tol):
        got = tol.map_rank(s)
        assert type(got) is int and got == map_rank_by_rtol(s, tol)
        assert (got == s.size) == gamma0_regular_by_all(s, tol)
    assert [tol.map_rank(s) for s in _map_cases(tol)] == [2, 3] * 3


@POLICIES
def test_map_rule_on_a_matrix_is_matrix_rank(tol):
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    for s in _map_cases(tol):
        m = q @ np.diag(s) @ q.conj().T
        assert tol.map_rank_of(m) == np.linalg.matrix_rank(m, rtol=tol.rank_rel)
        assert tol.map_rank_of(m) == tol.map_rank(np.linalg.svd(m, compute_uv=False))


@POLICIES
def test_intersection_rule_at_its_cut(tol):
    cut = tol.rank_cut(1.0)
    for side, want in zip(SIDES, (1, 2)):
        sines = np.array([0.9, side * cut])
        got = tol.apart(sines)
        assert type(got) is int and got == apart_by_cut(sines, tol) == want


@POLICIES
def test_angle_rule_at_its_cut(tol):
    for side, want in zip(SIDES, (True, False)):
        theta = side * tol.angle_tol
        assert tol.angle_equal(theta) == angle_equal_by_cut(theta, tol) == want
        assert tol.angle_differs(theta) == (not want)
    # a NaN angle is neither equal nor apart
    assert not tol.angle_equal(np.nan) and not tol.angle_differs(np.nan)


@POLICIES
def test_a_stack_decides_each_item_as_alone(tol):
    span_stack, map_stack = np.stack(_span_cases(tol)), np.stack(_map_cases(tol))
    sines = np.array([[0.5, s * tol.rank_cut(1.0)] for s in SIDES])
    for got, stack, want in ((tol.span_rank(span_stack), span_stack, span_rank_by_cut),
                             (tol.map_rank(map_stack), map_stack, map_rank_by_rtol),
                             (tol.apart(sines), sines, apart_by_cut)):
        assert got.shape == (len(stack),)
        assert got.tolist() == [want(s, tol) for s in stack]
        assert len(set(got.tolist())) == 2
    assert ((tol.map_rank(map_stack) == 3) == gamma0_regular_by_all(map_stack, tol)).all()


@POLICIES
def test_an_empty_input_has_rank_zero_and_is_full(tol):
    # the Gamma0 block of a boundary-dim-0 triple: regular, vacuously
    s = np.linalg.svd(np.zeros((0, 0), dtype=np.complex128), compute_uv=False)
    for rule, oracle in ((tol.span_rank, span_rank_by_cut), (tol.map_rank, map_rank_by_rtol),
                         (tol.apart, apart_by_cut)):
        assert rule(s) == oracle(s, tol) == 0
    assert regular_by_last(s, tol) and gamma0_regular_by_all(s, tol)
    stack = np.zeros((3, 0))
    assert tol.span_rank(stack).tolist() == tol.map_rank(stack).tolist() == [0, 0, 0]
    assert gamma0_regular_by_all(stack, tol).all()


def test_a_small_map_is_full_rank_by_the_map_rule_and_null_by_the_span_rule():
    # the map rule is scale-free; the span rule keeps the absolute floor
    tau = 1e-7 * np.eye(3)
    s = np.linalg.svd(tau, compute_uv=False)
    assert LOOSE.map_rank_of(tau) == LOOSE.map_rank(s) == map_rank_by_rtol(s, LOOSE) == 3
    assert LOOSE.span_rank(s) == span_rank_by_cut(s, LOOSE) == 0
