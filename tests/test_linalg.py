"""Exact linear algebra over Q extended by symbolic constants."""

from fractions import Fraction

import pytest

from approxsym import expr as ex
from approxsym.errors import SymbolicPivotAmbiguity
from approxsym.linalg import in_span, nullspace, rank, solve_dense, sparse_rref


def F(x):
    return Fraction(x)


def test_unique_zero_solution():
    # {c1 + c2 = 0, c1 - c2 = 0} has only the trivial solution
    rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}]
    assert nullspace(rows, 2) == []


def test_nullspace_simple():
    rows = [{0: F(1), 1: F(1), 2: F(1)}]
    basis = nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        total = sum(vec.values())
        assert total == 0


def test_rank_and_span():
    rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
    assert rank(rows, 2) == 1
    assert in_span([{0: F(1), 1: F(2)}], {0: F(3), 1: F(6)}, 2)
    assert not in_span([{0: F(1), 1: F(2)}], {0: F(1), 1: F(0)}, 2)


def test_symbolic_entries():
    d = ex.sym("delta")
    rows = [{0: d, 1: F(-1)}]
    basis = nullspace(rows, 2)
    assert len(basis) == 1
    vec = basis[0]
    # d*x0 = x1: vector (1, delta) up to scaling
    x0, x1 = vec.get(0), vec.get(1)
    prod = ex.expand(ex.sub(ex.mul(d, ex.rat(x0) if isinstance(x0, Fraction) else x0),
                            ex.rat(x1) if isinstance(x1, Fraction) else x1))
    assert ex.is_zero(prod) is True


def test_symbolic_pivot_ambiguity():
    hard = ex.sub(ex.mul(ex.fun("exp", ex.sym("a")), ex.fun("exp", ex.neg(ex.sym("a")))),
                  ex.ONE)
    assert ex.is_zero(hard) is ex.UNKNOWN
    rows = [{0: hard}]
    with pytest.raises(SymbolicPivotAmbiguity):
        sparse_rref(rows, 1)


def test_solve_dense_symbolic():
    a, b = ex.sym("a"), ex.sym("b")
    # the third row is the sum of the first two: redundant rows are tolerated
    sol = solve_dense([[a, ex.ZERO], [ex.ZERO, b], [a, b]], [ex.ONE, ex.ONE, ex.rat(2)])
    assert ex.is_zero(ex.sub(sol[0], ex.div(ex.ONE, a))) is True
    assert ex.is_zero(ex.sub(sol[1], ex.div(ex.ONE, b))) is True
    assert solve_dense([[ex.ONE, ex.ONE], [ex.ONE, ex.ONE]], [ex.ZERO, ex.ZERO]) is None
