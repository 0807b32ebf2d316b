"""Jet space: total derivative and derivative bounds."""

import random

import pytest

from approxsym import expr as ex
from approxsym.errors import DerivativeOverflow
from approxsym.jet import JetSpace, total_derivative

SP = JetSpace(("t",), ("u",), order=1, max_derivative=2)
L = SP.language(functions={"F": 1})


def test_total_derivative_through_jet():
    assert total_derivative(L.parse("u0^2"), "t", SP) == L.parse("2*u0*du0#t")


def test_total_derivative_mixed_explicit_time():
    got = total_derivative(L.parse("sin(t)*u1"), "t", SP)
    assert got == L.parse("cos(t)*u1 + sin(t)*du1#t")


def test_reduces_to_partial_without_jets():
    assert total_derivative(L.parse("t^2 + sin(t)"), "t", SP) == L.parse("2*t + cos(t)")


def test_derivative_overflow_is_loud():
    sp = JetSpace(("t",), ("u",), order=0, max_derivative=1)
    e = ex.jet("u", 0, ("t", "t"))  # transient order r+1 is representable
    with pytest.raises(DerivativeOverflow):
        total_derivative(e, "t", sp)


def _random_expr(rng, space):
    atoms = [ex.sym(v) for v in space.independent]
    for b in space.dependent:
        for k in range(space.order + 1):
            atoms.append(ex.jet(b, k))
            atoms.append(ex.jet(b, k, (space.independent[0],)))
    e = ex.ZERO
    for _ in range(rng.randint(1, 4)):
        term = ex.rat(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 3)):
            term = ex.mul(term, rng.choice(atoms))
        e = ex.add(e, term)
    return e


def test_leibniz_rule_randomized():
    rng = random.Random(23)
    for _ in range(120):
        a, b = _random_expr(rng, SP), _random_expr(rng, SP)
        lhs = total_derivative(ex.mul(a, b), "t", SP)
        rhs = ex.add(ex.mul(total_derivative(a, "t", SP), b),
                     ex.mul(a, total_derivative(b, "t", SP)))
        assert ex.is_zero(ex.sub(lhs, rhs)) is True


def test_total_derivatives_commute_randomized():
    sp = JetSpace(("t", "s"), ("u",), order=1, max_derivative=2)
    rng = random.Random(29)
    for _ in range(120):
        e = _random_expr(rng, sp)
        ts = total_derivative(total_derivative(e, "t", sp), "s", sp)
        st = total_derivative(total_derivative(e, "s", sp), "t", sp)
        assert ex.is_zero(ex.sub(ts, st)) is True


def test_space_validation():
    with pytest.raises(ValueError):
        JetSpace(("t",), ("t",))
    with pytest.raises(ValueError):
        JetSpace(order=-1)
    with pytest.raises(ValueError):
        JetSpace(max_derivative=0)
