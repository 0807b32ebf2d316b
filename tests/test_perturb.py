"""Eps-series: expansion, truncated arithmetic, infinitesimals and the
recursion operator they are checked against."""

import math
import random
from fractions import Fraction

import pytest

from approxsym import expr as ex
from approxsym.errors import ApproxSymError, OrderMismatch, SingularAtEpsZero
from approxsym.jet import JetSpace
from approxsym.perturb import (EpsSeries, build_infinitesimals, expand_series,
                               series_add, series_mul, series_shift,
                               series_u_partial, validate_triangular)
from test_expr import ref_derivation

SP = JetSpace(("t",), ("u",), order=1, max_derivative=2)
L = SP.language(functions={"F": 1})


def zeq(a, b):
    return ex.is_zero(ex.sub(a, b if isinstance(b, ex.Expr) else L.parse(b))) is True


def test_oscillator_lagrangian_expansion():
    s = expand_series(L.parse("1/2*(du#t^2 - u^2) - eps*Int(F,u)"), SP)
    assert zeq(s[0], "1/2*(du0#t^2 - u0^2)")
    assert zeq(s[1], "du0#t*du1#t - u0*u1 - Int(F,u0)")


def test_arbitrary_function_expansion():
    s = expand_series(L.parse("F(u)"), SP)
    assert zeq(s[0], "F(u0)")
    assert zeq(s[1], "F'(u0)*u1")


def test_eps_free_expression_is_constant_series():
    s = expand_series(L.parse("u0^2"), SP)
    assert s[0] == L.parse("u0^2") and s[1] == ex.ZERO


def test_coupled_lagrangian_expansion_matches_display():
    sp = JetSpace(("t",), ("u", "v"), order=1)
    lang = sp.language(functions={"F": 1}, constants={"alpha"})
    s = expand_series(lang.parse("v*du#t^2 + u*du#t*dv#t - alpha*v/u^2 + eps*F(v)/u^2"), sp)
    l1 = lang.parse(
        "2*v0*du0#t*du1#t + v1*du0#t^2 + u0*du0#t*dv1#t + u0*du1#t*dv0#t"
        " + u1*du0#t*dv0#t - alpha*(v1/u0^2 - 2*v0*u1/u0^3) + F(v0)/u0^2")
    assert ex.is_zero(ex.sub(s[1], l1)) is True


def test_inverse_power_expansion():
    # Taylor of 1/u^3 around u_(0): the kappa/u^3 branch needs this
    s = expand_series(L.parse("eps/u^3"), SP)
    assert s[0] == ex.ZERO
    assert zeq(s[1], "u0^(-3)")
    s2 = expand_series(L.parse("1/u"), SP)
    assert zeq(s2[0], "u0^(-1)")
    assert zeq(s2[1], "-u1/u0^2")


def test_singular_at_eps_zero():
    with pytest.raises(SingularAtEpsZero):
        expand_series(L.parse("1/(eps*u)"), SP)


def test_series_arithmetic_examples():
    a = EpsSeries((ex.sym("a"), ex.sym("b")))
    b = EpsSeries((ex.sym("c"), ex.sym("d")))
    prod = series_mul(a, b)
    assert prod[0] == L.parse("a*c") and prod[1] == L.parse("a*d + b*c")
    assert series_shift(a).coeffs == (ex.ZERO, ex.sym("a"))
    s = series_add(a, EpsSeries((ex.neg(ex.sym("a")), ex.neg(ex.sym("b")))))
    assert s.coeffs == (ex.ZERO, ex.ZERO)


def test_series_partial_by_a_variable_or_an_order_0_slot():
    s = EpsSeries((L.parse("t^2*u0*du0#t"), L.parse("t*u1 + sin(t)*u0")))
    assert series_u_partial(s, ex.sym("t")).coeffs == (
        L.parse("2*t*u0*du0#t"), L.parse("u1 + cos(t)*u0"))
    assert series_u_partial(s, ex.jet("u", 0, ("t",))).coeffs == (
        L.parse("t^2*u0"), ex.ZERO)
    with pytest.raises(ValueError, match="order-0"):
        series_u_partial(s, ex.jet("u", 1))


def test_order_mismatch():
    with pytest.raises(OrderMismatch):
        series_mul(EpsSeries((ex.ONE,)), EpsSeries((ex.ONE, ex.ZERO)))


def test_series_coefficients_reject_eps():
    with pytest.raises(ValueError):
        EpsSeries((ex.EPS, ex.ZERO))


# ---------------------------------------------------------------------------
# the recursion operator of the paper's consistent approach, kept as the
# reference that build_infinitesimals is checked against


class MissingFamilyIndex(ApproxSymError):
    """Recursion operator applied to a named function without a family index."""


def ref_recursion_R(e, space):
    """Leibniz-rule recursion operator on jets and family functions.

    R[u_(k)j] = (k+1) u_(k+1)j; on a family function (or any of its
    u_(0)-partials) it introduces the next family member plus the chain
    term sum_i d/du_(0)i (...) u_(1)i; independent variables and declared
    constants are R-constants.
    """
    def atom(a):
        if isinstance(a, (ex.Rat, ex.Sym)):
            return ex.ZERO
        if isinstance(a, ex.Eps):
            raise ValueError("recursion operator is defined on eps-free expressions")
        if isinstance(a, ex.Jet):
            if a.order is None:
                raise ValueError("recursion operator needs expanded jet coordinates")
            k = a.order
            if k + 1 > space.order:
                raise ValueError(f"R[{a!r}] would exceed the truncation order {space.order}")
            return ex.mul(ex.rat(k + 1), ex.jet(a.base, k + 1, a.deriv))
        if isinstance(a, ex.AFun):
            if a.family is None:
                raise MissingFamilyIndex(f"function {a.name!r} carries no family index")
            bumped = ex.AFun(a.name, a.args, a.deriv, a.family + 1)
            chain = []
            for base in space.dependent:
                d = ex.diff(a, ex.jet(base, 0))
                if d != ex.ZERO:
                    chain.append(ex.mul(d, ex.jet(base, 1)))
            return ex.add(bumped, *chain)
        if isinstance(a, ex.AInt):
            raise MissingFamilyIndex("antiderivative nodes have no family structure")
        raise TypeError(f"recursion operator undefined on {type(a).__name__}")
    return ref_derivation(e, atom)


def test_recursion_operator_on_jets():
    assert ref_recursion_R(L.parse("u0"), SP) == L.parse("u1")
    sp2 = JetSpace(("t",), ("u",), order=2)
    assert ref_recursion_R(L.parse("u1"), sp2) == sp2.language().parse("2*u2")
    assert ref_recursion_R(L.parse("u0^2"), SP) == L.parse("2*u0*u1")


def test_recursion_operator_on_family_functions():
    xi0 = ex.afun("xi", (ex.sym("t"), ex.jet("u", 0)), family=0)
    got = ref_recursion_R(xi0, SP)
    xi1 = ex.afun("xi", (ex.sym("t"), ex.jet("u", 0)), family=1)
    dxi0 = ex.AFun("xi", xi0.args, (0, 1), 0)
    assert ex.is_zero(ex.sub(got, ex.add(xi1, ex.mul(dxi0, ex.jet("u", 1))))) is True


def test_recursion_requires_family_index():
    with pytest.raises(MissingFamilyIndex):
        ref_recursion_R(L.parse("F(u0)"), SP)


def test_recursion_leibniz_randomized():
    rng = random.Random(31)
    atoms = [ex.sym("t"), ex.jet("u", 0), ex.fun("sin", ex.sym("t"))]
    sp2 = JetSpace(("t",), ("u",), order=2)

    def rand(depth=2):
        if depth == 0:
            return rng.choice(atoms)
        k = rng.randrange(3)
        if k == 0:
            return ex.add(rand(depth - 1), rand(depth - 1))
        if k == 1:
            return ex.mul(rand(depth - 1), rand(depth - 1))
        return ex.pow_(rand(depth - 1), rng.randint(1, 2))

    for _ in range(120):
        a, b = rand(), rand()
        lhs = ref_recursion_R(ex.mul(a, b), sp2)
        rhs = ex.add(ex.mul(ref_recursion_R(a, sp2), b),
                     ex.mul(a, ref_recursion_R(b, sp2)))
        assert ex.is_zero(ex.sub(lhs, rhs)) is True


def test_build_infinitesimals_examples():
    xi1 = ex.afun("xi", (ex.sym("t"), ex.jet("u", 0)), family=1)
    s = build_infinitesimals([L.parse("u0^2"), xi1], SP)
    assert s[0] == L.parse("u0^2")
    assert ex.is_zero(ex.sub(s[1], ex.add(xi1, L.parse("2*u0*u1")))) is True

    s2 = build_infinitesimals([ex.ONE, ex.ZERO], SP)
    assert s2.coeffs == (ex.ONE, ex.ZERO)

    s3 = build_infinitesimals([ex.jet("u", 0), ex.ZERO], SP)
    assert s3.coeffs == (ex.jet("u", 0), ex.jet("u", 1))


@pytest.mark.parametrize("p, dependent", [
    (1, ("u",)), (2, ("u",)), (3, ("u",)), (2, ("u", "v"))])
def test_recursion_chain_equals_build_infinitesimals(p, dependent):
    # tilde_0 = xi_0, tilde_(k+1) = R[tilde_k]/(k+1) gives the expansion of
    # sum_k eps^k xi_k/k! with family functions xi_k(t, u_(0))
    sp = JetSpace(("t",), dependent, order=p)
    args = (ex.sym("t"),) + tuple(ex.jet(b, 0) for b in dependent)
    family = [ex.afun("xi", args, family=k) for k in range(p + 1)]
    chain = [family[0]]
    for k in range(p):
        chain.append(ex.mul(ex.rat(Fraction(1, k + 1)), ref_recursion_R(chain[-1], sp)))
    seeds = [ex.mul(ex.rat(Fraction(1, math.factorial(k))), f) for k, f in enumerate(family)]
    built = build_infinitesimals(seeds, sp)
    for a, b in zip(chain, built.coeffs, strict=True):
        assert ex.is_zero(ex.sub(a, b)) is True


def test_consistency_with_expansion():
    # expanding xi(t, u; eps) directly equals building from its seed functions
    rng = random.Random(37)
    sp2 = JetSpace(("t",), ("u",), order=2)
    lang = sp2.language()
    monos = ["1", "t", "u", "u^2", "t*u", "u^3"]
    for _ in range(40):
        seeds_text = [" + ".join(f"{rng.randint(-3, 3)}*{m}"
                                 for m in rng.sample(monos, 3)) for _ in range(3)]
        full = " + ".join(f"eps^{k}*({s})" for k, s in enumerate(seeds_text))
        direct = expand_series(lang.parse(full), sp2)
        reopened = {ex.jet("u", None): ex.jet("u", 0)}
        seeds = [ex.subst(lang.parse(s), reopened) for s in seeds_text]
        built = build_infinitesimals(seeds, sp2)
        for a, b in zip(direct.coeffs, built.coeffs):
            assert ex.is_zero(ex.sub(a, b)) is True


def test_dependency_validation():
    with pytest.raises(ValueError):
        validate_triangular(EpsSeries((ex.jet("u", 1), ex.ZERO)))
    with pytest.raises(ValueError):
        build_infinitesimals([ex.jet("u", 1), ex.ZERO], SP)


def test_triangular_derivative_bound():
    s = EpsSeries((L.parse("du0#t"), L.parse("ddu1#t#t")))
    validate_triangular(s)
    with pytest.raises(ValueError, match="coefficient 1 references ddu1#t#t outside "
                                         r"\(x, u_\(0\)..u_\(1\)\) of derivative order at most 1"):
        validate_triangular(s, 1)
    with pytest.raises(ValueError, match="coefficient 0 references du0#t"):
        validate_triangular(s, 0)
