"""Expression kernel: canonical form, arithmetic, differentiation, zero test."""

import random
from fractions import Fraction

import pytest

from approxsym import expr as ex
from approxsym.errors import NotPolynomial
from approxsym.lang import Language, to_text

L = Language(independent=["t"], dependent=["u", "v"], functions={"F": 1})


def p(s):
    return L.parse(s)


def test_parse_oscillator_lagrangian_shape():
    e = p("1/2*(du0#t^2 - u0^2)")
    assert to_text(e) == "1/2*(du0#t^2 - u0^2)"
    assert L.parse(to_text(e)) == e


def test_zero_summand_elided():
    assert p("0*x + y") == ex.sym("y")


def test_parser_performs_no_trig_rewriting():
    e = p("sin(t)^2+cos(t)^2")
    assert isinstance(e, ex.Add)
    assert len(e.terms) == 2


def test_unit_factor_and_power_merging():
    assert p("1*x") == ex.sym("x")
    assert p("x*x") == ex.pow_(ex.sym("x"), 2)
    assert p("x^2*x^3") == ex.pow_(ex.sym("x"), 5)
    assert p("x/x") == ex.ONE


def test_rational_folding_is_exact():
    e = p("1/3 + 1/6")
    assert e == ex.rat(Fraction(1, 2))


def test_rational_roots_of_huge_integers_are_exact():
    assert ex.pow_(ex.rat(10 ** 400), Fraction(1, 2)) == ex.rat(10 ** 200)
    assert ex.pow_(ex.rat(Fraction(2 ** 300, 3 ** 600)), Fraction(2, 3)) \
        == ex.rat(Fraction(2 ** 200, 3 ** 400))
    assert isinstance(ex.pow_(ex.rat(10 ** 401), Fraction(1, 2)), ex.Pow)
    assert isinstance(ex.pow_(ex.rat(10 ** 400 + 1), Fraction(1, 3)), ex.Pow)


def test_differentiate_product_rule():
    d = ex.diff(p("u0^2*v0"), ex.jet("u", 0))
    assert d == p("2*u0*v0")


def test_differentiate_antiderivative_returns_function():
    d = ex.diff(p("Int(F,u0)"), ex.jet("u", 0))
    assert d == p("F(u0)")


def test_differentiate_arbitrary_function_chain_rule():
    d = ex.diff(p("F(u0)"), ex.jet("u", 0))
    assert isinstance(d, ex.AFun)
    assert d.deriv == (1,)
    d2 = ex.diff(p("F(u0^2)"), ex.jet("u", 0))
    assert d2 == ex.mul(p("2*u0"), ex.afun("F", (p("u0^2"),), (1,)))


def test_substitute_onto_unperturbed_equation():
    e = p("ddu0#t#t + u0")
    out = ex.subst(e, {ex.jet("u", 0, ("t", "t")): ex.neg(ex.jet("u", 0))})
    assert out == ex.ZERO


def test_substitute_inside_function_argument():
    out = ex.subst(p("F(u0)"), {ex.jet("u", 0): p("u0 + delta")})
    assert out == p("F(u0 + delta)")


def test_substitute_kills_factor():
    out = ex.subst(p("du0#t*u1"), {ex.jet("u", 1): ex.ZERO})
    assert out == ex.ZERO


def test_collect_quadratic():
    got = ex.collect(p("a*du0#t^2 + b*du0#t + c"), [ex.jet("u", 0, ("t",))])
    assert got == {p("du0#t^2"): ex.sym("a"),
                   p("du0#t"): ex.sym("b"),
                   ex.ONE: ex.sym("c")}


def test_collect_zero_is_empty():
    assert ex.collect(ex.ZERO, [ex.jet("u", 0, ("t",))]) == {}


def test_collect_rejects_nonpolynomial():
    with pytest.raises(NotPolynomial):
        ex.collect(p("sin(du0#t)"), [ex.jet("u", 0, ("t",))])
    with pytest.raises(NotPolynomial):
        ex.collect(p("1/du0#t"), [ex.jet("u", 0, ("t",))])


def test_is_zero_pythagorean():
    assert ex.is_zero(p("sin(t)^2 + cos(t)^2 - 1")) is True


def test_is_zero_double_angle():
    assert ex.is_zero(p("sin(2*t) - 2*sin(t)*cos(t)")) is True
    assert ex.is_zero(p("cos(2*t) - cos(t)^2 + sin(t)^2")) is True


def test_is_zero_function_difference():
    assert ex.is_zero(ex.sub(p("F(u0)"), p("F(u0)"))) is True


def test_is_zero_negative_and_unknown_verdicts():
    assert ex.is_zero(p("u0 + 1")) is False
    verdict = ex.is_zero(ex.sub(ex.mul(ex.fun("exp", ex.sym("a")),
                                       ex.fun("exp", ex.neg(ex.sym("a")))), ex.ONE))
    assert verdict is ex.UNKNOWN


def test_is_zero_radical_identities():
    assert ex.is_zero(p("(x^2+y^2)^(1/2)*(x^2+y^2)^(1/2) - x^2 - y^2")) is True
    assert ex.is_zero(
        p("(x^2+y^2)^(1/2) - x^2*(x^2+y^2)^(-1/2) - y^2*(x^2+y^2)^(-1/2)")) is True
    assert ex.is_zero(p("(x^2+y^2)^(1/2) - x - y")) is False


# ---------------------------------------------------------------------------
# randomized invariants


def random_expr(rng, depth=3, atoms=None):
    atoms = atoms or [ex.sym("t"), ex.jet("u", 0), ex.jet("u", 1),
                      ex.fun("sin", ex.sym("t")), ex.fun("cos", ex.sym("t")),
                      ex.rat(rng.randint(-3, 3))]
    if depth == 0:
        return rng.choice(atoms)
    kind = rng.randrange(4)
    if kind == 0:
        return ex.add(random_expr(rng, depth - 1, atoms),
                      random_expr(rng, depth - 1, atoms))
    if kind == 1:
        return ex.mul(random_expr(rng, depth - 1, atoms),
                      random_expr(rng, depth - 1, atoms))
    if kind == 2:
        return ex.pow_(random_expr(rng, depth - 1, atoms), rng.randint(1, 3))
    return ex.mul(ex.rat(Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
                  random_expr(rng, depth - 1, atoms))


def test_canonical_form_idempotence():
    rng = random.Random(7)
    for _ in range(200):
        e = random_expr(rng)
        rebuilt = ex.add(*(e.terms if isinstance(e, ex.Add) else (e,)))
        assert rebuilt == e
        if isinstance(e, ex.Mul):
            assert ex.mul(*e.factors) == e


def test_differentiation_linearity():
    rng = random.Random(11)
    u0 = ex.jet("u", 0)
    for _ in range(120):
        e1, e2 = random_expr(rng), random_expr(rng)
        a, b = ex.rat(rng.randint(-4, 4)), ex.rat(rng.randint(-4, 4))
        lhs = ex.diff(ex.add(ex.mul(a, e1), ex.mul(b, e2)), u0)
        rhs = ex.add(ex.mul(a, ex.diff(e1, u0)), ex.mul(b, ex.diff(e2, u0)))
        assert ex.is_zero(ex.sub(lhs, rhs)) is True


def test_print_parse_round_trip():
    rng = random.Random(13)
    extra = [ex.aint("F", ex.jet("u", 0)), ex.afun("F", (ex.jet("u", 0),), (1,)),
             ex.pow_(p("x^2+y^2"), Fraction(-1, 2))]
    for i in range(200):
        e = random_expr(rng, atoms=None if i % 2 else
                        [ex.sym("t"), ex.jet("u", 0)] + extra)
        assert L.parse(to_text(e)) == e


def test_zero_decision_soundness_on_random_class():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        e = random_expr(rng)
        assert ex.is_zero(ex.sub(e, ex.expand(e))) is True
        if ex.expand(e) == ex.rat(-1):
            continue
        assert ex.is_zero(ex.add(ex.expand(e), ex.ONE)) is not True
        checked += 1


def test_expand_is_idempotent():
    rng = random.Random(19)
    for _ in range(100):
        e = ex.expand(random_expr(rng))
        assert ex.expand(e) == e
