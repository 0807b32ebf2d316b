"""Expression kernel: canonical form, arithmetic, differentiation, zero test."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxsym import expr as ex
from approxsym.errors import DivisionByZero, NotPolynomial
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


def test_zero_base_to_a_negative_power_is_a_typed_error():
    for e in (-1, Fraction(-1, 2), Fraction(-3, 2), -2):
        with pytest.raises(DivisionByZero):
            ex.pow_(ex.ZERO, e)
    with pytest.raises(DivisionByZero):
        p("1/0")
    assert ex.pow_(ex.ZERO, Fraction(1, 2)) == ex.ZERO


def test_sin_squared_is_reduced_again_after_clearing():
    # 2 - cos^2 + 2 sin = (1 + sin)^2 only with sin^2 = 1 - cos^2, and the
    # sin^2 appears only once (1 + sin)^2 has been multiplied in
    e = p("(2 - cos(t)^2 + 2*sin(t))*(1 + sin(t))^(-2) - 1")
    assert ex.is_zero(e) is True
    assert ex._zero_normal_form(e)[2] == p("(1 + sin(t))^2")
    assert ex.is_zero(p("(2 - cos(t)^2 + 2*sin(t))*(1 + sin(t))^(-2) - 2")) is False


# ---------------------------------------------------------------------------
# denominator clearing against the product tree it replaced


def tree_clear(poly):
    """The reference: multiply each term by the denominators as a tree,
    expand it, reduce sin(x)^n (n >= 2) to cos powers, and read the sum back
    with ``_to_poly``."""
    need = {}
    for key in poly:
        for atom, q in key:
            if q < 0 and isinstance(atom, ex.Add):
                need[atom] = max(need.get(atom, Fraction(0)), -q)
    if not need:
        return poly, ex.ONE, True
    mult = [ex.pow_(a, q) for a, q in need.items()]
    terms = [ex.expand(ex.mul(ex.rat(c), *[ex.pow_(a, q) for a, q in key], *mult))
             for key, c in poly.items()]
    out, decidable = ex._to_poly(ex.expand(ex._sin_power_reduce(ex.add(*terms))))
    return out, ex.mul(*mult), decidable


def assert_clears_like_the_tree(e):
    poly, _ = ex._to_poly(e)
    out, multiplier, decidable = ex._clear_denominators(poly)
    ref, ref_multiplier, ref_decidable = tree_clear(poly)
    assert list(out.items()) == list(ref.items())   # same keys in the same order
    assert multiplier == ref_multiplier
    assert decidable is ref_decidable


# small sums to clear; the last holds a root, so roots meet in products
CLEARED_SUMS = ["1 + u0^2", "u0 - v0 + t", "2 + sin(t)*u0", "1 + u0*(1 + t^2)^(1/2)"]


@pytest.mark.parametrize("text", [
    "u0*(1 + u0^2)^(-1) - v0*(u0 - v0 + t)^(-2)",
    "(t + v0^2)*(1 + u0^2)^(-1/2) + u0*(u0 - v0 + t)^(-3/2) - 3",
    "sin(t)*(2 + sin(t)*u0)^(-2) + u0^2*(1 + u0^2)^(-1)*(2 + sin(t)*u0)^(-1)",
    "(2 + sin(t)*u0)^(-3/2)*(1 + u0^2)^(-1/2) - t*v0*(u0 - v0 + t)^(-1)",
    "(1 + t^2)^(1/2)*(1 + u0*(1 + t^2)^(1/2))^(-2) + u0*(1 + t^2)^(-1/2)",
    "x^(1/3)*(1 + u0^2)^(-1) + u0*(1 + u0^(1/3))^(-2)",
])
def test_clearing_matches_the_tree_on_picked_sums(text):
    assert_clears_like_the_tree(p(text))


@st.composite
def cleared_sums(draw):
    """Sums of terms (small polynomial in u0, v0, t) * prod(sum^q)."""
    jets = [ex.jet("u", 0), ex.jet("v", 0), ex.sym("t")]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        numerator = ex.add(*[
            ex.mul(ex.rat(draw(st.integers(-3, 3))),
                   *[ex.pow_(j, draw(st.integers(0, 2))) for j in jets])
            for _ in range(draw(st.integers(1, 3)))])
        powers = [ex.pow_(p(s), draw(st.sampled_from(
            [0, -1, -2, Fraction(-1, 2), Fraction(-3, 2)]))) for s in CLEARED_SUMS]
        if draw(st.booleans()):
            powers.append(p("(1 + t^2)^(1/2)"))
        terms.append(ex.mul(numerator, *powers))
    return ex.add(*terms)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cleared_sums())
def test_clearing_matches_the_tree_on_drawn_sums(e):
    assert_clears_like_the_tree(e)


# ---------------------------------------------------------------------------
# the sparse read of the normal form against the tree pass it replaced


def tree_normal_form(e):
    """The reference: distribute the tree (expand, multiple angles, expand,
    sin powers, expand), read it with ``_to_poly`` and clear it with
    ``_clear_denominators``, which the tests above hold to ``tree_clear``."""
    poly, decidable = ex._to_poly(ex.expand(ex._sin_power_reduce(
        ex.expand(ex._trig_multiple_expand(ex.expand(e))))))
    out, multiplier, cleared = ex._clear_denominators(poly)
    return out, decidable and cleared, multiplier


def assert_reads_like_the_tree(e):
    out, decidable, multiplier = ex._zero_normal_form(e)
    ref, ref_decidable, ref_multiplier = tree_normal_form(e)
    assert list(out.items()) == list(ref.items())   # same keys in the same order
    assert decidable is ref_decidable
    assert multiplier == ref_multiplier


@pytest.mark.parametrize("text", [
    # only mul on the tree cancels the numerator against 1/(1 + u0): t
    "t*(u0*(1 + u0) - u0^2 + 1)*(1 + u0)^(-1)",
    "t*(u0*(1 + u0) - u0^2 + 1)*(1 + u0)^(-1) + (u0 + v0)^2*sin(2*t)",
    "(sin(t) + cos(2*t))^2*(u0 + sin(3*t)) - sin(2*t)^3",
    "(1 + u0)^3*(u0 - v0)^2 - F(u0)*k*(t + sin(t))^2",
    "(x^2 + y^2)^(1/2)*u0 + (1 + sin(t)^2)^(1/2) - (2 - cos(t)^2)^(1/2)",
    "sin(2*t)^(-1)*sin(t) + cos(2*t)^(-1)*(2*cos(t)^2 - 1) + sin(t)^(-2)*sin(t)^3",
    "2^(1/2)*u0*(1 + 2^(1/2)*u0)^2 + 2^(3/2)",
    "u0^(1/3)*(u0^(2/3) + t)^2 + u0^(1/2)*(u0^(1/2) + 1)^2",
    "F(sin(2*t))*(1 + sin(t))^2 - F'(u0)*(u0 + k)^(-2)",
    "sin(t)^(5/2)*sin(t)^(-1/2) + eps*(u0 + eps)^2",
])
def test_normal_form_reads_like_the_tree_on_picked_expressions(text):
    assert_reads_like_the_tree(p(text))


@st.composite
def normal_form_inputs(draw):
    """Sums of products of atoms, small sums, integer powers of sums, sin
    powers and negative or half-integer powers of sums, over t, u0, v0, a
    constant k, F(u0) and sin/cos of 1-3 times t."""
    t = ex.sym("t")
    atoms = [t, ex.jet("u", 0), ex.jet("v", 0), ex.sym("k"), p("F(u0)"),
             ex.rat(2), ex.rat(Fraction(-1, 3))]
    atoms += [ex.fun(f, ex.mul(ex.rat(m), t)) for f in ("sin", "cos") for m in (1, 2, 3)]

    def small_sum():
        s = ex.add(*[ex.mul(draw(st.sampled_from(atoms)), draw(st.sampled_from(atoms)))
                     for _ in range(draw(st.integers(1, 3)))])
        return ex.add(s, ex.ONE) if s == ex.ZERO else s

    def factor():
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return draw(st.sampled_from(atoms))
        if kind == 1:
            return small_sum()
        if kind == 2:
            return ex.pow_(small_sum(), draw(st.integers(2, 3)))
        if kind == 3:
            return ex.pow_(ex.fun("sin", ex.mul(ex.rat(draw(st.integers(1, 2))), t)),
                           draw(st.integers(2, 4)))
        return ex.pow_(small_sum(), draw(st.sampled_from(
            [-1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])))

    return ex.add(*[ex.mul(*[factor() for _ in range(draw(st.integers(1, 3)))])
                    for _ in range(draw(st.integers(1, 3)))])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(normal_form_inputs())
def test_normal_form_reads_like_the_tree_on_drawn_expressions(e):
    assert_reads_like_the_tree(e)


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
