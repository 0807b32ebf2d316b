"""Expression kernel: canonical form, arithmetic, differentiation, zero test."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxsym import expr as ex
from approxsym.errors import DerivativeOverflow, DivisionByZero, NotPolynomial
from approxsym.jet import JetSpace, total_derivative
from approxsym.lang import Language, _frac_text, _latex_name, to_latex, to_text

L = Language(independent=["t"], dependent=["u", "v"], functions={"F": 1})


def p(s):
    return L.parse(s)


# ---------------------------------------------------------------------------
# the tree rewrites the reader replaced: the multiple angles and sin powers of
# the references below


def _trig_multiple_expand(e):
    """Rewrite sin/cos of integer multiples down to the base angle."""
    if isinstance(e, ex.Fun) and e.name in ("sin", "cos"):
        arg = _trig_multiple_expand(e.arg)
        c, rest = ex._split_coeff(arg)
        if c.denominator == 1 and abs(c) >= 2:
            return _angle_multiple(e.name, int(c), rest)
        return ex.fun(e.name, arg)
    return ex.rebuild(e, _trig_multiple_expand)


def _angle_multiple(name, k, x):
    """sin(k*x) or cos(k*x) as the flat sum of (cos(x) + i*sin(x))^|k|'s
    imaginary or real part: (-1)^(j//2) * C(|k|, j) * cos(x)^(|k|-j) *
    sin(x)^j over odd or even j.  It must stay flat: ``_init_key`` hashes a
    node's whole key tuple, so a tree that shares its subtrees costs 2^k."""
    n, s, c = abs(k), ex.fun("sin", x), ex.fun("cos", x)
    out = ex.add(*[ex.mul(ex.rat((-1) ** (j // 2) * math.comb(n, j)), ex.pow_(c, n - j),
                          ex.pow_(s, j))
                   for j in range(int(name == "sin"), n + 1, 2)])
    return ex.neg(out) if k < 0 and name == "sin" else out


def _sin_power_reduce(e):
    """Replace sin(x)^n (n >= 2) by (1 - cos(x)^2)^(n//2) * sin(x)^(n%2)."""
    if isinstance(e, (ex.Fun, ex.AFun, ex.AInt)):
        return e
    out = ex.rebuild(e, _sin_power_reduce)
    if isinstance(out, ex.Pow) and isinstance(out.base, ex.Fun) and out.base.name == "sin" \
            and out.exp.denominator == 1 and out.exp >= 2:
        q, r = divmod(int(out.exp), 2)
        reduced = ex.pow_(ex.sub(ex.ONE, ex.pow_(ex.fun("cos", out.base.arg), 2)), Fraction(q))
        return ex.mul(reduced, out.base) if r else reduced
    return out


@functools.lru_cache(maxsize=4096)
def tree_expand(e):
    """The tree expander the sparse read replaced in ``expand``: products
    distributed over sums and positive integer powers of sums multiplied
    out, node by node with ``add`` and ``mul``, iterated to a fixpoint,
    since combining exponents in a product can bring back a positive
    integer power of a sum.  It rewrites no function and no angle."""
    out = _tree_expand(e)
    while out != e:
        e, out = out, _tree_expand(out)
    return out


def _tree_expand(e):
    if isinstance(e, (ex.Rat, ex.Sym, ex.Jet, ex.Eps, ex.Fun, ex.AFun, ex.AInt)):
        return e
    if isinstance(e, ex.Add):
        return ex.add(*[tree_expand(t) for t in e.terms])
    if isinstance(e, ex.Pow):
        base = tree_expand(e.base)
        if isinstance(base, ex.Add) and e.exp.denominator == 1 and e.exp >= 2:
            out = base
            for _ in range(int(e.exp) - 1):
                out = _distribute(out, base)
            return out
        if isinstance(base, ex.Add) and e.exp.denominator == 2 and e.exp > 1:
            # split off the expandable integer part of a half-integer power
            q = e.exp.numerator // 2
            return _distribute(tree_expand(ex.pow_(base, q)), ex.Pow(base, e.exp - q))
        return ex.pow_(base, e.exp)
    # a product: re-normalised first (exponent folding), then distributed
    prod = ex.mul(*[tree_expand(f) for f in e.factors])
    if not isinstance(prod, ex.Mul):
        return tree_expand(prod) if prod != e else prod
    acc = ex.ONE
    for f in prod.factors:
        acc = _distribute(acc, tree_expand(f))
    return acc


def _distribute(a, b):
    ta = a.terms if isinstance(a, ex.Add) else (a,)
    tb = b.terms if isinstance(b, ex.Add) else (b,)
    if len(ta) * len(tb) == 1:
        return ex.mul(a, b)
    return ex.add(*[ex.mul(x, y) for x in ta for y in tb])


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


@pytest.mark.parametrize("value", [3 ** -1, 0.1, 0.5, 1.0, "1/3", "2", None],
                         ids=repr)
def test_rat_and_pow_take_only_ints_and_fractions(value):
    # a float would become its binary Fraction: 3 ** -1 is not 1/3.  A float
    # equal to an interned rational (0.5, 1.0) is refused too
    u0 = ex.jet("u", 0)
    with pytest.raises(TypeError):
        ex.rat(value)
    with pytest.raises(TypeError):
        ex.pow_(u0, value)
    with pytest.raises(TypeError):
        ex.pow_(ex.rat(4), value)
    with pytest.raises(TypeError):
        u0 ** value
    with pytest.raises(TypeError):
        u0 + value    # _coerce, which rat and pow_ now agree with


def test_rat_and_pow_keep_ints_and_fractions_exact():
    assert ex.rat(Fraction(1, 3)).value == Fraction(1, 3)
    assert ex.rat(Fraction(4, 2)) is ex.rat(2)
    assert ex.rat(True) is ex.ONE and ex.rat(False) is ex.ZERO   # bool is an int
    u0 = ex.jet("u", 0)
    assert ex.pow_(u0, Fraction(1, 2)).exp == Fraction(1, 2)
    assert ex.pow_(ex.rat(3), -1) == ex.rat(Fraction(1, 3))
    assert ex.pow_(u0, Fraction(6, 3)) == ex.pow_(u0, 2)


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


@pytest.mark.parametrize("text", [
    "x^(1/3) + 1",      # a fractional power other than a root
    "sin(t)^(-1) + 1",  # sin/cos to a negative power
    "u0^(1/2) + 1",     # the root of something other than a sum
    "sin(1/2*t) + 1",   # sin/cos of anything but +-(symbol or jet)
    "exp(t) + 1",       # exp or log
])
def test_is_zero_outside_its_class_is_unknown(text):
    assert ex.is_zero(p(text)) is ex.UNKNOWN


def test_is_zero_decides_a_cube_root_that_cancels_in_clearing():
    # x^(1/3)*(u0^2 - 1)/(u0 + 1) - x^(1/3)*(u0 - 1) = 0: only the cleared
    # form is free of the cube root, and t is left
    cancelling = "x^(1/3)*(u0^2 - 1)*(u0 + 1)^(-1) - x^(1/3)*(u0 - 1)"
    assert ex.is_zero(p(cancelling)) is True
    assert ex.is_zero(p(cancelling + " + t")) is False


def test_multiple_angles_are_flat_sums():
    t = ex.sym("t")
    for k in (2, 3, 7, 40, -5):
        for name in ("sin", "cos"):
            e = _angle_multiple(name, k, t)
            e = ex.neg(e) if k < 0 and name == "sin" else e
            terms = e.terms if isinstance(e, ex.Add) else (e,)
            assert len(terms) <= abs(k) // 2 + 1, (name, k)
            assert not any(ex.atoms_of(term, ex.Add) for term in terms), (name, k)
    # a tree of shared partial sums would cost 2^40 to hash here
    assert ex.is_zero(p("sin(40*t)^2 + cos(40*t)^2 - 1")) is True
    assert ex.is_zero(p("sin(-5*t) + sin(5*t)")) is True
    assert ex.is_zero(p("cos(3*t) - 4*cos(t)^3 + 3*cos(t)")) is True


def test_is_zero_radical_identities():
    assert ex.is_zero(p("(x^2+y^2)^(1/2)*(x^2+y^2)^(1/2) - x^2 - y^2")) is True
    assert ex.is_zero(
        p("(x^2+y^2)^(1/2) - x^2*(x^2+y^2)^(-1/2) - y^2*(x^2+y^2)^(-1/2)")) is True
    assert ex.is_zero(p("(x^2+y^2)^(1/2) - x - y")) is False


def test_is_zero_sum_over_a_sum_denominator():
    assert ex.is_zero(p("m1*(m1+m2)^(-1) + m2*(m1+m2)^(-1) - 1")) is True


# The same sum in a denominator becomes an Add atom that the normal form
# treats as independent of everything else, so it cannot see that it is 1.
@pytest.mark.xfail(strict=True, reason="a nested sum under a negative power is an opaque atom")
@pytest.mark.parametrize("text", [
    "(m1*(m1+m2)^(-1) + m2*(m1+m2)^(-1))^(-1) - 1",
    "(1 + (m1+m2)^(-1))^(-1) - (m1+m2)*(m1+m2+1)^(-1)",
])
def test_is_zero_nested_sum_under_a_negative_power(text):
    assert ex.is_zero(p(text)) is True


@pytest.mark.parametrize("text, verdict", [
    # an atom's insides are read: equal arguments are one atom
    ("F(t*(1 + u0)) - F(t + t*u0)", True),
    ("F((t + 1)^2) - F(t^2 + 2*t + 1)", True),
    ("Int(F, (t + 1)^2) - Int(F, t^2 + 2*t + 1)", True),
    ("F(sin(t)^2) - F(1 - cos(t)^2)", True),
    ("exp((t + 1)^2) - exp(t^2 + 2*t + 1)", True),
    ("F(t*(1 + u0)) - F(t + u0)", False),
    # the multiple of a sum is its content
    ("sin(2*(t + u0)) - 2*sin(t + u0)*cos(t + u0)", True),
    ("sin(2*t + 2*u0) - 2*sin(t + u0)*cos(t + u0)", True),
    # an argument is not cleared, so a zero over a sum is not seen
    ("F((u0 + 1)^(-1)*u0 + (u0 + 1)^(-1)) - F(1)", ex.UNKNOWN),
    ("F(m1*(m1 + m2)^(-1) + m2*(m1 + m2)^(-1)) - F(1)", ex.UNKNOWN),
    # nor is a root's base: the first two roots are 1
    ("(u0*(u0 + 1)^(-1) + (u0 + 1)^(-1))^(1/2) - 1", ex.UNKNOWN),
    ("(m1*(m1 + m2)^(-1) + m2*(m1 + m2)^(-1))^(1/2) - 1", ex.UNKNOWN),
    ("(u0*(u0 + 1)^(-1) + 2)^(1/2) - 1", ex.UNKNOWN),
    ("(u0^2 + 1)^(1/2)*(u0^2 + 1)^(1/2) - u0^2 - 1", True),
])
def test_is_zero_reads_the_insides_of_function_atoms(text, verdict):
    assert ex.is_zero(p(text)) is verdict


def test_atoms_are_put_in_form_without_a_tree_expand(monkeypatch):
    # the normal form never calls expand: expand starts a read, which may
    # empty the read memo, so a call from inside a read could empty it
    # halfway
    calls, expand = [], ex.expand

    def counted(e):
        calls.append(e)
        return expand(e)

    monkeypatch.setattr(ex, "expand", counted)
    ex.clear_caches()
    for text in ("(1 + sin(2*t))^(-1)", "((x1 - x2)^2 + (y1 - y2)^2)^(-1/2)",
                 "F(t*(1 + u0))", "cos(3*t)^2"):
        assert ex._zero_normal_form(p(text))[0]
    assert calls == []


def test_zero_base_to_a_negative_power_is_a_typed_error():
    for e in (-1, Fraction(-1, 2), Fraction(-3, 2), -2):
        with pytest.raises(DivisionByZero):
            ex.pow_(ex.ZERO, e)
    with pytest.raises(DivisionByZero):
        p("1/0")
    with pytest.raises(DivisionByZero):
        ex.fun("log", ex.ZERO)
    with pytest.raises(DivisionByZero):
        p("log(0)")
    with pytest.raises(DivisionByZero):
        p("log(u0 - u0)")
    # a zero that only the read sees: the written base or argument is 0.
    # expand writes back the same read, so it raises too
    for text in ("(sin(t)^2 + cos(t)^2 - 1)^(-1) + 1", "log(sin(t)^2 + cos(t)^2 - 1) + 1",
                 "(sin(t)^2 + cos(t)^2 - 1)^(-1)"):
        for read in (ex.is_zero, ex.expand):
            with pytest.raises(DivisionByZero):
                read(p(text))
    assert ex.pow_(ex.ZERO, Fraction(1, 2)) == ex.ZERO


def test_sin_squared_is_reduced_again_after_clearing():
    # 2 - cos^2 + 2 sin = (1 + sin)^2 only with sin^2 = 1 - cos^2, and the
    # sin^2 appears only once (1 + sin)^2 has been multiplied in
    e = p("(2 - cos(t)^2 + 2*sin(t))*(1 + sin(t))^(-2) - 1")
    assert ex.is_zero(e) is True
    assert ex._zero_normal_form(e)[1] == p("(1 + sin(t))^2")
    assert ex.is_zero(p("(2 - cos(t)^2 + 2*sin(t))*(1 + sin(t))^(-2) - 2")) is False


# ---------------------------------------------------------------------------
# the Expr-keyed normal form the id form replaced, kept as the reference
#
# A key is a tuple of (atom, int exponent) sorted by the atom's ``_key``,
# built from the trees' own nodes, and a coefficient is a Fraction.


def ref_monomial_key(pairs, roots) -> tuple:
    """(base, exponent) pairs as a key: X^(p/2) is split as X^floor(p/2) *
    X^(1/2), any other fractional power is the atom X^p, and zero
    exponents are dropped.  roots holds the caller's X^(1/2) atoms."""
    atoms = {}

    def put(atom, x):
        atoms[atom] = atoms[atom] + x if atom in atoms else x

    for base, q in pairs:
        if q.denominator == 1:
            put(base, q.numerator)
        elif q.denominator == 2:
            if q.numerator // 2:
                put(base, q.numerator // 2)
            root = roots.get(base)
            if root is None:
                root = roots[base] = ex.Pow(base, Fraction(1, 2))
            put(root, 1)
        else:
            put(ex.Pow(base, q), 1)
    return tuple(sorted(((a, x) for a, x in atoms.items() if x),
                        key=lambda ax: ax[0]._key))


def ref_base_exponents(key) -> dict:
    """A key as {base: exponent}: root and other power atoms are folded
    into their bases, as ``mul`` merges the factors of a product."""
    out = {}
    for atom, q in key:
        if isinstance(atom, ex.Pow):
            atom, q = atom.base, atom.exp * q
        out[atom] = out[atom] + q if atom in out else q
    return out


def ref_to_poly(e, roots=None):
    """The expanded tree read into {Expr key: Fraction}."""
    roots = {} if roots is None else roots
    e = tree_expand(e)
    poly = {}
    for term in (e.terms if isinstance(e, ex.Add) else (e,)):
        coeff, pairs = ex._monomial_pairs(term)
        key = ref_monomial_key(pairs, roots)
        poly[key] = poly.get(key, Fraction(0)) + coeff
    return {k: v for k, v in poly.items() if v != 0}


def ref_rest(key):
    """The product a key stands for, by ``mul``: a root or X^(p/q) atom to
    the first power goes back onto its base before the powers are taken."""
    pairs = {}
    for a, q in key:
        if isinstance(a, ex.Pow) and a.exp.denominator > 1 and q == 1:
            a, q = a.base, a.exp
        pairs[a] = pairs[a] + q if a in pairs else q
    return ex.mul(*[ex.pow_(a, q) for a, q in pairs.items()])


def ref_term_sorted(poly) -> dict:
    """poly without zero terms, ordered by the ``_key`` of the term each
    monomial stands for: ``rest``, or the product node of c and the factors
    of ``rest``."""
    def term_key(item):
        key, c = item
        if not key:
            return ex.rat(c)._key
        rest = ref_rest(key)
        return (rest if c == 1 else ref_mk_mul(c, rest))._key

    return dict(sorted(((k, v) for k, v in poly.items() if v != 0), key=term_key))


def ref_clear_denominators(poly):
    """(cleared poly in term order, multiplier): poly times the positive
    powers of its sum atoms in denominators, by one RefProduct."""
    need = {}
    for key in poly:
        for atom, q in key:
            if q < 0 and isinstance(atom, ex.Add):
                need[atom] = max(need.get(atom, 0), -q)
    if not need:
        return ref_term_sorted(poly), ex.ONE
    product = RefProduct()
    out = ref_term_sorted(product.times(poly, {product.key(need): Fraction(1)}))
    return out, ex.mul(*[ex.pow_(a, q) for a, q in need.items()])


def ref_normal_form(e):
    """The reference ``_zero_normal_form``: the read of one RefProduct,
    cleared with another."""
    return ref_clear_denominators(RefProduct().read(e))


def exact(v) -> bool:
    """True for a rational as the kernel holds it: an int when it is
    integral, else a Fraction; never a float."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def assert_normal_form_is_the_reference(e):
    ex._ZNF_CACHE.pop(e, None)   # read again, through the memo as it stands
    out, multiplier = ex._zero_normal_form(e)
    ref, ref_multiplier = ref_normal_form(e)
    assert list(out.items()) == list(ref.items())   # same keys in the same order
    assert all(map(exact, out.values()))
    assert multiplier == ref_multiplier


# ---------------------------------------------------------------------------
# denominator clearing against the product tree it replaced


def tree_clear(poly):
    """The reference: multiply each term by the denominators as a tree,
    expand it, reduce sin(x)^n (n >= 2) to cos powers, and read the sum back
    with ``ref_to_poly``."""
    need = {}
    for key in poly:
        for atom, q in key:
            if q < 0 and isinstance(atom, ex.Add):
                need[atom] = max(need.get(atom, Fraction(0)), -q)
    if not need:
        return poly, ex.ONE
    mult = [ex.pow_(a, q) for a, q in need.items()]
    terms = [tree_expand(ex.mul(ex.rat(c), *[ex.pow_(a, q) for a, q in key], *mult))
             for key, c in poly.items()]
    return ref_to_poly(tree_expand(_sin_power_reduce(ex.add(*terms)))), ex.mul(*mult)


def id_to_poly(e):
    """The id-form dict of the expanded tree, each term keyed by
    ``_key_of`` as it stands (no rule applied): the reader the sparse read
    replaced, kept to build the clearing tests' input."""
    e = tree_expand(e)
    poly = {}
    for term in (e.terms if isinstance(e, ex.Add) else (e,)):
        c, pairs = ex._monomial_pairs(term)
        key = ex._key_of({ex._intern(b): q for b, q in pairs})
        c = c.numerator if c.denominator == 1 else c
        poly[key] = poly[key] + c if key in poly else c
    return {k: c for k, c in poly.items() if c}


def assert_clears_like_the_tree(e):
    out, multiplier = ex._clear_denominators(id_to_poly(e))
    ref, ref_multiplier = tree_clear(ref_to_poly(e))
    assert list(out.items()) == list(ref.items())   # same keys in the same order
    assert multiplier == ref_multiplier


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
    sin powers, expand), read it with ``ref_to_poly`` and clear it with
    ``ref_clear_denominators``, which the tests above hold to ``tree_clear``."""
    return ref_clear_denominators(ref_to_poly(tree_expand(_sin_power_reduce(
        tree_expand(_trig_multiple_expand(tree_expand(e)))))))


def verdict(poly):
    """The verdict ``is_zero`` gives on a cleared normal form."""
    if not poly:
        return True
    for key in poly:
        for atom, q in key:
            if not ex._atom_decidable(atom) or (q < 0 and isinstance(atom, ex.Fun)):
                return ex.UNKNOWN
    return False


def assert_reads_like_the_tree(e):
    """The normal form gives the tree pass's verdict, and both take the
    value of e times their multipliers; the form is the per-call product's,
    keys, order and multiplier.  Forms may differ from the tree pass's: tree
    ``mul`` cancels a power of a sum against its multiple inside a term,
    and the tree pass leaves a rational base unsettled."""
    out, multiplier = ex._zero_normal_form(e)
    ref, ref_multiplier = tree_normal_form(e)
    assert verdict(out) is verdict(ref)
    rng = random.Random(to_text(e))
    assert_takes_the_value(e, out, multiplier, rng)
    assert_takes_the_value(e, ref, ref_multiplier, rng)
    ref, ref_multiplier = ref_normal_form(e)
    assert list(out.items()) == list(ref.items())   # same keys in the same order
    assert multiplier == ref_multiplier


def test_a_power_of_a_sum_is_read_apart_from_its_product():
    # tree mul cancelled the numerator against 1/(1 + u0) inside the term, to
    # t over 1; the power is now read alone and the clearing multiplies it out
    t, u0 = ex.sym("t"), ex.jet("u", 0)
    out, multiplier = ex._zero_normal_form(p("t*(u0*(1 + u0) - u0^2 + 1)*(1 + u0)^(-1)"))
    assert list(out.items()) == [(((t, 1),), 1), (((t, 1), (u0, 1)), 1)]
    assert multiplier == p("1 + u0")


@pytest.mark.parametrize("text", [
    # only mul on the tree cancels the numerator against 1/(1 + u0)
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
# the id form through the read memo against the per-call Expr-keyed product


class RefProduct:
    """The reference: the sparse product as it was, on Expr keys with
    Fraction coefficients, with its expansions, X^(1/2) atoms and node
    reads kept for one instance only."""

    __slots__ = ("roots", "powers", "reads")

    def __init__(self):
        self.roots: dict[ex.Expr, ex.Pow] = {}
        self.powers: dict[tuple, list] = {}
        self.reads: dict[ex.Expr, dict] = {}

    def key(self, mono) -> tuple:
        return ref_monomial_key(mono.items(), self.roots)

    def to_poly(self, e) -> dict:
        return ref_to_poly(e, self.roots)

    def expansion(self, base: ex.Expr, k) -> list:
        hit = self.powers.get((base, k))
        if hit is None:
            if isinstance(base, ex.Fun):
                e = ex.pow_(ex.sub(ex.ONE, ex.pow_(ex.fun("cos", base.arg), 2)), k // 2)
            else:
                e = ex.pow_(base, k)
            hit = self.powers[(base, k)] = [(ref_base_exponents(m), c)
                                            for m, c in self.to_poly(e).items()]
        return hit

    def settle(self, mono: dict, c: Fraction, acc: dict):
        """Add c * mono to acc, reduced as ``ex._settle_folded`` does."""
        for base, q in mono.items():
            # the part of the exponent that is replaced by an expansion
            if isinstance(base, ex.Fun):
                if base.name != "sin" or q.denominator != 1 or q < 2:
                    continue
                whole = q - q % 2
            elif isinstance(base, (ex.Rat, ex.Mul, ex.Add)):
                whole = q if q.denominator == 1 else \
                    q.numerator // 2 if q.denominator == 2 else 0
                if not whole or (whole < 0 and isinstance(base, ex.Add)):
                    continue
            else:
                continue
            rest = dict(mono)
            rest[base] = q - whole
            for m, mc in self.expansion(base, whole):
                merged = dict(rest)
                for b, x in m.items():
                    merged[b] = merged[b] + x if b in merged else x
                self.settle(merged, c * mc, acc)
            return
        key = self.key(mono)
        acc[key] = acc[key] + c if key in acc else c

    def times(self, a: dict, b: dict) -> dict:
        """The product of two dicts, unsorted, zero terms dropped."""
        acc: dict[tuple, Fraction] = {}
        right = [(ref_base_exponents(k), c) for k, c in b.items()]
        for ka, ca in a.items():
            left = ref_base_exponents(ka)
            for mb, cb in right:
                mono = dict(left)
                for base, x in mb.items():
                    mono[base] = mono[base] + x if base in mono else x
                self.settle(mono, ca * cb, acc)
        return {k: c for k, c in acc.items() if c}

    def read(self, e: ex.Expr) -> dict:
        """The dict of e before clearing, unsorted: the sum of its terms'
        sparse reads."""
        acc: dict[tuple, Fraction] = {}
        for term in (e.terms if isinstance(e, ex.Add) else (e,)):
            for k, c in self.sparse(term).items():
                acc[k] = acc[k] + c if k in acc else c
        return {k: c for k, c in acc.items() if c}

    def sparse(self, e: ex.Expr) -> dict:
        """The dict of e read by products; a negative or fractional power
        of a base that is not an atom by a tree pass on that node alone,
        each term settled."""
        if e in self.reads:
            return self.reads[e]
        if isinstance(e, ex.Rat):
            out = {(): e.value} if e.value else {}
        elif isinstance(e, ex.Add):
            out = {}
            for t in e.terms:
                for k, c in self.sparse(t).items():
                    out[k] = out[k] + c if k in out else c
            out = {k: c for k, c in out.items() if c}
        elif isinstance(e, ex.Mul):
            parts = [self.sparse(f) for f in e.factors]
            if not all(parts):   # a zero factor
                out = {}
            else:
                # the one-term factors are merged into one monomial first
                out, mono, c, sums = {}, {}, Fraction(1), []
                for p in parts:
                    if len(p) > 1:
                        sums.append(p)
                        continue
                    (k, x), = p.items()
                    c *= x
                    for base, q in ref_base_exponents(k).items():
                        mono[base] = mono[base] + q if base in mono else q
                self.settle(mono, c, out)
                for p in sums:
                    out = self.times(out, p)
        elif isinstance(e, ex.Pow):
            base, q = e.base, e.exp
            if isinstance(base, (ex.Fun, ex.AFun, ex.AInt)):
                base = _trig_multiple_expand(base)
            if isinstance(base, ex._ATOMS):
                out = {}
                self.settle({base: q}, Fraction(1), out)
            elif q.denominator == 1 and q > 0:
                out = b = self.sparse(base)
                for _ in range(q.numerator - 1):
                    out = self.times(out, b)
            else:
                tree = tree_expand(_sin_power_reduce(
                    tree_expand(_trig_multiple_expand(tree_expand(e)))))
                out = {}
                for term in (tree.terms if isinstance(tree, ex.Add) else (tree,)):
                    c, pairs = ex._monomial_pairs(term)
                    self.settle(dict(pairs), c, out)
                out = {k: c for k, c in out.items() if c}
        else:
            atom = _trig_multiple_expand(e) if isinstance(e, (ex.Fun, ex.AFun, ex.AInt)) else e
            out = {((atom, 1),): Fraction(1)} if isinstance(atom, ex._ATOMS) else self.sparse(atom)
        self.reads[e] = out
        return out


def expr_keyed(poly) -> dict:
    """An id-form dict in Expr keys, in its own order, with Fraction values."""
    return {ex._expr_key(k)[0]: Fraction(c) for k, c in poly.items()}


def assert_reads_like_the_per_call_product(e):
    assert_normal_form_is_the_reference(e)
    # the read before clearing: the same monomials, compared as a dict,
    # since every consumer orders them through _term_sorted
    assert expr_keyed(ex._read(e)) == RefProduct().read(e)


@st.composite
def memo_inputs(draw):
    """Sums of random_expr trees over t, u0, u1, a constant k and sin/cos of
    t, 2*t and 3*t, some times a sum to a negative or half-integer power,
    some times the root of an atom."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    t = ex.sym("t")
    atoms = [t, ex.jet("u", 0), ex.jet("u", 1), ex.sym("k"), ex.rat(rng.randint(-3, 3))]
    atoms += [ex.fun(f, ex.mul(ex.rat(m), t)) for f in ("sin", "cos") for m in (1, 2, 3)]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        e = random_expr(rng, draw(st.integers(1, 3)), atoms)
        kind = draw(st.integers(0, 2))
        if kind == 1:
            base = ex.add(random_expr(rng, 1, atoms), draw(st.sampled_from(atoms)))
            if base != ex.ZERO:
                e = ex.mul(e, ex.pow_(base, draw(st.sampled_from(
                    [-1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]))))
        elif kind == 2:
            e = ex.mul(e, ex.pow_(draw(st.sampled_from(atoms[:4])), Fraction(1, 2)))
        terms.append(e)
    return ex.add(*terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(memo_inputs(), min_size=3, max_size=3))
def test_normal_form_through_the_memo_reads_like_the_per_call_product(exprs):
    a, b, c = exprs
    ex.clear_caches()
    assert_reads_like_the_per_call_product(a)   # a cold memo
    # a warm one: b and c, a sum and a product that repeat their nodes, a again
    for e in (b, c, ex.add(a, b), ex.mul(a, c), a):
        assert_reads_like_the_per_call_product(e)


# ---------------------------------------------------------------------------
# an independent value oracle: the normal form takes the value of e times its
# multiplier at random points


class Skipped(Exception):
    """A point at which the float walk does not stand for the expression."""


class Point:
    """A random point: each opaque atom (symbol, jet, eps, exp or log) takes
    a fresh value from [-2, 2] on first use, and each arbitrary function or
    antiderivative a fresh smooth function of its arguments' values, so
    F(sin(2*t)) and F(2*sin(t)*cos(t)) agree."""

    def __init__(self, rng):
        self.rng, self.values, self.functions = rng, {}, {}

    def value(self, e) -> tuple[float, float]:
        """(value, size) of e: size times the unit round-off bounds the
        rounding error of the walk."""
        hit = self.values.get(e)
        if hit is None:
            hit = self.values[e] = self.walk(e)
        return hit

    def walk(self, e) -> tuple[float, float]:
        if isinstance(e, ex.Rat):
            v = float(e.value)
            return v, abs(v)
        if isinstance(e, (ex.Add, ex.Mul)):
            parts = [self.value(c) for c in (e.terms if isinstance(e, ex.Add) else e.factors)]
            if isinstance(e, ex.Add):
                return math.fsum(v for v, _ in parts), math.fsum(s for _, s in parts)
            return math.prod(v for v, _ in parts), math.prod(s for _, s in parts)
        if isinstance(e, ex.Pow):
            return self.power(*self.value(e.base), e.exp)
        if isinstance(e, ex.Fun) and e.name in ("sin", "cos"):
            v, s = self.value(e.arg)
            return (math.sin if e.name == "sin" else math.cos)(v), 1 + s
        if isinstance(e, (ex.AFun, ex.AInt)):
            args = e.args if isinstance(e, ex.AFun) else (e.arg,)
            sig = (type(e), e.name, getattr(e, "deriv", ()), getattr(e, "family", None))
            c = self.functions.get(sig)
            if c is None:
                c = self.functions[sig] = [self.rng.uniform(-2, 2) for _ in range(len(args) + 1)]
            parts = [self.value(a) for a in args]
            return (c[0] + sum(ci * math.sin(v) for ci, (v, _) in zip(c[1:], parts)),
                    abs(c[0]) + sum(abs(ci) * (1 + s) for ci, (_, s) in zip(c[1:], parts)))
        v = self.rng.uniform(-2, 2)
        return v, abs(v)

    @staticmethod
    def power(v, s, q) -> tuple[float, float]:
        if q.denominator != 1 and v <= 0:
            raise Skipped   # a fractional power of a non-positive base
        if q < 0 and abs(v) <= 1e-6 * s:
            raise Skipped   # at or near a pole
        if q.denominator == 1 and q > 0:
            return v ** int(q), s ** int(q)
        out = v ** int(q) if q.denominator == 1 else v ** float(q)
        return out, abs(out) * abs(float(q)) * s / abs(v)


def assert_takes_the_value(e, form, multiplier, rng, points=3):
    """At each of ``points`` random points where the walk stands for e,
    e * multiplier equals the normal form ``form`` ({Expr key: Fraction}).
    Returns the (value, size) of e at each of those points."""
    seen = []
    for _ in range(points):
        point = Point(rng)
        try:
            v, s = point.value(e)
            m, sm = point.value(multiplier)
            terms = []
            for key, c in form.items():
                tv, ts = float(c), abs(float(c))
                for atom, x in key:
                    av, sa = point.power(*point.value(atom), Fraction(x))
                    tv, ts = tv * av, ts * sa
                terms.append((tv, ts))
        except Skipped:
            continue
        w = math.fsum(tv for tv, _ in terms)
        size = s * sm + math.fsum(ts for _, ts in terms)
        assert abs(v * m - w) <= 1e-9 * size, (to_text(e), v * m, w)
        seen.append((v, s))
    return seen


@pytest.mark.parametrize("inputs", [normal_form_inputs, memo_inputs, cleared_sums],
                         ids=lambda s: s.__name__)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_normal_form_takes_the_value_of_the_expression(inputs, data):
    e = data.draw(inputs())
    out, multiplier = ex._zero_normal_form(e)
    seen = assert_takes_the_value(e, out, multiplier, random.Random(to_text(e)))
    # a False verdict has a witness: e is off zero at some point the walk
    # stands for (where every point was skipped, the draw shows nothing)
    if seen and ex.is_zero(e) is False:
        assert any(abs(v) > 1e-9 * s for v, s in seen), to_text(e)


def test_value_oracle_sees_a_root_read_as_its_base():
    # the root of u0^2 is |u0|, not u0: a normal form that read it as u0
    # differs at a point where u0 < 0
    e = p("(u0^2)^(3/2)")
    u0 = ex.jet("u", 0)
    with pytest.raises(AssertionError):
        for seed in range(20):
            assert_takes_the_value(e, {((u0, 3),): Fraction(1)}, ex.ONE, random.Random(seed))
    assert_takes_the_value(e, ex._zero_normal_form(e)[0], ex.ONE, random.Random(0), 20)


# ---------------------------------------------------------------------------
# expand, the sparse read written back, against the tree expander


@st.composite
def laurent_polynomials(draw):
    """Sums of two products whose factors are t, u0, v0, a constant k,
    rationals, or sums to an integer power, negative ones included, three
    sums deep: so sums sit under negative powers inside sums under negative
    powers.  A base that may read as zero is squared instead."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    atoms = [ex.sym("t"), ex.jet("u", 0), ex.jet("v", 0), ex.sym("k"), ex.rat(2),
             ex.rat(Fraction(-1, 3))]

    def sum_(depth):
        return ex.add(*[ex.mul(*[factor(depth - 1) for _ in range(rng.randint(1, 2))])
                        for _ in range(2)])

    def factor(depth):
        if not depth or rng.random() < 0.5:
            return rng.choice(atoms)
        base, q = sum_(depth), rng.choice([-2, -1, 2])
        if q < 0 and ex.is_zero(base) is not False:
            q = 2
        return ex.pow_(base, q)

    return sum_(3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(laurent_polynomials(), normal_form_inputs())
def test_expand_is_the_tree_expand_reference(laurent, e):
    # on Laurent polynomials, the class of every linalg entry, the same tree
    assert ex.expand(laurent) == tree_expand(laurent)
    # elsewhere multiple angles, sin powers and roots are rewritten as the
    # read rewrites them, and the value is kept
    out, rng = ex.expand(e), random.Random(to_text(e))
    for _ in range(3):
        point = Point(rng)
        try:
            (v, s), (w, sw) = point.value(e), point.value(out)
        except Skipped:
            continue
        assert abs(v - w) <= 1e-9 * (s + sw), (to_text(e), to_text(out))
    # an expanded tree is its own expansion, also read from empty memos
    for x in (laurent, e):
        once = ex.expand(x)
        ex.clear_caches()
        assert ex.expand(once) == once


# ---------------------------------------------------------------------------
# sin powers and the powers the tree rewrites still reach


def test_sin_powers_expand_without_trees(monkeypatch):
    # sin(t)^(2m) once went through a tree expand of (1 - cos(t)^2)^m, so
    # multiple angles as high as sin(800*t) did not finish
    depth, inside, met = [0], [0], []
    expand, expansion = ex.expand, ex._expansion

    def counted_expand(e):
        inside[0] += depth[0] > 0
        return expand(e)

    def counted_expansion(b, k):
        met.append(k)
        depth[0] += 1
        try:
            return expansion(b, k)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ex, "expand", counted_expand)
    monkeypatch.setattr(ex, "_expansion", counted_expansion)
    ex.clear_caches()
    poly, _ = ex._zero_normal_form(p("sin(t)^40"))
    assert met == [40] and inside == [0]
    assert len(poly) == 21


def test_sin_power_expansions_are_the_tree_built_ones():
    ex.clear_caches()
    t = ex.sym("t")
    sin = ex._intern(ex.fun("sin", t))
    cos_squared = ex.pow_(ex.fun("cos", t), 2)

    for m in range(1, 31):
        tree = id_to_poly(ex.pow_(ex.sub(ex.ONE, cos_squared), m))
        got = ex._expansion(sin, Fraction(2 * m))
        assert len(got) == len(tree) == m + 1
        assert got == tree, m


@pytest.mark.parametrize("text", [
    # a rational or product base under a root is settled: 2^(3/2) = 2*2^(1/2)
    "2^(3/2) - 2*2^(1/2)",
    "(2*u0)^(3/2) - 2*u0*(2*u0)^(1/2)",
    # the trig rewrites reach inside radicals and denominators
    "(sin(t)^2 + cos(t)^2)^(1/2) - 1",
    "(1 + sin(2*t))^(-1) - (1 + 2*sin(t)*cos(t))^(-1)",
])
def test_is_zero_reads_inside_the_powers_of_non_atoms(text):
    assert ex.is_zero(p(text)) is True


@pytest.mark.parametrize("text", [
    # a power atom to an integer power as a key atom: ((1+u0)^(1/3))^(3/2)
    "((1 + u0)^(1/3))^(3/2)*(1 + u0)^(-1) + u0*((1 + u0)^(1/3))^(3/2)",
    # a root of a root, beside the root it is built on
    "((1 + u0^2)^(1/2))^(1/2)*(1 + u0^2)^(1/2)*(t + (1 + u0^2)^(1/2))^2",
    # a rational base kept by the tree pass, then multiplied by the clearing
    "2^(3/2)*u0*(1 + u0)^(-1) + 2^(-1/2)*(1 + u0)^(1/2) + (6*t)^(1/2)*(2 + t)^(-1)",
    # sin to an integer power beside its own root: no reduction
    "sin(t)^(5/2)*(1 + sin(t))^2 + sin(t)^2*(1 + cos(t))^(-1)",
])
def test_normal_form_on_power_atoms_is_the_reference(text):
    ex.clear_caches()
    e = p(text)
    assert_normal_form_is_the_reference(e)
    assert_normal_form_is_the_reference(ex.mul(e, e))


# ---------------------------------------------------------------------------
# settling one folded monomial against the nested expansion of RefProduct


def _settle_bases():
    """(bases, partners): (base, exponents to draw from) for the monomials
    that ``_settle_folded`` is handed, each base once, and the index of the
    base that each of the first bases reaches."""
    t, u0, u1 = ex.sym("t"), ex.jet("u", 0), ex.jet("u", 1)
    powers = [1, 2, 3, Fraction(3, 2), Fraction(5, 2), -1, Fraction(-3, 2), Fraction(1, 2)]
    # sums of plain atoms to integer powers: their expansions multiply at
    # once.  Then sums whose expansions hold another kind of atom (a sin, a
    # root, a negative power of a sum, a power atom), each with the base
    # whose exponent that atom reaches: u0 for the first, where the rest
    # holds u0^(1/3)
    sums = [("1 + u0^2", u0), ("t - u0 + 2*v0", None), ("u0*u1 + t^2", None),
            ("v0*u0^(-1) + 3", None), ("1 + sin(t)", ex.fun("sin", t)),
            ("t + u1^(1/2)", u1), ("u1 + (1 + t)^(-1)", p("1 + t")),
            ("v0 + (u0 + t)^(1/3)", p("u0 + t"))]
    bases = [(p(text), powers) for text, _ in sums]
    bases += [
        (p("1 + t"), [1, 2, -1, Fraction(1, 2), Fraction(-1, 2)]),
        (p("u0 + t"), [1, 2, Fraction(2, 3), -1]),
        (ex.fun("sin", t), [1, 2, 3, 4, 5]),
        (ex.fun("cos", t), [1, 2, -1]),
        # rational and product bases take their rule at every nonzero part
        (ex.rat(2), [Fraction(3, 2), Fraction(-3, 2), Fraction(1, 2)]),
        (ex.rat(Fraction(2, 3)), [2, Fraction(5, 2), -1]),
        (p("2*u0"), [Fraction(3, 2), Fraction(-1, 2)]),
        (p("u0*t"), [2, Fraction(-3, 2)]),
        # roots as atoms, and plain atoms to fractional powers in the rest
        (ex.pow_(p("1 + u0^2"), Fraction(1, 2)), [1, 2, -1]),
        (ex.pow_(p("u1 + (1 + t)^(-1)"), Fraction(1, 2)), [1, -1]),
        (u0, [1, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3), -2]),
        (t, [Fraction(1, 3), Fraction(3, 2), -1]),
        (u1, [1, Fraction(-1, 2), Fraction(4, 3)]),
    ]
    index = {b: i for i, (b, _) in enumerate(bases)}
    partners = {i: index[partner] for i, (_, partner) in enumerate(sums) if partner is not None}
    return bases, partners


SETTLE_BASES, SETTLE_PARTNERS = _settle_bases()


@st.composite
def settled_monomials(draw):
    """(mono as (base, exponent) pairs in drawn order, coefficient); a sum
    drawn with a partner brings it in half of the time, at a drawn place."""
    picks = draw(st.lists(st.integers(0, len(SETTLE_BASES) - 1), min_size=1, max_size=4,
                          unique=True))
    for i in list(picks):
        j = SETTLE_PARTNERS.get(i)
        if j is not None and j not in picks and draw(st.booleans()):
            picks.insert(draw(st.integers(0, len(picks))), j)
    mono = [(SETTLE_BASES[i][0], draw(st.sampled_from(SETTLE_BASES[i][1]))) for i in picks]
    c = Fraction(draw(st.sampled_from([-3, -1, 1, 2, 5])), draw(st.integers(1, 3)))
    return mono, c


def assert_settles_like_the_reference(monos):
    """Each (mono, c) settled into one sum with one product table, as in
    one _times call, the first twice, so that its product is read from the
    table: the keys and values of the nested expansion of RefProduct."""
    ex.clear_caches()
    acc, products, ref, ref_acc = {}, {}, RefProduct(), {}
    for mono, c in monos + monos[:1]:
        ex._settle_folded({ex._intern(b): x for b, x in mono}, c, acc, products)
        ref.settle(dict(mono), c, ref_acc)
    assert expr_keyed({k: c for k, c in acc.items() if c}) == \
        {k: c for k, c in ref_acc.items() if c}


@pytest.mark.parametrize("mono", [
    # expanding the first sum brings in a negative power of the second, so
    # the order of expansion changes the form; both orders
    [("u1 + (1 + t)^(-1)", 2), ("1 + t", 1)],
    [("1 + t", 2), ("u1 + (1 + t)^(-1)", 2)],
    # an expansion that holds sin(t) beside a sin power of the rest
    [("1 + sin(t)", 2), ("sin(t)", 3)],
    [("sin(t)", 3), ("1 + sin(t)", 3), ("cos(t)", -1)],
    # an expansion that holds a root of u1 beside a root of u1 in the rest
    [("t + u1^(1/2)", 2), ("u1", Fraction(-1, 2))],
    # a plain power in the rest that the product reaches: the atom u0^(1/3)
    # becomes u0^(4/3), not u0^(1/3)*u0
    [("1 + u0^2", Fraction(3, 2)), ("u0", Fraction(1, 3))],
    # four parts of one product: sums, a product base and a half-integer rest
    [("t - u0 + 2*v0", 2), ("1 + u0^2", 1), ("u0*u1 + t^2", Fraction(5, 2)),
     ("2*u0", Fraction(3, 2)), ("u0", Fraction(-1, 2))],
], ids=lambda mono: " * ".join(f"({b})^({x})" for b, x in mono))
def test_settle_folded_is_the_reference_on_picked_monomials(mono):
    assert_settles_like_the_reference([([(p(b), x) for b, x in mono], Fraction(-2, 3))])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(settled_monomials(), min_size=1, max_size=3))
def test_settle_folded_is_the_reference_on_drawn_monomials(monos):
    assert_settles_like_the_reference(monos)


def ref_plain_times(a: dict, b: dict) -> dict:
    """The product of two id-form dicts as a plain dict merge of each pair
    of keys: exponents of one id add, and zero exponents are dropped."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            mono = dict(ka)
            for i, x in kb:
                mono[i] = mono.get(i, 0) + x
            key = tuple(sorted((i, x) for i, x in mono.items() if x))
            out[key] = out.get(key, 0) + ca * cb
    return out


# id-form dicts on six ids: keys sorted by id without zero exponents, so
# two keys often share an id and their exponents cancel
ID_POLYS = st.dictionaries(
    st.dictionaries(st.integers(0, 5), st.sampled_from([-2, -1, 1, 2, 3]), max_size=4).map(
        lambda k: tuple(sorted(k.items()))),
    st.sampled_from([-3, -1, 1, 2, Fraction(-1, 2), Fraction(2, 3)]), max_size=5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ID_POLYS, ID_POLYS, ID_POLYS)
def test_plain_times_is_the_dict_merge_reference(a, b, acc):
    ref = ref_plain_times(a, b)
    for k, c in acc.items():
        ref[k] = ref.get(k, 0) + c
    got = ex._plain_times(a, b, acc)
    assert got is acc
    assert {k: c for k, c in got.items() if c} == {k: c for k, c in ref.items() if c}
    assert all(list(k) == sorted(k) and all(x for _, x in k) for k in got)
    # two keys that share no id give a key of their own pairs, not copies
    for ka in a:
        for kb in b:
            if not {i for i, _ in ka} & {i for i, _ in kb}:
                (key,) = ex._plain_times({ka: 1}, {kb: 1}, {})
                pairs = ka + kb
                assert all(any(pair is own for own in pairs) for pair in key)


def test_three_body_clearing_keys_each_settled_monomial_once(monkeypatch):
    """``golden_check`` on three-body clears two forms of 16 monomials to
    2,984 by the product S12^2*S13*S23 of its pair-distance sums.  Every
    monomial settled on the way takes the product of its sum powers whole:
    ``_settle_folded`` does not call itself, and keys each monomial it is
    handed once.  Expanding one sum at a time made 11,062 nested calls."""
    from approxsym import models
    state = {"depth": 0, "settled": 0, "nested": 0, "keyed": 0}
    cleared = []
    settle, key_of, expansion, clear = \
        ex._settle_folded, ex._key_of, ex._expansion, ex._clear_denominators

    def counted_settle(*args):
        state["settled"] += 1
        state["nested"] += state["depth"] > 0
        state["depth"] += 1
        try:
            return settle(*args)
        finally:
            state["depth"] -= 1

    def counted_key_of(bases):
        state["keyed"] += state["depth"] > 0
        return key_of(bases)

    def expansion_apart(b, k):
        # an expansion reads a product of its own: its settling is not nested
        depth, state["depth"] = state["depth"], 0
        try:
            return expansion(b, k)
        finally:
            state["depth"] = depth

    def recorded_clear(poly):
        out = clear(poly)
        cleared.append((len(poly), len(out[0])))
        return out

    monkeypatch.setattr(ex, "_settle_folded", counted_settle)
    monkeypatch.setattr(ex, "_key_of", counted_key_of)
    monkeypatch.setattr(ex, "_expansion", expansion_apart)
    monkeypatch.setattr(ex, "_clear_denominators", recorded_clear)
    ex.clear_caches()
    models.golden_check(models.load_builtin("three-body"))
    assert cleared.count((16, 2984)) == 2
    assert state["settled"] > 0
    assert state["nested"] == 0
    assert state["keyed"] == state["settled"]


# ---------------------------------------------------------------------------
# key conversion against the product the key stands for


def ref_factor_keys(ekey) -> tuple:
    """The ``_key``s of the factors of ``ref_rest``'s product, in ``mul``'s
    order."""
    rest = ref_rest(ekey)
    return rest._key[1] if isinstance(rest, ex.Mul) else (rest._key,)


def assert_keys_convert_as_the_reference(e):
    """Every key that the normal form of e converts (``_KEYS``) has the
    factor keys of ``ref_rest``'s product, in ``mul``'s order; the empty
    key's factors are never read (``_term_sorted`` orders a constant by its
    value)."""
    ex.clear_caches()
    ex._zero_normal_form(e)
    for ekey, factors in ex._KEYS.values():
        if not ekey:
            continue
        assert factors == ref_factor_keys(ekey), ekey


@pytest.mark.parametrize("text", [
    # an atom to a half-integer power beside the same atom to an integer one
    "t*u0^(3/2) + t*u0^3 + F(u0)^(1/2)*sin(t)^3 + F(u0)^(3/2)*v0",
    # X^(1/3) atoms of an atom and of a sum, and a power of a power atom
    "u0^(1/3)*(1 + u0)^(-1) + u0^(4/3)*t",
    "((1 + u0)^(1/3))^(3/2)*(1 + u0)^(-1) + u0*((1 + u0)^(1/3))^(3/2)",
    # rational and product bases, and a root of a sum with rational content
    "(u0*t)^(3/2)*(1 + t)^(-1) + 2^(1/2)*u0 + (4*u0 + 4*t)^(1/2)*(1 + t)^(-1)",
])
def test_expr_key_is_the_reference_product_on_picked_keys(text):
    assert_keys_convert_as_the_reference(p(text))


@pytest.mark.parametrize("pairs", [
    # pieces that are not a power on their own base go through mul: a
    # product base back from its root, a power atom to a whole power beside
    # its base, (u0^(1/3))^3 * u0 = u0^2, and a rational root that is rational
    [(ex.Pow(p("t*u0"), Fraction(1, 2)), 2), (p("v0"), 1)],
    [(ex.Pow(p("u0"), Fraction(1, 3)), 3), (p("u0"), 1), (p("t"), -1)],
    [(ex.Pow(ex.rat(4), Fraction(1, 2)), 1), (p("t"), 1)],
    # a sum back from its root, beside an atom
    [(ex.Pow(p("u0 + t"), Fraction(1, 2)), 2), (p("v0"), 3)],
], ids=["product base", "power atom beside its base", "rational root", "sum base"])
def test_expr_key_is_the_reference_product_on_built_keys(pairs):
    # atoms interned as built, as the read's unfolded pairs may hold them
    ex.clear_caches()
    ekey, factors = ex._expr_key(tuple(sorted((ex._intern(a), x) for a, x in pairs)))
    assert factors == ref_factor_keys(ekey)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(normal_form_inputs(), memo_inputs()))
def test_expr_key_is_the_reference_product_on_drawn_keys(e):
    assert_keys_convert_as_the_reference(e)


def test_poly_times_is_the_reference():
    # linalg scales a returned normal form by a monomial of sum powers
    e = p("u0*(1 + u0^2)^(-1) + (1 + t^2)^(1/2)*(u0 - t)^(-2) + sin(t)^2*(u0 - t)")
    poly, _ = ex._zero_normal_form(e)
    factor = {p("1 + u0^2"): Fraction(2), p("u0 - t"): Fraction(1),
              p("1 + t^2"): Fraction(1, 2), p("t"): Fraction(0)}
    ex.clear_caches()   # the ids of the read are gone: the keys are interned again
    out = ex._poly_times(poly, factor)
    product = RefProduct()
    ref = ref_term_sorted(product.times(poly, {product.key(factor): Fraction(1)}))
    assert list(out.items()) == list(ref.items())
    assert all(map(exact, out.values()))


def test_every_normal_form_of_the_builtins_is_the_reference(monkeypatch):
    """Each distinct normal form that ``golden_check`` of every builtin and
    ``extract`` of the five builtins whose determining system finishes ask
    for, as the program built it through the shared memo, against the
    reference: keys, key order, values and multiplier; each value an int
    when it is integral, else a Fraction."""
    from approxsym import determine, models
    met = {}
    normal_form = ex._zero_normal_form

    def recording(e):
        out = normal_form(e)
        met.setdefault(e, out)
        return out

    monkeypatch.setattr(ex, "_zero_normal_form", recording)
    for name in models.builtin_names():
        ex.clear_caches()
        model = models.load_builtin(name)
        models.golden_check(model)
        if name != "three-body":   # its determining system does not finish
            determine.extract(model.lagrangian, model.ansatz, model.constant_names)
    assert len(met) > 1000
    for e, (out, multiplier) in met.items():
        ref, ref_multiplier = ref_normal_form(e)
        assert list(out.items()) == list(ref.items()), to_text(e)
        assert all(map(exact, out.values()))
        assert multiplier == ref_multiplier


def golden_normal_forms(monkeypatch) -> list:
    """(e, normal form items, multiplier) of each call of the normal form
    that ``golden_check`` of each builtin makes, in call order, each
    builtin from a cold memo."""
    from approxsym import models
    met = []
    normal_form = ex._zero_normal_form

    def recording(e):
        out = normal_form(e)
        met.append((e, list(out[0].items()), out[1]))
        return out

    monkeypatch.setattr(ex, "_zero_normal_form", recording)
    for name in models.builtin_names():
        ex.clear_caches()
        models.golden_check(models.load_builtin(name))
    monkeypatch.setattr(ex, "_zero_normal_form", normal_form)
    return met


def test_builtin_normal_forms_ignore_the_sparse_dict_order(monkeypatch):
    """The order in which the sparse products add their monomials reaches
    no output: with every dict that ``_times`` and ``_read`` return
    reversed, each normal form of the builtins' golden checks has the same
    keys, values, key order and multiplier.  Only ``_term_sorted``'s order
    reaches the caller."""
    plain = golden_normal_forms(monkeypatch)

    def reversed_dict(f):
        return lambda *args: dict(reversed(f(*args).items()))

    monkeypatch.setattr(ex, "_times", reversed_dict(ex._times))
    monkeypatch.setattr(ex, "_read", reversed_dict(ex._read))
    reversed_run = golden_normal_forms(monkeypatch)
    assert len(plain) > 3000
    assert reversed_run == plain


def check_memo_rule(monkeypatch, bound, walks):
    """Bound each memo of ``walks``, {memo: names of the functions its walk
    runs through}, at ``bound``, and check the memo rule on each of them:
    after every store, ``held`` recounted from the tables (the derivatives
    or monomials a dict or list holds, one for any other value) stays at or
    under the bound, and an atom table past the bound has marked the memo
    full; a memo is never emptied while one of its walks runs.  Empties
    every memo, and returns a check to call after the workload: that each
    bounded memo was emptied at least once."""
    put, empty = ex._Memo.put, ex._Memo.empty
    depth = dict.fromkeys(walks, 0)

    def size(value):
        return len(value) or 1 if isinstance(value, (dict, list)) else 1

    def checked_put(memo, table, key, value, size_=1):
        put(memo, table, key, value, size_)
        if memo in walks:
            held = sum(size(v) for t in memo.tables for v in t.values())
            assert held == memo.held <= bound, memo.name
            assert not memo.atoms or len(memo.atoms[0]) <= bound or memo.full, memo.name

    def checked_empty(memo):
        assert not depth.get(memo), f"{memo.name} was emptied in the middle of a walk"
        empty(memo)

    def walking(memo, walk):
        def counted(*args):
            depth[memo] += 1
            try:
                return walk(*args)
            finally:
                depth[memo] -= 1
        return counted

    for memo, names in walks.items():
        monkeypatch.setattr(memo, "bound", bound)
        for name in names:
            monkeypatch.setattr(ex, name, walking(memo, getattr(ex, name)))
    monkeypatch.setattr(ex._Memo, "put", checked_put)
    monkeypatch.setattr(ex._Memo, "empty", checked_empty)
    ex.clear_caches()

    def every_memo_was_emptied():
        for memo in walks:
            assert memo.clears > 0, f"{memo.name} never filled up"
    return every_memo_was_emptied


def test_memo_never_holds_more_than_its_bound(monkeypatch):
    emptied = check_memo_rule(monkeypatch, 60, {ex._READ_MEMO: (
        "_sparse", "_times", "_clear_denominators", "_term_sorted")})
    rng = random.Random(31)
    for _ in range(40):
        assert_reads_like_the_per_call_product(ex.add(
            random_expr(rng), ex.mul(random_expr(rng), p("(1 + u0^2)^(-1)"))))
    # one read per term but two atoms, the sum and its root: the atom table
    # passes the bound long before the reads do
    roots = " + ".join(f"(1 + x{i})^(1/2)" for i in range(40))
    assert ex.is_zero(p(roots)) is False
    emptied()


def test_every_memo_is_in_the_registry():
    # cache_stats and clear_caches walk the registry: a memo outside it
    # would be neither reported nor emptied
    memos = [v for v in vars(ex).values() if isinstance(v, ex._Memo)]
    assert len(memos) == 4
    assert {id(m) for m in memos} == {id(m) for m in ex._MEMOS}
    assert set(ex.cache_stats()) == {m.name for m in memos} | {"rat"}


# ---------------------------------------------------------------------------
# the gradient memo against the per-variable derivation it replaced


def ref_derivation(e, atom):
    """Extend a derivation from the leaves of ``e`` to all of it.

    Sums, products, rational powers and elementary functions follow the sum,
    product, power and chain rules; every other node (symbols, jets, eps,
    arbitrary functions, antiderivatives) is a leaf whose image is
    ``atom(leaf)``.
    """
    if isinstance(e, ex.Add):
        return ex.add(*[ref_derivation(t, atom) for t in e.terms])
    if isinstance(e, ex.Mul):
        out = []
        fs = e.factors
        for i, f in enumerate(fs):
            d = ref_derivation(f, atom)
            if d != ex.ZERO:
                out.append(ex.mul(*(fs[:i] + (d,) + fs[i + 1:])))
        return ex.add(*out) if out else ex.ZERO
    if isinstance(e, ex.Pow):
        d = ref_derivation(e.base, atom)
        if d == ex.ZERO:
            return ex.ZERO
        return ex.mul(ex.rat(e.exp), ex.pow_(e.base, e.exp - 1), d)
    if isinstance(e, ex.Fun):
        d = ref_derivation(e.arg, atom)
        if d == ex.ZERO:
            return ex.ZERO
        return ex.mul(ex._FUN_DERIVATIVE[e.name](e.arg), d)
    return atom(e)


def ref_diff(e, v):
    """The reference: one ``ref_derivation`` walk per variable."""
    def leaf(a):
        if a == v:
            return ex.ONE
        if isinstance(a, (ex.Rat, ex.Sym, ex.Jet, ex.Eps)):
            return ex.ZERO
        if isinstance(a, ex.AFun):
            out = []
            for i, arg in enumerate(a.args):
                d = ref_derivation(arg, leaf)
                if d == ex.ZERO:
                    continue
                bumped = tuple(t + (1 if j == i else 0) for j, t in enumerate(a.deriv))
                out.append(ex.mul(ex.AFun(a.name, a.args, bumped, a.family), d))
            return ex.add(*out) if out else ex.ZERO
        if isinstance(a, ex.AInt):
            d = ref_derivation(a.arg, leaf)
            return ex.ZERO if d == ex.ZERO else ex.mul(ex.afun(a.name, (a.arg,)), d)
        raise TypeError(f"cannot differentiate {type(a).__name__}")
    return ref_derivation(e, leaf)


def ref_total_derivative(e, var, space):
    """The reference: one ``ref_diff`` for d/dvar and one per jet."""
    out = [ref_diff(e, ex.sym(var))]
    for j in ex.jets_of(e):
        d = ref_diff(e, j)
        if d == ex.ZERO:
            continue
        if len(j.deriv) + 1 > space.max_derivative + 1:
            raise DerivativeOverflow(
                f"D_{var} of {j!r} needs derivative order {len(j.deriv) + 1}, "
                f"beyond the transient bound {space.max_derivative + 1}")
        out.append(ex.mul(ex.jet(j.base, j.order, j.deriv + (var,)), d))
    return ex.add(*out)


GRAD_SPACE = JetSpace(("t", "x"), ("u", "v"), order=1, max_derivative=2)
GRAD_LEAVES = [ex.sym("t"), ex.sym("x"), ex.sym("k"), ex.EPS] + [
    ex.jet(b, k, d) for b in ("u", "v") for k in (0, 1)
    for d in ((), ("t",), ("t", "x"), ("x", "x"))]
GRAD_EXPONENTS = [-1, Fraction(1, 2), Fraction(-3, 2), 3]


@st.composite
def gradient_inputs(draw):
    """random_expr trees over symbols, eps and jets of derivative order 0-2,
    where about half the atoms are sin/cos/exp/log, powers -1, 1/2, -3/2 or
    3, a two-argument F with a derivative multi-index or Int(G, .) of a
    subtree."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    leaves = rng.sample(GRAD_LEAVES, 6) + [ex.rat(rng.randint(-3, 3))]

    def inner():
        return random_expr(rng, rng.randint(0, 2), leaves)
    specials = []
    while len(specials) < 6:
        kind, a = rng.randrange(4), inner()
        if kind == 0:
            specials.append(ex.fun(rng.choice(ex.ELEMENTARY), a))
        elif kind == 1 and a != ex.ZERO:
            specials.append(ex.pow_(a, rng.choice(GRAD_EXPONENTS)))
        elif kind == 2:
            specials.append(ex.afun("F", (a, inner()), (rng.randint(0, 2), rng.randint(0, 2))))
        elif kind == 3:
            specials.append(ex.aint("G", a))
    return random_expr(rng, rng.randint(2, 4), leaves + specials)


def assert_derivatives_like_the_reference(e):
    variables = ex.atoms_of(e, (ex.Sym, ex.Jet, ex.Eps))
    assert set(ex.gradient(e)) == variables
    for v in variables:
        assert ex.diff(e, v) == ref_diff(e, v)
    for var in GRAD_SPACE.independent:
        assert total_derivative(e, var, GRAD_SPACE) \
            == ref_total_derivative(e, var, GRAD_SPACE)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(gradient_inputs(), min_size=3, max_size=3))
def test_derivatives_through_the_gradient_memo_equal_the_reference(exprs):
    a, b, c = exprs
    ex.clear_caches()
    assert_derivatives_like_the_reference(a)   # a cold memo
    stored = {e: dict(g) for e, g in ex._GRADIENTS.items()}
    # a warm one: b and c, a sum and a product that repeat their nodes, a again
    for e in (b, c, ex.add(a, b), ex.mul(a, c), a):
        assert_derivatives_like_the_reference(e)
    assert all(ex._GRADIENTS[e] == g for e, g in stored.items() if e in ex._GRADIENTS), \
        "a stored gradient was changed"


def test_total_derivative_lists_jets_from_the_gradient(monkeypatch):
    # the gradient already names every jet: no second walk of the tree
    calls = []
    atoms_of = ex.atoms_of

    def counted(e, kind):
        calls.append(e)
        return atoms_of(e, kind)

    rng = random.Random(53)
    exprs = [random_expr(rng, 3, GRAD_LEAVES) for _ in range(20)]
    monkeypatch.setattr(ex, "atoms_of", counted)
    ex.clear_caches()
    for e in exprs:
        for var in GRAD_SPACE.independent:
            total_derivative(e, var, GRAD_SPACE)
    assert calls == []


def test_gradient_memo_never_holds_more_than_its_bound(monkeypatch):
    emptied = check_memo_rule(monkeypatch, 50, {ex._GRADIENT_MEMO: ("_gradient_of",)})
    rng = random.Random(37)
    for _ in range(40):
        e = ex.add(random_expr(rng, 3, GRAD_LEAVES[:8]),
                   ex.mul(random_expr(rng), p("(1 + u0^2)^(-1)")))
        assert_derivatives_like_the_reference(e)
    emptied()


# ---------------------------------------------------------------------------
# the smart constructors against the Fraction-based ones they replaced


def ref_mk_mul(c, rest):
    """c * rest as one product node, the coefficient first."""
    factors = rest.factors if isinstance(rest, ex.Mul) else (rest,)
    return ex.Mul((ex.rat(c),) + factors)


def ref_split_coeff(e):
    if isinstance(e, ex.Rat):
        return e.value, ex.ONE
    if isinstance(e, ex.Mul) and isinstance(e.factors[0], ex.Rat):
        rest = e.factors[1:]
        return e.factors[0].value, (rest[0] if len(rest) == 1 else ex.Mul(rest))
    return Fraction(1), e


def ref_add(*terms):
    """The reference: like terms keyed by a rebuilt rest, Fraction sums."""
    acc = {}
    const = Fraction(0)
    for t in [ex._coerce(t) for t in terms]:
        for part in (t.terms if isinstance(t, ex.Add) else (t,)):
            c, rest = ref_split_coeff(part)
            if rest == ex.ONE:
                const += c
            else:
                acc[rest] = acc.get(rest, Fraction(0)) + c
    out = [rest if c == 1 else ref_mk_mul(c, rest) for rest, c in acc.items() if c != 0]
    if const != 0:
        out.append(ex.rat(const))
    if not out:
        return ex.ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda e: e._key)
    return ex.Add(tuple(out))


def ref_mul(*factors):
    """The reference: Fraction coefficient and exponents, pow_ on every base."""
    coeff = Fraction(1)
    powers = {}
    order = []
    for f in [ex._coerce(f) for f in factors]:
        for part in (f.factors if isinstance(f, ex.Mul) else (f,)):
            if isinstance(part, ex.Rat):
                coeff *= part.value
                continue
            base, e = (part.base, part.exp) if isinstance(part, ex.Pow) \
                else (part, Fraction(1))
            if base not in powers:
                powers[base] = Fraction(0)
                order.append(base)
            powers[base] += e
    if coeff == 0:
        return ex.ZERO
    out = []
    rerun = False
    for base in order:
        e = powers[base]
        if e == 0:
            continue
        piece = ref_pow(base, e)
        if piece == ex.ONE:
            continue
        if isinstance(piece, ex.Rat):
            coeff *= piece.value
            continue
        if isinstance(piece, ex.Mul):
            out.extend(piece.factors)
            rerun = True
        else:
            out.append(piece)
            if piece != base and not (isinstance(piece, ex.Pow) and piece.base == base):
                rerun = True
    if coeff == 0:
        return ex.ZERO
    if rerun:
        return ref_mul(ex.rat(coeff), *out)
    if not out:
        return ex.rat(coeff)
    if coeff != 1:
        out.append(ex.rat(coeff))
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda e: e._key)
    return ex.Mul(tuple(out))


def ref_add_content(e):
    cs = [ref_split_coeff(t)[0] for t in e.terms]
    num = 0
    den = 1
    for c in cs:
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    content = Fraction(num, den)
    if content in (0, 1):
        return Fraction(1), e
    return content, ref_add(*[ref_mul(ex.rat(1 / content), t) for t in e.terms])


def ref_pow(base, e):
    base = ex._coerce(base)
    e = e if isinstance(e, Fraction) else Fraction(e)
    if e == 0:
        return ex.ONE
    if e == 1:
        return base
    if base == ex.ONE:
        return ex.ONE
    if isinstance(base, ex.Rat):
        if base.value == 0 and e < 0:
            raise DivisionByZero(f"division by zero: 0^({e})")
        if e.denominator == 1:
            return ex.rat(Fraction(base.value) ** e.numerator)
        if base.value >= 0:
            root = ex._rat_root(base.value, e.denominator)
            if root is not None:
                return ex.rat(root ** e.numerator)
        return ex.Pow(base, e)
    if isinstance(base, ex.Pow) and e.denominator == 1:
        return ref_pow(base.base, base.exp * e)
    if isinstance(base, ex.Mul) and e.denominator == 1:
        return ref_mul(*[ref_pow(f, e) for f in base.factors])
    if isinstance(base, ex.Add):
        content, rest = ref_add_content(base)
        if content != 1:
            if e.denominator == 1:
                return ref_mul(ex.rat(content ** e.numerator), ex.Pow(rest, e))
            root = ex._rat_root(content, e.denominator)
            if root is not None:
                return ref_mul(ex.rat(root ** e.numerator), ex.Pow(rest, e))
    return ex.Pow(base, e)


# A recipe is a construction written out: ("atom", name), ("rat", value),
# ("add", parts), ("mul", parts), ("pow", part, exponent), or ("cancel", a, b)
# for a + b - a, whose like terms cancel and leave b.
# The two raw powers keep the rational content that pow_ takes out, as the
# Pow that ``expand`` builds for the half-integer part of a power does.
RECIPE_ATOMS = {"x": ex.sym("x"), "y": ex.sym("y"), "u0": ex.jet("u", 0),
                "sin(t)": ex.fun("sin", ex.sym("t")), "cos(t)": ex.fun("cos", ex.sym("t")),
                "raw (4x+4y)^(1/2)": ex.Pow(ex.add(ex.mul(4, ex.sym("x")),
                                                   ex.mul(4, ex.sym("y"))), Fraction(1, 2)),
                "raw (2x-2)^(-1)": ex.Pow(ex.add(ex.mul(2, ex.sym("x")), -2), Fraction(-1))}


def X(name):
    return ("atom", name)


def R(value):
    return ("rat", value)


def A(*parts):
    return ("add", parts)


def M(*parts):
    return ("mul", parts)


def P(part, exponent):
    return ("pow", part, exponent)


def assert_same_tree(new, ref):
    """Same node type and the same _key at every level."""
    assert type(new) is type(ref)
    assert new._key == ref._key
    for a, b in zip(ex._children(new), ex._children(ref), strict=True):
        assert_same_tree(a, b)


def build_both(recipe):
    """(kernel tree, reference tree) of a recipe, built bottom-up with the
    kernel's constructors and with the reference ones, compared at each
    construction; DivisionByZero must come from both or from neither."""
    op = recipe[0]
    if op == "atom":
        return RECIPE_ATOMS[recipe[1]], RECIPE_ATOMS[recipe[1]]
    if op == "rat":
        return ex.rat(recipe[1]), ex.rat(recipe[1])
    if op == "pow":
        (new, ref), e = build_both(recipe[1]), recipe[2]
        make_new, make_ref = (lambda: ex.pow_(new, e)), (lambda: ref_pow(ref, e))
    elif op == "cancel":
        (a, ra), (b, rb) = build_both(recipe[1]), build_both(recipe[2])
        make_new = lambda: ex.add(a, b, ex.mul(ex.rat(-1), a))   # noqa: E731
        make_ref = lambda: ref_add(ra, rb, ref_mul(ex.rat(-1), ra))   # noqa: E731
    else:
        kids = [build_both(r) for r in recipe[1]]
        new_fn, ref_fn = (ex.add, ref_add) if op == "add" else (ex.mul, ref_mul)
        make_new = lambda: new_fn(*[k[0] for k in kids])   # noqa: E731
        make_ref = lambda: ref_fn(*[k[1] for k in kids])   # noqa: E731
    try:
        ref = make_ref()
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            make_new()
        raise
    new = make_new()
    assert_same_tree(new, ref)
    return new, ref


def assert_exact_fields(e):
    """Every Rat.value and Pow.exp reachable from e is an int when it is
    integral, else a Fraction."""
    if isinstance(e, ex.Rat):
        assert exact(e.value)
    if isinstance(e, ex.Pow):
        assert exact(e.exp)
    for child in ex._children(e):
        assert_exact_fields(child)


TWO_X_TWO_Y = A(M(R(2), X("x")), M(R(2), X("y")))
CONSTRUCTOR_CASES = [
    A(M(X("x"), X("y")), M(R(-1), X("x"), X("y"))),            # like terms cancel to 0
    A(M(R(3), X("x")), X("y"), M(R(-1), X("y"))),               # a lone 3*x survives
    A(M(R(3), X("x")), M(R(-1), X("x")), X("u0")),              # 3x - x merge to 2x
    ("cancel", A(X("x"), X("u0")), M(R(Fraction(-2, 3)), X("y"))),
    A(R(Fraction(1, 2)), R(Fraction(1, 3)), R(Fraction(-5, 6))),   # only rationals
    M(R(2), R(Fraction(1, 2)), R(-3)),
    P(R(4), Fraction(3, 2)), P(R(Fraction(1, 8)), Fraction(-2, 3)), P(R(2), -2),
    P(TWO_X_TWO_Y, 2), P(TWO_X_TWO_Y, -1),                        # content, integer powers
    P(A(M(R(4), X("x")), M(R(4), X("y"))), Fraction(1, 2)),        # content 4 under a root
    P(TWO_X_TWO_Y, Fraction(1, 2)), P(TWO_X_TWO_Y, Fraction(-3, 2)),
    P(A(M(R(Fraction(1, 2)), X("x")), R(Fraction(1, 2))), Fraction(3, 2)),
    P(A(M(R(Fraction(9, 4)), X("x")), M(R(Fraction(-9, 2)), X("u0"))), Fraction(-1, 2)),
    M(P(TWO_X_TWO_Y, -1), A(X("x"), X("y"))),                    # mul reruns: 1/2
    M(P(A(M(R(4), X("x")), M(R(4), X("y"))), Fraction(1, 2)),
      P(A(X("x"), X("y")), Fraction(1, 2))),
    M(P(R(2), Fraction(1, 2)), P(R(2), Fraction(1, 2))),            # 2^(1/2)*2^(1/2) = 2
    M(P(R(3), Fraction(1, 2)), X("x"), P(R(3), Fraction(3, 2)), R(Fraction(1, 9))),
    M(P(R(2), Fraction(1, 2)), P(R(8), Fraction(1, 2)), X("y")),
    M(P(M(X("x"), X("y")), Fraction(1, 2)), P(M(X("x"), X("y")), Fraction(1, 2))),
    M(P(X("x"), Fraction(1, 2)), P(X("x"), Fraction(1, 2)), X("sin(t)")),
    P(P(X("x"), Fraction(1, 2)), 4), P(M(R(-2), X("x"), P(X("y"), -1)), -3),
    M(X("raw (4x+4y)^(1/2)"), X("x")), M(X("raw (2x-2)^(-1)"), R(3)),
    M(R(1), X("raw (4x+4y)^(1/2)")),           # a lone root: 2*(x + y)^(1/2)
    M(X("raw (2x-2)^(-1)"), R(0)), A(TWO_X_TWO_Y), A(R(0), TWO_X_TWO_Y, R(0)),
    P(R(0), -1),                                                  # raises on both sides
]


@pytest.mark.parametrize("recipe", CONSTRUCTOR_CASES)
def test_constructors_build_the_reference_tree_on_picked_cases(recipe):
    try:
        new, _ = build_both(recipe)
    except DivisionByZero:
        return
    assert_exact_fields(new)


EXPONENTS = [0, 1, -1, 2, -2, 3, Fraction(2), Fraction(-1), Fraction(1, 2),
             Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(1, 3)]
RECIPES = st.recursive(
    st.one_of(st.sampled_from(sorted(RECIPE_ATOMS)).map(X),
              st.sampled_from([0, 1, -1, 2, -2, 3, 4, 8, Fraction(1, 2),
                               Fraction(-3, 2), Fraction(2, 3)]).map(R)),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=4).map(lambda parts: A(*parts)),
        st.lists(inner, min_size=1, max_size=4).map(lambda parts: M(*parts)),
        st.tuples(inner, st.sampled_from(EXPONENTS)).map(lambda pe: P(*pe)),
        st.tuples(inner, inner).map(lambda ab: ("cancel", *ab))),
    max_leaves=10)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(RECIPES)
def test_constructors_build_the_reference_tree_on_drawn_cases(recipe):
    try:
        build_both(recipe)
    except DivisionByZero:
        pass


@settings(max_examples=400, deadline=None, derandomize=True)
@given(RECIPES)
def test_constructed_trees_hold_ints_iff_integral(recipe):
    try:
        new, _ = build_both(recipe)
    except DivisionByZero:
        return
    assert_exact_fields(new)


# the units of the identity checks, and plain ints, which are not an Expr and
# so send a call down the general path
UNITS = [ex.ZERO, ex.ONE, 0, 1, 2, -1]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(RECIPES, st.lists(st.sampled_from(UNITS), max_size=3), st.integers(0, 3),
       st.booleans())
def test_identity_checks_build_what_the_general_path_builds(recipe, units, at, summed):
    # an extra int 0 in a sum, or 1 in a product, changes nothing but the
    # path: the call takes the general one
    try:
        x = build(recipe, RECIPE_ATOMS)
    except DivisionByZero:
        return
    ops = units[:at] + [x] + units[at:]
    if summed:
        got, general = ex.add(*ops), ex.add(*ops, 0)
    else:
        got, general = ex.mul(*ops), ex.mul(*ops, 1)
    assert_same_tree(got, general)
    if summed and all(u is ex.ZERO for u in units):
        assert got is x


@pytest.mark.parametrize("operands", [(None, ex.ZERO), (ex.ZERO, None), (None,)],
                         ids=["x+0", "0+x", "x"])
def test_add_returns_its_lone_operand_itself(operands):
    x = ex.add(ex.mul(2, ex.sym("x")), ex.mul(2, ex.sym("y")))
    assert ex.add(*[x if o is None else o for o in operands]) is x


# ---------------------------------------------------------------------------
# the tree walks and rebuild against the ones they replaced


def ref_walk_atoms(e, kind, found):
    """The reference: the recursive pre-order walk behind ``atoms_of``."""
    if isinstance(e, kind):
        found.add(e)
    for child in ex._children(e):
        ref_walk_atoms(child, kind, found)


def ref_atoms_of(e, kind):
    found = set()
    ref_walk_atoms(e, kind, found)
    return found


def ref_contains_eps(e):
    return bool(ref_atoms_of(e, ex.Eps))


def ref_rebuild(e, fn):
    """The reference: the smart constructor re-applied on every node."""
    if isinstance(e, ex.Add):
        return ex.add(*[fn(t) for t in e.terms])
    if isinstance(e, ex.Mul):
        return ex.mul(*[fn(f) for f in e.factors])
    if isinstance(e, ex.Pow):
        return ex.pow_(fn(e.base), e.exp)
    if isinstance(e, ex.Fun):
        return ex.fun(e.name, fn(e.arg))
    if isinstance(e, ex.AFun):
        return ex.AFun(e.name, tuple(fn(a) for a in e.args), e.deriv, e.family)
    if isinstance(e, ex.AInt):
        return ex.AInt(e.name, fn(e.arg))
    return e


def ref_subst(e, bindings):
    hit = bindings.get(e)
    if hit is not None:
        return hit
    return ref_rebuild(e, lambda c: ref_subst(c, bindings))


def nodes(e):
    """Every node of e, in pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(ex._children(node)))


def build(recipe, atoms):
    """The kernel tree of a recipe, over the given atoms."""
    op = recipe[0]
    if op == "atom":
        return atoms[recipe[1]]
    if op == "rat":
        return ex.rat(recipe[1])
    if op == "pow":
        return ex.pow_(build(recipe[1], atoms), recipe[2])
    if op == "cancel":
        a, b = build(recipe[1], atoms), build(recipe[2], atoms)
        return ex.add(a, b, ex.mul(ex.rat(-1), a))
    parts = [build(r, atoms) for r in recipe[1]]
    return (ex.add if op == "add" else ex.mul)(*parts)


def wrapped(e):
    """e under the node kinds that the recipes do not draw: F(y, Int(F, sin(e)))."""
    return ex.afun("F", (ex.sym("y"), ex.aint("F", ex.fun("sin", e))))


RAW_ATOMS = [a for name, a in RECIPE_ATOMS.items() if name.startswith("raw")]
# the recipe atoms, each raw power replaced by the tree pow_ builds for it
CANONICAL_ATOMS = {name: ex.pow_(a.base, a.exp) if name.startswith("raw") else a
                   for name, a in RECIPE_ATOMS.items()}
SUBSTITUTIONS = [
    {ex.sym("x"): ex.sym("y")},
    {ex.jet("u", 0): ex.add(ex.sym("x"), ex.ONE)},
    {ex.sym("t"): ex.mul(ex.rat(2), ex.sym("t"))},
    {ex.sym("y"): ex.ZERO, ex.sym("x"): ex.neg(ex.sym("x"))},
    {ex.fun("sin", ex.sym("t")): ex.fun("cos", ex.sym("t"))},
    {ex.sym("z"): ex.ONE},   # occurs nowhere
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(RECIPES)
def test_rebuild_keeps_what_the_constructors_rebuild_alike(recipe):
    # a node whose children all come back unchanged is returned as it is;
    # re-applying its constructor, as the reference does, gives the same key
    # on every node the constructors built from canonical children: the
    # reference puts a raw power, and a product that holds one, in canonical
    # form
    try:
        e = wrapped(build(recipe, RECIPE_ATOMS))
    except DivisionByZero:
        return
    for node in nodes(e):
        assert ex.rebuild(node, lambda c: c) is node
        if not any(n is raw for n in (node, *ex._children(node)) for raw in RAW_ATOMS):
            assert ref_rebuild(node, lambda c: c)._key == node._key


@settings(max_examples=400, deadline=None, derandomize=True)
@given(RECIPES, st.sampled_from(SUBSTITUTIONS))
def test_subst_builds_the_reference_tree(recipe, bindings):
    try:
        e = wrapped(build(recipe, CANONICAL_ATOMS))
    except DivisionByZero:
        return
    try:
        ref = ref_subst(e, bindings)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            ex.subst(e, bindings)
        return
    assert_same_tree(ex.subst(e, bindings), ref)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(RECIPES, st.sampled_from(SUBSTITUTIONS))
def test_subst_rebuilds_each_distinct_subtree_once(recipe, bindings):
    # w occurs twice, once in each product; each distinct node that the walk
    # reaches, not under a bound node, is rebuilt once
    try:
        w = wrapped(build(recipe, CANONICAL_ATOMS))
        e = ex.add(ex.mul(w, ex.sym("a")), ex.mul(w, ex.sym("b")))
    except DivisionByZero:
        return
    reached, stack = set(), [e]
    while stack:
        node = stack.pop()
        if node not in bindings and node not in reached:
            reached.add(node)
            stack.extend(ex._children(node))
    calls, real = [0], ex.rebuild

    def counted(node, fn):
        calls[0] += 1
        return real(node, fn)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "rebuild", counted)
        try:
            ex.subst(e, bindings)
        except DivisionByZero:
            return
    assert calls[0] == len(reached)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(RECIPES)
def test_atoms_are_collected_as_by_the_recursive_walk(recipe):
    try:
        e = wrapped(build(recipe, RECIPE_ATOMS))
    except DivisionByZero:
        return
    for kind in (ex.Sym, ex.Jet, ex.Fun, ex.Pow, (ex.Sym, ex.Jet)):
        # the same elements in the same iteration order
        assert list(ex.atoms_of(e, kind)) == list(ref_atoms_of(e, kind))


def ref_text(e, prec):
    """The reference: the recursive printer behind ``to_text``."""
    if isinstance(e, ex.Rat):
        s = _frac_text(e.value)
        if prec >= 2 and (e.value < 0 or e.value.denominator != 1):
            return f"({s})"
        return s
    if isinstance(e, ex.Sym):
        return e.name
    if isinstance(e, ex.Eps):
        return "eps"
    if isinstance(e, ex.Jet):
        core = e.base + ("" if e.order is None else str(e.order))
        if not e.deriv:
            return core
        return "d" * len(e.deriv) + core + "".join("#" + v for v in e.deriv)
    if isinstance(e, ex.Fun):
        return f"{e.name}({ref_text(e.arg, 0)})"
    if isinstance(e, ex.AFun):
        name = e.name if e.family is None else f"{e.name}_{e.family}"
        if len(e.args) == 1:
            name += "'" * e.deriv[0]
        elif any(e.deriv):
            name = "D(" + ",".join(map(str, e.deriv)) + ")" + name
        return f"{name}({', '.join(ref_text(a, 0) for a in e.args)})"
    if isinstance(e, ex.AInt):
        return f"Int({e.name},{ref_text(e.arg, 0)})"
    if isinstance(e, ex.Pow):
        x = _frac_text(e.exp)
        if e.exp < 0 or e.exp.denominator != 1:
            x = f"({x})"
        return f"{ref_text(e.base, 3)}^{x}"
    if isinstance(e, ex.Mul):
        coeff, rest = ex._split_coeff(e)
        factors = rest.factors if isinstance(rest, ex.Mul) else (rest,)
        body = "*".join(ref_text(f, 2) for f in factors)
        if coeff == 1:
            s = body
        elif coeff == -1:
            s = f"-{body}"
        else:
            s = f"{_frac_text(coeff)}*{body}"
        return f"({s})" if prec >= 2 else s
    if isinstance(e, ex.Add):
        parts = []
        for i, t in enumerate(e.terms):
            s = ref_text(t, 1)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        s = "".join(parts)
        return f"({s})" if prec >= 1 else s
    raise TypeError(f"cannot print {type(e).__name__}")


def ref_latex(e, prec):
    """The reference: the recursive LaTeX printer that ``to_latex`` replaced."""
    if isinstance(e, ex.Rat):
        v = e.value
        if v.denominator == 1:
            s = str(v.numerator)
        else:
            sign = "-" if v < 0 else ""
            s = f"{sign}\\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"
        return f"\\left({s}\\right)" if prec >= 2 and v < 0 else s
    if isinstance(e, ex.Sym):
        return _latex_name(e.name)
    if isinstance(e, ex.Eps):
        return "\\varepsilon"
    if isinstance(e, ex.Jet):
        sub = "" if e.order is None else f"_{{({e.order})}}"
        core = _latex_name(e.base) + sub
        nd = len(e.deriv)
        if nd == 0:
            return core
        if set(e.deriv) == {"t"}:
            return ("\\dot " if nd == 1 else "\\ddot " if nd == 2 else
                    f"\\frac{{d^{nd}}}{{dt^{nd}}}") + core
        num = f"\\partial^{nd}" if nd > 1 else "\\partial"
        den = "\\,".join(f"\\partial {v}" for v in e.deriv)
        return f"\\frac{{{num} {core}}}{{{den}}}"
    if isinstance(e, ex.Fun):
        return f"\\{e.name}\\left({ref_latex(e.arg, 0)}\\right)"
    if isinstance(e, ex.AFun):
        name = e.name if e.family is None else f"{e.name}_{{({e.family})}}"
        if len(e.args) == 1 and e.deriv[0]:
            name += "'" * e.deriv[0]
        return f"{name}\\left({', '.join(ref_latex(a, 0) for a in e.args)}\\right)"
    if isinstance(e, ex.AInt):
        a = ref_latex(e.arg, 0)
        return f"\\int {e.name}({a})\\,d{a}"
    if isinstance(e, ex.Pow):
        if e.exp < 0:
            return f"\\frac{{1}}{{{ref_latex(ex.pow_(e.base, -e.exp), 0)}}}"
        if e.exp == Fraction(1, 2):
            return f"\\sqrt{{{ref_latex(e.base, 0)}}}"
        return f"{ref_latex(e.base, 3)}^{{{_frac_text(e.exp)}}}"
    if isinstance(e, ex.Mul):
        coeff, rest = ex._split_coeff(e)
        factors = rest.factors if isinstance(rest, ex.Mul) else (rest,)
        num, den = [], []
        for f in factors:
            if isinstance(f, ex.Pow) and f.exp < 0:
                den.append(ex.pow_(f.base, -f.exp))
            else:
                num.append(f)
        if den:
            dtex = "\\,".join(ref_latex(f, 2) for f in den)
            ntex = "\\,".join(ref_latex(f, 2) for f in num) if num else "1"
            body = f"\\frac{{{ntex}}}{{{dtex}}}"
        else:
            body = "\\,".join(ref_latex(f, 2) for f in num)
        if coeff == 1:
            s = body
        elif coeff == -1:
            s = f"-{body}"
        else:
            s = f"{ref_latex(ex.rat(coeff), 1)}\\,{body}"
        return f"\\left({s}\\right)" if prec >= 2 else s
    if isinstance(e, ex.Add):
        parts = []
        for i, t in enumerate(e.terms):
            s = ref_latex(t, 1)
            if i == 0:
                parts.append(s)
            else:
                parts.append((" - " + s[1:]) if s.startswith("-") else (" + " + s))
        s = "".join(parts)
        return f"\\left({s}\\right)" if prec >= 1 else s
    raise TypeError(f"cannot print {type(e).__name__}")


# leaves and names that the recipes do not draw
PRINTED_EXTRAS = [
    ex.EPS, ex.jet("u", 1, ("t", "t")), ex.jet("u", None, ("t",)), ex.jet("v", None),
    ex.afun("F", (ex.sym("t"),), (2,)), ex.afun("G", (ex.sym("t"), ex.jet("u", 0)), (1, 0)),
    ex.afun("xi", (ex.sym("t"), ex.jet("u", 0)), None, 1),
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(RECIPES, st.sampled_from(PRINTED_EXTRAS))
def test_text_is_printed_as_by_the_recursive_printer(recipe, extra):
    try:
        e = wrapped(build(recipe, RECIPE_ATOMS))
    except DivisionByZero:
        return
    for tree in (e, ex.add(ex.mul(ex.rat(Fraction(-2, 3)), extra, e), ex.pow_(extra, -1))):
        for node in nodes(tree):
            assert to_text(node) == ref_text(node, 0)
            assert to_latex(node) == ref_latex(node, 0)


# one node of each kind that holds others, with e as its only eps-bearing child
EPS_HOLDERS = {
    ex.Fun: lambda e: ex.fun("exp", e),
    ex.AFun: lambda e: ex.afun("F", (ex.sym("t"), e)),
    ex.AInt: lambda e: ex.aint("F", e),
    ex.Pow: lambda e: ex.pow_(e, Fraction(1, 2)),
    ex.Mul: lambda e: ex.mul(ex.sym("t"), e),
    ex.Add: lambda e: ex.add(ex.sym("t"), e),
}


@pytest.mark.parametrize("kind", EPS_HOLDERS, ids=lambda k: k.__name__)
def test_eps_flag_passes_through_each_node_kind(kind):
    for leaf, present in ((ex.EPS, True), (ex.sym("s"), False)):
        inner = EPS_HOLDERS[kind](leaf)
        assert type(inner) is kind
        for outer in [lambda e: e, *EPS_HOLDERS.values()]:
            e = outer(inner)
            assert ex.contains_eps(e) is ref_contains_eps(e) is present


def test_walks_and_series_reach_the_bottom_of_a_deep_tree():
    from approxsym.perturb import EpsSeries

    def nest(e):
        for i in range(3000):
            e = ex.fun("sin", e) if i % 2 == 0 else ex.pow_(ex.add(e, ex.ONE), 3)
        return e

    u0 = ex.jet("u", 0)
    e = nest(u0)
    assert ex.contains_eps(e) is False
    assert ex.jets_of(e) == {u0}
    assert len(ex.atoms_of(e, ex.Fun)) == len(ex.atoms_of(e, ex.Pow)) == 1500
    assert EpsSeries((e,)).coeffs == (e,)
    assert ex.contains_eps(nest(ex.add(u0, ex.EPS))) is True
    text = repr(e)
    assert text.startswith("(1 + sin((1 + sin(") and text.count("sin(") == 1500
    latex = to_latex(e)
    assert latex.startswith("\\left(1 + \\sin\\left(\\left(1 + ")
    assert latex.count("\\sin\\left(") == 1500
    with pytest.raises(ValueError, match="contains eps"):
        EpsSeries((ex.mul(e, ex.EPS),))


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


def test_clear_caches_empties_all_but_the_interned_rationals():
    ex.clear_caches()
    ex.expand(p("(t + 1)^2*u0"))
    assert ex.is_zero(p("(1 + u0)^2*(1 + u0)^(-1) - 1 - u0")) is True
    assert ex.is_zero(p("t*(1 + u0)^(-1) - t")) is False   # interns atoms
    ex.diff(p("sin(t)*u0^2"), ex.jet("u", 0))
    stats = ex.cache_stats()
    for cache in ("expand", "normal_form", "memo", "gradient"):
        assert stats[cache]["entries"] and stats[cache]["misses"]
    assert stats["memo"]["atoms"]
    rationals = stats["rat"]["entries"]
    ex.clear_caches()
    stats = ex.cache_stats()
    assert stats.pop("rat") == {"entries": rationals, "bound": ex._BOUND, "full": False}
    assert stats.pop("memo") == {"entries": 0, "atoms": 0, "held": 0, "clears": 0,
                                 "hits": 0, "misses": 0}
    assert stats == {c: {"entries": 0, "held": 0, "clears": 0, "hits": 0, "misses": 0}
                     for c in ("expand", "normal_form", "gradient")}
    assert not (ex._ATOM_IDS or ex._ATOM_OF or ex._ROOT_IDS or ex._KEYS)
    assert ex.rat(0) is ex.ZERO and ex.rat(1) is ex.ONE


def test_interned_rationals_stay_within_the_bound(monkeypatch):
    # on a copy of the table, so the interned rationals are as before after
    monkeypatch.setattr(ex, "_RAT_CACHE", dict(ex._RAT_CACHE))
    values = [Fraction(k, 7) for k in range(-ex._BOUND, ex._BOUND)]
    built = [ex.rat(v) for v in values]
    assert len(ex._RAT_CACHE) == ex._BOUND
    assert ex.cache_stats()["rat"] == {"entries": ex._BOUND, "bound": ex._BOUND,
                                       "full": True}
    assert all(r.value == v and exact(r.value) for r, v in zip(built, values))
    # past the bound a rational is built again, equal but not the same node
    again = ex.rat(values[-1])
    assert again == built[-1] and again is not built[-1]
    assert len(ex._RAT_CACHE) == ex._BOUND
    # the units stay interned, so the constructors' identity checks hold
    assert ex.rat(0) is ex.ZERO and ex.rat(Fraction(0, 3)) is ex.ZERO
    assert ex.rat(1) is ex.ONE and ex.rat(Fraction(7, 7)) is ex.ONE
    x = ex.sym("x")
    assert ex.add(ex.rat(0), x) is x and ex.mul(ex.rat(Fraction(1)), x) is x
