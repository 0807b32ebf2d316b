"""Grammar corners, error reporting, LaTeX emitter."""

import tracemalloc
from fractions import Fraction

import pytest

from approxsym import expr as ex
from approxsym.errors import NumberTooLong, SyntaxErrorAt
from approxsym.lang import MAX_DERIVATIVE, MAX_NESTING, Language, to_latex, to_text

L = Language(independent=["t"], dependent=["u", "v"], functions={"F": 1},
             constants={"alpha"})


def test_derivative_token_forms_agree():
    assert L.parse("ddu0#t#t") == L.parse("d2u0#t2")
    assert L.parse("du0#t") == ex.jet("u", 0, ("t",))


def test_base_variables_without_order():
    e = L.parse("du#t * u")
    assert ex.jet("u", None) in ex.jets_of(e)
    assert ex.jet("u", None, ("t",)) in ex.jets_of(e)


def test_digit_suffixed_dependent_bases():
    lang = Language(independent=["t"], dependent=["x1", "y1"])
    assert lang.parse("x10") == ex.jet("x1", 0)
    assert lang.parse("dx11#t") == ex.jet("x1", 1, ("t",))


def test_precedence_and_unary_minus():
    assert L.parse("-u0^2") == ex.neg(ex.pow_(ex.jet("u", 0), 2))
    assert L.parse("2*u0+v0*3") == L.parse("3*v0+u0*2")
    assert L.parse("2+3*4") == ex.rat(14)


def test_sqrt_and_fractional_powers():
    from fractions import Fraction
    assert L.parse("sqrt(x)") == ex.pow_(ex.sym("x"), Fraction(1, 2))
    assert L.parse("x^(1/2)") == ex.pow_(ex.sym("x"), Fraction(1, 2))
    assert L.parse("x^(-3/2)") == ex.pow_(ex.sym("x"), Fraction(-3, 2))


def test_eps_and_function_tokens():
    assert L.parse("eps") is ex.EPS
    assert L.parse("F'(u0)") == ex.afun("F", (ex.jet("u", 0),), (1,))
    assert L.parse("F''(u0)") == ex.afun("F", (ex.jet("u", 0),), (2,))
    assert L.parse("Int(F,u0)") == ex.aint("F", ex.jet("u", 0))
    assert L.parse("xi_1(t,u0)") == ex.afun("xi", (ex.sym("t"), ex.jet("u", 0)),
                                            family=1)


def test_syntax_error_carries_line_and_column():
    with pytest.raises(SyntaxErrorAt) as err:
        L.parse("u0 +\n* 2")
    assert err.value.line == 2
    assert err.value.column == 1


def test_long_sign_chains_parse_iteratively():
    u = ex.jet("u", 0)
    assert L.parse("-" * 2000 + "u0") == u
    assert L.parse("-" * 2001 + "u0") == ex.neg(u)
    assert L.parse("+-" * 1000 + "u0") == u
    assert L.parse("2*-+-u0") == ex.mul(ex.rat(2), u)


def test_nesting_depth_is_bounded():
    deep = MAX_NESTING + 1
    assert L.parse("(" * MAX_NESTING + "u0" + ")" * MAX_NESTING) == ex.jet("u", 0)
    with pytest.raises(SyntaxErrorAt) as err:
        L.parse("(" * deep + "u0" + ")" * deep)
    assert err.value.column == deep
    # exponents and call arguments nest too
    for text in ("u0^" + "(" * deep + "2" + ")" * deep,
                 "sin(" * deep + "t" + ")" * deep):
        with pytest.raises(SyntaxErrorAt):
            L.parse(text)


def test_derivative_orders_are_bounded_before_any_list_is_built():
    top = "d" + str(MAX_DERIVATIVE) + "u0#t" + str(MAX_DERIVATIVE)
    assert L.parse(top) == ex.jet("u", 0, ["t"] * MAX_DERIVATIVE)
    for text in ("du0#t1000000", "d1000000u0#t1000000", "d" * 100 + "u0#t",
                 "d" + str(MAX_DERIVATIVE + 1) + "u0#t" + str(MAX_DERIVATIVE + 1),
                 "d2u0#t#t#t"):
        tracemalloc.start()
        try:
            with pytest.raises(SyntaxErrorAt) as err:
                L.parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, text
        assert len(str(err.value)) < 200


def test_undeclared_names_parse_as_symbols_and_functions():
    # a model rejects them after parsing (models._declared)
    lang = Language(independent=["t"], dependent=["u"])
    assert lang.parse("mystery") == ex.sym("mystery")
    assert lang.parse("G(t)") == ex.afun("G", [ex.sym("t")])
    assert lang.parse("t + u0") == ex.add(ex.sym("t"), ex.jet("u", 0))


def test_numbers_longer_than_int_converts():
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits
    digits = "7" * 5000
    for text in (digits, "u0^" + digits, "u0^(1/" + digits + ")", "xi_" + digits + "(t)",
                 "d" + digits + "u0#t", "du0#t" + digits):
        with pytest.raises(SyntaxErrorAt, match="number of 5000 digits is too long"):
            L.parse(text)
    # an eps order of that length is above any max_eps_order: not a jet
    assert L.parse("u" + digits) == ex.sym("u" + digits)
    with pytest.raises(NumberTooLong):
        to_text(ex.pow_(ex.rat(2), 20000))


def test_exponent_with_a_zero_denominator_is_a_syntax_error():
    for text, column in (("u0^(1/0)", 7), ("t^-3/0", 6), ("u0^((2/00))", 8)):
        with pytest.raises(SyntaxErrorAt, match="zero denominator") as err:
            L.parse(text)
        assert err.value.column == column, text


@pytest.mark.parametrize("text, column", [
    ("du0#t2a", 5), ("d2u0#t2a", 6), ("d2u0#t#t1_", 8), ("u0 + \n  du0#t2a", 7)])
def test_derivative_suffix_with_letters_after_its_count(text, column):
    with pytest.raises(SyntaxErrorAt, match="is not a variable with a count") as err:
        L.parse(text)
    assert (err.value.line, err.value.column) == (text.count("\n") + 1, column)


def test_float_literals_rejected():
    with pytest.raises(SyntaxErrorAt):
        L.parse("0.5*u0")


def test_latex_emitter_shapes():
    assert to_latex(ex.jet("u", 0, ("t",))) == "\\dot u_{(0)}"
    assert to_latex(ex.jet("u", 1, ("t", "t"))) == "\\ddot u_{(1)}"
    assert "\\varepsilon" in to_latex(ex.EPS)
    assert "\\frac" in to_latex(L.parse("u0/v0"))
    assert "\\int F" in to_latex(L.parse("Int(F,u0)"))


def test_print_is_deterministic():
    texts = {to_text(L.parse("v0*u0 + u0*v0 + sin(t)*cos(t)")) for _ in range(5)}
    assert len(texts) == 1
