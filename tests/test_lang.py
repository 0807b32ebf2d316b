"""Grammar corners, error reporting, strict mode, LaTeX/JSON emitters."""

import pytest

from approxsym import expr as ex
from approxsym.errors import SyntaxErrorAt, UnknownSymbol
from approxsym.lang import MAX_NESTING, Language, to_json, to_latex, to_text

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


def test_strict_mode_rejects_unknown_symbols():
    strict = Language(independent=["t"], dependent=["u"], strict=True)
    with pytest.raises(UnknownSymbol):
        strict.parse("mystery")
    assert strict.parse("t + u0") == ex.add(ex.sym("t"), ex.jet("u", 0))
    lax = Language(independent=["t"], dependent=["u"])
    assert lax.parse("mystery") == ex.sym("mystery")


def test_float_literals_rejected():
    with pytest.raises(SyntaxErrorAt):
        L.parse("0.5*u0")


def test_latex_emitter_shapes():
    assert to_latex(ex.jet("u", 0, ("t",))) == "\\dot u_{(0)}"
    assert to_latex(ex.jet("u", 1, ("t", "t"))) == "\\ddot u_{(1)}"
    assert "\\varepsilon" in to_latex(ex.EPS)
    assert "\\frac" in to_latex(L.parse("u0/v0"))
    assert "\\int F" in to_latex(L.parse("Int(F,u0)"))


def test_json_tree_schema():
    tree = to_json(L.parse("u0 + 2*sin(t)"))
    assert tree["op"] == "add"
    ops = {a["op"] for a in tree["args"]}
    assert "jet" in ops and "mul" in ops


def test_print_is_deterministic():
    texts = {to_text(L.parse("v0*u0 + u0*v0 + sin(t)*cos(t)")) for _ in range(5)}
    assert len(texts) == 1
