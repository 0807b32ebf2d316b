"""Text grammar, pretty printer and LaTeX emitter.

Grammar (also the print format): ``+ - * / ^`` with standard precedence and
a right-associative ``^``; jet coordinates are written ``u0``, ``u1``, ``v0``
for u_(0), u_(1), v_(0); derivatives ``du0#t``, ``ddu0#t#t`` or ``d2u0#t2``;
unexpanded base variables drop the order digits (``u``, ``du#t``); arbitrary
functions ``F(u0)``, derivatives ``F'(u0)``, antiderivatives ``Int(F,u0)``;
the small parameter is ``eps``.  Parsing then printing then parsing is
idempotent; the parser performs no rewriting beyond canonical ordering.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from . import expr as ex
from .errors import NumberTooLong, SyntaxErrorAt

__all__ = ["Language", "parse", "to_text", "to_latex"]

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*'*)
  | (?P<op>\*\*|[()+\-*/^,\#])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        s = m.group()
        if kind == "bad":
            raise SyntaxErrorAt(f"unexpected character {s!r}", line, col)
        if kind != "ws":
            toks.append(_Token(kind, s, line, col))
        nl = s.count("\n")
        if nl:
            line += nl
            col = len(s) - s.rfind("\n")
        else:
            col += len(s)
    toks.append(_Token("end", "", line, col))
    return toks


class Language:
    """Parsing/printing context: which names mean what.

    ``dependent`` / ``independent`` come from the jet space; ``functions``
    maps arbitrary-function names to arities; ``constants`` are additional
    declared symbols.  Any other identifier parses as a symbol; a model
    rejects the names it did not declare after parsing.
    """

    def __init__(self, independent=("t",), dependent=("u",), functions=None,
                 constants=(), max_eps_order=9):
        self.independent = tuple(independent)
        self.dependent = tuple(dependent)
        self.functions = dict(functions or {})
        self.constants = set(constants)
        self.max_eps_order = max_eps_order

    def split_jet_name(self, name: str) -> tuple[str, int | None] | None:
        """Match ``name`` against declared dependents with optional eps order.

        The longest declared base wins, so bases may themselves end in
        digits (x1, y2, ...) without ambiguity.
        """
        if name in self.dependent:
            return name, None
        for i in range(len(name) - 1, 0, -1):
            if name[i:].isdigit() and name[:i] in self.dependent:
                try:
                    order = int(name[i:])
                except ValueError:   # too many digits: far above max_eps_order
                    continue
                if order <= self.max_eps_order:
                    return name[:i], order
        return None

    def parse(self, text: str) -> ex.Expr:
        return _Parser(self, text).parse()


def parse(text: str, language: Language | None = None) -> ex.Expr:
    return (language or Language()).parse(text)


# Deepest parenthesis nesting (grouping, exponents, call arguments) the
# parser accepts.  It descends recursively, several frames per level, so the
# bound keeps deep input a SyntaxErrorAt instead of a RecursionError.
MAX_NESTING = 64
# Highest derivative order the parser accepts.  Every jet space refuses
# orders above its max_derivative + 1, so the bound keeps ``d1000000u0#t...``
# from building a list of a million suffixes first.
MAX_DERIVATIVE = 64


class _Parser:
    def __init__(self, lang: Language, text: str):
        self.lang = lang
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise SyntaxErrorAt(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def open_paren(self) -> None:
        t = self.expect("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SyntaxErrorAt(f"parentheses nested deeper than {MAX_NESTING}",
                                t.line, t.col)

    def close_paren(self) -> None:
        self.expect(")")
        self.depth -= 1

    def integer(self, digits: str, t: _Token) -> int:
        """The int a run of digits spells, or a SyntaxErrorAt at t when it
        is longer than ``int`` converts (``sys.get_int_max_str_digits``)."""
        try:
            return int(digits)
        except ValueError:
            raise SyntaxErrorAt(f"number of {len(digits)} digits is too long",
                                t.line, t.col) from None

    def error(self, msg: str):
        t = self.peek()
        raise SyntaxErrorAt(msg, t.line, t.col)

    def parse(self) -> ex.Expr:
        e = self.expression()
        t = self.peek()
        if t.kind != "end":
            self.error(f"trailing input {t.text!r}")
        return e

    def expression(self) -> ex.Expr:
        terms = [self.term()]
        while self.peek().text in ("+", "-"):
            op = self.next().text
            t = self.term()
            terms.append(t if op == "+" else ex.neg(t))
        return ex.add(*terms)

    def term(self) -> ex.Expr:
        factors = [self.unary()]
        while self.peek().text in ("*", "/"):
            op = self.next().text
            f = self.unary()
            factors.append(f if op == "*" else ex.pow_(f, Fraction(-1)))
        return ex.mul(*factors)

    def unary(self) -> ex.Expr:
        negative = False
        while self.peek().text in ("-", "+"):
            negative ^= self.next().text == "-"
        e = self.power()
        return ex.neg(e) if negative else e

    def power(self) -> ex.Expr:
        base = self.primary()
        if self.peek().text in ("^", "**"):
            self.next()
            e = self.exponent()
            return ex.pow_(base, e)
        return base

    def exponent(self) -> Fraction:
        neg_ = False
        if self.peek().text == "-":
            self.next()
            neg_ = True
        if self.peek().text == "(":
            self.open_paren()
            e = self.exponent()
            self.close_paren()
        else:
            t = self.next()
            if t.kind != "num":
                raise SyntaxErrorAt("exponent must be rational", t.line, t.col)
            e = Fraction(self.integer(t.text, t))
            if self.peek().text == "/":
                save = self.pos
                self.next()
                d = self.peek()
                if d.kind == "num":
                    self.next()
                    q = self.integer(d.text, d)
                    if not q:
                        raise SyntaxErrorAt("exponent has a zero denominator", d.line, d.col)
                    e = Fraction(e, q)
                else:
                    self.pos = save
        return -e if neg_ else e

    def primary(self) -> ex.Expr:
        t = self.peek()
        if t.text == "(":
            self.open_paren()
            e = self.expression()
            self.close_paren()
            return e
        if t.kind == "num":
            self.next()
            return ex.rat(self.integer(t.text, t))
        if t.kind == "name":
            return self.name()
        self.error(f"unexpected token {t.text!r}")

    def name(self) -> ex.Expr:
        t = self.next()
        name = t.text
        primes = 0
        while name.endswith("'"):
            primes += 1
            name = name[:-1]
        if primes and self.peek().text != "(":
            raise SyntaxErrorAt("derivative quote requires a function call", t.line, t.col)
        if name == "eps":
            return ex.EPS
        if name == "Int":
            self.open_paren()
            fn = self.next()
            if fn.kind != "name":
                raise SyntaxErrorAt("Int(F, arg) needs a function name", fn.line, fn.col)
            self.expect(",")
            arg = self.expression()
            self.close_paren()
            return ex.aint(fn.text, arg)
        if self.peek().text == "(":
            return self.call(name, primes, t)
        if primes:
            raise SyntaxErrorAt("dangling derivative quote", t.line, t.col)
        return self.leaf(name, t)

    def call(self, name: str, primes: int, t: _Token) -> ex.Expr:
        self.open_paren()
        args = [self.expression()]
        while self.peek().text == ",":
            self.next()
            args.append(self.expression())
        self.close_paren()
        if name in ex.ELEMENTARY:
            if primes or len(args) != 1:
                raise SyntaxErrorAt(f"{name} takes one argument", t.line, t.col)
            return ex.fun(name, args[0])
        if name == "sqrt":
            if primes or len(args) != 1:
                raise SyntaxErrorAt("sqrt takes one argument", t.line, t.col)
            return ex.pow_(args[0], Fraction(1, 2))
        family = None
        m = re.fullmatch(r"(.+?)_(\d+)", name)
        if m:
            name, family = m.group(1), self.integer(m.group(2), t)
        arity = self.lang.functions.get(name)
        if arity is not None and arity != len(args):
            raise SyntaxErrorAt(f"{name} expects {arity} argument(s)", t.line, t.col)
        deriv = [0] * len(args)
        if primes:
            if len(args) != 1:
                raise SyntaxErrorAt("quoted derivative only for unary functions", t.line, t.col)
            deriv[0] = primes
        return ex.afun(name, args, deriv, family)

    def leaf(self, name: str, t: _Token) -> ex.Expr:
        # derivative prefix: d...d<name>#x#y  or  d<n><name>#x<n>
        m = re.fullmatch(r"(d+)(\d*)(.+)", name)
        if m and (self.peek().text == "#" or (m.group(1) == "d" and m.group(2))):
            return self.derivative(m.group(1), m.group(2), m.group(3), t)
        hit = self.lang.split_jet_name(name)
        if hit:
            return ex.jet(hit[0], hit[1])
        return ex.sym(name)

    def derivative(self, ds: str, count: str, rest: str, t: _Token) -> ex.Expr:
        hit = self.lang.split_jet_name(rest)
        if not hit:
            # not a declared dependent: treat the whole identifier as a symbol
            return ex.sym(ds + count + rest)
        base, order = hit
        n = self.integer(count, t) if count else len(ds)
        if n > MAX_DERIVATIVE:
            raise SyntaxErrorAt(f"derivative order {n} is above {MAX_DERIVATIVE}", t.line, t.col)
        vs: list[str] = []
        while self.peek().text == "#":
            self.next()
            v = self.next()
            if v.kind != "name":
                raise SyntaxErrorAt("expected independent variable after '#'", v.line, v.col)
            m = re.fullmatch(r"([A-Za-z_]+)(\d*)", v.text)
            if m is None:
                raise SyntaxErrorAt(f"suffix {v.text!r} is not a variable with a count",
                                    v.line, v.col)
            vname, rep = m.group(1), self.integer(m.group(2) or "1", v)
            if vname not in self.lang.independent:
                raise SyntaxErrorAt(f"{vname!r} is not an independent variable", v.line, v.col)
            if len(vs) + rep > n:
                raise SyntaxErrorAt(f"derivative count {n} is less than its suffixes",
                                    v.line, v.col)
            vs.extend([vname] * rep)
        if not vs:
            raise SyntaxErrorAt("derivative needs '#var' suffixes", t.line, t.col)
        if len(vs) != n:
            raise SyntaxErrorAt(f"derivative count {n} does not match suffixes {vs}", t.line, t.col)
        return ex.jet(base, order, vs)


# ---------------------------------------------------------------------------
# printers


def _frac_text(v: Fraction) -> str:
    try:
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    except ValueError:
        raise NumberTooLong(f"a rational of more than {sys.get_int_max_str_digits()} "
                            "digits is too long to print") from None


def to_text(e: ex.Expr) -> str:
    """The text form of e, as ``Language.parse`` reads it."""
    return _print(e, _text_node)


def _print(e: ex.Expr, node_of) -> str:
    """e printed by ``node_of`` (``_text_node`` or ``_latex_node``).

    Walks with an explicit stack, so that a tree of any depth prints.  A
    frame holds an iterator over a node's children, the texts printed of
    them so far and how to print and join those (see ``_text_node``); a
    leaf child is printed in place.
    """
    stack = [(iter((e,)), [], 0, "", "", "")]   # the root frame holds e alone
    while True:
        frame = stack[-1]
        texts, prec = frame[1], frame[2]
        for child in frame[0]:
            node = node_of(child, prec)
            if isinstance(node, str):
                texts.append(node)
            else:
                stack.append((iter(node[0]), [], *node[1:]))
                break
        else:
            stack.pop()
            _, _, _, prefix, sep, suffix = frame
            if sep is None:   # a sum: the sign of each later term is its operator
                body = texts[0] + "".join(" - " + s[1:] if s.startswith("-") else " + " + s
                                          for s in texts[1:])
            else:
                body = sep.join(texts)
            if not stack:
                return prefix + body + suffix
            stack[-1][1].append(prefix + body + suffix)


# precedence levels: 0 add, 1 mul, 2 unary/pow operand, 3 atom
def _text_node(e: ex.Expr, prec: int):
    """The text of a leaf; for any other node, its children, the precedence
    they are printed at, and the prefix, separator (None for a sum) and
    suffix around their texts."""
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
        return (e.arg,), 0, e.name + "(", "", ")"
    if isinstance(e, ex.AFun):
        name = e.name if e.family is None else f"{e.name}_{e.family}"
        if len(e.args) == 1:
            name += "'" * e.deriv[0]
        elif any(e.deriv):
            name = "D(" + ",".join(map(str, e.deriv)) + ")" + name
        return e.args, 0, name + "(", ", ", ")"
    if isinstance(e, ex.AInt):
        return (e.arg,), 0, f"Int({e.name},", "", ")"
    if isinstance(e, ex.Pow):
        x = _frac_text(e.exp)
        if e.exp < 0 or e.exp.denominator != 1:
            x = f"({x})"
        return (e.base,), 3, "", "", "^" + x
    if isinstance(e, ex.Mul):
        coeff, rest = ex._split_coeff(e)
        factors = rest.factors if isinstance(rest, ex.Mul) else (rest,)
        sign = "" if coeff == 1 else "-" if coeff == -1 else _frac_text(coeff) + "*"
        return (factors, 2, "(" + sign, "*", ")") if prec >= 2 else (factors, 2, sign, "*", "")
    if isinstance(e, ex.Add):
        return (e.terms, 1, "(", None, ")") if prec >= 1 else (e.terms, 1, "", None, "")
    raise TypeError(f"cannot print {type(e).__name__}")


_GREEK = {"alpha", "beta", "gamma", "delta", "kappa", "lam", "lambda", "mu",
          "nu", "omega", "sigma", "tau", "eps", "epsilon", "varepsilon"}


def _latex_name(name: str) -> str:
    m = re.fullmatch(r"([A-Za-z]+)(\d+)", name)
    stem, sub = (m.group(1), m.group(2)) if m else (name, "")
    if stem in _GREEK:
        stem = "\\" + ("varepsilon" if stem == "eps" else stem)
    return f"{stem}_{{{sub}}}" if sub else stem


def to_latex(e: ex.Expr) -> str:
    return _print(e, _latex_node)


def _latex_node(e, prec: int):
    """As ``_text_node``, in LaTeX.  A product with a denominator has two
    children, the tuples of its numerator and denominator factors, each
    printed as one node."""
    if isinstance(e, tuple):
        return e, 2, "", "\\,", ""
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
        return (e.arg,), 0, f"\\{e.name}\\left(", "", "\\right)"
    if isinstance(e, ex.AFun):
        name = e.name if e.family is None else f"{e.name}_{{({e.family})}}"
        if len(e.args) == 1 and e.deriv[0]:
            name += "'" * e.deriv[0]
        return e.args, 0, name + "\\left(", ", ", "\\right)"
    if isinstance(e, ex.AInt):   # \int F(a)\,da
        return (e.arg, e.arg), 0, f"\\int {e.name}(", ")\\,d", ""
    if isinstance(e, ex.Pow):
        if e.exp < 0:
            return (ex.pow_(e.base, -e.exp),), 0, "\\frac{1}{", "", "}"
        if e.exp == Fraction(1, 2):
            return (e.base,), 0, "\\sqrt{", "", "}"
        return (e.base,), 3, "", "", f"^{{{_frac_text(e.exp)}}}"
    if isinstance(e, ex.Mul):
        coeff, rest = ex._split_coeff(e)
        factors = rest.factors if isinstance(rest, ex.Mul) else (rest,)
        num = tuple(f for f in factors if not (isinstance(f, ex.Pow) and f.exp < 0))
        den = tuple(ex.pow_(f.base, -f.exp) for f in factors
                    if isinstance(f, ex.Pow) and f.exp < 0)
        sign = "" if coeff == 1 else "-" if coeff == -1 else \
            _latex_node(ex.rat(coeff), 1) + "\\,"
        left, right = ("\\left(", "\\right)") if prec >= 2 else ("", "")
        if den:
            return (num or (ex.ONE,), den), 2, left + sign + "\\frac{", "}{", "}" + right
        return num, 2, left + sign, "\\,", right
    if isinstance(e, ex.Add):
        return (e.terms, 1, "\\left(", None, "\\right)") if prec >= 1 else \
            (e.terms, 1, "", None, "")
    raise TypeError(f"cannot print {type(e).__name__}")

