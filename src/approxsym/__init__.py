"""Approximate variational symmetries and conservation laws of perturbed Lagrangians."""

from .expr import (
    Expr, Rat, Sym, Eps, Jet, Fun, AFun, AInt, Pow, Mul, Add,
    ZERO, ONE, EPS, rat, sym, jet, fun, afun, aint, add, mul, pow_, neg, sub,
    div, diff, subst, expand, collect, is_zero, UNKNOWN,
)
from .lang import Language, parse, to_text, to_latex

__all__ = [
    "Expr", "Rat", "Sym", "Eps", "Jet", "Fun", "AFun", "AInt", "Pow", "Mul",
    "Add", "ZERO", "ONE", "EPS", "rat", "sym", "jet", "fun", "afun", "aint",
    "add", "mul", "pow_", "neg", "sub", "div", "diff", "subst", "expand",
    "collect", "is_zero", "UNKNOWN", "Language", "parse", "to_text",
    "to_latex",
]

__version__ = "0.1.0"
