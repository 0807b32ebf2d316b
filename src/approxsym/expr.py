"""Immutable symbolic expression kernel with exact rational arithmetic.

Expression trees are built over named symbols, jet coordinates, the small
parameter eps, elementary functions (sin, cos, exp, log), opaque arbitrary
functions F(...) with derivative multi-indices, and a single antiderivative
node Int(F, u) for unary F.  Smart constructors keep every tree in a
canonical form: sums and products are flattened and sorted under a fixed
total order, rational constants are folded, like terms and like powers are
combined, and zero/one units are elided.  Products are NOT distributed over
sums by the constructors; ``expand`` does that explicitly, and the zero
decision ``is_zero`` additionally applies the trigonometric rewrite rules
(integer multiple angles expanded, sin^2 reduced modulo 1 - cos^2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import NotPolynomial

__all__ = [
    "Expr", "Rat", "Sym", "Eps", "Jet", "Fun", "AFun", "AInt", "Pow", "Mul", "Add",
    "ZERO", "ONE", "EPS", "rat", "sym", "jet", "fun", "afun", "aint", "add", "mul",
    "pow_", "neg", "sub", "div", "rebuild", "diff", "subst", "subst_function", "expand",
    "collect", "is_zero", "UNKNOWN", "equivalent", "atoms_of", "jets_of",
    "symbols_of", "contains_eps", "poly_antiderivative", "linear_coeffs",
]


class Expr:
    """Base node.  Instances are immutable and hash-consed by structural key."""

    __slots__ = ("_key", "_hash")

    def _init_key(self, key: tuple):
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, *a):  # pragma: no cover - safety net
        raise AttributeError("expressions are immutable")

    def key(self) -> tuple:
        return self._key

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (isinstance(other, Expr) and self._key == other._key)

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        from .lang import to_text
        return to_text(self)

    # convenience operator sugar, used heavily in tests and model definitions
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, other):
        return pow_(self, other)

    def __neg__(self):
        return neg(self)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return rat(x)
    raise TypeError(f"cannot coerce {x!r} into an expression")


class Rat(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        object.__setattr__(self, "value", value)
        self._init_key((0, value.numerator, value.denominator))


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        self._init_key((1, name))


class Eps(Expr):
    __slots__ = ()

    def __init__(self):
        self._init_key((2,))


class Jet(Expr):
    """Jet coordinate: dependent-variable base, eps order, derivative multiset.

    ``order`` is the eps-expansion index k (None marks an unexpanded base
    variable, only legal before eps-expansion).  ``deriv`` is a sorted tuple
    of independent-variable names, one entry per differentiation, so mixed
    partials are identified automatically.
    """

    __slots__ = ("base", "order", "deriv")

    def __init__(self, base: str, order: int | None, deriv: tuple[str, ...] = ()):
        deriv = tuple(sorted(deriv))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "deriv", deriv)
        self._init_key((3, base, -1 if order is None else order, deriv))


ELEMENTARY = ("sin", "cos", "exp", "log")


class Fun(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)
        self._init_key((4, name, arg._key))


class AFun(Expr):
    """Arbitrary (opaque) function application with a derivative multi-index.

    ``family`` is the perturbation family index of unknown infinitesimal
    functions (None for plain model functions like F).
    """

    __slots__ = ("name", "args", "deriv", "family")

    def __init__(self, name: str, args: tuple[Expr, ...], deriv: tuple[int, ...],
                 family: int | None = None):
        if len(deriv) != len(args):
            raise ValueError("derivative multi-index length must match arity")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "deriv", tuple(deriv))
        object.__setattr__(self, "family", family)
        self._init_key((5, name, -1 if family is None else family, self.deriv,
                        tuple(a._key for a in self.args)))


class AInt(Expr):
    """Antiderivative of a unary arbitrary function, evaluated at ``arg``."""

    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)
        self._init_key((6, name, arg._key))


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: Fraction):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)
        self._init_key((7, base._key, exp.numerator, exp.denominator))


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        object.__setattr__(self, "factors", tuple(factors))
        self._init_key((8, tuple(f._key for f in self.factors)))


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        object.__setattr__(self, "terms", tuple(terms))
        self._init_key((9, tuple(t._key for t in self.terms)))


# ---------------------------------------------------------------------------
# smart constructors


_RAT_CACHE: dict[Fraction, Rat] = {}


def rat(x) -> Rat:
    v = x if isinstance(x, Fraction) else Fraction(x)
    r = _RAT_CACHE.get(v)
    if r is None:
        r = _RAT_CACHE[v] = Rat(v)
    return r


ZERO = rat(0)
ONE = rat(1)
EPS = Eps()


def sym(name: str) -> Sym:
    return Sym(name)


def jet(base: str, order: int | None, deriv: Iterable[str] = ()) -> Jet:
    return Jet(base, order, tuple(deriv))


def fun(name: str, arg: Expr) -> Expr:
    """Elementary function application with parity/zero folding."""
    if name not in ELEMENTARY:
        raise ValueError(f"unknown elementary function {name!r}")
    if name in ("sin", "cos"):
        c, rest = _split_coeff(arg)
        if c < 0:
            flipped = mul(rat(-c), rest)
            inner = Fun(name, flipped)
            return neg(inner) if name == "sin" else inner
        if arg == ZERO:
            return ZERO if name == "sin" else ONE
    if name == "exp" and arg == ZERO:
        return ONE
    if name == "log" and arg == ONE:
        return ZERO
    return Fun(name, arg)


def afun(name: str, args, deriv=None, family: int | None = None) -> AFun:
    args = tuple(_coerce(a) for a in args)
    if deriv is None:
        deriv = (0,) * len(args)
    return AFun(name, args, tuple(deriv), family)


def aint(name: str, arg: Expr) -> AInt:
    return AInt(name, _coerce(arg))


def _split_coeff(e: Expr) -> tuple[Fraction, Expr]:
    """Split off the rational coefficient: e = coeff * rest."""
    if isinstance(e, Rat):
        return e.value, ONE
    if isinstance(e, Mul) and isinstance(e.factors[0], Rat):
        rest = e.factors[1:]
        return e.factors[0].value, (rest[0] if len(rest) == 1 else Mul(rest))
    return Fraction(1), e


def add(*terms) -> Expr:
    acc: dict[Expr, Fraction] = {}
    const = Fraction(0)
    stack = [_coerce(t) for t in terms]
    for t in stack:
        parts = t.terms if isinstance(t, Add) else (t,)
        for p in parts:
            c, rest = _split_coeff(p)
            if rest == ONE:
                const += c
            else:
                acc[rest] = acc.get(rest, Fraction(0)) + c
    out = []
    for rest, c in acc.items():
        if c == 0:
            continue
        out.append(rest if c == 1 else _mk_mul(c, rest))
    if const != 0:
        out.append(rat(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda e: e._key)
    return Add(tuple(out))


def _mk_mul(c: Fraction, rest: Expr) -> Expr:
    if isinstance(rest, Mul):
        return Mul((rat(c),) + rest.factors)
    return Mul((rat(c), rest))


def _as_base_exp(f: Expr) -> tuple[Expr, Fraction]:
    if isinstance(f, Pow):
        return f.base, f.exp
    return f, Fraction(1)


def mul(*factors) -> Expr:
    coeff = Fraction(1)
    powers: dict[Expr, Fraction] = {}
    order: list[Expr] = []
    stack = [_coerce(f) for f in factors]
    for f in stack:
        parts = f.factors if isinstance(f, Mul) else (f,)
        for p in parts:
            if isinstance(p, Rat):
                coeff *= p.value
                continue
            base, e = _as_base_exp(p)
            if base not in powers:
                powers[base] = Fraction(0)
                order.append(base)
            powers[base] += e
    if coeff == 0:
        return ZERO
    out = []
    rerun = False
    for base in order:
        e = powers[base]
        if e == 0:
            continue
        piece = pow_(base, e)
        if piece == ONE:
            continue
        if isinstance(piece, Rat):
            coeff *= piece.value
            continue
        # pow_ may have rewritten the base (content extraction, exponent
        # merging); anything not anchored on the original base must go
        # through base merging again
        if isinstance(piece, Mul):
            out.extend(piece.factors)
            rerun = True
        else:
            out.append(piece)
            if piece != base and not (isinstance(piece, Pow) and piece.base == base):
                rerun = True
    if coeff == 0:
        return ZERO
    if rerun:
        return mul(rat(coeff), *out)
    if not out:
        return rat(coeff)
    if coeff != 1:
        out.append(rat(coeff))
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda e: e._key)
    return Mul(tuple(out))


def _iroot(n: int, q: int) -> int | None:
    """Exact integer q-th root of n >= 0, or None; integers of any size."""
    if q == 2:
        r = math.isqrt(n)
    else:
        # integer Newton iteration from above converges to floor(n^(1/q))
        r = 1 << -(-n.bit_length() // q)
        while r:
            s = ((q - 1) * r + n // r ** (q - 1)) // q
            if s >= r:
                break
            r = s
    return r if r ** q == n else None


def _rat_root(v: Fraction, q: int) -> Fraction | None:
    """Exact q-th root of a nonnegative rational, or None."""
    a = _iroot(v.numerator, q)
    b = _iroot(v.denominator, q)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def _add_content(e: Add) -> tuple[Fraction, Expr]:
    """Positive rational content of a sum (gcd of term coefficients)."""
    cs = [_split_coeff(t)[0] for t in e.terms]
    num = 0
    den = 1
    for c in cs:
        num = _gcd(num, abs(c.numerator))
        den = _lcm(den, c.denominator)
    content = Fraction(num, den)
    if content in (0, 1):
        return Fraction(1), e
    return content, add(*[mul(rat(1 / content), t) for t in e.terms])


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _lcm(a: int, b: int) -> int:
    return a * b // _gcd(a, b) if a and b else max(a, b)


def pow_(base, e) -> Expr:
    base = _coerce(base)
    e = e if isinstance(e, Fraction) else Fraction(e)
    if e == 0:
        return ONE
    if e == 1:
        return base
    if base == ONE:
        return ONE
    if isinstance(base, Rat):
        if e.denominator == 1:
            return rat(base.value ** e.numerator)
        if base.value >= 0:
            root = _rat_root(base.value, e.denominator)
            if root is not None:
                return rat(root ** e.numerator)
        return Pow(base, e)
    if isinstance(base, Pow) and e.denominator == 1:
        return pow_(base.base, base.exp * e)
    if isinstance(base, Mul) and e.denominator == 1:
        return mul(*[pow_(f, e) for f in base.factors])
    if isinstance(base, Add):
        content, rest = _add_content(base)
        if content != 1:
            if e.denominator == 1:
                return mul(rat(content ** e.numerator), Pow(rest, e))
            root = _rat_root(content, e.denominator)
            if root is not None:
                return mul(rat(root ** e.numerator), Pow(rest, e))
            return Pow(base, e)
        return Pow(base, e)
    return Pow(base, e)


def neg(e) -> Expr:
    return mul(rat(-1), _coerce(e))


def sub(a, b) -> Expr:
    return add(_coerce(a), neg(b))


def div(a, b) -> Expr:
    return mul(_coerce(a), pow_(_coerce(b), Fraction(-1)))


# ---------------------------------------------------------------------------
# structural queries


def atoms_of(e: Expr, kind) -> set:
    found = set()
    _walk_atoms(e, kind, found)
    return found


def _walk_atoms(e: Expr, kind, found: set):
    if isinstance(e, kind):
        found.add(e)
    for child in _children(e):
        _walk_atoms(child, kind, found)


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Fun, AInt)):
        return (e.arg,)
    if isinstance(e, AFun):
        return e.args
    return ()


def rebuild(e: Expr, fn) -> Expr:
    """Apply ``fn`` to every child of ``e`` and re-apply the smart constructor.

    Atoms come back unchanged.
    """
    if isinstance(e, Add):
        return add(*[fn(t) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[fn(f) for f in e.factors])
    if isinstance(e, Pow):
        return pow_(fn(e.base), e.exp)
    if isinstance(e, Fun):
        return fun(e.name, fn(e.arg))
    if isinstance(e, AFun):
        return AFun(e.name, tuple(fn(a) for a in e.args), e.deriv, e.family)
    if isinstance(e, AInt):
        return AInt(e.name, fn(e.arg))
    return e


def jets_of(e: Expr) -> set[Jet]:
    return atoms_of(e, Jet)


def symbols_of(e: Expr) -> set[Sym]:
    return atoms_of(e, Sym)


def contains_eps(e: Expr) -> bool:
    return bool(atoms_of(e, Eps))


# ---------------------------------------------------------------------------
# differentiation and substitution


def diff(e: Expr, v: Expr) -> Expr:
    """Exact partial derivative; all other jet coordinates held fixed."""
    if not isinstance(v, (Sym, Jet, Eps)):
        raise TypeError("can only differentiate by a symbol or jet coordinate")
    return _diff(e, v)


def _diff(e: Expr, v: Expr) -> Expr:
    if e == v:
        return ONE
    if isinstance(e, (Rat, Sym, Jet, Eps)):
        return ZERO
    if isinstance(e, Add):
        return add(*[_diff(t, v) for t in e.terms])
    if isinstance(e, Mul):
        out = []
        fs = e.factors
        for i, f in enumerate(fs):
            d = _diff(f, v)
            if d != ZERO:
                out.append(mul(*(fs[:i] + (d,) + fs[i + 1:])))
        return add(*out) if out else ZERO
    if isinstance(e, Pow):
        d = _diff(e.base, v)
        if d == ZERO:
            return ZERO
        return mul(rat(e.exp), pow_(e.base, e.exp - 1), d)
    if isinstance(e, Fun):
        d = _diff(e.arg, v)
        if d == ZERO:
            return ZERO
        outer = {
            "sin": lambda a: fun("cos", a),
            "cos": lambda a: neg(fun("sin", a)),
            "exp": lambda a: fun("exp", a),
            "log": lambda a: pow_(a, Fraction(-1)),
        }[e.name](e.arg)
        return mul(outer, d)
    if isinstance(e, AFun):
        out = []
        for i, a in enumerate(e.args):
            d = _diff(a, v)
            if d == ZERO:
                continue
            bumped = tuple(t + (1 if j == i else 0) for j, t in enumerate(e.deriv))
            out.append(mul(AFun(e.name, e.args, bumped, e.family), d))
        return add(*out) if out else ZERO
    if isinstance(e, AInt):
        d = _diff(e.arg, v)
        if d == ZERO:
            return ZERO
        return mul(afun(e.name, (e.arg,)), d)
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def subst(e: Expr, bindings: Mapping[Expr, Expr]) -> Expr:
    """Simultaneous replacement of symbols / jet coordinates / eps."""
    if not bindings:
        return e
    return _subst(e, bindings)


def _subst(e: Expr, b: Mapping[Expr, Expr]) -> Expr:
    hit = b.get(e)
    if hit is not None:
        return hit
    return rebuild(e, lambda c: _subst(c, b))


def subst_function(e: Expr, name: str, formal: Sym, body: Expr) -> Expr:
    """Replace the unary arbitrary function ``name`` by a concrete closed form.

    ``body`` is an expression in the formal argument; F^(d)(a) becomes the
    d-th derivative of the body evaluated at a, and Int(F, a) becomes the
    polynomial antiderivative of the body evaluated at a.
    """
    if isinstance(e, AFun) and e.name == name:
        if len(e.args) != 1:
            raise ValueError("only unary functions can be bound to closed forms")
        concrete = body
        for _ in range(e.deriv[0]):
            concrete = diff(concrete, formal)
        arg = subst_function(e.args[0], name, formal, body)
        return subst(concrete, {formal: arg})
    if isinstance(e, AInt) and e.name == name:
        anti = poly_antiderivative(body, formal)
        arg = subst_function(e.arg, name, formal, body)
        return subst(anti, {formal: arg})
    return rebuild(e, lambda c: subst_function(c, name, formal, body))


def poly_antiderivative(e: Expr, v: Sym) -> Expr:
    """Antiderivative in ``v`` of a Laurent polynomial (no 1/v term allowed)."""
    e = expand(e)
    terms = e.terms if isinstance(e, Add) else (e,)
    out = []
    for t in terms:
        c, rest = _split_coeff(t)
        factors = rest.factors if isinstance(rest, Mul) else (rest,) if rest != ONE else ()
        power = Fraction(0)
        others = []
        for f in factors:
            base, p = _as_base_exp(f)
            if base == v:
                power += p
            else:
                if atoms_of(f, Sym) and v in atoms_of(f, Sym):
                    raise NotPolynomial(f"not a Laurent monomial in {v.name}: {t!r}")
                others.append(f)
        if power == -1:
            raise NotPolynomial("antiderivative would need a logarithm")
        out.append(mul(rat(c / (power + 1)), pow_(v, power + 1), *others))
    return add(*out)


# ---------------------------------------------------------------------------
# expansion and the polynomial normal form


_EXPAND_CACHE: dict[Expr, Expr] = {}


def expand(e: Expr) -> Expr:
    """Full distribution of products over sums and of positive integer powers.

    Iterated to a fixpoint: combining exponents during term-by-term
    multiplication can recreate positive integer powers of sums.
    """
    orig = e
    hit = _EXPAND_CACHE.get(orig)
    if hit is not None:
        return hit
    out = _expand(e)
    while out != e:
        e, out = out, _expand(out)
    _EXPAND_CACHE[orig] = out
    _EXPAND_CACHE[out] = out
    return out


def _expand(e: Expr) -> Expr:
    if isinstance(e, (Rat, Sym, Jet, Eps, Fun, AFun, AInt)):
        return e
    if isinstance(e, Add):
        return add(*[expand(t) for t in e.terms])
    if isinstance(e, Pow):
        base = expand(e.base)
        if isinstance(base, Add) and e.exp.denominator == 1 and e.exp >= 2:
            out = base
            for _ in range(int(e.exp) - 1):
                out = _distribute(out, base)
            return out
        if isinstance(base, Add) and e.exp.denominator == 2 and e.exp > 1:
            # split off the expandable integer part of a half-integer power
            q = Fraction(e.exp.numerator // 2)
            return _distribute(expand(pow_(base, q)), Pow(base, e.exp - q))
        return pow_(base, e.exp)
    if isinstance(e, Mul):
        pieces = [expand(f) for f in e.factors]
        # re-normalize first (exponent folding), then distribute sums
        prod = mul(*pieces)
        if not isinstance(prod, Mul):
            return expand(prod) if prod != e else prod
        acc = ONE
        for f in prod.factors:
            f = expand(f)
            acc = _distribute(acc, f)
        return acc
    raise TypeError(f"cannot expand {type(e).__name__}")


def _distribute(a: Expr, b: Expr) -> Expr:
    ta = a.terms if isinstance(a, Add) else (a,)
    tb = b.terms if isinstance(b, Add) else (b,)
    if len(ta) * len(tb) == 1:
        return mul(a, b)
    return add(*[mul(x, y) for x in ta for y in tb])


class _Unknown:
    __slots__ = ()

    def __repr__(self):
        return "Unknown"

    def __bool__(self):
        raise TypeError("Unknown verdict is not a boolean; compare with `is`")


UNKNOWN = _Unknown()


def _monomial_pairs(term: Expr) -> tuple[Fraction, list[tuple[Expr, Fraction]]]:
    c, rest = _split_coeff(term)
    if rest == ONE:
        return c, []
    factors = rest.factors if isinstance(rest, Mul) else (rest,)
    return c, [_as_base_exp(f) for f in factors]


def _to_poly(e: Expr) -> tuple[dict, bool]:
    """Normal form: dict {monomial-key: Fraction}, plus a decidability flag.

    A monomial key is a sorted tuple of (atom, integer-or-half exponent)
    pairs; half-integer powers of any base X are split as X^q * (X^(1/2))^r
    with r in {0,1}, so the relation (X^(1/2))^2 = X is always applied.
    The flag is False when an atom outside the decidable class was seen.
    """
    e = expand(e)
    decidable = True
    poly: dict[tuple, Fraction] = {}
    for term in (e.terms if isinstance(e, Add) else (e,)):
        coeff, pairs = _monomial_pairs(term)
        mono: dict[Expr, Fraction] = {}
        for base, p in pairs:
            if p.denominator == 1:
                _mono_add(mono, base, p)
            elif p.denominator == 2:
                q, r = divmod(p.numerator, 2)
                if q:
                    _mono_add(mono, base, Fraction(q))
                if r:
                    _mono_add(mono, Pow(base, Fraction(1, 2)), Fraction(1))
            else:
                _mono_add(mono, Pow(base, p), Fraction(1))
                decidable = False
        key = tuple(sorted(((a, x) for a, x in mono.items() if x != 0),
                           key=lambda ax: ax[0]._key))
        poly[key] = poly.get(key, Fraction(0)) + coeff
    poly = {k: v for k, v in poly.items() if v != 0}
    return poly, decidable


def _mono_add(mono: dict, atom: Expr, p: Fraction):
    mono[atom] = mono.get(atom, Fraction(0)) + p


def _from_poly(poly: dict) -> Expr:
    out = []
    for key, c in poly.items():
        out.append(mul(rat(c), *[pow_(a, p) for a, p in key]))
    return add(*out)


def _clear_denominators(poly: dict) -> tuple[dict, bool]:
    """Multiply through by positive powers of sum-based atoms in denominators.

    Needed for a complete zero test when an expanded polynomial part can
    cancel against an atomic inverse of the same sum, e.g. (x+y)*(x+y)^(-1).
    Multiplying by a nonzero function preserves zero-ness both ways.
    """
    need: dict[Expr, Fraction] = {}
    for key, _ in poly.items():
        for atom, p in key:
            if p < 0 and isinstance(atom, Add):
                need[atom] = max(need.get(atom, Fraction(0)), -p)
    if not need:
        return poly, False
    mult = [pow_(a, p) for a, p in need.items()]
    terms = []
    for key, c in poly.items():
        # constructor-level multiplication merges same-base exponents, so
        # B^(-k) meets B^(+k) before any distribution tears B apart
        terms.append(expand(mul(rat(c), *[pow_(a, p) for a, p in key], *mult)))
    out, _ = _to_poly(add(*terms))
    return out, True


def _trig_multiple_expand(e: Expr) -> Expr:
    """Rewrite sin/cos of integer multiples down to the base angle."""
    if isinstance(e, Fun) and e.name in ("sin", "cos"):
        arg = _trig_multiple_expand(e.arg)
        c, rest = _split_coeff(arg)
        if c.denominator == 1 and abs(c) >= 2:
            return _angle_multiple(e.name, int(c), rest)
        return fun(e.name, arg)
    return rebuild(e, _trig_multiple_expand)


def _angle_multiple(name: str, k: int, x: Expr) -> Expr:
    s, c = fun("sin", x), fun("cos", x)
    sk, ck = ZERO, ONE  # sin(0x), cos(0x)
    for _ in range(abs(k)):
        sk, ck = add(mul(sk, c), mul(ck, s)), sub(mul(ck, c), mul(sk, s))
    if k < 0:
        sk = neg(sk)
    return sk if name == "sin" else ck


def _sin_power_reduce(e: Expr) -> Expr:
    """Replace sin(x)^n (n >= 2) by (1 - cos(x)^2)^(n//2) * sin(x)^(n%2)."""
    if isinstance(e, (Fun, AFun, AInt)):
        return e
    out = rebuild(e, _sin_power_reduce)
    if isinstance(out, Pow) and isinstance(out.base, Fun) and out.base.name == "sin" \
            and out.exp.denominator == 1 and out.exp >= 2:
        q, r = divmod(int(out.exp), 2)
        reduced = pow_(sub(ONE, pow_(fun("cos", out.base.arg), 2)), Fraction(q))
        return mul(reduced, out.base) if r else reduced
    return out


_ZNF_CACHE: dict[Expr, tuple[dict, bool]] = {}


def _zero_normal_form(e: Expr) -> tuple[dict, bool]:
    hit = _ZNF_CACHE.get(e)
    if hit is not None:
        return hit
    e1 = expand(_trig_multiple_expand(expand(e)))
    e2 = expand(_sin_power_reduce(e1))
    poly, decidable = _to_poly(e2)
    poly, cleared = _clear_denominators(poly)
    if cleared:
        # clearing can reintroduce reducible sin powers via rho^2 = base
        e3 = expand(_sin_power_reduce(_from_poly(poly)))
        poly, d2 = _to_poly(e3)
        poly, _ = _clear_denominators(poly)
        decidable = decidable and d2
    _ZNF_CACHE[e] = (poly, decidable)
    return poly, decidable


def _atom_decidable(atom: Expr) -> bool:
    if isinstance(atom, (Sym, Jet, Eps, AInt)):
        return True
    if isinstance(atom, AFun):
        return True
    if isinstance(atom, Fun):
        if atom.name in ("sin", "cos"):
            a = atom.arg
            c, rest = _split_coeff(a)
            return isinstance(rest, (Sym, Jet)) and abs(c) == 1
        return False
    if isinstance(atom, Pow):
        base = atom.base
        return isinstance(base, Add) and atom.exp == Fraction(1, 2)
    if isinstance(atom, Add):
        return True
    return False


def is_zero(e: Expr):
    """Three-valued zero decision: True, False, or UNKNOWN.

    Sound: True implies the expression is identically zero.  Complete on
    Laurent polynomials over symbols, jet coordinates, opaque function
    atoms, sin/cos of declared variables, and square roots of sums (the
    class every determining computation in this package stays inside).
    """
    poly, decidable = _zero_normal_form(e)
    if not poly:
        return True
    if not decidable:
        return UNKNOWN
    seen_primitive: dict[Expr, Fraction] = {}
    for key, _ in poly.items():
        for atom, p in key:
            if not _atom_decidable(atom):
                return UNKNOWN
            if isinstance(atom, Fun):
                c, rest = _split_coeff(atom.arg)
                prev = seen_primitive.setdefault(rest, abs(c))
                if prev != abs(c):
                    return UNKNOWN
            if isinstance(atom, Fun) and p < 0:
                return UNKNOWN
    return False


def equivalent(a: Expr, b: Expr):
    return is_zero(sub(a, b))


# ---------------------------------------------------------------------------
# coefficient collection


def collect(e: Expr, gens: list[Expr]) -> dict[Expr, Expr]:
    """Write ``e`` as a sum of monomials in ``gens`` with coefficient map.

    Raises NotPolynomial when a generator occurs inside a function argument,
    under a fractional or negative power, or in any other non-polynomial
    position.  The empty monomial (key 1) carries the generator-free part.
    """
    genset = set(gens)
    e = expand(e)
    out: dict[Expr, list] = {}
    for term in (e.terms if isinstance(e, Add) else (e,)):
        if term == ZERO:
            continue
        c, pairs = _monomial_pairs(term)
        mono_part = []
        coeff_part = []
        for base, p in pairs:
            if base in genset:
                if p.denominator != 1 or p < 0:
                    raise NotPolynomial(f"generator {base!r} has exponent {p}")
                mono_part.append((base, p))
            else:
                for g in genset:
                    if _occurs_inside(base, g):
                        raise NotPolynomial(f"generator {g!r} occurs inside {base!r}")
                coeff_part.append(pow_(base, p))
        key = mul(*[pow_(b, p) for b, p in sorted(mono_part, key=lambda bp: bp[0]._key)])
        out.setdefault(key, []).append(mul(rat(c), *coeff_part))
    result = {}
    for key, pieces in out.items():
        s = add(*pieces)
        if s != ZERO:
            result[key] = s
    return result


def _occurs_inside(container: Expr, target: Expr) -> bool:
    if container == target:
        return True
    return any(_occurs_inside(ch, target) for ch in _children(container))


def linear_coeffs(e: Expr, unknowns: list[Expr]) -> tuple[dict[Expr, Expr], Expr]:
    """Decompose e = sum coeff_u * u + remainder, affine in the unknowns.

    Raises NotPolynomial if e is not affine in the unknowns.
    """
    cmap = collect(e, unknowns)
    coeffs: dict[Expr, Expr] = {}
    remainder = ZERO
    for key, coeff in cmap.items():
        if key == ONE:
            remainder = coeff
        elif key in set(unknowns):
            coeffs[key] = coeff
        else:
            raise NotPolynomial(f"not affine in unknowns: monomial {key!r}")
    return coeffs, remainder
