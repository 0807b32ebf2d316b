"""Immutable symbolic expression kernel with exact rational arithmetic.

Expression trees are built over named symbols, jet coordinates, the small
parameter eps, elementary functions (sin, cos, exp, log), opaque arbitrary
functions F(...) with derivative multi-indices, and a single antiderivative
node Int(F, u) for unary F.  Smart constructors keep every tree in a
canonical form: sums and products are flattened and sorted under a fixed
total order, rational constants are folded, like terms and like powers are
combined, and zero/one units are elided.  Products are NOT distributed over
sums by the constructors.  ``expand`` does that explicitly: it writes back
as a tree the sparse read that the zero decision ``is_zero`` uses (the id
form below), so both read integer multiple angles in the base angle and
sin^2 modulo 1 - cos^2, inside function arguments too.

Most calls of ``add`` and ``mul`` are identities: eps-series pad with ZERO,
so a sum often has one operand that is not ZERO, and a product an operand
ZERO or only ONEs besides one.  An identity check in front of each
constructor returns that operand without grouping it again; every other
call takes the one general path.  ``add`` returns any lone operand, since
grouping never rewrites a term's insides.  ``mul`` returns ZERO when an
operand is ZERO, and a lone operand only when it is an atom, a rational, a
sum or a power of an atom: the general path re-merges a product's factors
and takes rational content out of a power of a sum, which a root built
directly for a normal-form key may still hold.

The zero normal form works on a sparse polynomial of its own, the id form:
a monomial is a sorted tuple of (interned atom id, int exponent) pairs and a
coefficient is an int wherever it is integral.  Products of monomials merge
these tuples and hash no tree.  Where a product raises sums or sin to powers
that a rule expands, and every monomial of those expansions holds only plain
atoms, the expansions cannot reach each other's exponents: one rule-free
product (``_plain_times``) multiplies them once per call of the sparse
product and multiplies the rest of each monomial into them.  Otherwise they
are expanded one at a time in the Expr-keyed product's order, since
expanding one sum can bring in a negative power of another.  The order in
which monomials are added reaches no output: the returned normal form is
converted back, once per distinct monomial, to keys of (atom, exponent)
pairs in term order, which ``linalg`` and the printers read.

Every exact rational the kernel holds is an int when it is integral and a
Fraction only otherwise: ``Rat.value``, ``Pow.exp``, the coefficients of a
normal form and, in ``linalg``, the rational entries.  The constructors
normalise what they are given, so a Fraction with denominator 1 is never
stored.  Keys are read from ``numerator`` and ``denominator``, which ints
have too, and an int hashes and compares as the equal Fraction, so the
keys, their order and every printed form are those of the Fraction alone.
Integer arithmetic stays in ints where it can: ``int / int`` and
``int ** -k`` would give floats, so a quotient or a negative power goes
through Fraction.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DivisionByZero, NotPolynomial

__all__ = [
    "Expr", "Rat", "Sym", "Eps", "Jet", "Fun", "AFun", "AInt", "Pow", "Mul", "Add",
    "ZERO", "ONE", "EPS", "rat", "sym", "jet", "fun", "afun", "aint", "add", "mul",
    "pow_", "neg", "sub", "div", "rebuild", "diff", "gradient", "subst",
    "subst_function", "expand", "collect", "is_zero", "UNKNOWN",
    "atoms_of", "jets_of", "contains_eps", "poly_antiderivative", "linear_coeffs",
    "cache_stats", "clear_caches",
]


class Expr:
    """Base node.  Instances are immutable and compared and hashed by
    structural key; nodes are not interned, so equal trees may be distinct
    objects.

    ``_eps`` says whether eps occurs in the tree, so ``contains_eps`` reads
    it without a walk.  ``_init_key`` sets it once, at construction: True
    for ``Eps``, copied from the one child of ``Fun``, ``AInt`` and ``Pow``,
    OR-ed over the children of ``AFun``, ``Mul`` and ``Add``, False for the
    other atoms.
    """

    __slots__ = ("_key", "_hash", "_eps")

    def _init_key(self, key: tuple, eps: bool = False):
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_eps", eps)

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


# the eps flag of a node, read by the constructors of nodes with many children
_eps_of = operator.attrgetter("_eps")


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return rat(x)
    raise TypeError(f"cannot coerce {x!r} into an expression")


def _rational(v: int | Fraction) -> int | Fraction:
    """v as an int when it is integral, else the Fraction itself."""
    return v if type(v) is int or v.denominator != 1 else v.numerator


class Rat(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int | Fraction):
        value = _rational(value)
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
        self._init_key((2,), True)


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
        self._init_key((4, name, arg._key), arg._eps)


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
                        tuple(a._key for a in self.args)),
                       any(map(_eps_of, self.args)))


class AInt(Expr):
    """Antiderivative of a unary arbitrary function, evaluated at ``arg``."""

    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)
        self._init_key((6, name, arg._key), arg._eps)


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: int | Fraction):
        exp = _rational(exp)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)
        self._init_key((7, base._key, exp.numerator, exp.denominator), base._eps)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        factors = tuple(factors)
        object.__setattr__(self, "factors", factors)
        self._init_key((8, tuple(f._key for f in factors)), any(map(_eps_of, factors)))


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        terms = tuple(terms)
        object.__setattr__(self, "terms", terms)
        self._init_key((9, tuple(t._key for t in terms)), any(map(_eps_of, terms)))


# ---------------------------------------------------------------------------
# smart constructors


# the size bound of every module-level table: each memo, and the interned
# rationals
_BOUND = 4000
# the interned rationals, keyed by their value as Rat holds it, at most
# _BOUND of them: ZERO and ONE are interned first and so always.  Past the
# bound rat builds an equal Rat that is not interned; only `is ZERO` and
# `is ONE` rely on identity
_RAT_CACHE: dict[int | Fraction, Rat] = {}
_UNIT = 1
# the nodes that pow_ only wraps: base^e is Pow(base, e) for every e but 0, 1
_ATOMS = (Sym, Jet, Eps, Fun, AFun, AInt)


def rat(x) -> Rat:
    """The rational x, an int or a Fraction, as a Rat.  Anything else is a
    TypeError, as in ``_coerce``: a float would become its binary Fraction,
    so rat(3 ** -1) would not be 1/3."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot coerce {x!r} into a rational: it is not an int or a Fraction")
    r = _RAT_CACHE.get(x)
    if r is None:
        # a Fraction equal to an int finds the int's Rat: they hash and
        # compare alike.  A new value is stored under its normalised value
        v = _rational(x)
        r = _RAT_CACHE.get(v)
        if r is None:
            r = Rat(v)
            if len(_RAT_CACHE) < _BOUND:
                _RAT_CACHE[v] = r
    return r


ZERO = rat(0)
ONE = rat(1)
EPS = Eps()


def sym(name: str) -> Sym:
    return Sym(name)


def jet(base: str, order: int | None, deriv: Iterable[str] = ()) -> Jet:
    return Jet(base, order, tuple(deriv))


def fun(name: str, arg: Expr) -> Expr:
    """Elementary function application with parity/zero folding; log(0)
    raises ``DivisionByZero``, as 1/0 does."""
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
    if name == "log" and arg == ZERO:
        raise DivisionByZero("division by zero: log(0)")
    return Fun(name, arg)


def afun(name: str, args, deriv=None, family: int | None = None) -> AFun:
    args = tuple(_coerce(a) for a in args)
    if deriv is None:
        deriv = (0,) * len(args)
    return AFun(name, args, tuple(deriv), family)


def aint(name: str, arg: Expr) -> AInt:
    return AInt(name, _coerce(arg))


def _split_coeff(e: Expr) -> tuple[int | Fraction, Expr]:
    """Split off the rational coefficient: e = coeff * rest."""
    if isinstance(e, Rat):
        return e.value, ONE
    if isinstance(e, Mul) and isinstance(e.factors[0], Rat):
        rest = e.factors[1:]
        return e.factors[0].value, (rest[0] if len(rest) == 1 else Mul(rest))
    return _UNIT, e


def _coeff_factors(e: Expr) -> tuple[int | Fraction, tuple[Expr, ...]]:
    """e as its rational coefficient and the tuple of its other factors,
    without building the rest: () for a rational, (e,) for a non-product."""
    if isinstance(e, Mul):
        fs = e.factors
        return (fs[0].value, fs[1:]) if isinstance(fs[0], Rat) else (1, fs)
    return (e.value, ()) if isinstance(e, Rat) else (1, (e,))


def _node_key(e: Expr) -> tuple:
    return e._key


def add(*terms) -> Expr:
    # identity check: with at most one operand that is not ZERO, that operand
    # (or ZERO) is the sum.  The grouping below never rewrites a term's
    # insides, so it would only build an equal node again.  rat interns every
    # rational, so `is ZERO` finds each zero; a zero built some other way, or
    # an operand that is not an Expr, takes the general path
    lone = ZERO
    for t in terms:
        if t is not ZERO:
            if lone is not ZERO or not isinstance(t, Expr):
                break
            lone = t
    else:
        return lone
    # like terms are grouped by their factor tuple, which stands for the rest
    # of _split_coeff without building it; a term that meets no like term is
    # kept as the node it came in as
    groups: dict[tuple, list] = {}
    const = 0
    for t in terms:
        if not isinstance(t, Expr):
            t = _coerce(t)
        for p in (t.terms if isinstance(t, Add) else (t,)):
            c, fs = _coeff_factors(p)
            if not fs:
                const += c
                continue
            g = groups.get(fs)
            if g is None:
                groups[fs] = [c, p]
            else:
                g[0] += c
                g[1] = None
    out = []
    for fs, (c, p) in groups.items():
        if p is None:
            # like terms met: c * prod(fs), the coefficient first
            if c == 0:
                continue
            p = (fs[0] if len(fs) == 1 else Mul(fs)) if c == 1 else Mul((rat(c),) + fs)
        out.append(p)
    if const != 0:
        out.append(rat(const))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=_node_key)
    return Add(tuple(out))


def _as_base_exp(f: Expr) -> tuple[Expr, int | Fraction]:
    if isinstance(f, Pow):
        return f.base, f.exp
    return f, _UNIT


# the lone operands that mul returns as they are: the general path would
# build each of them again unchanged
_KEPT = _ATOMS + (Rat, Add)


def mul(*factors) -> Expr:
    # identity check: an operand ZERO makes the product ZERO, and an operand
    # whose others are all ONE is the product when it is an atom, a rational,
    # a sum or a power of an atom.  The check is narrower than add's because
    # the general path rewrites the rest: it re-merges a product's factors
    # and takes rational content out of a power of a sum, so a root built
    # directly, Pow(4*x + 4*y, 1/2), comes back as 2*(x + y)^(1/2).  An
    # operand that is not an Expr takes the general path, which coerces it
    lone = ONE      # None once two operands are not ONE
    zero = False
    for f in factors:
        if f is ONE:
            continue
        if f is ZERO:
            zero = True
        elif not isinstance(f, Expr):
            break
        else:
            lone = f if lone is ONE else None
    else:
        if zero:
            return ZERO
        if lone is not None and (isinstance(lone, _KEPT) or (
                isinstance(lone, Pow) and isinstance(lone.base, _ATOMS))):
            return lone
    # powers maps each base to the factor node it came in as while it occurs
    # once, and to the int or Fraction sum of its exponents once it repeats;
    # the coefficient stays an int until a Fraction arrives
    coeff = 1
    powers: dict[Expr, Expr | int | Fraction] = {}
    for f in factors:
        if not isinstance(f, Expr):
            f = _coerce(f)
        for p in (f.factors if isinstance(f, Mul) else (f,)):
            if isinstance(p, Rat):
                coeff *= p.value
                continue
            base = p.base if isinstance(p, Pow) else p
            prev = powers.get(base)
            if prev is None:
                powers[base] = p
                continue
            if isinstance(prev, Expr):
                # prev is base itself (exponent 1) or a power of it
                prev = prev.exp if isinstance(prev, Pow) and prev.base == base else 1
            powers[base] = prev + (p.exp if isinstance(p, Pow) else 1)
    if coeff == 0:
        return ZERO
    out = []
    rerun = False
    for base, v in powers.items():
        if v is base:
            piece = base      # what pow_(base, 1) returns
        elif isinstance(v, Pow):
            # a lone power of an atom, or of a sum without rational content
            # to take out, is what pow_(base, v.exp) would build again
            if isinstance(base, _ATOMS):
                piece = v
            elif isinstance(base, Add):
                piece = _pow_sum(base, v.exp)
                if piece is None:
                    piece = v
            else:
                piece = pow_(base, v.exp)
        elif v == 1:
            piece = base      # a rational base is folded in below
        elif v == 0:
            continue
        elif isinstance(base, _ATOMS):
            piece = Pow(base, v)
        else:
            piece = pow_(base, v)
        if isinstance(piece, Rat):
            # ONE included
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
            if piece is not base and piece != base and not (
                    isinstance(piece, Pow) and piece.base == base):
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
    out.sort(key=_node_key)
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


def _add_content(e: Add) -> tuple[int | Fraction, Expr]:
    """Positive rational content of a sum (gcd of term coefficients)."""
    num = 0
    den = 1
    for t in e.terms:
        c, _ = _coeff_factors(t)
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    # num and den are coprime, so the content is 1 exactly when both are
    if num == den or num == 0:
        return _UNIT, e
    # each term goes through mul, which also normalises its other factors
    inverse = rat(Fraction(den, num))
    return Fraction(num, den), add(*[mul(inverse, t) for t in e.terms])


def pow_(base, e) -> Expr:
    """base^e for an int or Fraction e; a Pow node holds e as an int when
    it is integral, else as the Fraction.  Any other e is a TypeError."""
    if not isinstance(base, Expr):
        base = _coerce(base)
    if not isinstance(e, (int, Fraction)):
        raise TypeError(f"cannot take the power {e!r}: it is not an int or a Fraction")
    if e == 0:
        return ONE
    if e == 1:
        return base
    q = e.denominator
    if isinstance(base, Rat):
        v = base.value
        if v == 1:
            return ONE
        if v == 0 and e < 0:
            raise DivisionByZero(f"division by zero: 0^({e})")
        if q == 1:
            # int ** -k is a float: a negative power goes through Fraction
            n = e.numerator
            return rat(v ** n if n > 0 else Fraction(v) ** n)
        if v >= 0:
            root = _rat_root(v, q)
            if root is not None:
                return rat(root ** e.numerator)
        return Pow(base, e)
    if q == 1:
        if isinstance(base, Pow):
            return pow_(base.base, base.exp * e)
        if isinstance(base, Mul):
            return mul(*[pow_(f, e) for f in base.factors])
    if isinstance(base, Add):
        out = _pow_sum(base, e)
        if out is not None:
            return out
    return Pow(base, e)


def _pow_sum(base: Add, e: int | Fraction) -> Expr | None:
    """pow_(base, e) where taking out the sum's rational content changes
    it, else None: then it is Pow(base, e)."""
    content, rest = _add_content(base)
    if content != 1:
        if e.denominator == 1:
            return mul(rat(content ** e.numerator), Pow(rest, e))
        root = _rat_root(content, e.denominator)
        if root is not None:
            return mul(rat(root ** e.numerator), Pow(rest, e))
    return None


def neg(e) -> Expr:
    return mul(rat(-1), _coerce(e))


def sub(a, b) -> Expr:
    return add(_coerce(a), neg(b))


def div(a, b) -> Expr:
    return mul(_coerce(a), pow_(_coerce(b), -1))


# ---------------------------------------------------------------------------
# structural queries


def atoms_of(e: Expr, kind) -> set:
    """The nodes of ``e`` that are instances of ``kind``.

    They are added in pre-order (a node before its children, children left
    to right), so the set's iteration order is fixed by the tree.  The walk
    keeps its own stack and does not recurse, so no depth of tree exhausts
    Python's recursion limit.
    """
    found = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            found.add(node)
        stack.extend(reversed(_children(node)))
    return found


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

    Atoms come back unchanged, and so does ``e`` itself, the same object,
    when every child comes back as the same object: re-applying the
    constructor to the children it built ``e`` from gives ``e`` again.  A
    node built directly, bypassing the constructors (the X^(1/2) atoms of
    normal-form keys), is therefore kept as it is, not put in canonical form.
    """
    if isinstance(e, Add):
        terms = [fn(t) for t in e.terms]
        return e if all(map(operator.is_, terms, e.terms)) else add(*terms)
    if isinstance(e, Mul):
        factors = [fn(f) for f in e.factors]
        return e if all(map(operator.is_, factors, e.factors)) else mul(*factors)
    if isinstance(e, Pow):
        base = fn(e.base)
        return e if base is e.base else pow_(base, e.exp)
    if isinstance(e, Fun):
        arg = fn(e.arg)
        return e if arg is e.arg else fun(e.name, arg)
    if isinstance(e, AFun):
        args = tuple(fn(a) for a in e.args)
        if all(map(operator.is_, args, e.args)):
            return e
        return AFun(e.name, args, e.deriv, e.family)
    if isinstance(e, AInt):
        arg = fn(e.arg)
        return e if arg is e.arg else AInt(e.name, arg)
    return e


def jets_of(e: Expr) -> set[Jet]:
    return atoms_of(e, Jet)


def contains_eps(e: Expr) -> bool:
    return e._eps


# ---------------------------------------------------------------------------
# the kernel's memos: one bounded rule
#
# The gradient memo and the read memo keep what a walk built for each node,
# so that the next walk that meets the node reads it; the expansion and
# normal-form caches keep what a whole call returned for its tree.  A stored
# value depends only on the node's structure, so it is what walking again
# would build, and it is never mutated.  Every memo follows one rule.  A
# store counts its size (the derivatives or monomials a value holds, or one)
# against ``bound``; a store that does not fit is skipped and marks the memo
# full.  The next top-level call of the memo's walk (``gradient``,
# ``expand``, ``_zero_normal_form``, ``_read`` or ``_poly_times``) then
# starts by emptying it, so a walk never loses its memo halfway; since
# ``expand`` starts a read, nothing inside a read calls it.  ``cache_stats``
# and ``clear_caches`` walk ``_MEMOS``, so a new memo is covered by being
# built.  The bound is ``_BOUND``, which also bounds the interned rationals.

_MEMOS: list[_Memo] = []


class _Memo:
    """A bounded memo over ``tables``, emptied together; ``atoms`` are the
    columns of an atom table emptied with them, and ``stats`` counts the
    first.  Lookups read the tables directly and count ``hits`` and
    ``misses``."""

    __slots__ = ("name", "tables", "atoms", "bound", "held", "full", "clears", "hits",
                 "misses")

    def __init__(self, name: str, *tables, atoms: tuple = ()):
        self.name, self.tables, self.atoms = name, tables, atoms
        self.bound, self.held, self.full = _BOUND, 0, False
        self.clears = self.hits = self.misses = 0
        _MEMOS.append(self)

    def put(self, table: dict, key, value, size: int = 1):
        """Store value under key unless it does not fit; overwriting a key
        that is already stored counts nothing."""
        if key not in table:
            if self.held + size > self.bound:
                self.full = True
                return
            self.held += size
        table[key] = value

    def room(self):
        """Empty a full memo: called only where a top-level call starts."""
        if self.full:
            self.empty()
            self.clears += 1

    def empty(self):
        for table in self.tables + self.atoms:
            table.clear()
        self.held, self.full = 0, False

    def stats(self) -> dict[str, int]:
        out = {"entries": sum(map(len, self.tables))}
        if self.atoms:
            out["atoms"] = len(self.atoms[0])
        return out | {"held": self.held, "clears": self.clears, "hits": self.hits,
                      "misses": self.misses}


# ---------------------------------------------------------------------------
# differentiation and substitution


def diff(e: Expr, v: Expr) -> Expr:
    """Exact partial derivative; all other jet coordinates held fixed."""
    if not isinstance(v, (Sym, Jet, Eps)):
        raise TypeError("can only differentiate by a symbol or jet coordinate")
    return gradient(e).get(v, ZERO)


# ---------------------------------------------------------------------------
# the gradient memo: every partial derivative of a node, shared across calls
#
# ``gradient`` differentiates a tree by all of its variables in one walk, and
# keeps what it built for each node: the fluxes, prolongations and residuals
# of every generator tested hold the same Lagrangian coefficients and
# partials as whole subtrees.  Atoms are not stored; a gradient counts its
# derivatives.

_GRADIENTS: dict[Expr, dict[Expr, Expr]] = {}
_GRADIENT_MEMO = _Memo("gradient", _GRADIENTS)


def gradient(e: Expr) -> dict[Expr, Expr]:
    """{v: de/dv} for every symbol, jet coordinate and eps v in ``e``, in one
    post-order walk; a derivative that cancels is ZERO.  The dict may be the
    memo's own: do not mutate it.

    Each entry is the tree a walk by v alone builds (``ref_diff`` in
    ``tests/test_expr.py``): the sum, product, power and chain rules, with
    an arbitrary function F(a_1, ...) giving
    sum_i F_(i)(a) * da_i/dv and Int(F, a) giving F(a) * da/dv, through the
    same constructor calls.  Only terms without v are left out of sums,
    which ``add`` drops anyway.
    """
    _GRADIENT_MEMO.room()
    return _gradient_of(e)


def _gradient_of(e: Expr) -> dict[Expr, Expr]:
    """The gradient of ``e``, from the memo or walked and stored."""
    if isinstance(e, (Sym, Jet, Eps)):
        return {e: ONE}
    if isinstance(e, Rat):
        return {}
    g = _GRADIENTS.get(e)
    if g is not None:
        _GRADIENT_MEMO.hits += 1
        return g
    _GRADIENT_MEMO.misses += 1
    g = _gradient(e)
    _GRADIENT_MEMO.put(_GRADIENTS, e, g, len(g) or 1)
    return g


def _gradient(e: Expr) -> dict[Expr, Expr]:
    """The gradient of a node that is not an atom, from its children's."""
    if isinstance(e, Add):
        terms: dict[Expr, list] = {}
        for t in e.terms:
            for v, d in _gradient_of(t).items():
                terms.setdefault(v, []).append(d)
        return {v: add(*ds) for v, ds in terms.items()}
    if isinstance(e, Mul):
        fs = e.factors
        terms = {}
        for i, f in enumerate(fs):
            for v, d in _gradient_of(f).items():
                ts = terms.setdefault(v, [])
                if d != ZERO:
                    ts.append(mul(*(fs[:i] + (d,) + fs[i + 1:])))
        return {v: add(*ts) if ts else ZERO for v, ts in terms.items()}
    if isinstance(e, AFun):
        terms = {}
        for i, arg in enumerate(e.args):
            g = _gradient_of(arg)
            if not g:
                continue
            bumped = AFun(e.name, e.args, tuple(
                t + (1 if j == i else 0) for j, t in enumerate(e.deriv)), e.family)
            for v, d in g.items():
                ts = terms.setdefault(v, [])
                if d != ZERO:
                    ts.append(mul(bumped, d))
        return {v: add(*ts) if ts else ZERO for v, ts in terms.items()}
    # one child: the chain rule with the outer derivative built once
    if isinstance(e, Pow):
        g = _gradient_of(e.base)
        if not g:
            return g
        exp, outer = rat(e.exp), pow_(e.base, e.exp - 1)
        return {v: ZERO if d == ZERO else mul(exp, outer, d) for v, d in g.items()}
    g = _gradient_of(e.arg)   # Fun or AInt
    if not g:
        return g
    outer = _FUN_DERIVATIVE[e.name](e.arg) if isinstance(e, Fun) else afun(e.name, (e.arg,))
    return {v: ZERO if d == ZERO else mul(outer, d) for v, d in g.items()}


# d/da of each elementary function, as a function of its argument a
_FUN_DERIVATIVE = {
    "sin": lambda a: fun("cos", a),
    "cos": lambda a: neg(fun("sin", a)),
    "exp": lambda a: fun("exp", a),
    "log": lambda a: pow_(a, -1),
}


def subst(e: Expr, bindings: Mapping[Expr, Expr]) -> Expr:
    """Simultaneous replacement of symbols / jet coordinates / eps.

    Trees share subtrees, so each distinct subtree is rebuilt once per call:
    a dict local to the call keeps what it became, or None when it came back
    unchanged.  An unchanged subtree is then the node met, as ``rebuild``
    keeps it, so its parent is not rebuilt: a node built directly is not put
    in canonical form because an equal twin was met first.
    """
    if not bindings:
        return e
    done: dict[Expr, Expr | None] = {}

    def walk(c: Expr) -> Expr:
        hit = bindings.get(c)
        if hit is not None:
            return hit
        if c in done:
            out = done[c]
            return c if out is None else out
        out = rebuild(c, walk)
        done[c] = None if out is c else out
        return out

    try:
        return walk(e)
    finally:
        del walk   # walk holds itself through its cell: free it by refcount


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
#
# The expansion and normal-form caches are memos whose entries count one
# each.

_EXPAND_CACHE: dict[Expr, Expr] = {}
_ZNF_CACHE: dict[Expr, tuple[dict, Expr]] = {}
_EXPAND_MEMO = _Memo("expand", _EXPAND_CACHE)
_ZNF_MEMO = _Memo("normal_form", _ZNF_CACHE)


def expand(e: Expr) -> Expr:
    """The id-form read of ``e`` written back as a tree, equal in value to e.

    The read (``_read``) distributes products over sums and multiplies out
    positive integer powers of sums and products; ``_write`` writes its
    monomials back, as ``_written`` does.  On Laurent polynomials in
    symbols, jets and sums that is the tree distributing node by node
    builds.  The read also rewrites what the zero decision reads: sin/cos of
    an integer multiple of an angle in the base angle, sin^2 as 1 - cos^2, a
    half-integer power of a sum as its multiplied-out integer part times the
    root, and the arguments of functions and the bases of other powers in
    their read form.  Denominators are not cleared.  A sum that reads as
    zero under a negative power raises ``DivisionByZero``, as ``is_zero``
    does: (sin(t)^2 + cos(t)^2 - 1)^(-1) is undefined.
    """
    _EXPAND_MEMO.room()
    out = _EXPAND_CACHE.get(e)
    if out is not None:
        _EXPAND_MEMO.hits += 1
        return out
    _EXPAND_MEMO.misses += 1
    out = _write(_read(e))
    _EXPAND_MEMO.put(_EXPAND_CACHE, e, out)
    _EXPAND_MEMO.put(_EXPAND_CACHE, out, out)
    return out


class _Unknown:
    __slots__ = ()

    def __repr__(self):
        return "Unknown"

    def __bool__(self):
        raise TypeError("Unknown verdict is not a boolean; compare with `is`")


UNKNOWN = _Unknown()


def _monomial_pairs(term: Expr) -> tuple[int | Fraction, list[tuple[Expr, int | Fraction]]]:
    c, rest = _split_coeff(term)
    if rest == ONE:
        return c, []
    factors = rest.factors if isinstance(rest, Mul) else (rest,)
    return c, [_as_base_exp(f) for f in factors]


# ---------------------------------------------------------------------------
# the id form: monomials on interned atoms
#
# Inside the normal form a monomial is a key, a tuple of (atom id, int
# exponent) pairs sorted by id, and a coefficient is an int wherever it is
# integral, else a Fraction.  ``_intern`` gives every atom an id in order of
# first use.  The atoms are those of the keys ``_zero_normal_form`` returns:
# a base X to an integer power, its root X^(1/2) (so (X^(1/2))^2 = X always
# holds), and the atom X^p for any other fractional p.  A power atom X^w
# folds into (X, w) when exponents of one base are added (``_fold``), one
# level deep as ``mul`` merges the factors of a product; ``_key_of`` splits a
# base's exponent back into atoms.  The kind of an atom says which rule of
# ``_settle_folded`` reads it as a base, and _LO/_HI give the exponents at
# which a key holding it needs no rule, so most products are a merge of two
# keys (``_times``).  A plain atom takes no rule at any exponent, so
# expansions that hold only plain atoms are multiplied with each other at
# once, by the one product that applies no rule (``_plain_times``).

_PLAIN, _SIN, _SUM, _FOLD, _ROOT, _POW = range(6)
_HALF = Fraction(1, 2)
# the exponents x at which an atom of a kind is left as it is: lo <= x <= hi
_STABLE = {_PLAIN: (-math.inf, math.inf), _SIN: (-math.inf, 1), _SUM: (-math.inf, -1),
           _FOLD: (1, 0), _ROOT: (1, 1), _POW: (1, 0)}

_ATOM_IDS: dict[Expr, int] = {}        # atom -> id
_ATOM_OF: list[Expr] = []              # id -> atom
_KIND: list[int] = []                  # id -> kind
_LO: list = []                         # id -> least exponent left as it is
_HI: list = []                         # id -> largest exponent left as it is
_FOLDS: list[tuple | None] = []        # id -> (base id, w) of X^w, else None
_ROOT_IDS: dict[int, int] = {}         # base id -> id of its X^(1/2)


def _intern(atom: Expr) -> int:
    """The id of an atom, given on first use.  An atom is always interned,
    since a read cannot go on without it; an interning that takes the table
    past the read memo's bound marks it full, so the next read empties it."""
    i = _ATOM_IDS.get(atom)
    if i is not None:
        return i
    fold = None
    if isinstance(atom, Pow):
        fold = (_intern(atom.base), atom.exp)
        kind = _ROOT if atom.exp == _HALF else _POW
    elif isinstance(atom, Fun) and atom.name == "sin":
        kind = _SIN
    elif isinstance(atom, Add):
        kind = _SUM
    elif isinstance(atom, (Rat, Mul)):
        kind = _FOLD
    else:
        kind = _PLAIN
    i = _ATOM_IDS[atom] = len(_ATOM_OF)
    lo, hi = _STABLE[kind]
    _ATOM_OF.append(atom)
    _KIND.append(kind)
    _LO.append(lo)
    _HI.append(hi)
    _FOLDS.append(fold)
    if len(_ATOM_OF) > _READ_MEMO.bound:
        _READ_MEMO.full = True
    return i


def _stable(pairs) -> bool:
    """True when no rule of ``_settle_folded`` reads the (id, exponent)
    pairs: then they are their own key once sorted."""
    lo, hi = _LO, _HI
    for i, x in pairs:
        if x and not lo[i] <= x <= hi[i]:
            return False
    return True


def _fold(pairs) -> dict:
    """(id, exponent) pairs as {base id: exponent}: each power atom X^w is
    folded into X with its exponent times w."""
    out: dict = {}
    folds = _FOLDS
    for i, x in pairs:
        f = folds[i]
        if f is not None:
            i, x = f[0], f[1] * x
        out[i] = out[i] + x if i in out else x
    return out


def _key_of(bases: dict) -> tuple:
    """{base id: exponent} as a key: X^(p/2) is split as X^floor(p/2) *
    X^(1/2), any other fractional power is the atom X^p, and zero exponents
    are dropped.  Where two bases give one atom, their exponents add."""
    atoms: dict[int, int] = {}
    for b, p in bases.items():
        d = p.denominator
        if d == 1:
            i, x = b, p.numerator
        else:
            if d == 2:
                x = p.numerator // 2
                if x:
                    atoms[b] = atoms[b] + x if b in atoms else x
                i = _ROOT_IDS.get(b)
                if i is None:
                    i = _ROOT_IDS[b] = _intern(Pow(_ATOM_OF[b], _HALF))
            else:
                i = _intern(Pow(_ATOM_OF[b], p))
            x = 1
        atoms[i] = atoms[i] + x if i in atoms else x
    return tuple(sorted(kv for kv in atoms.items() if kv[1]))


# ---------------------------------------------------------------------------
# the read memo: sparse products shared by every normal form
#
# ``_sparse`` reads a node into its id-form dict of monomials, and every
# normal form and ``_clear_denominators`` share what was read: the residuals
# of one system hold the same Lagrangian coefficients, partials and sin/cos
# atoms.  Products are read but not stored: in the benchmark's cases they
# were most of the monomials stored and few of the hits, and reading one
# again starts from its factors' stored reads.
#
# The memo holds the reads, the powers of sums that ``_expansion`` reads
# among them, and the Expr form of each key that reached a returned normal
# form (``_KEYS``), each counting its monomials, and the atom table, which
# marks the memo full past its bound.  Every id-form value dies with the
# atom ids it is written in, so the memo is emptied, atom table and all,
# only where ``_read`` or ``_poly_times`` starts, never inside a read.

_READS: dict[Expr, dict] = {}                 # node -> dict
_KEYS: dict[tuple, tuple] = {}                # key -> (Expr key, factor keys)
_READ_MEMO = _Memo("memo", _READS, _KEYS,
                   atoms=(_ATOM_OF, _KIND, _LO, _HI, _FOLDS, _ATOM_IDS, _ROOT_IDS))


def _expansion(b: int, k) -> dict:
    """The id-form dict of X^k for the atom X of id b: for X = sin(x) and an
    even k = 2m that of (1 - cos(x)^2)^m, sum_j (-1)^j C(m, j) cos(x)^(2j);
    for a sum, a product or a rational the read ``_sparse(pow_(X, k))``."""
    base = _ATOM_OF[b]
    if _KIND[b] != _SIN:
        return _sparse(pow_(base, k))
    m, cos = k // 2, _intern(fun("cos", base.arg))
    return {((cos, 2 * j),) if j else (): (-1) ** j * math.comb(m, j) for j in range(m + 1)}


def _settle_folded(mono: dict, c, acc: dict, products: dict):
    """Add c * mono, {base id: exponent}, to acc, reduced by the rules:

    - a sum X with a positive integer part k (and a rational or product
      base with any nonzero k) is replaced by the monomials of
      ``_sparse(pow_(X, k))``;
    - sin(x)^n with an integer n >= 2 is replaced by the monomials of
      (1 - cos(x)^2)^(n//2) times sin(x)^(n mod 2);
    - each product is reduced again, and what is left is keyed by
      ``_key_of``: zero exponents are dropped and a root that reaches
      (X^(1/2))^2 becomes X (rho^2 = X).

    A power atom as a base takes no rule.

    The parts that rules replace, (base id, whole exponent) pairs, are
    collected first.  When every monomial of every part's expansion holds
    only plain atoms, no expansion reaches another part's exponent, so
    expanding them one at a time in any order gives one sum: the product of
    the expansions is built once per parts tuple (``_product``, kept in
    ``products``, a table local to the caller's call), and the key of the
    rest of mono times it is added to acc by ``_plain_times``.  Any other
    mono has its first part expanded, each expansion key folded, and each
    product reduced again, in mono's order: an expansion that brings in a
    negative power of another part's sum changes that part's exponent, so
    there the order of expansion changes the form.
    """
    parts = []
    for b, p in mono.items():
        kind = _KIND[b]
        # the part of the exponent that is replaced by an expansion
        if kind == _SIN:
            if p.denominator != 1 or p < 2:
                continue
            whole = p - p % 2
        elif kind == _SUM or kind == _FOLD:
            whole = p if p.denominator == 1 else \
                p.numerator // 2 if p.denominator == 2 else 0
            if not whole or (whole < 0 and kind == _SUM):
                continue
        else:
            continue
        parts.append((b, whole))
    if not parts:
        key = _key_of(mono)
        acc[key] = acc[key] + c if key in acc else c
        return
    parts = tuple(parts)
    product = products.get(parts, False)
    if product is False:
        product = products[parts] = _product(parts)
    if product is not None:
        rest = dict(mono)
        for b, whole in parts:
            rest[b] -= whole
        # _key_of splits X^p of a plain X as X^floor(p) * X^(1/2) when p is
        # a half-integer, so adding an integer power of X to the key is
        # adding it to p; any other fractional p is one atom X^p, which a
        # power of X from the product would change
        if all(p.denominator <= 2 or b not in {i for key in product for i, _ in key}
               for b, p in rest.items()):
            _plain_times({_key_of(rest): c}, product, acc)
            return
    b, whole = parts[0]
    rest = dict(mono)
    rest[b] -= whole
    for m, mc in _expansion(b, whole).items():
        merged = dict(rest)
        for i, x in _fold(_in_key_order(m)).items():
            merged[i] = merged[i] + x if i in merged else x
        _settle_folded(merged, c * mc, acc, products)


def _product(parts: tuple):
    """The id-form dict of the product of the parts' expansions when each of
    their monomials holds only plain atoms, else None.  The expansions are
    asked for in the parts' order, each only while every earlier one is
    plain, as the nested expansion asks for them."""
    out = {(): 1}
    for b, whole in parts:
        expansion = _expansion(b, whole)
        if any(_KIND[i] != _PLAIN for key in expansion for i, _ in key):
            return None
        out = _plain_times(out, expansion, {})
    return out


def _plain_times(a: dict, b: dict, acc: dict) -> dict:
    """Add the product of the id-form dicts a and b to acc, term by term
    with no rule applied, and return acc: exponents of one atom add and zero
    exponents are dropped.  The key of two keys that share no atom is sorted
    from their own (id, exponent) pairs, so it holds no new pair: the
    products of the normal form keep fewer objects alive."""
    for ka, ca in a.items():
        held = dict(ka)
        for kb, cb in b.items():
            for i, _ in kb:
                if i in held:
                    merged = held.copy()
                    for j, x in kb:
                        merged[j] = merged[j] + x if j in merged else x
                    key = [kv for kv in merged.items() if kv[1]]
                    key.sort()
                    key = tuple(key)
                    break
            else:
                key = tuple(sorted(ka + kb))
            acc[key] = acc[key] + ca * cb if key in acc else ca * cb
    return acc


def _settle(keys: tuple, c, acc: dict, products: dict):
    """Add c times the product of the id keys to acc, as
    ``_settle_folded`` reduces it.  A product that no rule reads is sorted
    into its key as it is.  Otherwise the keys are folded with each key's
    atoms in ``_key`` order, as the Expr-keyed product met them: where a
    reduction brings in negative powers of another sum, the order in which
    two sums are expanded changes the form the normal form takes."""
    mono: dict[int, int] = {}
    for k in keys:
        for i, x in k:
            mono[i] = mono[i] + x if i in mono else x
    if _stable(mono.items()):
        key = tuple(sorted(kv for kv in mono.items() if kv[1]))
        acc[key] = acc[key] + c if key in acc else c
        return
    _settle_folded(_fold(pair for k in keys for pair in _in_key_order(k)), c, acc, products)


def _in_key_order(key: tuple):
    return sorted(key, key=_atom_order) if len(key) > 1 else key


def _atom_order(pair) -> tuple:
    return _ATOM_OF[pair[0]]._key


def _times(a: dict, b: dict) -> dict:
    """The product of two dicts, unsorted, zero terms dropped: term by term,
    as Monagan & Pearce multiply sparse polynomials ("Sparse polynomial
    multiplication and division in Maple 14", 2009).  Two keys that no
    rule reads and that share no atom multiply by merging; any other pair
    is settled."""
    acc: dict[tuple, int | Fraction] = {}
    products: dict[tuple, dict | None] = {}   # parts: product, for this call
    right = [(kb, cb, {i for i, _ in kb}, _stable(kb)) for kb, cb in b.items()]
    for ka, ca in a.items():
        ids, stable = {i for i, _ in ka}, _stable(ka)
        for kb, cb, idb, stable_b in right:
            c = ca * cb
            if stable and stable_b and ids.isdisjoint(idb):
                key = tuple(sorted(ka + kb))
                acc[key] = acc[key] + c if key in acc else c
                continue
            _settle((ka, kb), c, acc, products)
    return {k: c for k, c in acc.items() if c}


def _read(e: Expr) -> dict:
    """The id-form dict of e before clearing, unsorted: the sum of its
    terms' sparse reads."""
    _READ_MEMO.room()
    acc: dict[tuple, int | Fraction] = {}
    for term in (e.terms if isinstance(e, Add) else (e,)):
        for k, c in _sparse(term).items():
            acc[k] = acc[k] + c if k in acc else c
    return {k: c for k, c in acc.items() if c}


def _sparse(e: Expr) -> dict:
    """The dict of e read by products.

    Every atom is read with its insides in the reader's own form: the
    arguments of a function and the base of a power are read and written
    back as trees (``_written``), so F(t*(1 + u0)) and F(t + t*u0) are one
    atom.  sin/cos of an integer multiple k*x, k >= 2, of the written
    argument (the content of a sum, the coefficient of anything else) is
    read as its multiple-angle expansion in sin(x) and cos(x).  A positive
    integer power of a sum, product or rational is the product of its
    base's reads; any other power is the power of the written base, settled
    on its (base, exponent) pairs as they stand.  Those pairs are not
    folded: the root of u0^2 is not u0.
    """
    out = _READS.get(e)
    if out is not None:
        _READ_MEMO.hits += 1
        return out
    _READ_MEMO.misses += 1
    if isinstance(e, Rat):
        out = {(): e.value} if e.value else {}
    elif isinstance(e, Add):
        out = {}
        for t in e.terms:
            for k, c in _sparse(t).items():
                out[k] = out[k] + c if k in out else c
        out = {k: c for k, c in out.items() if c}
    elif isinstance(e, Mul):
        parts = [_sparse(f) for f in e.factors]
        if not all(parts):   # a zero factor
            out = {}
        else:
            # the one-term factors are merged into one monomial first
            out, keys, c, sums = {}, [], 1, []
            for p in parts:
                if len(p) > 1:
                    sums.append(p)
                    continue
                (k, x), = p.items()
                c *= x
                keys.append(k)
            _settle(keys, c, out, {})
            for p in sums:
                out = _times(out, p)
    elif isinstance(e, Pow) and e.exp.denominator == 1 and e.exp > 0 \
            and not isinstance(e.base, _ATOMS):
        out = b = _sparse(e.base)
        for _ in range(e.exp.numerator - 1):
            out = _times(out, b)
    elif isinstance(e, Pow):
        c, pairs = _monomial_pairs(pow_(_written(e.base), e.exp))
        out = {}
        _settle_folded({_intern(b): x for b, x in pairs}, c, out, {})
        out = {k: c for k, c in out.items() if c}
    else:
        atom = rebuild(e, _written)
        k = _UNIT
        if isinstance(atom, Fun) and atom.name in ("sin", "cos"):
            k, x = _add_content(atom.arg) if isinstance(atom.arg, Add) else \
                _split_coeff(atom.arg)
        if k.denominator == 1 and k >= 2:
            # the real or imaginary part of (cos(x) + i*sin(x))^n, settled
            # term by term: (-1)^(j//2) * C(n, j) * cos(x)^(n-j) * sin(x)^j
            # over even or odd j
            out, n, sin, cos = {}, k.numerator, _intern(fun("sin", x)), _intern(fun("cos", x))
            products: dict[tuple, dict | None] = {}
            for j in range(atom.name == "sin", n + 1, 2):
                _settle_folded({cos: n - j, sin: j}, (-1) ** (j // 2) * math.comb(n, j), out,
                               products)
            out = {key: c for key, c in out.items() if c}
        else:
            out = {((_intern(atom), 1),): 1} if isinstance(atom, _ATOMS) else _sparse(atom)
    if not isinstance(e, Mul):
        _READ_MEMO.put(_READS, e, out, len(out) or 1)
    return out


def _written(e: Expr) -> Expr:
    """The read of e written back as a tree."""
    return _write(_sparse(e))


def _write(poly: dict) -> Expr:
    """An id-form dict as a tree: the sum of its monomials, each the product
    of its coefficient and its atoms' powers, which puts a root atom back
    onto its base."""
    return add(*[mul(rat(c), *[pow_(_ATOM_OF[i], x) for i, x in key])
                 for key, c in poly.items()])


# ---------------------------------------------------------------------------
# the boundary: id-form dicts back in Expr keys and term order


def _expr_key(key: tuple) -> tuple:
    """(Expr key, factor keys) of an id key, from ``_KEYS`` or built and
    stored.  The Expr key is a tuple of (atom, exponent) sorted by atom;
    the factor keys are the ``_key``s of the factors of the product the
    key stands for, in ``mul``'s order, which ``_term_sorted`` sorts by."""
    hit = _KEYS.get(key)
    if hit is not None:
        return hit
    pairs = [(_ATOM_OF[i], x) for i, x in _in_key_order(key)]
    if all(isinstance(a, _ATOMS) for a, _ in pairs):
        # mul of distinct atoms to integer powers only sorts the powers,
        # so their keys are built without building the product
        factors = tuple(sorted(a._key if x == 1 else (7, a._key, x, 1) for a, x in pairs))
    else:
        # undo _key_of's split: a root or X^(p/q) atom goes back onto its
        # base before the powers are taken, as in (t^2)^(-1/2)
        bases: dict[Expr, int | Fraction] = {}
        for a, x in pairs:
            if isinstance(a, Pow) and a.exp.denominator > 1 and x == 1:
                a, x = a.base, a.exp
            bases[a] = bases[a] + x if a in bases else x
        # a power on its own base, distinct for each piece, is a factor
        # that mul keeps as it is, so mul would only sort the pieces: an
        # atom's is keyed without building it, any other base's is taken by
        # pow_.  A product or a rational, or a piece on another base (a
        # power of a power atom), goes through mul, which merges and folds
        keys = []
        for a, x in bases.items():
            if isinstance(a, _ATOMS) and x:
                keys.append(a._key if x == 1 else (7, a._key, x.numerator, x.denominator))
                continue
            f = pow_(a, x)
            if not ((f is a and not isinstance(a, (Rat, Mul))) or (
                    type(f) is Pow and f.base is a)):
                rest = mul(*[pow_(a, x) for a, x in bases.items()])
                factors = rest._key[1] if isinstance(rest, Mul) else (rest._key,)
                break
            keys.append(f._key)
        else:
            factors = tuple(sorted(keys))
    hit = (tuple(pairs), factors)
    _READ_MEMO.put(_KEYS, key, hit)
    return hit


def _term_sorted(poly: dict) -> dict:
    """The id-form poly in Expr keys, zero terms dropped, ordered as ``add``
    orders the terms of the expanded tree: by the ``_key`` of the term it
    holds for each monomial: ``rest``, the product of the key's powers, when
    c == 1, else the product node of c and the factors of ``rest``.  That
    order reaches printed output (see ``linalg.assemble_rows``).  Each value
    is an int when it is integral, else a Fraction: a product or a sum of
    Fractions in the id form can be integral."""
    items = []
    for key, c in poly.items():
        if not c:
            continue
        c = _rational(c)
        ekey, factors = _expr_key(key)
        if not key:
            order = (0, c.numerator, c.denominator)
        elif c == 1:
            order = factors[0] if len(factors) == 1 else (8, factors)
        else:
            order = (8, ((0, c.numerator, c.denominator),) + factors)
        items.append((order, ekey, c))
    items.sort(key=operator.itemgetter(0))
    return {ekey: c for _, ekey, c in items}


def _clear_denominators(poly: dict) -> tuple[dict, Expr]:
    """Multiply the id-form poly through by positive powers of sum atoms in
    denominators.

    Needed for a complete zero test when an expanded polynomial part can
    cancel against an atomic inverse of the same sum, e.g. (x+y)*(x+y)^(-1).
    Multiplying by a nonzero function preserves zero-ness both ways.
    Returns the cleared polynomial in Expr keys and term order
    (``_term_sorted``) and the multiplier used (ONE if none).
    """
    need: dict[int, int] = {}
    kind = _KIND
    for key in poly:
        for i, x in key:
            if x < 0 and kind[i] == _SUM:
                need[i] = max(need.get(i, 0), -x)
    if not need:
        return _term_sorted(poly), ONE
    out = _times(poly, {tuple(sorted(need.items())): 1})
    return _term_sorted(out), mul(*[pow_(_ATOM_OF[i], x) for i, x in need.items()])


def _poly_times(poly: dict, factor: Mapping[Expr, int | Fraction]) -> dict:
    """The normal form of poly, a dict that ``_zero_normal_form`` returned,
    times the monomial prod(b^k for b, k in factor).

    One ``_times`` in the id form: poly's keys are interned again and the
    factor is keyed by ``_key_of``.  The result is in Expr keys and term
    order (``_term_sorted``).
    """
    _READ_MEMO.room()
    ids = {tuple(sorted((_intern(a), x) for a, x in key)): c for key, c in poly.items()}
    out = _times(ids, {_key_of({_intern(b): q for b, q in factor.items()}): 1})
    return _term_sorted(out)


def _zero_normal_form(e: Expr) -> tuple[dict, Expr]:
    """(polynomial, multiplier): the normal form of multiplier * e.

    ``_read`` reads the tree into the id-form dict with sparse products,
    through the read memo that every normal form shares: sin/cos of
    integer multiples are reduced to the base angle, sin(x)^n to cos
    powers, and products of sums are multiplied out on the monomials.  An
    atom is put in form by the same read: a function's arguments and the
    base of a negative or fractional power (a sum in a denominator or under
    a root) are read and written back (``_sparse``), so the rules reach
    inside arguments, radicals and denominators, and no tree is rewritten.
    ``_clear_denominators`` then clears the dict with the same product.
    The multiplier is the product of the nonzero denominators cleared (ONE
    if none); normal forms of different expressions are comparable only
    where their multipliers agree.

    The polynomial is returned as {Expr key: coefficient} in term order
    (``_term_sorted``): an Expr key is a tuple of (atom, int exponent)
    sorted by atom, each distinct id key converted once through ``_KEYS``,
    and a coefficient is an int when it is integral, else a Fraction.
    Which atoms it holds is for ``is_zero`` to judge.
    """
    _ZNF_MEMO.room()
    hit = _ZNF_CACHE.get(e)
    if hit is not None:
        _ZNF_MEMO.hits += 1
        return hit
    _ZNF_MEMO.misses += 1
    hit = _clear_denominators(_read(e))
    _ZNF_MEMO.put(_ZNF_CACHE, e, hit)
    return hit


def cache_stats() -> dict[str, dict[str, int]]:
    """Entries, held size, emptyings of a full memo, hits and misses of
    each memo since the last ``clear_caches``: ``gradient`` (node gradients,
    holding their derivatives), ``expand`` (whole expansions, each the
    written read of a tree, also stored under itself), ``normal_form``
    (whole zero normal forms) and ``memo`` (node reads, among them the
    powers of sums that settling expands, and converted keys, holding their
    monomials, and the interned ``atoms``); ``rat`` gives the interned
    rationals, their bound and whether it was reached (``full``)."""
    stats = {memo.name: memo.stats() for memo in _MEMOS}
    stats["rat"] = {"entries": len(_RAT_CACHE), "bound": _BOUND,
                    "full": len(_RAT_CACHE) >= _BOUND}
    return stats


def clear_caches():
    """Empty every memo, the atom table with the read memo, and zero their
    counters.  No output depends on them.  The interned rationals are never
    emptied: ``add`` and ``mul`` test operands with ``is ZERO`` and
    ``is ONE``, so those two must stay the interned ones, and the table is
    bounded already (a value past the bound is built uninterned)."""
    for memo in _MEMOS:
        memo.empty()
        memo.clears = memo.hits = memo.misses = 0


def _holds_inverse_sum(e: Expr) -> bool:
    """True when e holds a negative power of a sum.  A written argument or
    root base is not cleared, so over such a power it may be 1 unseen."""
    return any(isinstance(p.base, Add) and p.exp < 0 for p in atoms_of(e, Pow))


def _atom_decidable(atom: Expr) -> bool:
    """True for an atom of the class ``is_zero`` decides."""
    if isinstance(atom, Fun):
        c, rest = _split_coeff(atom.arg)
        return atom.name in ("sin", "cos") and abs(c) == 1 and isinstance(rest, (Sym, Jet))
    if isinstance(atom, Pow):
        return (isinstance(atom.base, Add) and atom.exp == _HALF
                and not _holds_inverse_sum(atom.base))
    if isinstance(atom, (AFun, AInt)):
        return not _holds_inverse_sum(atom)
    return isinstance(atom, (Sym, Jet, Eps, Add))


def is_zero(e: Expr):
    """Three-valued zero decision: True, False, or UNKNOWN.

    Sound: True implies e is identically zero.  An empty normal form is
    True; otherwise the verdict is False when every atom of the cleared
    normal form lies in the class on which the test is complete (the class
    every determining computation in this package stays inside):

    - symbols, jet coordinates, eps, arbitrary functions and their
      antiderivatives, to any integer power;
    - sums, and square roots of sums only;
    - sin/cos only of +-(a symbol or jet coordinate), and only to
      non-negative powers.

    The arguments of a function atom and the base of a root are in the
    read's own form, so equal arguments give one atom.  That form is not
    cleared, so an arbitrary function or antiderivative whose argument
    holds a negative power of a sum gives UNKNOWN, and so does a root of a
    sum whose terms hold negative powers of sums:
    F(m1*(m1+m2)^(-1) + m2*(m1+m2)^(-1)) - F(1) and
    (m1*(m1+m2)^(-1) + m2*(m1+m2)^(-1))^(1/2) - 1 are zero.
    Any other atom outside the class gives UNKNOWN too: exp or log, sin/cos
    of any other argument or to a negative power, a root of anything but a
    sum, and every other fractional power, such as x^(1/3).
    """
    poly, _ = _zero_normal_form(e)
    if not poly:
        return True
    for key in poly:
        for atom, p in key:
            if not _atom_decidable(atom) or (p < 0 and isinstance(atom, Fun)):
                return UNKNOWN
    return False


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
                inside = atoms_of(base, Expr) & genset
                if inside:
                    raise NotPolynomial(f"generator {min(inside)!r} occurs inside {base!r}")
                coeff_part.append(pow_(base, p))
        key = mul(*[pow_(b, p) for b, p in sorted(mono_part, key=lambda bp: bp[0]._key)])
        out.setdefault(key, []).append(mul(rat(c), *coeff_part))
    result = {}
    for key, pieces in out.items():
        s = add(*pieces)
        if s != ZERO:
            result[key] = s
    return result


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
