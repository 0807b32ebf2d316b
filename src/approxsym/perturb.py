"""Eps-series machinery: expansion, truncated arithmetic, recursion operator.

An EpsSeries holds the p+1 coefficients of c_0 + eps c_1 + ... + eps^p c_p;
no coefficient may contain eps itself.  ``expand_series`` substitutes the
perturbation expansion u = sum eps^k u_(k) into an expression in the base
variables and Taylor-expands in eps, dropping O(eps^(p+1)).  ``recursion_R``
is the Leibniz-rule operator generating order-(k+1) infinitesimal
coefficients from order-k ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .errors import MissingFamilyIndex, OrderMismatch, SingularAtEpsZero
from .jet import JetSpace, total_derivative

__all__ = [
    "EpsSeries", "series_add", "series_sub", "series_mul", "series_scale",
    "series_shift", "series_neg", "series_total_derivative", "series_u_partial",
    "const_series", "expand_series", "recursion_R", "build_infinitesimals",
    "validate_triangular",
]


@dataclass(frozen=True)
class EpsSeries:
    coeffs: tuple[ex.Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        for c in self.coeffs:
            if ex.contains_eps(c):
                raise ValueError(f"series coefficient contains eps: {c!r}")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> ex.Expr:
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def is_zero_series(self):
        """True / False / UNKNOWN, conjunction over coefficients."""
        verdict = True
        for c in self.coeffs:
            z = ex.is_zero(c)
            if z is False:
                return False
            if z is ex.UNKNOWN:
                verdict = ex.UNKNOWN
        return verdict

    def __repr__(self):
        return "EpsSeries[" + "; ".join(repr(c) for c in self.coeffs) + "]"


def const_series(e: ex.Expr, p: int) -> EpsSeries:
    return EpsSeries((e,) + (ex.ZERO,) * p)


def _check(a: EpsSeries, b: EpsSeries):
    if a.order != b.order:
        raise OrderMismatch(f"series orders {a.order} and {b.order} differ")


def series_add(a: EpsSeries, b: EpsSeries) -> EpsSeries:
    _check(a, b)
    return EpsSeries(tuple(ex.add(x, y) for x, y in zip(a.coeffs, b.coeffs)))


def series_sub(a: EpsSeries, b: EpsSeries) -> EpsSeries:
    _check(a, b)
    return EpsSeries(tuple(ex.sub(x, y) for x, y in zip(a.coeffs, b.coeffs)))


def series_neg(a: EpsSeries) -> EpsSeries:
    return EpsSeries(tuple(ex.neg(x) for x in a.coeffs))


def series_mul(a: EpsSeries, b: EpsSeries) -> EpsSeries:
    """Cauchy product truncated at the common order."""
    _check(a, b)
    p = a.order
    out = []
    for k in range(p + 1):
        out.append(ex.add(*[ex.mul(a.coeffs[i], b.coeffs[k - i]) for i in range(k + 1)]))
    return EpsSeries(tuple(out))


def series_scale(a: EpsSeries, c) -> EpsSeries:
    """Multiply by an eps-free expression or rational."""
    c = c if isinstance(c, ex.Expr) else ex.rat(c)
    if ex.contains_eps(c):
        raise ValueError("use series_shift/series_mul for eps-dependent factors")
    return EpsSeries(tuple(ex.mul(c, x) for x in a.coeffs))


def series_shift(a: EpsSeries, s: int = 1) -> EpsSeries:
    """Multiply by eps^s: shift coefficients right, dropping the tail."""
    if s < 0:
        raise ValueError("negative eps shifts are not defined")
    p = a.order
    return EpsSeries((ex.ZERO,) * min(s, p + 1) + a.coeffs[:max(p + 1 - s, 0)])


def series_total_derivative(a: EpsSeries, i, space: JetSpace) -> EpsSeries:
    return EpsSeries(tuple(total_derivative(c, i, space) for c in a.coeffs))


def series_u_partial(a: EpsSeries, slot: ex.Jet) -> EpsSeries:
    """Coefficient-wise partial by the order-0 slot of a jet coordinate.

    For a series that arose by eps-expansion, [d(a_k)/d u_(0)alpha,J]_k is
    exactly the expansion of the partial derivative with respect to the
    unexpanded coordinate u_alpha,J (chain-rule identity of the expansion).
    """
    if slot.order != 0:
        raise ValueError("extraction slot must be an order-0 jet coordinate")
    return EpsSeries(tuple(ex.diff(c, slot) for c in a.coeffs))


# ---------------------------------------------------------------------------
# eps expansion of expressions in the base variables


def expand_series(e: ex.Expr, space: JetSpace) -> EpsSeries:
    """Substitute u_alpha -> sum eps^k u_(k)alpha and Taylor-expand in eps.

    The input may contain eps, base jets (written without an eps index) and
    already-expanded jet coordinates (which are eps-independent).  Raises
    SingularAtEpsZero when a negative or fractional power meets a base that
    vanishes identically at eps = 0.
    """
    s = _expand_series(e, space)
    validate_triangular(s)
    return s


def _expand_series(e: ex.Expr, space: JetSpace) -> EpsSeries:
    p = space.order
    if isinstance(e, ex.Eps):
        coeffs = [ex.ZERO] * (p + 1)
        if p >= 1:
            coeffs[1] = ex.ONE
        return EpsSeries(tuple(coeffs))
    if isinstance(e, ex.Jet) and e.order is None:
        return EpsSeries(tuple(ex.jet(e.base, k, e.deriv) for k in range(p + 1)))
    if isinstance(e, (ex.Rat, ex.Sym, ex.Jet)):
        return const_series(e, p)
    if isinstance(e, ex.Add):
        out = const_series(ex.ZERO, p)
        for t in e.terms:
            out = series_add(out, _expand_series(t, space))
        return out
    if isinstance(e, ex.Mul):
        out = const_series(ex.ONE, p)
        for f in e.factors:
            out = series_mul(out, _expand_series(f, space))
        return out
    if isinstance(e, ex.Pow):
        return _expand_pow(e.base, e.exp, space)
    if isinstance(e, (ex.Fun, ex.AFun, ex.AInt)):
        return _expand_apply(e, space)
    raise TypeError(f"cannot expand {type(e).__name__} in eps")


def _split_head(s: EpsSeries) -> tuple[ex.Expr, EpsSeries]:
    """s = head + delta with delta_0 = 0."""
    return s.coeffs[0], EpsSeries((ex.ZERO,) + s.coeffs[1:])


def _expand_pow(base: ex.Expr, r: Fraction, space: JetSpace) -> EpsSeries:
    p = space.order
    b = _expand_series(base, space)
    if r.denominator == 1 and r >= 0:
        out = const_series(ex.ONE, p)
        for _ in range(int(r)):
            out = series_mul(out, b)
        return out
    head, delta = _split_head(b)
    if ex.is_zero(head) is True:
        raise SingularAtEpsZero(f"{base!r}^{r} has a base vanishing at eps=0")
    # binomial series: sum_d C(r,d) head^(r-d) delta^d, delta^d = O(eps^d)
    out = const_series(ex.ZERO, p)
    delta_pow = const_series(ex.ONE, p)
    coeff = Fraction(1)
    for d in range(p + 1):
        if d > 0:
            coeff = coeff * (r - (d - 1)) / d
            delta_pow = series_mul(delta_pow, delta)
        term = series_scale(delta_pow, ex.mul(ex.rat(coeff), ex.pow_(head, r - d)))
        out = series_add(out, term)
    return out


def _expand_apply(e: ex.Expr, space: JetSpace) -> EpsSeries:
    """Multivariate Taylor expansion of a function node at the eps=0 point."""
    p = space.order
    args = e.args if isinstance(e, ex.AFun) else (e.arg,)
    arg_series = [_expand_series(a, space) for a in args]
    heads, deltas = zip(*[_split_head(s) for s in arg_series])
    formals = [ex.sym(f"_taylor{i}") for i in range(len(args))]
    if isinstance(e, ex.Fun):
        body: ex.Expr = ex.fun(e.name, formals[0])
    elif isinstance(e, ex.AInt):
        body = ex.aint(e.name, formals[0])
    else:
        body = ex.AFun(e.name, tuple(formals), e.deriv, e.family)
    at_head = {f: h for f, h in zip(formals, heads)}
    out = const_series(ex.subst(body, at_head), p)
    # accumulate sum over multi-indices tau with 1 <= |tau| <= p
    frontier = [((0,) * len(args), body, const_series(ex.ONE, p))]
    for total in range(1, p + 1):
        new_frontier = []
        for tau, deriv_body, delta_prod in frontier:
            # extend by the first index position not smaller than the last
            # incremented one, so each multi-index is produced exactly once
            start = 0
            for i in range(len(args) - 1, -1, -1):
                if tau[i]:
                    start = i
                    break
            for i in range(start, len(args)):
                tau2 = tuple(t + (1 if j == i else 0) for j, t in enumerate(tau))
                body2 = ex.diff(deriv_body, formals[i])
                prod2 = series_mul(delta_prod, deltas[i])
                new_frontier.append((tau2, body2, prod2))
        for tau, deriv_body, delta_prod in new_frontier:
            factorial = 1
            for t in tau:
                factorial *= math.factorial(t)
            coeff = ex.mul(ex.rat(Fraction(1, factorial)), ex.subst(deriv_body, at_head))
            out = series_add(out, series_scale(delta_prod, coeff))
        frontier = new_frontier
    return out


def validate_triangular(s: EpsSeries):
    """Coefficient k may only reference jet coordinates u_(l) with l <= k."""
    for k, c in enumerate(s.coeffs):
        for j in ex.jets_of(c):
            if j.order is None:
                raise ValueError(f"unexpanded base variable {j!r} in series coefficient")
            if j.order > k:
                raise ValueError(
                    f"series coefficient {k} references {j!r} of higher eps order")


# ---------------------------------------------------------------------------
# the recursion operator


def recursion_R(e: ex.Expr, space: JetSpace) -> ex.Expr:
    """Leibniz-rule recursion operator on jets and family functions.

    R[u_(k)j] = (k+1) u_(k+1)j; on a family function (or any of its
    u_(0)-partials) it introduces the next family member plus the chain
    term sum_i d/du_(0)i (...) u_(1)i; independent variables and declared
    constants are R-constants.
    """
    if isinstance(e, (ex.Rat, ex.Sym)):
        return ex.ZERO
    if isinstance(e, ex.Eps):
        raise ValueError("recursion operator is defined on eps-free expressions")
    if isinstance(e, ex.Jet):
        if e.order is None:
            raise ValueError("recursion operator needs expanded jet coordinates")
        k = e.order
        if k + 1 > space.order:
            raise ValueError(f"R[{e!r}] would exceed the truncation order {space.order}")
        return ex.mul(ex.rat(k + 1), ex.jet(e.base, k + 1, e.deriv))
    if isinstance(e, ex.AFun):
        if e.family is None:
            raise MissingFamilyIndex(f"function {e.name!r} carries no family index")
        bumped = ex.AFun(e.name, e.args, e.deriv, e.family + 1)
        chain = []
        for base in space.dependent:
            slot = ex.jet(base, 0)
            d = ex.diff(e, slot)
            if d != ex.ZERO:
                chain.append(ex.mul(d, ex.jet(base, 1)))
        return ex.add(bumped, *chain)
    if isinstance(e, ex.AInt):
        raise MissingFamilyIndex("antiderivative nodes have no family structure")
    if isinstance(e, ex.Add):
        return ex.add(*[recursion_R(t, space) for t in e.terms])
    if isinstance(e, ex.Mul):
        out = []
        fs = e.factors
        for i, f in enumerate(fs):
            out.append(ex.mul(*(fs[:i] + (recursion_R(f, space),) + fs[i + 1:])))
        return ex.add(*out)
    if isinstance(e, ex.Pow):
        return ex.mul(ex.rat(e.exp), ex.pow_(e.base, e.exp - 1), recursion_R(e.base, space))
    if isinstance(e, ex.Fun):
        outer = {
            "sin": lambda a: ex.fun("cos", a),
            "cos": lambda a: ex.neg(ex.fun("sin", a)),
            "exp": lambda a: ex.fun("exp", a),
            "log": lambda a: ex.pow_(a, Fraction(-1)),
        }[e.name](e.arg)
        return ex.mul(outer, recursion_R(e.arg, space))
    raise TypeError(f"recursion operator undefined on {type(e).__name__}")


def build_infinitesimals(seeds: list[ex.Expr], space: JetSpace) -> EpsSeries:
    """Build the tilde coefficient series of one infinitesimal from its seeds.

    ``seeds[k]`` is the order-k family function, an expression in (x, u_(0))
    (concrete, or an opaque family atom).  The result is the eps expansion
    of xi(x, u; eps) = sum_k eps^k seed_k(x, u), i.e. the sum of the shifted
    expansions of the seeds; this is what the recursion-operator chain
    tilde_(k+1) = R[tilde_(k)]/(k+1) produces, up to the invertible
    factorial rescaling of the fresh family functions it introduces.
    """
    p = space.order
    if len(seeds) != p + 1:
        raise ValueError(f"need {p + 1} seed functions, got {len(seeds)}")
    reopen = {ex.jet(b, 0): ex.jet(b, None) for b in space.dependent}
    total = const_series(ex.ZERO, p)
    for j, s in enumerate(seeds):
        for jt in ex.jets_of(s):
            if jt.order != 0 or jt.deriv:
                raise ValueError(f"seed {s!r} must depend on (x, u_(0)) only")
        if ex.contains_eps(s):
            raise ValueError("seeds are eps-free by construction")
        if s == ex.ZERO:
            continue
        expanded = _expand_series(ex.subst(s, reopen), space)
        total = series_add(total, series_shift(expanded, j))
    validate_triangular(total)
    return total
