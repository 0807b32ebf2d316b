"""Jet space declaration and the total-derivative operator.

A JetSpace fixes the independent variables, the dependent base names, the
eps-truncation order p and the maximum derivative order r.  Jet coordinates
u_(k)alpha together with their derivatives up to order r (plus one transient
order used by divergence checks) are the coordinates every other module
computes in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from . import expr as ex
from .errors import DerivativeOverflow

__all__ = ["JetSpace", "total_derivative", "enumerate_monomials"]


@dataclass(frozen=True)
class JetSpace:
    independent: tuple[str, ...] = ("t",)
    dependent: tuple[str, ...] = ("u",)
    order: int = 1
    max_derivative: int = 2

    def __post_init__(self):
        object.__setattr__(self, "independent", tuple(self.independent))
        object.__setattr__(self, "dependent", tuple(self.dependent))
        if len(set(self.independent) | set(self.dependent)) != (
                len(self.independent) + len(self.dependent)):
            raise ValueError("independent and dependent names must be distinct")
        if self.order < 0 or self.max_derivative < 1:
            raise ValueError("need order >= 0 and max_derivative >= 1")

    @property
    def n(self) -> int:
        return len(self.independent)

    @property
    def m(self) -> int:
        return len(self.dependent)

    def jet(self, base: str, order: int | None, deriv=()) -> ex.Jet:
        if base not in self.dependent:
            raise ValueError(f"{base!r} is not a dependent variable")
        if order is not None and not (0 <= order <= self.order):
            raise ValueError(f"eps order {order} outside 0..{self.order}")
        deriv = tuple(deriv)
        for v in deriv:
            if v not in self.independent:
                raise ValueError(f"{v!r} is not an independent variable")
        if len(deriv) > self.max_derivative + 1:
            raise DerivativeOverflow(
                f"derivative order {len(deriv)} exceeds bound {self.max_derivative + 1}")
        return ex.jet(base, order, deriv)

    def x(self, i: int | str) -> ex.Sym:
        name = self.independent[i] if isinstance(i, int) else i
        return ex.sym(name)

    def coordinates(self, max_deriv: int | None = None) -> list[ex.Jet]:
        """All jet coordinates of the space, deterministic order."""
        r = self.max_derivative if max_deriv is None else max_deriv
        out = []
        for base in self.dependent:
            for k in range(self.order + 1):
                for d in range(r + 1):
                    for combo in combinations_with_replacement(self.independent, d):
                        out.append(ex.jet(base, k, combo))
        return out

    def language(self, functions=None, constants=(), strict=False):
        from .lang import Language
        return Language(self.independent, self.dependent, functions,
                        constants, strict, max_eps_order=self.order)


def total_derivative(e: ex.Expr, i: int | str, space: JetSpace) -> ex.Expr:
    """Total derivative D_i on the expanded jet space.

    D_i = d/dx_i + sum over eps orders k and dependents alpha of
    u_(k)alpha,i d/du_(k)alpha + higher-derivative terms; derivative indices
    are raised as needed.  No eps truncation happens here; that is an
    explicit, separate pass.
    """
    var = space.independent[i] if isinstance(i, int) else i
    if var not in space.independent:
        raise ValueError(f"{var!r} is not an independent variable")
    out = [ex.diff(e, ex.sym(var))]
    for j in ex.jets_of(e):
        d = ex.diff(e, j)
        if d == ex.ZERO:
            continue
        if len(j.deriv) + 1 > space.max_derivative + 1:
            raise DerivativeOverflow(
                f"D_{var} of {j!r} needs derivative order {len(j.deriv) + 1}, "
                f"beyond the transient bound {space.max_derivative + 1}")
        out.append(ex.mul(ex.jet(j.base, j.order, j.deriv + (var,)), d))
    return ex.add(*out)


def enumerate_monomials(space: JetSpace, degree: int, eps_order: int) -> list[ex.Expr]:
    """Monomials in first-order jet derivatives, total degree <= degree.

    The eps order of a monomial (the sum of the eps indices of its factors)
    is capped at ``eps_order``.  Deterministic: ordered by total degree,
    then by the canonical order of the coordinate tuple.
    """
    coords = []
    for base in space.dependent:
        for k in range(min(space.order, eps_order) + 1):
            for v in space.independent:
                coords.append(ex.jet(base, k, (v,)))
    coords.sort(key=lambda j: j.key())
    out: list[ex.Expr] = [ex.ONE]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(coords, d):
            if sum(j.order for j in combo) <= eps_order:
                out.append(ex.mul(*combo))
    return out
