"""Jet space declaration and the total-derivative operator.

A JetSpace fixes the independent variables, the dependent base names, the
eps-truncation order p and the maximum derivative order r.  Jet coordinates
u_(k)alpha together with their derivatives up to order r (plus one transient
order used by divergence checks) are the coordinates every other module
computes in.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .errors import DerivativeOverflow

__all__ = ["JetSpace", "total_derivative"]


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

    def language(self, functions=None, constants=()):
        from .lang import Language
        return Language(self.independent, self.dependent, functions,
                        constants, max_eps_order=self.order)


def total_derivative(e: ex.Expr, i: int | str, space: JetSpace) -> ex.Expr:
    """Total derivative D_i on the expanded jet space.

    D_i = d/dx_i + sum over eps orders k and dependents alpha of
    u_(k)alpha,i d/du_(k)alpha + higher-derivative terms; derivative indices
    are raised as needed.  No eps truncation happens here; that is an
    explicit, separate pass.  Every partial is read from one
    ``expr.gradient`` of e.
    """
    var = space.independent[i] if isinstance(i, int) else i
    if var not in space.independent:
        raise ValueError(f"{var!r} is not an independent variable")
    grad = ex.gradient(e)
    out = [grad.get(ex.sym(var), ex.ZERO)]
    for j, d in grad.items():
        if not isinstance(j, ex.Jet) or d == ex.ZERO:
            continue
        if len(j.deriv) + 1 > space.max_derivative + 1:
            raise DerivativeOverflow(
                f"D_{var} of {j!r} needs derivative order {len(j.deriv) + 1}, "
                f"beyond the transient bound {space.max_derivative + 1}")
        out.append(ex.mul(ex.jet(j.base, j.order, j.deriv + (var,)), d))
    return ex.add(*out)
