"""Approximate Lie generators: prolongation and application.

A Generator stores the eps-series of its infinitesimals: one series per
independent variable (xi) and one per dependent variable (eta), with
coefficient k depending on (x, u_(0..k)) only.  Prolongation coefficients
are computed by the recursive contact formula with all products as
truncated series, and cached per (dependent, derivative multi-index); the
cache is filled on demand by ``apply``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from . import expr as ex
from .jet import JetSpace
from .perturb import (EpsSeries, build_infinitesimals, const_series, jet_series,
                      series_add, series_mul, series_sub, series_total_derivative,
                      validate_triangular)

__all__ = ["Generator"]


def _zero_series(space: JetSpace) -> EpsSeries:
    return const_series(ex.ZERO, space.order)


@dataclass
class Generator:
    space: JetSpace
    xi: tuple[EpsSeries, ...]
    eta: tuple[EpsSeries, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        sp = self.space
        self.xi = tuple(self.xi)
        self.eta = tuple(self.eta)
        if len(self.xi) != sp.n or len(self.eta) != sp.m:
            raise ValueError("one xi series per independent, one eta per dependent")
        for s in self.xi + self.eta:
            if s.order != sp.order:
                raise ValueError("infinitesimal series order must match the space")
            validate_triangular(s, 0)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_seeds(cls, space: JetSpace, xi_seeds, eta_seeds) -> "Generator":
        """Build from family-function seeds, one list of p+1 seeds per slot."""
        xi = tuple(build_infinitesimals(list(s), space) for s in xi_seeds)
        eta = tuple(build_infinitesimals(list(s), space) for s in eta_seeds)
        return cls(space, xi, eta)

    @classmethod
    def from_components(cls, space: JetSpace, xi_rows, eta_rows) -> "Generator":
        """Build from tilde coefficient matrices indexed [k][i] / [k][alpha]."""
        p = space.order
        if [len(r) for r in xi_rows] != [space.n] * (p + 1) \
                or [len(r) for r in eta_rows] != [space.m] * (p + 1):
            raise ValueError("generator matrices need one row per eps order "
                             "and one entry per variable")
        xi = tuple(EpsSeries(tuple(xi_rows[k][i] for k in range(p + 1)))
                   for i in range(space.n))
        eta = tuple(EpsSeries(tuple(eta_rows[k][a] for k in range(p + 1)))
                    for a in range(space.m))
        return cls(space, xi, eta)

    # -- prolongation ---------------------------------------------------------

    def prolong(self, order: int) -> "Generator":
        """Fill the prolongation cache up to derivative ``order``."""
        sp = self.space
        if order > sp.max_derivative:
            raise ValueError(f"prolongation order {order} exceeds r={sp.max_derivative}")
        for a in range(sp.m):
            self._cache.setdefault((a, ()), self.eta[a])
        dxi = {}  # (j, v) -> D_v xi_j, shared by every dependent and multi-index
        for q in range(1, order + 1):
            for a, base in enumerate(sp.dependent):
                for deriv in combinations_with_replacement(sp.independent, q):
                    if (a, deriv) in self._cache:
                        continue
                    v = deriv[-1]
                    prev = self._cache[(a, deriv[:-1])]
                    out = series_total_derivative(prev, v, sp)
                    for j, xj in enumerate(sp.independent):
                        d = dxi.get((j, v))
                        if d is None:
                            d = dxi[(j, v)] = series_total_derivative(self.xi[j], v, sp)
                        term = series_mul(d, jet_series(base, deriv[:-1] + (xj,), sp.order))
                        out = series_sub(out, term)
                    self._cache[(a, deriv)] = out
        return self

    # -- action ---------------------------------------------------------------

    def apply(self, s: EpsSeries, order: int, *, partial) -> EpsSeries:
        """Act on an expansion-series as a first-order operator.

        Coefficient k of the result is sum_l Xi^(order)_(l)[s_(k-l)], the
        partial derivatives with respect to the unexpanded coordinates being
        extracted through the order-0 slots of the expanded ones.

        ``partial`` maps an independent-variable symbol or an order-0 jet
        slot v to the series ds/dv (``series_u_partial(s, v)``);
        ``variational_residual`` passes ``PerturbedLagrangian.partial``,
        which differentiates the Lagrangian once for every generator.
        """
        sp = self.space
        if s.order != sp.order:
            raise ValueError("series order mismatch")
        self.prolong(order)
        out = _zero_series(sp)
        for i, v in enumerate(sp.independent):
            out = series_add(out, series_mul(self.xi[i], partial(ex.sym(v))))
        for a, base in enumerate(sp.dependent):
            for q in range(order + 1):
                for deriv in combinations_with_replacement(sp.independent, q):
                    d = partial(ex.jet(base, 0, deriv))
                    if all(c == ex.ZERO for c in d.coeffs):
                        continue
                    out = series_add(out, series_mul(self._cache[(a, deriv)], d))
        return out

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        from .lang import to_text
        p = self.space.order
        return {
            "xi": [[to_text(self.xi[i][k]) for i in range(self.space.n)]
                   for k in range(p + 1)],
            "eta": [[to_text(self.eta[a][k]) for a in range(self.space.m)]
                    for k in range(p + 1)],
        }

    @classmethod
    def from_json(cls, space: JetSpace, data: dict, language) -> "Generator":
        xi_rows = [[language.parse(s) for s in row] for row in data["xi"]]
        eta_rows = [[language.parse(s) for s in row] for row in data["eta"]]
        return cls.from_components(space, xi_rows, eta_rows)

