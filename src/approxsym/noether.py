"""Variational layer: Lagrangian hierarchy, invariance residual, Noether fluxes.

The invariance residual implements the condition

    sum_k eps^k ( sum_j ( Xi^(1)_(j) L_(k-j) + L_(k-j) sum_i D_i xi_(j)i )
                  - sum_i D_i phi^i_(k) )  = 0   identically,

and the flux assembly computes the truncated-series expansion of the
classical Noether current

    Phi^i = xi_i L + sum_a (eta_a - sum_j xi_j u_a,j) dL/du_a,i - phi^i,

all products being Cauchy products truncated at the expansion order.  The
divergence check (total divergence on the Euler-Lagrange hierarchy solved
for the leading derivatives) always runs and is the source of truth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from . import expr as ex
from .errors import (CannotSolveForLeadingDerivative, FormulaMismatch,
                     NotAVariationalSymmetry, NotPolynomial)
from .jet import JetSpace, total_derivative
from .linalg import fe_expr, nullspace, solve_dense, split_constants
from .perturb import (EpsSeries, const_series, expand_series, series_add,
                      series_mul, series_shift, series_sub,
                      series_total_derivative, series_u_partial)
from .symmetry import Generator

__all__ = ["PerturbedLagrangian", "GaugeTerm", "ConservationLaw",
           "euler_lagrange", "el_solved_map", "variational_residual",
           "noether_fluxes", "divergence_check", "classify", "Dependency"]


@dataclass
class PerturbedLagrangian:
    space: JetSpace
    L: EpsSeries
    _el_cache: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.L.order != self.space.order:
            raise ValueError("Lagrangian series order must match the space")
        for k, c in enumerate(self.L.coeffs):
            for j in ex.jets_of(c):
                if len(j.deriv) > 1:
                    raise ValueError("only first-order Lagrangians are supported")
                if j.order is None or j.order > k:
                    raise ValueError(
                        f"L_{k} references {j!r} outside (x, u_(0)..u_({k}))")
        self._warn_nonlinear()

    def _warn_nonlinear(self):
        # expansion structure makes L_k linear in the order-k coordinates
        for k in range(1, self.L.order + 1):
            top = [j for j in ex.jets_of(self.L.coeffs[k]) if j.order == k]
            for j in top:
                second = ex.diff(ex.diff(self.L.coeffs[k], j), j)
                if ex.is_zero(second) is not True:
                    warnings.warn(
                        f"L_{k} is not linear in {j!r}; not an expansion coefficient?",
                        stacklevel=3)
                    return

    @classmethod
    def from_expression(cls, e: ex.Expr, space: JetSpace) -> "PerturbedLagrangian":
        return cls(space, expand_series(e, space))


@dataclass
class GaugeTerm:
    space: JetSpace
    phi: tuple[EpsSeries, ...]

    def __post_init__(self):
        self.phi = tuple(self.phi)
        if len(self.phi) != self.space.n:
            raise ValueError("one gauge series per independent variable")
        for s in self.phi:
            if s.order != self.space.order:
                raise ValueError("gauge series order must match the space")
            for k, c in enumerate(s.coeffs):
                for j in ex.jets_of(c):
                    if j.deriv:
                        raise ValueError(f"gauge terms cannot contain derivatives: {j!r}")
                    if j.order is None or j.order > k:
                        raise ValueError(
                            f"phi_{k} references {j!r} outside (x, u_(0)..u_({k}))")

    @classmethod
    def zero(cls, space: JetSpace) -> "GaugeTerm":
        return cls(space, (const_series(ex.ZERO, space.order),) * space.n)

    def divergence(self) -> EpsSeries:
        out = const_series(ex.ZERO, self.space.order)
        for i, v in enumerate(self.space.independent):
            out = series_add(out, series_total_derivative(self.phi[i], v, self.space))
        return out


@dataclass
class ConservationLaw:
    space: JetSpace
    fluxes: tuple[EpsSeries, ...]
    source: Generator | None = None
    gauge: GaugeTerm | None = None
    verified: bool = False
    classification: str = "unverified"
    name: str = ""
    order_results: tuple[bool, ...] = field(default=())

    def __post_init__(self):
        self.fluxes = tuple(self.fluxes)
        if len(self.fluxes) != self.space.n:
            raise ValueError("one flux series per independent variable")

    @property
    def quantity(self) -> EpsSeries:
        """The conserved quantity in the single-independent-variable case."""
        if self.space.n != 1:
            raise ValueError("conserved quantity needs exactly one independent variable")
        return self.fluxes[0]

    def is_trivial(self) -> bool:
        return all(ex.is_zero(c) is True for s in self.fluxes for c in s.coeffs)

    def to_json(self) -> dict:
        from .lang import to_text
        return {
            "fluxes": [[to_text(c) for c in s.coeffs] for s in self.fluxes],
            "verified": self.verified,
            "classification": self.classification,
            "name": self.name,
        }


# ---------------------------------------------------------------------------
# Euler-Lagrange hierarchy


def euler_lagrange(lag: PerturbedLagrangian) -> list[EpsSeries]:
    """Component alpha, coefficient k: dL_k/du_(0)a - sum_i D_i dL_k/du_(0)a,i."""
    sp = lag.space
    out = []
    for base in sp.dependent:
        coeffs = []
        for k in range(sp.order + 1):
            Lk = lag.L.coeffs[k]
            e = ex.diff(Lk, ex.jet(base, 0))
            for v in sp.independent:
                e = ex.sub(e, total_derivative(ex.diff(Lk, ex.jet(base, 0, (v,))), v, sp))
            coeffs.append(e)
        out.append(EpsSeries(tuple(coeffs)))
    return out


def el_solved_map(lag: PerturbedLagrangian) -> dict[ex.Jet, ex.Expr]:
    """Solve the hierarchy for every second-derivative jet it constrains.

    ODE case only (one independent variable).  Raises
    CannotSolveForLeadingDerivative when the appearing second derivatives
    cannot all be eliminated (degenerate kinetic term), and
    SymbolicPivotAmbiguity when a kinetic coefficient cannot be decided to
    be zero or nonzero.
    """
    if lag._el_cache is not None:
        return lag._el_cache
    sp = lag.space
    if sp.n != 1:
        raise CannotSolveForLeadingDerivative(
            "leading-derivative reduction is implemented for ODE systems only")
    eqs = []
    unknowns: list[ex.Jet] = []
    seen = set()
    for series in euler_lagrange(lag):
        for e in series.coeffs:
            if ex.is_zero(e) is True:
                continue
            eqs.append(e)
            for j in ex.jets_of(e):
                if len(j.deriv) == 2 and j not in seen:
                    seen.add(j)
                    unknowns.append(j)
    unknowns.sort(key=lambda j: j.key())
    rows = []
    rhs = []
    for e in eqs:
        try:
            coeffs, rem = ex.linear_coeffs(e, unknowns)
        except NotPolynomial as err:
            raise CannotSolveForLeadingDerivative(str(err))
        rows.append([coeffs.get(u, ex.ZERO) for u in unknowns])
        rhs.append(ex.neg(rem))
    # square up: independent equations only
    if len(rows) < len(unknowns):
        raise CannotSolveForLeadingDerivative(
            f"{len(unknowns)} leading derivatives, only {len(rows)} equations")
    solution = solve_dense(rows, rhs)
    if solution is None:
        raise CannotSolveForLeadingDerivative("kinetic term is degenerate")
    solved = {u: s for u, s in zip(unknowns, solution)}
    lag._el_cache = solved
    return solved


# ---------------------------------------------------------------------------
# invariance residual and flux assembly


def variational_residual(g: Generator, lag: PerturbedLagrangian,
                         phi: GaugeTerm | None = None) -> EpsSeries:
    """Left-hand side of the approximate invariance condition as a series."""
    sp = lag.space
    phi = phi or GaugeTerm.zero(sp)
    g.prolong(1)
    out = g.apply(lag.L, 1)
    out = series_add(out, series_mul(lag.L, g.xi_divergence()))
    out = series_sub(out, phi.divergence())
    return out


def _dl_du_series(lag: PerturbedLagrangian, base: str, v: str) -> EpsSeries:
    return series_u_partial(lag.L, ex.jet(base, 0, (v,)))


def noether_fluxes(g: Generator, lag: PerturbedLagrangian,
                   phi: GaugeTerm | None = None, name: str = "") -> ConservationLaw:
    """Assemble the approximate conservation law of a variational symmetry.

    Raises NotAVariationalSymmetry when the residual is nonzero, and
    FormulaMismatch when the residual is zero but the divergence check
    fails (which would indicate an index-convention defect; it is the
    arbiter, never silently overridden).
    """
    sp = lag.space
    phi = phi or GaugeTerm.zero(sp)
    residual = variational_residual(g, lag, phi)
    rz = residual.is_zero_series()
    if rz is not True:
        raise NotAVariationalSymmetry(
            f"residual is not identically zero: {residual!r}")
    characteristics = []
    for a, base in enumerate(sp.dependent):
        w = g.eta[a]
        for j, xj in enumerate(sp.independent):
            u_j = EpsSeries(tuple(ex.jet(base, k, (xj,)) for k in range(sp.order + 1)))
            w = series_sub(w, series_mul(g.xi[j], u_j))
        characteristics.append(w)
    fluxes = []
    for i, v in enumerate(sp.independent):
        flux = series_mul(g.xi[i], lag.L)
        for a, base in enumerate(sp.dependent):
            flux = series_add(flux, series_mul(characteristics[a],
                                               _dl_du_series(lag, base, v)))
        flux = series_sub(flux, phi.phi[i])
        fluxes.append(flux)
    law = ConservationLaw(sp, tuple(fluxes), source=g, gauge=phi, name=name)
    results = divergence_check(law, lag)
    law.order_results = tuple(results)
    if not all(results):
        raise FormulaMismatch(
            f"zero residual but divergence check failed per order: {results}")
    law.verified = True
    law.classification = "trivial" if law.is_trivial() else "nontrivial"
    return law


def divergence_check(law: ConservationLaw, lag: PerturbedLagrangian) -> list[bool]:
    """Per eps order: does sum_i D_i flux^i vanish on the solved hierarchy?"""
    sp = law.space
    solved = el_solved_map(lag)
    div = const_series(ex.ZERO, sp.order)
    for i, v in enumerate(sp.independent):
        div = series_add(div, series_total_derivative(law.fluxes[i], v, sp))
    out = []
    for c in div.coeffs:
        out.append(ex.is_zero(ex.subst(c, solved)) is True)
    return out


# ---------------------------------------------------------------------------
# dependency classification


@dataclass
class Dependency:
    """A vanishing combination sum_j coeff_j * eps^shift_j * law_j = 0."""
    terms: list[tuple[ex.Expr, int, int]]  # (coefficient, eps shift, law index)

    def describe(self, names: list[str]) -> str:
        from .lang import to_text
        parts = []
        for coeff, shift, idx in self.terms:
            label = names[idx] if idx < len(names) else f"law{idx}"
            stem = f"eps^{shift}*{label}" if shift else label
            parts.append(f"({to_text(coeff)})*{stem}")
        return " + ".join(parts) + " = 0"


def classify(laws: list[ConservationLaw], constants: set[str] = frozenset()
             ) -> list[Dependency]:
    """All constant-coefficient linear dependencies among the laws.

    Columns are the laws and their eps-shifts (multiplying a law by eps is
    itself a law after truncation); declared constants stay in the
    coefficient field, everything else indexes the rows.  Identically
    trivial shifted columns are skipped.
    """
    sp = laws[0].space
    p = sp.order
    columns = []  # (law index, shift, flux coefficient list [(i, k, expr)])
    for idx, law in enumerate(laws):
        if law.space != sp:
            raise ValueError("classification needs laws on a shared space")
        for shift in range(p + 1):
            coeffs = []
            nonzero = False
            for i in range(sp.n):
                shifted = series_shift(law.fluxes[i], shift)
                for k, c in enumerate(shifted.coeffs):
                    coeffs.append((i, k, c))
                    if ex.is_zero(c) is not True:
                        nonzero = True
            if nonzero:
                columns.append((idx, shift, coeffs))
    rows: dict[tuple, dict] = {}
    for col_index, (_, _, coeffs) in enumerate(columns):
        for i, k, c in coeffs:
            for sig, entry in split_constants(c, constants).items():
                rows.setdefault((i, k, sig), {})[col_index] = entry
    basis = nullspace(list(rows.values()), len(columns))
    out = []
    for vec in basis:
        terms = []
        for col_index, coeff in sorted(vec.items()):
            idx, shift, _ = columns[col_index]
            terms.append((ex.expand(fe_expr(coeff)), shift, idx))
        out.append(Dependency(terms))
    return out
