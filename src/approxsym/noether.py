"""Variational layer: Lagrangian hierarchy, invariance residual, Noether fluxes.

The invariance residual implements the condition

    sum_k eps^k ( sum_j ( Xi^(1)_(j) L_(k-j) + L_(k-j) sum_i D_i xi_(j)i )
                  - sum_i D_i phi^i_(k) )  = 0   identically,

and the flux assembly computes the truncated-series expansion of the
classical Noether current

    Phi^i = xi_i L + sum_a (eta_a - sum_j xi_j u_a,j) dL/du_a,i - phi^i,

all products being Cauchy products truncated at the expansion order.  Both
read the partial derivatives of L from the Lagrangian (``partial``), which
differentiates each coefficient once however many generators are tested.

``noether_fluxes`` runs its checks in the order in which approximate
symmetries are built by hand.  First the eps^0 condition: the order-0
generator and gauge must be an exact variational symmetry of L_0
(``leading_residual``, on the order-0 truncation).  Then the whole residual
series.  Then, after the fluxes are assembled, the divergence check (total
divergence on the Euler-Lagrange hierarchy solved for the leading
derivatives), which always runs and is the source of truth.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field

from . import expr as ex
from .errors import (CannotSolveForLeadingDerivative, FormulaMismatch,
                     NotAVariationalSymmetry, NotPolynomial)
from .jet import JetSpace, total_derivative
from .linalg import coefficient_rows, fe_expr, nullspace, solve_dense
from .perturb import (EpsSeries, const_series, expand_series, jet_series,
                      series_add, series_divergence, series_mul, series_shift,
                      series_sub, series_u_partial, validate_triangular)
from .symmetry import Generator

__all__ = ["PerturbedLagrangian", "GaugeTerm", "ConservationLaw",
           "euler_lagrange", "el_solved_map", "variational_residual",
           "leading_residual", "noether_fluxes", "divergence_check", "classify",
           "Dependency"]


@dataclass(frozen=True)
class PerturbedLagrangian:
    """L = L_0 + eps L_1 + ... on a jet space, with three memos of derived data.

    Frozen, so that no memo can go stale behind a changed ``L``.
    ``_partials`` maps a variable v to the series dL/dv, filled by
    ``partial`` on first use: at most n + m*(1+n) entries for the order-1
    action (the independent variables and the order-0 slots of u and its
    first derivatives).  ``_el_cache`` holds the solved Euler-Lagrange
    hierarchy, set by the first ``el_solved_map``, and ``_leading`` the
    Lagrangian of the eps^0 condition, set by the first ``leading``.
    """
    space: JetSpace
    L: EpsSeries
    _el_cache: dict | None = field(default=None, repr=False, compare=False)
    _partials: dict = field(default_factory=dict, repr=False, compare=False)
    _leading: PerturbedLagrangian | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.L.order != self.space.order:
            raise ValueError("Lagrangian series order must match the space")
        validate_triangular(self.L, 1)
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

    def partial(self, v: ex.Sym | ex.Jet) -> EpsSeries:
        """Coefficient-wise dL/dv for an independent variable or an order-0
        jet slot (see ``series_u_partial``), computed once per v."""
        d = self._partials.get(v)
        if d is None:
            d = self._partials[v] = series_u_partial(self.L, v)
        return d

    def leading(self) -> "PerturbedLagrangian":
        """L_0 alone on the order-0 space: the Lagrangian of the eps^0 condition.

        Its partials by the n + m*(1+n) variables of the order-1 action are
        coefficient 0 of this Lagrangian's ``partial``, so L is still
        differentiated once.  They are copied into its memo rather than read
        through a reference back to this Lagrangian, which would make the
        pair a reference cycle.
        """
        if self._leading is None:
            sp = self.space
            variables = [ex.sym(v) for v in sp.independent] + [
                ex.jet(base, 0, deriv) for base in sp.dependent
                for deriv in [(), *((v,) for v in sp.independent)]]
            lead = PerturbedLagrangian(
                dataclasses.replace(sp, order=0), EpsSeries(self.L.coeffs[:1]),
                _partials={v: EpsSeries(self.partial(v).coeffs[:1]) for v in variables})
            object.__setattr__(self, "_leading", lead)
        return self._leading

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
            validate_triangular(s, 0)

    @classmethod
    def zero(cls, space: JetSpace) -> "GaugeTerm":
        return cls(space, (const_series(ex.ZERO, space.order),) * space.n)


@dataclass
class ConservationLaw:
    space: JetSpace
    fluxes: tuple[EpsSeries, ...]
    source: Generator | None = None
    gauge: GaugeTerm | None = None
    verified: bool = False
    classification: str = "unverified"
    name: str = ""

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
            e = lag.partial(ex.jet(base, 0))[k]
            for v in sp.independent:
                e = ex.sub(e, total_derivative(lag.partial(ex.jet(base, 0, (v,)))[k], v, sp))
            coeffs.append(e)
        out.append(EpsSeries(tuple(coeffs)))
    return out


def el_solved_map(lag: PerturbedLagrangian) -> dict[ex.Jet, ex.Expr]:
    """Solve the hierarchy for every second-derivative jet it constrains.

    ODE case only (one independent variable).  Every coefficient of the
    hierarchy goes to ``solve_dense``; an equation that is identically zero
    is a redundant row whose right-hand side passes the consistency test.
    Raises CannotSolveForLeadingDerivative when the appearing second
    derivatives cannot all be eliminated (degenerate kinetic term) or an
    equation left over after the elimination does not vanish (a constraint
    such as u0 = 0 that the hierarchy cannot be solved under), and
    SymbolicPivotAmbiguity when any kinetic coefficient, or such a leftover
    equation, cannot be decided to be zero or nonzero.
    """
    if lag._el_cache is not None:
        return lag._el_cache
    sp = lag.space
    if sp.n != 1:
        raise CannotSolveForLeadingDerivative(
            "leading-derivative reduction is implemented for ODE systems only")
    eqs = [e for series in euler_lagrange(lag) for e in series.coeffs]
    unknowns = sorted({j for e in eqs for j in ex.jets_of(e) if len(j.deriv) == 2},
                      key=lambda j: j.key())
    rows = []
    rhs = []
    for e in eqs:
        try:
            coeffs, rem = ex.linear_coeffs(e, unknowns)
        except NotPolynomial as err:
            raise CannotSolveForLeadingDerivative(str(err))
        rows.append([coeffs.get(u, ex.ZERO) for u in unknowns])
        rhs.append(ex.neg(rem))
    solution = solve_dense(rows, rhs)
    if solution is None:
        raise CannotSolveForLeadingDerivative(
            "kinetic term is degenerate or an equation constrains the state")
    solved = {u: s for u, s in zip(unknowns, solution)}
    object.__setattr__(lag, "_el_cache", solved)
    return solved


# ---------------------------------------------------------------------------
# invariance residual and flux assembly


def variational_residual(g: Generator, lag: PerturbedLagrangian,
                         phi: GaugeTerm | None = None) -> EpsSeries:
    """Left-hand side of the approximate invariance condition as a series."""
    sp = lag.space
    phi = phi or GaugeTerm.zero(sp)
    out = g.apply(lag.L, 1, partial=lag.partial)
    out = series_add(out, series_mul(lag.L, series_divergence(g.xi, sp)))
    return series_sub(out, series_divergence(phi.phi, sp))


def _cut(series: tuple[EpsSeries, ...]) -> tuple[EpsSeries, ...]:
    """Each series cut to its coefficient 0, as an order-0 series."""
    return tuple(EpsSeries(s.coeffs[:1]) for s in series)


def leading_residual(g: Generator, lag: PerturbedLagrangian,
                     phi: GaugeTerm | None = None) -> ex.Expr:
    """The eps^0 coefficient of ``variational_residual(g, lag, phi)``.

    It is computed on the order-0 truncation alone: g and phi cut to their
    coefficient 0 and tested against L_0 (``lag.leading()``) on the order-0
    space.  Coefficient 0 of every series product and sum reads only
    coefficients 0, so this builds the very tree of the full residual's
    coefficient 0 without building the higher ones.
    """
    lead = lag.leading()
    sp = lead.space
    g0 = Generator(sp, _cut(g.xi), _cut(g.eta))
    return variational_residual(g0, lead, phi and GaugeTerm(sp, _cut(phi.phi)))[0]


def noether_fluxes(g: Generator, lag: PerturbedLagrangian,
                   phi: GaugeTerm | None = None, name: str = "",
                   residual: EpsSeries | None = None) -> ConservationLaw:
    """Assemble the approximate conservation law of a variational symmetry.

    The checks run in this order.  Unless the caller passes the residual
    (a caller that already holds variational_residual(g, lag, phi) passes
    it as `residual`), the eps^0 coefficient is tested first, alone
    (``leading_residual``), on a space of order p >= 1.  If it does not
    read zero, NotAVariationalSymmetry is raised at once; the whole residual
    series, which its message prints, is built only when the error's
    ``residual`` or message is read.  Otherwise the whole residual is built
    and tested, and NotAVariationalSymmetry raised when it is nonzero.
    Last the fluxes are assembled and the divergence check runs;
    FormulaMismatch is raised when the residual is zero but that check
    fails (which would indicate an index-convention defect; it is the
    arbiter, never silently overridden).
    """
    sp = lag.space
    phi = phi or GaugeTerm.zero(sp)
    if residual is None:
        if sp.order and ex.is_zero(leading_residual(g, lag, phi)) is not True:
            raise NotAVariationalSymmetry(lambda: variational_residual(g, lag, phi))
        residual = variational_residual(g, lag, phi)
    if residual.is_zero_series() is not True:
        raise NotAVariationalSymmetry(residual)
    characteristics = []
    for a, base in enumerate(sp.dependent):
        w = g.eta[a]
        for j, xj in enumerate(sp.independent):
            w = series_sub(w, series_mul(g.xi[j], jet_series(base, (xj,), sp.order)))
        characteristics.append(w)
    fluxes = []
    for i, v in enumerate(sp.independent):
        flux = series_mul(g.xi[i], lag.L)
        for a, base in enumerate(sp.dependent):
            flux = series_add(flux, series_mul(characteristics[a],
                                               lag.partial(ex.jet(base, 0, (v,)))))
        flux = series_sub(flux, phi.phi[i])
        fluxes.append(flux)
    law = ConservationLaw(sp, tuple(fluxes), source=g, gauge=phi, name=name)
    results = divergence_check(law, lag)
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
    div = series_divergence(law.fluxes, sp)
    return [ex.is_zero(ex.subst(c, solved)) is True for c in div.coeffs]


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
    if not laws:
        return []
    sp = laws[0].space
    p = sp.order
    columns = []  # (law index, shift, flux coefficients, component-major)
    for idx, law in enumerate(laws):
        if law.space != sp:
            raise ValueError("classification needs laws on a shared space")
        for shift in range(p + 1):
            coeffs = [c for flux in law.fluxes
                      for c in series_shift(flux, shift).coeffs]
            if any(ex.is_zero(c) is not True for c in coeffs):
                columns.append((idx, shift, coeffs))
    rows = coefficient_rows([coeffs for _, _, coeffs in columns], constants).values()
    basis = nullspace(rows, len(columns))
    out = []
    for vec in basis:
        terms = []
        for col_index, coeff in sorted(vec.items()):
            idx, shift, _ = columns[col_index]
            terms.append((ex.expand(fe_expr(coeff)), shift, idx))
        out.append(Dependency(terms))
    return out
