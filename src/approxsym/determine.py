"""Determining-equation extraction and exact solution over ansatz spaces.

The unknown infinitesimal family functions and gauge terms are expanded
over declared finite-dimensional bases.  The residual is linear in the
coefficients, so column j is the residual of basis element j alone,
separated per eps order on jet-derivative monomials and on the independent
function monomials of the remaining (x, u_(0..p)) dependence: a homogeneous
linear system over the rationals extended by the declared constants.  An
order-k seed enters the residual as eps^k times the same seed at order 0,
so a seed column is the order-0 residual of its element shifted by k; a
gauge enters only through -Div phi, so a gauge column needs no generator.  The
null space, reduced to a canonical echelon form with seed coefficients
ordered before gauge coefficients, is returned as generators with gauges;
vectors whose pivot lies in the gauge block are constant pure-gauge
directions and are reported separately from the generator count.
Membership of a given (generator, gauge) pair in the solved span is one
span fit over the (xi, eta, phi) series coefficients of the solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from . import expr as ex
from .errors import AnsatzIncomplete, UnverifiedSolution
from .jet import JetSpace, total_derivative
from .linalg import (FE, assemble_rows, coefficient_rows, common_multiplier, fe_expr,
                     key_column, nullspace, span_fits, sparse_rref, split_column)
from .noether import GaugeTerm, PerturbedLagrangian, variational_residual
from .perturb import EpsSeries, series_shift, validate_triangular
from .symmetry import Generator

__all__ = ["AnsatzSpace", "DeterminingSystem", "Solution", "default_ansatz",
           "extract", "monomial", "solve", "report", "membership"]


SEED_KINDS = ("xi", "eta")
DEFAULT_DEGREE = 2  # of the default ansatz, per variable, in x and in each u


@dataclass
class AnsatzSpace:
    """Per-family bases: keys ("xi", k, i), ("eta", k, a), ("phi", k, i)."""
    space: JetSpace
    bases: dict[tuple, list[ex.Expr]]

    def __post_init__(self):
        checked = set()   # families often share a basis: check each once
        for key, basis in self.bases.items():
            kind, k, slot = key
            at = 0 if kind in SEED_KINDS else k   # a seed is expanded from order 0
            pruned = list(dict.fromkeys(b for b in basis if _fits(b, at)))
            self.bases[key] = pruned
            if tuple(pruned) not in checked:
                checked.add(tuple(pruned))
                _check_independent(pruned, key)

    def basis(self, kind: str, k: int, slot: int) -> list[ex.Expr]:
        key = (kind, k, slot)
        if key not in self.bases:
            raise AnsatzIncomplete(f"no ansatz declared for {key}")
        return self.bases[key]


def _fits(b: ex.Expr, k: int) -> bool:
    """Whether b may sit at eps order k of an infinitesimal or gauge series;
    elements that may not are pruned from the basis."""
    try:
        validate_triangular(EpsSeries((ex.ZERO,) * k + (b,)), 0)
    except ValueError:
        return False
    return True


def _check_independent(basis: list[ex.Expr], key):
    if not basis:
        return
    rows = coefficient_rows([[b] for b in basis], ()).values()
    if len(sparse_rref(rows)) != len(basis):
        raise ValueError(f"basis for {key} is linearly dependent")


def default_ansatz(space: JetSpace, oscillatory: bool = False) -> AnsatzSpace:
    """Documented default: per-variable polynomials of degree <= 2 in x and
    in each u coordinate; oscillatory models additionally multiply the
    x-polynomials by sin/cos of once and twice each independent variable."""
    x_parts: list[ex.Expr] = [ex.ONE]
    for v in space.independent:
        s = ex.sym(v)
        powers = [ex.pow_(s, Fraction(d)) for d in range(DEFAULT_DEGREE + 1)]
        trig: list[ex.Expr] = [ex.ONE]
        if oscillatory:
            for mult in (1, 2):
                arg = ex.mul(ex.rat(mult), s)
                trig += [ex.fun("sin", arg), ex.fun("cos", arg)]
        x_parts = [ex.mul(a, b, c) for a in x_parts for b in powers for c in trig]

    def u_monomials(orders: range) -> list[ex.Expr]:
        coords = [ex.jet(b, k) for b in space.dependent for k in orders]
        out = []
        for exps in product(range(DEFAULT_DEGREE + 1), repeat=len(coords)):
            out.append(ex.mul(*[ex.pow_(c, Fraction(d))
                                for c, d in zip(coords, exps)]))
        return out

    bases: dict[tuple, list[ex.Expr]] = {}
    seed_u = u_monomials(range(1))
    for k in range(space.order + 1):
        for i in range(space.n):
            bases[("xi", k, i)] = [ex.mul(x, u) for x in x_parts for u in seed_u]
        for a in range(space.m):
            bases[("eta", k, a)] = [ex.mul(x, u) for x in x_parts for u in seed_u]
        gauge_u = u_monomials(range(k + 1))
        for i in range(space.n):
            bases[("phi", k, i)] = [ex.mul(x, u) for x in x_parts for u in gauge_u]
    return AnsatzSpace(space, bases)


@dataclass
class DeterminingSystem:
    lag: PerturbedLagrangian
    ansatz: AnsatzSpace
    unknowns: list[tuple]            # column -> (kind, k, slot, basis index)
    equations: list[dict[int, FE]]
    provenance: list[tuple[int, tuple]]   # (eps order, signature) of each equation
    first_gauge: int                 # first column belonging to a phi family
    constants: frozenset[str]

    @property
    def space(self) -> JetSpace:
        return self.lag.space

    @cached_property
    def column(self) -> dict[tuple, int]:
        """Column index of each unknown."""
        return {key: i for i, key in enumerate(self.unknowns)}

    @property
    def n_unknowns(self) -> int:
        return len(self.unknowns)


def monomial(signature: tuple) -> ex.Expr:
    """The monomial of an equation's signature, as ``--dump-system`` prints it."""
    return ex.mul(*[ex.pow_(a, q) for a, q in signature])


@dataclass
class Solution:
    generator: Generator
    gauge: GaugeTerm
    pure_gauge: bool = False

    def to_json(self) -> dict:
        from .lang import to_text
        data = self.generator.to_json()
        data["phi"] = [[to_text(c) for c in s.coeffs] for s in self.gauge.phi]
        data["pure_gauge"] = self.pure_gauge
        return data


def extract(lag: PerturbedLagrangian, ansatz: AnsatzSpace,
            constants: set[str] = frozenset()) -> DeterminingSystem:
    """Form the determining system for unknown seeds and gauges.

    Column (kind, k, slot, b) is the residual of basis element e = basis b
    of that family alone.  For a seed (xi or eta) it is the residual of the
    generator whose only seed is e at order 0 in that slot, shifted by eps^k:
    the truncated products and the total derivatives commute with the shift.
    That residual is computed once per (kind, slot, e), keyed on the element
    so that bases differing across eps orders still share it.  For a gauge
    (phi) it is -Div of phi with e at position k.
    """
    sp = lag.space
    orders = range(sp.order + 1)
    seeds = [(kind, k, slot) for kind, count in (("xi", sp.n), ("eta", sp.m))
             for slot in range(count) for k in orders]
    gauges = [("phi", k, slot) for slot in range(sp.n) for k in orders]
    unknowns = [(*fam, b) for fam in seeds + gauges
                for b in range(len(ansatz.basis(*fam)))]
    first_gauge = sum(len(ansatz.basis(*fam)) for fam in seeds)
    shared: dict[tuple, EpsSeries] = {}   # (kind, slot, element) -> order-0 residual
    residuals = []
    for kind, k, slot, b in unknowns:
        e = ansatz.basis(kind, k, slot)[b]
        if kind == "phi":
            res = _gauge_residual(sp, k, slot, e)
        else:
            if (kind, slot, e) not in shared:
                shared[(kind, slot, e)] = _seed_residual(lag, kind, slot, e)
            res = series_shift(shared[(kind, slot, e)], k)
        residuals.append(res.coeffs)
    ids: dict[tuple, int] = {}
    rows = assemble_rows([key_column(c, ids) for c in common_multiplier(residuals, constants)])
    keys = sorted(ids.items(), key=lambda item: (item[0][0], item[0][2]))
    return DeterminingSystem(lag, ansatz, unknowns, [rows[row] for _, row in keys],
                             [(k, sig) for (k, _, sig), _ in keys], first_gauge,
                             frozenset(constants))


def _seed_residual(lag: PerturbedLagrangian, kind: str, slot: int,
                   e: ex.Expr) -> EpsSeries:
    """Residual of the generator whose only seed is e, at order 0 in (kind, slot)."""
    sp = lag.space
    none = [ex.ZERO] * (sp.order + 1)
    seeds = {"xi": [none] * sp.n, "eta": [none] * sp.m}
    seeds[kind][slot] = [e] + none[1:]
    return variational_residual(Generator.from_seeds(sp, seeds["xi"], seeds["eta"]), lag)


def _gauge_residual(sp: JetSpace, k: int, slot: int, e: ex.Expr) -> EpsSeries:
    """Residual -Div phi of the gauge whose only term is e, at order k in slot."""
    return EpsSeries(tuple(ex.neg(total_derivative(e, slot, sp)) if i == k else ex.ZERO
                           for i in range(sp.order + 1)))


def _generator_and_gauge(sp: JetSpace, ansatz: AnsatzSpace, column: dict[tuple, int],
                         coeff) -> tuple[Generator, GaugeTerm]:
    """Every family as sum_j coeff(column j) * basis_j; a None coefficient drops the term."""
    p = sp.order

    def combo(kind, k, slot) -> ex.Expr:
        terms = []
        for j, b in enumerate(ansatz.basis(kind, k, slot)):
            c = coeff(column[(kind, k, slot, j)])
            if c is not None:
                terms.append(ex.mul(c, b))
        return ex.add(*terms)

    xi_seeds = [[combo("xi", k, i) for k in range(p + 1)] for i in range(sp.n)]
    eta_seeds = [[combo("eta", k, a) for k in range(p + 1)] for a in range(sp.m)]
    phi = GaugeTerm(sp, tuple(EpsSeries(tuple(combo("phi", k, i) for k in range(p + 1)))
                              for i in range(sp.n)))
    return Generator.from_seeds(sp, xi_seeds, eta_seeds), phi


def solve(sys: DeterminingSystem) -> list[Solution]:
    """Exact null space, canonicalized; every solution is re-verified.

    Raises ``UnverifiedSolution`` on the first vector whose residual does
    not read zero at every eps order."""
    basis = nullspace(sys.equations, sys.n_unknowns)
    basis = _canonical_rows(basis)
    out = []
    for i, vec in enumerate(basis, 1):
        sol = _instantiate(sys, vec)
        res = variational_residual(sol.generator, sys.lag, sol.gauge)
        for k, c in enumerate(res.coeffs):
            verdict = ex.is_zero(c)
            if verdict is not True:
                raise UnverifiedSolution(
                    f"solution vector {i} of {len(basis)} fails re-verification: "
                    f"its residual at eps^{k} reads {verdict}, not zero")
        out.append(sol)
    return out


def _canonical_rows(vectors: list[dict[int, FE]]) -> list[dict[int, FE]]:
    """RREF the basis matrix (rows = vectors) for a deterministic report."""
    pivots = sparse_rref(vectors)
    return [pivots[c] for c in sorted(pivots)]


def _instantiate(sys: DeterminingSystem, vec: dict[int, FE]) -> Solution:
    gen, phi = _generator_and_gauge(
        sys.space, sys.ansatz, sys.column,
        lambda col: fe_expr(vec[col]) if col in vec else None)
    pure = min(vec) >= sys.first_gauge
    return Solution(gen, phi, pure_gauge=pure)


def report(solutions: list[Solution]) -> dict:
    """Deterministic summary: generators first, pure-gauge count appended."""
    gens = [s for s in solutions if not s.pure_gauge]
    return {
        "dimension": len(gens),
        "pure_gauge_dimension": len(solutions) - len(gens),
        "generators": [s.to_json() for s in gens],
    }


# ---------------------------------------------------------------------------
# membership of externally given generators in the solved span


def membership(sys: DeterminingSystem, solutions: list[Solution],
               gen: Generator, phi: GaugeTerm) -> bool:
    """True iff (gen, phi) is a combination of the solutions over Q(constants).

    One span fit over the flattened (xi, eta, phi) series coefficients.  The
    map from ansatz coordinates to these series is linear and injective
    (the bases are independent and the infinitesimal build is triangular),
    so this asks the same question as a fit in ansatz coordinates.
    """
    def series(g: Generator, gauge: GaugeTerm) -> list[ex.Expr]:
        return [c for s in (*g.xi, *g.eta, *gauge.phi) for c in s.coeffs]

    columns = [series(s.generator, s.gauge) for s in solutions] + [series(gen, phi)]
    ids: dict[tuple, int] = {}
    keyed = [key_column(split_column(parts, sys.constants), ids) for parts in columns]
    return next(span_fits(keyed), None) is not None
