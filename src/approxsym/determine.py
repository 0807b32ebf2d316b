"""Determining-equation extraction and exact solution over ansatz spaces.

The unknown infinitesimal family functions and gauge terms are expanded
over declared finite-dimensional bases with fresh coefficient symbols; the
variational residual is then separated per eps order on jet-derivative
monomials and on the independent function monomials of the remaining
(x, u_(0..p)) dependence, giving a homogeneous linear system over the field
of rationals extended by the declared constants.  The null space, reduced
to a canonical echelon form with seed coefficients ordered before gauge
coefficients, is returned as generators with gauges; vectors whose pivot
lies in the gauge block are constant pure-gauge directions and are reported
separately from the generator count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import expr as ex
from .errors import AnsatzIncomplete, NotPolynomial
from .jet import JetSpace
from .linalg import (FE, fe_expr, fe_is_zero, in_span, nullspace, span_fits,
                     sparse_rref, split_constants)
from .noether import GaugeTerm, PerturbedLagrangian, variational_residual
from .perturb import EpsSeries, build_infinitesimals
from .symmetry import Generator

__all__ = ["AnsatzSpace", "DeterminingSystem", "Solution", "default_ansatz",
           "extract", "solve", "report", "seeds_from_series",
           "vector_for_golden"]


SEED_KINDS = ("xi", "eta")


@dataclass
class AnsatzSpace:
    """Per-family bases: keys ("xi", k, i), ("eta", k, a), ("phi", k, i)."""
    space: JetSpace
    bases: dict[tuple, list[ex.Expr]]

    def __post_init__(self):
        for key, basis in self.bases.items():
            kind, k, slot = key
            pruned = []
            for b in basis:
                if kind in SEED_KINDS and not _seed_ok(b):
                    continue
                if kind == "phi" and not _gauge_ok(b, k):
                    continue
                if b not in pruned:
                    pruned.append(b)
            self.bases[key] = pruned
            _check_independent(pruned, key)

    def basis(self, kind: str, k: int, slot: int) -> list[ex.Expr]:
        key = (kind, k, slot)
        if key not in self.bases:
            raise AnsatzIncomplete(f"no ansatz declared for {key}")
        return self.bases[key]


def _seed_ok(b: ex.Expr) -> bool:
    return all(j.order == 0 and not j.deriv for j in ex.jets_of(b)) \
        and not ex.contains_eps(b)


def _gauge_ok(b: ex.Expr, k: int) -> bool:
    return all(j.order is not None and j.order <= k and not j.deriv
               for j in ex.jets_of(b)) and not ex.contains_eps(b)


def _check_independent(basis: list[ex.Expr], key):
    if not basis:
        return
    rows: dict[tuple, dict] = {}
    for col, b in enumerate(basis):
        for sig, entry in split_constants(b, ()).items():
            rows.setdefault(sig, {})[col] = entry
    if len(sparse_rref(list(rows.values()), len(basis))) != len(basis):
        raise ValueError(f"ansatz basis for {key} is linearly dependent")


def default_ansatz(space: JetSpace, oscillatory: bool = False,
                   poly_degree: int = 2, u_degree: int = 2) -> AnsatzSpace:
    """Documented default: per-variable polynomials of degree <= 2 in x and
    in each u coordinate; oscillatory models additionally multiply the
    x-polynomials by sin/cos of once and twice each independent variable."""
    x_parts: list[ex.Expr] = [ex.ONE]
    for v in space.independent:
        s = ex.sym(v)
        powers = [ex.pow_(s, Fraction(d)) for d in range(poly_degree + 1)]
        trig: list[ex.Expr] = [ex.ONE]
        if oscillatory:
            for mult in (1, 2):
                arg = ex.mul(ex.rat(mult), s)
                trig += [ex.fun("sin", arg), ex.fun("cos", arg)]
        x_parts = [ex.mul(a, b, c) for a in x_parts for b in powers for c in trig]

    def u_monomials(orders: range) -> list[ex.Expr]:
        coords = [ex.jet(b, k) for b in space.dependent for k in orders]
        out = []
        for exps in product(range(u_degree + 1), repeat=len(coords)):
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
    space: JetSpace
    lag: PerturbedLagrangian
    ansatz: AnsatzSpace
    unknowns: list[tuple]            # column -> (kind, k, slot, basis index)
    equations: list[dict[int, FE]]
    provenance: list[tuple[int, ex.Expr]]
    first_gauge: int                 # first column belonging to a phi family
    constants: frozenset[str]
    column: dict[tuple, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.column:
            self.column = {key: i for i, key in enumerate(self.unknowns)}

    @property
    def n_unknowns(self) -> int:
        return len(self.unknowns)


@dataclass
class Solution:
    generator: Generator
    gauge: GaugeTerm
    vector: dict[int, FE]
    pure_gauge: bool = False

    def to_json(self) -> dict:
        from .lang import to_text
        data = self.generator.to_json()
        data["phi"] = [[to_text(c) for c in s.coeffs] for s in self.gauge.phi]
        data["pure_gauge"] = self.pure_gauge
        return data


def extract(lag: PerturbedLagrangian, ansatz: AnsatzSpace,
            constants: set[str] = frozenset()) -> DeterminingSystem:
    """Form the determining system for unknown seeds and gauges."""
    sp = lag.space
    p = sp.order
    unknowns: list[tuple] = []
    columns: dict[tuple, int] = {}

    def alloc(kind, k, slot):
        for bidx, _ in enumerate(ansatz.basis(kind, k, slot)):
            key = (kind, k, slot, bidx)
            columns[key] = len(unknowns)
            unknowns.append(key)

    for kind, count in (("xi", sp.n), ("eta", sp.m)):
        for slot in range(count):
            for k in range(p + 1):
                alloc(kind, k, slot)
    first_gauge = len(unknowns)
    for slot in range(sp.n):
        for k in range(p + 1):
            alloc("phi", k, slot)

    gen, phi = _generator_and_gauge(sp, ansatz, columns, _csym)
    residual = variational_residual(gen, lag, phi)

    equations: list[dict[int, FE]] = []
    provenance: list[tuple[int, ex.Expr]] = []
    bucket: dict[tuple[int, tuple], dict[int, FE]] = {}
    for k, coeff in enumerate(residual.coeffs):
        for sig, entry in split_constants(coeff, constants).items():
            unknown = [i for i, (atom, _) in enumerate(sig)
                       if isinstance(atom, ex.Sym) and atom.name.startswith("_c")]
            if not unknown:
                raise NotPolynomial(
                    f"residual has an unknown-free term {fe_expr(entry)!r}")
            atom, power = sig[unknown[0]]
            if len(unknown) > 1 or power != 1:
                raise NotPolynomial(
                    "residual is not linear in the unknown coefficients")
            rest = sig[:unknown[0]] + sig[unknown[0] + 1:]
            bucket.setdefault((k, rest), {})[int(atom.name[2:])] = entry
    for sig_key in sorted(bucket):
        row = {c: v for c, v in bucket[sig_key].items() if not fe_is_zero(v)}
        if row:
            equations.append(row)
            provenance.append((sig_key[0],
                               ex.mul(*[ex.pow_(a, q) for a, q in sig_key[1]])))
    return DeterminingSystem(sp, lag, ansatz, unknowns, equations, provenance,
                             first_gauge, frozenset(constants))


def _csym(idx: int) -> ex.Sym:
    return ex.sym(f"_c{idx}")


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


def solve(sys: DeterminingSystem, verify: bool = True) -> list[Solution]:
    """Exact null space, canonicalized; every solution is re-verified."""
    basis = nullspace(sys.equations, sys.n_unknowns)
    basis = _canonical_rows(basis, sys.n_unknowns)
    out = []
    for vec in basis:
        sol = _instantiate(sys, vec)
        if verify:
            res = variational_residual(sol.generator, sys.lag, sol.gauge)
            if res.is_zero_series() is not True:
                raise AssertionError(
                    f"solver returned a non-symmetry; residual {res!r}")
        out.append(sol)
    return out


def _canonical_rows(vectors: list[dict[int, FE]], ncols: int) -> list[dict[int, FE]]:
    """RREF the basis matrix (rows = vectors) for a deterministic report."""
    pivots = sparse_rref(vectors, ncols)
    return [pivots[c] for c in sorted(pivots)]


def _instantiate(sys: DeterminingSystem, vec: dict[int, FE]) -> Solution:
    gen, phi = _generator_and_gauge(
        sys.space, sys.ansatz, sys.column,
        lambda col: fe_expr(vec[col]) if col in vec else None)
    pure = min(vec) >= sys.first_gauge
    return Solution(gen, phi, vec, pure_gauge=pure)


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


def seeds_from_series(series: EpsSeries, space: JetSpace) -> list[ex.Expr]:
    """Invert the infinitesimal build: recover the family seed functions."""
    p = space.order
    seeds: list[ex.Expr] = []
    for k in range(p + 1):
        partial = build_infinitesimals(seeds + [ex.ZERO] * (p + 1 - k), space)
        residue = ex.sub(series.coeffs[k], partial.coeffs[k])
        for j in ex.jets_of(residue):
            if j.order != 0 or j.deriv:
                raise ValueError(
                    f"series is not generated by (x, u_(0)) seeds: residue {residue!r}")
        seeds.append(residue)
    rebuilt = build_infinitesimals(seeds, space)
    for a, b in zip(rebuilt.coeffs, series.coeffs):
        if ex.is_zero(ex.sub(a, b)) is not True:
            raise ValueError("seed recovery failed to reproduce the series")
    return seeds


def vector_for_golden(sys: DeterminingSystem, gen: Generator,
                      phi: GaugeTerm) -> dict[int, FE] | None:
    """Ansatz coordinates of a (generator, gauge) pair, or None if outside."""
    sp = sys.space
    p = sp.order
    vec: dict[int, FE] = {}

    def fit(kind, k, slot, target) -> bool:
        basis = sys.ansatz.basis(kind, k, slot)
        if ex.is_zero(target) is True:
            return True
        coords = next(span_fits([[b] for b in basis] + [[target]], sys.constants), None)
        if coords is None:
            return False
        for j, c in coords.items():
            vec[sys.column[(kind, k, slot, j)]] = c
        return True

    try:
        for i in range(sp.n):
            seeds = seeds_from_series(gen.xi[i], sp)
            for k in range(p + 1):
                if not fit("xi", k, i, seeds[k]):
                    return None
        for a in range(sp.m):
            seeds = seeds_from_series(gen.eta[a], sp)
            for k in range(p + 1):
                if not fit("eta", k, a, seeds[k]):
                    return None
        for i in range(sp.n):
            for k in range(p + 1):
                if not fit("phi", k, i, phi.phi[i].coeffs[k]):
                    return None
    except ValueError:
        return None
    return vec


def membership(sys: DeterminingSystem, solutions: list[Solution],
               gen: Generator, phi: GaugeTerm) -> bool:
    vec = vector_for_golden(sys, gen, phi)
    if vec is None:
        return False
    return in_span([s.vector for s in solutions], vec, sys.n_unknowns)
