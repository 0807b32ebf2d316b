"""Numerical validation: RK4 on the Euler-Lagrange hierarchy, drift, eps sweep.

Expressions are compiled once into flat Python functions (no symbolic work
inside the time loop); the integrator is classical fixed-step RK4, chosen
for bitwise determinism over efficiency.  Drift is the max-norm deviation
of each eps coefficient of a conserved quantity along the evaluated grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import expr as ex
from .errors import NonFiniteState, UnboundSymbol
from .jet import JetSpace, total_derivative
from .noether import ConservationLaw, PerturbedLagrangian, el_solved_map
from .linalg import solve_dense

__all__ = ["NumericModel", "Trajectory", "DriftReport", "compile_numeric",
           "compile_full", "integrate", "drift", "eps_sweep", "SweepReport"]


# ---------------------------------------------------------------------------
# expression compilation


def _compile_source(e: ex.Expr, jet_src: dict[ex.Jet, str], bindings: dict[str, float],
                    space: JetSpace, extra_syms: dict[str, str]) -> str:
    def src(node: ex.Expr) -> str:
        if isinstance(node, ex.Rat):
            return repr(float(node.value))
        if isinstance(node, ex.Sym):
            if node.name in extra_syms:
                return extra_syms[node.name]
            if node.name in bindings:
                return repr(float(bindings[node.name]))
            raise UnboundSymbol(f"symbol {node.name!r} has no numeric binding")
        if isinstance(node, ex.Eps):
            if "eps" in extra_syms:
                return extra_syms["eps"]
            if "eps" in bindings:
                return repr(float(bindings["eps"]))
            raise UnboundSymbol("eps has no numeric binding")
        if isinstance(node, ex.Jet):
            if node not in jet_src:
                raise UnboundSymbol(f"jet coordinate {node!r} is not part of the state")
            return jet_src[node]
        if isinstance(node, ex.Add):
            return "(" + "+".join(src(t) for t in node.terms) + ")"
        if isinstance(node, ex.Mul):
            return "(" + "*".join(src(f) for f in node.factors) + ")"
        if isinstance(node, ex.Pow):
            return f"({src(node.base)}**{repr(float(node.exp))})"
        if isinstance(node, ex.Fun):
            return f"math.{node.name}({src(node.arg)})"
        raise UnboundSymbol(
            f"cannot evaluate {type(node).__name__}; bind arbitrary functions first")
    return src(e)


def _cse_radicals(exprs: list[ex.Expr]) -> list[tuple[str, ex.Expr]]:
    """Repeated radical / inverse-power atoms, hoisted into local variables."""
    counts: dict[ex.Expr, int] = {}

    def walk(node):
        if isinstance(node, ex.Pow) and isinstance(node.base, ex.Add):
            counts[node] = counts.get(node, 0) + 1
        for ch in ex._children(node):
            walk(ch)
    for e in exprs:
        walk(e)
    return [(f"_r{i}", atom) for i, (atom, c) in
            enumerate(a for a in counts.items() if a[1] >= 2)]


def compile_functions(exprs: list[ex.Expr], jet_src: dict[ex.Jet, str],
                      bindings: dict[str, float], space: JetSpace):
    """Compile expressions to one fast callable(t, y) -> tuple of floats."""
    base_syms = {space.independent[0]: "t"}
    hoisted = _cse_radicals(exprs)
    lines = ["def _compiled(t, y):"]
    sub: dict[ex.Expr, ex.Expr] = {}
    main_syms = dict(base_syms)
    for lname, atom in hoisted:
        lines.append(f"    {lname} = "
                     + _compile_source(atom, jet_src, bindings, space, base_syms))
        marker = ex.sym(f"__h_{lname}")
        main_syms[marker.name] = lname
        sub[atom] = marker
    pieces = [_compile_source(_replace_atoms(e, sub), jet_src, bindings, space, main_syms)
              for e in exprs]
    lines.append("    return (" + ", ".join(pieces)
                 + ("," if len(pieces) == 1 else "") + ")")
    ns: dict = {"math": math}
    exec("\n".join(lines), ns)
    return ns["_compiled"]


def _replace_atoms(e: ex.Expr, table: dict[ex.Expr, ex.Expr]) -> ex.Expr:
    hit = table.get(e)
    if hit is not None:
        return hit
    if isinstance(e, (ex.AFun, ex.AInt)):
        return e
    return ex.rebuild(e, lambda c: _replace_atoms(c, table))


# ---------------------------------------------------------------------------
# models and integration


@dataclass
class NumericModel:
    space: JetSpace
    positions: list[ex.Jet]          # dynamic coordinates, no derivatives
    rhs: object                      # callable(t, y) -> tuple
    bindings: dict[str, float]
    labels: list[str] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return 2 * len(self.positions)

    def jet_sources(self) -> dict[ex.Jet, str]:
        n = len(self.positions)
        srcs = {}
        tname = self.space.independent[0]
        for i, pj in enumerate(self.positions):
            srcs[pj] = f"y[{i}]"
            srcs[ex.jet(pj.base, pj.order, (tname,))] = f"y[{n + i}]"
        return srcs

    def initial_state(self, initial: dict[str, float], language) -> list[float]:
        tname = self.space.independent[0]
        y0 = [0.0] * self.dim
        index = {}
        for i, pj in enumerate(self.positions):
            index[pj] = i
            index[ex.jet(pj.base, pj.order, (tname,))] = len(self.positions) + i
        for text, value in initial.items():
            node = language.parse(text)
            if node not in index:
                raise UnboundSymbol(f"initial value for {text!r} is not a state coordinate")
            y0[index[node]] = float(value)
        return y0


def compile_numeric(lag: PerturbedLagrangian, bindings: dict[str, float]) -> NumericModel:
    """Solve the hierarchy for the accelerations and compile the RHS."""
    sp = lag.space
    solved = el_solved_map(lag)
    tname = sp.independent[0]
    positions = sorted({ex.jet(j.base, j.order) for j in solved}, key=lambda j: j.key())
    model = NumericModel(sp, positions, None, dict(bindings))
    jet_src = model.jet_sources()
    n = len(positions)
    exprs = []
    for i, pj in enumerate(positions):
        exprs.append(ex.jet(pj.base, pj.order, (tname,)))
    for pj in positions:
        exprs.append(solved[ex.jet(pj.base, pj.order, (tname, tname))])
    model.rhs = compile_functions(exprs, jet_src, bindings, sp)
    model.labels = [str(j) for j in positions] + [f"d{j}" for j in positions]
    return model


def compile_full(lag_expr: ex.Expr, space: JetSpace, bindings: dict[str, float],
                 eps_value: float) -> NumericModel:
    """Compile the unexpanded perturbed equations at a concrete eps."""
    tname = space.independent[0]
    bases = sorted({j.base for j in ex.jets_of(lag_expr)})
    unknowns = [ex.jet(b, None, (tname, tname)) for b in bases]
    eqs = []
    for b in bases:
        e = ex.diff(lag_expr, ex.jet(b, None))
        e = ex.sub(e, total_derivative(ex.diff(lag_expr, ex.jet(b, None, (tname,))),
                                       tname, space))
        eqs.append(e)
    rows, rhs = [], []
    for e in eqs:
        coeffs, rem = ex.linear_coeffs(e, unknowns)
        rows.append([coeffs.get(u, ex.ZERO) for u in unknowns])
        rhs.append(ex.neg(rem))
    sol = solve_dense(rows, rhs)
    if sol is None:
        raise NonFiniteState("full system not solvable for accelerations")
    positions = [ex.jet(b, None) for b in bases]
    model = NumericModel(space, positions, None, dict(bindings) | {"eps": eps_value})
    jet_src = model.jet_sources()
    exprs = [ex.jet(b, None, (tname,)) for b in bases] + sol
    model.rhs = compile_functions(exprs, jet_src, model.bindings, space)
    model.labels = [b for b in bases] + [f"d{b}" for b in bases]
    return model


@dataclass
class Trajectory:
    ts: list[float]
    ys: list[tuple]


def integrate(model: NumericModel, y0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical fixed-step RK4; deterministic for a fixed platform."""
    f = model.rhs
    steps = round((t1 - t0) / h)
    t = t0
    y = tuple(float(v) for v in y0)
    ts = [t]
    ys = [y]
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k1)))
        k3 = f(t + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k2)))
        k4 = f(t + h, tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        t += h
        if not all(math.isfinite(v) for v in y):
            raise NonFiniteState(f"state became non-finite at t={t}")
        ts.append(t)
        ys.append(y)
    return Trajectory(ts, ys)


@dataclass
class DriftReport:
    max_drift: list[float]           # per eps order
    initial: list[float]
    h: float
    span: tuple[float, float]

    def worst(self) -> float:
        return max(self.max_drift)


def drift(traj: Trajectory, law: ConservationLaw, model: NumericModel) -> DriftReport:
    """Max |I_k(t) - I_k(t0)| of every eps coefficient along the trajectory."""
    if law.space.n != 1:
        raise ValueError("drift reports need a single independent variable")
    exprs = list(law.quantity.coeffs)
    fn = compile_functions(exprs, model.jet_sources(), model.bindings, model.space)
    first = fn(traj.ts[0], traj.ys[0])
    worst = [0.0] * len(exprs)
    for t, y in zip(traj.ts, traj.ys):
        vals = fn(t, y)
        for k, (v, v0) in enumerate(zip(vals, first)):
            d = abs(v - v0)
            if d > worst[k]:
                worst[k] = d
    return DriftReport(worst, list(first), traj.ts[1] - traj.ts[0],
                       (traj.ts[0], traj.ts[-1]))


@dataclass
class SweepReport:
    eps_values: list[float]
    drifts: list[float]
    slope: float


def eps_sweep(lag_expr: ex.Expr, space: JetSpace, law: ConservationLaw,
              eps_values: list[float], bindings: dict[str, float],
              y0, t0: float, t1: float, h: float) -> SweepReport:
    """Integrate the full perturbed equation per eps and fit the drift slope.

    u_(0) is identified with the unperturbed solution from the same initial
    data and u_(1) with (u - u_(0))/eps; the law is evaluated on that
    reconstruction and its max drift fitted against eps in log-log scale.
    """
    tname = space.independent[0]
    base_model = compile_full(lag_expr, space, bindings, 0.0)
    base_traj = integrate(base_model, y0, t0, t1, h)
    bases = sorted({j.base for j in ex.jets_of(lag_expr)})
    nb = len(bases)
    # evaluation state: u_(0), u_(1) then their velocities
    eval_positions = [ex.jet(b, k) for k in (0, 1) for b in bases]
    eval_model = NumericModel(space, eval_positions, None, dict(bindings))
    exprs = list(law.quantity.coeffs)
    fn = compile_functions(exprs, eval_model.jet_sources(), bindings, space)
    drifts = []
    for eps in eps_values:
        model = compile_full(lag_expr, space, bindings, eps)
        traj = integrate(model, y0, t0, t1, h)
        first = None
        worst = 0.0
        for t, yf, yb in zip(traj.ts, traj.ys, base_traj.ys):
            state = []
            for block in (0, nb):  # positions then velocities
                for i in range(nb):
                    state.append(yb[block + i])
                for i in range(nb):
                    state.append((yf[block + i] - yb[block + i]) / eps if eps else 0.0)
            # reorder: eval state wants [u0 pos, u1 pos, u0 vel, u1 vel]
            vals = fn(t, tuple(state))
            total = sum(v * eps ** k for k, v in enumerate(vals))
            if first is None:
                first = total
            worst = max(worst, abs(total - first))
        drifts.append(worst)
    slope = _loglog_slope(eps_values, drifts)
    return SweepReport(list(eps_values), drifts, slope)


def _loglog_slope(xs: list[float], ys: list[float]) -> float:
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys)
           if x > 0.0 and y > 0.0]
    n = len(pts)
    if n < 2:
        return float("nan")
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    num = sum((p[0] - mx) * (p[1] - my) for p in pts)
    den = sum((p[0] - mx) ** 2 for p in pts)
    return num / den
