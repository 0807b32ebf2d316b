"""Numerical validation: RK4 on the Euler-Lagrange hierarchy, drift, eps sweep.

Expressions are compiled once into flat Python functions (no symbolic work
inside the time loop); the integrator is classical fixed-step RK4, chosen
for bitwise determinism over efficiency.  Drift is the max-norm deviation
of each eps coefficient of a conserved quantity along the evaluated grid.

An eps sweep computes its trajectories once: the base and per-eps states are
packed into flat float arrays and one entry is kept, keyed on everything the
trajectories depend on except the law, so sweeping every law of a model with
the same arguments integrates each (model, eps) once.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from dataclasses import dataclass, field

from . import expr as ex
from .errors import NonFiniteState, UnboundSymbol
from .jet import JetSpace
from .noether import ConservationLaw, PerturbedLagrangian, el_solved_map

__all__ = ["NumericModel", "Trajectory", "DriftReport", "compile_numeric",
           "compile_full", "integrate", "drift", "eps_sweep", "SweepReport"]


# ---------------------------------------------------------------------------
# expression compilation


def _compile_source(e: ex.Expr, jet_src: dict[ex.Jet, str], bindings: dict[str, float],
                    extra_syms: dict[str, str]) -> str:
    def src(node: ex.Expr) -> str:
        if isinstance(node, ex.Rat):
            return repr(float(node.value))
        if isinstance(node, ex.Sym):
            if node.name in extra_syms:
                return extra_syms[node.name]
            if node.name in bindings:
                return repr(float(bindings[node.name]))
            raise UnboundSymbol(f"symbol {node.name!r} has no numeric binding")
        if isinstance(node, ex.Jet):
            if node not in jet_src:
                raise UnboundSymbol(f"jet coordinate {node!r} is not part of the state")
            return jet_src[node]
        if isinstance(node, ex.Add):
            return "(" + "+".join(src(t) for t in node.terms) + ")"
        if isinstance(node, ex.Mul):
            return "(" + "*".join(src(f) for f in node.factors) + ")"
        if isinstance(node, ex.Pow) and node.exp.denominator == 1:
            return f"({src(node.base)}**{repr(float(node.exp))})"
        if isinstance(node, ex.Pow):
            # float ** turns a negative base into a complex; math.pow raises
            # ValueError, and agrees with ** on a positive base
            return f"math.pow({src(node.base)}, {repr(float(node.exp))})"
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
                     + _compile_source(atom, jet_src, bindings, base_syms))
        marker = ex.sym(f"__h_{lname}")
        main_syms[marker.name] = lname
        sub[atom] = marker
    pieces = [_compile_source(ex.subst(e, sub), jet_src, bindings, main_syms)
              for e in exprs]
    lines.append("    return (" + ", ".join(pieces)
                 + ("," if len(pieces) == 1 else "") + ")")
    ns: dict = {"math": math}
    exec("\n".join(lines), ns)
    return ns["_compiled"]


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
    """Compile the unexpanded perturbed equations at a concrete eps.

    eps becomes an ordinary bound symbol, so the Euler-Lagrange system of
    the order-0 expansion is the full, unexpanded one.
    """
    full = JetSpace(space.independent, space.dependent, 0, space.max_derivative)
    lag = PerturbedLagrangian.from_expression(
        ex.subst(lag_expr, {ex.EPS: ex.sym("eps")}), full)
    return compile_numeric(lag, bindings | {"eps": eps_value})


@dataclass
class Trajectory:
    ts: list[float]
    ys: list[tuple]


# what a compiled closure raises where a value has no finite float: 1/0.0
# and 0.0**-1 raise ZeroDivisionError, huge ** and exp OverflowError, and
# log of a nonpositive argument or a fractional power of a negative base
# ValueError
_FLOAT_FAULTS = (ZeroDivisionError, OverflowError, ValueError)


def _non_finite(what: str, t: float, err: Exception) -> NonFiniteState:
    return NonFiniteState(f"{what} have no finite value at t={t} ({err})")


def integrate(model: NumericModel, y0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical fixed-step RK4; deterministic for a fixed platform."""
    f = model.rhs
    steps = round((t1 - t0) / h)
    t = t0
    y = tuple(float(v) for v in y0)
    ts = [t]
    ys = [y]
    try:
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
    except _FLOAT_FAULTS as err:
        raise _non_finite("the equations of motion", t, err) from None
    return Trajectory(ts, ys)


@dataclass
class DriftReport:
    max_drift: list[float]           # per eps order

    def worst(self) -> float:
        return max(self.max_drift)


def drift(traj: Trajectory, law: ConservationLaw, model: NumericModel) -> DriftReport:
    """Max |I_k(t) - I_k(t0)| of every eps coefficient along the trajectory."""
    if law.space.n != 1:
        raise ValueError("drift reports need a single independent variable")
    exprs = list(law.quantity.coeffs)
    fn = compile_functions(exprs, model.jet_sources(), model.bindings, model.space)
    t = traj.ts[0]
    try:
        first = fn(t, traj.ys[0])
        worst = [0.0] * len(exprs)
        for t, y in zip(traj.ts, traj.ys):
            vals = fn(t, y)
            for k, (v, v0) in enumerate(zip(vals, first)):
                d = abs(v - v0)
                if d > worst[k]:
                    worst[k] = d
    except _FLOAT_FAULTS as err:
        raise _non_finite(f"the coefficients of {law.name or 'the law'}", t, err) from None
    return DriftReport(worst)


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
    The reconstructed states come from ``_sweep_states``, which keeps the
    last sweep's states: a second call that differs only in the law
    integrates nothing.
    """
    bases = sorted({j.base for j in ex.jets_of(lag_expr)})
    # evaluation state: u_(0), u_(1) then their velocities
    eval_positions = [ex.jet(b, k) for k in (0, 1) for b in bases]
    eval_model = NumericModel(space, eval_positions, None, dict(bindings))
    fn = compile_functions(list(law.quantity.coeffs), eval_model.jet_sources(),
                           bindings, space)
    width = eval_model.dim
    ts, packed = _sweep_states(lag_expr, space, tuple(eps_values),
                               tuple(sorted(bindings.items())), tuple(y0), t0, t1, h)
    drifts = []
    for eps, states in zip(eps_values, packed):
        powers = [eps ** k for k in range(law.quantity.order + 1)]
        rows = zip(*[iter(states)] * width)   # one state tuple per grid point
        first = None
        worst = 0.0
        t = t0
        try:
            for t, y in zip(ts, rows):
                total = sum(map(operator.mul, fn(t, y), powers))
                if first is None:
                    first = total
                worst = max(worst, abs(total - first))
        except _FLOAT_FAULTS as err:
            raise _non_finite(f"the coefficients of {law.name or 'the law'} at eps={eps}",
                              t, err) from None
        drifts.append(worst)
    slope = _loglog_slope(eps_values, drifts)
    return SweepReport(list(eps_values), drifts, slope)


@functools.lru_cache(maxsize=1)
def _sweep_states(lag_expr: ex.Expr, space: JetSpace, eps_values: tuple,
                  bindings: tuple, y0: tuple, t0: float, t1: float,
                  h: float) -> tuple[array, list[array]]:
    """Grid times and, per eps, the packed evaluation states of a sweep.

    The states of one eps are one flat array, a row per grid point:
    [u_(0) positions, u_(1) = (u - u_(0))/eps positions, then both velocity
    blocks].  Each eps trajectory is dropped as soon as it is packed.
    """
    binds = dict(bindings)
    base_model = compile_full(lag_expr, space, binds, 0.0)
    base = integrate(base_model, y0, t0, t1, h)
    nb = len(base_model.positions)
    packed = []
    for eps in eps_values:
        traj = integrate(compile_full(lag_expr, space, binds, eps), y0, t0, t1, h)
        states = array("d")
        for yf, yb in zip(traj.ys, base.ys):
            for block in (0, nb):  # positions then velocities
                states.extend(yb[block:block + nb])
                states.extend((yf[block + i] - yb[block + i]) / eps if eps else 0.0
                              for i in range(nb))
        del traj
        packed.append(states)
    return array("d", base.ts), packed


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
