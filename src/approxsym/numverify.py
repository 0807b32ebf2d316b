"""Numerical validation: RK4 on the Euler-Lagrange hierarchy, drift, eps sweep.

Expressions are compiled once into flat Python functions (no symbolic work
inside the time loop); the integrator is classical fixed-step RK4.  Drift is
the max-norm deviation of each eps coefficient of a conserved quantity along
the evaluated grid.

The time loops are generated too, by the same code generator as the
right-hand sides: the RK4 loop is unrolled over scalar locals for the state's
dimension, and the drift scans inline the law's coefficients and unpack each
grid row into named locals.  Each keeps the float operations of the plain
tuple loop in their order, so results are bitwise equal to it and
deterministic for a fixed platform.

An eps sweep computes its trajectories once: the base and per-eps states are
packed into flat float arrays and one entry is kept, keyed on everything the
trajectories depend on except the law, so sweeping every law of a model with
the same arguments integrates each (model, eps) once.
"""

from __future__ import annotations

import functools
import math
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


def _compile_source(e: ex.Expr, names: dict[ex.Expr, str],
                    bindings: dict[str, float]) -> str:
    """Python source of e; a node in ``names`` is read from that name."""
    def src(node: ex.Expr) -> str:
        name = names.get(node)
        if name is not None:
            return name
        if isinstance(node, ex.Rat):
            return repr(float(node.value))
        if isinstance(node, ex.Sym):
            if node.name in bindings:
                return repr(float(bindings[node.name]))
            raise UnboundSymbol(f"symbol {node.name!r} has no numeric binding")
        if isinstance(node, ex.Jet):
            raise UnboundSymbol(f"jet coordinate {node!r} is not part of the state")
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
    try:
        return src(e)
    finally:
        del src   # src holds itself through its cell: free it by refcount


def _repeated(exprs: list[ex.Expr], pick) -> list[ex.Expr]:
    """The nodes ``pick`` accepts that occur more than once across exprs, in
    the order a walk from the root first meets them."""
    counts: dict[ex.Expr, int] = {}

    def walk(node):
        if pick(node):
            counts[node] = counts.get(node, 0) + 1
        for ch in ex._children(node):
            walk(ch)
    try:
        for e in exprs:
            walk(e)
    finally:
        del walk   # walk holds itself through its cell: free it by refcount
    return [node for node, c in counts.items() if c >= 2]


def _is_trig(node: ex.Expr) -> bool:
    return isinstance(node, ex.Fun) and node.name in ("sin", "cos")


def _is_radical(node: ex.Expr) -> bool:
    """A radical or inverse power of a sum."""
    return isinstance(node, ex.Pow) and isinstance(node.base, ex.Add)


def _sources(exprs: list[ex.Expr], jet_src: dict[ex.Jet, str], bindings: dict[str, float],
             space: JetSpace) -> tuple[list[str], list[str]]:
    """The hoisted assignments and one source string per expression.

    Repeated sin/cos atoms are assigned to locals first, then repeated
    radicals, which may read them; an assignment reads only the locals
    assigned before it.  Each local holds the same call on the same argument
    as the inline source it stands for, so the floats do not change.  The
    strings read ``t``, the names in ``jet_src`` and the hoisted locals, all
    in one table (a radical through its marker symbol), so any generated
    function can run them after the assignments.
    """
    names: dict[ex.Expr, str] = {**jet_src, ex.sym(space.independent[0]): "t"}
    hoisted = []
    for i, atom in enumerate(_repeated(exprs, _is_trig)):
        arg = _compile_source(atom.arg, names, bindings)
        hoisted.append(f"_f{i} = math.{atom.name}({arg})")
        names[atom] = f"_f{i}"
    sub: dict[ex.Expr, ex.Expr] = {}
    for i, atom in enumerate(_repeated(exprs, _is_radical)):
        hoisted.append(f"_r{i} = " + _compile_source(atom, names, bindings))
        marker = ex.sym(f"__h__r{i}")
        names[marker] = f"_r{i}"
        sub[atom] = marker
    return hoisted, [_compile_source(ex.subst(e, sub), names, bindings) for e in exprs]


def _tuple(items) -> str:
    """Source of the tuple display, or unpacking target, of ``items``."""
    items = list(items)
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _guarded(lines: list[str]) -> list[str]:
    """``lines`` in a try that reports a float fault as NonFiniteState naming
    the generated function's ``what`` argument and its current ``t``."""
    return ["try:", *_indent(lines),
            "except _FLOAT_FAULTS as err:",
            "    raise _non_finite(what, t, err) from None"]


def _define(signature: str, body: list[str]):
    """The function ``def <signature>: <body>``, executed from its source."""
    ns = {"math": math, "isfinite": math.isfinite, "NonFiniteState": NonFiniteState,
          "_FLOAT_FAULTS": _FLOAT_FAULTS, "_non_finite": _non_finite}
    exec("\n".join([f"def {signature}:", *_indent(body)]), ns)
    # popped, so that the function and its globals hold no cycle
    return ns.pop(signature.partition("(")[0])


def compile_functions(exprs: list[ex.Expr], jet_src: dict[ex.Jet, str],
                      bindings: dict[str, float], space: JetSpace):
    """Compile expressions to one fast callable(t, y) -> tuple of floats."""
    hoisted, pieces = _sources(exprs, jet_src, bindings, space)
    return _define("_compiled(t, y)", [*hoisted, f"return {_tuple(pieces)}"])


def _rk4_loop(n: int):
    """RK4 over n state components held in scalar locals:
    loop(f, t, y, h, steps, what) -> (ts, ys).

    Stages are y + h2*k and the step y + h6*(k1 + 2*k2 + 2*k3 + k4), with
    h2 = h/2 and h6 = h/6: the float operations, in order, of the tuple loop
    that evaluates y + h/2*k.
    """
    y, a, b, c, d = ([f"{v}{i}" for i in range(n)] for v in "yabcd")

    def stage(step: str, k: list[str]) -> str:
        return _tuple(f"{yi} + {step} * {ki}" for yi, ki in zip(y, k))
    finite = " and ".join(f"isfinite({yi})" for yi in y) or "True"
    loop = [f"{_tuple(a)} = f(t, y)",
            f"{_tuple(b)} = f(t + h2, {stage('h2', a)})",
            f"{_tuple(c)} = f(t + h2, {stage('h2', b)})",
            f"{_tuple(d)} = f(t + h, {stage('h', c)})",
            *(f"{yi} = {yi} + h6 * ({ai} + 2 * {bi} + 2 * {ci} + {di})"
              for yi, ai, bi, ci, di in zip(y, a, b, c, d)),
            "t += h",
            f"if not ({finite}):",
            '    raise NonFiniteState(f"state became non-finite at t={t}")',
            f"y = {_tuple(y)}",
            "ts_append(t)",
            "ys_append(y)"]
    return _define("_rk4(f, t, y, h, steps, what)", [
        "h2 = h / 2", "h6 = h / 6", "ts = [t]", "ys = [y]",
        "ts_append = ts.append", "ys_append = ys.append", f"{_tuple(y)} = y",
        *_guarded(["for _ in range(steps):", *_indent(loop)]),
        "return ts, ys"])


def _max_drift_scan(hoisted: list[str], quantities: list[str], width: int,
                    params: tuple[str, ...] = ()):
    """scan(ts, rows, *params, what) -> [max_t |Q_j(t) - Q_j(ts[0])| for each j].

    ``rows`` holds one state of ``width`` components per time, unpacked into
    the locals y0, y1, ...; the first point's values are the references, and
    the worst of each quantity grows only where ``d > w`` (so a NaN never
    counts).
    """
    row = _tuple(f"y{i}" for i in range(width))
    update = []
    for j, q in enumerate(quantities):
        update += [f"d = abs(({q}) - f{j})", f"if d > w{j}:", f"    w{j} = d"]
    return _define(f"_scan({', '.join(['ts', 'rows', *params, 'what'])})", [
        "points = zip(ts, rows)",
        f"t, {row} = next(points)",
        *_guarded([*hoisted,
                   *(f"f{j} = {q}" for j, q in enumerate(quantities)),
                   *(f"w{j} = 0.0" for j in range(len(quantities))),
                   f"for t, {row} in points:",
                   *_indent([*hoisted, *update])]),
        f"return [{', '.join(f'w{j}' for j in range(len(quantities)))}]"])


def _pack_loop(nb: int, scaled: bool):
    """pack(full_ys, base_ys, eps, extend): per grid point, extend by the base
    positions, (full - base)/eps of the positions (0.0 unless ``scaled``),
    then the same two blocks of the velocities."""
    f, b = ([f"{v}{i}" for i in range(2 * nb)] for v in "fb")
    out = []
    for block in (0, nb):
        out += b[block:block + nb]
        out += [f"({f[i]} - {b[i]}) / eps" if scaled else "0.0"
                for i in range(block, block + nb)]
    return _define("_pack(full_ys, base_ys, eps, extend)", [
        f"for {_tuple(f)}, {_tuple(b)} in zip(full_ys, base_ys):",
        f"    extend({_tuple(out)})"])


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

    def jet_sources(self, slot: str = "y[{}]") -> dict[ex.Jet, str]:
        """Source of each state coordinate: ``slot`` formatted with its index."""
        n = len(self.positions)
        srcs = {}
        tname = self.space.independent[0]
        for i, pj in enumerate(self.positions):
            srcs[pj] = slot.format(i)
            srcs[ex.jet(pj.base, pj.order, (tname,))] = slot.format(n + i)
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
    """Classical fixed-step RK4; deterministic for a fixed platform.

    A float fault names the time at the start of the failing step, a
    non-finite state the time it was reached.
    """
    y = tuple(float(v) for v in y0)
    ts, ys = _rk4_loop(len(y))(model.rhs, t0, y, h, round((t1 - t0) / h),
                               "the equations of motion")
    return Trajectory(ts, ys)


@dataclass
class DriftReport:
    max_drift: list[float]           # per eps order


def drift(traj: Trajectory, law: ConservationLaw, model: NumericModel) -> DriftReport:
    """Max |I_k(t) - I_k(t0)| of every eps coefficient along the trajectory."""
    if law.space.n != 1:
        raise ValueError("drift reports need a single independent variable")
    hoisted, pieces = _sources(list(law.quantity.coeffs), model.jet_sources("y{}"),
                               model.bindings, model.space)
    scan = _max_drift_scan(hoisted, pieces, model.dim)
    return DriftReport(scan(traj.ts, traj.ys, f"the coefficients of {law.name or 'the law'}"))


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
    hoisted, pieces = _sources(list(law.quantity.coeffs), eval_model.jet_sources("y{}"),
                               bindings, space)
    # sum(I_k * eps^k) as the builtin sum adds floats: from 0, left to right
    powers = tuple(f"p{k}" for k in range(len(pieces)))
    total = "0.0 + " + " + ".join(f"({q}) * {p}" for q, p in zip(pieces, powers))
    width = eval_model.dim
    scan = _max_drift_scan(hoisted, [total], width, powers)
    ts, packed = _sweep_states(lag_expr, space, tuple(eps_values),
                               tuple(sorted(bindings.items())), tuple(y0), t0, t1, h)
    drifts = []
    for eps, states in zip(eps_values, packed):
        rows = zip(*[iter(states)] * width)   # one state tuple per grid point
        drifts += scan(ts, rows, *(eps ** k for k in range(len(pieces))),
                       f"the coefficients of {law.name or 'the law'} at eps={eps}")
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

    def run(eps: float) -> tuple[NumericModel, Trajectory]:
        model = compile_full(lag_expr, space, binds, eps)
        try:
            return model, integrate(model, y0, t0, t1, h)
        except NonFiniteState as err:
            raise NonFiniteState(f"eps sweep, system at eps={eps}: {err}") from None

    # the eps=0 system is the unperturbed solution every eps is compared with
    base_model, base = run(0.0)
    nb = len(base_model.positions)
    packed = []
    for eps in eps_values:
        _, traj = run(eps)
        states = array("d")
        _pack_loop(nb, bool(eps))(traj.ys, base.ys, eps, states.extend)
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
