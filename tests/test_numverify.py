"""Numerics: RK4 accuracy, drift reports, order checks, eps sweep."""

import math
import operator

import pytest

from approxsym import expr as ex
from approxsym import numverify
from approxsym.errors import CannotSolveForLeadingDerivative, NonFiniteState, UnboundSymbol
from approxsym.jet import JetSpace
from approxsym.models import concretize, load_builtin
from approxsym.noether import (ConservationLaw, PerturbedLagrangian, el_solved_map,
                               noether_fluxes)
from approxsym.numverify import (NumericModel, compile_full, compile_functions,
                                 compile_numeric, drift, eps_sweep, integrate)
from approxsym.perturb import EpsSeries
from approxsym.symmetry import Generator


def osc_model():
    model = load_builtin("oscillator-quadratic")   # F=(u+delta)^2, delta=0 -> u^2
    nm = compile_numeric(model.lagrangian, model.bindings)
    y0 = nm.initial_state(model.initial, model.language)
    return model, nm, y0


def test_compile_numeric_rhs_oscillator():
    model, nm, y0 = osc_model()
    assert nm.labels == ["u0", "u1", "du0", "du1"]
    rhs = nm.rhs(0.0, (1.0, 0.0, 0.5, 0.25))
    assert rhs[0] == 0.5 and rhs[1] == 0.25
    assert rhs[2] == -1.0                     # -u0
    assert rhs[3] == -0.0 - 1.0               # -u1 - u0^2


def test_compile_full_rhs_is_the_full_equation():
    model = load_builtin("oscillator-quadratic")
    source = concretize(model.lagrangian_source, model.bodies)
    eps = 1e-2
    nm = compile_full(source, model.space, model.bindings, eps)
    u, du = 0.7, -0.3
    rhs = nm.rhs(0.0, (u, du))
    assert rhs[0] == du
    assert rhs[1] == pytest.approx(-u - eps * u ** 2, rel=1e-15)
    # a singular kinetic matrix is a solve failure, not a non-finite state
    sp = JetSpace(("t",), ("u", "v"), order=1, max_derivative=2)
    degenerate = sp.language().parse("1/2*(du#t + dv#t)^2 - 1/2*(u^2 + v^2) + eps*u")
    with pytest.raises(CannotSolveForLeadingDerivative):
        compile_full(degenerate, sp, {}, eps)


def test_exponential_decay_accuracy():
    # u' = -u is not Lagrangian, so the integrator runs on a hand RHS
    from approxsym.numverify import NumericModel
    sp = JetSpace(("t",), ("u",), order=0, max_derivative=2)
    model = NumericModel(sp, [ex.jet("u", 0)], lambda t, y: (-y[0],), {})
    traj = integrate(model, [1.0], 0.0, 1.0, 1e-3)
    assert len(traj.ts) == 1001
    assert abs(traj.ys[-1][0] - math.exp(-1.0)) < 1e-10


def test_zero_rhs_constant_trajectory():
    model = load_builtin("free-particle")
    lag = PerturbedLagrangian.from_expression(
        model.language.parse("1/2*du#t^2"), model.space)
    nm = compile_numeric(lag, {})
    traj = integrate(nm, [1.0, 2.0, 0.0, 0.0], 0.0, 1.0, 1e-2)
    assert traj.ys[-1][0] == 1.0 and traj.ys[-1][1] == 2.0


def test_unperturbed_oscillator_tracks_cosine():
    model, nm, y0 = osc_model()
    traj = integrate(nm, y0, 0.0, 20.0, 1e-3)
    err = max(abs(y[0] - math.cos(t)) for t, y in zip(traj.ts, traj.ys))
    assert err < 1e-8


def energy_law(model):
    sp = model.space
    g = Generator(sp, (EpsSeries((ex.ONE, ex.ZERO)),),
                  (EpsSeries((ex.ZERO, ex.ZERO)),))
    return noether_fluxes(g, model.lagrangian, name="I1")


def test_drift_of_conserved_quantity_small():
    model, nm, y0 = osc_model()
    law = energy_law(model)
    traj = integrate(nm, y0, 0.0, 20.0, 1e-3)
    rep = drift(traj, law, nm)
    assert all(d <= 1e-8 for d in rep.max_drift)


def test_drift_of_non_conserved_quantity_large():
    model, nm, y0 = osc_model()
    bogus = ConservationLaw(model.space,
                            (EpsSeries((ex.jet("u", 0), ex.ZERO)),), name="u0")
    traj = integrate(nm, y0, 0.0, 20.0, 1e-2)
    rep = drift(traj, bogus, nm)
    assert rep.max_drift[0] > 0.5


def test_rk4_order_at_truncation_dominated_steps():
    model, nm, y0 = osc_model()
    law = energy_law(model)
    coarse = drift(integrate(nm, y0, 0.0, 20.0, 0.05), law, nm)
    fine = drift(integrate(nm, y0, 0.0, 20.0, 0.025), law, nm)
    ratio = max(coarse.max_drift) / max(fine.max_drift)
    assert ratio >= 12.0


def test_time_reversal():
    model, nm, y0 = osc_model()
    fwd = integrate(nm, y0, 0.0, 20.0, 1e-3)
    back = integrate(nm, fwd.ys[-1], 20.0, 0.0, -1e-3)
    assert max(abs(a - b) for a, b in zip(back.ys[-1], y0)) < 1e-6


def test_symbolic_numeric_agreement():
    # D_t I with the hierarchy substituted is symbolically zero; evaluating
    # the unsubstituted D_t I along a trajectory must sit at rounding noise
    from approxsym.jet import total_derivative
    from approxsym.noether import el_solved_map
    model, nm, y0 = osc_model()
    law = energy_law(model)
    dI = [total_derivative(c, "t", model.space) for c in law.quantity.coeffs]
    solved = el_solved_map(model.lagrangian)
    assert all(ex.is_zero(ex.subst(c, solved)) is True for c in dI)
    subbed = [ex.subst(c, solved) for c in dI]
    from approxsym.numverify import compile_functions
    fn = compile_functions(subbed, nm.jet_sources(), nm.bindings, model.space)
    traj = integrate(nm, y0, 0.0, 5.0, 1e-2)
    worst = max(max(abs(v) for v in fn(t, y)) for t, y in zip(traj.ts, traj.ys))
    assert worst == 0.0


def test_eps_sweep_scaling():
    model, nm, y0 = osc_model()
    law = energy_law(model)
    src = concretize(model.lagrangian_source, model.bodies)
    sw = eps_sweep(src, model.space, law, [1e-2, 1e-3, 1e-4], model.bindings,
                   [1.0, 0.0], 0.0, 20.0, 1e-3)
    assert sw.slope >= 1.9


def test_eps_zero_sits_at_integrator_floor():
    model, nm, y0 = osc_model()
    law = energy_law(model)
    src = concretize(model.lagrangian_source, model.bodies)
    sw = eps_sweep(src, model.space, law, [0.0], model.bindings,
                   [1.0, 0.0], 0.0, 20.0, 1e-3)
    assert sw.drifts[0] < 1e-12


def test_non_conserved_sweep_slope_near_zero():
    model, nm, y0 = osc_model()
    bogus = ConservationLaw(model.space,
                            (EpsSeries((ex.jet("u", 0), ex.ZERO)),), name="u0")
    src = concretize(model.lagrangian_source, model.bodies)
    sw = eps_sweep(src, model.space, bogus, [1e-2, 1e-3, 1e-4], model.bindings,
                   [1.0, 0.0], 0.0, 20.0, 1e-2)
    assert abs(sw.slope) < 0.1


def test_sweep_states_computed_once_and_never_stale(monkeypatch):
    from approxsym import numverify
    model, nm, y0 = osc_model()
    energy = energy_law(model)
    bogus = ConservationLaw(model.space,
                            (EpsSeries((ex.jet("u", 0), ex.ZERO)),), name="u0")
    src = concretize(model.lagrangian_source, model.bodies)
    calls = {"compile_full": 0, "integrate": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(numverify, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(numverify, name, counting)

    def sweep(law, eps=(1e-2, 1e-3, 1e-4), bindings=model.bindings, y=(1.0, 0.0)):
        return eps_sweep(src, model.space, law, list(eps), bindings, list(y),
                         0.0, 2.0, 1e-2)

    numverify._sweep_states.cache_clear()
    first = sweep(energy)
    second = sweep(bogus)
    assert calls == {"compile_full": 4, "integrate": 4}   # base + 3 eps, once
    assert sweep(energy) == first
    assert calls == {"compile_full": 4, "integrate": 4}
    for changed in ({"bindings": {"delta": 0.5}}, {"y": (0.5, 0.0)},
                    {"eps": (1e-2, 1e-3)}):
        numverify._sweep_states.cache_clear()
        fresh = sweep(energy, **changed)
        numverify._sweep_states.cache_clear()
        sweep(bogus)
        before = dict(calls)
        assert sweep(energy, **changed) == fresh       # recomputed, not reused
        assert calls["integrate"] > before["integrate"]
    numverify._sweep_states.cache_clear()
    assert sweep(bogus) == second


def test_unbound_symbol():
    model = load_builtin("coupled-system")
    with pytest.raises(UnboundSymbol):
        compile_numeric(model.lagrangian, {})


def test_non_finite_state():
    sp = JetSpace(("t",), ("u",), order=0, max_derivative=2)
    lang = sp.language()
    lag = PerturbedLagrangian.from_expression(lang.parse("1/2*(du#t^2 + u^2)"), sp)
    nm = compile_numeric(lag, {})
    with pytest.raises(NonFiniteState):
        integrate(nm, [1.0, 1.0], 0.0, 800.0, 1e-1)


def test_three_body_momentum_drift():
    model = load_builtin("three-body")
    nm = compile_numeric(model.lagrangian, model.bindings)
    y0 = nm.initial_state(model.initial, model.language)
    recs = {r.name: r for r in model.golden}
    law = ConservationLaw(model.space, (recs["Xi2a"].quantity,), name="I2x")
    traj = integrate(nm, y0, 0.0, 10.0, model.grid["h"])
    rep = drift(traj, law, nm)
    assert all(d <= 1e-8 for d in rep.max_drift)


def test_law_without_a_finite_value_names_the_time():
    # 1/u0 at u0 = 0: the compiled closure divides by zero at the first point
    model, nm, _ = osc_model()
    law = ConservationLaw(model.space, (EpsSeries((ex.pow_(ex.jet("u", 0), -1),
                                                   ex.ZERO)),), name="inv")
    traj = integrate(nm, [0.0, 0.0, 1.0, 0.0], 0.0, 1.0, 1e-2)   # u0, u1, du0, du1
    with pytest.raises(NonFiniteState, match=r"inv .*t=0\.0"):
        drift(traj, law, nm)
    src = concretize(model.lagrangian_source, model.bodies)
    with pytest.raises(NonFiniteState, match=r"inv at eps=0\.01 .*t=0\.0"):
        eps_sweep(src, model.space, law, [1e-2], model.bindings, [0.0, 1.0],
                  0.0, 1.0, 1e-2)


def test_equations_without_a_finite_value_name_the_time():
    sp = JetSpace(("t",), ("u",), order=0, max_derivative=2)
    lag = PerturbedLagrangian.from_expression(sp.language().parse("1/2*du#t^2 - 1/u"), sp)
    nm = compile_numeric(lag, {})
    with pytest.raises(NonFiniteState, match=r"equations of motion .*t=0\.0"):
        integrate(nm, [0.0, 1.0], 0.0, 1.0, 1e-2)


def test_fractional_power_of_a_negative_base_names_the_time():
    # u^(3/2) at u = -1: float ** would give a complex number, not an error
    sp = JetSpace(("t",), ("u",), order=0, max_derivative=2)
    lag = PerturbedLagrangian.from_expression(sp.language().parse("1/2*du#t^2 - u^(3/2)"), sp)
    nm = compile_numeric(lag, {})
    with pytest.raises(NonFiniteState, match=r"equations of motion .*t=0\.0"):
        integrate(nm, [-1.0, 0.0], 0.0, 1.0, 1e-2)
    u = 0.7
    assert nm.rhs(0.0, (u, 0.0))[1] == -1.5 * u ** 0.5


# The tuple loops the generated RK4 loop and scans replaced, kept as the
# reference they must equal bit for bit.

def reference_integrate(model, y0, t0, t1, h):
    f = model.rhs
    t = t0
    y = tuple(float(v) for v in y0)
    ts = [t]
    ys = [y]
    for _ in range(round((t1 - t0) / h)):
        k1 = f(t, y)
        k2 = f(t + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k1)))
        k3 = f(t + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k2)))
        k4 = f(t + h, tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        t += h
        assert all(math.isfinite(v) for v in y)
        ts.append(t)
        ys.append(y)
    return ts, ys


def reference_drift(ts, ys, fn):
    first = fn(ts[0], ys[0])
    worst = [0.0] * len(first)
    for t, y in zip(ts, ys):
        for k, (v, v0) in enumerate(zip(fn(t, y), first)):
            d = abs(v - v0)
            if d > worst[k]:
                worst[k] = d
    return worst


def reference_sweep_drift(ts, rows, fn, powers):
    first = None
    worst = 0.0
    for t, y in zip(ts, rows):
        total = sum(map(operator.mul, fn(t, y), powers))
        if first is None:
            first = total
        worst = max(worst, abs(total - first))
    return worst


def reference_rows(base_ys, full_ys, eps):
    """u_(0), (u - u_(0))/eps, then both velocity blocks, per grid point."""
    nb = len(base_ys[0]) // 2
    for yb, yf in zip(base_ys, full_ys):
        row = []
        for block in (0, nb):
            row += yb[block:block + nb]
            row += [(yf[block + i] - yb[block + i]) / eps if eps else 0.0
                    for i in range(nb)]
        yield tuple(row)


def three_body_model():
    model = load_builtin("three-body")
    nm = compile_numeric(model.lagrangian, model.bindings)
    return nm, nm.initial_state(model.initial, model.language), 0.0, 1.0, model.grid["h"]


def decay_model():
    sp = JetSpace(("t",), ("u",), order=0, max_derivative=2)
    return NumericModel(sp, [ex.jet("u", 0)], lambda t, y: (-y[0],), {}), [1.0], 0.0, 1.0, 1e-3


def forward_oscillator():
    _, nm, y0 = osc_model()
    return nm, y0, 0.0, 20.0, 1e-3


def backward_oscillator():
    _, nm, y0 = osc_model()
    end = integrate(nm, y0, 0.0, 5.0, 1e-3).ys[-1]
    return nm, end, 5.0, 0.0, -1e-3


@pytest.mark.parametrize("case", [
    forward_oscillator, three_body_model, decay_model, backward_oscillator],
    ids=["oscillator-quadratic", "three-body", "decay", "backward"])
def test_generated_rk4_equals_the_tuple_loop(case):
    nm, y0, t0, t1, h = case()
    traj = integrate(nm, y0, t0, t1, h)
    assert (traj.ts, traj.ys) == reference_integrate(nm, y0, t0, t1, h)
    assert all(type(y) is tuple for y in traj.ys)


def test_generated_scans_equal_the_tuple_loops():
    model, nm, y0 = osc_model()
    t0, t1, h = 0.0, 5.0, 1e-3
    traj = integrate(nm, y0, t0, t1, h)
    src = concretize(model.lagrangian_source, model.bodies)
    y_full = [1.0, 0.0]
    eps_values = [1e-2, 1e-3, 1e-4, 0.0]
    ts, base = reference_integrate(compile_full(src, model.space, model.bindings, 0.0),
                                   y_full, t0, t1, h)
    fulls = [reference_integrate(compile_full(src, model.space, model.bindings, eps),
                                 y_full, t0, t1, h)[1] for eps in eps_values]
    numverify._sweep_states.cache_clear()
    grid, packed = numverify._sweep_states(src, model.space, tuple(eps_values),
                                           tuple(sorted(model.bindings.items())),
                                           tuple(y_full), t0, t1, h)
    assert list(grid) == ts
    for eps, full, states in zip(eps_values, fulls, packed):
        assert list(states) == [v for row in reference_rows(base, full, eps) for v in row]
    eval_model = NumericModel(model.space, [ex.jet("u", 0), ex.jet("u", 1)], None,
                              model.bindings)
    assert len(model.golden) == 8
    for rec in model.golden:
        law = ConservationLaw(model.space, (rec.quantity,), name=rec.name)
        coeffs = list(law.quantity.coeffs)
        fn = compile_functions(coeffs, nm.jet_sources(), nm.bindings, model.space)
        assert drift(traj, law, nm).max_drift == reference_drift(traj.ts, traj.ys, fn)
        fn = compile_functions(coeffs, eval_model.jet_sources(), model.bindings, model.space)
        drifts = [reference_sweep_drift(ts, reference_rows(base, full, eps), fn,
                                        [eps ** k for k in range(len(coeffs))])
                  for eps, full in zip(eps_values, fulls)]
        sw = eps_sweep(src, model.space, law, eps_values, model.bindings, y_full, t0, t1, h)
        assert sw.drifts == drifts, rec.name
        assert sw.slope == numverify._loglog_slope(eps_values, drifts), rec.name


def reference_compile_source(e, jet_src, bindings, extra_syms, hoisted):
    """The source compiler with three tables: hoisted nodes, symbols by name
    and jets."""
    def src(node):
        name = hoisted.get(node)
        if name is not None:
            return name
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
            return f"math.pow({src(node.base)}, {repr(float(node.exp))})"
        if isinstance(node, ex.Fun):
            return f"math.{node.name}({src(node.arg)})"
        raise UnboundSymbol(
            f"cannot evaluate {type(node).__name__}; bind arbitrary functions first")
    return src(e)


def reference_sources(exprs, jet_src, bindings, space):
    base_syms = {space.independent[0]: "t"}
    hoisted = []
    trig = {}
    for i, atom in enumerate(numverify._repeated(exprs, numverify._is_trig)):
        arg = reference_compile_source(atom.arg, jet_src, bindings, base_syms, trig)
        hoisted.append(f"_f{i} = math.{atom.name}({arg})")
        trig[atom] = f"_f{i}"
    sub = {}
    main_syms = dict(base_syms)
    for i, atom in enumerate(numverify._repeated(exprs, numverify._is_radical)):
        hoisted.append(f"_r{i} = " + reference_compile_source(atom, jet_src, bindings,
                                                              base_syms, trig))
        marker = ex.sym(f"__h__r{i}")
        main_syms[marker.name] = f"_r{i}"
        sub[atom] = marker
    return hoisted, [reference_compile_source(ex.subst(e, sub), jet_src, bindings,
                                              main_syms, trig) for e in exprs]


@pytest.mark.parametrize("name", ["coupled-system", "free-particle", "oscillator-arbitraryF",
                                  "oscillator-cubic-inverse", "oscillator-quadratic",
                                  "three-body"])
def test_sources_equal_the_three_table_compiler(name):
    # the right-hand sides and every golden quantity, read from the state
    # (y[i]) and from unpacked locals (y<i>), with every constant bound
    model = load_builtin(name)
    sp = model.space
    bindings = dict.fromkeys(model.constants, 0.5) | model.bindings
    try:
        solved = el_solved_map(model.lagrangian)
    except CannotSolveForLeadingDerivative:
        solved = {}
    tname = sp.independent[0]
    positions = sorted({ex.jet(j.base, j.order) for j in solved}, key=lambda j: j.key())
    nm = NumericModel(sp, positions, None, bindings)
    groups = [[solved[ex.jet(p.base, p.order, (tname, tname))] for p in positions]]
    groups += [list(rec.quantity.coeffs) for rec in model.golden if rec.quantity]
    compared = 0
    for exprs in groups:
        for slot in ("y[{}]", "y{}"):
            jet_src = nm.jet_sources(slot)
            try:
                want = reference_sources(exprs, jet_src, bindings, sp)
            except UnboundSymbol as err:   # an arbitrary function
                with pytest.raises(UnboundSymbol, match=str(err)):
                    numverify._sources(exprs, jet_src, bindings, sp)
                continue
            assert numverify._sources(exprs, jet_src, bindings, sp) == want
            compared += 1
    assert compared
