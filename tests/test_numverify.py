"""Numerics: RK4 accuracy, drift reports, order checks, eps sweep."""

import math

import pytest

from approxsym import expr as ex
from approxsym.errors import CannotSolveForLeadingDerivative, NonFiniteState, UnboundSymbol
from approxsym.jet import JetSpace
from approxsym.models import concretize, load_builtin
from approxsym.noether import ConservationLaw, PerturbedLagrangian, noether_fluxes
from approxsym.numverify import (compile_full, compile_numeric, drift, eps_sweep,
                                 integrate)
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
    source = concretize(model.lagrangian_source, model.functions, model.language)
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
    ratio = coarse.worst() / fine.worst()
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
    src = concretize(model.lagrangian_source, model.functions, model.language)
    sw = eps_sweep(src, model.space, law, [1e-2, 1e-3, 1e-4], model.bindings,
                   [1.0, 0.0], 0.0, 20.0, 1e-3)
    assert sw.slope >= 1.9


def test_eps_zero_sits_at_integrator_floor():
    model, nm, y0 = osc_model()
    law = energy_law(model)
    src = concretize(model.lagrangian_source, model.functions, model.language)
    sw = eps_sweep(src, model.space, law, [0.0], model.bindings,
                   [1.0, 0.0], 0.0, 20.0, 1e-3)
    assert sw.drifts[0] < 1e-12


def test_non_conserved_sweep_slope_near_zero():
    model, nm, y0 = osc_model()
    bogus = ConservationLaw(model.space,
                            (EpsSeries((ex.jet("u", 0), ex.ZERO)),), name="u0")
    src = concretize(model.lagrangian_source, model.functions, model.language)
    sw = eps_sweep(src, model.space, bogus, [1e-2, 1e-3, 1e-4], model.bindings,
                   [1.0, 0.0], 0.0, 20.0, 1e-2)
    assert abs(sw.slope) < 0.1


def test_sweep_states_computed_once_and_never_stale(monkeypatch):
    from approxsym import numverify
    model, nm, y0 = osc_model()
    energy = energy_law(model)
    bogus = ConservationLaw(model.space,
                            (EpsSeries((ex.jet("u", 0), ex.ZERO)),), name="u0")
    src = concretize(model.lagrangian_source, model.functions, model.language)
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
    src = concretize(model.lagrangian_source, model.functions, model.language)
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
