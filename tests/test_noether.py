"""Variational layer: EL hierarchy, residual, fluxes, divergence, classify."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from approxsym import expr as ex
from approxsym.errors import (CannotSolveForLeadingDerivative,
                              NotAVariationalSymmetry)
from approxsym.jet import JetSpace, total_derivative
from approxsym.models import builtin_names, load_builtin, parse_generator
from approxsym.noether import (ConservationLaw, GaugeTerm, PerturbedLagrangian,
                               classify, divergence_check, el_solved_map,
                               euler_lagrange, leading_residual,
                               noether_fluxes, variational_residual)
from approxsym.perturb import (EpsSeries, const_series, series_add,
                               series_divergence, series_mul, series_shift,
                               series_sub, series_u_partial)
from approxsym.symmetry import Generator
from test_symmetry import ref_eps_shift

SP = JetSpace(("t",), ("u",), order=1, max_derivative=2)
L = SP.language(functions={"F": 1})
LAG = PerturbedLagrangian.from_expression(
    L.parse("1/2*(du#t^2 - u^2) - eps*Int(F,u)"), SP)


def gen(xi, eta):
    return Generator(SP, (EpsSeries(tuple(L.parse(s) for s in xi)),),
                     (EpsSeries(tuple(L.parse(s) for s in eta)),))


def gauge(texts):
    return GaugeTerm(SP, (EpsSeries(tuple(L.parse(s) for s in texts)),))


def zeq(a, b):
    return ex.is_zero(ex.sub(a, L.parse(b) if isinstance(b, str) else b)) is True


XI1 = gen(["1", "0"], ["0", "0"])
XI2 = gen(["0", "0"], ["0", "sin(t)"])
XI4 = gen(["0", "sin(2*t)"], ["0", "cos(2*t)*u0"])
PHI2 = gauge(["0", "cos(t)*u0"])
PHI4 = gauge(["0", "-sin(2*t)*u0^2"])


def test_euler_lagrange_oscillator():
    el = euler_lagrange(LAG)[0]
    assert zeq(el[0], "-(ddu0#t#t + u0)")
    assert zeq(el[1], "-(ddu1#t#t + u1 + F(u0))")


def test_euler_lagrange_free_particle():
    sp = JetSpace(("t",), ("u",), order=0, max_derivative=2)
    lag = PerturbedLagrangian.from_expression(sp.language().parse("1/2*du#t^2"), sp)
    el = euler_lagrange(lag)[0]
    assert el.coeffs[0] == ex.neg(ex.jet("u", 0, ("t", "t")))


def test_euler_lagrange_coupled_order0():
    sp = JetSpace(("t",), ("u", "v"), order=1, max_derivative=2)
    lang = sp.language(functions={"F": 1}, constants={"alpha"})
    lag = PerturbedLagrangian.from_expression(
        lang.parse("v*du#t^2 + u*du#t*dv#t - alpha*v/u^2 + eps*F(v)/u^2"), sp)
    solved = el_solved_map(lag)
    # order-0 equations in solved form reproduce the unperturbed system
    assert zeq(solved[ex.jet("u", 0, ("t", "t"))],
               lang.parse("-alpha/u0^3"))
    assert ex.is_zero(ex.sub(
        solved[ex.jet("v", 0, ("t", "t"))],
        lang.parse("4*alpha*v0/u0^4 - 2*du0#t*dv0#t/u0"))) is True


def test_variational_residual_symmetry_pairs():
    assert variational_residual(XI1, LAG).is_zero_series() is True
    assert variational_residual(XI4, LAG, PHI4).is_zero_series() is True


def test_variational_residual_detects_non_symmetry():
    res = variational_residual(XI1, LAG, gauge(["0", "t"]))
    assert res.coeffs[0] == ex.ZERO
    assert res.coeffs[1] == ex.rat(-1)


def test_noether_flux_energy():
    law = noether_fluxes(XI1, LAG)
    assert law.verified and law.classification == "nontrivial"
    assert zeq(law.quantity[0], "-1/2*(du0#t^2 + u0^2)")
    assert zeq(law.quantity[1], "-(du0#t*du1#t + u0*u1 + Int(F,u0))")


def test_noether_flux_solution_shift():
    law = noether_fluxes(XI2, LAG, PHI2)
    assert zeq(law.quantity[0], "0")
    assert zeq(law.quantity[1], "sin(t)*du0#t - cos(t)*u0")


def test_noether_rejects_non_symmetry(monkeypatch):
    from approxsym import lang
    to_text, printed = lang.to_text, []

    def counting(e):
        printed.append(e)
        return to_text(e)
    monkeypatch.setattr(lang, "to_text", counting)
    g = gen(["0", "0"], ["u0", "0"])
    with pytest.raises(NotAVariationalSymmetry) as err:
        noether_fluxes(g, LAG)
    assert not printed   # raising and catching formats nothing
    # reading the message builds and formats the whole residual
    residual = variational_residual(g, LAG)
    assert str(err.value) == f"residual is not identically zero: {residual!r}"


def test_noether_tests_eps0_before_building_the_whole_residual(monkeypatch):
    from approxsym import noether
    residual, orders = noether.variational_residual, []

    def counting(g, lag, phi=None):
        orders.append(lag.space.order)
        return residual(g, lag, phi)
    monkeypatch.setattr(noether, "variational_residual", counting)
    # the scaling of u fails at eps^0: only the order-0 truncation is built
    g = gen(["0", "0"], ["u0", "0"])
    with pytest.raises(NotAVariationalSymmetry) as err:
        noether_fluxes(g, LAG)
    assert orders == [0]
    # reading the residual builds the whole series, once
    assert err.value.residual is err.value.residual
    assert orders == [0, 1]
    assert keys(err.value.residual) == keys(residual(g, LAG))
    assert err.value.residual[0] != ex.ZERO
    # a time shift at eps^0 with xi_(1) = t passes eps^0 and fails at eps^1
    orders.clear()
    g = gen(["1", "t"], ["0", "0"])
    with pytest.raises(NotAVariationalSymmetry) as err:
        noether_fluxes(g, LAG)
    assert orders == [0, 1]
    full = residual(g, LAG)
    assert full[0] == ex.ZERO and full[1] != ex.ZERO
    assert str(err.value) == f"residual is not identically zero: {full!r}"
    assert orders == [0, 1]   # the message reads the residual built before raising
    orders.clear()
    assert noether_fluxes(XI1, LAG).verified
    assert orders == [0, 1]
    # a residual passed in is tested as it is, with no truncation
    orders.clear()
    assert noether_fluxes(XI1, LAG, residual=residual(XI1, LAG)).verified
    assert orders == []


@pytest.mark.parametrize("name", builtin_names())
def test_leading_residual_is_coefficient_0_of_the_residual(name):
    model = load_builtin(name)
    lag = model.lagrangian
    pairs = [(rec.generator, rec.gauge) for rec in model.golden]
    pairs += [screened(model, *case) for case in SCREENED.get(name, [])]
    for g, phi in pairs:
        assert leading_residual(g, lag, phi) == variational_residual(g, lag, phi)[0]
    assert lag.leading() is lag.leading()
    assert lag.leading().L[0] is lag.L[0]


def test_divergence_check_negative_control():
    bad = ConservationLaw(SP, (EpsSeries((ex.jet("u", 0), ex.ZERO)),))
    results = divergence_check(bad, LAG)
    assert results[0] is False


def test_divergence_check_eps_scaled_energy():
    law = noether_fluxes(XI1, LAG)
    shifted = ConservationLaw(SP, (series_shift(law.quantity),))
    assert divergence_check(shifted, LAG) == [True, True]


def test_degenerate_kinetic_term_raises():
    sp = JetSpace(("t",), ("u", "v"), order=0, max_derivative=2)
    lang = sp.language()
    lag = PerturbedLagrangian.from_expression(
        lang.parse("1/2*(du#t + dv#t)^2"), sp)
    with pytest.raises(CannotSolveForLeadingDerivative):
        el_solved_map(lag)


def test_constraint_equation_raises():
    # the v equation u0 = 0 has no second derivative; it must not be dropped
    sp = JetSpace(("t",), ("u", "v"), order=1, max_derivative=2)
    lag = PerturbedLagrangian.from_expression(
        sp.language().parse("1/2*du#t^2 + u*v"), sp)
    with pytest.raises(CannotSolveForLeadingDerivative, match="constrains the state"):
        el_solved_map(lag)


def test_identically_zero_equation_is_redundant():
    # the v equation sin(t)^2 + cos(t)^2 - 1 = 0 is not syntactically zero;
    # it is a redundant row whose right-hand side vanishes
    sp = JetSpace(("t",), ("u", "v"), order=1, max_derivative=2)
    lang = sp.language()
    source = "1/2*du#t^2 - 1/2*u^2 + (sin(t)^2 + cos(t)^2 - 1)*v"
    lag = PerturbedLagrangian.from_expression(lang.parse(source), sp)
    assert euler_lagrange(lag)[1].coeffs[0] != ex.ZERO
    solved = el_solved_map(lag)
    assert set(solved) == {ex.jet("u", 0, ("t", "t")), ex.jet("u", 1, ("t", "t"))}
    assert zeq(solved[ex.jet("u", 0, ("t", "t"))], lang.parse("-u0"))
    assert zeq(solved[ex.jet("u", 1, ("t", "t"))], lang.parse("-u1"))
    # without the - 1 the v equation is sin(t)^2 + cos(t)^2 = 0: a constraint
    twin = PerturbedLagrangian.from_expression(
        lang.parse(source.replace(" - 1)", ")")), sp)
    with pytest.raises(CannotSolveForLeadingDerivative, match="constrains the state"):
        el_solved_map(twin)


def test_exp_potential_is_solved():
    # exp(u0) sits only on the right-hand side, which a square system
    # never zero-tests
    sp = JetSpace(("t",), ("u",), order=1, max_derivative=2)
    lang = sp.language()
    lag = PerturbedLagrangian.from_expression(
        lang.parse("1/2*du#t^2 - exp(u) + eps*u"), sp)
    solved = el_solved_map(lag)
    assert zeq(solved[ex.jet("u", 0, ("t", "t"))], lang.parse("-exp(u0)"))
    assert zeq(solved[ex.jet("u", 1, ("t", "t"))], lang.parse("1 - exp(u0)*u1"))


def test_classify_keeps_cleared_denominators_apart():
    sp = JetSpace(("t",), ("u",), order=0, max_derivative=2)
    lang = sp.language()

    def law(text):
        return ConservationLaw(sp, (EpsSeries((lang.parse(text),)),))
    for a, b in (("1/(1+u0^2)", "1"), ("(u0^2+1)^(-1/2)", "(u0^2+1)^(1/2)")):
        assert classify([law(a), law(b)]) == []
    assert len(classify([law("2/(1+u0^2)"), law("1/(1+u0^2)")])) == 1


def test_classify_eps_shift_dependency():
    e_law = noether_fluxes(XI1, LAG, name="I1")
    xi6 = gen(["0", "1"], ["0", "0"])
    i6 = noether_fluxes(xi6, LAG, name="I6")
    deps = classify([e_law, i6], set())
    assert len(deps) == 1
    terms = {(shift, idx) for _, shift, idx in deps[0].terms}
    assert terms == {(1, 0), (0, 1)}


def test_classify_single_law_no_dependencies():
    law = noether_fluxes(XI2, LAG, PHI2, name="I2")
    assert classify([law], set()) == []


# ---------------------------------------------------------------------------
# randomized structural properties


def _random_psi_t(rng):
    basis = ["1", "t", "t^2", "sin(t)", "cos(t)", "t*sin(t)", "t*cos(t)"]
    terms = [f"{rng.randint(-3, 3)}*{b}" for b in rng.sample(basis, 3)]
    return L.parse(" + ".join(terms))


def test_gauge_shift_bookkeeping_randomized():
    # shifting phi by D_t psi changes the residual by exactly -D_t(D_t psi)
    # and the flux by exactly -D_t psi (psi kept derivative-free so the
    # shifted gauge stays inside the gauge class)
    from approxsym.perturb import series_add, series_sub, series_total_derivative
    rng = random.Random(43)
    base_res = variational_residual(XI2, LAG, PHI2)
    base_law = noether_fluxes(XI2, LAG, PHI2)
    for i in range(100):
        psi = EpsSeries((ex.ZERO, _random_psi_t(rng)))
        dpsi = series_total_derivative(psi, "t", SP)
        phi2 = GaugeTerm(SP, (series_add(PHI2.phi[0], dpsi),))
        res2 = variational_residual(XI2, LAG, phi2)
        delta = series_sub(res2, base_res)
        expect = series_total_derivative(dpsi, "t", SP)
        for a, b in zip(delta.coeffs, expect.coeffs):
            assert ex.is_zero(ex.add(a, b)) is True
        if i % 10 == 0:
            # flux bookkeeping, checked on the raw assembly (the shifted
            # pair is not a symmetry unless D_t D_t psi vanishes)
            from approxsym.perturb import series_mul
            w = XI2.eta[0]
            flux2 = series_sub(series_mul(w, LAG.partial(ex.jet("u", 0, ("t",)))),
                               phi2.phi[0])
            delta_flux = series_sub(flux2, base_law.quantity)
            for a, b in zip(delta_flux.coeffs, dpsi.coeffs):
                assert ex.is_zero(ex.add(a, b)) is True


def test_gauge_constant_shift_preserves_conservation():
    for c in (1, -2, 5):
        phi2 = gauge(["0", f"{c} + cos(t)*u0"])
        law = noether_fluxes(XI2, LAG, phi2)
        assert law.verified


def test_eps_shift_property_randomized():
    rng = random.Random(47)
    pairs = [(XI1, GaugeTerm.zero(SP)), (XI2, PHI2), (XI4, PHI4)]
    for _ in range(100):
        weights = [ex.rat(rng.randint(-2, 2)) for _ in pairs]
        if all(w == ex.ZERO for w in weights):
            continue
        from approxsym.perturb import series_add, series_scale
        xi = EpsSeries((ex.ZERO, ex.ZERO))
        eta = EpsSeries((ex.ZERO, ex.ZERO))
        phi = EpsSeries((ex.ZERO, ex.ZERO))
        for (g, ph), w in zip(pairs, weights):
            xi = series_add(xi, series_scale(g.xi[0], w))
            eta = series_add(eta, series_scale(g.eta[0], w))
            phi = series_add(phi, series_scale(ph.phi[0], w))
        g = Generator(SP, (xi,), (eta,))
        ph = GaugeTerm(SP, (phi,))
        law = noether_fluxes(g, LAG, ph)
        shifted = noether_fluxes(ref_eps_shift(g), LAG,
                                 GaugeTerm(SP, (series_shift(phi),)))
        for a, b in zip(shifted.quantity.coeffs, series_shift(law.quantity).coeffs):
            assert ex.is_zero(ex.sub(a, b)) is True


def test_zeroth_order_sector_is_exact_conservation_law():
    sp0 = JetSpace(("t",), ("u",), order=0, max_derivative=2)
    lag0 = PerturbedLagrangian.from_expression(
        sp0.language().parse("1/2*(du#t^2 - u^2)"), sp0)
    for g, ph in [(XI1, GaugeTerm.zero(SP)), (XI2, PHI2), (XI4, PHI4)]:
        law = noether_fluxes(g, LAG, ph)
        zero_part = ConservationLaw(sp0, (EpsSeries((law.quantity[0],)),))
        assert divergence_check(zero_part, lag0) == [True]


# ---------------------------------------------------------------------------
# the partials memo against the per-call differentiation it replaced


def ref_apply(g, s, order):
    """The reference: Generator.apply differentiating s on every call."""
    sp = g.space
    g.prolong(order)
    out = const_series(ex.ZERO, sp.order)
    for i, v in enumerate(sp.independent):
        d = EpsSeries(tuple(ex.diff(c, ex.sym(v)) for c in s.coeffs))
        out = series_add(out, series_mul(g.xi[i], d))
    for a, base in enumerate(sp.dependent):
        for q in range(order + 1):
            for deriv in combinations_with_replacement(sp.independent, q):
                d = series_u_partial(s, ex.jet(base, 0, deriv))
                if all(c == ex.ZERO for c in d.coeffs):
                    continue
                out = series_add(out, series_mul(g._cache[(a, deriv)], d))
    return out


def ref_residual(g, lag, phi):
    sp = lag.space
    out = ref_apply(g, lag.L, 1)
    out = series_add(out, series_mul(lag.L, series_divergence(g.xi, sp)))
    return series_sub(out, series_divergence(phi.phi, sp))


def ref_euler_lagrange(lag):
    sp = lag.space
    out = []
    for base in sp.dependent:
        coeffs = []
        for Lk in lag.L.coeffs:
            e = ex.diff(Lk, ex.jet(base, 0))
            for v in sp.independent:
                e = ex.sub(e, total_derivative(ex.diff(Lk, ex.jet(base, 0, (v,))), v, sp))
            coeffs.append(e)
        out.append(EpsSeries(tuple(coeffs)))
    return out


def keys(series):
    return [c._key for c in series.coeffs]


def order1_variables(sp):
    """Every v that apply(., 1) differentiates by."""
    return [ex.sym(v) for v in sp.independent] + [
        ex.jet(base, 0, deriv) for base in sp.dependent for q in (0, 1)
        for deriv in combinations_with_replacement(sp.independent, q)]


# golden combinations plus a non-symmetry direction on eta[0][0], as screened
SCREENED = {
    "oscillator-quadratic": [(("Xi1", "Xi2"), ("3/2", "-2"), "t*u0"),
                             (("Xi2", "Xi3"), ("1/3", "5/4"), "sin(t)*u0^2"),
                             (("Xi1", "Xi3"), ("-1", "2"), None)],
    "coupled-system": [(("Xi1", "Xi2"), ("2", "-1/2"), "u0*v0"),
                       (("Xi2", "Xi3"), ("3/2", "-2"), "t^2*v0"),
                       (("Xi1", "Xi3"), ("1/4", "3"), None)],
}


def screened(model, names, coeffs, direction):
    recs = {r["name"]: r for r in model.raw["golden"]}
    n, p = model.space.n, model.space.order
    zero_phi = [["0"] * (p + 1) for _ in range(n)]

    def combine(field):
        rows = [recs[name].get(field) or zero_phi for name in names]
        return [[" + ".join(f"({c})*({r[i][j]})" for c, r in zip(coeffs, rows))
                 for j in range(len(rows[0][i]))] for i in range(len(rows[0]))]
    rec = {f: combine(f) for f in ("xi", "eta", "phi")}
    if direction:
        rec["eta"][0][0] += f" + (2/3)*({direction})"
    return parse_generator(model, rec)


@pytest.mark.parametrize("name", builtin_names())
def test_partial_is_the_per_call_derivative(name):
    lag = load_builtin(name).lagrangian
    for v in order1_variables(lag.space):
        direct = EpsSeries(tuple(ex.diff(c, v) for c in lag.L.coeffs))
        assert keys(lag.partial(v)) == keys(direct)
        if isinstance(v, ex.Jet):
            assert keys(lag.partial(v)) == keys(series_u_partial(lag.L, v))
        assert lag.partial(v) is lag.partial(v)
    assert len(lag._partials) == len(order1_variables(lag.space))


@pytest.mark.parametrize("name", builtin_names())
def test_residual_and_hierarchy_match_the_uncached_code(name):
    model = load_builtin(name)
    lag = model.lagrangian
    pairs = [(rec.generator, rec.gauge) for rec in model.golden]
    pairs += [screened(model, *case) for case in SCREENED.get(name, [])]
    for g, phi in pairs:
        new = variational_residual(g, lag, phi)
        assert keys(new) == keys(ref_residual(g, lag, phi))
    for new, ref in zip(euler_lagrange(lag), ref_euler_lagrange(lag), strict=True):
        assert keys(new) == keys(ref)


def test_lagrangian_is_differentiated_once(monkeypatch):
    sp = LAG.space
    lag = PerturbedLagrangian(sp, LAG.L)
    diff = ex.diff
    seen = []

    def counting(e, v):
        if any(e is c for c in lag.L.coeffs):
            seen.append(v)
        return diff(e, v)
    monkeypatch.setattr(ex, "diff", counting)
    first = noether_fluxes(XI1, lag)   # residual, flux and hierarchy
    # each coefficient once by each variable that apply(., 1) asks for
    assert Counter(seen) == dict.fromkeys(order1_variables(sp), len(lag.L.coeffs))
    seen.clear()
    second = noether_fluxes(XI2, lag, PHI2)
    assert variational_residual(XI4, lag, PHI4).is_zero_series() is True
    assert seen == []
    assert first.verified and second.verified


@pytest.mark.parametrize("name", ["oscillator-quadratic", "coupled-system"])
def test_second_flux_walks_no_lagrangian_tree_again(name, monkeypatch):
    # L's coefficients and partials are whole subtrees of every residual,
    # flux and divergence: the second time their gradients come from the memo
    model = load_builtin(name)
    lag, rec = model.lagrangian, model.golden[0]
    walk, walked = ex._gradient, []

    def counting(e):
        walked.append(e)
        return walk(e)
    monkeypatch.setattr(ex, "_gradient", counting)
    ex.clear_caches()
    noether_fluxes(rec.generator, lag, rec.gauge)
    trees = set(lag.L.coeffs) | {c for s in lag._partials.values() for c in s.coeffs}
    assert [e for e in walked if e in trees]
    assert ex.cache_stats()["gradient"]["clears"] == 0
    # the same record again, then another one, which walks trees of its own
    for again in (rec, model.golden[1]):
        walked.clear()
        assert noether_fluxes(again.generator, lag, again.gauge).verified
        assert [e for e in walked if e in trees] == []
    assert walked


def test_lagrangian_is_frozen():
    lag = PerturbedLagrangian(LAG.space, LAG.L)
    el_solved_map(lag)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lag.L = EpsSeries((ex.ZERO, ex.ZERO))
    assert lag.L is LAG.L
