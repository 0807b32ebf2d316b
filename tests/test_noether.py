"""Variational layer: EL hierarchy, residual, fluxes, divergence, classify."""

import random
from fractions import Fraction

import pytest

from approxsym import expr as ex
from approxsym.errors import (CannotSolveForLeadingDerivative,
                              NotAVariationalSymmetry)
from approxsym.jet import JetSpace
from approxsym.noether import (ConservationLaw, GaugeTerm, PerturbedLagrangian,
                               classify, divergence_check, el_solved_map,
                               euler_lagrange, noether_fluxes,
                               variational_residual)
from approxsym.perturb import EpsSeries, series_shift
from approxsym.symmetry import Generator, eps_shift

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


def test_noether_rejects_non_symmetry():
    with pytest.raises(NotAVariationalSymmetry):
        noether_fluxes(gen(["0", "0"], ["u0", "0"]), LAG)


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


def test_exp_potential_is_solved():
    # exp(u0) sits only on the right-hand side, which is never zero-tested
    sp = JetSpace(("t",), ("u",), order=1, max_derivative=2)
    lang = sp.language()
    lag = PerturbedLagrangian.from_expression(
        lang.parse("1/2*du#t^2 - exp(u) + eps*u"), sp)
    solved = el_solved_map(lag)
    assert zeq(solved[ex.jet("u", 0, ("t", "t"))], lang.parse("-exp(u0)"))
    assert zeq(solved[ex.jet("u", 1, ("t", "t"))], lang.parse("1 - exp(u0)*u1"))


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
            from approxsym.noether import _dl_du_series
            from approxsym.perturb import series_mul
            w = XI2.eta[0]
            flux2 = series_sub(series_mul(w, _dl_du_series(LAG, "u", "t")),
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
        shifted = noether_fluxes(eps_shift(g), LAG,
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
