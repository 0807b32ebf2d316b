"""Generators: prolongation, series action, and the commutators and eps-shift
structure kept here as references."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from approxsym import expr as ex
from approxsym.jet import JetSpace, total_derivative
from approxsym.models import builtin_names, load_builtin
from approxsym.noether import PerturbedLagrangian
from approxsym.perturb import (EpsSeries, expand_series, jet_series, series_mul,
                               series_shift, series_sub, series_total_derivative,
                               series_u_partial)
from approxsym.symmetry import Generator

SP = JetSpace(("t",), ("u",), order=1, max_derivative=2)
L = SP.language(functions={"F": 1})


def gen(xi, eta):
    return Generator(SP, (EpsSeries(tuple(L.parse(s) for s in xi)),),
                     (EpsSeries(tuple(L.parse(s) for s in eta)),))


def series_eq(s, texts):
    return all(ex.is_zero(ex.sub(c, L.parse(t))) is True
               for c, t in zip(s.coeffs, texts))


def apply_to(g, s, order):
    """g acting on s, differentiating s on the call."""
    return g.apply(s, order, partial=lambda v: series_u_partial(s, v))


# ---------------------------------------------------------------------------
# generator algebra that no command uses, kept as references of the paper's
# commutators and eps-shift structure


def ref_prolongation_coefficient(g, alpha, deriv):
    """The prolongation coefficient of dependent alpha by the multi-index
    deriv, prolonging g as far as it needs."""
    deriv = tuple(sorted(deriv))
    return g.prolong(len(deriv))._cache[(alpha, deriv)]


def ref_commutator(g1, g2):
    """Approximate Lie bracket, truncated at the space's eps order."""
    if g1.space is not g2.space and g1.space != g2.space:
        raise ValueError("commutator needs generators on the same space")
    sp = g1.space
    xi = tuple(series_sub(apply_to(g1, g2.xi[i], 0), apply_to(g2, g1.xi[i], 0))
               for i in range(sp.n))
    eta = tuple(series_sub(apply_to(g1, g2.eta[a], 0), apply_to(g2, g1.eta[a], 0))
                for a in range(sp.m))
    return Generator(sp, xi, eta)


def ref_eps_shift(g, s=1):
    """Multiply a generator by eps^s (series shift with truncation)."""
    return Generator(g.space,
                     tuple(series_shift(x, s) for x in g.xi),
                     tuple(series_shift(e, s) for e in g.eta))


XI1 = gen(["1", "0"], ["0", "0"])
XI2 = gen(["0", "0"], ["0", "sin(t)"])
XI3 = gen(["0", "0"], ["0", "cos(t)"])


def test_prolongation_of_eps_solution_shift():
    g = XI2.prolong(1)
    zeta = ref_prolongation_coefficient(g, 0, ("t",))
    assert series_eq(zeta, ["0", "cos(t)"])


def test_prolongation_of_time_translation_vanishes():
    g = XI1.prolong(2)
    for deriv in (("t",), ("t", "t")):
        zeta = ref_prolongation_coefficient(g, 0, deriv)
        assert series_eq(zeta, ["0", "0"])


def test_classical_scaling_prolongation_at_p0():
    sp0 = JetSpace(("t",), ("u",), order=0, max_derivative=2)
    lang = sp0.language()
    g = Generator(sp0, (EpsSeries((lang.parse("t"),)),),
                  (EpsSeries((lang.parse("u0"),)),))
    g.prolong(1)
    zeta = ref_prolongation_coefficient(g, 0, ("t",))
    # eta^t = D_t(u) - u_t D_t(t) = 0 for the scaling generator t dt + u du
    assert zeta.coeffs[0] == ex.ZERO


def test_prolongation_series_route_matches_exact_expansion():
    # the same coefficients must come from prolonging the closed-form
    # generator exactly and expanding afterwards
    cases = [
        ("eps*sin(2*t)", "eps*cos(2*t)*u"),
        ("eps*cos(2*t)", "-eps*sin(2*t)*u"),
        ("0", "eps*sin(t)"),
    ]
    tname = "t"
    for xi_text, eta_text in cases:
        xi_full, eta_full = L.parse(xi_text), L.parse(eta_text)
        u_t = ex.jet("u", None, (tname,))
        exact = ex.sub(total_derivative(eta_full, tname, SP),
                       ex.mul(u_t, total_derivative(xi_full, tname, SP)))
        expected = expand_series(exact, SP)
        g = Generator(SP, (expand_series(xi_full, SP),), (expand_series(eta_full, SP),))
        g.prolong(1)
        got = ref_prolongation_coefficient(g, 0, (tname,))
        for a, b in zip(got.coeffs, expected.coeffs):
            assert ex.is_zero(ex.sub(a, b)) is True


def test_apply_and_coefficient_prolong_on_demand():
    # a fresh generator, never prolonged by hand: apply fills the cache
    # itself and agrees with an explicitly prolonged copy
    s = EpsSeries((L.parse("u0*du0#t"), L.parse("du1#t")))
    out = apply_to(gen(["0", "0"], ["0", "sin(t)"]), s, 1)
    ref = apply_to(gen(["0", "0"], ["0", "sin(t)"]).prolong(1), s, 1)
    assert out.coeffs == ref.coeffs
    assert series_eq(out, ["0", "sin(t)*du0#t + cos(t)*u0"])
    zeta = ref_prolongation_coefficient(gen(["0", "0"], ["0", "sin(t)"]), 0, ("t", "t"))
    assert series_eq(zeta, ["0", "-sin(t)"])


def test_apply_time_translation_to_t_free_series():
    g = XI1.prolong(1)
    s = EpsSeries((L.parse("u0^2"), L.parse("u0*u1")))
    out = apply_to(g, s, 1)
    assert series_eq(out, ["0", "0"])


def test_apply_solution_shift_to_lagrangian():
    lag = PerturbedLagrangian.from_expression(
        L.parse("1/2*(du#t^2 - u^2) - eps*Int(F,u)"), SP)
    g = XI2.prolong(1)
    out = g.apply(lag.L, 1, partial=lag.partial)
    assert series_eq(out, ["0", "-sin(t)*u0 + cos(t)*du0#t"])


def test_apply_scaling_generator_gauge_free():
    sp = JetSpace(("t",), ("u", "v"), order=1, max_derivative=2)
    lang = sp.language(functions={"F": 1}, constants={"alpha"})
    lag = PerturbedLagrangian.from_expression(
        lang.parse("v*du#t^2 + u*du#t*dv#t - alpha*v/u^2 + eps*F(v)/u^2"), sp)
    g = Generator(sp,
                  (EpsSeries((lang.parse("2*t"), ex.ZERO)),),
                  (EpsSeries((lang.parse("u0"), lang.parse("u1"))),
                   EpsSeries((ex.ZERO, ex.ZERO))))
    from approxsym.perturb import series_add, series_divergence, series_mul
    out = series_add(g.apply(lag.L, 1, partial=lag.partial),
                     series_mul(lag.L, series_divergence(g.xi, sp)))
    assert all(ex.is_zero(c) is True for c in out.coeffs)


def test_commutator_self_is_zero():
    got = ref_commutator(XI1, XI1)
    assert all(ex.is_zero(c) is True for s in got.xi + got.eta for c in s.coeffs)


def test_commutator_produces_xi3():
    got = ref_commutator(XI1, XI2)
    assert series_eq(got.eta[0], ["0", "cos(t)"])
    assert series_eq(got.xi[0], ["0", "0"])


def test_commutator_coupled_system_pair():
    sp = JetSpace(("t",), ("u", "v"), order=1, max_derivative=2)
    lang = sp.language()
    z = EpsSeries((ex.ZERO, ex.ZERO))
    xi1 = Generator(sp, (EpsSeries((ex.ONE, ex.ZERO)),), (z, z))
    xi2 = Generator(sp, (EpsSeries((lang.parse("t^2"), ex.ZERO)),),
                    (EpsSeries((lang.parse("t*u0"), lang.parse("t*u1"))), z))
    got = ref_commutator(xi1, xi2)
    # [d/dt, t^2 dt + t(u0+eps u1) du] = 2t dt + (u0 + eps u1) du, i.e. Xi3
    assert series_eq(got.xi[0], ["2*t", "0"])
    for a, b in zip(got.eta[0].coeffs, (lang.parse("u0"), lang.parse("u1"))):
        assert ex.is_zero(ex.sub(a, b)) is True


def test_commutator_antisymmetry_and_bilinearity_randomized():
    rng = random.Random(41)
    pool = [XI1, XI2, XI3, gen(["0", "sin(2*t)"], ["0", "cos(2*t)*u0"]),
            gen(["0", "cos(2*t)"], ["0", "-sin(2*t)*u0"])]

    def combo():
        a = ex.rat(rng.randint(-3, 3))
        b = ex.rat(rng.randint(-3, 3))
        g1, g2 = rng.sample(pool, 2)
        from approxsym.perturb import series_add, series_scale
        xi = (series_add(series_scale(g1.xi[0], a), series_scale(g2.xi[0], b)),)
        eta = (series_add(series_scale(g1.eta[0], a), series_scale(g2.eta[0], b)),)
        return Generator(SP, xi, eta)

    for _ in range(100):
        a, b = combo(), combo()
        ab = ref_commutator(a, b)
        ba = ref_commutator(b, a)
        from approxsym.perturb import series_add
        for i in range(SP.n):
            s = series_add(ab.xi[i], ba.xi[i])
            assert all(ex.is_zero(c) is True for c in s.coeffs)
        for al in range(SP.m):
            s = series_add(ab.eta[al], ba.eta[al])
            assert all(ex.is_zero(c) is True for c in s.coeffs)


def test_eps_shift_commutes_with_prolongation():
    base = gen(["0", "0"], ["sin(t)", "0"])
    shifted = ref_eps_shift(base)
    a = ref_prolongation_coefficient(base, 0, ("t",))
    b = ref_prolongation_coefficient(shifted, 0, ("t",))
    for x, y in zip(series_shift(a).coeffs, b.coeffs):
        assert ex.is_zero(ex.sub(x, y)) is True


def test_serialization_round_trip():
    g = gen(["0", "sin(2*t)"], ["0", "cos(2*t)*u0"])
    data = g.to_json()
    g2 = Generator.from_json(SP, data, L)
    for s1, s2 in zip(g.xi + g.eta, g2.xi + g2.eta):
        for a, b in zip(s1.coeffs, s2.coeffs):
            assert a == b


def test_point_generator_validation():
    with pytest.raises(ValueError):
        gen(["du0#t", "0"], ["0", "0"])


# ---------------------------------------------------------------------------
# prolongation against the contact formula it was written from


def ref_prolong(g, order):
    """The reference: D_v xi_j recomputed for every dependent and multi-index."""
    sp = g.space
    cache = {(a, ()): g.eta[a] for a in range(sp.m)}
    for q in range(1, order + 1):
        for a, base in enumerate(sp.dependent):
            for deriv in combinations_with_replacement(sp.independent, q):
                v = deriv[-1]
                out = series_total_derivative(cache[(a, deriv[:-1])], v, sp)
                for j, xj in enumerate(sp.independent):
                    term = series_mul(series_total_derivative(g.xi[j], v, sp),
                                      jet_series(base, deriv[:-1] + (xj,), sp.order))
                    out = series_sub(out, term)
                cache[(a, deriv)] = out
    return cache


def assert_same_prolongation(g):
    g = Generator(g.space, g.xi, g.eta)   # an empty cache
    order = g.space.max_derivative
    ref = ref_prolong(g, order)
    g.prolong(order)
    assert g._cache.keys() == ref.keys()
    for k, s in ref.items():
        assert [c._key for c in g._cache[k].coeffs] == [c._key for c in s.coeffs]


@pytest.mark.parametrize("name", builtin_names())
def test_prolongation_matches_the_contact_formula_on_golden_records(name):
    for rec in load_builtin(name).golden:
        assert_same_prolongation(rec.generator)


def test_prolongation_matches_the_contact_formula_in_two_variables():
    sp = JetSpace(("t", "x"), ("u", "v"), order=1, max_derivative=2)
    lang = sp.language()
    rng = random.Random(7)
    texts = ["t*u0", "x^2", "u0*v0", "sin(x)", "t*x*v0", "u0^2", "1", "0"]
    for _ in range(5):
        def series():
            return EpsSeries((lang.parse(rng.choice(texts)),
                              lang.parse(f"{rng.choice(texts)} + u1*{rng.choice(texts)}")))
        assert_same_prolongation(Generator(sp, (series(), series()), (series(), series())))
