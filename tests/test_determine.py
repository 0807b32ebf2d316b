"""Discovery: extraction, exact solving, canonical report, span membership."""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from approxsym import expr as ex
from approxsym.determine import (AnsatzSpace, _gauge_residual, _generator_and_gauge,
                                 default_ansatz, extract, membership, report, solve)
from approxsym.errors import AnsatzIncomplete, UnverifiedSolution
from approxsym.jet import JetSpace
from approxsym.linalg import common_multiplier, sparse_rref
from approxsym.models import builtin_names, load_builtin, load_model_dict
from approxsym.noether import GaugeTerm, PerturbedLagrangian, variational_residual
from approxsym.perturb import (EpsSeries, const_series, series_add, series_divergence,
                               series_sub)
from approxsym.symmetry import Generator
from test_linalg import reference_assemble_rows

SP = JetSpace(("t",), ("u",), order=1, max_derivative=2)
L = SP.language(functions={"F": 1})
LAG = PerturbedLagrangian.from_expression(
    L.parse("1/2*(du#t^2 - u^2) - eps*Int(F,u)"), SP)


def small_ansatz():
    """The spec's example span (time basis x u basis), shared by all families."""
    tb = ["1", "t", "sin(t)", "cos(t)", "sin(2*t)", "cos(2*t)", "t*sin(t)", "t*cos(t)"]
    ub = ["1", "u0", "u0^2", "u1", "u0*u1"]
    span = [f"{a}*{b}" for a in tb for b in ub]
    data = {}
    for k in (0, 1):
        data[("xi", k, 0)] = [L.parse(s) for s in span]
        data[("eta", k, 0)] = [L.parse(s) for s in span]
        data[("phi", k, 0)] = [L.parse(s) for s in span]
    return AnsatzSpace(SP, data)


def test_oscillator_spec_ansatz_dimension_six():
    system = extract(LAG, small_ansatz(), set())
    sols = solve(system)
    rep = report(sols)
    assert rep["dimension"] == 6


def test_solutions_are_sound_and_span_is_tight():
    system = extract(LAG, small_ansatz(), set())
    sols = solve(system)
    gens = [s for s in sols if not s.pure_gauge]
    rng = random.Random(53)
    from approxsym.linalg import fe_expr
    from approxsym.perturb import series_scale
    for _ in range(25):
        weights = [ex.rat(rng.randint(-2, 2)) for _ in sols]
        xi = EpsSeries((ex.ZERO, ex.ZERO))
        eta = EpsSeries((ex.ZERO, ex.ZERO))
        phi = EpsSeries((ex.ZERO, ex.ZERO))
        for s, w in zip(sols, weights):
            xi = series_add(xi, series_scale(s.generator.xi[0], w))
            eta = series_add(eta, series_scale(s.generator.eta[0], w))
            phi = series_add(phi, series_scale(s.gauge.phi[0], w))
        res = variational_residual(Generator(SP, (xi,), (eta,)), LAG,
                                   GaugeTerm(SP, (phi,)))
        assert res.is_zero_series() is True
    # perturbing a solution by an ansatz direction outside the span fails
    outside = L.parse("t*u0")     # t*u0 du is not a variational symmetry here
    g0 = gens[0].generator
    eta2 = series_add(g0.eta[0], EpsSeries((outside, ex.ZERO)))
    res = variational_residual(Generator(SP, g0.xi, (eta2,)), LAG, gens[0].gauge)
    assert res.is_zero_series() is not True


def test_report_is_canonical_and_deterministic():
    system = extract(LAG, small_ansatz(), set())
    rep1 = report(solve(system))
    rep2 = report(solve(extract(LAG, small_ansatz(), set())))
    assert rep1 == rep2
    # leading coefficients normalized to one: each generator's first nonzero
    # seed coordinate is 1 (RREF convention)
    assert rep1["generators"]


def test_empty_ansatz_no_generators():
    data = {}
    for k in (0, 1):
        data[("xi", k, 0)] = []
        data[("eta", k, 0)] = []
        data[("phi", k, 0)] = []
    system = extract(LAG, AnsatzSpace(SP, data), set())
    assert solve(system) == []


def test_solution_that_fails_reverification_is_a_typed_error():
    # with no equations every coordinate vector is a solution: the first, a
    # translation in t, is a symmetry of the free particle, the second is not
    model = load_builtin("free-particle")
    system = extract(model.lagrangian, model.ansatz, model.constant_names)
    with pytest.raises(UnverifiedSolution) as err:
        solve(dataclasses.replace(system, equations=[]))
    assert str(err.value) == ("solution vector 2 of 72 fails re-verification: "
                              "its residual at eps^0 reads False, not zero")


def test_ansatz_incomplete():
    space = AnsatzSpace(SP, {("xi", 0, 0): [ex.ONE]})
    with pytest.raises(AnsatzIncomplete):
        extract(LAG, space, set())


def test_seed_elements_with_higher_orders_are_pruned():
    space = AnsatzSpace(SP, {("xi", 0, 0): [ex.ONE, L.parse("u1")],
                             ("phi", 0, 0): [L.parse("u1")]})
    assert space.bases[("xi", 0, 0)] == [ex.ONE]
    assert space.bases[("phi", 0, 0)] == []


def test_basis_independence_keeps_cleared_denominators_apart():
    space = AnsatzSpace(SP, {("xi", 0, 0): [L.parse("1/(1+t^2)"), ex.ONE]})
    assert len(space.bases[("xi", 0, 0)]) == 2
    with pytest.raises(ValueError, match="linearly dependent"):
        AnsatzSpace(SP, {("xi", 0, 0): [L.parse("2/(1+t^2)"), L.parse("1/(1+t^2)")]})


def test_each_distinct_basis_is_checked_once(monkeypatch):
    from approxsym import determine
    calls = []

    def counting(rows):
        calls.append(rows)
        return sparse_rref(rows)
    monkeypatch.setattr(determine, "sparse_rref", counting)
    model = load_builtin("coupled-system")
    distinct = {tuple(b) for b in model.ansatz.bases.values() if b}
    assert len(model.ansatz.bases) > len(distinct) >= 2
    assert len(calls) == len(distinct)


def test_dependent_basis_error_names_a_family_with_that_basis():
    shared = [L.parse("2/(1+t^2)"), L.parse("1/(1+t^2)")]
    with pytest.raises(ValueError, match=r"\('eta', 0, 0\)"):
        AnsatzSpace(SP, {("xi", 0, 0): [ex.ONE], ("eta", 0, 0): shared,
                         ("eta", 1, 0): list(shared)})


def test_mixed_denominators_keep_the_translation():
    # line3's columns are cleared by 1+(u-v)^2, 1+(u-w)^2 and 1+(v-w)^2;
    # the translation eta = (1, 1, 1) cancels only across them
    path = Path(__file__).parent / "models" / "line3.json"
    model = load_model_dict(json.loads(path.read_text()))
    rep = report(solve(extract(model.lagrangian, model.ansatz, model.constant_names)))
    assert [(g["xi"], g["eta"]) for g in rep["generators"]] == [
        ([["1"]], [["0", "0", "0"]]), ([["0"]], [["1", "1", "1"]])]


@pytest.fixture(scope="module")
def discovered():
    """One extract + solve per builtin, shared by the membership tests."""
    cache = {}

    def get(name):
        if name not in cache:
            model = load_builtin(name)
            system = extract(model.lagrangian, model.ansatz, model.constant_names)
            cache[name] = (model, system, solve(system))
        return cache[name]
    return get


def _reference_extract(lag, ansatz, constants):
    """The determining system with one variational_residual per unknown:
    column j is the generator and gauge of basis element j alone."""
    sp = lag.space
    orders = range(sp.order + 1)
    seeds = [(kind, k, slot) for kind, count in (("xi", sp.n), ("eta", sp.m))
             for slot in range(count) for k in orders]
    gauges = [("phi", k, slot) for slot in range(sp.n) for k in orders]
    unknowns = [(*fam, b) for fam in seeds + gauges
                for b in range(len(ansatz.basis(*fam)))]
    columns = {key: i for i, key in enumerate(unknowns)}
    residuals = []
    for j in range(len(unknowns)):
        gen, phi = _generator_and_gauge(sp, ansatz, columns,
                                        lambda col: ex.ONE if col == j else None)
        residuals.append(variational_residual(gen, lag, phi).coeffs)
    rows = reference_assemble_rows(common_multiplier(residuals, constants))
    keys = sorted(rows, key=lambda key: (key[0], key[2]))
    return unknowns, [rows[key] for key in keys], [(k, sig) for k, _, sig in keys]


def reference_gauge_residual(sp, k, slot, e):
    """-Div phi from zero series: phi has e at order k in slot, zero elsewhere."""
    zero = const_series(ex.ZERO, sp.order)
    fields = [zero] * sp.n
    fields[slot] = EpsSeries(tuple(e if i == k else ex.ZERO for i in range(sp.order + 1)))
    return series_sub(zero, series_divergence(fields, sp))


@pytest.mark.parametrize("name", builtin_names())
def test_gauge_columns_equal_the_zero_series_form(name):
    model = load_builtin(name)
    sp = model.space
    columns = 0
    for (kind, k, slot), basis in model.ansatz.bases.items():
        if kind != "phi":
            continue
        for e in basis:
            new = _gauge_residual(sp, k, slot, e).coeffs
            old = reference_gauge_residual(sp, k, slot, e).coeffs
            assert [c.key() for c in new] == [c.key() for c in old], (kind, k, slot, e)
            columns += 1
    assert columns


@pytest.mark.parametrize("source", ["order2", "oscillator-quadratic"])
def test_shared_residuals_match_one_residual_per_unknown(source, discovered):
    # order2 has order_p 2, and its order-1 and order-2 seed bases partly
    # repeat order 0 ("1", "t") and partly do not ("u0" in xi1, "t^2" in xi2);
    # "1" is a basis element of both xi and eta
    if source == "order2":
        path = Path(__file__).parent / "models" / "order2.json"
        model = load_model_dict(json.loads(path.read_text()))
        system = extract(model.lagrangian, model.ansatz, model.constant_names)
    else:
        model, system, _ = discovered(source)
    unknowns, equations, provenance = _reference_extract(
        model.lagrangian, model.ansatz, model.constant_names)
    assert system.unknowns == unknowns
    assert system.equations == equations
    assert system.provenance == provenance


def test_membership_of_paper_generators_in_default_span(discovered):
    model, system, sols = discovered("oscillator-arbitraryF")
    for rec in model.golden:
        assert membership(system, sols, rec.generator, rec.gauge), rec.name


def test_membership_keeps_constants_in_the_field(discovered):
    # coupled-system declares the constant alpha
    model, system, sols = discovered("coupled-system")
    for rec in model.golden:
        assert membership(system, sols, rec.generator, rec.gauge), rec.name


def test_membership_rejects_non_solutions(discovered):
    _, system, sols = discovered("oscillator-arbitraryF")
    bogus = Generator(SP, (EpsSeries((L.parse("t"), ex.ZERO)),),
                      (EpsSeries((ex.ZERO, ex.ZERO)),))
    assert not membership(system, sols, bogus, GaugeTerm.zero(SP))


def test_membership_accepts_added_pure_gauge(discovered):
    model, system, sols = discovered("oscillator-arbitraryF")
    gauge_only = [s for s in sols if s.pure_gauge]
    assert gauge_only
    rec = model.golden[0]
    phi = GaugeTerm(SP, tuple(series_add(a, b) for a, b in
                              zip(rec.gauge.phi, gauge_only[0].gauge.phi)))
    assert membership(system, sols, rec.generator, phi)


def test_membership_rejects_eta_outside_the_ansatz(discovered):
    model, system, sols = discovered("oscillator-arbitraryF")
    rec = model.golden[0]
    eta = series_add(rec.generator.eta[0], EpsSeries((L.parse("u0^3"), ex.ZERO)))
    gen = Generator(SP, rec.generator.xi, (eta,))
    assert not membership(system, sols, gen, rec.gauge)
