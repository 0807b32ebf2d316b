"""Builtin models: loading, golden verification, negative controls."""

import copy

import pytest

from approxsym import expr as ex
from approxsym.errors import ModelError, UnknownModel
from approxsym.models import (builtin_names, concretize, golden_check, load_builtin,
                              load_model_dict, _BUILTINS)
from approxsym.noether import ConservationLaw, classify, divergence_check


def test_builtin_names():
    names = builtin_names()
    for expected in ("oscillator-arbitraryF", "oscillator-quadratic",
                     "oscillator-cubic-inverse", "coupled-system", "three-body"):
        assert expected in names


@pytest.mark.parametrize("name, body", [("oscillator-quadratic", "(w+delta)^2"),
                                        ("oscillator-cubic-inverse", "kappa/w^3")])
def test_load_parses_each_function_body_once(monkeypatch, name, body):
    from approxsym.lang import Language
    parse = Language.parse
    texts = []

    def counting(self, text):
        texts.append(text)
        return parse(self, text)
    monkeypatch.setattr(Language, "parse", counting)
    model = load_builtin(name)
    assert texts.count(body) == 1
    # the one parse still reaches the Lagrangian and every golden record
    from approxsym.lang import to_text
    xi1 = next(r for r in model.golden if r.name == "Xi1")
    shown = [to_text(c) for c in model.lagrangian.L.coeffs + xi1.quantity.coeffs]
    assert not any("F" in t for t in shown)


@pytest.mark.parametrize("name", builtin_names())
def test_concretize_equals_parsing_the_bodies_again(name):
    # the reference parses every declared body from the model's functions
    model = load_builtin(name)
    want = model.lagrangian_source
    for fname, f in model.functions.items():
        if f.get("concrete"):
            want = ex.subst_function(want, fname, ex.sym(f.get("formal") or "w"),
                                     model.language.parse(f["concrete"]))
    assert concretize(model.lagrangian_source, model.bodies).key() == want.key()


def test_unknown_model():
    with pytest.raises(UnknownModel):
        load_builtin("nonsense")


def test_schema_validation_paths():
    with pytest.raises(ModelError) as err:
        load_model_dict({"name": "x"})
    assert "independent" in str(err.value)
    bad = copy.deepcopy(_BUILTINS["free-particle"])
    bad["order_p"] = "one"
    with pytest.raises(ModelError):
        load_model_dict(bad)


def test_repeated_golden_name_is_refused():
    # golden_check fits each record's law against the others by name: with
    # Xi2 renamed Xi3, the correct Xi2 record was fitted against Xi3's
    # quantity and reported "Xi3: FAIL"
    data = copy.deepcopy(_BUILTINS["oscillator-quadratic"])
    names = [rec["name"] for rec in data["golden"]]
    first, second = names.index("Xi2"), names.index("Xi3")
    data["golden"][first]["name"] = "Xi3"
    with pytest.raises(ModelError, match=rf"^golden\[{second}\]: name 'Xi3' repeats "
                                         rf"golden\[{first}\]$"):
        load_model_dict(data)


def test_oscillator_golden_all_pass():
    model = load_builtin("oscillator-arbitraryF")
    results = golden_check(model)
    assert len(results) == 6
    assert all(r.passed for r in results), [(r.name, r.detail) for r in results]


def test_quadratic_branch_golden_all_pass():
    results = golden_check(load_builtin("oscillator-quadratic"))
    assert len(results) == 8
    assert all(r.passed for r in results), [(r.name, r.detail) for r in results]


def test_cubic_inverse_branch_golden_all_pass():
    results = golden_check(load_builtin("oscillator-cubic-inverse"))
    assert len(results) == 8
    assert all(r.passed for r in results), [(r.name, r.detail) for r in results]


def test_coupled_system_golden_all_pass():
    results = golden_check(load_builtin("coupled-system"))
    assert len(results) == 6
    assert all(r.passed for r in results), [(r.name, r.detail) for r in results]


def test_three_body_golden_all_pass():
    results = golden_check(load_builtin("three-body"))
    assert len(results) == 16
    assert all(r.passed for r in results), [(r.name, r.detail) for r in results]


@pytest.mark.parametrize("name", ["oscillator-quadratic", "coupled-system"])
def test_golden_check_splits_each_column_once(monkeypatch, name):
    # the golden quantities and constant columns form every record's basis;
    # they, and each fitted quantity, are split over Q(constants) once
    from approxsym import linalg
    from approxsym.lang import to_text
    model = load_builtin(name)
    split = linalg._split_constants
    seen = []

    def counting(e, constants):
        seen.append(e)
        return split(e, constants)
    monkeypatch.setattr(linalg, "_split_constants", counting)
    assert all(r.passed for r in golden_check(model))
    assert seen
    repeated = {to_text(e) for e in seen if seen.count(e) > 1}
    assert not repeated


def test_corrupted_golden_record_fails():
    data = copy.deepcopy(_BUILTINS["oscillator-arbitraryF"])
    # sign flip inside I2's transcription
    rec = [r for r in data["golden"] if r["name"] == "Xi2"][0]
    rec["quantity"][1] = "sin(t)*du0#t + cos(t)*u0"
    model = load_model_dict(data)
    results = {r.name: r for r in golden_check(model)}
    assert not results["Xi2"].passed
    assert results["Xi1"].passed


def test_non_symmetry_record_reports_nonzero_residual():
    data = copy.deepcopy(_BUILTINS["oscillator-quadratic"])
    # flip the sign of Xi2's eta: the generator is no longer a symmetry
    rec = [r for r in data["golden"] if r["name"] == "Xi2"][0]
    rec["eta"] = [["-" + f"({s})" for s in row] for row in rec["eta"]]
    results = {r.name: r for r in golden_check(load_model_dict(data))}
    bad = results["Xi2"]
    assert (bad.residual_zero, bad.flux_verified, bad.passed) == (False, False, False)
    assert bad.match is None and bad.detail == ""
    assert results["Xi1"].passed


def test_residual_error_is_reported_not_zero(monkeypatch):
    from approxsym import models

    def boom(*args):
        raise ValueError("series order mismatch")
    monkeypatch.setattr(models, "variational_residual", boom)
    for res in golden_check(load_builtin("free-particle")):
        assert (res.residual_zero, res.flux_verified, res.passed) == (False, False, False)
        assert res.detail == "ValueError: series order mismatch"


def test_zeroth_order_parts_are_exact_unperturbed_laws():
    from approxsym.jet import JetSpace
    from approxsym.noether import PerturbedLagrangian
    from approxsym.perturb import EpsSeries
    model = load_builtin("oscillator-arbitraryF")
    sp0 = JetSpace(("t",), ("u",), order=0, max_derivative=2)
    lag0 = PerturbedLagrangian.from_expression(
        sp0.language().parse("1/2*(du#t^2 - u^2)"), sp0)
    for rec in model.golden:
        if rec.quantity is None:
            continue
        law0 = ConservationLaw(sp0, (EpsSeries((rec.quantity[0],)),))
        assert divergence_check(law0, lag0) == [True]


def test_three_body_barycenter_record_verifies():
    model = load_builtin("three-body")
    recs = {r.name: r for r in model.golden}
    law = ConservationLaw(model.space, (recs["Xi3a"].quantity,), name="I3x")
    assert divergence_check(law, model.lagrangian) == [True, True]


def test_three_body_dependency_identity():
    # m1*m2*I6 - eps*(m1+m2)*I4 + eps*I5 is identically zero
    from approxsym.perturb import series_add, series_scale, series_shift
    model = load_builtin("three-body")
    recs = {r.name: r for r in model.golden}
    i4, i5, i6 = (recs[n].quantity for n in ("Xi4", "Xi5", "Xi6"))
    m1, m2 = ex.sym("m1"), ex.sym("m2")
    combo = series_add(
        series_scale(i6, ex.mul(m1, m2)),
        series_add(series_shift(series_scale(i4, ex.neg(ex.add(m1, m2)))),
                   series_shift(i5)))
    assert combo.is_zero_series() is True


def test_three_body_classify_finds_the_dependency():
    model = load_builtin("three-body")
    recs = {r.name: r for r in model.golden}
    laws = [ConservationLaw(model.space, (recs[n].quantity,), name=n)
            for n in ("Xi4", "Xi5", "Xi6")]
    deps = classify(laws, model.constant_names)
    assert len(deps) == 1
    involved = {(shift, idx) for _, shift, idx in deps[0].terms}
    assert involved == {(1, 0), (1, 1), (0, 2)}


def test_coupled_classify_eps_shift_dependencies():
    model = load_builtin("coupled-system")
    recs = {r.name: r for r in model.golden}
    names = ["Xi1", "Xi2", "Xi3", "Xi4", "Xi5", "Xi6"]
    laws = [ConservationLaw(model.space, (recs[n].quantity,), name=n)
            for n in names]
    deps = classify(laws, model.constant_names)
    found = {frozenset((shift, idx) for _, shift, idx in d.terms) for d in deps}
    assert frozenset({(1, 0), (0, 3)}) in found   # I4 = eps I1
    assert frozenset({(1, 1), (0, 4)}) in found   # I5 = eps I2
    assert frozenset({(1, 2), (0, 5)}) in found   # I6 = eps I3
