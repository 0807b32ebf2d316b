"""Self-tests of the benchmark: run with ``python3 -m pytest bench -q``."""

import copy
import json
import os
import subprocess
import sys

import pytest

import cases
import reference
import run
import speed
import tracing


@pytest.fixture(scope="module")
def free_particle():
    """One real, fast case: discover on free-particle."""
    res = run.run_case("discover", ["free-particle"])
    assert "error" not in res
    return res


def test_free_particle_discover_is_correct(free_particle):
    assert not any(free_particle["verdicts"].values())
    assert free_particle["output"]["dimension"] == 10
    assert free_particle["speed_samples"] > 0


def test_speed_factor_is_the_mean_reference_over_probe_ratio():
    sampler = speed.Sampler()
    ref = speed.REF_S
    sampler.samples = [(1.0, ref), (2.0, 2 * ref), (5.0, ref / 2)]
    assert sampler.factor(0.5, 2.5) == pytest.approx(0.75)
    # an interval too short to hold a sample uses every sample of the worker
    assert sampler.factor(3.0, 4.0) == pytest.approx((1 + 0.5 + 2) / 3)


def test_corrupted_answer_counts_as_failed(free_particle):
    # mirrors test_corrupted_golden_record_fails: one wrong answer, one failure
    out = copy.deepcopy(free_particle["output"])
    out["membership"]["Xi2"] = False
    verdicts = reference.check("discover", "free-particle", out, 0)
    assert [op for op, why in verdicts.items() if why] == ["member:Xi2"]
    out["pure_gauge_dimension"] = 1
    assert reference.check("discover", "free-particle", out, 0)["dimension"]
    del out["membership"]
    assert all(reference.check("discover", "free-particle", out, 0).values())


def test_wrong_answer_is_reported_with_timings(monkeypatch):
    monkeypatch.setitem(cases.WORKLOADS, "tiny", [("discover", "free-particle")])
    monkeypatch.setitem(reference.DISCOVER, "free-particle", (9, 2, ["Xi1", "Xi2"]))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    metrics, attempted, failed, lines = run.measure("tiny", 0, 0.0, False)
    assert (attempted, failed) == (3, 1)
    assert metrics["wall_s"]["value"] > 0 and metrics["setup_s"]["value"] > 0
    assert any(line.startswith("FAILED discover free-particle dimension") for line in lines)


def test_other_references_reject_corrupted_outputs():
    recs = {n: True for n in reference.THREE_BODY_RECORDS}
    deps = copy.deepcopy(reference.THREE_BODY_DEPENDENCIES)
    good = {"records": recs, "dependencies": deps}
    assert not any(reference.check("golden", "three-body", good, 0).values())
    deps[-1] = [["Xi4", 1], ["Xi10", 0]]     # what classify over the fluxes finds
    assert reference.check("golden", "three-body", good, 0)["dependencies"]
    screen = [{"perturbed": True, "verdict": "verified"},
              {"perturbed": False, "verdict": "verified"}]
    assert [bool(v) for v in reference.check("screen", "coupled-system", screen, 2).values()] \
        == [True, False]
    laws = {n: {"drift": [0.0, 1e-13], "sweep": [1e-16] * 3, "slope": 1.0}
            for n in reference.NUMERIC["free-particle"]}
    numeric = {"laws": laws}
    assert not any(reference.check("numeric", "free-particle", numeric, 0).values())
    laws["Xi2"]["sweep"] = [1e-5, 1e-7, 1e-9]
    assert reference.check("numeric", "free-particle", numeric, 0)["law:Xi2"]


def test_timeout_is_a_failed_operation_with_elapsed_time():
    res = run.run_case("discover", ["oscillator-quadratic"], timeout_s=0.5)
    assert res["error"].startswith("timeout")
    assert len(res["verdicts"]) == 9 and all(res["verdicts"].values())
    assert 0.5 <= res["case_s"] < 10.0


def test_memory_cap_is_a_failed_operation():
    # 28 MB of address space lets the interpreter start but not the extraction
    res = run.run_case("discover", ["oscillator-quadratic"], memory_mb=28)
    assert "error" in res
    assert all(res["verdicts"].values())
    assert res["case_s"] > 0


def test_traced_output_equals_untraced(free_particle):
    traced = run.run_case("discover", ["free-particle"], trace=True)
    assert traced["digest"] == free_particle["digest"]
    assert set(traced["trace"]) == set(tracing.metric_names())
    assert traced["trace"]["determine.extract.calls"] == 1
    assert traced["trace"]["determine.unknowns"] == 72


def test_wrappers_replace_by_name_imports():
    sys.path.insert(0, run.SRC)
    from approxsym import determine, models, noether
    original = noether.noether_fluxes
    tracer = tracing.Tracer().install()
    try:
        assert models.noether_fluxes is noether.noether_fluxes is not original
        assert determine.variational_residual is noether.variational_residual
        assert tracer.sites["noether.variational_residual"] == 3
    finally:
        tracer.uninstall()
    assert models.noether_fluxes is noether.noether_fluxes is original


def test_missing_target_fails_loudly(monkeypatch):
    sys.path.insert(0, run.SRC)
    from approxsym import noether
    original = noether.noether_fluxes
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + [("noether", "renamed_away")])
    with pytest.raises(LookupError, match="renamed_away"):
        tracing.Tracer().install()
    assert noether.noether_fluxes is original


_PROFILE = """
import cProfile, json, pstats, sys
sys.path.insert(0, {src!r})
import cases, tracing
prof = cProfile.Profile()
prof.enable()
from approxsym import models
model = models.load_builtin("free-particle")
cases.discover(model, None)
prof.disable()
stats = pstats.Stats(prof).stats
counts = {{}}
import importlib
for module, qual in tracing.TARGETS:
    fn = importlib.import_module("approxsym." + module)
    for part in qual.split("."):
        fn = getattr(fn, part)
    code = fn.__code__
    counts[module + "." + qual] = sum(
        v[1] for k, v in stats.items()
        if (k[0], k[1]) == (code.co_filename, code.co_firstlineno))
print(json.dumps(counts))
"""


def test_wrapper_counts_equal_cprofile_counts(free_particle):
    traced = run.run_case("discover", ["free-particle"], trace=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-c", _PROFILE.format(src=run.SRC)],
                         cwd=run.BENCH_DIR, env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    profiled = json.loads(out.strip().splitlines()[-1])
    assert profiled["expr.is_zero"] > 0
    for name, calls in profiled.items():
        assert traced["trace"][f"{name}.calls"] == calls, name
