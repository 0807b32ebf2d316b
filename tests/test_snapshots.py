"""Byte-identical CLI output on every builtin: the behaviour contract.

Model files under ``tests/models`` pin cases no builtin reaches.

Each file under ``tests/snapshots`` is the ``--format json`` stdout of one
CLI call, listed in CASES with its exit code.  The test runs the call through
``cli.main`` in-process, from empty caches as one CLI call starts, and
compares bytes.  Regenerate one file with

    PYTHONPATH=src python -m approxsym.cli <argv of its CASES entry> > tests/snapshots/<name>.json

The ``verify --csv`` file of two builtins is pinned too, gzip-compressed
(mtime 0) as ``verify-csv.<model>.csv.gz``: no stdout snapshot reaches the
code that writes it.
"""

from pathlib import Path

import gzip
import itertools

import pytest

from approxsym import expr as ex
from approxsym.cli import main
from test_expr import check_memo_rule

SNAPSHOTS = Path(__file__).parent / "snapshots"
MODEL_FILES = Path(__file__).parent / "models"

MODELS = ["coupled-system", "free-particle", "oscillator-arbitraryF",
          "oscillator-cubic-inverse", "oscillator-quadratic", "three-body"]

# (xi, eta, phi) JSON rows of the override cases
OVERRIDES = {
    # 2*Xi1 - 1/3*Xi2
    "oscillator-quadratic": ('[["2"], ["0"]]', '[["0"], ["-1/3*sin(t)"]]',
                             '[["0", "-1/3*cos(t)*u0"]]'),
    # 3/2*Xi2 - 2*Xi3
    "coupled-system": ('[["3/2*t^2 - 4*t"], ["0"]]',
                       '[["3/2*t*u0 - 2*u0", "0"], ["3/2*t*u1 - 2*u1", "0"]]',
                       '[["3/2*u0^2*v0", "3/2*u0*(u0*v1 + 2*v0*u1)"]]'),
}


def _cases() -> dict[str, tuple[list[str], int]]:
    cases = {"models": (["models"], 0)}
    for m in MODELS:
        cases[f"expand.{m}"] = (["expand", "--model", m], 0)
        cases[f"noether-classify.{m}"] = (["noether", "--model", m, "--classify"], 0)
        cases[f"golden.{m}"] = (["golden", "--model", m], 0)
        cases[f"verify.{m}"] = (["verify", "--model", m], 0)
        # three-body determine takes about 90 s, then exits 6 on an
        # unverified solution (ROADMAP Baseline): no snapshot to pin
        if m != "three-body":
            cases[f"determine.{m}"] = (["determine", "--model", m], 0)
            cases[f"determine-dump.{m}"] = (["determine", "--model", m, "--dump-system"], 0)
    # columns cleared by different denominators: u-v, u-w and v-w
    cases["determine-dump.line3"] = (
        ["determine", str(MODEL_FILES / "line3.json"), "--dump-system"], 0)
    # order_p 2: seed bases that differ across eps orders, gauges in u1 and u2
    order2 = str(MODEL_FILES / "order2.json")
    cases["determine.order2"] = (["determine", order2], 0)
    cases["determine-dump.order2"] = (["determine", order2, "--dump-system"], 0)
    for m in ("free-particle", "oscillator-quadratic", "three-body"):
        cases[f"verify-numeric.{m}"] = (["verify", "--model", m, "--numeric"], 0)
    cases["verify-sweep.oscillator-quadratic"] = (
        ["verify", "--model", "oscillator-quadratic", "--law", "Xi1",
         "--sweep", "1e-2,1e-3,1e-4"], 0)
    cases["verify-sweep-all.oscillator-quadratic"] = (
        ["verify", "--model", "oscillator-quadratic", "--sweep", "1e-2,1e-3,1e-4"], 0)
    # the --xi/--eta/--phi override: a rational combination of two golden
    # records, through Generator.from_json, variational_residual and noether_fluxes
    for m, (xi, eta, phi) in OVERRIDES.items():
        cases[f"noether-override.{m}"] = (
            ["noether", "--model", m, "--xi", xi, "--eta", eta, "--phi", phi], 0)
    return {name: (argv + ["--format", "json"], code)
            for name, (argv, code) in cases.items()}


CASES = _cases()


def assert_snapshot(name, capsys):
    argv, code = CASES[name]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == (SNAPSHOTS / f"{name}.json").read_text(), f"{name}: {' '.join(argv)}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_snapshot(name, capsys):
    ex.clear_caches()
    assert_snapshot(name, capsys)


@pytest.mark.parametrize("model", ["oscillator-quadratic", "three-body"])
def test_csv_snapshot(model, tmp_path, capsys):
    ex.clear_caches()
    path = tmp_path / "out.csv"
    assert main(["verify", "--model", model, "--csv", str(path), "--format", "json"]) == 0
    # --csv integrates as --numeric does, so stdout is the numeric snapshot
    assert capsys.readouterr().out == (SNAPSHOTS / f"verify-numeric.{model}.json").read_text()
    expected = gzip.decompress((SNAPSHOTS / f"verify-csv.{model}.csv.gz").read_bytes())
    assert path.read_bytes() == expected


def test_snapshot_after_another_model_in_the_same_process(capsys):
    # the second call starts from the caches the first one left
    ex.clear_caches()
    for name in ("determine.coupled-system", "determine.oscillator-quadratic"):
        assert_snapshot(name, capsys)
    stats = ex.cache_stats()
    assert stats["memo"]["hits"] and stats["gradient"]["hits"]


@pytest.mark.parametrize("name", ["determine.oscillator-quadratic",
                                  "noether-classify.three-body"])
def test_snapshot_with_caches_emptied_midway(name, capsys, monkeypatch):
    # every third normal form, a cache hit included, starts from empty caches
    normal_form, calls = ex._zero_normal_form, itertools.count()

    def emptying(e):
        if next(calls) % 3 == 0:
            ex.clear_caches()
        return normal_form(e)

    monkeypatch.setattr(ex, "_zero_normal_form", emptying)
    assert_snapshot(name, capsys)
    assert next(calls) > 3


@pytest.mark.parametrize("name", ["determine.oscillator-quadratic",
                                  "noether-classify.three-body"])
def test_snapshot_with_small_cache_bounds(name, capsys, monkeypatch):
    # the expansion and normal-form caches fill and are emptied many times
    emptied = check_memo_rule(monkeypatch, 20, {ex._EXPAND_MEMO: ("_read",),
                                                ex._ZNF_MEMO: ("_read", "_clear_denominators")})
    assert_snapshot(name, capsys)
    emptied()


def test_snapshot_with_gradients_emptied_midway(capsys, monkeypatch):
    # every third top-level gradient starts from empty caches
    gradient, calls = ex.gradient, itertools.count()

    def emptying(e):
        if next(calls) % 3 == 0:
            ex.clear_caches()
        return gradient(e)

    monkeypatch.setattr(ex, "gradient", emptying)
    assert_snapshot("noether-override.coupled-system", capsys)
    assert next(calls) > 3
