"""Byte-identical CLI output on every builtin: the behaviour contract.

Each file under ``tests/snapshots`` is the ``--format json`` stdout of one
CLI call, listed in CASES with its exit code.  The test runs the call through
``cli.main`` in-process and compares bytes.  Regenerate one file with

    PYTHONPATH=src python -m approxsym.cli <argv of its CASES entry> > tests/snapshots/<name>.json
"""

from pathlib import Path

import pytest

from approxsym.cli import main

SNAPSHOTS = Path(__file__).parent / "snapshots"

MODELS = ["coupled-system", "free-particle", "oscillator-arbitraryF",
          "oscillator-cubic-inverse", "oscillator-quadratic", "three-body"]


def _cases() -> dict[str, tuple[list[str], int]]:
    cases = {"models": (["models"], 0)}
    for m in MODELS:
        cases[f"expand.{m}"] = (["expand", "--model", m], 0)
        cases[f"noether-classify.{m}"] = (["noether", "--model", m, "--classify"], 0)
        cases[f"golden.{m}"] = (["golden", "--model", m], 0)
        cases[f"verify.{m}"] = (["verify", "--model", m], 0)
        if m != "three-body":  # the three-body determining system does not finish
            cases[f"determine-dump.{m}"] = (["determine", "--model", m, "--dump-system"], 0)
    for m in ("free-particle", "oscillator-quadratic", "three-body"):
        cases[f"verify-numeric.{m}"] = (["verify", "--model", m, "--numeric"], 0)
    cases["verify-sweep.oscillator-quadratic"] = (
        ["verify", "--model", "oscillator-quadratic", "--law", "Xi1",
         "--sweep", "1e-2,1e-3,1e-4"], 0)
    return {name: (argv + ["--format", "json"], code)
            for name, (argv, code) in cases.items()}


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_snapshot(name, capsys):
    argv, code = CASES[name]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == (SNAPSHOTS / f"{name}.json").read_text(), f"{name}: {' '.join(argv)}"
