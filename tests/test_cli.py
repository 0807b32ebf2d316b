"""CLI: commands, formats, exit-code taxonomy, determinism."""

import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "approxsym.cli"]


def run(*args, check=True):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_models_list():
    out = run("models").stdout
    assert "three-body" in out and "coupled-system" in out


def test_expand_text_and_json():
    out = run("expand", "--model", "oscillator-arbitraryF").stdout
    assert out.splitlines()[0].startswith("L0 = ")
    data = json.loads(run("expand", "--model", "oscillator-arbitraryF",
                          "--format", "json").stdout)
    assert len(data["lagrangian"]) == 2


def test_expand_latex():
    out = run("expand", "--model", "oscillator-arbitraryF",
              "--format", "latex").stdout
    assert "\\mathcal{L}_{0}" in out


def test_expand_p0_single_line(tmp_path):
    model = {
        "schema": 1, "name": "p0", "independent": ["t"], "dependent": ["u"],
        "order_p": 0, "lagrangian": "1/2*du#t^2",
    }
    path = tmp_path / "p0.json"
    path.write_text(json.dumps(model))
    out = run("expand", str(path)).stdout.strip().splitlines()
    assert len(out) == 1


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = run("expand", str(path), check=False)
    assert proc.returncode == 2
    assert "line" in proc.stderr


def test_missing_field_exits_2_with_path(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"schema": 1, "name": "x"}))
    proc = run("expand", str(path), check=False)
    assert proc.returncode == 2
    assert "independent" in proc.stderr


def test_determine_free_particle():
    data = json.loads(run("determine", "--model", "free-particle",
                          "--format", "json").stdout)
    assert data["dimension"] == 10


def test_determine_dump_system():
    out = run("determine", "--model", "free-particle", "--dump-system").stdout
    assert "[eps^0]" in out and "solution space dimension" in out


def test_determine_empty_ansatz(tmp_path):
    model = {
        "schema": 1, "name": "empty", "independent": ["t"], "dependent": ["u"],
        "order_p": 1, "lagrangian": "1/2*(du#t^2 - u^2)",
        "ansatz": {"xi0": [], "xi1": [], "eta0": [], "eta1": [],
                   "phi0": [], "phi1": []},
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(model))
    proc = run("determine", str(path))
    assert "dimension: 0" in proc.stdout


def test_noether_generator_selection():
    data = json.loads(run("noether", "--model", "oscillator-arbitraryF",
                          "--generator", "Xi2", "--format", "json").stdout)
    assert len(data["laws"]) == 1
    law = data["laws"][0]
    assert law["verified"] is True
    assert law["fluxes"][0][1] == "-u0*cos(t) + du0#t*sin(t)"


def test_noether_override_non_symmetry_exit_4():
    proc = run("noether", "--model", "oscillator-arbitraryF",
               "--xi", '[["0"],["0"]]', "--eta", '[["u0"],["0"]]', check=False)
    assert proc.returncode == 4


def test_noether_classify():
    out = run("noether", "--model", "oscillator-arbitraryF",
              "--generator", "Xi1", "--generator", "Xi6", "--classify").stdout
    assert "dependencies:" in out
    assert "eps^1*Xi1" in out


def test_verify_symbolic_and_numeric():
    data = json.loads(run("verify", "--model", "oscillator-quadratic",
                          "--law", "Xi1", "--numeric", "--format", "json").stdout)
    entry = data["laws"][0]
    assert entry["symbolic"] == [True, True]
    assert all(d <= 1e-8 for d in entry["drift"])


def test_verify_sweep_slope():
    data = json.loads(run("verify", "--model", "oscillator-quadratic",
                          "--law", "Xi1", "--sweep", "1e-2,1e-3,1e-4",
                          "--format", "json").stdout)
    assert data["laws"][0]["sweep"]["slope"] >= 1.9


def test_verify_csv(tmp_path):
    path = tmp_path / "traj.csv"
    run("verify", "--model", "oscillator-quadratic", "--law", "Xi1",
        "--csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u0,u1,du0,du1,I0,I1"
    assert len(lines) > 1000


def test_golden_subcommand():
    proc = run("golden", "--model", "free-particle")
    assert "Xi1: PASS" in proc.stdout


def test_outputs_are_deterministic():
    a = run("determine", "--model", "free-particle", "--format", "json").stdout
    b = run("determine", "--model", "free-particle", "--format", "json").stdout
    assert a == b
    c = run("expand", "--model", "coupled-system").stdout
    d = run("expand", "--model", "coupled-system").stdout
    assert c == d


def test_determine_output_feeds_noether(tmp_path):
    # discovered generators must verify with zero failures when fed back
    data = json.loads(run("determine", "--model", "oscillator-arbitraryF",
                          "--format", "json").stdout)
    assert data["dimension"] == 6
    for g in data["generators"]:
        proc = run("noether", "--model", "oscillator-arbitraryF",
                   "--xi", json.dumps(g["xi"]), "--eta", json.dumps(g["eta"]),
                   "--phi", json.dumps(g["phi"]), check=False)
        assert proc.returncode == 0, proc.stderr


def write_model(tmp_path, lagrangian: str) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "schema": 1, "name": "probe", "independent": ["t"], "dependent": ["u"],
        "order_p": 1, "lagrangian": lagrangian}))
    return str(path)


def test_undecidable_kinetic_pivot_exits_3(tmp_path):
    path = write_model(tmp_path, "1/2*exp(t)*exp(-t)*du#t^2")
    proc = run("noether", path, "--xi", '[["1"],["0"]]', check=False)
    assert proc.returncode == 3
    assert "cannot decide whether pivot is zero" in proc.stderr


def test_huge_exact_root_expands(tmp_path):
    path = write_model(tmp_path, "1/2*du#t^2 - (10^400)^(1/2)*u")
    data = json.loads(run("expand", path, "--format", "json").stdout)
    assert str(10 ** 200) in data["lagrangian"][0]


def test_deep_nesting_exits_2(tmp_path):
    path = write_model(tmp_path, "(" * 200 + "du#t^2" + ")" * 200)
    proc = run("expand", path, check=False)
    assert proc.returncode == 2
    assert "nested deeper" in proc.stderr
