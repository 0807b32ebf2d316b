"""CLI: commands, formats, exit-code taxonomy, determinism."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

from approxsym import cli
from approxsym import expr as ex

CLI = [sys.executable, "-m", "approxsym.cli"]
# the package's source, for CLI subprocesses run from a checkout
ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def run(*args, check=True):
    """One CLI command run in this process, with cold caches: ``cli.main``
    with standard output and error captured.  An exception that ``main``
    lets through is printed as a traceback with return code 1, as the
    interpreter prints it, so "Traceback" in stderr keeps its meaning."""
    ex.clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as stop:   # argparse's usage errors
            code = stop.code or 0
        except Exception:
            traceback.print_exc()
            code = 1
    proc = subprocess.CompletedProcess(CLI + list(args), code, out.getvalue(), err.getvalue())
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def run_process(*args, hash_seed):
    """One CLI command in a process of its own, under the given hash seed."""
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env={**ENV, "PYTHONHASHSEED": str(hash_seed)})


def test_run_prints_an_escaped_exception_as_a_traceback(monkeypatch):
    def broken(args):
        raise KeyError("broken")
    monkeypatch.setattr(cli, "cmd_models", broken)
    proc = run("models", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("Traceback") and "KeyError: 'broken'" in proc.stderr


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


@pytest.mark.parametrize("content, named", [
    (b"[1,2]", "JSON object"), (b'"str"', "JSON object"), (b"null", "JSON object"),
    (b"\xff\xfe", "not UTF-8")])
def test_model_file_not_an_object_or_not_utf8_exits_2(tmp_path, content, named):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    proc = run("expand", str(path), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and named in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_override_with_a_malformed_derivative_suffix_exits_2():
    proc = run("noether", "--model", "oscillator-quadratic",
               "--xi", '[["du0#t2a"],["0"]]', "--eta", '[["0"],["0"]]', check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "'t2a' is not a variable with a count (line 1, column 5)" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("xi, eta, residual", [
    # fails at eps^0: the scaling of u is no symmetry of L_0
    ('[["0"],["0"]]', '[["u0"],["0"]]',
     "du0#t^2 - u0^2; u0*(-u1 - (delta^2 + u0^2 + 2*delta*u0)) + du0#t*du1#t"),
    # passes eps^0 (time shift) and fails only at eps^1
    ('[["1"],["t"]]', '[["0"],["0"]]', "0; -du0#t^2 + 1/2*(du0#t^2 - u0^2)"),
])
def test_noether_override_non_symmetry_message(xi, eta, residual):
    # the message prints the whole residual series, whichever order fails
    proc = run("noether", "--model", "oscillator-quadratic", "--xi", xi, "--eta", eta,
               check=False)
    assert proc.returncode == 4
    assert proc.stderr == f"error: residual is not identically zero: EpsSeries[{residual}]\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("override", [
    ("--xi", '[["1"],["0"]]'), ("--eta", '[["0"],["0"]]'), ("--phi", '[["0","0"]]')])
@pytest.mark.parametrize("name", ["Nope", "Xi1"])
def test_generator_name_beside_an_override_exits_2(override, name):
    # the name was ignored without a word: exit 0 with the custom law
    proc = run("noether", "--model", "free-particle", "--generator", name, *override,
               check=False)
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr == "error: --generator cannot be combined with --xi, --eta or --phi\n"
    assert proc.stdout == ""


def test_solution_that_fails_reverification_exits_6(monkeypatch):
    # with no equations every coordinate vector is a solution; the second
    # is no symmetry, and solve's re-verification must say so, not assert
    from approxsym import determine
    extract = determine.extract
    monkeypatch.setattr(determine, "extract", lambda *args: dataclasses.replace(
        extract(*args), equations=[]))
    proc = run("determine", "--model", "free-particle", check=False)
    assert proc.returncode == 6
    assert proc.stderr == ("error: solution vector 2 of 72 fails re-verification: "
                           "its residual at eps^0 reads False, not zero\n")
    assert proc.stdout == ""


def test_override_concretizes_model_functions():
    # oscillator-quadratic binds F(w) = (w + delta)^2, so this gauge is zero
    data = json.loads(run("noether", "--model", "oscillator-quadratic",
                          "--xi", '[["0"],["0"]]', "--eta", '[["0"],["0"]]',
                          "--phi", '[["0","F(u0) - (u0+delta)^2"]]',
                          "--format", "json").stdout)
    assert data["laws"][0]["classification"] == "trivial"


def test_noether_classify():
    out = run("noether", "--model", "oscillator-arbitraryF",
              "--generator", "Xi1", "--generator", "Xi6", "--classify").stdout
    assert "dependencies:" in out
    assert "eps^1*Xi1" in out


def test_classify_without_laws():
    # three bodies on a line carry no golden records, so there is nothing to classify
    line3 = str(Path(__file__).parent / "models" / "line3.json")
    assert run("noether", line3, "--classify").stdout == "dependencies:\n"
    out = run("noether", line3, "--classify", "--format", "json").stdout
    assert json.loads(out) == {"dependencies": [], "laws": []}


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
    assert lines[0] == "t,u0,u1,du0,du1,Xi1.I0,Xi1.I1"
    assert len(lines) > 1000


def test_verify_csv_keeps_every_law(tmp_path):
    path = tmp_path / "traj.csv"
    run("verify", "--model", "free-particle", "--csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u0,u1,du0,du1,Xi1.I0,Xi1.I1,Xi2.I0,Xi2.I1"
    assert all(len(line.split(",")) == 9 for line in lines)
    assert len(lines) > 1000


def test_golden_subcommand():
    proc = run("golden", "--model", "free-particle")
    assert "Xi1: PASS" in proc.stdout


def test_outputs_are_deterministic():
    # set order differs between hash seeds; the output must not
    for args in (("determine", "--model", "free-particle", "--format", "json"),
                 ("expand", "--model", "coupled-system")):
        a, b = (run_process(*args, hash_seed=seed) for seed in (1, 2))
        assert a.returncode == b.returncode == 0, a.stderr + b.stderr
        assert a.stdout == b.stdout


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


def write_model(tmp_path, lagrangian: str, **fields) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "schema": 1, "name": "probe", "independent": ["t"], "dependent": ["u"],
        "order_p": 1, "lagrangian": lagrangian, **fields}))
    return str(path)


@pytest.mark.parametrize("field, value", [
    ("constants", ["a"]),
    ("functions", ["F"]),
    ("functions", {"F": 3}),
    ("ansatz", ["1"]),
    ("bindings", [1]),
    ("golden", {"a": 1}),
    ("golden", [{"name": "E"}]),
    ("golden", [{"name": "E", "xi": [[1], [0]], "eta": [["0"], ["0"]]}]),
    ("max_derivative", "2"),
    ("dependencies", 5),
    ("independent", [1]),
    ("dependent", [["u"]]),
    ("ansatz", {"eta0_v": ["1"]}),     # no dependent v: was dropped silently
    ("ansatz", {"xi2": ["1"]}),        # above order_p: was dropped silently
])
def test_malformed_model_field_exits_2(tmp_path, field, value):
    proc = run("expand", write_model(tmp_path, "1/2*du#t^2", **{field: value}),
               check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


_RECORD = {"name": "E", "xi": [["1"], ["0"]], "eta": [["0"], ["0"]]}


@pytest.mark.parametrize("field, value, named", [
    ("order_p", True, "order_p"),                   # a bool is not an int
    ("max_derivative", True, "max_derivative"),
    ("functions", {"F": {"arity": True}}, "functions.F.arity"),
    ("independent", [], "independent"),
    ("dependent", [], "dependent"),
    ("golden", [{**_RECORD, "phi": [1]}], "golden[0].phi"),
    ("golden", [{**_RECORD, "xi": [1, 2]}], "golden[0].xi"),
    ("golden", [{**_RECORD, "eta": ["0", "0"]}], "golden[0].eta"),
    ("golden", [{**_RECORD, "xi": [["1", "t"], ["0", "0"]]}], "golden[0] (E)"),  # width 2
    ("golden", [{**_RECORD, "xi": ["t", "0"]}], "golden[0].xi"),
    ("golden", [{**_RECORD, "xi": [[1], [0]]}], "golden[0].xi"),
])
def test_malformed_model_field_is_named(tmp_path, field, value, named):
    proc = run("expand", write_model(tmp_path, "1/2*du#t^2", **{field: value}),
               check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {named}:"), proc.stderr


def test_repeated_golden_name_exits_2(tmp_path):
    # it used to load, and "golden" printed "Xi3: FAIL" for the correct Xi2
    # record, fitted against the other Xi3's quantity, and exited 1
    from approxsym.models import _BUILTINS
    data = copy.deepcopy(_BUILTINS["oscillator-quadratic"])
    for rec in data["golden"]:
        if rec["name"] == "Xi2":
            rec["name"] = "Xi3"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    proc = run("golden", str(path), check=False)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: golden["), proc.stderr
    assert "name 'Xi3' repeats golden[" in proc.stderr
    assert "Traceback" not in proc.stderr


_FREE_LAW = {"grid": {"t0": 0.0, "t1": 1.0, "h": 1e-2},
             "initial": {"u0": 0.0, "du0#t": 1.0, "u1": 0.0, "du1#t": 0.0},
             "golden": [{"name": "Xi1", "xi": [["1"], ["0"]], "eta": [["0"], ["0"]],
                         "quantity": ["1/2*du0#t^2", "du0#t*du1#t"]}]}


@pytest.mark.parametrize("command, lagrangian, fields, named", [
    ("expand", "1/2*du#t^2 + u1", {}, "lagrangian"),       # u_(1) in L_0
    ("expand", "1/2*ddu#t#t^2", {}, "lagrangian"),         # not first order
    ("determine", "1/2*du#t^2", {"ansatz": {"xi0": ["1", "2"]}}, "ansatz"),  # dependent
    ("verify", "1/2*du#t^2 - 1/2*k*u^2",
     {**_FREE_LAW, "constants": {"k": None}, "bindings": {"k": float("inf")}}, "bindings.k"),
    ("verify", "1/2*du#t^2",
     {**_FREE_LAW, "initial": {**_FREE_LAW["initial"], "u0": float("nan")}}, "initial.u0"),
])
def test_model_constructor_error_is_named(tmp_path, command, lagrangian, fields, named):
    # each of these used to end in a ValueError or NameError traceback, exit 1
    path = write_model(tmp_path, lagrangian, **fields)
    proc = run(command, path, *(["--numeric"] if command == "verify" else []), check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {named}:"), proc.stderr


@pytest.mark.parametrize("sweep", ["nan", "1e-2,inf", "1e400"])
def test_non_finite_sweep_exits_2(sweep):
    proc = run("verify", "--model", "oscillator-quadratic", "--law", "Xi1",
               "--sweep", sweep, check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: --sweep:"), proc.stderr


def test_singular_sweep_base_names_the_sweep_and_exits_5():
    # body 3's kinetic term carries eps, so its acceleration divides by zero
    # in the eps=0 system the sweep compares with; --numeric alone succeeds
    proc = run("verify", "--model", "three-body", "--law", "Xi1",
               "--sweep", "1e-2,1e-3", check=False)
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("error: eps sweep, system at eps=0.0:"), proc.stderr


_BAD_ROWS = [[["u1"], ["0"]], [["du0#t"], ["0"]], [["u2"], ["0"]], [["1"]],
             [["1", "2"], ["0"]], [["eps"], ["0"]], [[1], [0]], [["("], ["0"]], "x"]
_NUMBERS = [{"k": float("nan")}, {"u0": float("inf")}, {"k": -float("inf")},
            {"k": 10 ** 400}, {"k": "1"}, {"k": True}, [1]]
# (path into the free-particle builtin, value), one field per mutation
_MUTATIONS = (
    [(("lagrangian",), text) for text in (
        "u1", "ddu#t#t", "1/2*ddu#t#t^2", "1/0", "(", "F(u,u)", "eps^-1", "1/eps",
        "du#t^2/(u - u)", "1/2*du#t^2 + u1", "du1#t^2", "", "sin(", "log(0)", "0^(-1/2)",
        "u^(1/2)", "1/2*du#t^2*", "@", "(10^400)^(1/2)", "du#x^2", "u^(1/0)")]
    + [(("golden", 0, key), rows) for key in ("xi", "eta", "phi") for rows in _BAD_ROWS]
    + [(("golden", 0, "phi"), rows) for rows in ([["du0#t", "0"]], [["0", "u2"]], [1])]
    + [(("golden", 0, "quantity"), texts) for texts in (
        ["u2", "0"], ["(", "0"], [1], "q", ["eps", "0"], [["0"]])]
    + [((key,), value) for key in ("bindings", "initial") for value in _NUMBERS]
    + [((key,), value) for key, values in {
        "constants": [["a"], 3, {"k": 3}, {"u": None}],
        "functions": [["F"], {"F": 3}, {"F": {"arity": "1"}}, {"F": {"concrete": "("}}],
        "ansatz": [["1"], {"xi0": "1"}, {"xi0": [1]}, {"xi0": ["u1"]}, {"xi9": ["1"]}],
        "grid": ["x", [1]], "golden": [{}, [1], [{}]],
        "max_derivative": ["2", -1, 0, True], "order_p": [-1, True, "1", 1.5],
        "dependencies": [5, [1]], "notes": [{}, [None]],
        "independent": [[], ["t", "t"], ["x", "t"], ["eps"]],
        "dependent": [["t"], ["u", "u"], ["eps"]],
    }.items() for value in values])


def test_mutated_model_exits_0_or_2(tmp_path, capsys):
    # every mutation, not a sample: one case is a few milliseconds
    from approxsym.models import _BUILTINS
    path = tmp_path / "model.json"
    for (*parents, key), value in _MUTATIONS:
        data = copy.deepcopy(_BUILTINS["free-particle"])
        node = data
        for step in parents:
            node = node[step]
        node[key] = value
        path.write_text(json.dumps(data))
        assert cli.main(["expand", str(path)]) in (0, 2), (key, value, capsys.readouterr().err)


@pytest.mark.parametrize("spec, named", [
    ({"concrete": "w^2", "formal": "2"}, "formal"),      # not an identifier
    ({"concrete": "u^2", "formal": "u"}, "formal"),      # a dependent variable
    ({"concrete": "t^2", "formal": "t"}, "formal"),      # the independent variable
    ({"concrete": "eps*w", "formal": "eps"}, "formal"),  # the small parameter
    ({"concrete": "k*w", "formal": "k"}, "formal"),      # a declared constant
    ({"concrete": "w^2 + t"}, "concrete"),               # t beside the default formal w
    ({"concrete": "w*z", "formal": "w"}, "concrete"),    # an undeclared symbol
    ({"concrete": "w*u0", "formal": "w"}, "concrete"),   # a jet coordinate
])
def test_function_formal_and_body_are_checked(tmp_path, spec, named):
    # the formal "2" used to load and expand to L0 = -w^2 + 1/2*du0#t^2
    path = write_model(tmp_path, "1/2*du#t^2 - F(u)", functions={"F": spec},
                       constants={"k": None})
    proc = run("expand", path, check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: functions.F.{named}:"), proc.stderr


def test_function_body_in_its_formal_and_constants_loads(tmp_path):
    path = write_model(tmp_path, "1/2*du#t^2 - F(u)", constants={"k": None},
                       functions={"F": {"concrete": "(v + k)^2", "formal": "v"}})
    data = json.loads(run("expand", path, "--format", "json").stdout)
    assert data["lagrangian"][0] == "-(k + u0)^2 + 1/2*du0#t^2"


def test_expand_and_golden_never_build_the_ansatz(monkeypatch, capsys):
    from approxsym import determine
    from approxsym.models import load_builtin

    def checked(basis, key):
        raise AssertionError(f"ansatz family {key} checked")
    monkeypatch.setattr(determine, "_check_independent", checked)
    assert cli.main(["expand", "--model", "coupled-system"]) == 0
    assert cli.main(["golden", "--model", "free-particle"]) == 0
    with pytest.raises(AssertionError, match="checked"):
        load_builtin("free-particle").ansatz


def test_python_dash_m_approxsym_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "approxsym", "models"],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert "three-body" in proc.stdout


@pytest.mark.parametrize("field, value", [
    ("order_p", -1), ("max_derivative", 0), ("dependent", ["t"])])
def test_malformed_jet_space_exits_2(tmp_path, field, value):
    proc = run("expand", write_model(tmp_path, "1/2*du#t^2", **{field: value}),
               check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: jet space: ")
    assert "Traceback" not in proc.stderr


def test_undecidable_kinetic_pivot_exits_3(tmp_path):
    path = write_model(tmp_path, "1/2*exp(t)*exp(-t)*du#t^2")
    proc = run("noether", path, "--xi", '[["1"],["0"]]', check=False)
    assert proc.returncode == 3
    assert "cannot decide whether pivot is zero" in proc.stderr


def test_constraint_equation_exits_2(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "schema": 1, "name": "constrained", "independent": ["t"],
        "dependent": ["u", "v"], "order_p": 1, "lagrangian": "1/2*du#t^2 + u*v",
        "golden": [{"name": "E", "xi": [["1"], ["0"]], "eta": [["0", "0"], ["0", "0"]],
                    "quantity": ["1/2*du0#t^2 - u0*v0", "du0#t*du1#t - u0*v1 - u1*v0"]}]}))
    for args in (["noether", str(path)], ["verify", str(path)],
                 ["verify", str(path), "--numeric"]):
        proc = run(*args, check=False)
        assert proc.returncode == 2, (args, proc.stderr)
        assert "constrains the state" in proc.stderr


def test_huge_exact_root_expands(tmp_path):
    path = write_model(tmp_path, "1/2*du#t^2 - (10^400)^(1/2)*u")
    data = json.loads(run("expand", path, "--format", "json").stdout)
    assert str(10 ** 200) in data["lagrangian"][0]


def test_deep_nesting_exits_2(tmp_path):
    path = write_model(tmp_path, "(" * 200 + "du#t^2" + ")" * 200)
    proc = run("expand", path, check=False)
    assert proc.returncode == 2
    assert "nested deeper" in proc.stderr


@pytest.mark.parametrize("lagrangian", [
    "1/2*du#t^2 - " + "9" * 5000 + "*u^2",
    "1/2*du#t^2 - u^" + "9" * 5000,
    "1/2*du#t^2 - u^(1/" + "9" * 5000 + ")",
])
def test_oversized_literal_exits_2(tmp_path, lagrangian):
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits
    proc = run("expand", write_model(tmp_path, lagrangian), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: number of 5000 digits is too long (line 1")
    assert "Traceback" not in proc.stderr


def test_rational_too_long_to_print_exits_2():
    # the law verifies; only printing 2^100000, 30,103 digits, fails
    proc = run("noether", "--model", "oscillator-quadratic",
               "--xi", '[["2^100000"],["0"]]', check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: a rational of more than 4300 digits")
    assert "Traceback" not in proc.stderr


def test_log_of_zero_exits_2_as_division_by_zero_does():
    for xi in ('[["log(0)"],["0"]]', '[["1/0"],["0"]]'):
        proc = run("noether", "--model", "oscillator-quadratic", "--xi", xi, check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "division by zero" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_long_sign_chain_model_exits_0(tmp_path):
    path = write_model(tmp_path, "1/2*du#t^2 - 1/2*" + "-" * 2000 + "u^2")
    data = json.loads(run("expand", path, "--format", "json").stdout)
    assert data["lagrangian"][0] == "-1/2*u0^2 + 1/2*du0#t^2"


@pytest.mark.parametrize("flags", [
    ("--xi", "notjson"),
    ("--xi", '[["1"]]'),
    ("--phi", '[["0"]]'),
])
def test_bad_generator_override_exits_2(flags):
    proc = run("noether", "--model", "free-particle", *flags, check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: generator override")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags, message", [
    # each of these ran as the zero generator: exit 0, verified, trivial
    (("--xi", "{}"), "xi: expected list"),
    (("--xi", "0"), "xi: expected list"),
    (("--xi", "null"), "xi: expected list"),
    (("--xi", "false"), "xi: expected list"),
    (("--xi", "[]"), "generator matrices need one row per eps order"),
    # a bare string row ran character by character
    (("--xi", '["1","0"]'), "xi: expected a list of lists of strings"),
    (("--xi", '"abc"'), "xi: expected list"),
    (("--eta", '["0","0"]'), "eta: expected a list of lists of strings"),
    (("--phi", '["0"]'), "phi: expected a list of lists of strings"),
    (("--phi", "0"), "phi: expected list"),
    (("--xi", ""), "Expecting value"),
])
def test_generator_override_that_is_not_rows_exits_2(flags, message):
    proc = run("noether", "--model", "free-particle", *flags, check=False)
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.startswith(f"error: generator override: {message}"), proc.stderr


@pytest.mark.parametrize("lagrangian, fields, message", [
    ("1/2*du#t^2 + z*u", {}, "lagrangian: undeclared symbol(s) z"),
    ("1/2*du#t^2 + u2", {}, "lagrangian: undeclared symbol(s) u2"),   # order_p is 1
    ("1/2*du#t^2", {"golden": [{**_RECORD, "quantity": ["1/2*du0#t^2 + q", "0"]}]},
     "golden[0] (E): undeclared symbol(s) q"),
    ("1/2*du#t^2", {"ansatz": {"xi0": ["1", "k"]}}, "ansatz.xi0: undeclared symbol(s) k"),
    # a function no "functions" entry declares
    ("1/2*du#t^2 + G(u)", {}, "lagrangian: undeclared function(s) G"),
    ("1/2*du#t^2", {"golden": [{**_RECORD, "quantity": ["G'(u0) + Int(H, t)", "0"]}]},
     "golden[0] (E): undeclared function(s) G, H"),
    ("1/2*du#t^2", {"ansatz": {"eta0": ["G(t)"]}}, "ansatz.eta0: undeclared function(s) G"),
    ("1/2*du#t^2 - F(u)", {"functions": {"F": {"concrete": "G(w)^2"}}},
     "functions.F.concrete: undeclared function(s) G"),
], ids=["lagrangian", "past-order_p", "golden", "ansatz", "function-lagrangian",
        "function-golden", "function-ansatz", "function-body"])
def test_undeclared_symbol_exits_2(tmp_path, lagrangian, fields, message):
    # a typo would otherwise load as a different model and exit 0
    proc = run("expand", write_model(tmp_path, lagrangian, **fields), check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: {message}\n"


def test_undeclared_symbol_in_an_override_exits_2():
    proc = run("noether", "--model", "free-particle", "--xi", '[["ab"], ["0"]]',
               check=False)
    assert proc.returncode == 2
    assert proc.stderr == "error: generator override: undeclared symbol(s) ab\n"


def test_undeclared_function_in_an_override_exits_2():
    proc = run("noether", "--model", "free-particle", "--xi", '[["G(t)"], ["0"]]',
               check=False)
    assert proc.returncode == 2
    assert proc.stderr == "error: generator override: undeclared function(s) G\n"


@pytest.mark.parametrize("laws, message", [
    (["Xi11"], "no transcribed quantity for law(s) Xi11"),
    (["Xi11", "Xi1"], "no transcribed quantity for law(s) Xi11"),
    (["Xi11", "Xi12"], "no transcribed quantity for law(s) Xi11, Xi12"),
    # --law repeats; it does not split on commas
    (["Xi11,Xi1"], "unknown generator name(s): Xi11,Xi1"),
])
@pytest.mark.parametrize("csv", [False, True])
def test_law_without_a_quantity_exits_2_before_any_check(
        tmp_path, monkeypatch, capsys, laws, message, csv):
    # Xi11 and Xi12 of three-body have no transcribed quantity
    def never(*args, **kwargs):
        raise AssertionError("checked a law that cannot be checked")
    for name in ("compile_numeric", "integrate", "divergence_check"):
        monkeypatch.setattr(cli, name, never)
    path = tmp_path / "out.csv"
    argv = ["verify", "--model", "three-body", "--format", "json"]
    argv += [a for law in laws for a in ("--law", law)]
    argv += ["--csv", str(path)] if csv else []
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not path.exists()


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_csv_exits_2_before_integrating(tmp_path, monkeypatch, capsys, where):
    def integrate(*args):
        raise AssertionError("integrated before the CSV path was checked")
    monkeypatch.setattr(cli, "integrate", integrate)
    path = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    assert cli.main(["verify", "--model", "free-particle", "--csv", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write CSV: [Errno "), err
    assert err.count("\n") == 1 and str(path) in err


def test_closed_standard_output_exits_1_without_a_traceback():
    # as with `| head -c 10`: the reader is gone before the command writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(CLI + ["models", "--format", "json"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=ENV)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_sweep_json_slope_without_a_fit_is_null():
    # free particle: both drifts are 0.0, so there is no log-log slope
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    args = ["verify", "--model", "free-particle", "--law", "Xi1", "--sweep", "1e-2,1e-3"]
    data = json.loads(run(*args, "--format", "json").stdout, parse_constant=reject)
    assert data["laws"][0]["sweep"]["slope"] is None
    assert "sweep slope: nan ([0.0, 0.0])" in run(*args).stdout


def test_bad_sweep_exits_2():
    proc = run("verify", "--model", "free-particle", "--sweep", "abc", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --sweep")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("grid", [
    {"t0": 0.0, "t1": 0.0, "h": 1e-3},      # no step: drift read ts[1]
    {"t0": 0.0, "t1": 10.0, "h": 0},        # division by zero
    {"t0": 0.0, "t1": 10.0},                # missing h
    {"t0": 0.0, "t1": 10.0, "h": -0.1},     # steps backwards past t0
    {"t0": 0.0, "t1": 10.0, "h": "x"},      # not a number
])
def test_malformed_grid_exits_2(tmp_path, grid):
    path = write_model(
        tmp_path, "1/2*du#t^2", grid=grid,
        initial={"u0": 0.0, "du0#t": 1.0, "u1": 0.0, "du1#t": 0.0},
        golden=[{"name": "Xi1", "xi": [["1"], ["0"]], "eta": [["0"], ["0"]],
                 "quantity": ["1/2*du0#t^2", "du0#t*du1#t"]}])
    proc = run("verify", path, "--numeric", check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: grid: ")
    assert "Traceback" not in proc.stderr


def test_constant_named_like_a_coefficient_solves(tmp_path):
    # the model with constant _c4 must solve exactly like its twin with k
    ansatz = {"xi0": ["1", "t"], "xi1": ["1", "t"], "eta0": ["1", "u0"],
              "eta1": ["1", "u0"], "phi0": ["1"], "phi1": ["1"]}
    outs = []
    for name in ("_c4", "k"):
        (tmp_path / name).mkdir()
        path = write_model(tmp_path / name, f"1/2*du#t^2 - 1/2*{name}*u^2 + eps*u^4",
                           constants={name: None}, ansatz=ansatz)
        outs.append(run("determine", path, "--format", "json").stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["dimension"] == 2


@pytest.mark.parametrize("lagrangian", [
    "1/2*du#t^2 - u^2/(t - t)",
    "1/2*du#t^2 - 0^(-1)*u^2",
    "1/2*du#t^2 - u^2*(0)^(-1/2)",
])
def test_symbolic_division_by_zero_exits_2(tmp_path, lagrangian):
    proc = run("expand", write_model(tmp_path, lagrangian), check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: division by zero")
    assert "Traceback" not in proc.stderr


def test_numeric_division_by_zero_exits_5(tmp_path):
    path = write_model(
        tmp_path, "1/2*du#t^2 - 1/u", grid={"t0": 0.0, "t1": 1.0, "h": 1e-2},
        initial={"u0": 0.0, "du0#t": 1.0, "u1": 0.0, "du1#t": 0.0},
        golden=[{"name": "E", "xi": [["1"], ["0"]], "eta": [["0"], ["0"]],
                 "quantity": ["1/2*du0#t^2 + u0^(-1)", "du0#t*du1#t - u0^(-2)*u1"]}])
    proc = run("verify", path, "--numeric", check=False)
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "at t=0.0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_numeric_fractional_power_of_a_negative_base_exits_5(tmp_path):
    path = write_model(
        tmp_path, "1/2*du#t^2 - u^(3/2)", grid={"t0": 0.0, "t1": 1.0, "h": 1e-2},
        initial={"u0": -1.0, "du0#t": 0.0, "u1": 0.0, "du1#t": 0.0},
        golden=[{"name": "E", "xi": [["1"], ["0"]], "eta": [["0"], ["0"]],
                 "quantity": ["1/2*du0#t^2 + u0^(3/2)",
                              "du0#t*du1#t + 3/2*u0^(1/2)*u1"]}])
    proc = run("verify", path, "--numeric", check=False)
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "at t=0.0" in proc.stderr
    assert "Traceback" not in proc.stderr
