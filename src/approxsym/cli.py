"""Command-line front end: expand | determine | noether | verify | models.

Model files are JSON (schema 1); builtins are the same format embedded and
selected with --model.  Exit codes: 0 success, 2 model errors, 3 symbolic
pivot ambiguity, 4 non-symmetry / formula mismatch, 5 non-finite state.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (ApproxSymError, FormulaMismatch, ModelError,
                     NonFiniteState, NotAVariationalSymmetry,
                     SymbolicPivotAmbiguity, SyntaxErrorAt, UnknownModel)
from .lang import to_latex, to_text
from .linalg import fe_expr
from .models import (Model, builtin_names, concretize, golden_check, load_builtin,
                     load_model_dict)
from .noether import (ConservationLaw, GaugeTerm, classify, divergence_check,
                      noether_fluxes)
from .numverify import compile_numeric, drift, eps_sweep, integrate
from .perturb import EpsSeries
from .symmetry import Generator


def _load_model(args) -> Model:
    if args.model:
        return load_builtin(args.model)
    if not args.file:
        raise ModelError("need a model file path or --model <builtin>")
    try:
        with open(args.file) as fh:
            data = json.load(fh)
    except OSError as err:
        raise ModelError(f"cannot read model file: {err}")
    except json.JSONDecodeError as err:
        raise ModelError(f"malformed JSON at line {err.lineno}, column {err.colno}")
    if data.get("schema", 1) != 1:
        raise ModelError(f"schema: unsupported version {data.get('schema')!r}")
    return load_model_dict(data)


def _emit(args, payload: dict, text_lines: list[str], latex_lines: list[str] | None = None):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "latex":
        for line in (latex_lines if latex_lines is not None else text_lines):
            print(line)
    else:
        for line in text_lines:
            print(line)


def cmd_models(args) -> int:
    names = builtin_names()
    _emit(args, {"models": names}, names)
    return 0


def cmd_expand(args) -> int:
    model = _load_model(args)
    L = model.lagrangian.L
    payload = {"name": model.name,
               "lagrangian": [to_text(c) for c in L.coeffs]}
    text = [f"L{k} = {to_text(c)}" for k, c in enumerate(L.coeffs)]
    latex = [f"\\mathcal{{L}}_{{{k}}} = {to_latex(c)}" for k, c in enumerate(L.coeffs)]
    _emit(args, payload, text, latex)
    return 0


def cmd_determine(args) -> int:
    from .determine import extract, report, solve
    model = _load_model(args)
    system = extract(model.lagrangian, model.ansatz, model.constant_names)
    if args.dump_system:
        lines = []
        dump = []
        for eq, (order, sig) in zip(system.equations, system.provenance):
            terms = " + ".join(f"({to_text(fe_expr(v))})*c{c}"
                               for c, v in sorted(eq.items()))
            lines.append(f"[eps^{order}] [{to_text(sig)}]  {terms} = 0")
            dump.append({"order": order, "monomial": to_text(sig),
                         "terms": {str(c): to_text(fe_expr(v)) for c, v in eq.items()}})
        _emit(args, {"equations": dump}, lines)
    solutions = solve(system)
    rep = report(solutions)
    text = [f"solution space dimension: {rep['dimension']}"
            f" (+{rep['pure_gauge_dimension']} pure gauge)"]
    for i, g in enumerate(rep["generators"]):
        text.append(f"generator {i + 1}: xi={g['xi']} eta={g['eta']} phi={g['phi']}")
    _emit(args, rep, text)
    return 0


def _selected_golden(model: Model, names: list[str] | None):
    recs = model.golden
    if names:
        byname = {r.name: r for r in recs}
        missing = [n for n in names if n not in byname]
        if missing:
            raise ModelError(f"unknown generator name(s): {', '.join(missing)}")
        recs = [byname[n] for n in names]
    return recs


def _generator_override(args, model: Model):
    xi = json.loads(args.xi) if args.xi else None
    eta = json.loads(args.eta) if args.eta else None
    p = model.space.order
    zero_rows = lambda width: [["0"] * width for _ in range(p + 1)]
    gen = Generator.from_json(
        model.space,
        {"xi": xi or zero_rows(model.space.n), "eta": eta or zero_rows(model.space.m)},
        model.language)
    if args.phi:
        rows = json.loads(args.phi)
        phi = GaugeTerm(model.space, tuple(
            EpsSeries(tuple(model.language.parse(s) for s in row)) for row in rows))
    else:
        phi = GaugeTerm.zero(model.space)
    return gen, phi


def cmd_noether(args) -> int:
    model = _load_model(args)
    laws = []
    if args.xi or args.eta or args.phi:
        gen, phi = _generator_override(args, model)
        laws.append(noether_fluxes(gen, model.lagrangian, phi, name="custom"))
    else:
        for rec in _selected_golden(model, args.generator):
            laws.append(noether_fluxes(rec.generator, model.lagrangian, rec.gauge,
                                       name=rec.name))
    payload = {"laws": [law.to_json() for law in laws]}
    text = []
    latex = []
    for law in laws:
        text.append(f"{law.name}: verified={law.verified}"
                    f" classification={law.classification}")
        for i, s in enumerate(law.fluxes):
            for k, c in enumerate(s.coeffs):
                text.append(f"  Phi[{i}]_({k}) = {to_text(c)}")
                latex.append(f"\\Phi^{{{i}}}_{{({k})}} = {to_latex(c)}")
    if args.classify:
        deps = classify(laws, model.constant_names)
        names = [law.name for law in laws]
        payload["dependencies"] = [d.describe(names) for d in deps]
        text.append("dependencies:")
        text.extend(f"  {d.describe(names)}" for d in deps)
    _emit(args, payload, text, latex)
    return 0


def cmd_verify(args) -> int:
    model = _load_model(args)
    recs = [r for r in _selected_golden(model, args.law) if r.quantity is not None]
    payload: dict = {"model": model.name, "laws": []}
    text = []
    grid = model.grid
    if recs and (args.numeric or args.csv):
        nm = compile_numeric(model.lagrangian, model.bindings)
        traj = integrate(nm, nm.initial_state(model.initial, model.language),
                         grid["t0"], grid["t1"], grid["h"])
    for rec in recs:
        law = ConservationLaw(model.space, (rec.quantity,), name=rec.name)
        results = divergence_check(law, model.lagrangian)
        entry = {"name": rec.name, "symbolic": results}
        text.append(f"{rec.name}: symbolic per-order {results}")
        if args.numeric or args.csv:
            rep = drift(traj, law, nm)
            entry["drift"] = rep.max_drift
            text.append(f"  drift per order: {rep.max_drift}")
            if args.csv:
                _write_csv(args.csv, traj, law, nm)
        if args.sweep:
            eps_values = [float(s) for s in args.sweep.split(",")]
            source = concretize(model.lagrangian_source, model.functions, model.language)
            sw = eps_sweep(source, model.space, law, eps_values, model.bindings,
                           _full_initial(model), grid["t0"], grid["t1"], grid["h"])
            entry["sweep"] = {"eps": sw.eps_values, "drift": sw.drifts,
                              "slope": sw.slope}
            text.append(f"  sweep slope: {sw.slope:.3f} ({sw.drifts})")
        payload["laws"].append(entry)
    _emit(args, payload, text)
    return 0


def _full_initial(model: Model) -> list[float]:
    """Full-equation initial data u = u_(0) + eps*u_(1) at t0 (eps-free part)."""
    tname = model.space.independent[0]
    bases = sorted(model.space.dependent)
    y0 = []
    for b in bases:
        y0.append(model.initial.get(f"{b}0", 0.0))
    for b in bases:
        y0.append(model.initial.get(f"d{b}0#{tname}", 0.0))
    return y0


def _write_csv(path: str, traj, law, nm) -> None:
    from .numverify import compile_functions
    fn = compile_functions(list(law.quantity.coeffs), nm.jet_sources(),
                           nm.bindings, nm.space)
    with open(path, "w") as fh:
        labels = ",".join(nm.labels)
        orders = ",".join(f"I{k}" for k in range(law.quantity.order + 1))
        fh.write(f"t,{labels},{orders}\n")
        for t, y in zip(traj.ts, traj.ys):
            vals = fn(t, y)
            fh.write(",".join(repr(v) for v in (t, *y, *vals)) + "\n")


def cmd_golden(args) -> int:
    model = _load_model(args)
    results = golden_check(model)
    payload = {"model": model.name,
               "results": [{"name": r.name, "passed": r.passed,
                            "residual_zero": r.residual_zero,
                            "quantity_conserved": r.quantity_conserved,
                            "flux_verified": r.flux_verified,
                            "match": r.match, "detail": r.detail}
                           for r in results]}
    text = [f"{r.name}: {'PASS' if r.passed else 'FAIL'}" for r in results]
    _emit(args, payload, text)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="approxsym",
        description="Approximate variational symmetries and conservation laws "
                    "of perturbed Lagrangians")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_file=True):
        if with_file:
            p.add_argument("file", nargs="?", help="model file (JSON, schema 1)")
            p.add_argument("--model", help="builtin model name instead of a file")
        p.add_argument("--format", choices=("text", "latex", "json"),
                       default="text")

    p = sub.add_parser("models", help="list builtin models")
    common(p, with_file=False)
    p.set_defaults(fn=cmd_models)

    p = sub.add_parser("expand", help="print the eps-expanded Lagrangian")
    common(p)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("determine", help="solve the determining equations")
    common(p)
    p.add_argument("--dump-system", action="store_true",
                   help="emit the raw determining equations with provenance")
    p.set_defaults(fn=cmd_determine)

    p = sub.add_parser("noether", help="assemble and verify conservation laws")
    common(p)
    p.add_argument("--generator", action="append",
                   help="golden generator name (repeatable; default: all)")
    p.add_argument("--classify", action="store_true",
                   help="append the linear dependency report")
    p.add_argument("--xi", help='override: JSON rows [k][i] of expressions')
    p.add_argument("--eta", help='override: JSON rows [k][alpha] of expressions')
    p.add_argument("--phi", help='override gauge: JSON rows [i][k] of expressions')
    p.set_defaults(fn=cmd_noether)

    p = sub.add_parser("verify", help="check conservation symbolically/numerically")
    common(p)
    p.add_argument("--law", action="append", help="law name (repeatable)")
    p.add_argument("--numeric", action="store_true",
                   help="integrate the hierarchy and report drift")
    p.add_argument("--sweep", help="comma-separated eps values for the scaling fit")
    p.add_argument("--csv", help="dump the trajectory and law values to CSV")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("golden", help="run the golden-record report of a model")
    common(p)
    p.set_defaults(fn=cmd_golden)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ModelError, UnknownModel, SyntaxErrorAt) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SymbolicPivotAmbiguity as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (NotAVariationalSymmetry, FormulaMismatch) as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except NonFiniteState as err:
        print(f"error: {err}", file=sys.stderr)
        return 5
    except ApproxSymError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
