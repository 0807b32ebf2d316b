"""Command-line front end: expand | determine | noether | verify | models.

Model files are JSON (schema 1); builtins are the same format embedded and
selected with --model.  Exit codes: 0 success, 1 a failed golden record or
standard output closed early, 2 model or usage errors, 3 symbolic pivot
ambiguity, 4 non-symmetry / formula mismatch, 5 non-finite state, 6 a solved
symmetry that fails its re-verification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import (ApproxSymError, FormulaMismatch, ModelError,
                     NonFiniteState, NotAVariationalSymmetry,
                     SymbolicPivotAmbiguity, UnverifiedSolution)
from .lang import to_latex, to_text
from .linalg import fe_expr
from .models import (Model, builtin_names, concretize, golden_check, load_builtin,
                     load_model_dict, named, parse_generator)
from .noether import ConservationLaw, classify, divergence_check, noether_fluxes
from .numverify import compile_numeric, drift, eps_sweep, integrate


def _load_model(args) -> Model:
    if args.model:
        return load_builtin(args.model)
    if not args.file:
        raise ModelError("need a model file path or --model <builtin>")
    try:
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ModelError(f"cannot read model file: {err}")
    except UnicodeDecodeError as err:
        raise ModelError(f"model file is not UTF-8: {err}")
    except json.JSONDecodeError as err:
        raise ModelError(f"malformed JSON at line {err.lineno}, column {err.colno}")
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
    from .determine import extract, monomial, report, solve
    model = _load_model(args)
    system = extract(model.lagrangian, model.ansatz, model.constant_names)
    if args.dump_system:
        lines = []
        dump = []
        for eq, (order, sig) in zip(system.equations, system.provenance):
            mono = to_text(monomial(sig))
            terms = " + ".join(f"({to_text(fe_expr(v))})*c{c}"
                               for c, v in sorted(eq.items()))
            lines.append(f"[eps^{order}] [{mono}]  {terms} = 0")
            dump.append({"order": order, "monomial": mono,
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
    """The generator and gauge of --xi, --eta and --phi; an option that is
    absent is zero."""
    p = model.space.order

    def rows(text, width):
        return json.loads(text) if text is not None else [["0"] * width for _ in range(p + 1)]
    with named("generator override"):   # JSONDecodeError is a ValueError
        return parse_generator(model, {
            "xi": rows(args.xi, model.space.n), "eta": rows(args.eta, model.space.m),
            "phi": None if args.phi is None else json.loads(args.phi)},
            "generator override: ")


def cmd_noether(args) -> int:
    model = _load_model(args)
    laws = []
    if (args.xi, args.eta, args.phi) != (None, None, None):
        if args.generator:
            raise ModelError("--generator cannot be combined with --xi, --eta or --phi")
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
    recs = _selected_golden(model, args.law)
    # a law named on the command line must be checked; without --law the
    # records that have no transcribed quantity are skipped
    untranscribed = [r.name for r in recs if r.quantity is None]
    if args.law and untranscribed:
        raise ModelError(f"no transcribed quantity for law(s) {', '.join(untranscribed)}")
    recs = [r for r in recs if r.quantity is not None]
    if args.csv and recs:
        try:   # a path that cannot be written fails now, not after the integration
            open(args.csv, "a").close()
        except OSError as err:
            raise ModelError(f"cannot write CSV: {err}")
    payload: dict = {"model": model.name, "laws": []}
    text = []
    if args.sweep:
        with named("--sweep"):
            eps_values = [float(s) for s in args.sweep.split(",")]
            if not all(map(math.isfinite, eps_values)):
                raise ValueError(f"expected finite numbers, got {args.sweep!r}")
        source = concretize(model.lagrangian_source, model.bodies)
    if recs and (args.numeric or args.csv):
        nm = compile_numeric(model.lagrangian, model.bindings)
        traj = integrate(nm, nm.initial_state(model.initial, model.language),
                         *model.time_grid())
    laws = []
    for rec in recs:
        law = ConservationLaw(model.space, (rec.quantity,), name=rec.name)
        laws.append(law)
        results = divergence_check(law, model.lagrangian)
        entry = {"name": rec.name, "symbolic": results}
        text.append(f"{rec.name}: symbolic per-order {results}")
        if args.numeric or args.csv:
            rep = drift(traj, law, nm)
            entry["drift"] = rep.max_drift
            text.append(f"  drift per order: {rep.max_drift}")
        if args.sweep:
            sw = eps_sweep(source, model.space, law, eps_values, model.bindings,
                           _full_initial(model), *model.time_grid())
            entry["sweep"] = {"eps": sw.eps_values, "drift": sw.drifts,
                              "slope": None if math.isnan(sw.slope) else sw.slope}
            text.append(f"  sweep slope: {sw.slope:.3f} ({sw.drifts})")
        payload["laws"].append(entry)
    if args.csv and laws:
        _write_csv(args.csv, traj, laws, nm)
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


def _write_csv(path: str, traj, laws, nm) -> None:
    """One row per step: t, the state, then I0..Ip of every law."""
    from .numverify import compile_functions
    fn = compile_functions([c for law in laws for c in law.quantity.coeffs],
                           nm.jet_sources(), nm.bindings, nm.space)
    with open(path, "w") as fh:
        columns = nm.labels + [f"{law.name}.I{k}" for law in laws
                               for k in range(law.quantity.order + 1)]
        fh.write("t," + ",".join(columns) + "\n")
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
    p.add_argument("--sweep", help="comma-separated eps values for the scaling fit; "
                   "each is compared with the eps=0 system, which must be regular")
    p.add_argument("--csv", help="dump the trajectory and law values to CSV")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("golden", help="run the golden-record report of a model")
    common(p)
    p.set_defaults(fn=cmd_golden)
    return ap


# exit code of each error class that is not a model error (2); standard
# output closed before everything was written (`| head`) exits 1, as Python
# itself does on EPIPE
EXIT_CODES = {SymbolicPivotAmbiguity: 3, NotAVariationalSymmetry: 4,
              FormulaMismatch: 4, NonFiniteState: 5, UnverifiedSolution: 6}


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ApproxSymError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CODES.get(type(err), 2)
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit: point it at devnull
        # so that flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
