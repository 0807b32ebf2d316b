"""Built-in model definitions with golden generator/gauge/quantity records.

Each builtin is stored in the same JSON-compatible dictionary format the CLI
accepts for external model files; ``load_builtin`` hydrates it into a Model
with parsed golden data.  ``golden_check`` verifies every record: zero
invariance residual, divergence check of the transcribed quantity, theorem
flux assembly, and an exact match of the assembled flux against the
transcribed quantity modulo sign, the model's other golden quantities and
additive constants (conserved quantities are only defined up to those).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from . import expr as ex
from .determine import AnsatzSpace, default_ansatz
from .errors import ApproxSymError, ModelError, UnknownModel
from .jet import JetSpace
from .lang import Language, to_text
from .linalg import Keyed, Split, fe_expr, key_column, span_fits, split_column
from .noether import (ConservationLaw, GaugeTerm, PerturbedLagrangian,
                      divergence_check, noether_fluxes, variational_residual)
from .perturb import EpsSeries
from .symmetry import Generator

__all__ = ["Model", "GoldenRecord", "load_builtin", "load_model_dict",
           "builtin_names", "golden_check", "concretize", "parse_generator", "named"]


@contextmanager
def named(where: str):
    """Report a ValueError or TypeError raised inside, such as the shape and
    jet checks of the series, generator and gauge constructors, as a
    ModelError naming ``where``."""
    try:
        yield
    except (ValueError, TypeError) as err:
        raise ModelError(f"{where}: {err}") from err


@dataclass
class GoldenRecord:
    name: str
    generator: Generator
    gauge: GaugeTerm
    quantity: EpsSeries | None       # transcribed conserved quantity (n=1: scalar)
    expect: str = "nontrivial"       # or "trivial"


@dataclass
class Model:
    name: str
    space: JetSpace
    language: Language
    lagrangian_source: ex.Expr       # with eps and base variables
    lagrangian: PerturbedLagrangian  # concrete functions substituted
    constants: dict[str, str | None]
    functions: dict[str, dict]
    bodies: list[tuple[str, ex.Sym, ex.Expr]]   # (name, formal, parsed closed form)
    oscillatory: bool
    ansatz_bases: dict[tuple, list[ex.Expr]] | None   # None: the default ansatz
    golden: list[GoldenRecord] = field(default_factory=list)
    bindings: dict[str, float] = field(default_factory=dict)
    initial: dict[str, float] = field(default_factory=dict)
    grid: dict[str, float] = field(default_factory=dict)
    dependencies: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    @property
    def constant_names(self) -> set[str]:
        return set(self.constants)

    @cached_property
    def ansatz(self) -> AnsatzSpace:
        """The ansatz, built and independence-checked on first use: of the
        subcommands only ``determine`` reads it, and the check grows steeply
        with order_p."""
        if self.ansatz_bases is None:
            return default_ansatz(self.space, self.oscillatory)
        with named("ansatz"):
            return AnsatzSpace(self.space, dict(self.ansatz_bases))

    def time_grid(self) -> tuple[float, float, float]:
        """(t0, t1, h) of the numeric grid; ModelError unless it gives an RK4 step."""
        for key in ("t0", "t1", "h"):
            if key not in self.grid:
                raise ModelError(f"grid: missing {key}")
            v = self.grid[key]
            if not _finite(v):
                raise ModelError(f"grid: {key} must be a finite number, got {v!r}")
        t0, t1, h = self.grid["t0"], self.grid["t1"], self.grid["h"]
        if h == 0.0:
            raise ModelError("grid: h must be nonzero")
        steps = (t1 - t0) / h
        if not math.isfinite(steps) or round(steps) < 1:
            raise ModelError(f"grid: (t1 - t0)/h = {steps!r} gives no RK4 step")
        return t0, t1, h


def load_model_dict(data: dict) -> Model:
    """Hydrate a model-file dictionary (schema 1)."""
    if not isinstance(data, dict):
        raise ModelError("model file: expected a JSON object at the top level")
    if data.get("schema", 1) != 1:
        raise ModelError(f"schema: unsupported version {data.get('schema')!r}")
    _require(data, "name", str)
    for key in ("independent", "dependent"):
        if not _require(data, key, list):
            raise ModelError(f"{key}: expected a non-empty list")
    _require(data, "order_p", int)
    _require(data, "lagrangian", str)
    with named("jet space"):   # the range checks of the jet space
        space = JetSpace(tuple(_strings(data, "independent")),
                         tuple(_strings(data, "dependent")), data["order_p"],
                         _optional(data, "max_derivative", int, 2))
    constants = {}
    for name, spec in _optional(data, "constants", dict, {}).items():
        if spec is not None and not isinstance(spec, dict):
            raise ModelError(f"constants.{name}: expected object or null")
        constants[name] = (spec or {}).get("assume")
    functions = dict(_optional(data, "functions", dict, {}))
    for name in functions:
        spec = _require(functions, name, dict, "functions.")
        for key, type_ in (("arity", int), ("concrete", str), ("formal", str)):
            _optional(spec, key, type_, None, f"functions.{name}.")
    lang = space.language(
        functions={n: f.get("arity", 1) for n, f in functions.items()},
        constants=set(constants))
    src = lang.parse(data["lagrangian"])
    with named("lagrangian"):
        _declared(src, lang)
    for name, spec in functions.items():
        _check_formal(name, spec, lang)
    bodies = [(name, ex.sym(f.get("formal") or "w"), lang.parse(f["concrete"]))
              for name, f in functions.items() if f.get("concrete")]
    for name, formal, body in bodies:
        with named(f"functions.{name}.concrete"):
            _declared(body, lang, formal)
    with named("lagrangian"):
        lag = PerturbedLagrangian.from_expression(concretize(src, bodies), space)
    ansatz_data = _optional(data, "ansatz", dict, {})
    ansatz_bases = _ansatz_bases(ansatz_data, space, lang) if ansatz_data else None
    numbers = {key: dict(_optional(data, key, dict, {}))
               for key in ("bindings", "initial", "grid")}
    for key in ("bindings", "initial"):
        for name, value in numbers[key].items():
            if not _finite(value):
                raise ModelError(f"{key}.{name}: expected a finite number")
    model = Model(
        name=data["name"], space=space, language=lang, lagrangian_source=src,
        lagrangian=lag, constants=constants, functions=functions, bodies=bodies,
        oscillatory=bool(data.get("oscillatory")), ansatz_bases=ansatz_bases, **numbers,
        dependencies=_strings(data, "dependencies"), notes=_strings(data, "notes"),
        raw=data)
    names: dict[str, int] = {}   # golden name: index of its record
    for i, rec in enumerate(_optional(data, "golden", list, [])):
        where = f"golden[{i}]."
        if not isinstance(rec, dict):
            raise ModelError(f"golden[{i}]: expected object")
        name = _require(rec, "name", str, where)
        if names.setdefault(name, i) != i:   # golden_check fits laws by name
            raise ModelError(f"golden[{i}]: name {name!r} repeats golden[{names[name]}]")
        texts = _optional(rec, "quantity", list, [], where)
        with named(f"golden[{i}] ({name})"):
            gen, gauge = parse_generator(model, rec, where)
            quantity = (EpsSeries(tuple(_parse(model, s) for s in texts))
                        if texts else None)
        model.golden.append(GoldenRecord(
            name, gen, gauge, quantity,
            _optional(rec, "expect", str, "nontrivial", where)))
    return model


def parse_generator(model: Model, rec: dict, where: str = "") -> tuple[Generator, GaugeTerm]:
    """Generator and gauge of an {"xi", "eta", "phi"} record.

    xi and eta are matrices indexed [k][slot], phi (optional, zero when
    absent, null or empty) one series per independent variable; each must
    be a list of lists of expression strings, or a ModelError names
    ``where`` + the field.  Every entry is parsed in the model's language
    and concretized.  Bad shapes raise ValueError or TypeError.
    """
    def parse_rows(key) -> list[list[ex.Expr]]:
        rows = _require(rec, key, list, where) if key != "phi" else \
            _optional(rec, key, list, [], where)
        if not all(isinstance(row, list) and all(isinstance(s, str) for s in row)
                   for row in rows):
            raise ModelError(f"{where}{key}: expected a list of lists of strings")
        return [[_parse(model, s) for s in row] for row in rows]

    gen = Generator.from_components(model.space, parse_rows("xi"), parse_rows("eta"))
    phi = parse_rows("phi")
    gauge = GaugeTerm(model.space, tuple(EpsSeries(tuple(row)) for row in phi)) if phi \
        else GaugeTerm.zero(model.space)
    return gen, gauge


def _parse(model: Model, text: str) -> ex.Expr:
    if not isinstance(text, str):
        raise TypeError(f"expected an expression string, got {text!r}")
    return concretize(_declared(model.language.parse(text), model.language), model.bodies)


def _declared(e: ex.Expr, lang: Language, formal: ex.Sym | None = None) -> ex.Expr:
    """``e``, whose every name must be declared: each symbol an independent
    variable or a constant, each function one of ``lang.functions``.  Any
    other name is a typo that would load as a different model, so it raises
    ValueError.  The body of a function (``formal`` given) may use only its
    formal and the constants: no variable, jet coordinate or eps."""
    if formal is None:
        kinds, allowed = ex.Sym, (*lang.independent, *lang.constants)
        lead = "undeclared symbol(s)"
    else:
        kinds, allowed = (ex.Sym, ex.Jet, ex.Eps), (formal.name, *lang.constants)
        lead = f"may use only the formal {formal.name!r} and declared constants, not"
    stray = ex.atoms_of(e, kinds) - set(map(ex.sym, allowed))
    if stray:
        raise ValueError(f"{lead} {', '.join(sorted(map(to_text, stray)))}")
    unknown = {f.name for f in ex.atoms_of(e, (ex.AFun, ex.AInt))} - set(lang.functions)
    if unknown:
        raise ValueError(f"undeclared function(s) {', '.join(sorted(unknown))}")
    return e


def concretize(e: ex.Expr, bodies: list[tuple[str, ex.Sym, ex.Expr]]) -> ex.Expr:
    """Substitute the closed form of every function that has one; ``bodies``
    holds (name, formal argument, parsed body), as ``Model.bodies`` does."""
    for name, formal, body in bodies:
        e = ex.subst_function(e, name, formal, body)
    return e


def _check_formal(name: str, spec: dict, lang: Language):
    """A function's formal (``w`` when a body is given without one) must be
    an identifier that the model's language reads as a fresh symbol: not an
    independent or dependent variable, not eps and not a constant."""
    if spec.get("formal") is None and not spec.get("concrete"):
        return
    formal = spec.get("formal") or "w"
    try:
        fresh = formal.isidentifier() and lang.parse(formal) == ex.sym(formal)
    except ApproxSymError:
        fresh = False
    if not fresh or formal in lang.independent or formal in lang.constants:
        raise ModelError(f"functions.{name}.formal: expected a name that is no "
                         f"variable or constant, got {formal!r}")


def _require(data: dict, key: str, type_, where: str = ""):
    """data[key], which must exist and be a type_ (a bool is not an int);
    errors name where + key."""
    if key not in data:
        raise ModelError(f"missing field: {where}{key}")
    if not isinstance(data[key], type_) or (type_ is int and isinstance(data[key], bool)):
        raise ModelError(f"{where}{key}: expected {type_.__name__}")
    return data[key]


def _optional(data: dict, key: str, type_, default, where: str = ""):
    """data[key] checked as by _require, or default when absent or null."""
    if data.get(key) is None:
        return default
    return _require(data, key, type_, where)


def _finite(value) -> bool:
    """A JSON number that is finite as a float (a bool is not a number)."""
    try:
        return (not isinstance(value, bool) and isinstance(value, (int, float))
                and math.isfinite(value))
    except OverflowError:   # an integer too large for a float
        return False


def _strings(data: dict, key: str, where: str = "") -> list[str]:
    values = _optional(data, key, list, [], where)
    if not all(isinstance(v, str) for v in values):
        raise ModelError(f"{where}{key}: expected a list of strings")
    return list(values)


def _ansatz_bases(data: dict, space: JetSpace, lang: Language) -> dict[tuple, list[ex.Expr]]:
    """The parsed bases of keys like "xi0", "eta1", "phi0" (all slots) or
    "eta0_v" (one slot); ``Model.ansatz`` builds the AnsatzSpace from them."""
    import re
    bases: dict[tuple, list[ex.Expr]] = {}
    for key in data:
        m = re.fullmatch(r"(xi|eta|phi)(\d+)(?:_(.+))?", key)
        if not m:
            raise ModelError(f"ansatz.{key}: expected xi<k>, eta<k> or phi<k>")
        kind, knum, slot_name = m.group(1), m.group(2), m.group(3)
        k = int(knum)
        with named(f"ansatz.{key}"):
            parsed = [_declared(lang.parse(s), lang) for s in _strings(data, key, "ansatz.")]
        slots = {"xi": space.independent, "phi": space.independent,
                 "eta": space.dependent}[kind]
        if k > space.order or slot_name not in (None, *slots):
            raise ModelError(f"ansatz.{key}: no such family (eps orders 0..{space.order}, "
                             f"slots {', '.join(slots)})")
        for idx, name in enumerate(slots):
            if slot_name is None or slot_name == name:
                bases[(kind, k, idx)] = list(parsed)
    # unspecified families default to empty
    for kind, count in (("xi", space.n), ("eta", space.m), ("phi", space.n)):
        for k in range(space.order + 1):
            for idx in range(count):
                bases.setdefault((kind, k, idx), [])
    return bases


# ---------------------------------------------------------------------------
# golden verification


@dataclass
class GoldenResult:
    name: str
    residual_zero: bool
    quantity_conserved: bool | None
    flux_verified: bool
    match: dict | None
    passed: bool
    detail: str = ""


def golden_check(model: Model) -> list[GoldenResult]:
    """Verify every golden record of a model; failures are report entries."""
    out = []
    laws = {rec.name: rec.quantity for rec in model.golden if rec.quantity is not None}
    splits: dict[ex.Expr, Split] = {}
    ids: dict[tuple, int] = {}   # the key table of every span fit below
    keyed: dict[tuple, Keyed] = {}

    def key(series: EpsSeries) -> Keyed:
        # each distinct coefficient is split, each distinct series keyed, once
        if series.coeffs not in keyed:
            new = [e for e in dict.fromkeys(series.coeffs) if e not in splits]
            splits.update(zip(new, split_column(new, model.constant_names)))
            keyed[series.coeffs] = key_column([splits[e] for e in series.coeffs], ids)
        return keyed[series.coeffs]

    for rec in model.golden:
        quantity_ok = None
        if rec.quantity is not None:
            qlaw = ConservationLaw(model.space, (rec.quantity,), name=rec.name)
            quantity_ok = all(divergence_check(qlaw, model.lagrangian))
        residual_zero = False
        flux_verified = False
        match = None
        detail = ""
        try:
            res = variational_residual(rec.generator, model.lagrangian, rec.gauge)
            residual_zero = res.is_zero_series() is True
            if residual_zero:
                law = noether_fluxes(rec.generator, model.lagrangian, rec.gauge,
                                     name=rec.name, residual=res)
                flux_verified = law.verified
                if rec.expect == "trivial":
                    match = {"trivial": law.classification == "trivial"}
                elif rec.quantity is not None:
                    match = _match_quantity(law.quantity, rec.name, laws, key)
        except Exception as err:  # report, never crash the harness
            detail = f"{type(err).__name__}: {err}"
        if rec.expect == "trivial":
            ok_match = match is not None and match.get("trivial") is True
        else:
            ok_match = match is not None and "sigma" in match
        passed = bool(residual_zero and quantity_ok is not False
                      and flux_verified and ok_match)
        out.append(GoldenResult(rec.name, residual_zero, quantity_ok,
                                flux_verified, match, passed, detail))
    return out


def _match_quantity(q: EpsSeries, name: str, laws: dict[str, EpsSeries],
                    key: Callable[[EpsSeries], Keyed]) -> dict | None:
    """Fit q = sigma*I_name + sum c_j I_j + per-order constants, sigma != 0.

    ``key`` gives a series' coefficients split over Q(constants) and keyed
    by one key table (``linalg.key_column``).  ``golden_check`` hands every
    record the same one, so the basis of golden quantities and constant
    columns is split and keyed once, not once per record, and each fit's
    rows are named by ids of that table; each record still assembles and
    reduces its own rows, since the printed entries depend on the
    elimination order.
    """
    p = q.order
    names = [name] + [n for n in laws if n != name]
    basis: list[EpsSeries] = [laws[n] for n in names]
    for k in range(p + 1):
        coeffs = [ex.ZERO] * (p + 1)
        coeffs[k] = ex.ONE
        basis.append(EpsSeries(tuple(coeffs)))
        names.append(f"const_eps{k}")
    for coords in span_fits([key(b) for b in basis + [q]]):
        sigma = coords.get(0)
        if sigma is None:
            continue
        return {"sigma": to_text(fe_expr(sigma)),
                "combination": {names[j]: to_text(fe_expr(c))
                                for j, c in coords.items() if j != 0}}
    return None


# ---------------------------------------------------------------------------
# builtin definitions


def _osc_base(name: str, concrete: str | None, constants: dict, golden_extra):
    data = {
        "schema": 1,
        "name": name,
        "independent": ["t"],
        "dependent": ["u"],
        "order_p": 1,
        "lagrangian": "1/2*(du#t^2 - u^2) - eps*Int(F,u)",
        "constants": constants,
        "functions": {"F": {"arity": 1, "concrete": concrete, "formal": "w"}},
        "oscillatory": True,
        "bindings": {},
        "initial": {"u0": 1.0, "du0#t": 0.0, "u1": 0.0, "du1#t": 0.0},
        "grid": {"t0": 0.0, "t1": 20.0, "h": 1e-3},
        "dependencies": ["I6 = eps*I1"],
        "golden": _OSC_GOLDEN + golden_extra,
    }
    return data


_OSC_GOLDEN = [
    {"name": "Xi1", "xi": [["1"], ["0"]], "eta": [["0"], ["0"]],
     "quantity": ["1/2*(du0#t^2 + u0^2)",
                  "du0#t*du1#t + u0*u1 + Int(F,u0)"]},
    {"name": "Xi2", "xi": [["0"], ["0"]], "eta": [["0"], ["sin(t)"]],
     "phi": [["0", "cos(t)*u0"]],
     "quantity": ["0", "sin(t)*du0#t - cos(t)*u0"]},
    {"name": "Xi3", "xi": [["0"], ["0"]], "eta": [["0"], ["cos(t)"]],
     "phi": [["0", "-sin(t)*u0"]],
     "quantity": ["0", "cos(t)*du0#t + sin(t)*u0"]},
    {"name": "Xi4", "xi": [["0"], ["sin(2*t)"]], "eta": [["0"], ["cos(2*t)*u0"]],
     "phi": [["0", "-sin(2*t)*u0^2"]],
     "quantity": ["0", "(sin(t)*du0#t - cos(t)*u0)*(cos(t)*du0#t + sin(t)*u0)"]},
    {"name": "Xi5", "xi": [["0"], ["cos(2*t)"]], "eta": [["0"], ["-sin(2*t)*u0"]],
     "phi": [["0", "-cos(2*t)*u0^2"]],
     "quantity": ["0", "(sin(t)*du0#t - cos(t)*u0)^2"]},
    {"name": "Xi6", "xi": [["0"], ["1"]], "eta": [["0"], ["0"]],
     "quantity": ["0", "1/2*(du0#t^2 + u0^2)"]},
]

_OSC_QUADRATIC_EXTRA = [
    {"name": "Xi7a",
     "xi": [["0"], ["4*sin(t)"]],
     "eta": [["-3*cos(t)"], ["3*delta*t*sin(t) + 2*cos(t)*u0"]],
     "phi": [["3*sin(t)*u0",
              "-sin(t)*u0^2 + 3*delta*(t*cos(t) + sin(t))*u0 + 3*sin(t)*u1 + 3*delta^2*sin(t)"]],
     "quantity": ["cos(t)*du0#t + sin(t)*u0",
                  "2/3*sin(t)*du0#t^2 - (2/3*cos(t)*u0 + delta*t*sin(t))*du0#t"
                  " + 1/3*sin(t)*u0^2 + delta*(t*cos(t) + sin(t))*u0"
                  " + cos(t)*du1#t + sin(t)*u1 + delta^2*sin(t)"]},
    {"name": "Xi8a",
     "xi": [["0"], ["4*cos(t)"]],
     "eta": [["3*sin(t)"], ["3*delta*t*cos(t) - 2*sin(t)*u0"]],
     "phi": [["3*cos(t)*u0",
              "-cos(t)*u0^2 - 3*delta*(t*sin(t) - cos(t))*u0 + 3*cos(t)*u1 + 3*delta^2*cos(t)"]],
     "quantity": ["sin(t)*du0#t - cos(t)*u0",
                  "-2/3*cos(t)*du0#t^2 - (2/3*sin(t)*u0 - delta*t*cos(t))*du0#t"
                  " - 1/3*cos(t)*u0^2 + delta*(t*sin(t) - cos(t))*u0"
                  " + sin(t)*du1#t - cos(t)*u1 - delta^2*cos(t)"]},
]

_OSC_CUBIC_EXTRA = [
    {"name": "Xi7b",
     "xi": [["cos(2*t)"], ["0"]],
     "eta": [["-sin(2*t)*u0"], ["-sin(2*t)*u1"]],
     "phi": [["-cos(2*t)*u0^2", "-2*cos(2*t)*u0*u1"]],
     "quantity": ["cos(2*t)*(du0#t^2 - u0^2)/2 + sin(2*t)*du0#t*u0",
                  "(cos(2*t)*du1#t + sin(2*t)*u1)*du0#t"
                  " + (sin(2*t)*du1#t - cos(2*t)*u1)*u0 - kappa*cos(2*t)/(2*u0^2)"]},
    {"name": "Xi8b",
     "xi": [["sin(2*t)"], ["0"]],
     "eta": [["cos(2*t)*u0"], ["cos(2*t)*u1"]],
     "phi": [["-sin(2*t)*u0^2", "-2*sin(2*t)*u0*u1"]],
     "quantity": ["sin(2*t)*(du0#t^2 - u0^2)/2 - cos(2*t)*du0#t*u0",
                  "(sin(2*t)*du1#t - cos(2*t)*u1)*du0#t"
                  " - (cos(2*t)*du1#t + sin(2*t)*u1)*u0 - kappa*sin(2*t)/(2*u0^2)"]},
]


_COUPLED = {
    "schema": 1,
    "name": "coupled-system",
    "independent": ["t"],
    "dependent": ["u", "v"],
    "order_p": 1,
    "lagrangian": "v*du#t^2 + u*du#t*dv#t - alpha*v/u^2 + eps*F(v)/u^2",
    "constants": {"alpha": {"assume": "nonzero"}},
    "functions": {"F": {"arity": 1, "concrete": None, "formal": "w"}},
    "oscillatory": False,
    "bindings": {},
    "initial": {},
    "grid": {"t0": 0.0, "t1": 10.0, "h": 1e-3},
    "dependencies": ["I4 = eps*I1", "I5 = eps*I2", "I6 = eps*I3"],
    "golden": [
        {"name": "Xi1", "xi": [["1"], ["0"]], "eta": [["0", "0"], ["0", "0"]],
         "quantity": [
             "du0#t^2*v0 + du0#t*dv0#t*u0 + alpha*v0/u0^2",
             "du0#t^2*v1 + du0#t*dv0#t*u1 + 2*du0#t*du1#t*v0 + du0#t*dv1#t*u0"
             " + dv0#t*du1#t*u0 + alpha*(u0*v1 - 2*v0*u1)/u0^3 - F(v0)/u0^2"]},
        {"name": "Xi2", "xi": [["t^2"], ["0"]],
         "eta": [["t*u0", "0"], ["t*u1", "0"]],
         "phi": [["u0^2*v0", "u0*(u0*v1 + 2*v0*u1)"]],
         "quantity": [
             "t^2*(du0#t^2*v0 + du0#t*dv0#t*u0 + alpha*v0/u0^2)"
             " - t*(2*du0#t*u0*v0 + dv0#t*u0^2) + u0^2*v0",
             "t^2*(du0#t^2*v1 + du0#t*dv0#t*u1 + 2*du0#t*du1#t*v0 + du0#t*dv1#t*u0"
             " + dv0#t*du1#t*u0 + alpha*(u0*v1 - 2*v0*u1)/u0^3 - F(v0)/u0^2)"
             " - t*(2*du0#t*(u0*v1 + u1*v0) + 2*dv0#t*u0*u1 + 2*du1#t*u0*v0 + dv1#t*u0^2)"
             " + u0^2*v1 + 2*u0*v0*u1"]},
        {"name": "Xi3", "xi": [["2*t"], ["0"]],
         "eta": [["u0", "0"], ["u1", "0"]],
         "quantity": [
             "2*t*(du0#t^2*v0 + du0#t*dv0#t*u0 + alpha*v0/u0^2)"
             " - 2*du0#t*u0*v0 - dv0#t*u0^2",
             "2*t*(du0#t^2*v1 + du0#t*dv0#t*u1 + 2*du0#t*du1#t*v0 + du0#t*dv1#t*u0"
             " + dv0#t*du1#t*u0 + alpha*(u0*v1 - 2*v0*u1)/u0^3 - F(v0)/u0^2)"
             " - (2*du0#t*(u0*v1 + u1*v0) + 2*dv0#t*u0*u1 + 2*du1#t*u0*v0 + dv1#t*u0^2)"]},
        {"name": "Xi4", "xi": [["0"], ["1"]], "eta": [["0", "0"], ["0", "0"]],
         "quantity": ["0", "du0#t^2*v0 + du0#t*dv0#t*u0 + alpha*v0/u0^2"]},
        {"name": "Xi5", "xi": [["0"], ["t^2"]],
         "eta": [["0", "0"], ["t*u0", "0"]],
         "phi": [["0", "u0^2*v0"]],
         "quantity": ["0",
                      "t^2*(du0#t^2*v0 + du0#t*dv0#t*u0 + alpha*v0/u0^2)"
                      " - t*(2*du0#t*u0*v0 + dv0#t*u0^2) + u0^2*v0"]},
        {"name": "Xi6", "xi": [["0"], ["2*t"]],
         "eta": [["0", "0"], ["u0", "0"]],
         "quantity": ["0",
                      "2*t*(du0#t^2*v0 + du0#t*dv0#t*u0 + alpha*v0/u0^2)"
                      " - 2*du0#t*u0*v0 - dv0#t*u0^2"]},
    ],
}


def _r2(a: str, b: str) -> str:
    """Squared planar distance between bodies a and b at eps order 0."""
    return f"((x{a}0-x{b}0)^2+(y{a}0-y{b}0)^2)"


_TB_I1 = [
    "1/2*(m1*(dx10#t^2+dy10#t^2) + m2*(dx20#t^2+dy20#t^2))"
    f" - G*m1*m2*{_r2(1, 2)}^(-1/2)",
    "1/2*m3*(dx30#t^2+dy30#t^2) + m1*(dx10#t*dx11#t+dy10#t*dy11#t)"
    " + m2*(dx20#t*dx21#t+dy20#t*dy21#t)"
    f" - G*m1*m3*{_r2(1, 3)}^(-1/2) - G*m2*m3*{_r2(2, 3)}^(-1/2)"
    f" + G*m1*m2*{_r2(1, 2)}^(-3/2)*((x10-x20)*(x11-x21)+(y10-y20)*(y11-y21))",
]
_TB_I2X = ["m1*dx10#t + m2*dx20#t", "m1*dx11#t + m2*dx21#t + m3*dx30#t"]
_TB_I2Y = ["m1*dy10#t + m2*dy20#t", "m1*dy11#t + m2*dy21#t + m3*dy30#t"]
_TB_I3X = ["m1*(t*dx10#t - x10) + m2*(t*dx20#t - x20)",
           "m1*(t*dx11#t - x11) + m2*(t*dx21#t - x21) + m3*(t*dx30#t - x30)"]
_TB_I3Y = ["m1*(t*dy10#t - y10) + m2*(t*dy20#t - y20)",
           "m1*(t*dy11#t - y11) + m2*(t*dy21#t - y21) + m3*(t*dy30#t - y30)"]
_TB_I4 = [
    "m1*(x10*dy10#t - y10*dx10#t) + m2*(x20*dy20#t - y20*dx20#t)",
    "m1*(x10*dy11#t - y10*dx11#t + x11*dy10#t - y11*dx10#t)"
    " + m2*(x20*dy21#t - y20*dx21#t + x21*dy20#t - y21*dx20#t)"
    " + m3*(x30*dy30#t - y30*dx30#t)",
]
_TB_I5 = [
    "(m1*x10+m2*x20)*(m1*dy10#t+m2*dy20#t) - (m1*y10+m2*y20)*(m1*dx10#t+m2*dx20#t)",
    "(m1*x10+m2*x20)*(m1*dy11#t+m2*dy21#t+m3*dy30#t)"
    " - (m1*y10+m2*y20)*(m1*dx11#t+m2*dx21#t+m3*dx30#t)"
    " + (m1*x11+m2*x21+m3*x30)*(m1*dy10#t+m2*dy20#t)"
    " - (m1*y11+m2*y21+m3*y30)*(m1*dx10#t+m2*dx20#t)",
]
_TB_I6 = [
    "0",
    "(x10-x20)*(dy10#t-dy20#t) - (y10-y20)*(dx10#t-dx20#t)",
]


def _tb_eta(**cols):
    """eta rows [k][alpha] for dependents (x1,y1,x2,y2,x3,y3)."""
    order = ("x1", "y1", "x2", "y2", "x3", "y3")
    row0 = [cols.get(n, ("0", "0"))[0] for n in order]
    row1 = [cols.get(n, ("0", "0"))[1] for n in order]
    return [row0, row1]


_THREE_BODY = {
    "schema": 1,
    "name": "three-body",
    "independent": ["t"],
    "dependent": ["x1", "y1", "x2", "y2", "x3", "y3"],
    "order_p": 1,
    "lagrangian": (
        "1/2*(m1*(dx1#t^2+dy1#t^2) + m2*(dx2#t^2+dy2#t^2))"
        " + G*m1*m2*((x1-x2)^2+(y1-y2)^2)^(-1/2)"
        " + eps*(1/2*m3*(dx3#t^2+dy3#t^2)"
        " + G*m1*m3*((x1-x3)^2+(y1-y3)^2)^(-1/2)"
        " + G*m2*m3*((x2-x3)^2+(y2-y3)^2)^(-1/2))"),
    "constants": {"G": {"assume": "positive"}, "m1": {"assume": "positive"},
                  "m2": {"assume": "positive"}, "m3": {"assume": "positive"}},
    "functions": {},
    "oscillatory": False,
    "bindings": {"G": 1.0, "m1": 1.0, "m2": 1.0, "m3": 1.0},
    "initial": {"x10": -0.5, "y10": 0.0, "x20": 0.5, "y20": 0.0,
                "dx10#t": 0.0, "dy10#t": -0.70710678118654752,
                "dx20#t": 0.0, "dy20#t": 0.70710678118654752,
                "x30": 0.0, "y30": 3.0, "dx30#t": 0.81649658092772603,
                "dy30#t": 0.0},
    "grid": {"t0": 0.0, "t1": 10.0, "h": 2e-3},
    "dependencies": ["m1*m2*I6 = eps*((m1+m2)*I4 - I5)",
                     "I7 = eps*I1", "I8a = eps*I2x", "I8b = eps*I2y",
                     "I9a = eps*I3x", "I9b = eps*I3y", "I10 = eps*I5"],
    "notes": ["I5 equals the wedge of the time antiderivative of I2 with I2;"
              " recorded as documentation only (no symbolic integration)."],
    "ansatz": {
        "xi0": ["1", "t"], "xi1": ["1", "t"],
        "eta0": ["1", "t", "x10", "y10", "x20", "y20", "x30", "y30"],
        "eta1": ["1", "t", "x10", "y10", "x20", "y20", "x30", "y30"],
        "phi0": ["1", "t", "x10", "y10", "x20", "y20", "x30", "y30"],
        "phi1": ["1", "t", "x10", "y10", "x20", "y20", "x30", "y30",
                 "x11", "y11", "x21", "y21", "x31", "y31"],
    },
    "golden": [
        {"name": "Xi1", "xi": [["1"], ["0"]], "eta": _tb_eta(),
         "quantity": _TB_I1},
        {"name": "Xi2a", "xi": [["0"], ["0"]],
         "eta": _tb_eta(x1=("1", "0"), x2=("1", "0"), x3=("1", "0")),
         "quantity": _TB_I2X},
        {"name": "Xi2b", "xi": [["0"], ["0"]],
         "eta": _tb_eta(y1=("1", "0"), y2=("1", "0"), y3=("1", "0")),
         "quantity": _TB_I2Y},
        {"name": "Xi3a", "xi": [["0"], ["0"]],
         "eta": _tb_eta(x1=("t", "0"), x2=("t", "0"), x3=("t", "0")),
         "phi": [["m1*x10 + m2*x20", "m1*x11 + m2*x21 + m3*x30"]],
         "quantity": _TB_I3X},
        {"name": "Xi3b", "xi": [["0"], ["0"]],
         "eta": _tb_eta(y1=("t", "0"), y2=("t", "0"), y3=("t", "0")),
         "phi": [["m1*y10 + m2*y20", "m1*y11 + m2*y21 + m3*y30"]],
         "quantity": _TB_I3Y},
        {"name": "Xi4", "xi": [["0"], ["0"]],
         "eta": _tb_eta(x1=("y10", "y11"), y1=("-x10", "-x11"),
                        x2=("y20", "y21"), y2=("-x20", "-x21"),
                        x3=("y30", "y31"), y3=("-x30", "-x31")),
         "quantity": _TB_I4},
        {"name": "Xi5", "xi": [["0"], ["0"]],
         "eta": _tb_eta(
             x1=("m1*y10+m2*y20", "m1*y11+m2*y21+m3*y30"),
             x2=("m1*y10+m2*y20", "m1*y11+m2*y21+m3*y30"),
             x3=("m1*y10+m2*y20", "m1*y11+m2*y21"),
             y1=("-(m1*x10+m2*x20)", "-(m1*x11+m2*x21+m3*x30)"),
             y2=("-(m1*x10+m2*x20)", "-(m1*x11+m2*x21+m3*x30)"),
             y3=("-(m1*x10+m2*x20)", "-(m1*x11+m2*x21)")),
         "quantity": _TB_I5},
        {"name": "Xi6", "xi": [["0"], ["0"]],
         "eta": _tb_eta(x1=("0", "m2*(y20-y10)"), x2=("0", "-m1*(y20-y10)"),
                        y1=("0", "m2*(x10-x20)"), y2=("0", "-m1*(x10-x20)")),
         "quantity": _TB_I6},
        {"name": "Xi7", "xi": [["0"], ["1"]], "eta": _tb_eta(),
         "quantity": ["0", _TB_I1[0]]},
        {"name": "Xi8a", "xi": [["0"], ["0"]],
         "eta": _tb_eta(x1=("0", "1"), x2=("0", "1"), x3=("0", "1")),
         "quantity": ["0", _TB_I2X[0]]},
        {"name": "Xi8b", "xi": [["0"], ["0"]],
         "eta": _tb_eta(y1=("0", "1"), y2=("0", "1"), y3=("0", "1")),
         "quantity": ["0", _TB_I2Y[0]]},
        {"name": "Xi9a", "xi": [["0"], ["0"]],
         "eta": _tb_eta(x1=("0", "t"), x2=("0", "t")),
         "phi": [["0", "m1*x10 + m2*x20"]],
         "quantity": ["0", _TB_I3X[0]]},
        {"name": "Xi9b", "xi": [["0"], ["0"]],
         "eta": _tb_eta(y1=("0", "t"), y2=("0", "t")),
         "phi": [["0", "m1*y10 + m2*y20"]],
         "quantity": ["0", _TB_I3Y[0]]},
        {"name": "Xi10", "xi": [["0"], ["0"]],
         "eta": _tb_eta(x1=("0", "y10"), y1=("0", "-x10"),
                        x2=("0", "y20"), y2=("0", "-x20")),
         "quantity": ["0", _TB_I5[0]]},
        {"name": "Xi11", "xi": [["0"], ["0"]],
         "eta": _tb_eta(x3=("0", "1")), "expect": "trivial"},
        {"name": "Xi12", "xi": [["0"], ["0"]],
         "eta": _tb_eta(y3=("0", "1")), "expect": "trivial"},
    ],
}


_FREE_PARTICLE = {
    "schema": 1,
    "name": "free-particle",
    "independent": ["t"],
    "dependent": ["u"],
    "order_p": 1,
    "lagrangian": "1/2*du#t^2",
    "constants": {},
    "functions": {},
    "oscillatory": False,
    "bindings": {},
    "initial": {"u0": 0.0, "du0#t": 1.0, "u1": 0.0, "du1#t": 0.0},
    "grid": {"t0": 0.0, "t1": 10.0, "h": 1e-3},
    "golden": [
        {"name": "Xi1", "xi": [["1"], ["0"]], "eta": [["0"], ["0"]],
         "quantity": ["1/2*du0#t^2", "du0#t*du1#t"]},
        {"name": "Xi2", "xi": [["0"], ["0"]], "eta": [["1"], ["0"]],
         "quantity": ["du0#t", "du1#t"]},
    ],
}


_BUILTINS: dict[str, dict] = {
    "oscillator-arbitraryF": _osc_base("oscillator-arbitraryF", None, {}, []),
    "oscillator-quadratic": _osc_base(
        "oscillator-quadratic", "(w+delta)^2",
        {"delta": {"assume": None}}, _OSC_QUADRATIC_EXTRA),
    "oscillator-cubic-inverse": _osc_base(
        "oscillator-cubic-inverse", "kappa/w^3",
        {"kappa": {"assume": "nonzero"}}, _OSC_CUBIC_EXTRA),
    "coupled-system": _COUPLED,
    "three-body": _THREE_BODY,
    "free-particle": _FREE_PARTICLE,
}

_BUILTINS["oscillator-quadratic"]["bindings"] = {"delta": 0.0}
_BUILTINS["oscillator-cubic-inverse"]["bindings"] = {"kappa": 1.0}
_BUILTINS["oscillator-cubic-inverse"]["initial"] = {
    "u0": 1.0, "du0#t": 0.0, "u1": 0.0, "du1#t": 0.0}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def load_builtin(name: str) -> Model:
    if name not in _BUILTINS:
        raise UnknownModel(
            f"unknown model {name!r}; builtins: {', '.join(builtin_names())}")
    import copy
    return load_model_dict(copy.deepcopy(_BUILTINS[name]))
