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

from dataclasses import dataclass, field

from . import expr as ex
from .determine import AnsatzSpace, default_ansatz
from .errors import ModelError, UnknownModel
from .jet import JetSpace
from .lang import Language, to_text
from .linalg import fe_expr, span_fits
from .noether import (ConservationLaw, GaugeTerm, PerturbedLagrangian,
                      divergence_check, noether_fluxes, variational_residual)
from .perturb import EpsSeries, const_series
from .symmetry import Generator

__all__ = ["Model", "GoldenRecord", "load_builtin", "load_model_dict",
           "builtin_names", "golden_check", "concretize"]


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
    oscillatory: bool
    ansatz: AnsatzSpace
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


def load_model_dict(data: dict) -> Model:
    """Hydrate a model-file dictionary (schema 1)."""
    _require(data, "name", str)
    _require(data, "independent", list)
    _require(data, "dependent", list)
    _require(data, "order_p", int)
    _require(data, "lagrangian", str)
    space = JetSpace(tuple(data["independent"]), tuple(data["dependent"]),
                     data["order_p"], data.get("max_derivative", 2))
    constants = {}
    for name, spec in (data.get("constants") or {}).items():
        if spec is not None and not isinstance(spec, dict):
            raise ModelError(f"constants.{name}: expected object or null")
        constants[name] = (spec or {}).get("assume")
    functions = dict(data.get("functions") or {})
    lang = space.language(
        functions={n: f.get("arity", 1) for n, f in functions.items()},
        constants=set(constants))
    src = lang.parse(data["lagrangian"])
    lag = PerturbedLagrangian.from_expression(concretize(src, functions, lang), space)
    ansatz_data = data.get("ansatz")
    if ansatz_data:
        ansatz = _parse_ansatz(ansatz_data, space, lang)
    else:
        ansatz = default_ansatz(space, bool(data.get("oscillatory")))
    model = Model(
        name=data["name"], space=space, language=lang, lagrangian_source=src,
        lagrangian=lag, constants=constants, functions=functions,
        oscillatory=bool(data.get("oscillatory")), ansatz=ansatz,
        bindings=dict(data.get("bindings") or {}),
        initial=dict(data.get("initial") or {}),
        grid=dict(data.get("grid") or {}),
        dependencies=list(data.get("dependencies") or []),
        notes=list(data.get("notes") or []), raw=data)

    def parse_series(texts: list[str]) -> EpsSeries:
        return EpsSeries(tuple(concretize(lang.parse(s), functions, lang) for s in texts))

    for rec in data.get("golden") or []:
        gen = Generator.from_json(space, rec, lang)
        if rec.get("phi"):
            gauge = GaugeTerm(space, tuple(parse_series(row) for row in rec["phi"]))
        else:
            gauge = GaugeTerm.zero(space)
        quantity = parse_series(rec["quantity"]) if rec.get("quantity") else None
        model.golden.append(GoldenRecord(rec["name"], gen, gauge, quantity,
                                         rec.get("expect", "nontrivial")))
    return model


def concretize(e: ex.Expr, functions: dict[str, dict], lang: Language) -> ex.Expr:
    """Substitute the closed form of every function that declares one."""
    for name, f in functions.items():
        if f.get("concrete"):
            e = ex.subst_function(e, name, ex.sym(f.get("formal", "w")),
                                  lang.parse(f["concrete"]))
    return e


def _require(data: dict, key: str, type_):
    if key not in data:
        raise ModelError(f"missing field: {key}")
    if not isinstance(data[key], type_):
        raise ModelError(f"{key}: expected {type_.__name__}")


def _parse_ansatz(data: dict, space: JetSpace, lang: Language) -> AnsatzSpace:
    """Keys like "xi0", "eta1", "phi0" (all slots) or "eta0_v" (one slot)."""
    import re
    bases: dict[tuple, list[ex.Expr]] = {}
    for key, texts in data.items():
        m = re.fullmatch(r"(xi|eta|phi)(\d+)(?:_(.+))?", key)
        if not m:
            raise ModelError(f"ansatz.{key}: expected xi<k>, eta<k> or phi<k>")
        kind, knum, slot_name = m.group(1), m.group(2), m.group(3)
        k = int(knum)
        parsed = [lang.parse(s) for s in texts]
        slots = {"xi": space.independent, "phi": space.independent,
                 "eta": space.dependent}[kind]
        for idx, name in enumerate(slots):
            if slot_name is None or slot_name == name:
                bases[(kind, k, idx)] = list(parsed)
    # unspecified families default to empty
    for kind, count in (("xi", space.n), ("eta", space.m), ("phi", space.n)):
        for k in range(space.order + 1):
            for idx in range(count):
                bases.setdefault((kind, k, idx), [])
    return AnsatzSpace(space, bases)


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
    laws: dict[str, EpsSeries] = {}
    for rec in model.golden:
        if rec.quantity is not None:
            laws[rec.name] = rec.quantity
    for rec in model.golden:
        res = variational_residual(rec.generator, model.lagrangian, rec.gauge)
        residual_zero = res.is_zero_series() is True
        quantity_ok = None
        if rec.quantity is not None:
            qlaw = ConservationLaw(model.space, (rec.quantity,), name=rec.name)
            quantity_ok = all(divergence_check(qlaw, model.lagrangian))
        flux_verified = False
        match = None
        detail = ""
        if residual_zero:
            try:
                law = noether_fluxes(rec.generator, model.lagrangian, rec.gauge,
                                     name=rec.name)
                flux_verified = law.verified
                if rec.expect == "trivial":
                    match = {"trivial": law.is_trivial()}
                elif rec.quantity is not None:
                    match = _match_quantity(law.quantity, rec.name, laws,
                                            model.constant_names)
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
                    constants: set[str]) -> dict | None:
    """Fit q = sigma*I_name + sum c_j I_j + per-order constants, sigma != 0."""
    p = q.order
    names = [name] + [n for n in laws if n != name]
    basis: list[EpsSeries] = [laws[n] for n in names]
    for k in range(p + 1):
        coeffs = [ex.ZERO] * (p + 1)
        coeffs[k] = ex.ONE
        basis.append(EpsSeries(tuple(coeffs)))
        names.append(f"const_eps{k}")
    for coords in span_fits([list(b.coeffs) for b in basis] + [list(q.coeffs)],
                            constants):
        sigma = coords.get(0)
        if sigma is None or ex.is_zero(fe_expr(sigma)) is True:
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
