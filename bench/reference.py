"""Expected answers, each with a one-line source, and the checker.

None of these values is computed by the code under test: they are the
paper's golden lists as transcribed in the builtin models, a classical
count, a model's hand-written ``dependencies`` field, or bounds taken from
the test suite.  ``check`` turns one case output into per-operation
verdicts; a missing or wrong answer is a failed operation, never hidden.
"""

from __future__ import annotations

# discover: (dimension, pure-gauge dimension, golden records that must be members)
DISCOVER = {
    # the 5 classical Noether point symmetries of u'' = 0 (d/dt, d/du, t d/du,
    # 2t d/dt + u d/du, t^2 d/dt + t u d/du) at each of 2 eps orders; one
    # constant gauge per eps order
    "free-particle": (10, 2, ["Xi1", "Xi2"]),
    # paper's golden list for the arbitrary-F oscillator: Xi1..Xi6
    "oscillator-arbitraryF": (6, 2, ["Xi1", "Xi2", "Xi3", "Xi4", "Xi5", "Xi6"]),
    # paper's list for F = (w+delta)^2: Xi1..Xi6 plus Xi7a, Xi8a
    "oscillator-quadratic": (8, 2, ["Xi1", "Xi2", "Xi3", "Xi4", "Xi5", "Xi6",
                                    "Xi7a", "Xi8a"]),
    # paper's list for F = kappa/w^3: Xi1..Xi6 plus Xi7b, Xi8b
    "oscillator-cubic-inverse": (8, 2, ["Xi1", "Xi2", "Xi3", "Xi4", "Xi5", "Xi6",
                                        "Xi7b", "Xi8b"]),
    # paper's golden list for the coupled system: Xi1..Xi6
    "coupled-system": (6, 2, ["Xi1", "Xi2", "Xi3", "Xi4", "Xi5", "Xi6"]),
}

# golden-3body: every golden record passes (the paper's 16 records)
THREE_BODY_RECORDS = ["Xi1", "Xi2a", "Xi2b", "Xi3a", "Xi3b", "Xi4", "Xi5", "Xi6",
                      "Xi7", "Xi8a", "Xi8b", "Xi9a", "Xi9b", "Xi10", "Xi11", "Xi12"]
# the three-body model's hand-written `dependencies` field, as (law, eps shift)
# sets with I<k> named by its record Xi<k> (I2x -> Xi2a, I2y -> Xi2b, ...):
#   m1*m2*I6 = eps*((m1+m2)*I4 - I5), I7 = eps*I1, I8a = eps*I2x,
#   I8b = eps*I2y, I9a = eps*I3x, I9b = eps*I3y, I10 = eps*I5
THREE_BODY_DEPENDENCIES = [
    [["Xi4", 1], ["Xi5", 1], ["Xi6", 0]],
    [["Xi1", 1], ["Xi7", 0]],
    [["Xi2a", 1], ["Xi8a", 0]],
    [["Xi2b", 1], ["Xi8b", 0]],
    [["Xi3a", 1], ["Xi9a", 0]],
    [["Xi3b", 1], ["Xi9b", 0]],
    [["Xi5", 1], ["Xi10", 0]],
]

# numeric: per law, "slope" (nonzero order-0 part on a perturbed model: the
# eps sweep must scale as eps^2) or "floor" (sweep drift at round-off)
NUMERIC = {
    "oscillator-quadratic": {"Xi1": "slope", "Xi2": "floor", "Xi3": "floor",
                             "Xi4": "floor", "Xi5": "floor", "Xi6": "floor",
                             "Xi7a": "slope", "Xi8a": "slope"},
    # L has no eps part, so the full and unperturbed solutions coincide
    "free-particle": {"Xi1": "floor", "Xi2": "floor"},
}
DRIFT_MAX = 1e-9    # RK4 drift per eps order at the model's grid (measured <= 3.3e-12)
SLOPE_MIN = 1.9     # the bound test_eps_sweep_scaling uses (measured 2.00)
FLOOR_MAX = 1e-12   # sweep drift of a law with no order-0 change (measured <= 3.3e-14)


def operations(kind: str, model: str, n_inputs: int) -> list[str]:
    """Names of the checked operations of a case, known before it runs.

    ``n_inputs`` is the number of screened candidates; other kinds ignore it.
    """
    if kind == "discover":
        return ["dimension"] + [f"member:{n}" for n in DISCOVER[model][2]]
    if kind == "golden":
        return [f"record:{n}" for n in THREE_BODY_RECORDS] + ["dependencies"]
    if kind == "screen":
        return [f"candidate:{i}" for i in range(n_inputs)]
    if kind == "numeric":
        return [f"law:{n}" for n in NUMERIC[model]]
    return []


def check(kind: str, model: str, output, n_inputs: int) -> dict[str, str]:
    """Map each operation of the case to "" (correct) or a reason it failed."""
    verdicts = {}
    for op in operations(kind, model, n_inputs):
        try:
            verdicts[op] = _CHECKS[kind](model, op, output)
        except (KeyError, IndexError, TypeError, ValueError) as err:
            verdicts[op] = f"missing or malformed output: {type(err).__name__} {err}"
    return verdicts


def _discover(model, op, out):
    dim, gauge, _ = DISCOVER[model]
    if op == "dimension":
        got = (out["dimension"], out["pure_gauge_dimension"])
        return "" if got == (dim, gauge) else f"dimension {got} != {(dim, gauge)}"
    name = op.split(":", 1)[1]
    return "" if out["membership"][name] is True else f"{name} not in the span"


def _golden(model, op, out):
    if op == "dependencies":
        got = sorted(sorted(map(list, d)) for d in out["dependencies"])
        want = sorted(sorted(d) for d in THREE_BODY_DEPENDENCIES)
        return "" if got == want else f"dependencies {got} != {want}"
    name = op.split(":", 1)[1]
    return "" if out["records"][name] is True else f"golden record {name} failed"


def _screen(model, op, out):
    cand = out[int(op.split(":", 1)[1])]
    want = "rejected" if cand["perturbed"] else "verified"
    return "" if cand["verdict"] == want else f"verdict {cand['verdict']} != {want}"


def _numeric(model, op, out):
    name = op.split(":", 1)[1]
    law = out["laws"][name]
    if max(law["drift"]) >= DRIFT_MAX:
        return f"drift {law['drift']} >= {DRIFT_MAX}"
    if NUMERIC[model][name] == "slope":
        if law["slope"] is None or law["slope"] < SLOPE_MIN:
            return f"sweep slope {law['slope']} < {SLOPE_MIN}"
    elif max(law["sweep"]) >= FLOOR_MAX:
        return f"sweep drift {law['sweep']} >= {FLOOR_MAX}"
    return ""


_CHECKS = {"discover": _discover, "golden": _golden, "screen": _screen,
           "numeric": _numeric}
