"""Workloads: which cases each one runs, and the body of each case.

A case is one CLI-sized job on one builtin model.  ``run.py`` sends each case
to a fresh worker process (``worker.py``), which loads the model (set-up),
builds the case's inputs (untimed), then runs ``CASE_KINDS[kind]`` (timed).
Every body calls only the public functions of ``approxsym`` and returns a
JSON-ready output that ``reference.py`` checks.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Why each workload exists is documented in README.md next to this file.
WORKLOADS = {
    # the determining system: one wide residual linear in 72-432 unknowns
    "discover": [("discover", m) for m in (
        "free-particle", "oscillator-arbitraryF", "oscillator-quadratic",
        "oscillator-cubic-inverse", "coupled-system")],
    # square-root radicals: el_solved_map, 47k is_zero calls, nullspace over Q(G, m)
    "golden-3body": [("golden", "three-body")],
    # mostly-rejected candidates: one nonzero is_zero verdict per rejection
    "screen": [("screen", m) for m in ("oscillator-quadratic", "coupled-system")],
    # pure-float RK4 through compiled closures; symbolic layers idle
    "numeric": [("numeric", m) for m in ("oscillator-quadratic", "free-particle")],
}

# per-case wall-clock limit in seconds (a case over it is a failed operation)
TIMEOUT_S = {"discover": 60.0, "golden": 90.0, "screen": 60.0, "numeric": 60.0,
             "setup": 30.0}

# ---------------------------------------------------------------------------
# screen inputs

SCREEN_CANDIDATES = 160         # candidates per model in one case
# Non-symmetry directions added to the order-0 eta seed of the first
# dependent variable.  The residual is linear in (xi, eta, phi), so a golden
# combination plus c * direction has residual c * residual(direction) != 0.
SCREEN_DIRECTIONS = {
    "oscillator-quadratic": ["t*u0", "u0^3", "t", "sin(t)*u0^2"],
    "coupled-system": ["t*v0", "u0*v0", "t^2*v0", "v0^2"],
}


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))


def _combine(texts: list[str], coeffs: list[Fraction]) -> str:
    terms = [f"({c})*({t})" for c, t in zip(coeffs, texts) if t.strip() != "0"]
    return " + ".join(terms) if terms else "0"


def _combine_rows(rows: list[list[list[str]]], coeffs) -> list[list[str]]:
    return [[_combine([r[i][j] for r in rows], coeffs) for j in range(len(rows[0][i]))]
            for i in range(len(rows[0]))]


def screen_candidates(model, seed: int, count: int = SCREEN_CANDIDATES) -> list[dict]:
    """Seeded random candidates; exactly a quarter are golden-only combinations.

    Each candidate is a random rational combination of 2-4 golden
    (generator, gauge) pairs, in the text form of ``noether --xi/--eta/--phi``.
    The others also get c * direction added to eta[0][0].  Within each of
    the two groups the pair counts cycle through 2, 3, 4, the pairs are dealt
    from shuffled decks of the golden records, and the directions cycle, so
    that the seed changes which terms are drawn but hardly how much work
    they make.
    """
    rng = random.Random(f"screen:{model.name}:{seed}")
    golden = model.raw["golden"]
    directions = SCREEN_DIRECTIONS[model.name]
    n, p = model.space.n, model.space.order
    zero_phi = [["0"] * (p + 1) for _ in range(n)]
    out = []
    for bad, size in ((False, count // 4), (True, count - count // 4)):
        deck: list[dict] = []
        for i in range(size):
            k = 2 + i % 3
            if len(deck) < k:
                deck = rng.sample(golden, len(golden))
            recs, deck = deck[:k], deck[k:]
            coeffs = [_coefficient(rng) for _ in recs]
            cand = {"xi": _combine_rows([r["xi"] for r in recs], coeffs),
                    "eta": _combine_rows([r["eta"] for r in recs], coeffs),
                    "phi": _combine_rows([r.get("phi") or zero_phi for r in recs], coeffs),
                    "perturbed": bad}
            if bad:
                direction = directions[i % len(directions)]
                cand["eta"][0][0] += f" + ({_coefficient(rng)})*({direction})"
            out.append(cand)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# case bodies: (model, inputs) -> output


def discover(model, inputs):
    from approxsym import determine
    system = determine.extract(model.lagrangian, model.ansatz, model.constant_names)
    solutions = determine.solve(system)
    rep = determine.report(solutions)
    rep["membership"] = {rec.name: determine.membership(system, solutions,
                                                        rec.generator, rec.gauge)
                         for rec in model.golden}
    return rep


def golden(model, inputs):
    from approxsym import models, noether
    results = models.golden_check(model)
    laws = [noether.ConservationLaw(model.space, (rec.quantity,), name=rec.name)
            for rec in model.golden if rec.quantity is not None]
    deps = noether.classify(laws, model.constant_names)
    return {
        "records": {r.name: r.passed for r in results},
        "dependencies": [sorted([laws[idx].name, shift] for _, shift, idx in d.terms)
                         for d in deps],
        "described": [d.describe([law.name for law in laws]) for d in deps],
    }


def screen(model, inputs):
    from approxsym import noether
    from approxsym.errors import NotAVariationalSymmetry
    from approxsym.perturb import EpsSeries
    from approxsym.symmetry import Generator
    lang, space = model.language, model.space
    out = []
    for cand in inputs:
        gen = Generator.from_json(space, cand, lang)
        phi = noether.GaugeTerm(space, tuple(
            EpsSeries(tuple(lang.parse(s) for s in row)) for row in cand["phi"]))
        try:
            law = noether.noether_fluxes(gen, model.lagrangian, phi, name="custom")
            verdict = {"verdict": "verified" if law.verified else "unverified",
                       "law": law.to_json()}
        except NotAVariationalSymmetry:
            verdict = {"verdict": "rejected"}
        out.append({"perturbed": cand["perturbed"], **verdict})
    return out


SWEEP_EPS = [1e-2, 1e-3, 1e-4]


def numeric(model, inputs):
    from approxsym import expr as ex
    from approxsym import noether, numverify
    grid = model.grid
    t0, t1, h = grid["t0"], grid["t1"], grid["h"]
    nm = numverify.compile_numeric(model.lagrangian, model.bindings)
    traj = numverify.integrate(nm, nm.initial_state(model.initial, model.language),
                               t0, t1, h)
    # the unexpanded Lagrangian with concrete functions, and u = u_(0) at t0
    source = model.lagrangian_source
    for fname, f in model.functions.items():
        if f.get("concrete"):
            source = ex.subst_function(source, fname, ex.sym(f.get("formal", "w")),
                                       model.language.parse(f["concrete"]))
    bases = sorted(model.space.dependent)
    tname = model.space.independent[0]
    y_full = ([model.initial.get(f"{b}0", 0.0) for b in bases]
              + [model.initial.get(f"d{b}0#{tname}", 0.0) for b in bases])
    laws = {}
    for rec in model.golden:
        if rec.quantity is None:
            continue
        law = noether.ConservationLaw(model.space, (rec.quantity,), name=rec.name)
        rep = numverify.drift(traj, law, nm)
        sw = numverify.eps_sweep(source, model.space, law, SWEEP_EPS, model.bindings,
                                 y_full, t0, t1, h)
        laws[rec.name] = {"drift": rep.max_drift, "sweep": sw.drifts,
                          "slope": None if sw.slope != sw.slope else sw.slope}
    return {"steps": len(traj.ts) - 1, "laws": laws}


def setup(model, inputs):
    return {}


CASE_KINDS = {"discover": discover, "golden": golden, "screen": screen,
              "numeric": numeric, "setup": setup}


def case_inputs(kind: str, model, seed: int):
    """Inputs built before the timer starts; only ``screen`` uses the seed."""
    return screen_candidates(model, seed) if kind == "screen" else None
