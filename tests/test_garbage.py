"""The pipeline leaves no reference cycles behind: everything it drops is
freed by reference counting, and the cyclic collector finds nothing."""

import gc

from approxsym import determine, numverify
from approxsym.errors import NotAVariationalSymmetry
from approxsym.models import golden_check, load_builtin
from approxsym.noether import noether_fluxes
from approxsym.symmetry import Generator


def pipeline_slice():
    free = load_builtin("free-particle")
    determine.solve(determine.extract(free.lagrangian, free.ansatz, free.constant_names))
    model = load_builtin("oscillator-quadratic")
    assert all(r.passed for r in golden_check(model))
    rec = model.golden[0]
    assert noether_fluxes(rec.generator, model.lagrangian, rec.gauge).verified
    # the scaling u -> (1 + a) u is no symmetry
    zero, u0 = model.language.parse("0"), model.language.parse("u0")
    bad = Generator.from_components(model.space, [[zero], [zero]], [[u0], [zero]])
    try:
        noether_fluxes(bad, model.lagrangian)
    except NotAVariationalSymmetry:
        pass
    else:
        raise AssertionError("the perturbed generator was accepted")
    nm = numverify.compile_numeric(model.lagrangian, model.bindings)
    numverify.integrate(nm, nm.initial_state(model.initial, model.language), 0.0, 0.1, 1e-2)


def test_pipeline_leaves_no_cyclic_garbage():
    pipeline_slice()   # warm the memos and imports, so only the slice is measured
    gc.collect()
    gc.disable()
    try:
        pipeline_slice()
        assert gc.collect() == 0
    finally:
        gc.enable()
