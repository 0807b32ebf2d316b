"""Exact linear algebra over Q extended by symbolic constants."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from approxsym import determine, linalg, models, noether
from approxsym import expr as ex
from approxsym.determine import extract, membership, solve
from approxsym.errors import SymbolicPivotAmbiguity
from approxsym.jet import JetSpace
from approxsym.lang import to_text
from approxsym.linalg import (_axpy, assemble_rows, coefficient_rows, common_multiplier,
                              fe_add, fe_div, fe_expr, fe_is_zero, fe_mul, fe_neg, key_column,
                              nullspace, solve_dense, span_fits, sparse_rref, split_column)
from approxsym.models import builtin_names, golden_check, load_builtin, load_model_dict
from test_expr import exact

MODEL_FILES = Path(__file__).parent / "models"


def F(x):
    return Fraction(x)


def keyed(columns, ids=None):
    """Split columns keyed through one key table, a new one by default."""
    ids = {} if ids is None else ids
    return [key_column(parts, ids) for parts in columns]


def fits(columns, constants=()):
    return span_fits(keyed([split_column(parts, constants) for parts in columns]))


def reference_assemble_rows(columns):
    """Rows of sum_j c_j * columns[j] = 0 from split columns, keyed by
    (tag, multiplier, signature): each pair's key tuple is hashed into the
    row table.  ``assemble_rows`` over row ids must give the same rows, in
    the same order, with the same entries."""
    rows = {}
    for col, parts in enumerate(columns):
        for tag, (entries, multiplier) in enumerate(parts):
            for sig, entry in entries.items():
                rows.setdefault((tag, multiplier, sig), {})[col] = entry
    return rows


def assert_reference_rows(rows, ids, columns):
    """rows, named by ids of the key table ids, are the reference rows of
    the split columns: their keys in the same order, each row's columns in
    the same order, and the very same entry objects."""
    keys = list(ids)   # row id -> key
    want = reference_assemble_rows(columns)
    assert [keys[r] for r in rows] == list(want)
    for row, ref in zip(rows.values(), want.values()):
        assert list(row) == list(ref)
        assert all(row[c] is ref[c] for c in ref)


def test_unique_zero_solution():
    # {c1 + c2 = 0, c1 - c2 = 0} has only the trivial solution
    rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}]
    assert nullspace(rows, 2) == []


def test_nullspace_simple():
    rows = [{0: F(1), 1: F(1), 2: F(1)}]
    basis = nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        total = sum(vec.values())
        assert total == 0


def test_rank_and_span():
    rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
    assert len(sparse_rref(rows)) == 1
    column = [ex.rat(1), ex.rat(2)]
    assert list(fits([column, [ex.rat(3), ex.rat(6)]])) == [{0: F(3)}]
    assert list(fits([column, [ex.rat(1), ex.ZERO]])) == []


def test_symbolic_entries():
    d = ex.sym("delta")
    rows = [{0: d, 1: F(-1)}]
    basis = nullspace(rows, 2)
    assert len(basis) == 1
    vec = basis[0]
    # d*x0 = x1: vector (1, delta) up to scaling
    x0, x1 = vec.get(0), vec.get(1)
    prod = ex.expand(ex.sub(ex.mul(d, ex.rat(x0) if isinstance(x0, Fraction) else x0),
                            ex.rat(x1) if isinstance(x1, Fraction) else x1))
    assert ex.is_zero(prod) is True


# exp(a)*exp(-a) - 1: zero, but outside the class is_zero decides
HARD = ex.sub(ex.mul(ex.fun("exp", ex.sym("a")), ex.fun("exp", ex.neg(ex.sym("a")))),
              ex.ONE)


@pytest.mark.parametrize("pair, dependent", [
    (("1/(1+u0^2)", "1"), False),
    (("(u0^2+1)^(-1/2)", "(u0^2+1)^(1/2)"), False),
    (("2/(1+u0^2)", "1/(1+u0^2)"), True),
])
def test_cleared_denominators_are_not_compared_across_columns(pair, dependent):
    # each normal form is scaled by its own clearing multiplier; rows are
    # only comparable where the multipliers agree
    lang = JetSpace(("t",), ("u",), order=0, max_derivative=2).language()
    columns = [[lang.parse(s)] for s in pair]
    assert (len(sparse_rref(coefficient_rows(columns, ()).values())) == 1) is dependent
    assert bool(list(fits(columns))) is dependent


def test_common_multiplier_compares_across_denominators():
    # 1/(1+u0^2) - 1/(2+u0^2) = 1/((1+u0^2)*(2+u0^2)), three clearing multipliers
    lang = JetSpace(("t",), ("u",), order=0, max_derivative=2).language()
    columns = [[lang.parse(s)] for s in
               ("1/(1+u0^2)", "1/(2+u0^2)", "1/((1+u0^2)*(2+u0^2))")]
    assert len(sparse_rref(coefficient_rows(columns, ()).values())) == 3
    rows = assemble_rows(keyed(common_multiplier(columns, ()))).values()
    assert nullspace(rows, 3) == [{0: -1, 1: 1, 2: 1}]
    # multipliers that agree leave the tag as it was
    alike = [[lang.parse("1/(1+u0^2)")], [lang.parse("u0/(1+u0^2)")], [ex.ZERO]]
    assert common_multiplier(alike, ()) == [split_column(c, ()) for c in alike]


def test_common_multiplier_reduces_sin_squared_it_multiplies_in():
    # over (1 + sin)*(2 + sin) the third column reads 2 - cos^2 + 3*sin; the
    # first scales to 2*sin + sin^2 and matches only once that sin^2 becomes
    # 1 - cos^2
    lang = JetSpace(("t",), ("u",), order=0, max_derivative=2).language()
    columns = [[lang.parse(s)] for s in
               ("sin(t)/(1 + sin(t))", "1/(2 + sin(t))",
                "(sin(t)*(2 + sin(t)) + 1 + sin(t))/((1 + sin(t))*(2 + sin(t)))")]
    rows = assemble_rows(keyed(common_multiplier(columns, ()))).values()
    assert nullspace(rows, 3) == [{0: -1, 1: -1, 2: 1}]


_A, _B, _C, _D = (ex.sym(n) for n in "abcd")
_AB = ex.add(_A, _B)


def _over_ab(e):
    return ex.expand(ex.mul(ex.rat(2), e, ex.pow_(_AB, -1)))


@pytest.mark.parametrize("rows, expected", [
    # the tie, all rows leading in column 0: the rational one-entry row sorts
    # first, then the rational two-entry row, then the symbolic one-entry
    # row, so merging the two one-entry rows would promote the two-entry row
    ([{0: _AB}, {0: F(1), 1: F(2), 2: _C}, {0: F(1)}],
     [(0, [(0, "1")]), (1, [(1, "1"), (2, "1/2*c")])]),
    # rows 0 and 2 are proportional; row 2 leads with a rational entry and
    # so is promoted before row 0
    ([{0: _AB, 1: _C, 2: _D}, {0: F(1), 1: F(1), 2: _B},
      {0: F(2), 1: _over_ab(_C), 2: _over_ab(_D)}],
     [(0, [(0, "1"), (2, "b - d*(-1 + c*(a + b)^(-1))^(-1)*(a + b)^(-1)"
                         " + b*(-1 + c*(a + b)^(-1))^(-1)")]),
      (1, [(1, "1"), (2, "-b*(-1 + c*(a + b)^(-1))^(-1)"
                         " + d*(-1 + c*(a + b)^(-1))^(-1)*(a + b)^(-1)")])]),
    # symbolic leads only, rank 2
    ([{1: _A, 2: _B}, {0: _C, 1: _D}, {0: _AB, 1: ex.mul(_AB, _D, ex.pow_(_C, -1))}],
     [(0, [(0, "1"), (2, "-b*d*a^(-1)*c^(-1)")]), (1, [(1, "1"), (2, "b*a^(-1)")])]),
])
def test_duplicate_rows_do_not_change_the_reduction(rows, expected):
    def reduce(rows):
        pivots = sparse_rref([dict(r) for r in rows])
        return pivots, [(c, [(j, to_text(fe_expr(v))) for j, v in row.items()])
                        for c, row in pivots.items()]

    pivots, shown = reduce(rows)
    assert shown == expected
    # exact twins, each right after its first occurrence or all at the end
    for twins in ([r for r in rows for _ in range(2)], rows + rows + rows[:1]):
        got, got_shown = reduce(twins)
        assert got_shown == shown
        assert list(got) == list(pivots)
        assert all(list(got[c].items()) == list(pivots[c].items()) for c in pivots)


def ref_sparse_rref(rows):
    """The reference: every pending row re-keyed at every promotion."""
    pivots = {}
    distinct = dict.fromkeys(tuple(r.items()) for r in rows)
    pending = [{c: v for c, v in items if not fe_is_zero(v)} for items in distinct]
    pending = [r for r in pending if r]
    lead = None
    while pending:
        reduced = [_axpy(row, pivots[lead], fe_neg(row[lead])) if lead in row else row
                   for row in pending]
        reduced = [row for row in reduced if row]
        if not reduced:
            break

        def sort_key(r):
            lead = min(r)
            rational = not isinstance(r[lead], ex.Expr)
            return (lead, 0 if rational else 1, len(r))
        reduced.sort(key=sort_key)
        row = reduced[0]
        lead = min(row)
        inv = fe_div(Fraction(1), row[lead])
        row = {c: fe_mul(inv, v) for c, v in row.items()}
        row[lead] = Fraction(1)
        for pc, prow in list(pivots.items()):
            if lead in prow:
                pivots[pc] = _axpy(prow, row, fe_neg(prow[lead]))
        pivots[lead] = row
        pending = reduced[1:]
    return pivots


SYMBOLS = [_A, _B, _AB, ex.mul(_A, _B), ex.neg(_C), ex.pow_(_AB, -1), ex.mul(_D, ex.pow_(_A, -1))]


def random_system(rng, symbolic, ncols=None, nrows=None, density=0.6):
    """Rows over a few columns with zero entries, exact twins, multiples of
    earlier rows and shuffled column order, so leads tie often.  By default
    1-5 columns and 1-7 rows; a wide system gives ``ncols`` and ``nrows``."""
    ncols = ncols or rng.randint(1, 5)
    rows = []
    for _ in range(nrows or rng.randint(1, 7)):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif rows and pick < 0.3:
            k = F(rng.choice([-2, -1, 2, 3]))
            rows.append({c: fe_mul(k, v) for c, v in rng.choice(rows).items()})
        else:
            cols = [c for c in range(ncols) if rng.random() < density]
            rng.shuffle(cols)
            rows.append({c: rng.choice(SYMBOLS) if symbolic and rng.random() < 0.4
                         else F(rng.randint(-2, 2)) for c in cols})
    return rows


@pytest.mark.parametrize("symbolic", [False, True], ids=["rational", "symbolic"])
def test_sparse_rref_promotes_as_the_reference(symbolic):
    rng = random.Random(23 if symbolic else 29)
    for _ in range(400):
        rows = random_system(rng, symbolic)
        got = sparse_rref([dict(r) for r in rows])
        want = ref_sparse_rref([dict(r) for r in rows])
        assert list(got) == list(want)   # the same pivots, promoted in the same order
        for c in want:
            assert list(got[c].items()) == list(want[c].items())


def test_sparse_rref_promotes_as_the_reference_on_wide_systems():
    # 30-60 columns: fill-in makes pivot rows long, so back-substitution
    # through the column index visits long chains of pivot rows.  Rational
    # only: symbolic entries swell past any test budget at this width
    rng = random.Random(41)
    longest = 0
    for _ in range(40):
        ncols = rng.randint(30, 60)
        rows = random_system(rng, False, ncols, rng.randint(ncols // 2, ncols), density=0.1)
        got = sparse_rref([dict(r) for r in rows])
        want = ref_sparse_rref([dict(r) for r in rows])
        assert list(got) == list(want)
        for c in want:
            assert list(got[c].items()) == list(want[c].items())
        longest = max(longest, max(map(len, got.values()), default=0))
    assert longest >= 10


def test_sparse_rref_reads_ints_as_the_equal_fractions():
    # the same rows with every entry a Fraction, and with each integral one
    # an int: equal pivots in equal order, each entry an int iff integral
    rng = random.Random(43)
    for _ in range(200):
        rows = random_system(rng, False, rng.randint(1, 12), rng.randint(1, 12))
        as_fractions = [{c: Fraction(v) for c, v in r.items()} for r in rows]
        as_ints = [{c: ex._rational(Fraction(v)) for c, v in r.items()} for r in rows]
        got, want = sparse_rref(as_ints), sparse_rref(as_fractions)
        assert list(got) == list(want)
        for c in want:
            assert list(got[c].items()) == list(want[c].items())
            assert all(map(exact, got[c].values())) and all(map(exact, want[c].values()))


RATIONALS = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                      st.fractions(max_denominator=10 ** 4)).map(ex._rational)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(RATIONALS, RATIONALS)
def test_rational_entries_follow_fraction_arithmetic(a, b):
    # the fast path on ints and Fractions: the value Fraction arithmetic
    # gives, an int exactly when it is integral, and never a float
    want = [Fraction(a) + Fraction(b), Fraction(a) * Fraction(b), -Fraction(a)]
    got = [fe_add(a, b), fe_mul(a, b), fe_neg(a)]
    if b != 0:
        want.append(Fraction(a) / Fraction(b))
        got.append(fe_div(a, b))
    for g, w in zip(got, want, strict=True):
        assert g == w and exact(g)
        assert (type(g) is int) == (w.denominator == 1)


def test_symbolic_pivot_ambiguity():
    assert ex.is_zero(HARD) is ex.UNKNOWN
    rows = [{0: HARD}]
    with pytest.raises(SymbolicPivotAmbiguity):
        sparse_rref(rows)


def test_solve_dense_symbolic():
    a, b = ex.sym("a"), ex.sym("b")
    # the third row is the sum of the first two: redundant rows are tolerated
    sol = solve_dense([[a, ex.ZERO], [ex.ZERO, b], [a, b]], [ex.ONE, ex.ONE, ex.rat(2)])
    assert ex.is_zero(ex.sub(sol[0], ex.div(ex.ONE, a))) is True
    assert ex.is_zero(ex.sub(sol[1], ex.div(ex.ONE, b))) is True
    assert solve_dense([[ex.ONE, ex.ONE], [ex.ONE, ex.ONE]], [ex.ZERO, ex.ZERO]) is None
    # right-hand sides stay out of the elimination: an undecidable one is
    # returned as it is, not zero-tested
    assert solve_dense([[ex.ONE]], [HARD]) == [HARD]
    # every kinetic entry is zero-tested, not only pivot candidates
    with pytest.raises(SymbolicPivotAmbiguity):
        solve_dense([[ex.ONE, ex.ZERO], [HARD, ex.ONE]], [ex.ZERO, ex.ZERO])


def test_solve_dense_rejects_inconsistent_rows():
    assert solve_dense([[ex.ONE], [ex.ONE]], [ex.ONE, ex.rat(2)]) is None
    # a redundant row whose right-hand side agrees still solves
    sol = solve_dense([[ex.ONE], [ex.rat(2)]], [ex.ONE, ex.rat(2)])
    assert sol == [ex.ONE]
    # an undecidable leftover right-hand side is an ambiguity, not a verdict
    with pytest.raises(SymbolicPivotAmbiguity):
        solve_dense([[ex.ONE], [ex.ONE]], [ex.ZERO, HARD])


# ---------------------------------------------------------------------------
# splitting off the constants against the version that built every entry


def ref_split_constants(form, constants):
    """The reference: every entry, a plain coefficient too, is built as the
    product of rat(value) and the constant powers, then demoted."""
    nf, multiplier = form
    out = {}
    for mono, value in nf.items():
        const_part = [ex.rat(value)]
        sig = []
        for atom, power in mono:
            if isinstance(atom, ex.Sym) and atom.name in constants:
                const_part.append(ex.pow_(atom, power))
            else:
                sig.append((atom, power))
        sig = tuple(sig)
        entry = linalg._demote(ex.mul(*const_part))
        prev = out.get(sig)
        out[sig] = entry if prev is None else linalg.fe_add(prev, entry)
    return out, multiplier


def test_split_constants_matches_the_reference_on_every_builtin(monkeypatch):
    # every form split by golden_check on each builtin, and the determining
    # columns of one model with a constant, split over common multipliers
    split = linalg._split_constants
    forms = []

    def recorded(form, constants):
        forms.append((form, constants))
        return split(form, constants)

    monkeypatch.setattr(linalg, "_split_constants", recorded)
    for name in builtin_names():
        golden_check(load_builtin(name))
    model = load_builtin("oscillator-quadratic")
    extract(model.lagrangian, model.ansatz, model.constant_names)
    with_constants = 0
    for form, constants in forms:
        got, multiplier = split(form, constants)
        want, ref_multiplier = ref_split_constants(form, constants)
        assert multiplier is ref_multiplier
        assert list(got) == list(want)   # the same signatures in the same order
        for sig, entry in got.items():
            assert entry == want[sig] and type(entry) is type(want[sig])
            assert isinstance(entry, ex.Expr) or exact(entry)
        with_constants += any(isinstance(e, ex.Expr) for e in got.values())
    assert with_constants and len(forms) > with_constants


def test_split_constants_builds_one_entry_per_constant_part(monkeypatch):
    # the golden-3body bench case: golden_check and classify on three-body.
    # one product per distinct (coefficient, constant powers) pair of each
    # form, not one per monomial: 9,347 monomials hold a constant, and they
    # hold 489 such pairs
    split = linalg._split_constants
    code, mul = split.__code__, ex.mul
    products, pairs, with_constants = [0], [0], [0]

    def counted_mul(*factors):
        products[0] += sys._getframe(1).f_code is code
        return mul(*factors)

    def recorded(form, constants):
        parts = [(value, *[(a, q) for a, q in mono
                           if isinstance(a, ex.Sym) and a.name in constants])
                 for mono, value in form[0].items()]
        parts = [p for p in parts if len(p) > 1]
        pairs[0] += len(set(parts))
        with_constants[0] += len(parts)
        return split(form, constants)

    monkeypatch.setattr(ex, "mul", counted_mul)
    monkeypatch.setattr(linalg, "_split_constants", recorded)
    model = load_builtin("three-body")
    assert all(r.passed for r in golden_check(model))
    laws = [noether.ConservationLaw(model.space, (rec.quantity,), name=rec.name)
            for rec in model.golden if rec.quantity is not None]
    noether.classify(laws, model.constant_names)
    assert products[0] <= pairs[0] < with_constants[0]


def test_span_fits_negates_each_distinct_target_entry_once(monkeypatch):
    # golden_check on three-body: the fits hold 3,134 target entries, all of
    # them Expr and 149 distinct within their fit; each is negated once, not
    # once per row (a rational entry is negated without fe_neg)
    code, neg, assemble = linalg.span_fits.__code__, linalg.fe_neg, linalg.assemble_rows
    negations, distinct, entries = [0], [0], [0]

    def counted_neg(a):
        negations[0] += sys._getframe(1).f_code is code
        return neg(a)

    def recorded(columns):
        rows = assemble(columns)
        if sys._getframe(1).f_code is code:
            # the fit assembles keyed columns, over row ids
            assert all(type(r) is int for col in columns for r, _ in col)
            target = len(columns) - 1
            targets = [row[target] for row in rows.values()
                       if isinstance(row.get(target), ex.Expr)]
            entries[0] += len(targets)
            distinct[0] += len(set(targets))
        return rows

    monkeypatch.setattr(linalg, "fe_neg", counted_neg)
    monkeypatch.setattr(linalg, "assemble_rows", recorded)
    assert all(r.passed for r in golden_check(load_builtin("three-body")))
    assert negations[0] == distinct[0] < entries[0]


def test_golden_check_keys_each_series_once(monkeypatch):
    # three-body: the 14 span fits assemble 47,094 (row, entry) pairs, each
    # fit 3,120 rows over the same 3,120 distinct row keys.  A key is hashed
    # into the check's one key table only as a distinct series is keyed, in
    # 6,260 pairs from 24 distinct series; every fit assembles over row ids
    key, assemble = linalg.key_column, linalg.assemble_rows
    tables, hashed, assembled = [], [0], [0]

    def counted_key(parts, ids):
        tables.append(ids)
        col = key(parts, ids)
        hashed[0] += len(col)
        return col

    def counted_assemble(columns):
        assert all(type(r) is int for col in columns for r, _ in col)
        assembled[0] += sum(map(len, columns))
        return assemble(columns)

    model = load_builtin("three-body")
    monkeypatch.setattr(models, "key_column", counted_key)
    monkeypatch.setattr(linalg, "assemble_rows", counted_assemble)
    assert all(r.passed for r in golden_check(model))
    assert all(t is tables[0] for t in tables)
    assert (len(tables[0]), hashed[0], assembled[0]) == (3120, 6260, 47094)


@pytest.fixture
def reference_assembly(monkeypatch):
    """Every assembly made while the fixture is active is compared with
    ``reference_assemble_rows`` over the split columns it came from; the
    value counts the assemblies."""
    key, assemble = linalg.key_column, linalg.assemble_rows
    made = {}   # id(keyed column): (keyed column, split column, key table)
    count = [0]

    def recorded(parts, ids):
        col = key(parts, ids)
        made[id(col)] = (col, parts, ids)
        return col

    def checked(columns):
        rows = assemble(columns)
        _, parts, tables = zip(*(made[id(col)] for col in columns))
        assert all(t is tables[0] for t in tables)
        assert_reference_rows(rows, tables[0], list(parts))
        count[0] += 1
        return rows

    for module in (linalg, models, determine):
        monkeypatch.setattr(module, "key_column", recorded)
    for module in (linalg, determine):
        monkeypatch.setattr(module, "assemble_rows", checked)
    return count


@pytest.mark.parametrize("name", builtin_names())
def test_golden_check_and_classify_assemble_as_the_reference(reference_assembly, name):
    model = load_builtin(name)
    loaded = reference_assembly[0]   # the ansatz bases' independence checks
    assert all(r.passed for r in golden_check(model))
    laws = [noether.ConservationLaw(model.space, (rec.quantity,), name=rec.name)
            for rec in model.golden if rec.quantity is not None]
    noether.classify(laws, model.constant_names)
    fits = sum(rec.quantity is not None and rec.expect != "trivial" for rec in model.golden)
    assert reference_assembly[0] - loaded == fits + 1


@pytest.mark.parametrize("source", [n for n in builtin_names() if n != "three-body"]
                         + ["line3", "order2"])
def test_extract_and_membership_assemble_as_the_reference(reference_assembly, source):
    if source in builtin_names():
        model = load_builtin(source)
    else:
        model = load_model_dict(json.loads((MODEL_FILES / f"{source}.json").read_text()))
    ansatz = model.ansatz   # built with the bases' independence checks
    loaded = reference_assembly[0]
    system = extract(model.lagrangian, ansatz, model.constant_names)
    solutions = solve(system)
    for rec in model.golden:
        membership(system, solutions, rec.generator, rec.gauge)
    assert reference_assembly[0] - loaded == 1 + len(model.golden)


# split columns whose signatures repeat across tags and multipliers
_X, _Y = ex.sym("x"), ex.sym("y")
_SIGNATURES = [(), ((_X, 1),), ((_X, 2),), ((_Y, 1),), ((_X, 1), (_Y, 1))]
_MULTIPLIERS = [ex.ONE, _Y, ex.add(ex.ONE, ex.pow_(_X, 2))]
_ENTRIES = st.one_of(st.integers(-3, 3).filter(bool),
                     st.fractions(-3, 3, max_denominator=4).filter(bool),
                     st.sampled_from([ex.sym("a"), ex.add(ex.sym("a"), ex.sym("b"))]))
_SPLIT_COLUMNS = st.lists(st.lists(st.tuples(
    st.dictionaries(st.sampled_from(_SIGNATURES), _ENTRIES, max_size=4),
    st.sampled_from(_MULTIPLIERS)), max_size=3), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_SPLIT_COLUMNS, _SPLIT_COLUMNS)
def test_assembly_over_row_ids_matches_the_reference(earlier, columns):
    # a new key table, and one that already holds the keys of earlier
    # columns, as golden_check's does after its first fits
    fresh = {}
    assert_reference_rows(assemble_rows(keyed(columns, fresh)), fresh, columns)
    shared = {}
    keyed(earlier, shared)
    assert_reference_rows(assemble_rows(keyed(columns, shared)), shared, columns)
