"""Exact linear algebra over the rationals extended by symbolic constants.

Entries are either plain rationals (the fast path), each an int when it is
integral and a Fraction otherwise, as ``expr`` holds them, or canonical
expressions in declared constants, treated as independent transcendentals:
any entry whose zero test succeeds is a valid pivot, and an Unknown zero
test raises SymbolicPivotAmbiguity.  Rows are sparse dicts keyed by column
index.

One elimination, ``sparse_rref``, serves every system.  It first drops each
row that repeats an earlier one exactly (the span fits of ``golden_check``
hold 3,120 rows on three-body, 147 of them distinct); a twin reduces like its
first occurrence and is never promoted before it, so the pivots, their order
and every printed entry stay as they were.  Merely proportional rows are
kept: which of them becomes the pivot reaches printed output.  The
homogeneous systems come from ``coefficient_rows``, or from ``split_column``,
``key_column`` and ``assemble_rows`` where one basis is fitted against many
targets: the determining equations, span fits, law dependencies, basis
independence.  Every column is split over Q(constants) by
``_split_constants``, which builds one entry per distinct constant part of a
normal form and then shares it among the signatures that have that part.
Rows are assembled over int ids that the key table of one comparison
gives their keys (tag, multiplier, signature): ``golden_check`` keys its
basis once and shares that table and the keyed columns among its fits.
Each normal form is read after its denominators were cleared, so rows are
keyed by the clearing multiplier and a dependency is one that holds within
each multiplier group: sound, but blind to one that cancels only across
groups, such as the translation (1, 1, 1) of three bodies on a line with
pair potentials 1/(1 + (u-v)^2).  ``extract`` needs that completeness and
splits its columns with ``common_multiplier``, on their monomials.
``span_fits`` and ``noether.classify`` keep multiplier-keyed rows: over a
common multiplier, ``noether --model three-body --classify`` prints
(-1)*eps^1*Xi3a as (-2*m2*(-m1 + 2*m2)^(-1) + m1*(-m1 + 2*m2)^(-1))*eps^1*Xi3a
and takes about ten times as long.  ``solve_dense`` solves the small affine
system of the Euler-Lagrange equations for the accelerations by reducing
[A | I]: its right-hand sides hold arbitrary jet expressions (exp(u0),
radicals) whose zero test can be Unknown, and they never enter the
elimination; only a combination of them that the elimination proves must
vanish is zero-tested, so a square system never zero-tests a right-hand
side.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from . import expr as ex
from .errors import SymbolicPivotAmbiguity

__all__ = ["fe_add", "fe_mul", "fe_div", "fe_neg", "fe_is_zero", "fe_expr",
           "common_multiplier", "split_column", "key_column", "assemble_rows",
           "coefficient_rows", "span_fits", "sparse_rref", "nullspace", "solve_dense"]

# an entry: an int when it is integral, a Fraction when it is another
# rational, an Expr when it holds a constant.  Every entry that is not an
# Expr is a rational, so the fast path tests for Expr only
FE = int | Fraction | ex.Expr
# one part split by ``_split_constants``: ({signature: entry}, multiplier)
Split = tuple[dict[tuple, FE], ex.Expr]
Keyed = list[tuple[int, FE]]   # a column as (row id, entry) pairs: ``key_column``


def fe_expr(a: FE) -> ex.Expr:
    return a if isinstance(a, ex.Expr) else ex.rat(a)


def _demote(e: ex.Expr) -> FE:
    return e.value if isinstance(e, ex.Rat) else e


def fe_add(a: FE, b: FE) -> FE:
    if not isinstance(a, ex.Expr) and not isinstance(b, ex.Expr):
        return ex._rational(a + b)
    return _demote(ex.expand(ex.add(fe_expr(a), fe_expr(b))))


def fe_mul(a: FE, b: FE) -> FE:
    if not isinstance(a, ex.Expr) and not isinstance(b, ex.Expr):
        return ex._rational(a * b)
    return _demote(ex.expand(ex.mul(fe_expr(a), fe_expr(b))))


def fe_neg(a: FE) -> FE:
    return _demote(ex.neg(a)) if isinstance(a, ex.Expr) else -a


def fe_div(a: FE, b: FE) -> FE:
    if not isinstance(a, ex.Expr) and not isinstance(b, ex.Expr):
        # int / int is a float: the quotient is taken as a Fraction
        return ex._rational(Fraction(a, b))
    return _demote(ex.expand(ex.div(fe_expr(a), fe_expr(b))))


def fe_is_zero(a: FE) -> bool:
    if not isinstance(a, ex.Expr):
        return a == 0
    z = ex.is_zero(a)
    if z is ex.UNKNOWN:
        raise SymbolicPivotAmbiguity(a)
    return z


def _axpy(row: dict, pivot_row: dict, factor: FE) -> dict:
    """row + factor * pivot_row, dropping zero entries."""
    out = dict(row)
    for c, v in pivot_row.items():
        nv = fe_add(out.get(c, 0), fe_mul(factor, v))
        if fe_is_zero(nv):
            out.pop(c, None)
        else:
            out[c] = nv
    return out


def _sort_key(row: dict) -> tuple:
    """Promotion order of a reduced row: smallest leading column first, then
    a rational pivot before a symbolic one, then the shorter row."""
    lead = min(row)
    return (lead, 1 if isinstance(row[lead], ex.Expr) else 0, len(row))


def sparse_rref(rows: list[dict]) -> dict[int, dict]:
    """Reduced row echelon form; returns {pivot column: normalized row}.

    Pivot columns are chosen in increasing index order; plain-rational
    entries are preferred as pivots within a column to keep symbolic
    denominators out of the elimination where possible.  A row equal to an
    earlier one, entry for entry in the same order, is dropped first: twins
    reduce alike against any pivots and the stable promotion order always
    takes the earlier one, after which the later reduces to nothing.  Rows
    that are only proportional are kept, since they may sort differently
    (a symbolic one-entry row sorts after a rational two-entry row with the
    same lead).

    Pending rows wait in a heap with their sort keys.  No pending row leads
    before the newly promoted pivot column, so the rows that hold it are
    the ones that lead with it, the smallest in the heap: only they are
    reduced and keyed again.  Their tie numbers, which stand for the order
    of a stable sort, go below all others in their previous order, where a
    stable re-sort of the whole list would put them.  Rows are therefore
    promoted in the same order as when every pending row was re-keyed and
    the list re-sorted at each promotion.

    Pivots are promoted in increasing column order, and a column index maps
    each column that is not yet a pivot to the pivot columns whose rows may
    hold it, so back-substitution visits only the pivot rows that hold the
    new pivot column, in promotion order, instead of probing every pivot
    row.
    """
    pivots: dict[int, dict] = {}
    # column -> pivot columns whose rows held it when last written; a row
    # that has lost the column since is skipped
    holders: dict[int, set[int]] = {}
    distinct = dict.fromkeys(tuple(r.items()) for r in rows)
    pending = []   # (sort key, tie, row)
    for items in distinct:
        row = {c: v for c, v in items if not fe_is_zero(v)}
        if row:
            pending.append((_sort_key(row), len(pending), row))
    heapq.heapify(pending)
    tie = 0
    while pending:
        # promote the row whose leading column is smallest; prefer rational pivots
        (lead, _, _), _, row = heapq.heappop(pending)
        inv = fe_div(1, row[lead])
        row = {c: fe_mul(inv, v) for c, v in row.items()}
        row[lead] = 1
        for c in row:
            if c != lead:
                holders.setdefault(c, set()).add(lead)
        # eliminate the new pivot column from the pivot rows that hold it;
        # the columns they gain are those of the new row
        for pc in sorted(holders.pop(lead, ())):
            prow = pivots[pc]
            if lead in prow:
                pivots[pc] = new = _axpy(prow, row, fe_neg(prow[lead]))
                for c in new:
                    if c not in prow:
                        holders[c].add(pc)
        pivots[lead] = row
        # and from the pending rows that hold it, which all lead with it
        held = []
        while pending and pending[0][0][0] == lead:
            held.append(heapq.heappop(pending)[2])
        tie -= len(held)
        for i, r in enumerate(held):
            r = _axpy(r, row, fe_neg(r[lead]))
            if r:
                heapq.heappush(pending, (_sort_key(r), tie + i, r))
    return pivots


def nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """Basis of {x : A x = 0}, one sparse vector per free column.

    A pivot row holds, besides its pivot, only free columns, so one pass
    over the pivot rows in promotion order fills every vector."""
    pivots = sparse_rref(rows)
    basis = {c: {c: 1} for c in range(ncols) if c not in pivots}
    for pc, prow in pivots.items():
        for c, v in prow.items():
            vec = basis.get(c)   # None at the pivot itself
            if vec is not None:
                vec[pc] = fe_neg(v)
    return list(basis.values())


def _split_constants(form: tuple[dict, ex.Expr], constants) -> Split:
    """A normal form (poly, multiplier) as {signature: entry over Q(constants)}.

    A signature is a normal-form monomial key with the powers of declared
    constants removed; those powers move into the entry, and entries whose
    signatures coincide are summed.  Signatures keep the normal form's
    atom order.  The multiplier is returned unchanged: poly is the normal
    form of multiplier * (the part).  One entry is built per distinct
    constant part, a (coefficient, constant powers) pair, and then shared by
    every signature that has it: in the forms that ``golden_check`` and
    ``noether.classify`` split on three-body, 9,347 monomials hold a
    constant but only 489 such pairs.  The table lives for one call;
    entries are immutable, so sharing them is safe.
    """
    nf, multiplier = form
    out: dict[tuple, FE] = {}
    built: dict[tuple, FE] = {}   # (value, *constant powers): entry
    for mono, value in nf.items():
        const_part = []
        sig = []
        for atom, power in mono:
            if isinstance(atom, ex.Sym) and atom.name in constants:
                const_part.append((atom, power))
            else:
                sig.append((atom, power))
        sig = tuple(sig)
        if const_part:
            key = (value, *const_part)
            entry = built.get(key)
            if entry is None:
                entry = built[key] = _demote(
                    ex.mul(ex.rat(value), *[ex.pow_(a, p) for a, p in const_part]))
        else:
            # without constants the entry is the coefficient itself, an int
            # when it is integral, else a Fraction
            entry = value
        prev = out.get(sig)
        out[sig] = entry if prev is None else fe_add(prev, entry)
    return out, multiplier


def common_multiplier(columns: list[list[ex.Expr]], constants) -> list[list[Split]]:
    """The columns split as by ``split_column``, each tag over one clearing
    multiplier shared by all columns.

    Columns are as in ``coefficient_rows`` and of equal length.  Where the
    nonzero columns of a tag were cleared by different multipliers M_j,
    column j's cleared normal form is multiplied by M/M_j on its monomials
    (``expr._poly_times``), M being the largest power of each base among
    the M_j, and split keyed by M, so every row of that tag compares normal
    forms scaled alike.  Other tags keep their own multiplier.
    """
    forms = [list(map(ex._zero_normal_form, parts)) for parts in columns]
    for tag, tagged in enumerate(zip(*forms)):
        if len({m for poly, m in tagged if poly}) < 2:
            continue
        powers = [dict(ex._monomial_pairs(m)[1]) for _, m in tagged]
        top = {b: max(have.get(b, 0) for have in powers) for have in powers for b in have}
        common = ex.mul(*[ex.pow_(b, q) for b, q in top.items()])
        for j, ((poly, _), have) in enumerate(zip(tagged, powers)):
            if poly:
                scaled = ex._poly_times(
                    poly, {b: q - have.get(b, 0) for b, q in top.items()})
                forms[j][tag] = (scaled, common)
    return [[_split_constants(f, constants) for f in parts] for parts in forms]


def split_column(parts: list[ex.Expr], constants) -> list[Split]:
    """One column of ``coefficient_rows``: each tag's zero normal form split
    by ``_split_constants``; ``key_column`` keys it for ``assemble_rows``."""
    return [_split_constants(form, constants) for form in map(ex._zero_normal_form, parts)]


def key_column(parts: list[Split], ids: dict[tuple, int]) -> Keyed:
    """A split column as (row id, entry) pairs, tag by tag, signatures in
    normal-form order.  ``ids``, the key table of one comparison, maps
    (tag, multiplier, signature) to a row id; a new key gets the next id."""
    return [(ids.setdefault((tag, multiplier, sig), len(ids)), entry)
            for tag, (entries, multiplier) in enumerate(parts)
            for sig, entry in entries.items()]


def assemble_rows(columns: list[Keyed]) -> dict[int, dict[int, FE]]:
    """Rows of sum_j c_j * columns[j] = 0 from keyed columns (``key_column``).

    Returns {row id: {column: entry}}, ids of the columns' one key table,
    which only name the rows.  Rows come in order of first appearance:
    column by column, tag by tag, signatures in normal-form order.  That
    order reaches printed output: entries over Q(constants) have no
    canonical form, so another row order makes the elimination print
    another, equal expression.  With the keys of ``_zero_normal_form``'s
    dict reversed, the Xi6 coefficient in ``golden --model three-body``
    reads -m2*(1 + m2*m1^(-1))^(-1) instead of m1*(-1 - m1*m2^(-1))^(-1).
    """
    rows: dict[int, dict[int, FE]] = {}
    for col, pairs in enumerate(columns):
        for row, entry in pairs:
            rows.setdefault(row, {})[col] = entry
    return rows


def coefficient_rows(columns: list[list[ex.Expr]], constants) -> dict[int, dict[int, FE]]:
    """Rows of sum_j c_j * columns[j] = 0 over Q(constants), by row id.

    Each column is a list of expressions indexed by tag (an eps order, a
    flux component), split by ``split_column`` and keyed through a key
    table of this call; ``assemble_rows`` puts the rows together in its
    order, with the multiplier and signatures of ``_split_constants``.
    Keying by the multiplier compares only normal forms scaled alike, so a
    dependency found holds within each multiplier group and hence for the
    columns themselves (see the module docstring).
    """
    ids: dict[tuple, int] = {}
    return assemble_rows([key_column(split_column(p, constants), ids) for p in columns])


def span_fits(columns: list[Keyed]):
    """Solutions of sum_j c_j * columns[j] = columns[-1] over Q(constants).

    Columns are keyed columns (``key_column``) of one key table, so a caller
    fitting many targets against one basis keys the basis once.  Yields one
    {j: c_j} per null vector of [columns[:-1] | -columns[-1]] with a nonzero
    target coordinate, zero coordinates omitted.  Each distinct target
    entry that is an Expr is negated once: many rows, twins that
    ``sparse_rref`` drops, share one.  A rational is negated directly, which
    costs less than hashing it.
    """
    target = len(columns) - 1
    rows = assemble_rows(columns).values()
    negated = {}
    for row in rows:
        entry = row.get(target)
        if isinstance(entry, ex.Expr):
            neg = negated.get(entry)
            if neg is None:
                neg = negated[entry] = fe_neg(entry)
            row[target] = neg
        elif entry is not None:
            row[target] = -entry
    for vec in nullspace(rows, len(columns)):
        t = vec.get(target)
        if t is not None and not fe_is_zero(t):
            yield {j: fe_div(v, t) for j, v in vec.items()
                   if j != target and not fe_is_zero(v)}


def solve_dense(matrix: list[list[ex.Expr]], rhs: list[ex.Expr]) -> list[ex.Expr] | None:
    """Solve A x = b, A with expression entries, by one ``sparse_rref`` of [A | I].

    Column n + i marks equation i, so each reduced row carries the
    combination y of equations that produced it and b never enters the
    elimination.  Returns None when a column of A has no pivot, or when a
    combination y that cancels A has y.b nonzero (the system is
    inconsistent); otherwise x_j = y_j.b.  Every entry of A is zero-tested,
    so an undecidable entry raises SymbolicPivotAmbiguity, as does an
    undecidable y.b.  Redundant rows are tolerated; the number of unknowns
    is the row width.
    """
    n = len(matrix[0]) if matrix else 0
    rows = []
    for i, row in enumerate(matrix):
        r = {j: _demote(a) for j, a in enumerate(row) if a != ex.ZERO}
        r[n + i] = 1
        rows.append(r)
    pivots = sparse_rref(rows)
    if any(j not in pivots for j in range(n)):
        return None

    def combine(y: dict) -> ex.Expr:
        return ex.add(*[ex.mul(fe_expr(v), rhs[c - n]) for c, v in y.items() if c >= n])

    for c, y in pivots.items():
        if c >= n and not fe_is_zero(combine(y)):
            return None
    return [combine(pivots[j]) for j in range(n)]
