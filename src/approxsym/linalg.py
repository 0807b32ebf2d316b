"""Exact linear algebra over the rationals extended by symbolic constants.

Entries are either plain Fractions (the fast path) or canonical expressions
in declared constants, treated as independent transcendentals: any entry
whose zero test succeeds is a valid pivot, and an Unknown zero test raises
SymbolicPivotAmbiguity.  Rows are sparse dicts keyed by column index.

Two eliminations serve two jobs.  ``sparse_rref`` reduces the homogeneous
systems built from ``split_constants``: the determining equations, and the
rows of ``coefficient_rows`` (span fits, law dependencies, basis
independence); every entry lies in Q(constants), so every entry may be
zero-tested.  ``solve_dense`` solves the small affine system of the
Euler-Lagrange equations for the accelerations; its right-hand sides hold
arbitrary jet expressions (exp(u0), radicals) whose zero test can be
Unknown, so it zero-tests pivot-column entries, and right-hand sides only
of the rows left without a pivot, where a nonzero one makes the system
inconsistent; right-hand sides are never divided by.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from .errors import SymbolicPivotAmbiguity

__all__ = ["fe_add", "fe_mul", "fe_div", "fe_neg", "fe_is_zero", "fe_expr",
           "split_constants", "coefficient_rows", "span_fits", "sparse_rref",
           "nullspace", "solve_dense"]

FE = Fraction | ex.Expr


def fe_expr(a: FE) -> ex.Expr:
    return ex.rat(a) if isinstance(a, Fraction) else a


def _demote(e: ex.Expr) -> FE:
    return e.value if isinstance(e, ex.Rat) else e


def fe_add(a: FE, b: FE) -> FE:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return _demote(ex.expand(ex.add(fe_expr(a), fe_expr(b))))


def fe_mul(a: FE, b: FE) -> FE:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return _demote(ex.expand(ex.mul(fe_expr(a), fe_expr(b))))


def fe_neg(a: FE) -> FE:
    return -a if isinstance(a, Fraction) else _demote(ex.neg(a))


def fe_div(a: FE, b: FE) -> FE:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a / b
    return _demote(ex.expand(ex.div(fe_expr(a), fe_expr(b))))


def fe_is_zero(a: FE, where: str = "entry") -> bool:
    if isinstance(a, Fraction):
        return a == 0
    z = ex.is_zero(a)
    if z is ex.UNKNOWN:
        raise SymbolicPivotAmbiguity(a)
    return z


def _axpy(row: dict, pivot_row: dict, factor: FE) -> dict:
    """row + factor * pivot_row, dropping zero entries."""
    out = dict(row)
    for c, v in pivot_row.items():
        nv = fe_add(out.get(c, Fraction(0)), fe_mul(factor, v))
        if fe_is_zero(nv):
            out.pop(c, None)
        else:
            out[c] = nv
    return out


def _clean(row: dict) -> dict:
    return {c: v for c, v in row.items() if not fe_is_zero(v)}


def sparse_rref(rows: list[dict], ncols: int) -> dict[int, dict]:
    """Reduced row echelon form; returns {pivot column: normalized row}.

    Pivot columns are chosen in increasing index order; plain-rational
    entries are preferred as pivots within a column to keep symbolic
    denominators out of the elimination where possible.
    """
    pivots: dict[int, dict] = {}
    pending = [_clean(r) for r in rows]
    pending = [r for r in pending if r]
    progress = True
    while pending:
        # reduce every pending row against current pivots, then promote one
        reduced = []
        for row in pending:
            while True:
                hit = None
                for c in sorted(row):
                    if c in pivots:
                        hit = c
                        break
                if hit is None:
                    break
                row = _axpy(row, pivots[hit], fe_neg(row[hit]))
            if row:
                reduced.append(row)
        if not reduced:
            break
        # promote the row whose leading column is smallest; prefer rational pivots
        def sort_key(r):
            lead = min(r)
            rational = isinstance(r[lead], Fraction)
            return (lead, 0 if rational else 1, len(r))
        reduced.sort(key=sort_key)
        row = reduced[0]
        lead = min(row)
        inv = fe_div(Fraction(1), row[lead])
        row = {c: fe_mul(inv, v) for c, v in row.items()}
        row[lead] = Fraction(1)
        # eliminate the new pivot column from existing pivot rows
        for pc, prow in list(pivots.items()):
            if lead in prow:
                pivots[pc] = _axpy(prow, row, fe_neg(prow[lead]))
        pivots[lead] = row
        pending = reduced[1:]
    return pivots


def nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """Basis of {x : A x = 0}, one sparse vector per free column."""
    pivots = sparse_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = {f: Fraction(1)}
        for pc, prow in pivots.items():
            if f in prow:
                vec[pc] = fe_neg(prow[f])
        basis.append(vec)
    return basis


def split_constants(e: ex.Expr, constants) -> dict[tuple, FE]:
    """Zero normal form of e as {signature: entry over Q(constants)}.

    A signature is a normal-form monomial key with the powers of declared
    constants removed; those powers move into the entry, and entries whose
    signatures coincide are summed.  Signatures keep the normal form's
    atom order.
    """
    nf, _ = ex._zero_normal_form(e)
    out: dict[tuple, FE] = {}
    for mono, value in nf.items():
        const_part = [ex.rat(value)]
        sig = []
        for atom, power in mono:
            if isinstance(atom, ex.Sym) and atom.name in constants:
                const_part.append(ex.pow_(atom, power))
            else:
                sig.append((atom, power))
        sig = tuple(sig)
        entry = _demote(ex.mul(*const_part))
        prev = out.get(sig)
        out[sig] = entry if prev is None else fe_add(prev, entry)
    return out


def coefficient_rows(columns: list[list[ex.Expr]], constants) -> list[dict[int, FE]]:
    """Rows of sum_j c_j * columns[j] = 0 over Q(constants).

    Each column is a list of expressions indexed by tag (an eps order, a
    flux component); there is one row per (tag, signature of
    ``split_constants``), as {column: entry}.  Rows come in order of first
    appearance: column by column, tag by tag, signatures in normal-form
    order.  That order reaches printed output: entries over Q(constants)
    have no canonical form, so another row order makes the elimination
    print another, equal expression.  With the keys of
    ``_zero_normal_form``'s dict reversed, the Xi6 coefficient in
    ``golden --model three-body`` reads -m2*(1 + m2*m1^(-1))^(-1) instead
    of m1*(-1 - m1*m2^(-1))^(-1).
    """
    rows: dict[tuple, dict[int, FE]] = {}
    for col, parts in enumerate(columns):
        for tag, e in enumerate(parts):
            for sig, entry in split_constants(e, constants).items():
                rows.setdefault((tag, sig), {})[col] = entry
    return list(rows.values())


def span_fits(columns: list[list[ex.Expr]], constants):
    """Solutions of sum_j c_j * columns[j] = columns[-1] over Q(constants).

    Columns are as in ``coefficient_rows``.  Yields one {j: c_j} per null
    vector of [columns[:-1] | -columns[-1]] with a nonzero target
    coordinate, zero coordinates omitted.
    """
    target = len(columns) - 1
    rows = coefficient_rows(columns, constants)
    for row in rows:
        if target in row:
            row[target] = fe_neg(row[target])
    for vec in nullspace(rows, len(columns)):
        t = vec.get(target)
        if t is not None and not fe_is_zero(t):
            yield {j: fe_div(v, t) for j, v in vec.items()
                   if j != target and not fe_is_zero(v)}


def solve_dense(matrix: list[list[ex.Expr]], rhs: list[ex.Expr]) -> list[ex.Expr] | None:
    """Gauss-Jordan elimination of a small dense system with expression entries.

    Tolerates redundant rows; the number of unknowns is the row width.
    Returns None when some column has no nonzero pivot, or when a row left
    without a pivot has a nonzero right-hand side (the system is
    inconsistent).  Raises SymbolicPivotAmbiguity when the zero test of a
    pivot candidate or of such a right-hand side is Unknown.
    """
    nvars = len(matrix[0]) if matrix else 0
    aug = [list(row) + [r] for row, r in zip(matrix, rhs)]
    pivots: dict[int, int] = {}  # pivot row -> column
    for col in range(nvars):
        piv = None
        for r in range(len(aug)):
            if r in pivots:
                continue
            z = ex.is_zero(aug[r][col])
            if z is ex.UNKNOWN:
                raise SymbolicPivotAmbiguity(aug[r][col])
            if z is False:
                piv = r
                break
        if piv is None:
            return None
        inv = ex.div(ex.ONE, aug[piv][col])
        aug[piv] = [ex.mul(inv, v) for v in aug[piv]]
        for r in range(len(aug)):
            if r != piv:
                f = aug[r][col]
                if ex.is_zero(f) is not True:
                    aug[r] = [ex.sub(a, ex.mul(f, b)) for a, b in zip(aug[r], aug[piv])]
        pivots[piv] = col
    for r in range(len(aug)):
        if r not in pivots:
            z = ex.is_zero(aug[r][nvars])
            if z is ex.UNKNOWN:
                raise SymbolicPivotAmbiguity(aug[r][nvars])
            if z is False:
                return None
    out = [None] * nvars
    for r, col in pivots.items():
        out[col] = aug[r][nvars]
    return out
