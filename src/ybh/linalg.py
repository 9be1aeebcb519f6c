"""Exact Gaussian elimination over Q and F_p: RREF, kernels, solving, span tests.

One elimination pass per matrix, run on first use and cached on the
ExactMatrix (matrices are not modified after construction), answers every
question asked of it.  The pass is Gauss-Jordan on sparse row dicts with a
column -> rows index, so a pivot step touches only the rows holding the pivot
column.  Pivots are deterministic (in column order, the first row at or below
the current pivot row), so reduced forms and bases are reproducible.  Over Q
rows are kept primitive (coprime integers, positive leading entry), which
keeps entries small, and pivots are normalized to 1 at the end; over F_p the
pivot row is made monic when chosen.  The pass records its row operations:
solve, image_membership, in_span and invert_matrix replay them on their
right-hand sides instead of eliminating an augmented matrix.

Truncated rings are rejected: they have zero divisors, and the package never
eliminates over them (matrix-vector evaluation lives on TensorMap instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, UnsupportedRingError
from .scalars import PrimeField, RationalField, TruncatedRing


def _require_base_field(field, what: str):
    if isinstance(field, TruncatedRing):
        raise UnsupportedRingError(f"{what} over a truncated ring")
    if not isinstance(field, (RationalField, PrimeField)):
        raise InputError(f"unsupported coefficient ring {field!r}")


class ExactMatrix:
    """Sparse column-major exact matrix: {col: {row: scalar}}, no stored zeros."""

    __slots__ = ("field", "rows", "cols", "data", "_elimination")

    def __init__(self, field, rows: int, cols: int, data: dict | None = None):
        _require_base_field(field, "ExactMatrix")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data if data is not None else {}
        self._elimination = None

    @classmethod
    def from_entries(cls, field, rows, cols, entries):
        m = cls(field, rows, cols)
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise InputError(f"entry ({r},{c}) outside {rows}x{cols}")
            if not field.is_zero(v):
                col = m.data.setdefault(c, {})
                v = field.add(col[r], v) if r in col else v
                if field.is_zero(v):
                    col.pop(r, None)
                else:
                    col[r] = v
        m.data = {c: col for c, col in m.data.items() if col}
        return m

    @classmethod
    def from_columns(cls, field, rows, columns):
        """columns: list of sparse dicts {row: scalar} or dense lists."""
        m = cls(field, rows, len(columns))
        for c, col in enumerate(columns):
            items = col.items() if isinstance(col, dict) else enumerate(col)
            dst = {}
            for r, v in items:
                if not field.is_zero(v):
                    dst[r] = v
            if dst:
                m.data[c] = dst
        return m

    def entry(self, r: int, c: int):
        return self.data.get(c, {}).get(r, self.field.zero)

    def entries(self):
        for c in sorted(self.data):
            for r in sorted(self.data[c]):
                yield (r, c, self.data[c][r])

    def nnz(self) -> int:
        return sum(len(col) for col in self.data.values())

    def column(self, c: int) -> dict:
        return dict(self.data.get(c, {}))

    def matvec(self, v) -> list:
        """Exact M x for a dense list or sparse dict x."""
        field = self.field
        out = [field.zero] * self.rows
        items = v.items() if isinstance(v, dict) else enumerate(v)
        for c, x in items:
            if field.is_zero(x):
                continue
            col = self.data.get(c)
            if not col:
                continue
            for r, a in col.items():
                out[r] = field.add(out[r], field.mul(a, x))
        return out

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise InputError(f"matmul shape mismatch {self.cols} vs {other.rows}")
        field = self.field
        out = ExactMatrix(field, self.rows, other.cols)
        for j, bcol in other.data.items():
            acc = {}
            for k, bv in bcol.items():
                acol = self.data.get(k)
                if not acol:
                    continue
                for i, av in acol.items():
                    p = field.mul(av, bv)
                    acc[i] = field.add(acc[i], p) if i in acc else p
            acc = {i: v for i, v in acc.items() if not field.is_zero(v)}
            if acc:
                out.data[j] = acc
        return out

    def is_zero(self) -> bool:
        return not self.data

    # ------------------------------------------------------------------ elimination

    def _eliminated(self) -> "Elimination":
        """The cached elimination of this matrix, computed on first use."""
        if self._elimination is None:
            self._elimination = _eliminate(self)
        return self._elimination

    def rref(self):
        """Reduced row-echelon form; returns (ExactMatrix, pivot columns, rank)."""
        e = self._eliminated()
        out = ExactMatrix(self.field, self.rows, self.cols)
        for i, row in enumerate(e.reduced):
            for c, v in row.items():
                out.data.setdefault(c, {})[i] = v
        return out, list(e.pivots), e.rank

    def rank(self) -> int:
        return self._eliminated().rank

    # ------------------------------------------------------------------ derived objects

    def kernel_basis(self) -> list:
        """Null-space basis in canonical free-variable order (one basis vector
        per non-pivot column, with a 1 there and pivot rows filled in)."""
        e = self._eliminated()
        field = self.field
        pivset = set(e.pivots)
        basis = []
        for f in range(self.cols):
            if f in pivset:
                continue
            v = [field.zero] * self.cols
            v[f] = field.one
            for k, c in enumerate(e.pivots):
                coeff = e.reduced[k].get(f)
                if coeff is not None:
                    v[c] = field.neg(coeff)
            basis.append(v)
        return basis

    def image_membership(self, columns) -> list:
        """Column-space membership for many vectors: c_j lies in im(M) exactly
        when its replayed column is zero beyond rank(M)."""
        e = self._eliminated()
        return [all(i < e.rank for i in e.replay(col)) for col in columns]

    def solve(self, b):
        """Particular solution of M x = b with free variables zeroed, or a
        SolveCertificate recording the inconsistent reduced row."""
        items = b.items() if isinstance(b, dict) else enumerate(b)
        if not isinstance(b, dict) and len(b) != self.rows:
            raise InputError(f"rhs length {len(b)} != rows {self.rows}")
        rhs = {r: v for r, v in items if not self.field.is_zero(v)}
        if rhs and max(rhs) >= self.rows:
            raise InputError("rhs index outside matrix")
        e = self._eliminated()
        y = e.replay(rhs)
        beyond = [i for i in y if i >= e.rank]
        if beyond:
            # only the right-hand side can survive past the pivot rows
            i = min(beyond)
            return SolveCertificate(row_index=i, row={self.cols: y[i]},
                                    rank=e.rank, rank_augmented=e.rank + 1)
        x = [self.field.zero] * self.cols
        for k, v in y.items():
            x[e.pivots[k]] = v
        return x

    def __repr__(self):
        return f"ExactMatrix({self.field!r}, {self.rows}x{self.cols}, nnz={self.nnz()})"


@dataclass
class SolveCertificate:
    """Witness that b is outside the column space: after full elimination the
    reduced row `row_index` has zero matrix part but a nonzero rhs entry."""
    row_index: int
    row: dict
    rank: int
    rank_augmented: int

    def __bool__(self):
        return False


@dataclass
class Elimination:
    """The nonzero rows of a matrix's RREF and the row operations behind it.

    Rows keep fixed slots (their input indices); where[s] is slot s's final
    position, so the swaps are one permutation.  A step (s, m, targets,
    factors, divisors) is, over F_p: pivot row s times m, then each target
    minus f * row s; over Q: each target becomes (m * target - f * row s) / g
    with m the pivot entry.  Over Q, prescale made the input rows primitive
    and pivot_values are the final pivots.
    """
    field: object
    reduced: list
    pivots: list
    where: list
    steps: list
    prescale: dict
    pivot_values: list
    rank: int

    def replay(self, vector) -> dict:
        """The right-hand-side column that eliminating [M | vector] would
        leave, as {reduced-row position: nonzero value}."""
        field, where = self.field, self.where
        items = vector.items() if isinstance(vector, dict) else enumerate(vector)
        if isinstance(field, PrimeField):
            p = field.p
            y = {r: v % p for r, v in items if v % p}
            for s, inv, targets, factors, _ in self.steps:
                x = y.get(s)
                if x is None:
                    continue
                if inv != 1:
                    x = y[s] = x * inv % p
                for t, f in zip(targets, factors):
                    w = (y.get(t, 0) - f * x) % p
                    if w:
                        y[t] = w
                    else:
                        del y[t]
            return {where[s]: v for s, v in y.items()}
        y = {r: Fraction(v) * self.prescale.get(r, 1) for r, v in items if v}
        for s, a, targets, factors, divisors in self.steps:
            x = y.get(s, 0)
            for t, f, g in zip(targets, factors, divisors):
                yt = y.get(t, 0)
                if x or yt:
                    w = (a * yt - f * x) / g
                    if w:
                        y[t] = w
                    else:
                        del y[t]
        # pivot rows are normalized last; the rest stay primitive, and a
        # primitive row with one nonzero entry holds 1
        out = {}
        for s, v in y.items():
            k = where[s]
            out[k] = v / self.pivot_values[k] if k < self.rank else field.one
        return out


def _content(row: dict):
    """Divide a nonempty integer row by its content, signed so that the
    leading entry is positive; returns (row, divisor)."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row, g


def _eliminate(m: ExactMatrix) -> Elimination:
    """The single elimination pass (Gauss-Jordan, first-row pivoting)."""
    field = m.field
    p = field.p if isinstance(field, PrimeField) else None
    rows = [dict() for _ in range(m.rows)]
    for c, col in m.data.items():
        for r, v in col.items():
            rows[r][c] = v % p if p else v
    prescale = {}
    if p is None:
        for r, row in enumerate(rows):
            if row:
                den = lcm(*(v.denominator for v in row.values()))
                rows[r], g = _content({c: v.numerator * (den // v.denominator)
                                       for c, v in row.items()})
                if den != g:
                    prescale[r] = Fraction(den, g)
    holders = {c: set(col) for c, col in m.data.items()}
    order = list(range(m.rows))
    where = list(range(m.rows))
    pivots, steps = [], []
    for c in range(m.cols):
        pr = len(pivots)
        if pr == m.rows:
            break
        q = min((where[s] for s in holders.get(c, ()) if where[s] >= pr), default=None)
        if q is None:
            continue
        s, other = order[q], order[pr]
        order[pr], order[q], where[s], where[other] = s, other, pr, q
        prow = rows[s]
        a = prow[c]
        if p:
            mult = pow(a, p - 2, p)
            if mult != 1:
                prow = rows[s] = {cc: v * mult % p for cc, v in prow.items()}
            a = 1
        else:
            mult = a
        targets = [t for t in holders[c] if t != s]
        factors, divisors = [], []
        for t in targets:
            row = rows[t]
            f = row[c]
            if a != 1:
                row = {cc: a * v for cc, v in row.items()}
            for cc, v in prow.items():
                old = row.get(cc)
                if old is None:
                    row[cc] = -f * v % p if p else -f * v
                    holders[cc].add(t)
                    continue
                w = old - f * v
                if p:
                    w %= p
                if w:
                    row[cc] = w
                else:
                    del row[cc]
                    holders[cc].discard(t)
            if p is None:
                row, g = _content(row) if row else (row, 1)
                divisors.append(g)
            rows[t] = row
            factors.append(f)
        if targets or (p and mult != 1):  # otherwise the step moves no right-hand side
            steps.append((s, mult, targets, factors, divisors))
        pivots.append(c)
    pivot_values = []
    if p is None:
        for k, c in enumerate(pivots):
            s = order[k]
            a = rows[s][c]
            pivot_values.append(a)
            rows[s] = {cc: Fraction(v, a) for cc, v in rows[s].items()}
    return Elimination(field, [rows[s] for s in order[:len(pivots)]], pivots, where,
                       steps, prescale, pivot_values, len(pivots))


def in_span(basis, v, field):
    """Exact membership of v in span(basis); returns (bool, coords or None)."""
    if not basis:
        items = v.items() if isinstance(v, dict) else enumerate(v)
        ok = all(field.is_zero(x) for _, x in items)
        return (ok, [] if ok else None)
    n = len(basis[0]) if not isinstance(basis[0], dict) else None
    if n is not None:
        for col in basis:
            if len(col) != n:
                raise InputError("in_span: inconsistent column lengths")
        if not isinstance(v, dict) and len(v) != n:
            raise InputError("in_span: vector length mismatch")
    m = ExactMatrix.from_columns(field, n if n is not None else _dict_rows(basis, v), basis)
    sol = m.solve(v)
    if isinstance(sol, SolveCertificate):
        return (False, None)
    return (True, sol)


def _dict_rows(basis, v):
    top = 0
    for col in basis:
        if col:
            top = max(top, max(col) + 1)
    if isinstance(v, dict) and v:
        top = max(top, max(v) + 1)
    return top


def invert_matrix(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix; InputError when singular."""
    if m.rows != m.cols:
        raise InputError("invert_matrix needs a square matrix")
    e = m._eliminated()
    if e.rank < m.rows:
        raise InputError("matrix is singular")
    out = ExactMatrix(m.field, m.rows, m.cols)
    for j in range(m.cols):
        # the pivots are 0..n-1, so the solution of M x = e_j is the replay itself
        col = e.replay({j: m.field.one})
        if col:
            out.data[j] = col
    return out
