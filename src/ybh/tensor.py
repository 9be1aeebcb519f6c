"""Linear maps between tensor powers of V with arity-checked composition.

A TensorMap is a map V^{otimes n} -> V^{otimes k} stored as a d^k x d^n
coefficient grid.  Basis multi-indices are encoded lexicographically,
index = sum_t i_t * d^(n-1-t) with i_0 the leftmost tensor factor, and the
grid is linearized row-major (position = row * d^n + col) by flatten().
Both conventions are fixed once here and shared by the file formats.

Two storage layouts sit behind one interface: sparse {col: {row: scalar}},
exact over any ring, and dense numpy int64 residue matrices (one per
hbar-degree over a truncated ring).  One rule decides between them, "dense
in, dense out":

* dense storage is created only by random_map over a plain prime field and
  by truncated_from_parts over a prime base;
* compose, tensor and + run on numpy exactly when the ring is prime-based,
  at least one operand is already dense, and every grid involved (both
  operands and the result) has at most _DENSE_CELLS cells; the sparse
  operand is then converted.  Every other case runs sparse.
"""

from __future__ import annotations

import numpy as np

from .errors import ArityError, InputError
from .scalars import PrimeField, TruncatedRing, base_of

# Above this many grid cells, prime-field maps stay sparse.
_DENSE_CELLS = 1 << 22


def encode_index(digits, d: int) -> int:
    idx = 0
    for t in digits:
        if not 0 <= t < d:
            raise InputError(f"basis index {t} out of range for dimension {d}")
        idx = idx * d + t
    return idx


def decode_index(idx: int, d: int, n: int) -> tuple:
    digits = [0] * n
    for t in range(n - 1, -1, -1):
        digits[t] = idx % d
        idx //= d
    return tuple(digits)


def _ring_key(ring):
    if isinstance(ring, TruncatedRing):
        return ("trunc", ring.order) + _ring_key(ring.base)
    return (ring.kind, getattr(ring, "p", None))


def _is_prime_based(ring) -> bool:
    return isinstance(base_of(ring), PrimeField)


class TensorMap:
    __slots__ = ("field", "dim", "in_arity", "out_arity", "_rep", "_data")

    def __init__(self, field, dim, in_arity, out_arity, rep, data):
        if dim < 1 or in_arity < 0 or out_arity < 0:
            raise InputError("need dim >= 1 and nonnegative arities")
        self.field = field
        self.dim = dim
        self.in_arity = in_arity
        self.out_arity = out_arity
        self._rep = rep
        self._data = data

    @property
    def rows(self) -> int:
        return self.dim ** self.out_arity

    @property
    def cols(self) -> int:
        return self.dim ** self.in_arity

    # ------------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, field, dim, in_arity, out_arity):
        return cls(field, dim, in_arity, out_arity, "sparse", {})

    @classmethod
    def from_entries(cls, field, dim, in_arity, out_arity, entries):
        """entries: iterable of (row, col, scalar); duplicates accumulate."""
        m = cls.zero(field, dim, in_arity, out_arity)
        rows, cols = m.rows, m.cols
        data = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise InputError(f"entry ({r},{c}) outside {rows}x{cols} grid")
            col = data.setdefault(c, {})
            v = field.add(col[r], v) if r in col else v
            if field.is_zero(v):
                col.pop(r, None)
            else:
                col[r] = v
        m._data = {c: col for c, col in data.items() if col}
        return m

    @classmethod
    def identity(cls, field, dim, arity):
        one = field.one
        data = {c: {c: one} for c in range(dim ** arity)}
        return cls(field, dim, arity, arity, "sparse", data)

    @classmethod
    def permutation(cls, field, dim, arity, slot_source):
        """Basis permutation: output slot j carries input slot slot_source[j]."""
        if sorted(slot_source) != list(range(arity)):
            raise InputError(f"{slot_source!r} is not a permutation of 0..{arity - 1}")
        one = field.one
        data = {}
        for c in range(dim ** arity):
            digits = decode_index(c, dim, arity)
            r = encode_index([digits[slot_source[j]] for j in range(arity)], dim)
            data[c] = {r: one}
        return cls(field, dim, arity, arity, "sparse", data)

    def with_shape(self, dim, in_arity, out_arity):
        """Reinterpret the same grid under a different (dim, arity) split.

        Valid because the lexicographic encoding of V^(2n) over dim d equals
        the encoding of (V tensor V)^n over dim d^2; used to regroup maps
        built factorwise on X tensor X into maps on V = X tensor X.
        """
        if dim ** in_arity != self.cols or dim ** out_arity != self.rows:
            raise InputError("grid shape does not match requested arities")
        return TensorMap(self.field, dim, in_arity, out_arity, self._rep, self._data)

    # ------------------------------------------------------------------ storage

    def _prime(self):
        return base_of(self.field).p

    def to_sparse_data(self) -> dict:
        if self._rep == "sparse":
            return self._data
        if isinstance(self.field, TruncatedRing):
            m = self.field.order
            data = {}
            for t, arr in enumerate(self._data):
                for r, c in zip(*np.nonzero(arr)):
                    col = data.setdefault(int(c), {})
                    cur = col.get(int(r))
                    if cur is None:
                        cur = list(self.field.zero)
                        col[int(r)] = cur
                    cur[t] = int(arr[r, c])
            return {c: {r: tuple(v) for r, v in col.items()} for c, col in data.items()}
        arr = self._data
        data = {}
        for r, c in zip(*np.nonzero(arr)):
            data.setdefault(int(c), {})[int(r)] = int(arr[r, c])
        return data

    def _as_sparse(self) -> "TensorMap":
        if self._rep == "sparse":
            return self
        return TensorMap(self.field, self.dim, self.in_arity, self.out_arity,
                         "sparse", self.to_sparse_data())

    def _as_dense(self) -> "TensorMap":
        if self._rep == "dense":
            return self
        p = self._prime()
        trunc = isinstance(self.field, TruncatedRing)
        arrs = [np.zeros((self.rows, self.cols), dtype=np.int64)
                for _ in range(self.field.order if trunc else 1)]
        for c, col in self._data.items():
            for r, v in col.items():
                for t, x in enumerate(v if trunc else (v,)):
                    arrs[t][r, c] = x % p
        return TensorMap(self.field, self.dim, self.in_arity, self.out_arity,
                         "dense", arrs if trunc else arrs[0])

    def _dense_with(self, other: "TensorMap", out_cells: int) -> bool:
        """The storage rule: numpy exactly when the ring is prime-based, an
        operand is already dense and no grid exceeds _DENSE_CELLS."""
        return (_is_prime_based(self.field) and "dense" in (self._rep, other._rep)
                and max(self.rows * self.cols, other.rows * other.cols,
                        out_cells) <= _DENSE_CELLS)

    # ------------------------------------------------------------------ compatibility

    def _require_same_ring(self, other: "TensorMap", what: str):
        if _ring_key(self.field) != _ring_key(other.field):
            raise InputError(f"{what}: mismatched coefficient rings")
        if self.dim != other.dim:
            raise InputError(f"{what}: dimension mismatch {self.dim} vs {other.dim}")

    # ------------------------------------------------------------------ composition

    def compose(self, other: "TensorMap") -> "TensorMap":
        """self after other; arities (other.in -> self.out)."""
        self._require_same_ring(other, "compose")
        if other.out_arity != self.in_arity:
            raise ArityError(self.in_arity, other.out_arity,
                             f"composing ({other.in_arity}->{other.out_arity}) "
                             f"into ({self.in_arity}->{self.out_arity})")
        if self._dense_with(other, self.rows * other.cols):
            return self._compose_dense(other)
        return self._as_sparse()._compose_sparse(other._as_sparse())

    def _compose_dense(self, other: "TensorMap") -> "TensorMap":
        p = self._prime()
        a, b = self._as_dense()._data, other._as_dense()._data
        if isinstance(self.field, TruncatedRing):
            m = self.field.order
            out = [np.zeros((self.rows, other.cols), dtype=np.int64) for _ in range(m)]
            for i in range(m):
                for j in range(m - i):
                    out[i + j] = (out[i + j] + _matmul_mod(a[i], b[j], p)) % p
            return TensorMap(self.field, self.dim, other.in_arity, self.out_arity, "dense", out)
        return TensorMap(self.field, self.dim, other.in_arity, self.out_arity,
                         "dense", _matmul_mod(a, b, p))

    def _compose_sparse(self, other: "TensorMap") -> "TensorMap":
        field = self.field
        add, mul, is_zero = field.add, field.mul, field.is_zero
        a, b = self._data, other._data
        data = {}
        for j, bcol in b.items():
            acc = {}
            for k, bv in bcol.items():
                acol = a.get(k)
                if not acol:
                    continue
                for i, av in acol.items():
                    prod = mul(av, bv)
                    acc[i] = add(acc[i], prod) if i in acc else prod
            acc = {i: v for i, v in acc.items() if not is_zero(v)}
            if acc:
                data[j] = acc
        return TensorMap(field, self.dim, other.in_arity, self.out_arity, "sparse", data)

    # ------------------------------------------------------------------ tensor product

    def tensor(self, other: "TensorMap") -> "TensorMap":
        """Kronecker product consistent with the lexicographic encoding."""
        self._require_same_ring(other, "tensor_product")
        n = self.in_arity + other.in_arity
        k = self.out_arity + other.out_arity
        cells = self.rows * other.rows * self.cols * other.cols
        if self._dense_with(other, cells):
            p = self._prime()
            a, b = self._as_dense()._data, other._as_dense()._data
            if isinstance(self.field, TruncatedRing):
                m = self.field.order
                out = [np.zeros((self.rows * other.rows, self.cols * other.cols),
                                dtype=np.int64) for _ in range(m)]
                for i in range(m):
                    for j in range(m - i):
                        out[i + j] = (out[i + j] + np.kron(a[i], b[j])) % p
                return TensorMap(self.field, self.dim, n, k, "dense", out)
            return TensorMap(self.field, self.dim, n, k, "dense", np.kron(a, b) % p)
        f, g = self._as_sparse(), other._as_sparse()
        field = self.field
        mul, is_zero = field.mul, field.is_zero
        grows, gcols = g.rows, g.cols
        data = {}
        for cf, colf in f._data.items():
            for cg, colg in g._data.items():
                c = cf * gcols + cg
                col = data.setdefault(c, {})
                for rf, vf in colf.items():
                    for rg, vg in colg.items():
                        v = mul(vf, vg)
                        if not is_zero(v):
                            col[rf * grows + rg] = v
        return TensorMap(field, self.dim, n, k, "sparse", {c: col for c, col in data.items() if col})

    # ------------------------------------------------------------------ linear structure

    def _require_same_shape(self, other: "TensorMap", what: str):
        self._require_same_ring(other, what)
        if self.in_arity != other.in_arity or self.out_arity != other.out_arity:
            raise InputError(f"{what}: arity mismatch ({self.in_arity}->{self.out_arity}) "
                             f"vs ({other.in_arity}->{other.out_arity})")

    def __add__(self, other: "TensorMap") -> "TensorMap":
        self._require_same_shape(other, "add")
        if self._dense_with(other, self.rows * self.cols):
            p = self._prime()
            a, b = self._as_dense()._data, other._as_dense()._data
            if isinstance(self.field, TruncatedRing):
                out = [(x + y) % p for x, y in zip(a, b)]
            else:
                out = (a + b) % p
            return TensorMap(self.field, self.dim, self.in_arity, self.out_arity, "dense", out)
        a, b = self._as_sparse(), other._as_sparse()
        field = self.field
        data = {c: dict(col) for c, col in a._data.items()}
        for c, col in b._data.items():
            dst = data.setdefault(c, {})
            for r, v in col.items():
                s = field.add(dst[r], v) if r in dst else v
                if field.is_zero(s):
                    dst.pop(r, None)
                else:
                    dst[r] = s
        return TensorMap(field, self.dim, self.in_arity, self.out_arity,
                         "sparse", {c: col for c, col in data.items() if col})

    def scale(self, s) -> "TensorMap":
        field = self.field
        if field.is_zero(s):
            return TensorMap.zero(field, self.dim, self.in_arity, self.out_arity)
        if self._rep == "dense":
            p = self._prime()
            if isinstance(field, TruncatedRing):
                out = [np.zeros_like(self._data[0]) for _ in range(field.order)]
                for i, si in enumerate(s):
                    if si % p:
                        for j in range(field.order - i):
                            out[i + j] = (out[i + j] + si * self._data[j]) % p
                return TensorMap(field, self.dim, self.in_arity, self.out_arity, "dense", out)
            return TensorMap(field, self.dim, self.in_arity, self.out_arity,
                             "dense", (self._data * (s % p)) % p)
        mul, is_zero = field.mul, field.is_zero
        data = {}
        for c, col in self._data.items():
            nc = {r: w for r, w in ((r, mul(s, v)) for r, v in col.items()) if not is_zero(w)}
            if nc:
                data[c] = nc
        return TensorMap(field, self.dim, self.in_arity, self.out_arity, "sparse", data)

    def __neg__(self) -> "TensorMap":
        return self.scale(self.field.neg(self.field.one))

    def __sub__(self, other: "TensorMap") -> "TensorMap":
        return self + (-other)

    # ------------------------------------------------------------------ predicates

    def is_zero(self) -> bool:
        if self._rep == "dense":
            p = self._prime()
            arrs = self._data if isinstance(self.field, TruncatedRing) else [self._data]
            return all(not (a % p).any() for a in arrs)
        return not self._data

    def __eq__(self, other):
        if not isinstance(other, TensorMap):
            return NotImplemented
        if (self.dim, self.in_arity, self.out_arity) != (other.dim, other.in_arity, other.out_arity):
            return False
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("TensorMap is not hashable")

    # ------------------------------------------------------------------ access

    def entry(self, row: int, col: int):
        if self._rep == "dense":
            if isinstance(self.field, TruncatedRing):
                return tuple(int(a[row, col]) for a in self._data)
            return int(self._data[row, col])
        return self._data.get(col, {}).get(row, self.field.zero)

    def entries(self):
        """Iterate (row, col, scalar) over nonzero entries, column-major sorted."""
        data = self.to_sparse_data()
        for c in sorted(data):
            col = data[c]
            for r in sorted(col):
                yield (r, c, col[r])

    def nnz(self) -> int:
        data = self.to_sparse_data()
        return sum(len(col) for col in data.values())

    # ------------------------------------------------------------------ flattening

    def flatten_sparse(self) -> dict:
        """Row-major linearization {row * cols + col: scalar}."""
        cols = self.cols
        return {r * cols + c: v for r, c, v in self.entries()}

    def flatten(self) -> list:
        out = [self.field.zero] * (self.rows * self.cols)
        for pos, v in self.flatten_sparse().items():
            out[pos] = v
        return out

    def __repr__(self):
        return (f"TensorMap({self.field!r}, d={self.dim}, "
                f"{self.in_arity}->{self.out_arity}, nnz={self.nnz()})")


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # int64 is safe: entries sit in [0, p), p < 2^31, and we reduce blockwise
    # before the accumulant can reach 2^63 (k * p^2 bound).
    k = a.shape[1]
    if k * (p - 1) * (p - 1) < (1 << 62):
        return (a @ b) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    step = max(1, (1 << 62) // ((p - 1) * (p - 1)))
    for lo in range(0, k, step):
        out = (out + a[:, lo:lo + step] @ b[lo:lo + step, :]) % p
    return out


def identity_map(field, d: int, n: int) -> TensorMap:
    return TensorMap.identity(field, d, n)


def tensor_product(f: TensorMap, g: TensorMap) -> TensorMap:
    return f.tensor(g)


def compose(f: TensorMap, *rest: TensorMap) -> TensorMap:
    """compose(f, g, h, ...) = f o g o h o ... (rightmost applied first)."""
    out = f
    for g in rest:
        out = out.compose(g)
    return out


def linear_combination(terms) -> TensorMap:
    terms = list(terms)
    if not terms:
        raise InputError("linear_combination needs at least one term")
    _, first = terms[0]
    out = None
    for s, t in terms:
        if (t.dim, t.in_arity, t.out_arity) != (first.dim, first.in_arity, first.out_arity):
            raise InputError("linear_combination: mixed shapes")
        part = t.scale(s)
        out = part if out is None else out + part
    return out


def transposition(field, d: int) -> TensorMap:
    """tau: x tensor y -> y tensor x."""
    return TensorMap.permutation(field, d, 2, [1, 0])


def reversal_map(field, d: int, n: int) -> TensorMap:
    """Tensor-factor reversal on V^(otimes n)."""
    return TensorMap.permutation(field, d, n, list(range(n - 1, -1, -1)))


def unflatten(column, field, d: int, n: int, k: int) -> TensorMap:
    rows, cols = d ** k, d ** n
    if isinstance(column, dict):
        items = column.items()
        size = rows * cols
    else:
        items = enumerate(column)
        size = len(column)
    if size != rows * cols:
        raise InputError(f"column of length {size} cannot fill a {rows}x{cols} grid")
    entries = []
    for pos, v in items:
        if not 0 <= pos < rows * cols:
            raise InputError(f"position {pos} outside grid")
        if not field.is_zero(v):
            entries.append((pos // cols, pos % cols, v))
    return TensorMap.from_entries(field, d, n, k, entries)


def truncated_from_parts(ring: TruncatedRing, parts) -> TensorMap:
    """Assemble sum_j hbar^j parts[j] over a truncated ring; None parts are zero."""
    parts = list(parts)
    if len(parts) > ring.order:
        raise InputError(f"{len(parts)} parts exceed truncation order {ring.order}")
    shapes = {(t.dim, t.in_arity, t.out_arity) for t in parts if t is not None}
    if len(shapes) != 1:
        raise InputError("truncated_from_parts: parts must share one shape")
    (d, n, k), = shapes
    first = next(t for t in parts if t is not None)
    if _is_prime_based(first.field) and first.rows * first.cols <= _DENSE_CELLS:
        arrs = []
        for j in range(ring.order):
            if j < len(parts) and parts[j] is not None:
                arrs.append(parts[j]._as_dense()._data.copy())
            else:
                arrs.append(np.zeros((d ** k, d ** n), dtype=np.int64))
        return TensorMap(ring, d, n, k, "dense", arrs)
    data = {}
    for j, t in enumerate(parts):
        if t is None:
            continue
        for r, c, v in t.entries():
            col = data.setdefault(c, {})
            tup = col.get(r)
            if tup is None:
                tup = list(ring.zero)
                col[r] = tup
            tup[j] = v
    data = {c: {r: tuple(v) for r, v in col.items()} for c, col in data.items()}
    return TensorMap(ring, d, n, k, "sparse", data)


def truncated_part(t: TensorMap, j: int) -> TensorMap:
    """Coefficient of hbar^j of a truncated-ring map, as a base-field map."""
    ring = t.field
    if not isinstance(ring, TruncatedRing):
        raise InputError("truncated_part needs a truncated-ring map")
    base = ring.base
    if t._rep == "dense":
        return TensorMap(base, t.dim, t.in_arity, t.out_arity, "dense",
                         t._data[j] % base.p)
    entries = []
    for c, col in t._data.items():
        for r, tup in col.items():
            if not base.is_zero(tup[j]):
                entries.append((r, c, tup[j]))
    return TensorMap.from_entries(base, t.dim, t.in_arity, t.out_arity, entries)


def random_map(field, d: int, n: int, k: int, rng, span: int = 9) -> TensorMap:
    """Dense random map; dense numpy over prime fields, sparse otherwise."""
    rows, cols = d ** k, d ** n
    if _is_prime_based(field) and not isinstance(field, TruncatedRing) \
            and rows * cols <= _DENSE_CELLS:
        arr = np.empty((rows, cols), dtype=np.int64)
        for r in range(rows):
            for c in range(cols):
                arr[r, c] = field.random(rng)
        return TensorMap(field, d, n, k, "dense", arr)
    entries = []
    for r in range(rows):
        for c in range(cols):
            v = field.random(rng, span)
            if not field.is_zero(v):
                entries.append((r, c, v))
    return TensorMap.from_entries(field, d, n, k, entries)
