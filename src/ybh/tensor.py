"""Linear maps between tensor powers of V with arity-checked composition.

A TensorMap is a map V^{otimes n} -> V^{otimes k} stored as a d^k x d^n
coefficient grid.  Basis multi-indices are encoded lexicographically,
index = sum_t i_t * d^(n-1-t) with i_0 the leftmost tensor factor, and the
grid is linearized row-major (position = row * d^n + col) by flatten().
Both conventions are fixed once here and shared by the file formats.

Two storage layouts sit behind one interface: sparse {col: {row: scalar}},
exact over any ring, and dense, one numpy int64 array of shape
(order, rows, cols) with entries in [0, p).  Layer j of that residue stack
holds the hbar^j coefficients over F_p[hbar]/(hbar^order); over F_p itself
order is 1.  A scalar is the coefficient tuple of one cell, or its single
element over a field.  Dense compose, tensor and scale are one truncated
Cauchy product of stacks (_cauchy), so a truncated ring is no special case.
numpy is imported inside the dense branches, so a process whose maps all
stay sparse (every map over Q, say) never loads it.  One rule decides
between the layouts, "dense in, dense out":

* dense storage is created only by random_map over a plain prime field and
  by truncated_from_parts over a prime base;
* compose, tensor and + run on numpy exactly when the ring is prime-based,
  at least one operand is already dense, and every grid involved (both
  operands and the result) has at most _DENSE_CELLS cells; the sparse
  operand is then converted.  Every other case runs sparse.

Sparse composition is driven by sparsity.  compose(f, g, h, ...) starts from
the factor with the fewest stored columns (len(_data) when sparse, cols when
dense), absorbs every factor to its left and then every factor to its right;
composition is exactly associative, so the product is the same map.  Each
sparse product a o b runs from the operand with fewer stored columns: for
every stored column of b it gathers columns of a (column route), or for
every stored column k of a it scatters row k of b (row route).  The row
route reads b through a {row: {col: scalar}} index built on first use and
kept on the map (maps are immutable), so a structure lift such as R (x) 1,
composed with many one-column cochain lifts, builds its index once.

Two structural operations cost no scalar arithmetic on sparse maps.  When
one factor of a Kronecker product is an identity, f (x) 1_n and 1_n (x) f
only re-index the stored entries of f: column cf*n' + c of f (x) 1_n is
{rf*n' + c: v} and column c*fcols + cf of 1_n (x) f is {c*frows + rf: v},
with n' = d^n.  a + b and a - b are one pass over b's entries (field.add or
field.sub where both have an entry, v or field.neg(v) where only b has one).
"""

from __future__ import annotations

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


def same_ring(a, b) -> bool:
    """Whether a and b are the same coefficient ring: same kind, prime and
    truncation order, compared by identity first."""
    return a is b or _ring_key(a) == _ring_key(b)


def _is_prime_based(ring) -> bool:
    return isinstance(base_of(ring), PrimeField)


def _coefficients(ring):
    """v -> the layer coefficients of a ring scalar v: v itself over a
    truncated ring, (v,) over a field.  A dense map has one layer per
    coefficient."""
    return (lambda v: v) if isinstance(ring, TruncatedRing) else (lambda v: (v,))


def _scalars(ring, stack: np.ndarray) -> list:
    """The ring scalars held by the columns of an (order, n) residue stack."""
    if isinstance(ring, TruncatedRing):
        return list(map(tuple, stack.T.tolist()))
    return stack[0].tolist()


def _cauchy(op, a, b, p: int) -> np.ndarray:
    """Truncated Cauchy product of residue stacks: layer k of the result is
    sum_{i+j=k} op(a[i], b[j]) mod p, over the len(b) layers of b.  op takes
    residues in [0, p) and returns integers below p^2 (matrix product mod p,
    Kronecker product, scalar multiple), so no partial sum overflows."""
    import numpy as np
    layers = []
    for k in range(len(b)):
        acc = op(a[0], b[k]) % p
        for i in range(1, k + 1):
            acc = (acc + op(a[i], b[k - i])) % p
        layers.append(acc)
    return np.stack(layers)


class TensorMap:
    __slots__ = ("field", "dim", "in_arity", "out_arity", "_rep", "_data", "_rows")

    def __init__(self, field, dim, in_arity, out_arity, rep, data):
        if dim < 1 or in_arity < 0 or out_arity < 0:
            raise InputError("need dim >= 1 and nonnegative arities")
        self.field = field
        self.dim = dim
        self.in_arity = in_arity
        self.out_arity = out_arity
        self._rep = rep
        self._data = data
        self._rows = None

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
        zero = cls.zero(field, dim, in_arity, out_arity)   # validates the shape
        rows, cols = zero.rows, zero.cols
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
        return cls(field, dim, in_arity, out_arity, "sparse",
                   {c: col for c, col in data.items() if col})

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
        import numpy as np
        rs, cs = np.nonzero(self._data.any(axis=0))
        data = {}
        for r, c, v in zip(rs.tolist(), cs.tolist(),
                           _scalars(self.field, self._data[:, rs, cs])):
            data.setdefault(c, {})[r] = v
        return data

    def _as_sparse(self) -> "TensorMap":
        if self._rep == "sparse":
            return self
        return TensorMap(self.field, self.dim, self.in_arity, self.out_arity,
                         "sparse", self.to_sparse_data())

    def _as_dense(self) -> "TensorMap":
        if self._rep == "dense":
            return self
        import numpy as np
        coefficients, p = _coefficients(self.field), self._prime()
        layers = len(coefficients(self.field.zero))
        data = np.zeros((layers, self.rows, self.cols), dtype=np.int64)
        for c, col in self._data.items():
            for r, v in col.items():
                for j, x in enumerate(coefficients(v)):
                    data[j, r, c] = x % p
        return TensorMap(self.field, self.dim, self.in_arity, self.out_arity, "dense", data)

    def _dense_with(self, other: "TensorMap", out_cells: int) -> bool:
        """The storage rule: numpy exactly when the ring is prime-based, an
        operand is already dense and no grid exceeds _DENSE_CELLS."""
        return (_is_prime_based(self.field) and "dense" in (self._rep, other._rep)
                and max(self.rows * self.cols, other.rows * other.cols,
                        out_cells) <= _DENSE_CELLS)

    # ------------------------------------------------------------------ compatibility

    def _require_same_ring(self, other: "TensorMap", what: str):
        if not same_ring(self.field, other.field):
            raise InputError(f"{what}: mismatched coefficient rings")
        if self.dim != other.dim:
            raise InputError(f"{what}: dimension mismatch {self.dim} vs {other.dim}")

    # ------------------------------------------------------------------ composition

    def _require_composable(self, other: "TensorMap", out_arity: int):
        """Raise unless self can follow other; out_arity is the output arity
        named in the message (a chain's leftmost factor)."""
        self._require_same_ring(other, "compose")
        if other.out_arity != self.in_arity:
            raise ArityError(self.in_arity, other.out_arity,
                             f"composing ({other.in_arity}->{other.out_arity}) "
                             f"into ({self.in_arity}->{out_arity})")

    def _stored_cols(self) -> int:
        return len(self._data) if self._rep == "sparse" else self.cols

    def _row_index(self) -> dict:
        """{row: {col: scalar}} of a sparse map, built on first use and kept:
        _data is set only at construction."""
        if self._rows is None:
            rows = {}
            for c, col in self._data.items():
                for r, v in col.items():
                    rows.setdefault(r, {})[c] = v
            self._rows = rows
        return self._rows

    def compose(self, other: "TensorMap") -> "TensorMap":
        """self after other; arities (other.in -> self.out)."""
        self._require_composable(other, self.out_arity)
        if self._dense_with(other, self.rows * other.cols):
            return self._compose_dense(other)
        return self._as_sparse()._compose_sparse(other._as_sparse())

    def _compose_dense(self, other: "TensorMap") -> "TensorMap":
        p = self._prime()
        out = _cauchy(lambda x, y: _matmul_mod(x, y, p),
                      self._as_dense()._data, other._as_dense()._data, p)
        return TensorMap(self.field, self.dim, other.in_arity, self.out_arity, "dense", out)

    def _compose_sparse(self, other: "TensorMap") -> "TensorMap":
        """Driven from the operand with fewer stored columns: for each column
        of other gather columns of self, or for each column k of self
        scatter row k of other (read through other's cached row index)."""
        field = self.field
        add, mul, is_zero = field.add, field.mul, field.is_zero
        a, b = self._data, other._data
        data = {}
        if len(a) < len(b):
            brows = other._row_index()
            for k, acol in a.items():
                for j, bv in brows.get(k, {}).items():
                    acc = data.get(j)
                    if acc is None:
                        acc = data[j] = {}
                    for i, av in acol.items():
                        prod = mul(av, bv)
                        acc[i] = add(acc[i], prod) if i in acc else prod
        else:
            for j, bcol in b.items():
                acc = data[j] = {}
                for k, bv in bcol.items():
                    for i, av in a.get(k, {}).items():
                        prod = mul(av, bv)
                        acc[i] = add(acc[i], prod) if i in acc else prod
        out = {}
        for j, acc in data.items():
            col = {i: v for i, v in acc.items() if not is_zero(v)}
            if col:
                out[j] = col
        return TensorMap(field, self.dim, other.in_arity, self.out_arity, "sparse", out)

    # ------------------------------------------------------------------ tensor product

    def tensor(self, other: "TensorMap") -> "TensorMap":
        """Kronecker product consistent with the lexicographic encoding."""
        self._require_same_ring(other, "tensor_product")
        n = self.in_arity + other.in_arity
        k = self.out_arity + other.out_arity
        cells = self.rows * other.rows * self.cols * other.cols
        if self._dense_with(other, cells):
            import numpy as np
            out = _cauchy(np.kron, self._as_dense()._data, other._as_dense()._data,
                          self._prime())
            return TensorMap(self.field, self.dim, n, k, "dense", out)
        f, g = self._as_sparse(), other._as_sparse()
        field = self.field
        grows, gcols = g.rows, g.cols
        if g._is_identity():
            return TensorMap(field, self.dim, n, k, "sparse", {
                cf * gcols + c: {rf * grows + c: v for rf, v in colf.items()}
                for cf, colf in f._data.items() for c in g._data})
        if f._is_identity():
            return TensorMap(field, self.dim, n, k, "sparse", {
                c * gcols + cg: {c * grows + rg: v for rg, v in colg.items()}
                for c in f._data for cg, colg in g._data.items()})
        mul, is_zero = field.mul, field.is_zero
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
        return self._plus(other, False)

    def __sub__(self, other: "TensorMap") -> "TensorMap":
        return self._plus(other, True)

    def _plus(self, other: "TensorMap", subtract: bool) -> "TensorMap":
        """self + other, or self - other when subtract, in one pass."""
        self._require_same_shape(other, "sub" if subtract else "add")
        if self._dense_with(other, self.rows * self.cols):
            a, b = self._as_dense()._data, other._as_dense()._data
            out = (a - b if subtract else a + b) % self._prime()
            return TensorMap(self.field, self.dim, self.in_arity, self.out_arity, "dense", out)
        a, b = self._as_sparse(), other._as_sparse()
        field = self.field
        op, neg, is_zero = (field.sub if subtract else field.add), field.neg, field.is_zero
        data = {c: dict(col) for c, col in a._data.items()}
        for c, col in b._data.items():
            dst = data.setdefault(c, {})
            for r, v in col.items():
                s = op(dst[r], v) if r in dst else neg(v) if subtract else v
                if is_zero(s):
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
            import numpy as np
            p = self._prime()
            out = _cauchy(np.multiply, [x % p for x in _coefficients(field)(s)],
                          self._data, p)
            return TensorMap(self.field, self.dim, self.in_arity, self.out_arity, "dense", out)
        mul, is_zero = field.mul, field.is_zero
        data = {}
        for c, col in self._data.items():
            nc = {r: w for r, w in ((r, mul(s, v)) for r, v in col.items()) if not is_zero(w)}
            if nc:
                data[c] = nc
        return TensorMap(field, self.dim, self.in_arity, self.out_arity, "sparse", data)

    def __neg__(self) -> "TensorMap":
        return self.scale(self.field.neg(self.field.one))

    # ------------------------------------------------------------------ predicates

    def _is_identity(self) -> bool:
        """Whether this is a sparse identity map; stops at the first column
        that is not {c: one}."""
        if self._rep != "sparse" or self.in_arity != self.out_arity \
                or len(self._data) != self.cols:
            return False
        one = self.field.one
        return all(len(col) == 1 and col.get(c) == one for c, col in self._data.items())

    def is_zero(self) -> bool:
        """Whether every entry is zero; a stored zero counts as zero."""
        if self._rep == "dense":
            return not self._data.any()
        is_zero = self.field.is_zero
        return all(is_zero(v) for col in self._data.values() for v in col.values())

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
            return _scalars(self.field, self._data[:, row, col:col + 1])[0]
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
    """(a @ b) mod p for int64 residue matrices with entries in [0, p), p < 2^31.

    Runs in float64 (BLAS).  The left operand is one limb while (p-1)^2 <
    2^53 and otherwise splits into 16-bit limbs, a = sum_s 2^s a_s.  Each
    limb product cuts the inner dimension into blocks of at most
    2^53 // (limb bound * (p-1)) columns, reduced before they are added, so
    every partial sum is an integer of at most 2^53 and exact."""
    import numpy as np
    bits = (p - 1).bit_length()
    width = bits if (p - 1) ** 2 < 1 << 53 else 16
    mask = (1 << width) - 1
    step = (1 << 53) // (min(mask, p - 1) * (p - 1))
    b = b.astype(np.float64)
    for shift in range(0, bits, width):
        limb = (a if width == bits else (a >> shift) & mask).astype(np.float64)
        part = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for lo in range(0, a.shape[1], step):
            block = limb[:, lo:lo + step] @ b[lo:lo + step]
            part = (part + block.astype(np.int64, copy=False)) % p
        out = part if shift == 0 else (out + part * pow(2, shift, p)) % p
    return out


def identity_map(field, d: int, n: int) -> TensorMap:
    return TensorMap.identity(field, d, n)


def tensor_product(f: TensorMap, g: TensorMap) -> TensorMap:
    return f.tensor(g)


def compose(f: TensorMap, *rest: TensorMap) -> TensorMap:
    """compose(f, g, h, ...) = f o g o h o ... (rightmost applied first).

    Starts from the factor with the fewest stored columns, absorbs every
    factor to its left, then every factor to its right.  Each pairwise
    product checks its operands; on a failure the chain is re-checked left
    to right, so the error names the first bad pair."""
    maps = (f,) + rest
    start = min(range(len(maps)), key=lambda i: maps[i]._stored_cols())
    out = maps[start]
    try:
        for g in reversed(maps[:start]):
            out = g.compose(out)
        for g in maps[start + 1:]:
            out = out.compose(g)
    except InputError:
        for i in range(1, len(maps)):
            maps[i - 1]._require_composable(maps[i], f.out_arity)
        raise
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
    for t in parts:
        if t is not None and not same_ring(t.field, ring.base):
            raise InputError(f"truncated_from_parts: a part over {t.field!r} "
                             f"in a ring over {ring.base!r}")
    (d, n, k), = shapes
    if _is_prime_based(ring) and d ** (k + n) <= _DENSE_CELLS:
        import numpy as np
        data = np.zeros((ring.order, d ** k, d ** n), dtype=np.int64)
        for j, t in enumerate(parts):
            if t is not None:
                data[j] = t._as_dense()._data[0]
        return TensorMap(ring, d, n, k, "dense", data)
    cells = {}
    for j, t in enumerate(parts):
        for r, c, v in (t.entries() if t is not None else ()):
            cells.setdefault((r, c), list(ring.zero))[j] = v
    return TensorMap.from_entries(ring, d, n, k,
                                  [(r, c, tuple(v)) for (r, c), v in cells.items()])


def truncated_part(t: TensorMap, j: int) -> TensorMap:
    """Coefficient of hbar^j of a truncated-ring map, as a base-field map."""
    ring = t.field
    if not isinstance(ring, TruncatedRing):
        raise InputError("truncated_part needs a truncated-ring map")
    if not 0 <= j < ring.order:
        raise InputError(f"truncated_part: hbar^{j} outside truncation order {ring.order}")
    base = ring.base
    if t._rep == "dense":
        return TensorMap(base, t.dim, t.in_arity, t.out_arity, "dense", t._data[j:j + 1])
    return TensorMap.from_entries(base, t.dim, t.in_arity, t.out_arity,
                                  ((r, c, tup[j]) for c, col in t._data.items()
                                   for r, tup in col.items()))


def random_map(field, d: int, n: int, k: int, rng, span: int = 9) -> TensorMap:
    """Dense random map; a one-layer residue stack over prime fields, sparse
    otherwise."""
    rows, cols = d ** k, d ** n
    if isinstance(field, PrimeField) and rows * cols <= _DENSE_CELLS:
        import numpy as np
        data = [field.random(rng) for _ in range(rows * cols)]
        return TensorMap(field, d, n, k, "dense",
                         np.array(data, dtype=np.int64).reshape(1, rows, cols))
    entries = []
    for r in range(rows):
        for c in range(cols):
            v = field.random(rng, span)
            if not field.is_zero(v):
                entries.append((r, c, v))
    return TensorMap.from_entries(field, d, n, k, entries)
