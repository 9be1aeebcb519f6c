"""Factories for the discrete example families: finite groups by Cayley
table, multiple conjugation quandles, group heaps, group algebras, and the
transposition braiding.

All validators are exhaustive (orders here are at most 12), and every
factory that is braided by a theorem re-runs the full axiom suite on its
output, converting any failure into an internal error.
"""

from __future__ import annotations

from itertools import permutations

from .braided import (AssociativeAlgebra, BraidedAlgebra, YangBaxterOperator,
                      assert_braided, braided_algebra)
from .errors import InputError, ValidationError
from .tensor import TensorMap, encode_index, transposition


class FiniteGroup:
    """A group presented by its Cayley table of element indices."""

    def __init__(self, table, labels=None, name: str = "G"):
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise ValidationError("Cayley table must be square and nonempty")
        for row in table:
            for v in row:
                if not 0 <= v < n:
                    raise ValidationError(f"table entry {v} out of range")
        self.table = [list(row) for row in table]
        self.order = n
        self.name = name
        self.labels = list(labels) if labels else [f"g{i}" for i in range(n)]
        if len(self.labels) != n:
            raise InputError("label count must match the order")
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._check_associativity()

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x
                   for x in range(self.order)):
                return e
        raise ValidationError("no identity element")

    def _find_inverses(self) -> list:
        inv = []
        e = self.identity
        for x in range(self.order):
            cands = [y for y in range(self.order)
                     if self.table[x][y] == e and self.table[y][x] == e]
            if len(cands) != 1:
                raise ValidationError(f"element {x} has {len(cands)} inverses")
            inv.append(cands[0])
        return inv

    def _check_associativity(self):
        t = self.table
        for a in range(self.order):
            for b in range(self.order):
                ab = t[a][b]
                for c in range(self.order):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise ValidationError(f"non-associative at {(a, b, c)}",
                                              witness=(a, b, c))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, x: int, a: int) -> int:
        """a^(-1) x a."""
        return self.mul(self.mul(self.inv(a), x), a)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        labels = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
        return cls(table, labels=labels[:n], name=f"Z{n}")

    @classmethod
    def direct_product(cls, a: "FiniteGroup", b: "FiniteGroup") -> "FiniteGroup":
        order = a.order * b.order
        idx = lambda i, j: i * b.order + j
        table = [[0] * order for _ in range(order)]
        for i1 in range(a.order):
            for j1 in range(b.order):
                for i2 in range(a.order):
                    for j2 in range(b.order):
                        table[idx(i1, j1)][idx(i2, j2)] = idx(a.mul(i1, i2), b.mul(j1, j2))
        labels = [f"({a.labels[i]},{b.labels[j]})"
                  for i in range(a.order) for j in range(b.order)]
        return cls(table, labels=labels, name=f"{a.name}x{b.name}")

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """S_n as permutation tuples in lexicographic order; products compose
        left-then-right: (pq)(i) = q(p(i))."""
        elts = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(elts)}
        table = [[index[tuple(q[p[i]] for i in range(n))] for q in elts] for p in elts]
        labels = ["".join(str(x + 1) for x in p) for p in elts]
        return cls(table, labels=labels, name=f"S{n}")

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class MCQ:
    """Multiple conjugation quandle: a disjoint union of groups with a star
    operation that is conjugation inside each component and satisfies the
    two group-compatibility axioms plus self-distributivity.

    All four axioms are validated exhaustively at construction.
    """

    def __init__(self, components: list, star, labels=None):
        self.components = list(components)
        if not self.components:
            raise ValidationError("MCQ needs at least one component")
        self.offsets = []
        total = 0
        for g in self.components:
            self.offsets.append(total)
            total += g.order
        self.size = total
        self.component_of = []
        for ci, g in enumerate(self.components):
            self.component_of.extend([ci] * g.order)
        self.star = [list(row) for row in star]
        if len(self.star) != total or any(len(row) != total for row in self.star):
            raise ValidationError("star table must be |X| x |X|")
        for row in self.star:
            for v in row:
                if not 0 <= v < total:
                    raise ValidationError(f"star entry {v} out of range")
        if labels is None:
            labels = []
            for ci, g in enumerate(self.components):
                labels.extend(f"{lab}[{ci}]" if len(self.components) > 1 else lab
                              for lab in g.labels)
        self.labels = labels
        self._validate()

    # element <-> (component, local index)
    def global_index(self, ci: int, local: int) -> int:
        return self.offsets[ci] + local

    def local_index(self, x: int) -> tuple:
        ci = self.component_of[x]
        return ci, x - self.offsets[ci]

    def same_component(self, x: int, y: int) -> bool:
        return self.component_of[x] == self.component_of[y]

    def mul(self, x: int, y: int) -> int | None:
        """Group product when x, y share a component, else None."""
        if not self.same_component(x, y):
            return None
        ci, a = self.local_index(x)
        _, b = self.local_index(y)
        return self.global_index(ci, self.components[ci].mul(a, b))

    def op(self, x: int, y: int) -> int:
        return self.star[x][y]

    def _validate(self):
        st = self.op
        # (1) conjugation inside each component
        for ci, g in enumerate(self.components):
            for a in range(g.order):
                for b in range(g.order):
                    ga, gb = self.global_index(ci, a), self.global_index(ci, b)
                    if st(ga, gb) != self.global_index(ci, g.conj(a, b)):
                        raise ValidationError(
                            f"axiom 1 (conjugation) fails at {(ga, gb)}", witness=(ga, gb))
        # (2) x * e = x and x * (ab) = (x * a) * b
        for ci, g in enumerate(self.components):
            e = self.global_index(ci, g.identity)
            for x in range(self.size):
                if st(x, e) != x:
                    raise ValidationError(f"axiom 2 (identity) fails at {(x, e)}",
                                          witness=(x, e))
            for a in range(g.order):
                for b in range(g.order):
                    ga, gb = self.global_index(ci, a), self.global_index(ci, b)
                    gab = self.global_index(ci, g.mul(a, b))
                    for x in range(self.size):
                        if st(x, gab) != st(st(x, ga), gb):
                            raise ValidationError(
                                f"axiom 2 (composition) fails at {(x, ga, gb)}",
                                witness=(x, ga, gb))
        # (3) self-distributivity
        for x in range(self.size):
            for y in range(self.size):
                xy = st(x, y)
                for z in range(self.size):
                    if st(xy, z) != st(st(x, z), st(y, z)):
                        raise ValidationError(
                            f"axiom 3 (self-distributivity) fails at {(x, y, z)}",
                            witness=(x, y, z))
        # (4) (ab) * x = (a * x)(b * x) inside a single component
        for ci, g in enumerate(self.components):
            for a in range(g.order):
                for b in range(g.order):
                    ga, gb = self.global_index(ci, a), self.global_index(ci, b)
                    gab = self.global_index(ci, g.mul(a, b))
                    for x in range(self.size):
                        u, v = st(ga, x), st(gb, x)
                        if not self.same_component(u, v):
                            raise ValidationError(
                                f"axiom 4 (common component) fails at {(ga, gb, x)}",
                                witness=(ga, gb, x))
                        if st(gab, x) != self.mul(u, v):
                            raise ValidationError(
                                f"axiom 4 (product) fails at {(ga, gb, x)}",
                                witness=(ga, gb, x))

    @classmethod
    def from_group(cls, g: FiniteGroup) -> "MCQ":
        """Single-component MCQ: star is conjugation."""
        star = [[g.conj(x, y) for y in range(g.order)] for x in range(g.order)]
        return cls([g], star)

    @classmethod
    def trivial_union(cls, groups: list) -> "MCQ":
        """Disjoint union with x * y = x; valid exactly when every component
        is abelian (axiom 1 forces conjugation to be trivial)."""
        total = sum(g.order for g in groups)
        star = [[x] * total for x in range(total)]
        return cls(list(groups), star)

    def __repr__(self):
        return f"MCQ(|X|={self.size}, components={len(self.components)})"


# ---------------------------------------------------------------- factories

def group_algebra(g: FiniteGroup, field) -> AssociativeAlgebra:
    d = g.order
    mu = TensorMap.from_entries(
        field, d, 2, 1,
        ((g.mul(x, y), encode_index((x, y), d), field.one)
         for x in range(d) for y in range(d)))
    unit = TensorMap.from_entries(field, d, 0, 1, [(g.identity, 0, field.one)])
    return AssociativeAlgebra(field, d, mu, unit=unit, labels=list(g.labels)).require()


def from_mcq(q: MCQ, field) -> BraidedAlgebra:
    """Linearized MCQ: mu(x,y) = xy within a component and 0 across
    components; R(x,y) = y ox (x * y)."""
    d = q.size
    mu_entries = []
    for x in range(d):
        for y in range(d):
            xy = q.mul(x, y)
            if xy is not None:
                mu_entries.append((xy, encode_index((x, y), d), field.one))
    mu = TensorMap.from_entries(field, d, 2, 1, mu_entries)
    r = TensorMap.from_entries(
        field, d, 2, 2,
        ((encode_index((y, q.op(x, y)), d), encode_index((x, y), d), field.one)
         for x in range(d) for y in range(d)))
    out = braided_algebra(field, d, mu, r, labels=list(q.labels), require=False)
    return assert_braided(out, "linearized MCQ")


def from_heap(g: FiniteGroup, field) -> BraidedAlgebra:
    """Heap rack on X = G x G: (x,y) * (u,v) = (x u^-1 v, y u^-1 v) with the
    partial pairing mu((x,y),(u,v)) = (x,v) when y = u, else 0."""
    n = g.order
    d = n * n
    idx = lambda x, y: x * n + y
    labels = [f"({g.labels[x]},{g.labels[y]})" for x in range(n) for y in range(n)]

    def star(x, y, u, v):
        t = g.mul(g.inv(u), v)
        return (g.mul(x, t), g.mul(y, t))

    mu_entries = []
    r_entries = []
    for x in range(n):
        for y in range(n):
            for u in range(n):
                for v in range(n):
                    col = encode_index((idx(x, y), idx(u, v)), d)
                    if y == u:
                        mu_entries.append((idx(x, v), col, field.one))
                    sx, sy = star(x, y, u, v)
                    r_entries.append((encode_index((idx(u, v), idx(sx, sy)), d),
                                      col, field.one))
    mu = TensorMap.from_entries(field, d, 2, 1, mu_entries)
    r = TensorMap.from_entries(field, d, 2, 2, r_entries)
    out = braided_algebra(field, d, mu, r, labels=labels, require=False)
    return assert_braided(out, "group heap rack")


def trivial_braiding(a: AssociativeAlgebra) -> BraidedAlgebra:
    """R = transposition on a itself; both mixed axioms hold for any
    associative mu, and a's own verdicts are reused."""
    a.require()
    out = BraidedAlgebra(a, YangBaxterOperator(a.field, a.dim, transposition(a.field, a.dim)))
    return assert_braided(out, "transposition braiding")


def matrix_algebra_2x2(field) -> AssociativeAlgebra:
    """2x2 matrix units E_ij, basis order E11, E12, E21, E22."""
    d = 4
    idx = lambda i, j: 2 * i + j
    entries = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if j == k:
                        entries.append((idx(i, l),
                                        encode_index((idx(i, j), idx(k, l)), d),
                                        field.one))
    mu = TensorMap.from_entries(field, d, 2, 1, entries)
    unit = TensorMap.from_entries(field, d, 0, 1,
                                  [(idx(0, 0), 0, field.one), (idx(1, 1), 0, field.one)])
    labels = ["E11", "E12", "E21", "E22"]
    return AssociativeAlgebra(field, d, mu, unit=unit, labels=labels).require()


def dual_numbers(field) -> AssociativeAlgebra:
    """k[t]/(t^2), basis (1, t); non-semisimple in every characteristic."""
    d = 2
    entries = [(0, encode_index((0, 0), d), field.one),
               (1, encode_index((0, 1), d), field.one),
               (1, encode_index((1, 0), d), field.one)]
    mu = TensorMap.from_entries(field, d, 2, 1, entries)
    unit = TensorMap.from_entries(field, d, 0, 1, [(0, 0, field.one)])
    return AssociativeAlgebra(field, d, mu, unit=unit, labels=["1", "t"]).require()
