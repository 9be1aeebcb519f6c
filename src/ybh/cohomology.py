"""The unified Yang-Baxter / Hochschild cochain complex through degree 3 -> 4.

Coefficients lie in the braided algebra V itself.  Each cochain group C^n is
a direct sum of Hom(V^a, V^b) summands, written down once as a summand table
(C1 .. C4 below); the cochain classes, the flatten layout, the sizes and
offsets, and the matrix of every differential are read off those tables.

"YI" always refers to the axiom (mu ox 1)(1 ox R)(R ox 1) = R (1 ox mu) and
"IY" to (1 ox mu)(R ox 1)(1 ox R) = R (mu ox 1); every formula in this
module is keyed to those shapes, never to a name.

Each differential is one term table per target summand (D1_TERMS,
D2_TERMS, D3_TERMS) in the row notation of braided.AXIOM_TERMS, read by the
one evaluator there, sum_terms; its matrix (differential_matrix) is that
read applied to the basis cochains, column by column.  D2_TERMS is not
written out: it is the linearization of the four axiom rows at (mu, R)
(linearize), whose independent oracle is the hbar coefficient of the axiom
defects of (mu + hbar psi, R + hbar phi) over k[hbar]/(hbar^2)
(delta2_oracle).  delta1 and delta2 are reads by braided.read_tables, which
keeps the lifts of the structure words on the algebra and lifts the slot
words per call; delta3 builds its lifts per term.

Degree 3 -> 4 writes into eight private summands of C^4, one per coherence
loop.  Each component linearizes a rewrite-loop identity: a cycle of axiom
applications whose telescoping sum vanishes identically for arbitrary
bilinear mu and arbitrary R.  The test suite re-verifies it on random
non-braided data; it implies both d3 o d2 = 0 and the vanishing of d3 on
every degree-2 obstruction bundle.  The rows of three components are
generated from their partners' rows by the tensor-reversal mirror
(mirror_terms).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, product
from dataclasses import dataclass

from .braided import AXIOM_TERMS, BraidedAlgebra, mirror_terms, read_tables, sum_terms
from .errors import InputError, ResourceLimitError
from .linalg import ExactMatrix
from .scalars import TruncatedRing
from .tensor import TensorMap, same_ring, truncated_from_parts, truncated_part

MAX_DIM_DEGREE2 = 4
MAX_DIM_DEGREE3 = 3


# ---------------------------------------------------------------- cochain spaces

class Summands(tuple):
    """An ordered direct sum of summands Hom(V^a, V^b), given as (name, a, b)
    triples.  Its flatten layout stacks the summands' row-major grids
    (TensorMap.flatten_sparse) in table order."""

    def names(self) -> tuple:
        return tuple(name for name, _, _ in self)

    def sizes(self, d: int) -> tuple:
        return tuple(d ** (a + b) for _, a, b in self)

    def size(self, d: int) -> int:
        return sum(self.sizes(d))

    def offsets(self, d: int) -> dict:
        """{name: flatten position of the summand's first grid cell}."""
        return dict(zip(self.names(), accumulate(self.sizes(d), initial=0)))

    def check(self, parts):
        """Raise InputError unless parts are maps of the summands' arities,
        all on the dimension and over the coefficient ring of the first."""
        d, ring = parts[0].dim, parts[0].field
        for (name, a, b), t in zip(self, parts):
            if (t.in_arity, t.out_arity, t.dim) != (a, b, d):
                raise InputError(f"{name} must be a ({a}->{b}) map of dimension {d}, "
                                 f"got ({t.in_arity}->{t.out_arity}) of dimension {t.dim}")
            if not same_ring(t.field, ring):
                raise InputError(f"{name} is over the ring {t.field!r}, "
                                 f"the first summand over {ring!r}")

    def unflatten(self, vec, field, d: int) -> tuple:
        """The summand maps of a flattened vector, given as a dict
        {position: scalar} or as a dense list."""
        starts, total = list(self.offsets(d).values()), self.size(d)
        if not isinstance(vec, dict):
            if len(vec) != total:
                raise InputError(f"cochain vector must have length {total}")
            vec = dict(enumerate(vec))
        entries = [[] for _ in self]
        for pos, v in vec.items():
            if not 0 <= pos < total:
                raise InputError(f"position {pos} outside a cochain vector of length {total}")
            if not field.is_zero(v):
                i = bisect_right(starts, pos) - 1
                row, col = divmod(pos - starts[i], d ** self[i][1])
                entries[i].append((row, col, v))
        return tuple(TensorMap.from_entries(field, d, a, b, e)
                     for (_, a, b), e in zip(self, entries))

    def matrix(self, field, d: int, op) -> ExactMatrix:
        """Matrix of a linear operator on this space: column idx holds
        op(*parts) of the idx-th basis cochain, a sequence of maps stacked
        as flatten_parts stacks them."""
        columns = []
        for idx in range(self.size(d)):
            out = op(*self.unflatten({idx: field.one}, field, d))
            columns.append(flatten_parts(out))
        return ExactMatrix.from_columns(field, sum(t.rows * t.cols for t in out), columns)


def flatten_parts(parts) -> dict:
    """Maps stacked in order, each linearized row-major: {position: scalar}."""
    out, off = {}, 0
    for t in parts:
        for pos, v in t.flatten_sparse().items():
            out[off + pos] = v
        off += t.rows * t.cols
    return out


# The cochain groups.  C^2 carries (R, mu)-shaped summands, C^3 one summand
# per structure axiom, C^4 one private summand per degree-3 coherence loop.
C1 = Summands([("f", 1, 1)])
C2 = Summands([("phi", 2, 2), ("psi", 2, 1)])
C3 = Summands([("beta", 3, 3), ("alpha_yi", 3, 2), ("alpha_iy", 3, 2), ("gamma", 3, 1)])
# The axiom (a key of braided.AXIOM_TERMS) behind each C^3 summand: delta2,
# the obstruction bundles and their truncated-ring oracles all read it.
C3_AXIOMS = {"beta": "yb", "alpha_yi": "yi", "alpha_iy": "iy", "gamma": "assoc"}
C4 = Summands([
    ("yb", 4, 4),        # four-strand Yang-Baxter coherence
    ("slide_yi", 4, 3),  # a product sliding through a 3-strand braiding, YI side
    ("slide_iy", 4, 3),  # mirror of the above
    ("assoc_yi", 4, 2),  # a triple product crossing one strand, YI side
    ("assoc_iy", 4, 2),  # mirror
    ("prod_yi", 4, 2),   # a product crossing a product, YI-first orientation
    ("prod_iy", 4, 2),   # mirror
    ("pentagon", 4, 1),  # associativity pentagon
])
C4_SUMMANDS = C4.names()


class Cochain:
    """Shared base of the cochain classes: one TensorMap per summand of the
    class's SUMMANDS table, checked at construction and combined summand by
    summand."""

    SUMMANDS = Summands()

    def __post_init__(self):
        self.SUMMANDS.check(self.parts())

    def parts(self) -> tuple:
        return tuple(getattr(self, name) for name in self.SUMMANDS.names())

    @classmethod
    def from_parts(cls, parts):
        return cls(*parts)

    @property
    def dim(self) -> int:
        return self.parts()[0].dim

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.parts())

    def __add__(self, other):
        return self.from_parts([a + b for a, b in zip(self.parts(), other.parts())])

    def __sub__(self, other):
        return self.from_parts([a - b for a, b in zip(self.parts(), other.parts())])

    def scale(self, s):
        return self.from_parts([t.scale(s) for t in self.parts()])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(a == b for a, b in zip(self.parts(), other.parts()))

    def flatten(self) -> dict:
        return flatten_parts(self.parts())

    @classmethod
    def unflatten(cls, vec, field, d: int):
        return cls.from_parts(cls.SUMMANDS.unflatten(vec, field, d))


@dataclass(eq=False)
class YBH2Cochain(Cochain):
    SUMMANDS = C2
    phi: TensorMap
    psi: TensorMap


@dataclass(eq=False)
class YBH3Cochain(Cochain):
    SUMMANDS = C3
    beta: TensorMap
    alpha_yi: TensorMap
    alpha_iy: TensorMap
    gamma: TensorMap


@dataclass(eq=False)
class YBH4Cochain(Cochain):
    SUMMANDS = C4
    components: dict  # name -> TensorMap, keys exactly C4_SUMMANDS

    def __post_init__(self):
        if set(self.components) != set(C4_SUMMANDS):
            raise InputError(f"C^4 components must be exactly {list(C4_SUMMANDS)}, "
                             f"got {list(self.components)}")
        super().__post_init__()

    def parts(self) -> tuple:
        return tuple(self.components[name] for name in C4_SUMMANDS)

    @classmethod
    def from_parts(cls, parts):
        return cls(dict(zip(C4_SUMMANDS, parts)))


cochain2_sizes, cochain3_sizes, cochain4_size = C2.sizes, C3.sizes, C4.size
flatten2 = flatten3 = Cochain.flatten
unflatten2, unflatten3 = YBH2Cochain.unflatten, YBH3Cochain.unflatten


# ---------------------------------------------------------------- term tables
#
# Rows in the notation of braided.sum_terms, each term with exactly one
# cochain slot: "c" a 0-cochain, "f" a 1-cochain, "p" phi, "s" psi, "b"
# beta, "a" alpha_yi, "A" alpha_iy, "g" gamma.

def linearize(rows, slots: dict, order: int = 1) -> tuple:
    """The hbar^order part of a table when each structure token t becomes
    t + sum_i hbar^i slots[t][i-1]: each row once per way of giving its
    occurrences of such tokens orders (0 keeps the token) that sum to order,
    earlier occurrences taking higher orders first.  At order 1 that is one
    row per occurrence, that occurrence replaced, in reading order."""
    def choices(t):
        return [(slots[t][k - 1], k) for k in range(len(slots.get(t, "")), 0, -1)] + [(t, 0)]

    return tuple((sign, tuple("".join(token for token, _ in pick).split(" ")))
                 for sign, lifts in rows for pick in product(*map(choices, " ".join(lifts)))
                 if sum(k for _, k in pick) == order)


HOCHSCHILD_D0_TERMS = ((+1, ("m", "1c")), (-1, ("m", "c1")))

D1_TERMS = {
    "phi": ((+1, ("R", "f1")), (+1, ("R", "1f")), (-1, ("f1", "R")), (-1, ("1f", "R"))),
    "psi": ((+1, ("m", "f1")), (+1, ("m", "1f")), (-1, ("f", "m"))),
}

# delta2 linearizes the four axioms at (mu, R) in the direction (phi, psi).
D2_TERMS = {name: linearize(AXIOM_TERMS[axiom], {"R": "p", "m": "s"})
            for name, axiom in C3_AXIOMS.items()}


def _expect(t: TensorMap, n: int, k: int, what: str):
    if (t.in_arity, t.out_arity) != (n, k):
        raise InputError(f"{what} must be a ({n}->{k}) map, "
                         f"got ({t.in_arity}->{t.out_arity})")


# ---------------------------------------------------------------- degree 0, 1, 2

def hochschild_differential(algebra, degree: int, cochain: TensorMap) -> TensorMap:
    """delta^n_H for n in 0..3 of an algebra or a raw mu.  Degree 2 is the
    linearized associativity defect (positive left terms), degree 3 the standard
    pentagon (the pentagon rows of D3_TERMS); the two conventions still compose to zero."""
    tables = {0: (HOCHSCHILD_D0_TERMS, "c"), 1: (D1_TERMS["psi"], "f"),
              2: (D2_TERMS["gamma"], "s"), 3: (D3_TERMS["pentagon"], "g")}
    if degree not in tables:
        raise InputError(f"Hochschild differential defined for degrees 0..3, got {degree}")
    rows, slot = tables[degree]
    _expect(cochain, degree, 1, f"degree-{degree} cochain")
    x = {"m": algebra} if isinstance(algebra, TensorMap) else algebra
    return read_tables(x, {slot: cochain}, rows)[0]


def yang_baxter_differential(operator, degree: int, cochain: TensorMap) -> TensorMap:
    """delta^n_YB for n in 1..2 of a YB operator or braided algebra, or a raw R."""
    tables = {1: (D1_TERMS["phi"], "f"), 2: (D2_TERMS["beta"], "p")}
    if degree not in tables:
        raise InputError(f"Yang-Baxter differential defined for degrees 1..2, got {degree}")
    rows, slot = tables[degree]
    _expect(cochain, degree, degree, f"degree-{degree} cochain")
    x = {"R": operator} if isinstance(operator, TensorMap) else operator
    return read_tables(x, {slot: cochain}, rows)[0]


def mixed_differential_d2(b: BraidedAlgebra, c: YBH2Cochain):
    """Both mixed components of delta^2, (YI, IY): the linearizations of the
    YI and IY axioms at (mu, R) in the direction (phi, psi)."""
    return tuple(read_tables(b, {"p": c.phi, "s": c.psi},
                             D2_TERMS["alpha_yi"], D2_TERMS["alpha_iy"]))


def axiom_defect_coefficients(mu_t: TensorMap, r_t: TensorMap, j: int) -> tuple:
    """The hbar^j coefficients of the four axiom defects of (mu_t, R_t) over
    a truncated ring, one per C^3 summand: ring arithmetic on the axiom
    rows, the independent route to their order-j parts (linearize)."""
    defects = read_tables({"m": mu_t, "R": r_t}, {},
                          *(AXIOM_TERMS[axiom] for axiom in C3_AXIOMS.values()))
    return tuple(truncated_part(defect, j) for defect in defects)


def delta2_oracle(b: BraidedAlgebra, c: YBH2Cochain) -> YBH3Cochain:
    """Independent route to delta^2: the hbar coefficient of the four axiom
    defects of (mu + hbar psi, R + hbar phi) over k[hbar]/(hbar^2)."""
    ring = TruncatedRing(b.field, 2)
    return YBH3Cochain(*axiom_defect_coefficients(truncated_from_parts(ring, [b.mu, c.psi]),
                                                  truncated_from_parts(ring, [b.r, c.phi]), 1))


def delta1(b: BraidedAlgebra, f: TensorMap) -> YBH2Cochain:
    _expect(f, 1, 1, "degree-1 cochain")
    return YBH2Cochain(*read_tables(b, {"f": f}, *D1_TERMS.values()))


def delta2(b: BraidedAlgebra, c: YBH2Cochain) -> YBH3Cochain:
    return YBH3Cochain(*read_tables(b, {"p": c.phi, "s": c.psi}, *D2_TERMS.values()))


# ---------------------------------------------------------------- degree 3
#
# Each component's rows are the defect-slot linearization of a rewrite loop:
# with the axiom defects of an arbitrary (mu, R) in the slots they sum to
# zero identically, which the test suite and tools/pin_degree3.py pin.

_D3_LOOPS = {
    # Four-strand Yang-Baxter coherence: the eight braid-relation moves of a
    # cycle through the six-crossing words (found by tools/pin_degree3.py).
    "yb": (
        (+1, ("R11", "1R1", "11R", "b1")),
        (+1, ("R11", "1b", "R11", "1R1")),
        (+1, ("11R", "b1", "11R", "1R1")),
        (+1, ("11R", "1R1", "R11", "1b")),
        (-1, ("1b", "R11", "1R1", "11R")),
        (-1, ("1R1", "11R", "b1", "11R")),
        (-1, ("1R1", "R11", "1b", "R11")),
        (-1, ("b1", "11R", "1R1", "R11")),
    ),
    # A product of two strands slides through a three-strand braiding, IY side.
    "slide_iy": (
        (+1, ("1R", "A1", "11R")),
        (+1, ("1A", "R11", "1R1", "11R")),
        (+1, ("11m", "1R1", "R11", "1b")),
        (+1, ("11m", "b1", "11R", "1R1")),
        (-1, ("b", "m11")),
        (-1, ("R1", "1R", "A1")),
        (-1, ("R1", "1A", "R11", "1R1")),
    ),
    # A triple product crosses one strand, resolved before or after
    # reassociating, IY side.
    "assoc_iy": (
        (+1, ("A", "1m1")),
        (+1, ("1m", "R1", "1A")),
        (+1, ("1g", "R11", "1R1", "11R")),
        (-1, ("A", "m11")),
        (-1, ("1m", "A1", "11R")),
        (-1, ("R", "g1")),
    ),
    # A product crosses a product; the two resolutions start with the YI or
    # the IY axiom and meet after three moves each.
    "prod_yi": (
        (+1, ("a", "m11")),
        (+1, ("m1", "1R", "A1")),
        (+1, ("m1", "1A", "R11", "1R1")),
        (-1, ("A", "11m")),
        (-1, ("1m", "R1", "1a")),
        (-1, ("1m", "a1", "11R", "1R1")),
    ),
    # The associativity pentagon: the Hochschild coboundary of gamma.
    "pentagon": (
        (+1, ("m", "1g")),
        (-1, ("g", "m11")),
        (+1, ("g", "1m1")),
        (-1, ("g", "11m")),
        (+1, ("m", "g1")),
    ),
}

# The YI/IY partner of each mixed loop is its mirror image.
D3_MIRROR_PARTNERS = {"slide_yi": "slide_iy", "assoc_yi": "assoc_iy", "prod_iy": "prod_yi"}
D3_TERMS = {name: mirror_terms(_D3_LOOPS[D3_MIRROR_PARTNERS[name]])
            if name in D3_MIRROR_PARTNERS else _D3_LOOPS[name] for name in C4_SUMMANDS}


# The delta3 reads lift per term, and verify_deformation's axiom defects with
# one fresh dict each, not through read_tables: shared lifts shorten the h3
# and extend passes of perfbench (4.6x on an h3 pass), and both sit at the
# traced-run cliff of ROADMAP item 1: `perfbench/run.py --trace 1 --seed 7`
# once ran h3 9 untraced passes then 3 traced, extend 10 then 2 (2 vCPU); a
# pass about 10% shorter leaves the traced half empty and the worker exits 1.

def yb_differential_d3(b, beta: TensorMap) -> TensorMap:
    _expect(beta, 3, 3, "beta")
    r = b if isinstance(b, TensorMap) else b.r
    return sum_terms(D3_TERMS["yb"], {"R": r, "b": beta})


def delta3_components(mu: TensorMap, r: TensorMap, c: YBH3Cochain) -> dict:
    """All eight degree-3 components on raw structure maps: D3_TERMS with
    the slots filled from the 3-cochain c."""
    maps = {"m": mu, "R": r, "b": c.beta, "a": c.alpha_yi, "A": c.alpha_iy, "g": c.gamma}
    return {name: sum_terms(rows, maps) for name, rows in D3_TERMS.items()}


def delta3(b: BraidedAlgebra, c: YBH3Cochain) -> YBH4Cochain:
    return YBH4Cochain(delta3_components(b.mu, b.r, c))


# ---------------------------------------------------------------- matrices

# The source space of delta1, delta2, delta3 and the argument built from its parts.
_DELTA_SOURCES = {1: (C1, lambda f: f), 2: (C2, YBH2Cochain), 3: (C3, YBH3Cochain)}


def differential_matrix(b: BraidedAlgebra, degree: int) -> ExactMatrix:
    """Matrix of delta1, delta2 or delta3 (private targets) in the flatten
    bases: the operator applied to each basis cochain, one column each.
    Cached on the algebra object (write-once; the structure maps are
    immutable)."""
    if degree not in _DELTA_SOURCES:
        raise InputError("differential_matrix supports degrees 1, 2 and 3")
    cache = vars(b).setdefault("_matrix_cache", {})
    if degree not in cache:
        source, argument = _DELTA_SOURCES[degree]
        delta = (delta1, delta2, delta3)[degree - 1]  # per call: a patched delta applies
        cache[degree] = source.matrix(b.field, b.dim,
                                      lambda *parts: delta(b, argument(*parts)).parts())
    return cache[degree]


def _guard(d: int, max_dim: int | None, default: int, what: str):
    bound = default if max_dim is None else max_dim
    if d > bound:
        raise ResourceLimitError(
            f"{what} at dimension {d} exceeds the bound {bound}")


# ---------------------------------------------------------------- bases and dimensions

def cocycle_basis(b: BraidedAlgebra, max_dim: int | None = None) -> list:
    """Basis of Z^2 = ker(delta^2) as YBH2Cochain objects."""
    _guard(b.dim, max_dim, MAX_DIM_DEGREE2, "degree-2 cocycle basis")
    d2 = differential_matrix(b, 2)
    return [YBH2Cochain.unflatten(v, b.field, b.dim) for v in d2.kernel_basis()]


def coboundary_basis(b: BraidedAlgebra, max_dim: int | None = None) -> list:
    """Basis of B^2 = im(delta^1): the original columns of D1 sitting at its
    RREF pivot positions (an independent spanning subset, deterministically
    chosen)."""
    _guard(b.dim, max_dim, MAX_DIM_DEGREE2, "degree-2 coboundary basis")
    d1 = differential_matrix(b, 1)
    _, pivots, _ = d1.rref()
    return [YBH2Cochain.unflatten(d1.column(c), b.field, b.dim) for c in pivots]


def cohomology_dimension(b: BraidedAlgebra, max_dim: int | None = None) -> int:
    """dim H^2 = dim ker(delta^2) - rank(delta^1); h3_dimension is degree 3."""
    _guard(b.dim, max_dim, MAX_DIM_DEGREE2, "degree-2 cohomology")
    d1 = differential_matrix(b, 1)
    d2 = differential_matrix(b, 2)
    return (d2.cols - d2.rank()) - d1.rank()


def shared_target_matrix(d3: ExactMatrix, d: int) -> ExactMatrix:
    """D3 with the (4,2) row blocks merged in YI/IY pairs: prod_yi rows add
    into assoc_yi, prod_iy rows into assoc_iy, and pentagon moves up.  The
    blocks run assoc_yi, assoc_iy, prod_yi, prod_iy, pentagon, so moving
    every row from prod_yi on up by the span of the two assoc blocks does
    all three."""
    offsets = C4.offsets(d)
    first_prod = offsets["prod_yi"]
    shift = first_prod - offsets["assoc_yi"]
    return ExactMatrix.from_entries(
        d3.field, d3.rows - shift, d3.cols,
        ((r if r < first_prod else r - shift, c, v) for r, c, v in d3.entries()))


def h3_dimension(b: BraidedAlgebra, max_dim: int | None = None,
                 shared_targets: bool = False) -> int:
    """dim ker(delta^3) - rank(delta^2), from the cached private-target D3.

    With shared_targets=True the four Hom(V^4, V^2) summands are merged in
    YI/IY pairs (assoc_yi + prod_yi and assoc_iy + prod_iy share a target;
    see shared_target_matrix), the smaller complex one gets by not keeping
    loop-private targets; the kernel can only grow.  Both variants are
    exposed because either reading of the degree-4 group is coherent.
    """
    _guard(b.dim, max_dim, MAX_DIM_DEGREE3, "degree-3 cohomology")
    d3 = differential_matrix(b, 3)
    if shared_targets:
        d3 = shared_target_matrix(d3, b.dim)
    return (d3.cols - d3.rank()) - differential_matrix(b, 2).rank()


# ---------------------------------------------------------------- the braided-multiplication map

def iota_r(b: BraidedAlgebra, c: YBH2Cochain) -> YBH2Cochain:
    """The 2-cochain (phi, mu phi + psi R) of (V, mu R, R) induced by a
    2-cocycle (phi, psi) of (V, mu, R); induces a monomorphism on H^2."""
    if not delta2(b, c).is_zero():
        raise InputError("iota_r needs a 2-cocycle")
    psi_r = b.mu.compose(c.phi) + c.psi.compose(b.r)
    return YBH2Cochain(phi=c.phi, psi=psi_r)


# ---------------------------------------------------------------- complex slice

@dataclass
class ComplexSlice:
    """D1, D2 as matrices, and whether the two chain identities hold, both
    checked exactly at construction: D2 D1 = 0, and delta^3 D2 = 0 on every
    column of D2 when check_d3 (d3d2_zero is None otherwise)."""
    algebra: BraidedAlgebra
    d1: ExactMatrix
    d2: ExactMatrix
    d2d1_zero: bool
    d3d2_zero: bool | None

    @classmethod
    def build(cls, b: BraidedAlgebra, check_d3: bool = True,
              max_dim: int | None = None) -> "ComplexSlice":
        _guard(b.dim, max_dim, MAX_DIM_DEGREE2, "complex slice")
        d1 = differential_matrix(b, 1)
        d2 = differential_matrix(b, 2)
        d3d2 = None
        if check_d3:
            d3d2 = all(delta3(b, YBH3Cochain.unflatten(d2.column(idx), b.field, b.dim)).is_zero()
                       for idx in range(d2.cols))
        return cls(b, d1, d2, d2.matmul(d1).is_zero(), d3d2)
