"""The unified Yang-Baxter / Hochschild cochain complex through degree 3 -> 4.

Coefficients lie in the braided algebra V itself.  Each cochain group C^n is
a direct sum of Hom(V^a, V^b) summands, written down once as a summand table
(C1 .. C4 below); the cochain classes, the flatten layout, the sizes and
offsets, and the matrix of every differential are read off those tables.

The second differential is the linearization of the four structure axioms at
(mu, R): the Yang-Baxter equation into the (3,3) summand, the YI and IY
mixed axioms into the two (3,2) summands, and associativity into (3,1).
"YI" always refers to the axiom (mu ox 1)(1 ox R)(R ox 1) = R (1 ox mu) and
"IY" to (1 ox mu)(R ox 1)(1 ox R) = R (mu ox 1); every formula in this
module is keyed to those shapes, never to a name.

Each differential is defined once, as an operator on cochains (delta1,
delta2, delta3); its matrix (differential_matrix) is that operator applied
to the basis cochains, column by column.  The independent oracle for
delta2 is the hbar coefficient of the four axiom defects of
(mu + hbar psi, R + hbar phi) over k[hbar]/(hbar^2) (delta2_oracle).

Degree 3 -> 4 writes into eight private summands of C^4, one per coherence
loop.  Each degree-3 component is the linearization of a rewrite-loop
identity: a cycle of axiom applications whose telescoping sum vanishes
identically for arbitrary bilinear mu and arbitrary R (no axioms needed).
That identity is re-verified by the test suite on random non-braided data;
it implies both the chain property d3 o d2 = 0 and the vanishing of d3 on
every degree-2 obstruction bundle.  The IY-side components are the YI-side
ones conjugated by the tensor-reversal mirror.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass

from .braided import (BraidedAlgebra, assoc_defect, iy_defect, mirror_map,
                      yb_defect, yi_defect)
from .errors import InputError, ResourceLimitError
from .linalg import ExactMatrix
from .scalars import TruncatedRing
from .tensor import (TensorMap, compose, identity_map, same_ring,
                     truncated_from_parts, truncated_part)

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
C3 = Summands([
    ("beta", 3, 3),      # Yang-Baxter equation
    ("alpha_yi", 3, 2),  # YI mixed axiom
    ("alpha_iy", 3, 2),  # IY mixed axiom
    ("gamma", 3, 1),     # associativity
])
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


# ---------------------------------------------------------------- helpers

def _mu_of(x) -> TensorMap:
    if isinstance(x, TensorMap):
        return x
    return x.mu


def _r_of(x) -> TensorMap:
    if isinstance(x, TensorMap):
        return x
    return x.r


def _lifts(x, key: str) -> tuple:
    """(1, m, m ox 1, 1 ox m) for the structure map m = x.mu (key "mu") or
    x.r (key "r"): the lifts every degree-1 and degree-2 formula reads.  An
    algebra caches them (write-once; its maps are immutable); a raw map is
    m itself and is lifted on each call."""
    if isinstance(x, TensorMap):
        m, cache = x, None
    else:
        cache = getattr(x, "_op_cache", None)
        if cache is None:
            cache = x._op_cache = {}
        if key in cache:
            return cache[key]
        m = getattr(x, key)
    one = identity_map(m.field, m.dim, 1)
    lifts = (one, m, m.tensor(one), one.tensor(m))
    if cache is not None:
        cache[key] = lifts
    return lifts


def _expect(t: TensorMap, n: int, k: int, what: str):
    if (t.in_arity, t.out_arity) != (n, k):
        raise InputError(f"{what} must be a ({n}->{k}) map, "
                         f"got ({t.in_arity}->{t.out_arity})")


# ---------------------------------------------------------------- Hochschild side

def hochschild_differential(algebra, degree: int, cochain: TensorMap) -> TensorMap:
    """delta^n_H for n in 0..3; degree 2 carries the flipped overall sign
    (positive left terms), degree 3 is the standard pentagon, and the two
    conventions still compose to zero."""
    c = cochain
    if degree == 1:
        _expect(c, 1, 1, "degree-1 cochain")
        one, mu, _, _ = _lifts(algebra, "mu")
        return compose(mu, c.tensor(one)) + compose(mu, one.tensor(c)) - compose(c, mu)
    if degree == 2:
        _expect(c, 2, 1, "degree-2 cochain")
        one, mu, mu1, mu2 = _lifts(algebra, "mu")
        return compose(mu, c.tensor(one)) + compose(c, mu1) \
            - compose(mu, one.tensor(c)) - compose(c, mu2)
    mu = _mu_of(algebra)
    one = identity_map(mu.field, mu.dim, 1)
    if degree == 0:
        _expect(c, 0, 1, "degree-0 cochain")
        return compose(mu, one.tensor(c)) - compose(mu, c.tensor(one))
    if degree == 3:
        _expect(c, 3, 1, "degree-3 cochain")
        one2 = identity_map(mu.field, mu.dim, 2)
        return compose(mu, one.tensor(c)) - compose(c, mu.tensor(one2)) \
            + compose(c, one.tensor(mu).tensor(one)) - compose(c, one2.tensor(mu)) \
            + compose(mu, c.tensor(one))
    raise InputError(f"Hochschild differential defined for degrees 0..3, got {degree}")


# ---------------------------------------------------------------- Yang-Baxter side

def yang_baxter_differential(operator, degree: int, cochain: TensorMap) -> TensorMap:
    c = cochain
    if degree == 1:
        _expect(c, 1, 1, "degree-1 cochain")
        one, r, _, _ = _lifts(operator, "r")
        c1, c2 = c.tensor(one), one.tensor(c)
        return compose(r, c1) + compose(r, c2) - compose(c1, r) - compose(c2, r)
    if degree == 2:
        _expect(c, 2, 2, "degree-2 cochain")
        one, _, r1, r2 = _lifts(operator, "r")
        p1, p2 = c.tensor(one), one.tensor(c)
        return compose(r1, r2, p1) + compose(r1, p2, r1) + compose(p1, r2, r1) \
            - compose(r2, r1, p2) - compose(r2, p1, r2) - compose(p2, r1, r2)
    raise InputError(f"Yang-Baxter differential defined for degrees 1..2, got {degree}")


# ---------------------------------------------------------------- mixed degree 2

def mixed_differential_d2(b: BraidedAlgebra, c: YBH2Cochain):
    """Both mixed components of delta^2, (YI, IY): the linearizations of the
    YI and IY axioms at (mu, R) in the direction (phi, psi)."""
    one, mu, mu1, mu2 = _lifts(b, "mu")
    _, r, r1, r2 = _lifts(b, "r")
    phi, psi = c.phi, c.psi
    p1, p2 = phi.tensor(one), one.tensor(phi)
    s1, s2 = psi.tensor(one), one.tensor(psi)
    yi = compose(s1, r2, r1) + compose(mu1, p2, r1) + compose(mu1, r2, p1) \
        - compose(r, s2) - compose(phi, mu2)
    iy = compose(s2, r1, r2) + compose(mu2, p1, r2) + compose(mu2, r1, p2) \
        - compose(r, s1) - compose(phi, mu1)
    return yi, iy


def delta2_oracle(b: BraidedAlgebra, c: YBH2Cochain) -> YBH3Cochain:
    """Independent route to delta^2: the hbar coefficient of the four axiom
    defects (YBE, YI, IY, associativity) of (mu + hbar psi, R + hbar phi)
    over k[hbar]/(hbar^2)."""
    ring = TruncatedRing(b.field, 2)
    mu_t = truncated_from_parts(ring, [b.mu, c.psi])
    r_t = truncated_from_parts(ring, [b.r, c.phi])
    return YBH3Cochain(*(truncated_part(t, 1) for t in (
        yb_defect(r_t), yi_defect(mu_t, r_t), iy_defect(mu_t, r_t), assoc_defect(mu_t))))


# ---------------------------------------------------------------- total degree 1, 2

def delta1(b: BraidedAlgebra, f: TensorMap) -> YBH2Cochain:
    return YBH2Cochain(phi=yang_baxter_differential(b, 1, f),
                       psi=hochschild_differential(b, 1, f))


def delta2(b: BraidedAlgebra, c: YBH2Cochain) -> YBH3Cochain:
    yi, iy = mixed_differential_d2(b, c)
    return YBH3Cochain(beta=yang_baxter_differential(b, 2, c.phi),
                       alpha_yi=yi, alpha_iy=iy,
                       gamma=hochschild_differential(b, 2, c.psi))


# ---------------------------------------------------------------- degree 3 components
#
# Each component below is the defect-slot linearization of a rewrite loop.
# Substituting the actual axiom defects of an arbitrary (mu, R) for the
# cochain slots makes every component vanish identically; the test suite
# pins exactly that identity.

# Four-strand Yang-Baxter coherence loop: a cycle of braid-relation and
# far-commutation rewrites on six-crossing words over R1, R2, R3.  Each
# entry is (sign, word_after, strand, word_before): the term is
# sign * op(word_after) o ins_strand(beta) o op(word_before), with words
# listed in application order and ins_1 = beta ox 1, ins_2 = 1 ox beta.
# Generated and verified by tools/pin_degree3.py.
YB4_LOOP_TERMS = [
    (+1, (3, 2, 1), 1, ()),
    (+1, (1,), 2, (2, 1)),
    (+1, (3,), 1, (2, 3)),
    (+1, (1, 2, 3), 2, ()),
    (-1, (), 2, (3, 2, 1)),
    (-1, (3, 2), 1, (3,)),
    (-1, (1, 2), 2, (1,)),
    (-1, (), 1, (1, 2, 3)),
]


def _word_op(r: TensorMap, word) -> TensorMap:
    one = identity_map(r.field, r.dim, 1)
    gens = {1: r.tensor(one).tensor(one),
            2: one.tensor(r).tensor(one),
            3: one.tensor(one).tensor(r)}
    out = identity_map(r.field, r.dim, 4)
    for g in word:
        out = gens[g].compose(out)
    return out


def d3_yb_raw(r: TensorMap, beta: TensorMap) -> TensorMap:
    _expect(beta, 3, 3, "beta")
    one = identity_map(r.field, r.dim, 1)
    ins = {1: beta.tensor(one), 2: one.tensor(beta)}
    out = TensorMap.zero(r.field, r.dim, 4, 4)
    for sign, after, strand, before in YB4_LOOP_TERMS:
        term = compose(_word_op(r, after), ins[strand], _word_op(r, before))
        out = out + term if sign > 0 else out - term
    return out


def d3_slide_iy_raw(mu: TensorMap, r: TensorMap,
                    beta: TensorMap, alpha: TensorMap) -> TensorMap:
    """Loop: a product of two strands slides through a three-strand braiding,
    IY side.  Slots: beta in Hom(V^3,V^3), alpha in Hom(V^3,V^2)."""
    _expect(beta, 3, 3, "beta")
    _expect(alpha, 3, 2, "alpha")
    one = identity_map(mu.field, mu.dim, 1)
    one2 = identity_map(mu.field, mu.dim, 2)
    r1, r2, r3 = r.tensor(one2), one.tensor(r).tensor(one), one2.tensor(r)
    t1 = compose(one.tensor(r), alpha.tensor(one), r3)
    t2 = compose(one.tensor(alpha), r1, r2, r3)
    t3 = compose(one2.tensor(mu), r2, r1, one.tensor(beta))
    t4 = compose(one2.tensor(mu), beta.tensor(one), r3, r2)
    t5 = compose(beta, mu.tensor(one2))
    t6 = compose(r.tensor(one), one.tensor(r), alpha.tensor(one))
    t7 = compose(r.tensor(one), one.tensor(alpha), r1, r2)
    return t1 + t2 + t3 + t4 - t5 - t6 - t7


def d3_assoc_iy_raw(mu: TensorMap, r: TensorMap,
                    alpha: TensorMap, gamma: TensorMap) -> TensorMap:
    """Loop: a triple product crosses one strand, resolved either before or
    after reassociating.  Slots: alpha in Hom(V^3,V^2) (IY shape), gamma in
    Hom(V^3,V)."""
    _expect(alpha, 3, 2, "alpha")
    _expect(gamma, 3, 1, "gamma")
    one = identity_map(mu.field, mu.dim, 1)
    one2 = identity_map(mu.field, mu.dim, 2)
    r1, r2, r3 = r.tensor(one2), one.tensor(r).tensor(one), one2.tensor(r)
    return compose(alpha, one.tensor(mu).tensor(one)) \
        + compose(one.tensor(mu), r.tensor(one), one.tensor(alpha)) \
        + compose(one.tensor(gamma), r1, r2, r3) \
        - compose(alpha, mu.tensor(one2)) \
        - compose(one.tensor(mu), alpha.tensor(one), r3) \
        - compose(r, gamma.tensor(one))


def d3_prod_yi_raw(mu: TensorMap, r: TensorMap,
                   alpha_yi: TensorMap, alpha_iy: TensorMap) -> TensorMap:
    """Loop: a product crosses a product; the two resolutions start with the
    YI or the IY axiom respectively and meet after three moves each."""
    _expect(alpha_yi, 3, 2, "alpha_yi")
    _expect(alpha_iy, 3, 2, "alpha_iy")
    one = identity_map(mu.field, mu.dim, 1)
    one2 = identity_map(mu.field, mu.dim, 2)
    r1, r2, r3 = r.tensor(one2), one.tensor(r).tensor(one), one2.tensor(r)
    return compose(alpha_yi, mu.tensor(one2)) \
        + compose(mu.tensor(one), one.tensor(r), alpha_iy.tensor(one)) \
        + compose(mu.tensor(one), one.tensor(alpha_iy), r1, r2) \
        - compose(alpha_iy, one2.tensor(mu)) \
        - compose(one.tensor(mu), r.tensor(one), one.tensor(alpha_yi)) \
        - compose(one.tensor(mu), alpha_yi.tensor(one), r3, r2)


def d3_pentagon_raw(mu: TensorMap, gamma: TensorMap) -> TensorMap:
    return hochschild_differential(mu, 3, gamma)


def yb_differential_d3(b, beta: TensorMap) -> TensorMap:
    return d3_yb_raw(_r_of(b), beta)


def delta3_components(mu: TensorMap, r: TensorMap, c: YBH3Cochain) -> dict:
    """All eight degree-3 components on raw structure maps.

    The YI-side slide and assoc components, and the IY-first prod component,
    are the mirror conjugates of their partners: conjugate the structure and
    the cochains by tensor reversal (which swaps the YI and IY summands),
    apply the base formula, conjugate back.  Reversal also swaps the two
    sides of the Yang-Baxter equation and of associativity, so the beta and
    gamma slots enter the mirrored components negated; the mixed defects map
    onto each other without a sign.
    """
    mu_m, r_m = mirror_map(mu), mirror_map(r)
    beta_m, gamma_m = -mirror_map(c.beta), -mirror_map(c.gamma)
    ayi_m, aiy_m = mirror_map(c.alpha_yi), mirror_map(c.alpha_iy)
    return {
        "yb": d3_yb_raw(r, c.beta),
        "slide_iy": d3_slide_iy_raw(mu, r, c.beta, c.alpha_iy),
        "slide_yi": mirror_map(d3_slide_iy_raw(mu_m, r_m, beta_m, ayi_m)),
        "assoc_iy": d3_assoc_iy_raw(mu, r, c.alpha_iy, c.gamma),
        "assoc_yi": mirror_map(d3_assoc_iy_raw(mu_m, r_m, ayi_m, gamma_m)),
        "prod_yi": d3_prod_yi_raw(mu, r, c.alpha_yi, c.alpha_iy),
        "prod_iy": mirror_map(d3_prod_yi_raw(mu_m, r_m, aiy_m, ayi_m)),
        "pentagon": d3_pentagon_raw(mu, c.gamma),
    }


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


def cohomology_dimension(b: BraidedAlgebra, degree: int = 2,
                         max_dim: int | None = None) -> int:
    if degree != 2:
        raise InputError("cohomology_dimension computes degree 2; use h3_dimension")
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

def iota_r(b: BraidedAlgebra, c: YBH2Cochain, check: bool = True) -> YBH2Cochain:
    """The 2-cochain (phi, mu phi + psi R) of (V, mu R, R) induced by a
    2-cocycle (phi, psi) of (V, mu, R); induces a monomorphism on H^2."""
    if check and not delta2(b, c).is_zero():
        raise InputError("iota_r needs a 2-cocycle")
    psi_r = b.mu.compose(c.phi) + c.psi.compose(b.r)
    return YBH2Cochain(phi=c.phi, psi=psi_r)


# ---------------------------------------------------------------- complex slice

@dataclass
class ComplexSlice:
    """D1, D2 as matrices, with the two chain identities (D2 D1 = 0 and, when
    check_d3, delta^3 D2 = 0) verified exactly at construction."""
    algebra: BraidedAlgebra
    d1: ExactMatrix
    d2: ExactMatrix

    @classmethod
    def build(cls, b: BraidedAlgebra, check_d3: bool = True,
              max_dim: int | None = None) -> "ComplexSlice":
        _guard(b.dim, max_dim, MAX_DIM_DEGREE2, "complex slice")
        d1 = differential_matrix(b, 1)
        d2 = differential_matrix(b, 2)
        if not d2.matmul(d1).is_zero():
            raise InputError("chain identity D2 D1 = 0 fails; structure is not braided")
        if check_d3:
            for idx in range(d2.cols):
                col = d2.column(idx)
                c3 = YBH3Cochain.unflatten(col, b.field, b.dim)
                if not delta3(b, c3).is_zero():
                    raise InputError("chain identity D3 o D2 = 0 fails")
        return cls(b, d1, d2)
