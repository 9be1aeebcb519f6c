"""Finite-dimensional Hopf algebras by structure constants.

Provides the adjoint Yang-Baxter operator x ox y -> y(1) ox S(y(2)) x y(3),
the braided Frobenius construction on X ox X for (co)commutative Hopf
algebras, and the bridge from Hopf 2-cocycles (xi, zeta) to braided-algebra
2-cochains (Psi_zeta(xi), xi).

The Hopf axioms are written once, as the term table HOPF_AXIOM_TERMS in the
row notation of braided.sum_terms, and check_hopf reads it.  The 2-cocycle
conditions, the normalization conditions and the antipode hexagons are not
written out: they are the first-order parts (cohomology.linearize) of
axiom rows when (mu, Delta, S) becomes (mu + hbar xi, Delta + hbar zeta,
S + hbar S') with eta and epsilon fixed, as in Gerstenhaber-Schack
bialgebra cohomology.  Every table is read by braided.read_tables at the
Hopf algebra's tokens (HopfAlgebra.tokens), so a Hopf algebra needs only
its structure constants.

Psi is computed by deforming (mu, Delta, S) over k[hbar]/(hbar^2), rebuilding
the adjoint operator there, and reading off the hbar coefficient.  That is
the characterization R_deformed = R + hbar Psi, and it sidesteps transcribing
the five-term Sweedler expansion whose iterated-coproduct notation is easy to
get wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .braided import (AXIOM_TERMS, AssociativeAlgebra, BraidedAlgebra, YangBaxterOperator,
                      _check, assert_braided, braided_algebra, check_identity, read_tables)
from .cohomology import D1_TERMS, Cochain, Summands, YBH2Cochain, delta2 as ybh_delta2, linearize
from .constructions import FiniteGroup, dual_numbers
from .errors import InputError, InternalCheckError, ValidationError
from .scalars import TruncatedRing
from .tensor import (TensorMap, compose, decode_index, encode_index, identity_map,
                     transposition, truncated_from_parts, truncated_part)


# ---------------------------------------------------------------- term tables
#
# Rows in the notation of braided.sum_terms, left side minus right side.
# Tokens: m = mu, u = eta, D = Delta, e = epsilon, S the antipode, T the
# transposition tau; "1" is the identity strand and "" the identity of V^0.
# The algebra rows are braided.AXIOM_TERMS's.

HOPF_AXIOM_TERMS = {
    "associativity": AXIOM_TERMS["assoc"],
    "unit-left": AXIOM_TERMS["unit_left"],
    "unit-right": AXIOM_TERMS["unit_right"],
    "coassociativity": ((+1, ("D1", "D")), (-1, ("1D", "D"))),
    "counit-left": ((+1, ("e1", "D")), (-1, ("1",))),
    "counit-right": ((+1, ("1e", "D")), (-1, ("1",))),
    "bialgebra": ((+1, ("D", "m")), (-1, ("mm", "1T1", "DD"))),
    "counit-multiplicative": ((+1, ("e", "m")), (-1, ("ee",))),
    "coproduct-of-unit": ((+1, ("D", "u")), (-1, ("uu",))),
    "counit-of-unit": ((+1, ("e", "u")), (-1, ("",))),
    "antipode-left": ((+1, ("m", "S1", "D")), (-1, ("u", "e"))),
    "antipode-right": ((+1, ("m", "1S", "D")), (-1, ("u", "e"))),
}

HOPF_FLAG_TERMS = {"commutative": ((+1, ("m", "T")), (-1, ("m",))),
                   "cocommutative": ((+1, ("T", "D")), (-1, ("D",))),
                   "involutory": ((+1, ("S", "S")), (-1, ("1",)))}

# lam is a left integral of the dual Hopf algebra: (1 ox lam) Delta = eta lam.
LEFT_INTEGRAL_TERMS = ((+1, ("1L", "D")), (-1, ("u", "L")))

# First order in (mu + hbar xi, Delta + hbar zeta, S + hbar S'): the slots
# x = xi, z = zeta and y = S'.
_FIRST_ORDER = {"m": "x", "D": "z", "S": "y"}
HOPF_COCYCLE_TERMS = {name: linearize(HOPF_AXIOM_TERMS[axiom], _FIRST_ORDER) for name, axiom in (
    ("algebra-cocycle", "associativity"), ("coalgebra-cocycle", "coassociativity"),
    ("bialgebra-compatibility", "bialgebra"))}
# A normalized pair keeps eta the unit and epsilon the counit.
NORMALIZATION_TERMS = tuple(linearize(HOPF_AXIOM_TERMS[axiom], _FIRST_ORDER) for axiom in
                            ("unit-left", "unit-right", "counit-right", "counit-left"))
HEXAGON_TERMS = tuple(linearize(HOPF_AXIOM_TERMS[axiom], _FIRST_ORDER)
                      for axiom in ("antipode-left", "antipode-right"))

# S' = -S(x(1)) xi(x(2) ox S(x(3))) - S(x(1)) mu((1 ox S) zeta(x(2)))
ANTIPODE_CORRECTION_TERMS = ((-1, ("m", "Sx", "11S", "D1", "D")),
                             (-1, ("m", "Sm", "11S", "1z", "D")))
# The zeta part of the coboundary of a 1-cochain f.
COBOUNDARY_ZETA_TERMS = ((+1, ("f1", "D")), (+1, ("1f", "D")), (-1, ("D", "f")))


class HopfAlgebra:
    """A Hopf algebra whose (mu, eta) is kept as an AssociativeAlgebra, so the
    associativity and unit verdicts are computed once and shared with every
    braided algebra built on it."""

    LIFT_PARTS = ("algebra",)

    def __init__(self, field, dim, mu, eta, delta, epsilon, antipode, labels=None):
        shapes = {"mu": (mu, 2, 1), "eta": (eta, 0, 1), "Delta": (delta, 1, 2),
                  "epsilon": (epsilon, 1, 0), "S": (antipode, 1, 1)}
        for name, (t, n, k) in shapes.items():
            if (t.in_arity, t.out_arity) != (n, k) or t.dim != dim:
                raise InputError(f"{name} must be a ({n}->{k}) map of dimension {dim}")
        self.algebra = AssociativeAlgebra(field, dim, mu, eta, labels)
        self.field = field
        self.dim = dim
        self.delta = delta
        self.epsilon = epsilon
        self.antipode = antipode
        self._checks: list | None = None
        self._flags: dict | None = None
        self._braided: BraidedAlgebra | None = None

    @property
    def mu(self) -> TensorMap:
        return self.algebra.mu

    @property
    def eta(self) -> TensorMap:
        return self.algebra.unit

    @property
    def labels(self) -> list:
        return self.algebra.labels

    def tokens(self) -> dict:
        return {**self.algebra.tokens(), "D": self.delta, "e": self.epsilon,
                "S": self.antipode, "T": transposition(self.field, self.dim)}

    def check_hopf(self) -> list:
        """One check per row of HOPF_AXIOM_TERMS, in its order, computed
        once; the three algebra verdicts are the AssociativeAlgebra's."""
        if self._checks is None:
            known = {res.name: res for res in (self.algebra.check_associative(),
                                               *self.algebra.unit_checks())}
            self._checks = [known[name] if name in known else check_identity(self, name, rows)
                            for name, rows in HOPF_AXIOM_TERMS.items()]
        return self._checks

    def require(self) -> "HopfAlgebra":
        bad = [c for c in self.check_hopf() if not c.ok]
        if bad:
            raise ValidationError(
                "Hopf axioms fail: " + "; ".join(c.describe() for c in bad),
                witness=bad[0].witness)
        return self

    @property
    def flags(self) -> dict:
        if self._flags is None:
            self._flags = {name: check_identity(self, name, rows).ok
                           for name, rows in HOPF_FLAG_TERMS.items()}
        return self._flags

    def __repr__(self):
        return f"HopfAlgebra(dim={self.dim}, {self.field!r})"


def group_hopf(g: FiniteGroup, field) -> HopfAlgebra:
    """k[G] with diagonal coproduct and inversion antipode."""
    d = g.order
    one = field.one
    mu = TensorMap.from_entries(
        field, d, 2, 1,
        ((g.mul(x, y), encode_index((x, y), d), one) for x in range(d) for y in range(d)))
    eta = TensorMap.from_entries(field, d, 0, 1, [(g.identity, 0, one)])
    delta = TensorMap.from_entries(
        field, d, 1, 2, ((encode_index((x, x), d), x, one) for x in range(d)))
    eps = TensorMap.from_entries(field, d, 1, 0, ((0, x, one) for x in range(d)))
    s = TensorMap.from_entries(field, d, 1, 1, ((g.inv(x), x, one) for x in range(d)))
    return HopfAlgebra(field, d, mu, eta, delta, eps, s, labels=list(g.labels)).require()


def dual_numbers_hopf(field) -> HopfAlgebra:
    """k[t]/(t^2) with t primitive; a bialgebra only in characteristic 2
    (Delta(t)^2 = 2 t ox t must vanish)."""
    if field.characteristic != 2:
        raise InputError("k[t]/(t^2) with primitive t is a Hopf algebra only in characteristic 2")
    a = dual_numbers(field)
    d, one = 2, field.one
    delta = TensorMap.from_entries(
        field, d, 1, 2,
        [(encode_index((0, 0), d), 0, one),
         (encode_index((1, 0), d), 1, one), (encode_index((0, 1), d), 1, one)])
    eps = TensorMap.from_entries(field, d, 1, 0, [(0, 0, one)])
    s = identity_map(field, d, 1)  # S(t) = -t = t in characteristic 2
    return HopfAlgebra(field, d, a.mu, a.unit, delta, eps, s, labels=["1", "t"]).require()


# ---------------------------------------------------------------- adjoint operator

def _coproduct_terms(delta: TensorMap) -> list:
    """For each basis element y, the terms (y1, y2, y3, c) of the iterated
    coproduct (Delta ox 1) Delta (y) = sum c y1 ox y2 ox y3."""
    d = delta.dim
    one = identity_map(delta.field, d, 1)
    cols = compose(delta.tensor(one), delta).to_sparse_data()
    return [[decode_index(t, d, 3) + (c,) for t, c in cols.get(y, {}).items()]
            for y in range(d)]


def _evaluate(ring, d: int, in_arity: int, out_arity: int, terms) -> TensorMap:
    """The map whose column col is the sum of c * (v_1 ox ... ox v_k) over the
    terms (col, c, (v_1, ..., v_k)); each v_j is a {basis index: scalar}
    vector of V and k = out_arity."""
    mul = ring.mul

    def entries():
        for col, c, vectors in terms:
            for picks in product(*(v.items() for v in vectors)):
                row, value = 0, c
                for i, s in picks:
                    row, value = row * d + i, mul(value, s)
                yield row, col, value
    return TensorMap.from_entries(ring, d, in_arity, out_arity, entries())


def adjoint_operator(mu: TensorMap, delta: TensorMap, antipode: TensorMap) -> TensorMap:
    """x ox y -> y(1) ox S(y(2)) x y(3), evaluated on basis inputs: for every
    term c y1 ox y2 ox y3 of (Delta ox 1) Delta (y), column x ox y gains
    c y1 ox A(y2, x, y3) with A(a, x, b) = S(a) x b.

    Works over truncated rings too, which is how Psi is extracted from a
    deformed Hopf structure.
    """
    ring, d = mu.field, mu.dim
    one = identity_map(ring, d, 1)
    act = compose(mu, mu.tensor(one), antipode.tensor(one).tensor(one)).to_sparse_data()
    unit = ring.one
    return _evaluate(ring, d, 2, 2, (
        (x * d + y, c, ({y1: unit}, act.get((y2 * d + x) * d + y3, {})))
        for y, terms in enumerate(_coproduct_terms(delta))
        for y1, y2, y3, c in terms for x in range(d)))


def adjoint_yb(h: HopfAlgebra):
    """The adjoint YB operator of a verified Hopf algebra, YBE-checked."""
    h.require()
    op = YangBaxterOperator(h.field, h.dim, adjoint_operator(h.mu, h.delta, h.antipode))
    res = op.check_yb()
    if not res.ok:
        raise InternalCheckError(f"adjoint operator fails the YBE at {res.witness}")
    return op


def braided_from_hopf(h: HopfAlgebra) -> BraidedAlgebra:
    """(H, mu, R_H) as a braided algebra on h's own (mu, eta), so the
    associativity and YBE verdicts are not computed again; braided-ness is
    a theorem here.  Built and verified once per Hopf algebra and kept on h
    (write-once; h's maps are immutable)."""
    if h._braided is None:
        h._braided = assert_braided(BraidedAlgebra(h.algebra, adjoint_yb(h)),
                                    "adjoint braided algebra")
    return h._braided


# ---------------------------------------------------------------- integrals and Frobenius

@dataclass
class LeftIntegral:
    functional: TensorMap  # (1 -> 0)
    rank: int
    basis: list


def find_left_integral(h: HopfAlgebra) -> LeftIntegral:
    """Nonzero functional lam with (1 ox lam) Delta(x) = lam(x) eta(1) for all
    basis x (LEFT_INTEGRAL_TERMS); reports the full solution-space rank,
    which is 1 for the families handled here."""
    h.require()
    f, d = h.field, h.dim
    space = Summands([("lam", 1, 0)])
    basis = space.matrix(
        f, d, lambda lam: read_tables(h, {"L": lam}, LEFT_INTEGRAL_TERMS)).kernel_basis()
    if not basis:
        raise ValidationError("no nonzero left integral functional exists")
    # each scaled to lead with 1
    sols = [space.unflatten(v, f, d)[0].scale(f.inv(next(x for x in v if not f.is_zero(x))))
            for v in basis]
    return LeftIntegral(functional=sols[0], rank=len(basis), basis=sols)


def frobenius_operator(mu: TensorMap, delta: TensorMap, antipode: TensorMap) -> TensorMap:
    """R on V = X ox X: (x ox y) ox (z ox w) -> (z(1) ox w(1)) ox
    (T(x, z(2), w(2)) ox T(y, z(3), w(3))) with T(x, y, z) = x S(y) z,
    evaluated on basis inputs from the iterated coproduct and the columns
    of T, so it never passes through X^8."""
    ring, d = mu.field, mu.dim
    one = identity_map(ring, d, 1)
    t_map = compose(mu, mu.tensor(one), one.tensor(antipode).tensor(one)).to_sparse_data()
    terms = _coproduct_terms(delta)
    unit, mul = ring.one, ring.mul
    return _evaluate(ring, d, 4, 4, (
        (((x * d + y) * d + z) * d + w, mul(cz, cw),
         ({z1: unit}, {w1: unit}, t_map.get((x * d + z2) * d + w2, {}),
          t_map.get((y * d + z3) * d + w3, {})))
        for x, y, z, w in product(range(d), repeat=4)
        for z1, z2, z3, cz in terms[z] for w1, w2, w3, cw in terms[w])).with_shape(d * d, 2, 2)


def braided_frobenius(h: HopfAlgebra) -> BraidedAlgebra:
    """Braided Frobenius algebra on V = X ox X from a commutative and
    cocommutative Hopf algebra X.

    mu_V = 1 ox cup ox 1 with cup = lam mu (1 ox S), and R is
    frobenius_operator(mu, Delta, S).
    """
    h.require()
    if not (h.flags["commutative"] and h.flags["cocommutative"]):
        raise InputError("braided Frobenius construction needs a commutative and "
                         "cocommutative Hopf algebra")
    integral = find_left_integral(h)
    if integral.rank != 1:
        raise InputError(f"integral space has rank {integral.rank}, expected 1")
    f, d = h.field, h.dim
    one = identity_map(f, d, 1)
    cup = compose(integral.functional, h.mu, one.tensor(h.antipode))
    mu_v = one.tensor(cup).tensor(one).with_shape(d * d, 2, 1)
    r_v = frobenius_operator(h.mu, h.delta, h.antipode)
    labels = [f"{a}|{b}" for a in h.labels for b in h.labels]
    out = braided_algebra(f, d * d, mu_v, r_v, labels=labels, require=False)
    return assert_braided(out, "braided Frobenius algebra")


# ---------------------------------------------------------------- Hopf 2-cocycles

@dataclass(eq=False)
class HopfTwoCochain(Cochain):
    SUMMANDS = Summands([("xi", 2, 1),     # deforms mu
                         ("zeta", 1, 2)])  # deforms Delta
    xi: TensorMap
    zeta: TensorMap


def hopf_coboundary(h: HopfAlgebra, f: TensorMap) -> HopfTwoCochain:
    """The 2-cochain pair split off by conjugating the undeformed structure
    with 1 + hbar f:

        xi   = f mu - mu (f ox 1) - mu (1 ox f)       (= -delta^1_H f)
        zeta = (f ox 1) Delta + (1 ox f) Delta - Delta f

    With these relative signs the pair satisfies all three 2-cocycle
    conditions (the mixed bialgebra condition fixes the sign of xi against
    zeta; flipping either one breaks it).
    """
    if (f.in_arity, f.out_arity) != (1, 1) or f.dim != h.dim:
        raise InputError("coboundary argument must be a (1->1) map")
    hochschild, zeta = read_tables(h, {"f": f}, D1_TERMS["psi"], COBOUNDARY_ZETA_TERMS)
    return HopfTwoCochain(xi=-hochschild, zeta=zeta)


def check_hopf_2cocycle(h: HopfAlgebra, c: HopfTwoCochain) -> list:
    defects = read_tables(h, {"x": c.xi, "z": c.zeta}, *HOPF_COCYCLE_TERMS.values())
    return [_check(name, defect) for name, defect in zip(HOPF_COCYCLE_TERMS, defects)]


def is_hopf_2cocycle(h: HopfAlgebra, c: HopfTwoCochain) -> bool:
    return all(res.ok for res in check_hopf_2cocycle(h, c))


def check_normalized(h: HopfAlgebra, c: HopfTwoCochain) -> bool:
    """xi(1 ox x) = xi(x ox 1) = 0 and (1 ox eps) zeta = (eps ox 1) zeta = 0."""
    return all(t.is_zero() for t in read_tables(h, {"x": c.xi, "z": c.zeta},
                                                *NORMALIZATION_TERMS))


def antipode_correction(h: HopfAlgebra, c: HopfTwoCochain) -> TensorMap:
    """The unique S' with S + hbar S' an antipode for (mu + hbar xi,
    Delta + hbar zeta):

        S'(x) = -S(x(1)) xi(x(2) ox S(x(3))) - S(x(1)) mu((1 ox S) zeta(x(2)))

    Both first-order antipode conditions (the hexagons, HEXAGON_TERMS) are
    verified exactly; failure means c was not a normalized 2-cocycle.
    """
    slots = {"x": c.xi, "z": c.zeta}
    s1 = slots["y"] = read_tables(h, slots, ANTIPODE_CORRECTION_TERMS)[0]
    if not all(t.is_zero() for t in read_tables(h, slots, *HEXAGON_TERMS)):
        raise ValidationError("antipode correction fails the hexagon identities; "
                              "the pair is not a normalized 2-cocycle")
    return s1


def psi_map(h: HopfAlgebra, c: HopfTwoCochain, check: bool = True):
    """(xi, zeta) -> (Psi_zeta(xi), xi), the induced braided-algebra 2-cochain.

    Psi_zeta(xi) is the hbar coefficient of the adjoint operator of the
    deformed Hopf algebra (mu + hbar xi, Delta + hbar zeta, S + hbar S')
    over k[hbar]/(hbar^2).  For a normalized cocycle the result is a
    2-cocycle of (H, mu, R_H); that is re-verified unless check=False.
    """
    if not check_normalized(h, c):
        raise InputError("psi_map needs a normalized 2-cochain")
    bad = [r for r in check_hopf_2cocycle(h, c) if not r.ok]
    if bad:
        raise InputError("psi_map needs a 2-cocycle; failing: "
                         + "; ".join(r.describe() for r in bad))
    s1 = antipode_correction(h, c)
    ring = TruncatedRing(h.field, 2)
    mu_t = truncated_from_parts(ring, [h.mu, c.xi])
    delta_t = truncated_from_parts(ring, [h.delta, c.zeta])
    s_t = truncated_from_parts(ring, [h.antipode, s1])
    r_t = adjoint_operator(mu_t, delta_t, s_t)
    r0 = truncated_part(r_t, 0)
    psi = truncated_part(r_t, 1)
    b = braided_from_hopf(h)
    if r0 != b.r:
        raise InternalCheckError("deformed adjoint operator does not reduce to R_H")
    pair = YBH2Cochain(phi=psi, psi=c.xi)
    if check and not ybh_delta2(b, pair).is_zero():
        raise InternalCheckError("psi_map output fails the braided 2-cocycle conditions")
    return pair


def normalized_cocycle_basis(h: HopfAlgebra) -> list:
    """Kernel search: basis of the space of normalized Hopf 2-cocycles.

    The three cocycle conditions and the four normalization identities are
    linear in (xi, zeta); they are assembled columnwise on basis cochains
    and the kernel is returned as HopfTwoCochain objects.
    """
    h.require()
    tables = (*HOPF_COCYCLE_TERMS.values(), *NORMALIZATION_TERMS)
    m = HopfTwoCochain.SUMMANDS.matrix(
        h.field, h.dim, lambda xi, zeta: read_tables(h, {"x": xi, "z": zeta}, *tables))
    return [HopfTwoCochain.unflatten(v, h.field, h.dim) for v in m.kernel_basis()]
