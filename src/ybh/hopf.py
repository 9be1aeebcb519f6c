"""Finite-dimensional Hopf algebras by structure constants.

Provides the adjoint Yang-Baxter operator x ox y -> y(1) ox S(y(2)) x y(3),
the braided Frobenius construction on X ox X for (co)commutative Hopf
algebras, and the bridge from Hopf 2-cocycles (xi, zeta) to braided-algebra
2-cochains (Psi_zeta(xi), xi).

Psi is computed by deforming (mu, Delta, S) over k[hbar]/(hbar^2), rebuilding
the adjoint operator there, and reading off the hbar coefficient.  That is
the characterization R_deformed = R + hbar Psi, and it sidesteps transcribing
the five-term Sweedler expansion whose iterated-coproduct notation is easy to
get wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .braided import (AssociativeAlgebra, BraidedAlgebra, YangBaxterOperator, _check,
                      assert_braided, braided_algebra)
from .cohomology import (Cochain, Summands, YBH2Cochain, delta2 as ybh_delta2,
                         hochschild_differential)
from .constructions import FiniteGroup, dual_numbers
from .errors import InputError, InternalCheckError, ValidationError
from .linalg import ExactMatrix
from .scalars import TruncatedRing
from .tensor import (TensorMap, compose, decode_index, encode_index, identity_map,
                     transposition, truncated_from_parts, truncated_part)


class HopfAlgebra:
    """A Hopf algebra whose (mu, eta) is kept as an AssociativeAlgebra, so the
    associativity and unit verdicts are computed once and shared with every
    braided algebra built on it."""

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

    def check_hopf(self) -> list:
        if self._checks is not None:
            return self._checks
        f, d = self.field, self.dim
        one = identity_map(f, d, 1)
        tau = transposition(f, d)
        mu, eta, delta, eps, s = self.mu, self.eta, self.delta, self.epsilon, self.antipode
        unit_left, unit_right = self.algebra.unit_defects()
        checks = [
            self.algebra.check_associative(),
            _check("unit-left", unit_left),
            _check("unit-right", unit_right),
            _check("coassociativity",
                   compose(delta.tensor(one), delta) - compose(one.tensor(delta), delta)),
            _check("counit-left", compose(eps.tensor(one), delta) - one),
            _check("counit-right", compose(one.tensor(eps), delta) - one),
            _check("bialgebra",
                   compose(delta, mu)
                   - compose(mu.tensor(mu), one.tensor(tau).tensor(one),
                             delta.tensor(delta))),
            _check("counit-multiplicative", compose(eps, mu) - eps.tensor(eps)),
            _check("coproduct-of-unit", compose(delta, eta) - eta.tensor(eta)),
            _check("counit-of-unit", compose(eps, eta) - identity_map(f, d, 0)),
            _check("antipode-left", compose(mu, s.tensor(one), delta) - compose(eta, eps)),
            _check("antipode-right", compose(mu, one.tensor(s), delta) - compose(eta, eps)),
        ]
        self._checks = checks
        return checks

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
            f, d = self.field, self.dim
            one = identity_map(f, d, 1)
            tau = transposition(f, d)
            self._flags = {
                "commutative": self.mu.compose(tau) == self.mu,
                "cocommutative": tau.compose(self.delta) == self.delta,
                "involutory": self.antipode.compose(self.antipode) == one,
            }
        return self._flags

    def iterated_coproduct(self) -> TensorMap:
        """(Delta ox 1) Delta : V -> V^3."""
        one = identity_map(self.field, self.dim, 1)
        return compose(self.delta.tensor(one), self.delta)

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
    basis x (a left integral of the dual Hopf algebra); reports the full
    solution-space rank, which is 1 for the families handled here."""
    h.require()
    f, d = h.field, h.dim
    rows = []
    eta_vec = [h.eta.entry(a, 0) for a in range(d)]
    entries = []
    for x in range(d):
        for a in range(d):
            row = x * d + a
            for b in range(d):
                c = h.delta.entry(encode_index((a, b), d), x)
                if not f.is_zero(c):
                    entries.append((row, b, c))
            if not f.is_zero(eta_vec[a]):
                entries.append((row, x, f.neg(eta_vec[a])))
    m = ExactMatrix.from_entries(f, d * d, d, entries)
    basis = m.kernel_basis()
    if not basis:
        raise ValidationError("no nonzero left integral functional exists")
    sols = []
    for v in basis:
        lead = next(i for i, x in enumerate(v) if not f.is_zero(x))
        scale = f.inv(v[lead])
        sols.append(TensorMap.from_entries(
            f, d, 1, 0,
            ((0, i, f.mul(scale, x)) for i, x in enumerate(v) if not f.is_zero(x))))
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
    one = identity_map(h.field, h.dim, 1)
    xi = -hochschild_differential(h.mu, 1, f)
    zeta = compose(f.tensor(one), h.delta) + compose(one.tensor(f), h.delta) \
        - compose(h.delta, f)
    return HopfTwoCochain(xi=xi, zeta=zeta)


def _cocycle_defects(h: HopfAlgebra, c: HopfTwoCochain) -> list:
    f, d = h.field, h.dim
    one = identity_map(f, d, 1)
    tau = transposition(f, d)
    mu, delta = h.mu, h.delta
    xi, zeta = c.xi, c.zeta
    alg = hochschild_differential(mu, 2, xi)
    coalg = compose(one.tensor(zeta), delta) + compose(one.tensor(delta), zeta) \
        - compose(zeta.tensor(one), delta) - compose(delta.tensor(one), zeta)
    # Delta^13(x) Delta^24(y) compiles to the shuffle (1 ox tau ox 1)(Delta ox Delta)
    shuffle = compose(one.tensor(tau).tensor(one), delta.tensor(delta))
    compat = compose(delta, xi) + compose(zeta, mu) \
        - compose(mu.tensor(xi), shuffle) - compose(xi.tensor(mu), shuffle) \
        - compose(mu.tensor(mu), one.tensor(tau).tensor(one), zeta.tensor(delta)) \
        - compose(mu.tensor(mu), one.tensor(tau).tensor(one), delta.tensor(zeta))
    return [("algebra-cocycle", alg), ("coalgebra-cocycle", coalg),
            ("bialgebra-compatibility", compat)]


def check_hopf_2cocycle(h: HopfAlgebra, c: HopfTwoCochain) -> list:
    return [_check(name, defect) for name, defect in _cocycle_defects(h, c)]


def is_hopf_2cocycle(h: HopfAlgebra, c: HopfTwoCochain) -> bool:
    return all(res.ok for res in check_hopf_2cocycle(h, c))


def _normalization_defects(h: HopfAlgebra, c: HopfTwoCochain) -> list:
    one = identity_map(h.field, h.dim, 1)
    return [compose(c.xi, h.eta.tensor(one)), compose(c.xi, one.tensor(h.eta)),
            compose(one.tensor(h.epsilon), c.zeta), compose(h.epsilon.tensor(one), c.zeta)]


def check_normalized(h: HopfAlgebra, c: HopfTwoCochain) -> bool:
    """xi(1 ox x) = xi(x ox 1) = 0 and (1 ox eps) zeta = (eps ox 1) zeta = 0."""
    return all(t.is_zero() for t in _normalization_defects(h, c))


def antipode_correction(h: HopfAlgebra, c: HopfTwoCochain) -> TensorMap:
    """The unique S' with S + hbar S' an antipode for (mu + hbar xi,
    Delta + hbar zeta):

        S'(x) = -S(x(1)) xi(x(2) ox S(x(3))) - S(x(1)) mu((1 ox S) zeta(x(2)))

    Both degree-1 antipode conditions (the hexagons) are verified exactly;
    failure means c was not a normalized 2-cocycle.
    """
    f, d = h.field, h.dim
    one = identity_map(f, d, 1)
    mu, delta, s = h.mu, h.delta, h.antipode
    xi, zeta = c.xi, c.zeta
    delta2 = h.iterated_coproduct()
    term1 = compose(mu, s.tensor(xi), one.tensor(one).tensor(s), delta2)
    w = compose(mu, one.tensor(s), zeta)
    term2 = compose(mu, s.tensor(w), delta)
    s1 = -(term1 + term2)
    hex_a = compose(xi, one.tensor(s), delta) + compose(mu, one.tensor(s), zeta) \
        + compose(mu, one.tensor(s1), delta)
    hex_b = compose(xi, s.tensor(one), delta) + compose(mu, s.tensor(one), zeta) \
        + compose(mu, s1.tensor(one), delta)
    if not (hex_a.is_zero() and hex_b.is_zero()):
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

    def conditions(xi: TensorMap, zeta: TensorMap) -> list:
        c = HopfTwoCochain(xi, zeta)
        return [defect for _, defect in _cocycle_defects(h, c)] + _normalization_defects(h, c)

    m = HopfTwoCochain.SUMMANDS.matrix(h.field, h.dim, conditions)
    return [HopfTwoCochain.unflatten(v, h.field, h.dim) for v in m.kernel_basis()]
