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

from .braided import (BraidedAlgebra, _check, assert_braided, assoc_defect,
                      braided_algebra)
from .cohomology import (Cochain, Summands, YBH2Cochain, delta2 as ybh_delta2,
                         hochschild_differential)
from .constructions import FiniteGroup, dual_numbers
from .errors import InputError, InternalCheckError, ValidationError
from .linalg import ExactMatrix
from .scalars import TruncatedRing
from .tensor import (TensorMap, compose, encode_index, identity_map,
                     transposition, truncated_from_parts, truncated_part)


class HopfAlgebra:
    def __init__(self, field, dim, mu, eta, delta, epsilon, antipode, labels=None):
        shapes = {"mu": (mu, 2, 1), "eta": (eta, 0, 1), "Delta": (delta, 1, 2),
                  "epsilon": (epsilon, 1, 0), "S": (antipode, 1, 1)}
        for name, (t, n, k) in shapes.items():
            if (t.in_arity, t.out_arity) != (n, k) or t.dim != dim:
                raise InputError(f"{name} must be a ({n}->{k}) map of dimension {dim}")
        self.field = field
        self.dim = dim
        self.mu = mu
        self.eta = eta
        self.delta = delta
        self.epsilon = epsilon
        self.antipode = antipode
        self.labels = labels or [f"e{i}" for i in range(dim)]
        self._checks: list | None = None
        self._flags: dict | None = None

    def check_hopf(self) -> list:
        if self._checks is not None:
            return self._checks
        f, d = self.field, self.dim
        one = identity_map(f, d, 1)
        tau = transposition(f, d)
        mu, eta, delta, eps, s = self.mu, self.eta, self.delta, self.epsilon, self.antipode
        checks = [
            _check("associativity", assoc_defect(mu)),
            _check("unit-left", compose(mu, eta.tensor(one)) - one),
            _check("unit-right", compose(mu, one.tensor(eta)) - one),
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

def adjoint_operator(mu: TensorMap, delta: TensorMap, antipode: TensorMap) -> TensorMap:
    """x ox y -> y(1) ox S(y(2)) x y(3), assembled from structure maps.

    Works over truncated rings too, which is how Psi is extracted from a
    deformed Hopf structure.
    """
    ring, d = mu.field, mu.dim
    one = identity_map(ring, d, 1)
    delta2 = compose(delta.tensor(one), delta)
    mu2 = compose(mu, mu.tensor(one))
    sigma = TensorMap.permutation(ring, d, 4, [1, 2, 0, 3])
    return compose(one.tensor(mu2), one.tensor(antipode).tensor(one).tensor(one),
                   sigma, one.tensor(delta2))


def adjoint_yb(h: HopfAlgebra):
    """The adjoint YB operator of a verified Hopf algebra, YBE-checked."""
    from .braided import YangBaxterOperator
    h.require()
    r = adjoint_operator(h.mu, h.delta, h.antipode)
    op = YangBaxterOperator(h.field, h.dim, r)
    res = op.check_yb()
    if not res.ok:
        raise InternalCheckError(f"adjoint operator fails the YBE at {res.witness}")
    return op


def braided_from_hopf(h: HopfAlgebra) -> BraidedAlgebra:
    """(H, mu, R_H) as a braided algebra; braided-ness is a theorem here."""
    op = adjoint_yb(h)
    b = braided_algebra(h.field, h.dim, h.mu, op.r, unit=h.eta,
                        labels=list(h.labels), require=False)
    return assert_braided(b, "adjoint braided algebra")


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


def braided_frobenius(h: HopfAlgebra) -> BraidedAlgebra:
    """Braided Frobenius algebra on V = X ox X from a commutative and
    cocommutative Hopf algebra X.

    mu_V = 1 ox cup ox 1 with cup = lam mu (1 ox S), and R sends
    (x ox y) ox (z ox w) to (z(1) ox w(1)) ox T(x, z(2), w(2)) ox
    T(y, z(3), w(3)) with T(x, y, z) = x S(y) z.
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

    t_map = compose(h.mu, h.mu.tensor(one), one.tensor(h.antipode).tensor(one))
    delta2 = h.iterated_coproduct()
    spread = one.tensor(one).tensor(delta2).tensor(delta2)  # X^4 -> X^8
    # inputs x y z1 z2 z3 w1 w2 w3  ->  z1 w1 x z2 w2 y z3 w3
    shuffle = TensorMap.permutation(f, d, 8, [2, 5, 0, 3, 6, 1, 4, 7])
    collect = one.tensor(one).tensor(t_map).tensor(t_map)  # X^8 -> X^4
    r_v = compose(collect, shuffle, spread).with_shape(d * d, 2, 2)

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
