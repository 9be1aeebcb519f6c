"""Deformations of braided algebras over truncated power-series rings.

A series (mu + hbar psi_1 + ... + hbar^n psi_n, R + hbar phi_1 + ...) is an
order-n deformation exactly when all four structure axioms hold over
k[hbar]/(hbar^(n+1)).  Verification always goes through the truncated ring:
one code path covers every axiom at every order and cannot drift from the
bookkeeping of the bundle tables.

The degree-r obstruction bundle, the hbar^r part of the axiom defects of
the order-(r-1) series, is computed twice: as an order-r read of the axiom
rows (bundle_terms; production path), and as the hbar^r coefficient of the
defects over k[hbar]/(hbar^(r+1)) (oracle path, used by the tests).  For
r = 2 the bundle of any 2-cocycle is annihilated by the degree-3
differential, and extending to a quadratic deformation is the exact linear
problem D2 x = -bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .braided import (AXIOM_TERMS, BraidedAlgebra, _witness, assoc_defect, iy_defect,
                      read_tables, yb_defect, yi_defect)
from .cohomology import (C3_AXIOMS, YBH2Cochain, YBH3Cochain, axiom_defect_coefficients,
                         delta1, delta2, delta3, differential_matrix, linearize)
from .errors import InputError, InternalCheckError
from .linalg import SolveCertificate
from .scalars import TruncatedRing
from .tensor import TensorMap, identity_map, truncated_from_parts, truncated_part


@dataclass
class DeformationSeries:
    base: BraidedAlgebra
    phi_terms: list  # phi_1 ... phi_n, (2 -> 2)
    psi_terms: list  # psi_1 ... psi_n, (2 -> 1)

    def __post_init__(self):
        if len(self.phi_terms) != len(self.psi_terms):
            raise InputError("phi_terms and psi_terms must have equal length")
        for t, (n, k) in [(p, (2, 2)) for p in self.phi_terms] + \
                         [(p, (2, 1)) for p in self.psi_terms]:
            if (t.in_arity, t.out_arity) != (n, k) or t.dim != self.base.dim:
                raise InputError(f"series term has shape ({t.in_arity}->{t.out_arity}), "
                                 f"expected ({n}->{k}) at dimension {self.base.dim}")

    @property
    def order(self) -> int:
        return len(self.phi_terms)

    def truncated_maps(self, ring_order: int):
        """(mu_n, R_n) over k[hbar]/(hbar^ring_order), higher terms dropped."""
        ring = TruncatedRing(self.base.field, ring_order)
        return (truncated_from_parts(ring, [self.base.mu, *self.psi_terms][:ring_order]),
                truncated_from_parts(ring, [self.base.r, *self.phi_terms][:ring_order]), ring)

    def truncate(self, order: int) -> "DeformationSeries":
        if order > self.order:
            raise InputError("cannot truncate upward")
        return DeformationSeries(self.base, self.phi_terms[:order], self.psi_terms[:order])


def series_from_cocycle(b: BraidedAlgebra, c: YBH2Cochain) -> DeformationSeries:
    return DeformationSeries(b, [c.phi], [c.psi])


@dataclass
class DeformationReport:
    ok: bool
    axiom: str | None = None
    hbar_degree: int | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "deformation verifies"
        return (f"{self.axiom} fails at hbar^{self.hbar_degree}, "
                f"basis input {self.witness}")


def _first_failure(name: str, defect: TensorMap) -> DeformationReport | None:
    for j in range(defect.field.order):
        witness = _witness(truncated_part(defect, j))
        if witness is not None:
            return DeformationReport(False, name, j, witness)
    return None


def verify_deformation(s: DeformationSeries) -> DeformationReport:
    """Exact check of associativity, YBE, YI and IY for (mu_n, R_n) over
    k[hbar]/(hbar^(n+1)), plus invertibility of R_n over the truncated ring
    (the hbar^0 part being invertible suffices; the inverse is constructed)."""
    mu_t, r_t, ring = s.truncated_maps(s.order + 1)
    for name, defect in [("associativity", assoc_defect(mu_t)),
                         ("yang-baxter", yb_defect(r_t)),
                         ("yi", yi_defect(mu_t, r_t)),
                         ("iy", iy_defect(mu_t, r_t))]:
        fail = _first_failure(name, defect)
        if fail is not None:
            return fail
    _truncated_inverse(r_t, s.base.yb.r_inverse, ring)
    return DeformationReport(True)


def _truncated_inverse(r_t: TensorMap, r0_inv: TensorMap, ring) -> TensorMap:
    """Neumann series inverse of R + O(hbar); verified by composition."""
    base_inv = truncated_from_parts(ring, [r0_inv])
    ident = identity_map(ring, r_t.dim, 2)
    correction = ident - base_inv.compose(r_t)  # nilpotent: multiple of hbar
    inv = base_inv
    power = correction
    for _ in range(ring.order - 1):
        inv = inv + power.compose(base_inv)
        power = power.compose(correction)
    if not (inv.compose(r_t) == ident and r_t.compose(inv) == ident):
        raise InternalCheckError("truncated inverse of R failed to verify")
    return inv


# ---------------------------------------------------------------- obstruction bundles

class ObstructionBundle(YBH3Cochain):
    """A degree-r obstruction bundle: the C^3 cochain of the hbar^r parts
    of the YBE, YI, IY and associativity defects of an order-(r-1) series,
    in the summands beta, alpha_yi, alpha_iy, gamma."""

    def as_cochain3(self) -> YBH3Cochain:
        return YBH3Cochain(*self.parts())


def series_slots(n: int) -> dict:
    """One-character slot tokens for the terms of an order-n series, keyed
    by the structure token they deform: phi_i is chr(0xE000 + 2i) and psi_i
    chr(0xE001 + 2i), private-use code points no table word uses."""
    return {t: "".join(chr(0xE000 + 2 * i + k) for i in range(1, n + 1))
            for k, t in enumerate("Rm")}


@cache
def bundle_terms(r: int) -> dict:
    """The degree-r bundle as term tables, one per C^3 summand: the hbar^r
    part of its axiom's rows when R and mu carry the terms of an order-(r-1)
    series (series_slots).  No slot has order r: the delta2 rows drop out."""
    slots = series_slots(r - 1)
    return {name: linearize(AXIOM_TERMS[axiom], slots, r) for name, axiom in C3_AXIOMS.items()}


def obstruction_bundle(s: DeformationSeries, r: int) -> ObstructionBundle:
    """The degree-r obstruction bundle of s: bundle_terms(r) read at the
    algebra's structure maps with the slots filled from s."""
    if r < 2:
        raise InputError("obstruction bundles start at degree 2")
    if s.order < r - 1:
        raise InputError(f"series of order {s.order} has no degree-{r} obstruction")
    slots = series_slots(r - 1)
    terms = {**dict(zip(slots["R"], s.phi_terms)), **dict(zip(slots["m"], s.psi_terms))}
    return ObstructionBundle(*read_tables(s.base, terms, *bundle_terms(r).values()))


def obstruction_bundle_oracle(s: DeformationSeries, r: int) -> ObstructionBundle:
    """Independent route: the hbar^r coefficient of each axiom defect of the
    order-(r-1) truncation, over k[hbar]/(hbar^(r+1))."""
    if r < 2:
        raise InputError("obstruction bundles start at degree 2")
    mu_t, r_t, _ = s.truncate(min(s.order, r - 1)).truncated_maps(r + 1)
    return ObstructionBundle(*axiom_defect_coefficients(mu_t, r_t, r))


def obstruction_is_cocycle(b: BraidedAlgebra, c: YBH2Cochain) -> bool:
    """delta^3 annihilates the degree-2 obstruction bundle of a 2-cocycle."""
    if not delta2(b, c).is_zero():
        raise InputError("obstruction_is_cocycle needs a 2-cocycle")
    bundle = obstruction_bundle(series_from_cocycle(b, c), 2)
    return delta3(b, bundle).is_zero()


# ---------------------------------------------------------------- quadratic extension

@dataclass
class QuadraticExtension:
    success: bool
    phi2: TensorMap | None = None
    psi2: TensorMap | None = None
    certificate: SolveCertificate | None = None
    bundle: ObstructionBundle | None = None

    def __bool__(self):
        return self.success


def extend_to_quadratic(b: BraidedAlgebra, c: YBH2Cochain) -> QuadraticExtension:
    """Solve delta^2 (phi_2, psi_2) = -(degree-2 bundle) exactly.

    On success the order-2 series is re-verified over k[hbar]/(hbar^3); on
    failure the solver's inconsistency certificate shows the bundle is
    outside im(delta^2), i.e. its class in H^3 is nonzero.
    """
    if not delta2(b, c).is_zero():
        raise InputError("extend_to_quadratic needs a 2-cocycle")
    bundle = obstruction_bundle(series_from_cocycle(b, c), 2)
    d2 = differential_matrix(b, 2)
    rhs = {pos: b.field.neg(v) for pos, v in bundle.flatten().items()}
    sol = d2.solve(rhs)
    if isinstance(sol, SolveCertificate):
        return QuadraticExtension(False, certificate=sol, bundle=bundle)
    c2 = YBH2Cochain.unflatten(sol, b.field, b.dim)
    series = DeformationSeries(b, [c.phi, c2.phi], [c.psi, c2.psi])
    report = verify_deformation(series)
    if not report.ok:
        raise InternalCheckError(f"quadratic extension failed to verify: {report.describe()}")
    return QuadraticExtension(True, phi2=c2.phi, psi2=c2.psi, bundle=bundle)


# ---------------------------------------------------------------- trivialization

@dataclass
class TrivializationReport:
    inverse_ok: bool
    algebra_ok: bool
    yb_ok: bool

    @property
    def ok(self) -> bool:
        return self.inverse_ok and self.algebra_ok and self.yb_ok


def _carries(b: BraidedAlgebra, c: YBH2Cochain, f: TensorMap):
    """(ftilde, algebra_ok, yb_ok) for ftilde = 1 + hbar f over the dual
    numbers, as a map from the deformation by c + delta^1(f) onto the
    deformation by c: whether it carries the product and the braiding."""
    shifted = c + delta1(b, f)
    ring = TruncatedRing(b.field, 2)
    ftilde = identity_map(ring, b.dim, 1) + truncated_from_parts(ring, [None, f])
    ff = ftilde.tensor(ftilde)
    mu1 = truncated_from_parts(ring, [b.mu, c.psi])
    r1 = truncated_from_parts(ring, [b.r, c.phi])
    mu2 = truncated_from_parts(ring, [b.mu, shifted.psi])
    r2 = truncated_from_parts(ring, [b.r, shifted.phi])
    return ftilde, ftilde.compose(mu2) == mu1.compose(ff), ff.compose(r2) == r1.compose(ff)


def trivializing_isomorphism(b: BraidedAlgebra, f: TensorMap) -> TrivializationReport:
    """The coboundary deformation by delta^1(f) is trivialized by 1 + hbar f.

    Over the dual numbers, ftilde = 1 + hbar f is an isomorphism from the
    deformed braided algebra (mu + hbar delta1_H f, R + hbar delta1_YB f)
    onto the undeformed one extended by scalars:

        (1 - hbar f)(1 + hbar f) = 1
        ftilde o mu_deformed     = mu o (ftilde ox ftilde)
        (ftilde ox ftilde) o R_deformed = R o (ftilde ox ftilde)

    All three identities are theorems; any failure is an internal error.
    The last two are check_cohomologous_deformations at c = 0.
    """
    if (f.in_arity, f.out_arity) != (1, 1) or f.dim != b.dim:
        raise InputError("trivializing map must be (1->1) of matching dimension")
    ftilde, algebra_ok, yb_ok = _carries(b, YBH2Cochain.unflatten({}, b.field, b.dim), f)
    one = identity_map(ftilde.field, b.dim, 1)
    ftilde_inv = one - (ftilde - one)          # 1 - hbar f
    report = TrivializationReport(inverse_ok=(ftilde_inv.compose(ftilde) == one),
                                  algebra_ok=algebra_ok, yb_ok=yb_ok)
    if not report.ok:
        raise InternalCheckError(f"trivializing isomorphism failed: {report}")
    return report


def check_cohomologous_deformations(b: BraidedAlgebra, c: YBH2Cochain,
                                    f: TensorMap) -> bool:
    """Deformations by c and by c + delta^1(f) are connected by 1 + hbar f
    (as a map from the latter onto the former)."""
    _, algebra_ok, yb_ok = _carries(b, c, f)
    return algebra_ok and yb_ok
