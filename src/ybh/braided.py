"""Associative algebras, Yang-Baxter operators, braided algebras, and their
exact axiom checkers.

The two compatibility axioms between a multiplication mu and a Yang-Baxter
operator R are kept strictly separate and are named by their shapes:

* YI:  (mu ox 1)(1 ox R)(R ox 1)  =  R o (1 ox mu)
* IY:  (1 ox mu)(R ox 1)(1 ox R)  =  R o (mu ox 1)

Every check works on the defect (left side minus right side) and reports the
lexicographically first input basis tuple where the defect is nonzero, which
makes failures reproducible and debuggable.

The mirror involution conjugates every structure map by the tensor-factor
reversal; it exchanges the YI and IY axioms and is how all IY-side formulas
in the cohomology module are produced from their YI-side counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InternalCheckError, ValidationError
from .linalg import ExactMatrix, invert_matrix
from .scalars import TruncatedRing
from .tensor import TensorMap, compose, decode_index, identity_map, reversal_map


@dataclass
class CheckResult:
    name: str
    ok: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return f"{self.name}: pass"
        return f"{self.name}: fail at basis input {self.witness}"


def _witness(defect: TensorMap) -> tuple | None:
    """First (column-lex) input tuple where a defect map is nonzero."""
    data = defect.to_sparse_data()
    if not data:
        return None
    c = min(data)
    return decode_index(c, defect.dim, defect.in_arity)


def _check(name: str, defect: TensorMap) -> CheckResult:
    w = _witness(defect)
    return CheckResult(name, w is None, w)


# ---------------------------------------------------------------- axiom defects
# These accept maps over any ring (including truncated rings), since the
# deformation machinery evaluates the same defects at higher hbar order.

def assoc_defect(mu: TensorMap) -> TensorMap:
    one = identity_map(mu.field, mu.dim, 1)
    return compose(mu, mu.tensor(one)) - compose(mu, one.tensor(mu))


def yb_defect(r: TensorMap) -> TensorMap:
    one = identity_map(r.field, r.dim, 1)
    r1, r2 = r.tensor(one), one.tensor(r)
    return compose(r1, r2, r1) - compose(r2, r1, r2)


def yi_defect(mu: TensorMap, r: TensorMap) -> TensorMap:
    one = identity_map(mu.field, mu.dim, 1)
    lhs = compose(mu.tensor(one), one.tensor(r), r.tensor(one))
    return lhs - compose(r, one.tensor(mu))


def iy_defect(mu: TensorMap, r: TensorMap) -> TensorMap:
    one = identity_map(mu.field, mu.dim, 1)
    lhs = compose(one.tensor(mu), r.tensor(one), one.tensor(r))
    return lhs - compose(r, mu.tensor(one))


def check_associative(mu: TensorMap) -> CheckResult:
    return _check("associativity", assoc_defect(mu))


def check_yb(r: TensorMap) -> CheckResult:
    return _check("yang-baxter", yb_defect(r))


def check_yi(mu: TensorMap, r: TensorMap) -> CheckResult:
    return _check("yi", yi_defect(mu, r))


def check_iy(mu: TensorMap, r: TensorMap) -> CheckResult:
    return _check("iy", iy_defect(mu, r))


# ---------------------------------------------------------------- domain types

class AssociativeAlgebra:
    def __init__(self, field, dim, mu: TensorMap, unit: TensorMap | None = None,
                 labels: list[str] | None = None):
        if (mu.in_arity, mu.out_arity) != (2, 1) or mu.dim != dim:
            raise InputError("mu must be a (2->1) map of the declared dimension")
        if unit is not None and ((unit.in_arity, unit.out_arity) != (0, 1) or unit.dim != dim):
            raise InputError("unit must be a (0->1) map of the declared dimension")
        self.field = field
        self.dim = dim
        self.mu = mu
        self.unit = unit
        self.labels = labels or [f"e{i}" for i in range(dim)]
        self._assoc: CheckResult | None = None

    def check_associative(self) -> CheckResult:
        if self._assoc is None:
            self._assoc = check_associative(self.mu)
        return self._assoc

    def check_unit(self) -> CheckResult:
        if self.unit is None:
            return CheckResult("unit", True)
        one = identity_map(self.field, self.dim, 1)
        left = compose(self.mu, self.unit.tensor(one)) - one
        right = compose(self.mu, one.tensor(self.unit)) - one
        res = _check("unit", left)
        return res if not res.ok else _check("unit", right)

    def require(self):
        res = self.check_associative()
        if not res.ok:
            raise ValidationError(f"multiplication is not associative, witness {res.witness}",
                                  witness=res.witness)
        res = self.check_unit()
        if not res.ok:
            raise ValidationError(f"declared unit fails the unit law, witness {res.witness}",
                                  witness=res.witness)
        return self


class YangBaxterOperator:
    def __init__(self, field, dim, r: TensorMap):
        if (r.in_arity, r.out_arity) != (2, 2) or r.dim != dim:
            raise InputError("R must be a (2->2) map of the declared dimension")
        self.field = field
        self.dim = dim
        self.r = r
        self._inverse: TensorMap | None = None
        self._yb: CheckResult | None = None

    def check_yb(self) -> CheckResult:
        if self._yb is None:
            self._yb = check_yb(self.r)
        return self._yb

    @property
    def r_inverse(self) -> TensorMap:
        if self._inverse is None:
            if isinstance(self.field, TruncatedRing):
                raise InputError("construct the inverse over the base field first")
            n = self.dim ** 2
            m = ExactMatrix.from_entries(self.field, n, n, self.r.entries())
            inv = invert_matrix(m)
            self._inverse = TensorMap.from_entries(self.field, self.dim, 2, 2, inv.entries())
        return self._inverse

    def require(self):
        res = self.check_yb()
        if not res.ok:
            raise ValidationError(f"R fails the Yang-Baxter equation, witness {res.witness}",
                                  witness=res.witness)
        self.r_inverse  # raises if singular
        return self


class BraidedAlgebra:
    """An associative algebra with a compatible YB operator (YI and IY hold)."""

    def __init__(self, algebra: AssociativeAlgebra, yb: YangBaxterOperator):
        if algebra.dim != yb.dim:
            raise InputError("algebra and YB operator dimensions differ")
        self.algebra = algebra
        self.yb = yb
        self._yi: CheckResult | None = None
        self._iy: CheckResult | None = None

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def mu(self) -> TensorMap:
        return self.algebra.mu

    @property
    def r(self) -> TensorMap:
        return self.yb.r

    @property
    def labels(self):
        return self.algebra.labels

    def check_yi(self) -> CheckResult:
        if self._yi is None:
            self._yi = check_yi(self.mu, self.r)
        return self._yi

    def check_iy(self) -> CheckResult:
        if self._iy is None:
            self._iy = check_iy(self.mu, self.r)
        return self._iy

    @property
    def yi_holds(self) -> bool:
        return self.check_yi().ok

    @property
    def iy_holds(self) -> bool:
        return self.check_iy().ok

    def all_checks(self) -> list[CheckResult]:
        return [self.algebra.check_associative(), self.algebra.check_unit(),
                self.yb.check_yb(), self.check_yi(), self.check_iy()]

    def require(self):
        self.algebra.require()
        self.yb.require()
        for res in (self.check_yi(), self.check_iy()):
            if not res.ok:
                raise ValidationError(f"{res.name} axiom fails, witness {res.witness}",
                                      witness=res.witness)
        return self


def braided_algebra(field, dim, mu, r, unit=None, labels=None, require=True) -> BraidedAlgebra:
    b = BraidedAlgebra(AssociativeAlgebra(field, dim, mu, unit, labels),
                       YangBaxterOperator(field, dim, r))
    if require:
        b.require()
    return b


def assert_braided(b: BraidedAlgebra, context: str) -> BraidedAlgebra:
    """Used by constructions whose output is braided by a theorem: a failure
    here is a bug, not bad input."""
    try:
        return b.require()
    except ValidationError as exc:
        raise InternalCheckError(f"{context}: {exc}") from exc


# ---------------------------------------------------------------- operations

def braided_multiplication(b: BraidedAlgebra, n: int = 1) -> BraidedAlgebra:
    """The braided algebra (V, mu o R^n, R); associativity and both mixed
    axioms for the output are theorems, so they are re-verified and any
    failure is an internal error."""
    if n < 1:
        raise InputError("power must be >= 1")
    b.require()
    rn = b.r
    for _ in range(n - 1):
        rn = rn.compose(b.r)
    out = braided_algebra(b.field, b.dim, b.mu.compose(rn), b.r,
                          labels=b.labels, require=False)
    return assert_braided(out, f"braided multiplication mu o R^{n}")


def mirror_map(f: TensorMap) -> TensorMap:
    """Conjugate by tensor-factor reversal: rev_k o f o rev_n."""
    rev_in = reversal_map(f.field, f.dim, f.in_arity)
    rev_out = reversal_map(f.field, f.dim, f.out_arity)
    return compose(rev_out, f, rev_in)


def mirror(b: BraidedAlgebra, require: bool = True) -> BraidedAlgebra:
    """Reversal-conjugated braided algebra; swaps the YI and IY axioms.

    Reversal acts on tensor factors, not on V itself, so the basis labels
    carry over unchanged and mirror(mirror(b)) has exactly b's maps.
    """
    out = braided_algebra(b.field, b.dim, mirror_map(b.mu), mirror_map(b.r),
                          unit=b.algebra.unit, labels=b.labels, require=False)
    if require:
        out.require()
    return out


@dataclass
class BraidedHomomorphism:
    source: BraidedAlgebra
    target: BraidedAlgebra
    f: TensorMap


def check_braided_homomorphism(h: BraidedHomomorphism) -> list[CheckResult]:
    """Exact test of f mu_1 = mu_2 (f ox f) and (f ox f) R_1 = R_2 (f ox f)."""
    f = h.f
    if (f.in_arity, f.out_arity) != (1, 1):
        raise InputError("homomorphism must be a (1->1) map")
    if f.dim != h.source.dim or f.dim != h.target.dim:
        raise InputError("homomorphism dimension mismatch")
    ff = f.tensor(f)
    alg = _check("algebra-homomorphism", f.compose(h.source.mu) - h.target.mu.compose(ff))
    yb = _check("yb-equivariance", ff.compose(h.source.r) - h.target.r.compose(ff))
    return [alg, yb]
