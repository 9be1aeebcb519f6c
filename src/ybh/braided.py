"""Associative algebras, Yang-Baxter operators, braided algebras, and their
exact axiom checkers.

The two compatibility axioms between a multiplication mu and a Yang-Baxter
operator R are kept strictly separate and are named by their shapes:

* YI:  (mu ox 1)(1 ox R)(R ox 1)  =  R o (1 ox mu)
* IY:  (1 ox mu)(R ox 1)(1 ox R)  =  R o (mu ox 1)

Every verdict reports the lexicographically first input basis tuple where
the two sides of the identity differ, which makes failures reproducible and
debuggable.  A verdict composes the two sides (check_identity) and compares
them; that input tuple is the first nonzero column of the defect (left side
minus right side).  The defect functions stay for the deformation machinery,
which needs their hbar-degrees over truncated rings, and as the verdicts'
oracle.

Each axiom is written once, as rows of a term table (AXIOM_TERMS), and each
defect is a read of it by the one evaluator, sum_terms; the differentials
of the cochain complex are tables in the same notation.  Each structure
class declares its tokens once (tokens()); read_tables, the one reader of
structure tables, and check_identity keep the lifts of slot-free words on
the structure.  The mirror involution conjugates every structure map by the
tensor-factor reversal and exchanges the YI and IY axioms; on table rows it
is mirror_terms, which generates the IY rows from the YI rows (the tests
keep mirror_map as its oracle).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from .errors import InputError, InternalCheckError, ValidationError
from .linalg import ExactMatrix, invert_matrix
from .scalars import TruncatedRing
from .tensor import (TensorMap, compose, decode_index, identity_map, reversal_map,
                     tensor_product)


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
    """First (column-lex) input tuple where a defect map is nonzero; a
    column that stores only zeros is not a witness."""
    is_zero = defect.field.is_zero
    c = min((c for c, col in defect.to_sparse_data().items()
             if not all(map(is_zero, col.values()))), default=None)
    return None if c is None else decode_index(c, defect.dim, defect.in_arity)


def _check(name: str, defect: TensorMap) -> CheckResult:
    w = _witness(defect)
    return CheckResult(name, w is None, w)


# ---------------------------------------------------------------- term tables

_STRAND_RUNS = re.compile("1+|.")


def _lift(word: str, maps: dict) -> TensorMap:
    """The tensor product of a word's tokens, left to right; a run of n
    identity strands is one identity on V^n, read from maps if it is there.
    The empty word is the identity on V^0, the ground ring."""
    some = next(iter(maps.values()))
    if not word:
        return identity_map(some.field, some.dim, 0)
    return reduce(tensor_product, [
        identity_map(some.field, some.dim, len(run)) if run[0] == "1" and run not in maps
        else maps[run] for run in _STRAND_RUNS.findall(word)])


def sum_terms(rows, maps: dict, lifted: dict | None = None) -> TensorMap:
    """The sum of a term table's rows (sign, lifts), each the term
    sign * lift_0 o lift_1 o ... (the last lift applied first).  A lift is a
    word of tokens tensored left to right: "1" the identity strand, and
    otherwise a key of maps ({"m": mu, "R": r, "b": beta, ...}).  Without
    lifted the lifts are built per term; lifted is a {word: lift} dict the
    call reads first and fills on a miss, so calls sharing it lift each
    distinct word once.  A token is a one-token word, so lifted may be maps
    itself.  Structure reads go through read_tables."""
    if lifted is not None:
        for word in {word for _, lifts in rows for word in lifts}.difference(lifted):
            lifted[word] = _lift(word, maps)
    total = None
    for sign, lifts in rows:
        if lifted is None:
            term = compose(*(_lift(word, maps) for word in lifts))
        else:
            term = compose(*map(lifted.__getitem__, lifts))
        if total is None:
            total = term if sign > 0 else -term
        else:
            total = total + term if sign > 0 else total - term
    return total


def _kept_lifts(x, slots, tables) -> dict:
    """x's lifts with every slot-free word of the tables among them.  x is a
    structure, whose slot-free words are lifted once and kept on it
    (write-once: its maps are immutable), or a {token: map} dict, whose words
    are lifted once per call.  A structure's kept lifts start from those of
    its LIFT_PARTS, which hold the same maps under the same words."""
    kept = dict(x) if isinstance(x, dict) else vars(x).get("_lifted")
    if kept is None:
        kept = x._lifted = {}
        for part in getattr(x, "LIFT_PARTS", ()):
            kept.update(vars(getattr(x, part)).get("_lifted", {}))
        kept.update(x.tokens())
    for word in {word for rows in tables for _, lifts in rows for word in lifts}.difference(kept):
        if slots.keys().isdisjoint(word):
            kept[word] = _lift(word, kept)
    return kept


def read_tables(x, slots: dict, *tables) -> list:
    """The tables read (sum_terms) at x's tokens (a structure or a {token:
    map} dict, as in _kept_lifts) with the slots ({slot token: map}) filled.
    Words with a slot token are lifted per call and never kept."""
    lifted = {**_kept_lifts(x, slots, tables), **slots}
    return [sum_terms(rows, lifted, lifted) for rows in tables]


def check_identity(x, name: str, rows) -> CheckResult:
    """The verdict on a two-row identity table, (+1, left) and (-1, right):
    the two sides composed from x's lifts (x as in read_tables) and
    compared.  Equal stored data prove the identity; otherwise the sides are
    compared column by column, zero entries dropped, and the witness is the
    first column where they differ (the first nonzero column of the defect,
    left minus right)."""
    kept = _kept_lifts(x, {}, (rows,))
    (_, left), (_, right) = rows
    a, b = (compose(*map(kept.__getitem__, side)) for side in (left, right))
    da, db = a.to_sparse_data(), b.to_sparse_data()
    if da != db:
        sub, is_zero, zero = a.field.sub, a.field.is_zero, a.field.zero
        for c in sorted(da.keys() | db.keys()):
            ca, cb = da.get(c, {}), db.get(c, {})
            if not all(is_zero(sub(ca.get(r, zero), cb.get(r, zero))) for r in ca.keys() | cb.keys()):
                return CheckResult(name, False, decode_index(c, a.dim, a.in_arity))
    return CheckResult(name, True)


_SWAP_ALPHA = str.maketrans("aA", "Aa")


def mirror_terms(rows) -> tuple:
    """Rows conjugated by tensor-factor reversal: every word reversed and the
    two alpha slots exchanged.  Reversal also swaps the two sides of the
    Yang-Baxter equation and of associativity, so rows with a beta or gamma
    slot change sign; the YI and IY defects map onto each other without
    one."""
    return tuple((-sign if {"b", "g"} & set("".join(lifts)) else sign,
                  tuple(word[::-1].translate(_SWAP_ALPHA) for word in lifts))
                 for sign, lifts in rows)


# The axioms, left side minus right side, with u the unit.  IY is the
# mirror of YI.
AXIOM_TERMS = {
    "yb": ((+1, ("R1", "1R", "R1")), (-1, ("1R", "R1", "1R"))),
    "yi": ((+1, ("m1", "1R", "R1")), (-1, ("R", "1m"))),
    "assoc": ((+1, ("m", "m1")), (-1, ("m", "1m"))),
    "unit_left": ((+1, ("m", "u1")), (-1, ("1",))),
    "unit_right": ((+1, ("m", "1u")), (-1, ("1",))),
}
AXIOM_TERMS["iy"] = mirror_terms(AXIOM_TERMS["yi"])


# ---------------------------------------------------------------- axiom defects
# These accept maps over any ring (including truncated rings), since the
# deformation machinery evaluates the same defects at higher hbar order.

def assoc_defect(mu: TensorMap) -> TensorMap:
    return sum_terms(AXIOM_TERMS["assoc"], {"m": mu}, {})


def yb_defect(r: TensorMap) -> TensorMap:
    return sum_terms(AXIOM_TERMS["yb"], {"R": r}, {})


def yi_defect(mu: TensorMap, r: TensorMap) -> TensorMap:
    return sum_terms(AXIOM_TERMS["yi"], {"m": mu, "R": r}, {})


def iy_defect(mu: TensorMap, r: TensorMap) -> TensorMap:
    return sum_terms(AXIOM_TERMS["iy"], {"m": mu, "R": r}, {})


def check_associative(mu: TensorMap) -> CheckResult:
    return check_identity({"m": mu}, "associativity", AXIOM_TERMS["assoc"])


def check_yb(r: TensorMap) -> CheckResult:
    return check_identity({"R": r}, "yang-baxter", AXIOM_TERMS["yb"])


def check_yi(mu: TensorMap, r: TensorMap) -> CheckResult:
    return check_identity({"m": mu, "R": r}, "yi", AXIOM_TERMS["yi"])


def check_iy(mu: TensorMap, r: TensorMap) -> CheckResult:
    return check_identity({"m": mu, "R": r}, "iy", AXIOM_TERMS["iy"])


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
        self._unit: list | None = None

    def tokens(self) -> dict:
        """Its maps by strand-word token: 1, m and, with a unit, u."""
        maps = {"1": identity_map(self.field, self.dim, 1), "m": self.mu, "u": self.unit}
        return {token: f for token, f in maps.items() if f is not None}

    def check_associative(self) -> CheckResult:
        if self._assoc is None:
            self._assoc = check_identity(self, "associativity", AXIOM_TERMS["assoc"])
        return self._assoc

    def unit_checks(self) -> list:
        """The unit-left and unit-right verdicts, computed once."""
        if self._unit is None:
            self._unit = [check_identity(self, "unit-left", AXIOM_TERMS["unit_left"]),
                          check_identity(self, "unit-right", AXIOM_TERMS["unit_right"])]
        return self._unit

    def check_unit(self) -> CheckResult:
        if self.unit is None:
            return CheckResult("unit", True)
        failed = [res for res in self.unit_checks() if not res.ok]
        return CheckResult("unit", not failed, failed[0].witness if failed else None)

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

    def tokens(self) -> dict:
        return {"1": identity_map(self.field, self.dim, 1), "R": self.r}

    def check_yb(self) -> CheckResult:
        if self._yb is None:
            self._yb = check_identity(self, "yang-baxter", AXIOM_TERMS["yb"])
        return self._yb

    @property
    def r_inverse(self) -> TensorMap:
        if self._inverse is None:
            if isinstance(self.field, TruncatedRing):
                raise InputError("construct the inverse over the base field first")
            n = self.dim ** 2
            m = ExactMatrix.from_entries(self.field, n, n, self.r.entries())
            try:
                inv = invert_matrix(m)
            except InputError as exc:
                raise InputError(f"R is not invertible: {exc}") from exc
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

    LIFT_PARTS = ("algebra", "yb")

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

    def tokens(self) -> dict:
        return {**self.algebra.tokens(), "R": self.r}

    def check_yi(self) -> CheckResult:
        if self._yi is None:
            self._yi = check_identity(self, "yi", AXIOM_TERMS["yi"])
        return self._yi

    def check_iy(self) -> CheckResult:
        if self._iy is None:
            self._iy = check_identity(self, "iy", AXIOM_TERMS["iy"])
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
    failure is an internal error.  R is b's own YB operator, whose YBE
    verdict is already known."""
    if n < 1:
        raise InputError("power must be >= 1")
    b.require()
    rn = b.r
    for _ in range(n - 1):
        rn = rn.compose(b.r)
    algebra = AssociativeAlgebra(b.field, b.dim, b.mu.compose(rn), labels=b.labels)
    return assert_braided(BraidedAlgebra(algebra, b.yb),
                          f"braided multiplication mu o R^{n}")


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
