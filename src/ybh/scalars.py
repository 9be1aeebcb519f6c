"""Exact coefficient rings: rationals, prime fields, and hbar-truncated extensions.

Scalars are plain Python values -- over the rationals an `int` when
integral, otherwise a `fractions.Fraction` in lowest terms (arithmetic mixes
them exactly); `int` residues in [0, p) over a prime field; and tuples of
base scalars over a truncated ring k[hbar]/(hbar^m).  The ring objects below
carry the arithmetic, parsing, and canonical string forms; everything
downstream (tensor maps, matrices) is generic over them.

Textual scalar syntax, used in every file format: rationals as "a/b" or "a",
prime-field elements as decimal residues, truncated scalars as coefficient
arrays ["c0", "c1", ...].  An integer is an optional sign and ASCII digits;
whitespace may surround the whole scalar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

_PRIME_LIMIT = 1 << 31
_RESIDUE = re.compile(r"\s*[+-]?[0-9]+\s*")
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([+-]?[0-9]+))?\s*")


def is_prime(n: int) -> bool:
    """Trial division; adequate for word-size moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    kind: str  # "rational" | "prime"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "rational":
            if self.p is not None:
                raise InputError("rational field takes no modulus")
        elif self.kind == "prime":
            if self.p is None or self.p >= _PRIME_LIMIT or not is_prime(self.p):
                raise InputError(f"modulus must be a prime below 2^31, got {self.p!r}")
        else:
            raise InputError(f"unknown field kind {self.kind!r}")

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InputError(f"bad field spec {obj!r}")
        p = obj.get("p")
        if p is not None and type(p) is not int:
            raise InputError(f"field modulus must be an integer, got {p!r}")
        return FieldSpec(obj["kind"], p)


class RationalField:
    """Arithmetic over Q.  A scalar is an `int` when integral, otherwise a
    `Fraction` in lowest terms; arithmetic mixes them exactly."""

    kind = "rational"
    characteristic = 0
    zero = 0
    one = 1

    @property
    def spec(self) -> FieldSpec:
        return FieldSpec("rational")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return rational_normalize(a.denominator, a.numerator)

    def is_zero(self, a) -> bool:
        return a == 0

    def eq(self, a, b) -> bool:
        return a == b

    def from_int(self, n: int):
        return n

    def parse(self, s: str):
        if type(s) is not str:
            raise InputError(f"bad rational {s!r}: scalars are JSON strings")
        return rational_from_string(s)

    def unparse(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def random(self, rng, span: int = 9):
        return rational_normalize(rng.randint(-span, span), rng.randint(1, span))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Arithmetic over F_p with int residues in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        FieldSpec("prime", p)  # runs the primality/size validation
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    @property
    def spec(self) -> FieldSpec:
        return FieldSpec("prime", self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def eq(self, a, b) -> bool:
        return (a - b) % self.p == 0

    def from_int(self, n: int):
        return n % self.p

    def parse(self, s: str):
        if type(s) is not str or not _RESIDUE.fullmatch(s):
            raise InputError(f"bad residue {s!r} for F_{self.p}")
        return int(s) % self.p

    def unparse(self, a) -> str:
        return str(a % self.p)

    def random(self, rng, span: int | None = None):
        return rng.randrange(self.p)

    def __repr__(self):
        return f"GF({self.p})"


_FIELD_CACHE: dict = {}


def field_for(spec: FieldSpec):
    key = (spec.kind, spec.p)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = RationalField() if spec.kind == "rational" else PrimeField(spec.p)
    return _FIELD_CACHE[key]


QQ = field_for(FieldSpec("rational"))


def GF(p: int) -> PrimeField:
    return field_for(FieldSpec("prime", p))


def rational_normalize(num: int, den: int):
    """num/den as a rational scalar: an int when integral, otherwise a
    Fraction in lowest terms with positive denominator; den == 0 is an
    input error."""
    if den == 0:
        raise InputError("zero denominator")
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


def rational_from_string(s: str):
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise InputError(f"bad rational {s.strip()!r}")
    num, den = m.groups()
    return int(num) if den is None else rational_normalize(int(num), int(den))


class TruncatedRing:
    """k[hbar]/(hbar^m) over a base field; scalars are coefficient tuples of length m.

    This is a ring with zero divisors, not a field: elimination is refused
    over it, only evaluation.  The degree-0 projection is the quotient map
    back onto the base field.
    """

    kind = "truncated"

    def __init__(self, base, order: int):
        if order < 1:
            raise InputError("truncation order must be >= 1")
        if isinstance(base, TruncatedRing):
            raise InputError("truncated ring over a truncated ring is not supported")
        self.base = base
        self.order = order
        self.zero = (base.zero,) * order
        self.one = (base.one,) + (base.zero,) * (order - 1)
        if order >= 2:
            self.hbar = (base.zero, base.one) + (base.zero,) * (order - 2)

    def add(self, a, b):
        ba = self.base
        return tuple(ba.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        ba = self.base
        return tuple(ba.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        ba = self.base
        return tuple(ba.neg(x) for x in a)

    def mul(self, a, b):
        """Cauchy product truncated at degree m."""
        ba, m = self.base, self.order
        out = [ba.zero] * m
        for i, x in enumerate(a):
            if ba.is_zero(x):
                continue
            for j in range(m - i):
                y = b[j]
                if not ba.is_zero(y):
                    out[i + j] = ba.add(out[i + j], ba.mul(x, y))
        return tuple(out)

    def inv(self, a):
        """Inverse when the hbar^0 part is a unit (geometric series, truncated)."""
        ba, m = self.base, self.order
        c0 = ba.inv(a[0])
        out = [ba.zero] * m
        out[0] = c0
        for k in range(1, m):
            acc = ba.zero
            for i in range(1, k + 1):
                acc = ba.add(acc, ba.mul(a[i], out[k - i]))
            out[k] = ba.neg(ba.mul(c0, acc))
        return tuple(out)

    def is_zero(self, a) -> bool:
        ba = self.base
        return all(ba.is_zero(x) for x in a)

    def eq(self, a, b) -> bool:
        ba = self.base
        return all(ba.eq(x, y) for x, y in zip(a, b))

    def from_int(self, n: int):
        return (self.base.from_int(n),) + (self.base.zero,) * (self.order - 1)

    def parse(self, arr):
        if not isinstance(arr, (list, tuple)) or len(arr) != self.order:
            raise InputError(f"truncated scalar needs {self.order} coefficients, got {arr!r}")
        return tuple(self.base.parse(s) for s in arr)

    def unparse(self, a):
        return [self.base.unparse(x) for x in a]

    def random(self, rng, span: int = 9):
        return tuple(self.base.random(rng, span) for _ in range(self.order))

    def __repr__(self):
        return f"{self.base!r}[h]/(h^{self.order})"


def base_of(ring):
    """The underlying field of a (possibly truncated) ring."""
    return ring.base if isinstance(ring, TruncatedRing) else ring
