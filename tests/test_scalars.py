from fractions import Fraction

import pytest

from ybh.errors import InputError
from ybh.rng import SplitMix64
from ybh.scalars import GF, QQ, FieldSpec, TruncatedRing, rational_normalize


def test_rational_normalize_reduces_and_fixes_sign():
    assert rational_normalize(2, -4) == Fraction(-1, 2)
    assert rational_normalize(0, 7) == Fraction(0)
    assert rational_normalize(6, 3) == Fraction(2)


def test_rational_normalize_rejects_zero_denominator():
    with pytest.raises(InputError):
        rational_normalize(1, 0)


def test_field_spec_validation():
    assert FieldSpec("prime", 101).p == 101
    with pytest.raises(InputError):
        FieldSpec("prime", 4)
    with pytest.raises(InputError):
        FieldSpec("prime", (1 << 31) + 11)
    with pytest.raises(InputError):
        FieldSpec("rational", 3)
    with pytest.raises(InputError):
        FieldSpec("complex")


def _ts(ring, *ints):
    return tuple(ring.base.from_int(n) for n in ints)


def test_truncated_mul_examples():
    r2 = TruncatedRing(QQ, 2)
    r3 = TruncatedRing(QQ, 3)
    assert r2.mul(_ts(r2, 1, 1), _ts(r2, 1, -1)) == _ts(r2, 1, 0)
    assert r3.mul(_ts(r3, 1, 1, 0), _ts(r3, 1, 1, 0)) == _ts(r3, 1, 2, 1)
    assert r2.mul(_ts(r2, 0, 1), _ts(r2, 0, 1)) == _ts(r2, 0, 0)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)])
def test_field_axioms_on_random_triples(field):
    rng = SplitMix64(11)
    for _ in range(10_000):
        a, b, c = (field.random(rng) for _ in range(3))
        assert field.eq(field.add(field.add(a, b), c), field.add(a, field.add(b, c)))
        assert field.eq(field.mul(field.mul(a, b), c), field.mul(a, field.mul(b, c)))
        assert field.eq(field.mul(a, field.add(b, c)),
                        field.add(field.mul(a, b), field.mul(a, c)))
        if not field.is_zero(a):
            assert field.eq(field.mul(a, field.inv(a)), field.one)


def _poly_mul(a, b, field):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


@pytest.mark.parametrize("base", [QQ, GF(7)])
@pytest.mark.parametrize("order", [1, 2, 4])
def test_truncated_matches_polynomial_oracle(base, order):
    ring = TruncatedRing(base, order)
    rng = SplitMix64(order * 1000 + 5)
    for _ in range(300):
        a = ring.random(rng)
        b = ring.random(rng)
        expected = tuple(_poly_mul(list(a), list(b), base)[:order])
        assert ring.eq(ring.mul(a, b), expected)


def test_degree_zero_projection_is_a_ring_map():
    ring = TruncatedRing(GF(5), 3)
    rng = SplitMix64(99)
    for _ in range(500):
        a, b = ring.random(rng), ring.random(rng)
        assert ring.mul(a, b)[0] == ring.base.mul(a[0], b[0])
        assert ring.add(a, b)[0] == ring.base.add(a[0], b[0])


def test_truncated_inverse_of_unit():
    ring = TruncatedRing(QQ, 4)
    a = (Fraction(2), Fraction(3), Fraction(-1), Fraction(5))
    inv = ring.inv(a)
    assert ring.eq(ring.mul(a, inv), ring.one)


def test_scalar_string_round_trip():
    for field, samples in [(QQ, ["-3/7", "5", "0"]), (GF(11), ["0", "7", "10"])]:
        for s in samples:
            assert field.unparse(field.parse(s)) == s
    ring = TruncatedRing(GF(3), 2)
    assert ring.unparse(ring.parse(["2", "1"])) == ["2", "1"]


@pytest.mark.parametrize("text", ["1_0", "٣/٤", "٣", "1 / 2", "1/ 2", "1 /2",
                                  "1/2/3", "/2", "1/", "", "+", "- 1", "0x10", "1.5", "1e3"])
def test_rational_parse_accepts_only_signed_ascii_integers(text):
    with pytest.raises(InputError):
        QQ.parse(text)


@pytest.mark.parametrize("text", ["1_0", "٣", "١٠", "- 1", "0x10", "", "1/1"])
def test_residue_parse_accepts_only_signed_ascii_integers(text):
    with pytest.raises(InputError):
        GF(101).parse(text)


def test_parse_keeps_whitespace_around_the_scalar():
    assert QQ.parse(" 3/4\n") == Fraction(3, 4)
    assert QQ.parse("\t-5 ") == -5
    assert QQ.parse("+6/-4") == Fraction(-3, 2)
    assert GF(101).parse(" -1\n") == 100
    assert GF(101).parse("+7") == 7


def test_rationals_are_ints_unless_they_need_a_denominator():
    for v in (QQ.zero, QQ.one, QQ.from_int(-3), QQ.parse("6/2"), QQ.parse("-0"),
              QQ.parse("12"), QQ.inv(-1), QQ.inv(Fraction(1, 3)), rational_normalize(-8, 4)):
        assert type(v) is int, v
    for v in (QQ.parse("1/2"), QQ.inv(2), QQ.inv(Fraction(-3, 4)), rational_normalize(2, -4)):
        assert type(v) is Fraction, v
    assert (QQ.parse("-0"), QQ.parse("6/2"), QQ.inv(-1)) == (0, 3, -1)
    rng = SplitMix64(5)
    for _ in range(500):
        v = QQ.random(rng)
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction)


def test_rational_unparse_ignores_the_representation():
    assert {QQ.unparse(v) for v in (2, Fraction(2), Fraction(4, 2))} == {"2"}
    assert {QQ.unparse(v) for v in (-3, Fraction(-6, 2))} == {"-3"}
    assert QQ.unparse(Fraction(-2, 4)) == "-1/2"


def test_truncated_rational_ring_holds_ints():
    ring = TruncatedRing(QQ, 3)
    assert [type(x) for x in ring.one + ring.zero + ring.hbar] == [int] * 9
    assert [type(x) for x in ring.inv(ring.one)] == [int] * 3
