from fractions import Fraction

import pytest

from elimination_oracle import rref_modp
from ybh.cohomology import differential_matrix
from ybh.errors import InputError, UnsupportedRingError
from ybh.fixtures import build_fixture
from ybh.linalg import ExactMatrix, SolveCertificate, in_span, invert_matrix
from ybh.rng import SplitMix64
from ybh.scalars import GF, QQ, TruncatedRing


def _mat(field, rows):
    m = len(rows)
    n = len(rows[0]) if rows else 0
    return ExactMatrix.from_entries(
        field, m, n,
        ((i, j, field.from_int(v)) for i, row in enumerate(rows)
         for j, v in enumerate(row)))


def test_rref_examples():
    m = _mat(QQ, [[1, 0], [0, 1]])
    red, pivots, rank = m.rref()
    assert pivots == [0, 1] and rank == 2
    assert red.entry(0, 0) == 1 and red.entry(1, 1) == 1

    m = _mat(QQ, [[1, 2], [2, 4]])
    red, pivots, rank = m.rref()
    assert rank == 1 and pivots == [0]
    assert red.entry(0, 0) == 1 and red.entry(0, 1) == 2 and red.entry(1, 0) == 0

    m = _mat(GF(2), [[1, 1], [1, 1]])
    red, pivots, rank = m.rref()
    assert rank == 1 and red.entry(0, 1) == 1 and red.entry(1, 1) == 0


def test_rref_rejects_truncated_rings():
    with pytest.raises(UnsupportedRingError):
        ExactMatrix(TruncatedRing(QQ, 2), 1, 1)


def test_kernel_examples():
    assert _mat(QQ, [[1, 0], [0, 1]]).kernel_basis() == []
    basis = _mat(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]).kernel_basis()
    assert len(basis) == 3
    assert basis[0][0] == 1 and basis[1][1] == 1 and basis[2][2] == 1
    basis = _mat(QQ, [[1, 1]]).kernel_basis()
    assert basis == [[Fraction(-1), Fraction(1)]]


def test_solve_examples():
    m = _mat(QQ, [[1, 0], [0, 1]])
    assert m.solve([Fraction(3), Fraction(-2)]) == [Fraction(3), Fraction(-2)]
    cert = _mat(QQ, [[0, 0], [0, 0]]).solve([Fraction(1), Fraction(0)])
    assert isinstance(cert, SolveCertificate) and not cert
    assert cert.rank_augmented == cert.rank + 1
    assert _mat(QQ, [[1, 1]]).solve([Fraction(2)]) == [Fraction(2), Fraction(0)]


def test_solve_length_mismatch():
    with pytest.raises(InputError):
        _mat(QQ, [[1, 1]]).solve([Fraction(1), Fraction(1)])


def test_in_span_examples():
    ok, coords = in_span([], [QQ.zero, QQ.zero], QQ)
    assert ok and coords == []
    ok, coords = in_span([[QQ.one, QQ.zero]], [QQ.zero, QQ.one], QQ)
    assert not ok and coords is None
    ok, coords = in_span([[QQ.one, QQ.one]], [Fraction(2), Fraction(2)], QQ)
    assert ok and coords == [Fraction(2)]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)])
def test_kernel_and_rank_properties(field):
    rng = SplitMix64(31)
    for trial in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = ExactMatrix.from_entries(
            field, rows, cols,
            ((i, j, field.random(rng)) for i in range(rows) for j in range(cols)
             if rng.randrange(3) != 0))
        kernel = m.kernel_basis()
        assert m.rank() + len(kernel) == cols
        for v in kernel:
            assert all(field.is_zero(x) for x in m.matvec(v))
        red, pivots, rank = m.rref()
        red2, pivots2, rank2 = red.rref()
        assert pivots == pivots2 and rank == rank2
        assert all(field.eq(red.entry(i, j), red2.entry(i, j))
                   for i in range(rows) for j in range(cols))


def test_solve_consistency_random():
    field = GF(101)
    rng = SplitMix64(32)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = ExactMatrix.from_entries(
            field, rows, cols,
            ((i, j, field.random(rng)) for i in range(rows) for j in range(cols)))
        b = [field.random(rng) for _ in range(rows)]
        sol = m.solve(b)
        if isinstance(sol, SolveCertificate):
            aug = ExactMatrix.from_entries(
                field, rows, cols + 1,
                list(m.entries()) + [(i, cols, v) for i, v in enumerate(b)
                                     if not field.is_zero(v)])
            assert aug.rank() == m.rank() + 1
        else:
            mx = m.matvec(sol)
            assert all(field.eq(x, y) for x, y in zip(mx, b))


def test_rank_over_q_bounds_rank_mod_p():
    rng = SplitMix64(33)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        ints = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        rank_q = _mat(QQ, ints).rank()
        for p in (2, 3):
            assert rank_q >= _mat(GF(p), ints).rank()


def test_invert_matrix():
    m = _mat(QQ, [[2, 1], [1, 1]])
    inv = m.matmul(invert_matrix(m))
    assert inv.entry(0, 0) == 1 and inv.entry(1, 1) == 1 \
        and inv.entry(0, 1) == 0 and inv.entry(1, 0) == 0
    with pytest.raises(InputError):
        invert_matrix(_mat(QQ, [[1, 2], [2, 4]]))


def _reduced_rows(m):
    red, pivots, _ = m.rref()
    rows = [dict() for _ in range(m.rows)]
    for r, c, v in red.entries():
        rows[r][c] = v
    return rows, pivots


def test_elimination_matches_dense_oracle():
    rng = SplitMix64(34)
    field = GF(11)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = ExactMatrix.from_entries(
            field, rows, cols,
            ((i, j, field.random(rng)) for i in range(rows) for j in range(cols)
             if rng.randrange(2) == 0))
        assert _reduced_rows(m) == rref_modp(m, 11)


@pytest.mark.parametrize("name, rank", [("heap_z2", 304), ("mat2_trivial", 298)])
def test_d2_elimination_matches_dense_oracle(name, rank):
    d2 = differential_matrix(build_fixture(name, GF(101)), 2)
    reduced, pivots = _reduced_rows(d2)
    assert (reduced, pivots) == rref_modp(d2, 101)
    assert d2.rank() == len(pivots) == rank


def _as_fractions(m):
    return ExactMatrix(m.field, m.rows, m.cols,
                       {c: {r: Fraction(v) for r, v in col.items()} for c, col in m.data.items()})


def _gram_plus_identity(m, k):
    """D^T D + 1 on the first k columns of m: positive definite, so invertible over Q."""
    cols = [m.column(c) for c in range(k)]
    return ExactMatrix.from_entries(QQ, k, k, (
        (i, j, sum((v * cols[j].get(r, 0) for r, v in cols[i].items()), int(i == j)))
        for i in range(k) for j in range(k)))


@pytest.mark.parametrize("name", ["heap_z2", "dual_trivial"])
@pytest.mark.parametrize("n", [1, 2])
def test_int_and_fraction_entries_eliminate_alike(name, n):
    d = differential_matrix(build_fixture(name, QQ), n)
    assert {type(v) for _, _, v in d.entries()} == {int}
    q = _as_fractions(d)
    assert q.rank() == d.rank() < d.rows
    assert q.kernel_basis() == d.kernel_basis()
    image = d.matvec([(-1) ** c * (c % 3) for c in range(d.cols)])
    outside = next(r for r in range(d.rows) if isinstance(d.solve({r: 1}), SolveCertificate))
    for b in (image, {outside: 1}, {outside: Fraction(1, 2)}):
        fb = {r: Fraction(v) for r, v in (b.items() if isinstance(b, dict) else enumerate(b))}
        assert q.solve(fb) == d.solve(b)
    g = _gram_plus_identity(d, min(d.cols, 48))
    assert invert_matrix(_as_fractions(g)).data == invert_matrix(g).data
