from fractions import Fraction

import pytest

from ybh.constructions import FiniteGroup, group_algebra
from ybh.errors import ArityError, InputError
from ybh.fixtures import build_fixture
from ybh.rng import SplitMix64
from ybh.scalars import GF, QQ, TruncatedRing
from ybh.tensor import (TensorMap, compose, decode_index, encode_index,
                        identity_map, linear_combination, random_map,
                        tensor_product, transposition, truncated_from_parts,
                        truncated_part, unflatten)


def test_index_encoding_round_trip():
    for d, n in [(2, 3), (3, 2), (5, 1), (2, 0)]:
        for idx in range(d ** n):
            assert encode_index(decode_index(idx, d, n), d) == idx


def test_identity_grids():
    i1 = identity_map(QQ, 2, 1)
    assert (i1.rows, i1.cols) == (2, 2) and i1.entry(0, 0) == 1 and i1.entry(1, 0) == 0
    i2 = identity_map(QQ, 2, 2)
    assert (i2.rows, i2.cols) == (4, 4)
    assert all(i2.entry(k, k) == 1 for k in range(4))
    i0 = identity_map(QQ, 3, 0)
    assert (i0.rows, i0.cols) == (1, 1) and i0.entry(0, 0) == 1


def test_tensor_product_of_identities():
    assert tensor_product(identity_map(QQ, 2, 1), identity_map(QQ, 2, 1)) \
        == identity_map(QQ, 2, 2)


def test_tensor_product_on_basis():
    # swap-basis map on d=2 tensored with the identity: e0 ox e0 -> e1 ox e0
    f = TensorMap.from_entries(QQ, 2, 1, 1, [(1, 0, Fraction(1)), (0, 1, Fraction(1))])
    g = tensor_product(f, identity_map(QQ, 2, 1))
    col = encode_index((0, 0), 2)
    assert g.entry(encode_index((1, 0), 2), col) == 1
    assert g.nnz() == 4


def test_tensor_product_of_group_multiplications():
    # mu ox mu for k[Z/2] sends a ox a ox a ox a to e ox e (a*a = e twice)
    alg = group_algebra(FiniteGroup.cyclic(2), QQ)
    mm = tensor_product(alg.mu, alg.mu)
    a, e = 1, 0
    col = encode_index((a, a, a, a), 2)
    assert mm.entry(encode_index((e, e), 2), col) == 1


def test_compose_examples():
    alg = group_algebra(FiniteGroup.cyclic(2), QQ)
    triple = compose(alg.mu, tensor_product(alg.mu, identity_map(QQ, 2, 1)))
    a = 1
    assert triple.entry(a, encode_index((a, a, a), 2)) == 1  # (aa)a = a
    r = random_map(GF(7), 2, 2, 2, SplitMix64(1))
    assert compose(identity_map(GF(7), 2, 2), r) == r
    with pytest.raises(ArityError):
        compose(alg.mu, identity_map(QQ, 2, 1))


def test_linear_combination():
    rng = SplitMix64(2)
    r = random_map(QQ, 2, 2, 2, rng)
    assert linear_combination([(QQ.one, r), (QQ.neg(QQ.one), r)]).is_zero()
    doubled = linear_combination([(Fraction(2), identity_map(QQ, 2, 1))])
    assert doubled.entry(0, 0) == 2
    # delta^1 of the identity map reproduces mu: mu(f ox 1) + mu(1 ox f) - f mu
    alg = group_algebra(FiniteGroup.cyclic(2), QQ)
    one = identity_map(QQ, 2, 1)
    f = one
    combo = linear_combination([
        (QQ.one, compose(alg.mu, tensor_product(f, one))),
        (QQ.one, compose(alg.mu, tensor_product(one, f))),
        (QQ.neg(QQ.one), compose(f, alg.mu))])
    assert combo == alg.mu


def test_flatten_round_trip():
    z = TensorMap.zero(QQ, 2, 1, 1)
    assert z.flatten() == [Fraction(0)] * 4
    rng = SplitMix64(3)
    r = random_map(QQ, 2, 2, 2, rng)
    assert unflatten(r.flatten(), QQ, 2, 2, 2) == r
    flat = identity_map(QQ, 3, 1).flatten()
    assert [i for i, v in enumerate(flat) if v != 0] == [0, 4, 8]
    with pytest.raises(InputError):
        unflatten([Fraction(1)] * 5, QQ, 2, 1, 1)


@pytest.mark.parametrize("field", [QQ, GF(101)])
@pytest.mark.parametrize("d", [2, 3])
def test_interchange_law(field, d):
    rng = SplitMix64(d * 17)
    for _ in range(5):
        f = random_map(field, d, 1, 1, rng, span=4)
        g = random_map(field, d, 2, 1, rng, span=4)
        h = random_map(field, d, 1, 1, rng, span=4)
        j = random_map(field, d, 1, 2, rng, span=4)
        lhs = compose(tensor_product(f, g), tensor_product(h, j))
        rhs = tensor_product(compose(f, h), compose(g, j))
        assert lhs == rhs


def test_compose_associative_and_unital():
    rng = SplitMix64(5)
    f = random_map(GF(13), 2, 2, 1, rng)
    g = random_map(GF(13), 2, 2, 2, rng)
    h = random_map(GF(13), 2, 1, 2, rng)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))
    assert compose(identity_map(GF(13), 2, 1), f) == f
    assert compose(f, identity_map(GF(13), 2, 2)) == f


def test_tensor_product_strictly_associative():
    rng = SplitMix64(6)
    f = random_map(QQ, 2, 1, 1, rng, span=3)
    g = random_map(QQ, 2, 2, 1, rng, span=3)
    h = random_map(QQ, 2, 1, 2, rng, span=3)
    assert tensor_product(tensor_product(f, g), h) \
        == tensor_product(f, tensor_product(g, h))


def _sparse_copy(t):
    return TensorMap.from_entries(t.field, t.dim, t.in_arity, t.out_arity,
                                  list(t.entries()))


def _assert_storage_rule(a, c, s):
    """a and c are dense; with their sparse copies a_s and c_s, every dense or
    mixed result is dense and has the entries of the all-sparse oracle."""
    a_s, c_s = _sparse_copy(a), _sparse_copy(c)
    cases = [
        ([compose(c, a), compose(c, a_s), compose(c_s, a)], compose(c_s, a_s)),
        ([tensor_product(a, c), tensor_product(a_s, c), tensor_product(a, c_s)],
         tensor_product(a_s, c_s)),
        ([a + a, a + a_s, a_s + a], a_s + a_s),
        ([a - a.scale(s), a_s - a.scale(s), a - a_s.scale(s)], a_s - a_s.scale(s)),
        ([a.scale(s)], a_s.scale(s)),
        ([-a], -a_s),
    ]
    for dense, oracle in cases:
        assert oracle._rep == "sparse"
        for t in dense:
            assert t._rep == "dense"
            assert list(t.entries()) == list(oracle.entries())


def _truncated_dense(ring, n, k, parts, rng):
    """A dense truncated_from_parts map over GF(p)[hbar], checked against the
    same entries built sparse with from_entries over the TruncatedRing."""
    maps = [random_map(ring.base, 2, n, k, rng) if j in parts else None
            for j in range(ring.order)]
    dense = truncated_from_parts(ring, maps)
    entries = {}
    for j, t in enumerate(maps):
        for r, c, v in (t.entries() if t is not None else ()):
            entries.setdefault((r, c), [0] * ring.order)[j] = v
    oracle = TensorMap.from_entries(ring, 2, n, k,
                                    [(r, c, tuple(v)) for (r, c), v in entries.items()])
    assert oracle._rep == "sparse" and dense._rep == "dense"
    assert list(dense.entries()) == list(oracle.entries())
    return dense


def test_dense_and_sparse_paths_agree():
    field = GF(101)
    rng = SplitMix64(7)
    a = random_map(field, 2, 2, 2, rng)       # dense payload
    b_sparse = TensorMap.from_entries(field, 2, 2, 2, list(a.entries()))
    c = random_map(field, 2, 2, 1, rng)
    assert compose(c, a) == compose(c, b_sparse)
    assert tensor_product(a, c) == tensor_product(b_sparse, c)
    assert a + b_sparse == b_sparse + a
    _assert_storage_rule(a, c, 5)
    ring, rng = TruncatedRing(GF(7), 3), SplitMix64(29)
    _assert_storage_rule(_truncated_dense(ring, 2, 2, (0, 1, 2), rng),
                         _truncated_dense(ring, 2, 1, (1,), rng), (3, 0, 5))


def test_storage_rule_keeps_sparse_maps_sparse():
    b = build_fixture("z2z2_adjoint", GF(101))
    assert {b.mu._rep, b.r._rep, b.algebra.unit._rep} == {"sparse"}
    assert compose(b.mu, b.r)._rep == "sparse"
    # a full 32x32 map stored sparse: its composites stay sparse too
    dense = random_map(GF(101), 2, 5, 5, SplitMix64(3))
    full = _sparse_copy(dense)
    assert full.nnz() > 1000
    square = compose(full, full)
    assert square._rep == "sparse"
    assert list(square.entries()) == list(compose(dense, full).entries())


def test_permutation_map():
    sigma = TensorMap.permutation(QQ, 2, 4, [1, 2, 0, 3])
    col = encode_index((1, 0, 1, 0), 2)  # x, y1, y2, y3
    assert sigma.entry(encode_index((0, 1, 1, 0), 2), col) == 1  # y1, y2, x, y3
    tau = transposition(QQ, 3)
    assert compose(tau, tau) == identity_map(QQ, 3, 2)


def test_truncated_parts_round_trip():
    ring = TruncatedRing(GF(5), 3)
    rng = SplitMix64(8)
    parts = [random_map(GF(5), 2, 2, 1, rng) for _ in range(3)]
    t = truncated_from_parts(ring, parts)
    for j, part in enumerate(parts):
        assert truncated_part(t, j) == part
    over_q = TruncatedRing(QQ, 2)
    parts_q = [random_map(QQ, 2, 1, 1, rng, span=3), None]
    t_q = truncated_from_parts(over_q, parts_q)
    assert truncated_part(t_q, 0) == parts_q[0]
    assert truncated_part(t_q, 1).is_zero()


def test_with_shape_regroups_pairs():
    rng = SplitMix64(9)
    f = random_map(QQ, 2, 2, 2, rng, span=3)
    g = random_map(QQ, 2, 2, 2, rng, span=3)
    big = tensor_product(f, g)                 # (4 -> 4) at dim 2
    regrouped = big.with_shape(4, 2, 2)        # (2 -> 2) at dim 4
    assert regrouped.entry(0, 0) == big.entry(0, 0)
    assert compose(regrouped, regrouped) \
        == compose(big, big).with_shape(4, 2, 2)
    with pytest.raises(InputError):
        big.with_shape(3, 2, 2)
