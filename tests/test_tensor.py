from fractions import Fraction

import numpy as np
import pytest

from ybh.constructions import FiniteGroup, group_algebra
from ybh.errors import ArityError, InputError
from ybh.fixtures import build_fixture
from ybh.rng import SplitMix64
from ybh.scalars import GF, QQ, PrimeField, TruncatedRing, base_of
from ybh.tensor import (TensorMap, _matmul_mod, compose, decode_index,
                        encode_index, identity_map, linear_combination, random_map,
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


_RINGS = [QQ, GF(2), GF(101), TruncatedRing(QQ, 2), TruncatedRing(GF(7), 3)]
_RING_IDS = ["Q", "GF2", "GF101", "Q_h2", "GF7_h3"]


def _operands(field, n, k, rng):
    """Maps (n -> k) over field of every kind, a dense zero map included
    over prime-based rings."""
    maps = [_kernel_operand(field, n, k, kind, rng)
            for kind in ("zero", "single", "holes", "full")]
    if isinstance(base_of(field), PrimeField):
        maps += [_kernel_operand(field, n, k, "dense", rng),
                 TensorMap.zero(field, 2, n, k)._as_dense()]
    return maps


def _generic_tensor(f, g):
    """Oracle: the Kronecker product with one field.mul per pair of entries."""
    field, a, b = f.field, f.to_sparse_data(), g.to_sparse_data()
    entries = [(rf * g.rows + rg, cf * g.cols + cg, field.mul(vf, vg))
               for cf, colf in a.items() for cg, colg in b.items()
               for rf, vf in colf.items() for rg, vg in colg.items()]
    return TensorMap.from_entries(field, f.dim, f.in_arity + g.in_arity,
                                  f.out_arity + g.out_arity, entries)


@pytest.mark.parametrize("field", _RINGS, ids=_RING_IDS)
def test_identity_lifts_match_the_generic_product(field, monkeypatch):
    """f (x) 1_n and 1_n (x) f equal the multiply-every-pair product entry
    for entry, scalar types included, and keep f's storage; a sparse f is
    only re-indexed, with no field.mul."""
    rng = SplitMix64(53)
    muls = []
    mul = field.mul
    monkeypatch.setattr(field, "mul", lambda a, b: muls.append(1) or mul(a, b))
    for n, k in ((0, 1), (2, 1), (2, 2), (3, 2)):
        for f in _operands(field, n, k, rng):
            for m in (0, 1, 2):
                one = identity_map(field, 2, m)
                wants = (_generic_tensor(f, one), _generic_tensor(one, f))
                del muls[:]
                lifts = (f.tensor(one), one.tensor(f))
                assert not (muls and f._rep == "sparse")
                for got, want in zip(lifts, wants):
                    assert got._rep == f._rep
                    assert (got.in_arity, got.out_arity) == (n + m, k + m)
                    assert _typed_entries(got) == _typed_entries(want)


@pytest.mark.parametrize("field", _RINGS, ids=_RING_IDS)
def test_subtraction_matches_adding_the_negative(field):
    """a - b equals a + (-b) entry for entry, scalar types and storage
    included, also where columns cancel, and fails the same way."""
    rng = SplitMix64(59)
    maps = _operands(field, 2, 2, rng)
    for a in maps:
        for b in maps + [a, a + maps[1]]:
            got, want = a - b, a + (-b)
            assert got._rep == want._rep
            assert _typed_entries(got) == _typed_entries(want)
    assert (maps[2] - maps[2]).is_zero() and (maps[-1] - maps[-1]).is_zero()
    assert _typed_entries(maps[2] - (maps[2] + maps[1])) == _typed_entries(-maps[1])
    other = GF(3) if field is QQ else QQ
    for b in (_kernel_operand(field, 2, 1, "full", rng),
              _kernel_operand(other, 2, 2, "full", rng)):
        errors = []
        for op in (lambda: maps[2] - b, lambda: maps[2] + (-b)):
            with pytest.raises(InputError) as exc:
                op()
            errors.append(type(exc.value))
        assert errors[0] is errors[1]


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


def _assert_residue_stack(t):
    order = t.field.order if isinstance(t.field, TruncatedRing) else 1
    p = base_of(t.field).p
    assert t._rep == "dense" and isinstance(t._data, np.ndarray)
    assert t._data.dtype == np.int64 and t._data.shape == (order, t.rows, t.cols)
    assert t._data.min() >= 0 and t._data.max() < p


def test_dense_maps_are_one_residue_stack():
    """Every dense map, over F_p or F_p[hbar]/(hbar^m), stores one int64
    array of shape (order, rows, cols) with entries in [0, p)."""
    rng = SplitMix64(47)
    a, c = random_map(GF(101), 2, 2, 2, rng), random_map(GF(101), 2, 2, 1, rng)
    ring = TruncatedRing(GF(7), 3)
    h = truncated_from_parts(ring, [random_map(GF(7), 2, 2, 2, rng) for _ in range(3)])
    g = truncated_from_parts(ring, [None, random_map(GF(7), 2, 2, 1, rng)])
    for t in (a, c, compose(c, a), a.tensor(c), a + a, a.scale(100), -a,
              h, g, compose(g, h), h.tensor(g), h + h, h.scale((6, 0, 3)), -h,
              truncated_part(h, 2), truncated_part(g, 0)):
        _assert_residue_stack(t)


def test_truncated_from_parts_rejects_parts_over_another_ring():
    rng = SplitMix64(48)
    over_f5, over_q = TruncatedRing(GF(5), 2), TruncatedRing(QQ, 2)
    q_part = random_map(QQ, 2, 1, 1, rng, span=3)
    f5_part = random_map(GF(5), 2, 1, 1, rng)
    for ring, parts in [(over_f5, [q_part]), (over_f5, [f5_part, q_part]),
                        (over_q, [f5_part]), (over_q, [None, f5_part]),
                        (over_f5, [random_map(GF(7), 2, 1, 1, rng)])]:
        with pytest.raises(InputError, match="part over"):
            truncated_from_parts(ring, parts)


def test_truncated_part_rejects_degrees_outside_the_order():
    rng = SplitMix64(49)
    dense = truncated_from_parts(TruncatedRing(GF(5), 3), [random_map(GF(5), 2, 1, 1, rng)])
    sparse = truncated_from_parts(TruncatedRing(QQ, 3), [random_map(QQ, 2, 1, 1, rng)])
    for t in (dense, sparse):
        for j in (-1, 3, 4):
            with pytest.raises(InputError, match="truncation order"):
                truncated_part(t, j)


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


# ---------------------------------------------------------------- composition kernel

def _left_to_right(maps):
    """Oracle: the chain multiplied left to right, each product gathered
    column by column on sparse copies (the kernel's column route)."""
    out = maps[0]
    for g in maps[1:]:
        field, a, b = out.field, out.to_sparse_data(), g.to_sparse_data()
        entries = [(i, j, field.mul(av, bv)) for j, bcol in b.items()
                   for k, bv in bcol.items() for i, av in a.get(k, {}).items()]
        out = TensorMap.from_entries(field, out.dim, g.in_arity, out.out_arity, entries)
    return out


def _typed_entries(t):
    return [(r, c, v, type(v)) for r, c, v in t.entries()]


def _nonzero(field, rng):
    while True:
        v = field.random(rng, 5)
        if not field.is_zero(v):
            return v


def _kernel_operand(field, n, k, kind, rng):
    """A 2^k x 2^n map of the given kind over field."""
    rows, cols = 2 ** k, 2 ** n
    if kind == "dense":
        if isinstance(field, TruncatedRing):
            return truncated_from_parts(field, [random_map(field.base, 2, n, k, rng)
                                                for _ in range(field.order)])
        return random_map(field, 2, n, k, rng)
    if kind == "zero":
        cells = []
    elif kind == "single":
        cells = [(rng.randrange(rows), rng.randrange(cols))]
    elif kind == "full":
        cells = [(r, c) for r in range(rows) for c in range(cols)]
    else:  # "holes": every other column empty, the rest random
        cells = [(r, c) for r in range(rows) for c in range(cols)
                 if c % 2 and rng.randrange(3)]
    return TensorMap.from_entries(field, 2, n, k,
                                  [(r, c, _nonzero(field, rng)) for r, c in cells])


@pytest.mark.parametrize("field", [QQ, GF(101), GF(2), TruncatedRing(GF(7), 3)],
                         ids=["Q", "GF101", "GF2", "GF7_h3"])
def test_chain_matches_left_to_right_column_route(field):
    """Seeded chains of 2-5 factors equal the left-to-right column-route
    product entry for entry, scalar types included, whichever factor the
    chain starts from and whichever route each product takes."""
    rng = SplitMix64(41)
    kinds = ["single", "full", "zero", "holes", "single", "full"]
    if isinstance(base_of(field), PrimeField):
        kinds.append("dense")
    for _ in range(60):
        arities = [rng.randint(0, 3) for _ in range(rng.randint(3, 6))]
        maps = [_kernel_operand(field, arities[i + 1], arities[i],
                                kinds[rng.randrange(len(kinds))], rng)
                for i in range(len(arities) - 1)]
        got, want = compose(*maps), _left_to_right(maps)
        assert (got.in_arity, got.out_arity) == (arities[-1], arities[0])
        assert _typed_entries(got) == _typed_entries(want)


def test_both_routes_of_one_product_agree():
    rng = SplitMix64(43)
    full = _kernel_operand(QQ, 3, 3, "full", rng)
    for kind in ("single", "holes", "zero"):
        sparse = _kernel_operand(QQ, 3, 3, kind, rng)
        # sparse on the left drives the row route, on the right the column route
        assert len(sparse._data) < len(full._data)
        for maps in ([sparse, full], [full, sparse], [full, sparse, full]):
            assert _typed_entries(compose(*maps)) == _typed_entries(_left_to_right(maps))


def test_row_index_survives_with_shape():
    """A right operand keeps serving correct products through its cached row
    index, before and after it is regrouped by with_shape."""
    rng = SplitMix64(44)
    b = _kernel_operand(GF(101), 2, 2, "full", rng)            # 4x4 at dim 2
    b4 = b.with_shape(4, 1, 1)                                  # the same grid at dim 4
    for _ in range(3):
        a = _kernel_operand(GF(101), 2, 2, "single", rng)
        assert _typed_entries(a.compose(b)) == _typed_entries(_left_to_right([a, b]))
        assert b._rows is not None
        a4 = a.with_shape(4, 1, 1)
        assert _typed_entries(a4.compose(b4)) \
            == _typed_entries(_left_to_right([a4, b4]))
        assert list(a4.compose(b4).entries()) == list(a.compose(b).entries())


def test_invalid_chain_raises_the_left_to_right_error():
    rng = SplitMix64(45)
    f = random_map(QQ, 2, 3, 1, rng, span=3)        # 3 -> 1
    g = random_map(QQ, 2, 2, 3, rng, span=3)        # 2 -> 3
    h = TensorMap.zero(QQ, 2, 1, 1)                 # 1 -> 1, the sparsest factor
    with pytest.raises(ArityError) as err:
        compose(f, g, h)
    assert str(err.value) == "arity mismatch: needed 2, got 1 (composing (1->1) into (2->1))"
    with pytest.raises(InputError, match="compose: dimension mismatch 2 vs 3"):
        compose(f, g, TensorMap.zero(QQ, 3, 1, 2))


def test_d2_assembly_builds_each_lift_row_index_once(monkeypatch):
    from ybh.cohomology import differential_matrix
    builds = []
    row_index = TensorMap._row_index

    def counting(self):
        if self._rows is None:
            builds.append(self)        # kept alive, so identities stay distinct
        return row_index(self)

    monkeypatch.setattr(TensorMap, "_row_index", counting)
    b = build_fixture("z2_adjoint", QQ)
    differential_matrix(b, 2)
    counts = [sum(t is built for built in builds) for t in b._lifted.values()]
    assert max(counts) == 1 and sum(counts) >= 2


def _is_prime(n):
    return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))


# 94906249 is the largest prime with (p-1)^2 < 2^53 (one limb), 94906297
# the smallest above it (16-bit limbs).
@pytest.mark.parametrize("p", [2, 101, 65521, 94906249, 94906297, 2 ** 31 - 1])
def test_matmul_mod_matches_integer_oracle(p):
    assert _is_prime(p)
    assert ((p - 1) ** 2 < 1 << 53) == (p <= 94906249)
    rng = np.random.default_rng(p % 1000)
    for k in (1, 7, 64, 512):
        for a, b in [(rng.integers(0, p, (3, k)), rng.integers(0, p, (k, 4))),
                     (np.full((2, k), p - 1), np.full((k, 3), p - 1))]:
            want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T]
                    for row in a]
            got = _matmul_mod(a, b, p)
            assert got.dtype == np.int64 and got.tolist() == want


def test_compose_checks_each_product_once(monkeypatch):
    import ybh.tensor
    checks, keys = [], []
    require, ring_key = TensorMap._require_composable, ybh.tensor._ring_key

    def counting_require(self, other, out_arity):
        checks.append(1)
        return require(self, other, out_arity)

    def counting_key(ring):
        keys.append(1)
        return ring_key(ring)

    monkeypatch.setattr(TensorMap, "_require_composable", counting_require)
    monkeypatch.setattr(ybh.tensor, "_ring_key", counting_key)
    rng = SplitMix64(46)
    f, g, h = (random_map(QQ, 2, 2, 2, rng, span=3) for _ in range(3))
    compose(f, g, h)
    assert len(checks) == 2  # one check per pairwise product
    assert keys == []        # one ring object: compared by identity


@pytest.mark.parametrize("field,zero", [(QQ, 0), (QQ, Fraction(0)), (GF(5), 0), (GF(5), 5)])
def test_stored_zeros_count_as_zero(field, zero):
    f = TensorMap(field, 2, 1, 1, "sparse", {0: {0: 1}})
    g = TensorMap(field, 2, 1, 1, "sparse", {0: {0: 1}, 1: {1: zero}})
    assert f == g and g == f
    assert (g - f).is_zero() and (f - g).is_zero()
    assert TensorMap(field, 2, 1, 1, "sparse", {1: {1: zero}}).is_zero()
    assert not g.is_zero() and g != TensorMap.zero(field, 2, 1, 1)
