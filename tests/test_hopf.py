from fractions import Fraction

import pytest

from ybh import braided, hopf
from ybh.braided import braided_multiplication
from ybh.cohomology import delta1, differential_matrix, flatten2, hochschild_differential
from ybh.constructions import FiniteGroup, from_heap
from ybh.errors import InputError, InternalCheckError, ValidationError
from ybh.fixtures import build_fixture
from ybh.hopf import (HopfAlgebra, HopfTwoCochain, adjoint_operator, adjoint_yb,
                      antipode_correction, braided_frobenius, braided_from_hopf,
                      check_hopf_2cocycle, check_normalized, dual_numbers_hopf,
                      find_left_integral, frobenius_operator, group_hopf,
                      hopf_coboundary, is_hopf_2cocycle, normalized_cocycle_basis,
                      psi_map)
from ybh.linalg import in_span
from ybh.rng import SplitMix64
from ybh.scalars import GF, QQ, TruncatedRing
from ybh.tensor import (TensorMap, compose, encode_index, identity_map,
                        random_map, transposition, truncated_from_parts, truncated_part)


def test_group_hopf_axioms_and_flags():
    h = group_hopf(FiniteGroup.cyclic(2), QQ)
    assert all(c.ok for c in h.check_hopf())
    assert h.flags == {"commutative": True, "cocommutative": True, "involutory": True}


def test_bad_antipode_fails():
    g = FiniteGroup.cyclic(3)
    h = group_hopf(g, QQ)
    broken = HopfAlgebra(QQ, 3, h.mu, h.eta, h.delta, h.epsilon,
                         identity_map(QQ, 3, 1))
    bad = [c for c in broken.check_hopf() if not c.ok]
    assert any(c.name.startswith("antipode") for c in bad)
    with pytest.raises(ValidationError):
        broken.require()


def test_s3_hopf_flags():
    h = group_hopf(FiniteGroup.symmetric(3), QQ)
    assert all(c.ok for c in h.check_hopf())
    assert h.flags["commutative"] is False
    assert h.flags["cocommutative"] is True
    assert h.flags["involutory"] is True


def test_adjoint_yb_is_conjugation_for_groups():
    for g, field in [(FiniteGroup.cyclic(2), QQ),
                     (FiniteGroup.cyclic(3), GF(2)),
                     (FiniteGroup.symmetric(3), QQ)]:
        h = group_hopf(g, field)
        r = adjoint_yb(h).r
        d = g.order
        expected = TensorMap.from_entries(
            field, d, 2, 2,
            ((encode_index((y, g.conj(x, y)), d), encode_index((x, y), d), field.one)
             for x in range(d) for y in range(d)))
        assert r == expected
    assert adjoint_yb(group_hopf(FiniteGroup.cyclic(2), QQ)).r == transposition(QQ, 2)


def test_braided_from_hopf_families():
    for g, field in [(FiniteGroup.cyclic(2), QQ),
                     (FiniteGroup.symmetric(3), QQ),
                     (FiniteGroup.direct_product(FiniteGroup.cyclic(2),
                                                 FiniteGroup.cyclic(2)), GF(3))]:
        b = braided_from_hopf(group_hopf(g, field))
        assert all(c.ok for c in b.all_checks())


def test_lemma_composites_for_adjoint():
    # both displayed composites of the braided-ness proof, as matrices
    b = braided_from_hopf(group_hopf(FiniteGroup.symmetric(3), GF(5)))
    one = identity_map(GF(5), 6, 1)
    lhs = compose(b.mu.tensor(one), one.tensor(b.r), b.r.tensor(one))
    assert lhs == compose(b.r, one.tensor(b.mu))


# Reference routes, independent of the direct evaluation in hopf.py: the same
# structure maps as composites of maps between tensor powers.

def _composite_adjoint(mu, delta, antipode):
    """(1 ox mu(mu ox 1)) (1 ox S ox 1 ox 1) sigma (1 ox Delta^2) through V^4,
    sigma moving x past y(1) ox y(2)."""
    ring, d = mu.field, mu.dim
    one = identity_map(ring, d, 1)
    delta2 = compose(delta.tensor(one), delta)
    mu2 = compose(mu, mu.tensor(one))
    sigma = TensorMap.permutation(ring, d, 4, [1, 2, 0, 3])
    return compose(one.tensor(mu2), one.tensor(antipode).tensor(one).tensor(one),
                   sigma, one.tensor(delta2))


def _composite_frobenius_r(mu, delta, antipode):
    """R_V through X^8: spread both coproducts, shuffle, collect with T."""
    f, d = mu.field, mu.dim
    one = identity_map(f, d, 1)
    t_map = compose(mu, mu.tensor(one), one.tensor(antipode).tensor(one))
    delta2 = compose(delta.tensor(one), delta)
    spread = one.tensor(one).tensor(delta2).tensor(delta2)  # X^4 -> X^8
    # inputs x y z1 z2 z3 w1 w2 w3  ->  z1 w1 x z2 w2 y z3 w3
    shuffle = TensorMap.permutation(f, d, 8, [2, 5, 0, 3, 6, 1, 4, 7])
    collect = one.tensor(one).tensor(t_map).tensor(t_map)  # X^8 -> X^4
    return compose(collect, shuffle, spread).with_shape(d * d, 2, 2)


_Z2, _Z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
_Z2Z2 = FiniteGroup.direct_product(_Z2, _Z2)
_HOPF = {"Z2-Q": lambda: group_hopf(_Z2, QQ),
         "Z3-F3": lambda: group_hopf(_Z3, GF(3)),
         "Z3-Q": lambda: group_hopf(_Z3, QQ),
         "Z2xZ2-F101": lambda: group_hopf(_Z2Z2, GF(101)),
         "dual-F2": lambda: dual_numbers_hopf(GF(2))}


@pytest.mark.parametrize("name", [*_HOPF, "S3-Q", "S3-F2"])
def test_adjoint_operator_matches_composite(name):
    s3 = {"S3-Q": QQ, "S3-F2": GF(2)}
    h = group_hopf(FiniteGroup.symmetric(3), s3[name]) if name in s3 else _HOPF[name]()
    r = adjoint_operator(h.mu, h.delta, h.antipode)
    assert r == _composite_adjoint(h.mu, h.delta, h.antipode)
    assert braided_from_hopf(h).r == r


@pytest.mark.parametrize("name", list(_HOPF))
def test_frobenius_r_matches_composite(name):
    h = _HOPF[name]()
    maps = (h.mu, h.delta, h.antipode)
    assert braided_frobenius(h).r == frobenius_operator(*maps) == _composite_frobenius_r(*maps)


def _random_parts(h, rng):
    """Arbitrary (mu, Delta, S)-shaped maps: both routes evaluate one formula,
    and on non-cocommutative inputs every Sweedler slot is told apart."""
    return [random_map(h.field, h.dim, m.in_arity, m.out_arity, rng, span=3)
            for m in (h.mu, h.delta, h.antipode)]


@pytest.mark.parametrize("field", [GF(5), QQ], ids=["F5", "Q"])
def test_operators_on_arbitrary_maps_match_composites(field):
    rng = SplitMix64(29)
    h = group_hopf(_Z2, field)
    for _ in range(3):
        parts = _random_parts(h, rng)
        assert adjoint_operator(*parts) == _composite_adjoint(*parts)
        assert frobenius_operator(*parts) == _composite_frobenius_r(*parts)


@pytest.mark.parametrize("base", [GF(5), QQ], ids=["F5", "Q"])
def test_adjoint_operator_over_truncated_ring_matches_composite(base):
    # dense over F5[hbar]/(hbar^2), sparse over Q[hbar]/(hbar^2)
    rng = SplitMix64(23)
    h = group_hopf(FiniteGroup.symmetric(3) if base is QQ else _Z3, base)
    ring = TruncatedRing(base, 2)
    parts = [truncated_from_parts(ring, [m, p])
             for m, p in zip((h.mu, h.delta, h.antipode), _random_parts(h, rng))]
    r = adjoint_operator(*parts)
    assert r.field is ring
    assert r == _composite_adjoint(*parts)


def _spy(monkeypatch, names):
    """Count the braided module's check_identity calls per axiom name."""
    calls = dict.fromkeys(names, 0)
    real = braided.check_identity

    def spy(x, name, rows):
        if name in calls:
            calls[name] += 1
        return real(x, name, rows)

    monkeypatch.setattr(braided, "check_identity", spy)
    return calls


@pytest.mark.parametrize("name", ["s3_adjoint", "mat2_trivial", "z2_adjoint"])
def test_fixture_construction_runs_each_axiom_once(monkeypatch, name):
    calls = _spy(monkeypatch, ["associativity", "yang-baxter", "yi", "iy"])
    once = dict.fromkeys(calls, 1)
    b = build_fixture(name, GF(101))
    assert calls == once
    assert all(c.ok for c in b.all_checks())  # cached verdicts
    assert calls == once


def test_braided_multiplication_reuses_the_yb_verdict(monkeypatch):
    b = build_fixture("s3_adjoint", QQ)
    calls = _spy(monkeypatch, ["associativity", "yang-baxter"])
    out = braided_multiplication(b, 2)
    assert out.yb is b.yb
    assert calls == {"associativity": 1, "yang-baxter": 0}


@pytest.mark.parametrize("fault,message", [("not-yb", "YBE"), ("twice", "yi")])
def test_broken_adjoint_operator_is_an_internal_error(monkeypatch, fault, message):
    real = hopf.adjoint_operator

    def broken(mu, delta, antipode):
        r = real(mu, delta, antipode)
        if fault == "twice":  # 2R still solves the YBE but breaks YI
            return r.scale(r.field.add(r.field.one, r.field.one))
        return r + TensorMap.from_entries(r.field, r.dim, 2, 2, [(0, 1, r.field.one)])

    monkeypatch.setattr(hopf, "adjoint_operator", broken)
    with pytest.raises(InternalCheckError, match=message):
        braided_from_hopf(group_hopf(FiniteGroup.symmetric(3), GF(5)))


def test_find_left_integral_group_algebra():
    for g, field in [(FiniteGroup.cyclic(3), QQ), (FiniteGroup.symmetric(3), GF(2))]:
        h = group_hopf(g, field)
        integral = find_left_integral(h)
        assert integral.rank == 1
        lam = integral.functional
        for x in range(g.order):
            expected = field.one if x == g.identity else field.zero
            assert field.eq(lam.entry(0, x), expected)


def test_find_left_integral_dual_numbers():
    h = dual_numbers_hopf(GF(2))
    integral = find_left_integral(h)
    assert integral.rank == 1
    assert integral.functional.entry(0, 0) == 0  # lam(1) = 0 is forced
    assert integral.functional.entry(0, 1) == 1


def test_dual_numbers_hopf_needs_characteristic_two():
    with pytest.raises(InputError):
        dual_numbers_hopf(QQ)
    with pytest.raises(InputError):
        dual_numbers_hopf(GF(3))


def test_braided_frobenius_families():
    b = braided_frobenius(group_hopf(FiniteGroup.cyclic(1), QQ))
    assert b.dim == 1
    for g, field, dim in [(FiniteGroup.cyclic(2), QQ, 4),
                          (FiniteGroup.cyclic(3), GF(2), 9)]:
        b = braided_frobenius(group_hopf(g, field))
        assert b.dim == dim
        assert all(c.ok for c in b.all_checks())


def test_braided_frobenius_rejects_noncommutative():
    with pytest.raises(InputError):
        braided_frobenius(group_hopf(FiniteGroup.symmetric(3), QQ))


def test_frobenius_of_abelian_group_is_the_heap_rack():
    # cup = [y == u] for k[G], so the Frobenius structure must coincide with
    # the heap construction on G x G: an independent construction route
    for g, field in [(FiniteGroup.cyclic(2), QQ), (FiniteGroup.cyclic(3), GF(5))]:
        frob = braided_frobenius(group_hopf(g, field))
        heap = from_heap(g, field)
        assert frob.mu == heap.mu
        assert frob.r == heap.r


def test_hopf_coboundary_values():
    h = group_hopf(FiniteGroup.cyclic(2), QQ)
    zero = TensorMap.zero(QQ, 2, 1, 1)
    c = hopf_coboundary(h, zero)
    assert c.xi.is_zero() and c.zeta.is_zero()
    c = hopf_coboundary(h, identity_map(QQ, 2, 1))
    assert c.xi == -h.mu     # f mu - mu(f ox 1) - mu(1 ox f) at f = 1
    assert c.zeta == h.delta


def test_coboundaries_are_cocycles():
    rng = SplitMix64(41)
    for g, field in [(FiniteGroup.cyclic(2), QQ), (FiniteGroup.cyclic(3), GF(7))]:
        h = group_hopf(g, field)
        for _ in range(10):
            f = random_map(field, h.dim, 1, 1, rng, span=4)
            assert is_hopf_2cocycle(h, hopf_coboundary(h, f))


def test_mu_zero_pair_fails_compatibility():
    h = group_hopf(FiniteGroup.cyclic(2), QQ)
    c = HopfTwoCochain(xi=h.mu, zeta=TensorMap.zero(QQ, 2, 1, 2))
    results = {r.name: r.ok for r in check_hopf_2cocycle(h, c)}
    assert results["algebra-cocycle"] is True
    assert results["bialgebra-compatibility"] is False


def test_check_normalized():
    h = group_hopf(FiniteGroup.cyclic(2), QQ)
    zero2 = HopfTwoCochain(TensorMap.zero(QQ, 2, 2, 1), TensorMap.zero(QQ, 2, 1, 2))
    assert check_normalized(h, zero2)
    assert not check_normalized(h, HopfTwoCochain(h.mu, TensorMap.zero(QQ, 2, 1, 2)))
    # coboundary of f with f(1) = 0 and eps f = 0 is normalized
    f = TensorMap.from_entries(QQ, 2, 1, 1, [(0, 1, Fraction(1)), (1, 1, Fraction(-1))])
    assert compose(h.epsilon, f).is_zero()
    assert compose(f, h.eta).is_zero()
    assert check_normalized(h, hopf_coboundary(h, f))


def _normalized_f_basis(h):
    """Maps f with f(1) = 0 and eps f = 0, as a spanning set."""
    field, d = h.field, h.dim
    out = []
    rng = SplitMix64(4242)
    for _ in range(2 * d * d):
        f = random_map(field, d, 1, 1, rng, span=4)
        # project: subtract the parts violating f(eta) = 0 and eps f = 0
        fe = compose(f, h.eta)
        f = f - compose(fe, h.epsilon)
        ef = compose(h.epsilon, f)
        f = f - compose(h.eta, ef)
        if compose(h.epsilon, f).is_zero() and compose(f, h.eta).is_zero():
            out.append(f)
    return out


def test_antipode_correction_for_coboundaries():
    for g, field in [(FiniteGroup.cyclic(2), QQ), (FiniteGroup.cyclic(3), GF(5))]:
        h = group_hopf(g, field)
        s = h.antipode
        for f in _normalized_f_basis(h)[:6]:
            c = hopf_coboundary(h, f)
            assert check_normalized(h, c)
            s1 = antipode_correction(h, c)
            assert s1 == compose(f, s) - compose(s, f)


def test_antipode_correction_zero():
    h = group_hopf(FiniteGroup.cyclic(2), QQ)
    zero2 = HopfTwoCochain(TensorMap.zero(QQ, 2, 2, 1), TensorMap.zero(QQ, 2, 1, 2))
    assert antipode_correction(h, zero2).is_zero()


def test_deformed_antipode_condition_to_first_order():
    h = dual_numbers_hopf(GF(2))
    for c in normalized_cocycle_basis(h):
        s1 = antipode_correction(h, c)
        ring = TruncatedRing(h.field, 2)
        mu_t = truncated_from_parts(ring, [h.mu, c.xi])
        delta_t = truncated_from_parts(ring, [h.delta, c.zeta])
        s_t = truncated_from_parts(ring, [h.antipode, s1])
        one = identity_map(ring, h.dim, 1)
        eta_eps = compose(truncated_from_parts(ring, [h.eta]),
                          truncated_from_parts(ring, [h.epsilon]))
        assert compose(mu_t, one.tensor(s_t), delta_t) == eta_eps
        assert compose(mu_t, s_t.tensor(one), delta_t) == eta_eps


def test_psi_map_zero_and_coboundary():
    for g, field in [(FiniteGroup.cyclic(2), QQ), (FiniteGroup.cyclic(3), GF(7))]:
        h = group_hopf(g, field)
        b = braided_from_hopf(h)
        zero2 = HopfTwoCochain(TensorMap.zero(field, h.dim, 2, 1),
                               TensorMap.zero(field, h.dim, 1, 2))
        pair = psi_map(h, zero2)
        assert pair.phi.is_zero() and pair.psi.is_zero()
        for f in _normalized_f_basis(h)[:4]:
            c = hopf_coboundary(h, f)
            pair = psi_map(h, c)
            expected = delta1(b, f.scale(field.neg(field.one))).phi
            assert pair.phi == expected  # Psi of a coboundary is delta1_YB(-f)
            assert pair.psi == c.xi


def test_psi_map_verifies_the_adjoint_braiding_once(monkeypatch):
    calls = _spy(monkeypatch, ["yang-baxter"])
    h = group_hopf(FiniteGroup.cyclic(3), GF(7))
    zero2 = HopfTwoCochain(TensorMap.zero(h.field, h.dim, 2, 1),
                           TensorMap.zero(h.field, h.dim, 1, 2))
    cochains = [zero2] + [hopf_coboundary(h, f) for f in _normalized_f_basis(h)[:2]]
    for c in cochains:
        psi_map(h, c)
    assert calls == {"yang-baxter": 1}
    assert braided_from_hopf(h) is braided_from_hopf(h)


def test_psi_of_coboundary_lands_in_ybh_coboundaries():
    h = group_hopf(FiniteGroup.cyclic(2), QQ)
    b = braided_from_hopf(h)
    d1 = differential_matrix(b, 1)
    image_basis = [d1.column(c) for c in range(d1.cols)]
    columns = [[col.get(r, QQ.zero) for r in range(d1.rows)] for col in image_basis]
    for f in _normalized_f_basis(h)[:4]:
        pair = psi_map(h, hopf_coboundary(h, f))
        vec = flatten2(pair)
        dense = [QQ.zero] * d1.rows
        for pos, v in vec.items():
            dense[pos] = v
        ok, _ = in_span(columns, dense, QQ)
        assert ok


def test_normalized_cocycle_basis_dual_numbers():
    h = dual_numbers_hopf(GF(2))
    basis = normalized_cocycle_basis(h)
    assert basis, "kernel search found no normalized cocycles"
    for c in basis:
        assert check_normalized(h, c)
        assert is_hopf_2cocycle(h, c)
        pair = psi_map(h, c)  # raises if (Psi, xi) is not a YBH 2-cocycle
        assert pair.psi == c.xi


# Reference route, independent of the term tables in hopf.py: the 2-cocycle
# and normalization conditions as hand-written composites.  Its coalgebra
# condition is the negative of the linearized coassociativity row.

def _reference_cocycle_defects(h, c):
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


def _reference_normalization_defects(h, c):
    one = identity_map(h.field, h.dim, 1)
    return [compose(c.xi, h.eta.tensor(one)), compose(c.xi, one.tensor(h.eta)),
            compose(one.tensor(h.epsilon), c.zeta), compose(h.epsilon.tensor(one), c.zeta)]


_S3 = FiniteGroup.symmetric(3)
_FIRST_ORDER_CASES = {f"{g}-{fname}": (lambda g=group, f=field: group_hopf(g, f))
                      for g, group in (("kZ2", _Z2), ("kZ3", _Z3), ("kS3", _S3))
                      for fname, field in (("Q", QQ), ("F2", GF(2)), ("F5", GF(5)))}
_FIRST_ORDER_CASES["dual-F2"] = lambda: dual_numbers_hopf(GF(2))


@pytest.mark.parametrize("name", list(_FIRST_ORDER_CASES))
def test_first_order_tables_are_the_hbar_part_of_the_hopf_axioms(name):
    # (a) the cocycle conditions are the reference ones, the coalgebra one
    # negated; (b) every linearized table is the hbar^1 coefficient of its
    # axiom's defect at (mu + hbar xi, Delta + hbar zeta, S + hbar S') over
    # k[hbar]/(hbar^2), eta and epsilon fixed
    h = _FIRST_ORDER_CASES[name]()
    rng = SplitMix64(31)
    ring = TruncatedRing(h.field, 2)
    tables = [*zip(("associativity", "coassociativity", "bialgebra"),
                   hopf.HOPF_COCYCLE_TERMS.values()),
              *zip(("unit-left", "unit-right", "counit-right", "counit-left"),
                   hopf.NORMALIZATION_TERMS),
              *zip(("antipode-left", "antipode-right"), hopf.HEXAGON_TERMS)]
    for _ in range(2):
        xi, zeta, s1 = (random_map(h.field, h.dim, n, k, rng, span=3)
                        for n, k in ((2, 1), (1, 2), (1, 1)))
        c = HopfTwoCochain(xi, zeta)
        names, reference = zip(*_reference_cocycle_defects(h, c))
        slots = {"x": xi, "z": zeta, "y": s1}
        assert braided.read_tables(h, slots, *hopf.HOPF_COCYCLE_TERMS.values()) == \
            [reference[0], -reference[1], reference[2]]
        assert tuple(r.name for r in check_hopf_2cocycle(h, c)) == names
        deformed = {t: truncated_from_parts(ring, [m, slots.get(hopf._FIRST_ORDER.get(t))])
                    for t, m in h.tokens().items()}
        for axiom, rows in tables:
            defect, = braided.read_tables(deformed, {}, hopf.HOPF_AXIOM_TERMS[axiom])
            assert truncated_part(defect, 1) == braided.read_tables(h, slots, rows)[0], axiom


@pytest.mark.parametrize("name,field", [(g, f) for g in ("kZ2", "kZ3") for f in ("Q", "F2", "F3")]
                         + [("dual", "F2")])
def test_normalized_cocycle_basis_is_the_reference_kernel(name, field):
    # the kernel of the reference conditions, entry for entry: the RREF is
    # unique, so the negated coalgebra rows change nothing
    fields = {"Q": QQ, "F2": GF(2), "F3": GF(3)}
    h = (dual_numbers_hopf(GF(2)) if name == "dual"
         else group_hopf(_Z2 if name == "kZ2" else _Z3, fields[field]))

    def conditions(xi, zeta):
        c = HopfTwoCochain(xi, zeta)
        return ([t for _, t in _reference_cocycle_defects(h, c)]
                + _reference_normalization_defects(h, c))

    m = HopfTwoCochain.SUMMANDS.matrix(h.field, h.dim, conditions)
    expected = [HopfTwoCochain.unflatten(v, h.field, h.dim).flatten() for v in m.kernel_basis()]
    assert [c.flatten() for c in normalized_cocycle_basis(h)] == expected


def test_second_normalized_cocycle_basis_lifts_only_slot_words(monkeypatch):
    # the slot-free words of the seven tables are kept on h by the first call
    h = group_hopf(_Z3, GF(5))
    first = [c.flatten() for c in normalized_cocycle_basis(h)]
    lifted, lift = [], braided._lift
    monkeypatch.setattr(braided, "_lift",
                        lambda word, maps: lifted.append(word) or lift(word, maps))
    assert [c.flatten() for c in normalized_cocycle_basis(h)] == first
    assert lifted and all({"x", "z"} & set(word) for word in lifted), sorted(set(lifted))


def test_hexagons_reject_a_wrong_antipode_correction():
    # antipode_correction verifies the hexagon rows at its S'; both fail at 2 S'
    h = group_hopf(_Z3, GF(5))
    c = hopf_coboundary(h, _normalized_f_basis(h)[0])
    s1 = antipode_correction(h, c)
    assert not s1.is_zero()
    wrong = {"x": c.xi, "z": c.zeta, "y": s1.scale(GF(5).add(1, 1))}
    assert not any(t.is_zero() for t in braided.read_tables(h, wrong, *hopf.HEXAGON_TERMS))


def test_psi_map_rejects_non_cocycles():
    h = group_hopf(FiniteGroup.cyclic(2), QQ)
    bad = HopfTwoCochain(h.mu, TensorMap.zero(QQ, 2, 1, 2))
    with pytest.raises(InputError):
        psi_map(h, bad)


@pytest.mark.parametrize("h,expected", [
    (lambda: group_hopf(FiniteGroup.cyclic(2), QQ), 1),
    (lambda: group_hopf(FiniteGroup.cyclic(2), GF(2)), 1),
    (lambda: group_hopf(FiniteGroup.cyclic(3), GF(3)), 4),
    (lambda: dual_numbers_hopf(GF(2)), 2),
], ids=["kZ2-Q", "kZ2-F2", "kZ3-F3", "dual-F2"])
def test_normalized_cocycle_basis_sizes(h, expected):
    hopf = h()
    basis = normalized_cocycle_basis(hopf)
    assert len(basis) == expected
    assert all(is_hopf_2cocycle(hopf, c) and check_normalized(hopf, c) for c in basis)
