import pytest

from ybh import linalg
from ybh.braided import braided_algebra
from ybh.cohomology import (YBH2Cochain, cochain2_sizes, cocycle_basis, delta1,
                            delta2, delta3, differential_matrix, flatten2,
                            flatten3)
from ybh.deformation import (DeformationSeries, ObstructionBundle,
                             check_cohomologous_deformations,
                             extend_to_quadratic,
                             obstruction_bundle, obstruction_bundle_oracle,
                             obstruction_is_cocycle, series_from_cocycle,
                             trivializing_isomorphism, verify_deformation)
from ybh.errors import InputError
from ybh.fixtures import build_fixture
from ybh.linalg import ExactMatrix, SolveCertificate, in_span
from ybh.rng import SplitMix64
from ybh.scalars import GF, QQ, TruncatedRing
from ybh.tensor import (TensorMap, compose, identity_map, random_map,
                        truncated_from_parts, truncated_part)


def _zero_cochain(field, d):
    return YBH2Cochain(TensorMap.zero(field, d, 2, 2), TensorMap.zero(field, d, 2, 1))


def _random_cochain(field, d, rng):
    return YBH2Cochain(random_map(field, d, 2, 2, rng),
                       random_map(field, d, 2, 1, rng))


def test_zero_series_verifies_at_any_order():
    b = build_fixture("heap_z2", GF(3))
    for order in (1, 2, 3):
        zeros = [TensorMap.zero(GF(3), 4, 2, 2) for _ in range(order)]
        zeros_psi = [TensorMap.zero(GF(3), 4, 2, 1) for _ in range(order)]
        assert verify_deformation(DeformationSeries(b, zeros, zeros_psi)).ok


@pytest.mark.parametrize("name,field", [("dual_trivial", GF(2)), ("z2_adjoint", QQ)])
def test_kernel_cocycles_give_infinitesimal_deformations(name, field):
    b = build_fixture(name, field)
    for c in cocycle_basis(b):
        assert verify_deformation(series_from_cocycle(b, c)).ok


def test_non_cocycle_fails_with_named_axiom():
    field = GF(101)
    b = build_fixture("z2_adjoint", field)
    d2 = differential_matrix(b, 2)
    rng = SplitMix64(21)
    c = _random_cochain(field, b.dim, rng)
    vec = flatten2(c)
    image = d2.matvec(vec)
    assert any(not field.is_zero(x) for x in image)  # genuinely not a cocycle
    report = verify_deformation(series_from_cocycle(b, c))
    assert not report.ok
    assert report.hbar_degree == 1
    assert report.axiom in ("associativity", "yang-baxter", "yi", "iy")
    assert isinstance(report.witness, tuple) and len(report.witness) == 3


def test_obstruction_bundle_zero_series():
    b = build_fixture("z2_adjoint", QQ)
    bundle = obstruction_bundle(series_from_cocycle(b, _zero_cochain(QQ, 2)), 2)
    assert bundle.is_zero()


def test_lambda_for_psi_only_series():
    field = GF(7)
    b = build_fixture("z2_adjoint", field)
    rng = SplitMix64(22)
    psi = random_map(field, 2, 2, 1, rng)
    c = YBH2Cochain(TensorMap.zero(field, 2, 2, 2), psi)
    bundle = obstruction_bundle(series_from_cocycle(b, c), 2)
    one = identity_map(field, 2, 1)
    expected = compose(psi, psi.tensor(one)) - compose(psi, one.tensor(psi))
    assert bundle.gamma == expected


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
@pytest.mark.parametrize("name", ["z2_adjoint", "dual_trivial", "z3_adjoint", "random"])
def test_bundle_matches_truncated_oracle(name, field, r):
    # the bundle is a polynomial identity in (mu, R) and the series terms, so
    # the table read and the ring arithmetic agree on non-braided data too
    rng = SplitMix64(23 + r)
    if name == "random":
        b = braided_algebra(field, 2, random_map(field, 2, 2, 1, rng),
                            random_map(field, 2, 2, 2, rng), require=False)
    else:
        b = build_fixture(name, field)
    for _ in range(2 if b.dim == 2 else 1):
        s = DeformationSeries(b, [random_map(field, b.dim, 2, 2, rng) for _ in range(r - 1)],
                              [random_map(field, b.dim, 2, 1, rng) for _ in range(r - 1)])
        assert obstruction_bundle(s, r) == obstruction_bundle_oracle(s, r)


def test_bundle_rejects_low_degree_and_short_series():
    b = build_fixture("z2_adjoint", QQ)
    s = series_from_cocycle(b, _zero_cochain(QQ, 2))
    for r, message in ((1, "start at degree 2"), (3, "order 1 has no degree-3")):
        with pytest.raises(InputError, match=message):
            obstruction_bundle(s, r)


def test_obstruction_bundle_is_a_c3_cochain():
    from dataclasses import fields
    from ybh.cohomology import C3, YBH3Cochain
    field = GF(101)
    b = build_fixture("z2_adjoint", field)
    s = series_from_cocycle(b, _random_cochain(field, 2, SplitMix64(31)))
    for bundle in (obstruction_bundle(s, 2), obstruction_bundle_oracle(s, 2)):
        assert isinstance(bundle, ObstructionBundle) and isinstance(bundle, YBH3Cochain)
        assert tuple(f.name for f in fields(bundle)) == C3.names()
        plain = bundle.as_cochain3()
        assert type(plain) is YBH3Cochain and plain.flatten() == bundle.flatten()
        assert delta3(b, bundle) == delta3(b, plain)


@pytest.mark.parametrize("name,field", [("z2_adjoint", QQ), ("dual_trivial", GF(2)),
                                        ("z3_adjoint", QQ)])
def test_obstruction_is_cocycle_on_kernel_basis(name, field):
    b = build_fixture(name, field)
    for c in cocycle_basis(b):
        assert obstruction_is_cocycle(b, c)


def test_corrupted_bundle_detected():
    field = GF(2)
    b = build_fixture("dual_trivial", field)
    cocycles = cocycle_basis(b)
    c = cocycles[0]
    bundle = obstruction_bundle(series_from_cocycle(b, c), 2)
    tweaked = bundle.as_cochain3()
    bump = TensorMap.from_entries(field, 2, 3, 3, [(0, 0, field.one)])
    tweaked.beta = tweaked.beta + bump
    assert not delta3(b, tweaked).is_zero()


def test_extend_zero_cocycle():
    b = build_fixture("z2_adjoint", QQ)
    out = extend_to_quadratic(b, _zero_cochain(QQ, 2))
    assert out.success and out.phi2.is_zero() and out.psi2.is_zero()


def test_extend_coboundary_and_conjugation_cross_check():
    field = GF(101)
    b = build_fixture("heap_z2", field)
    rng = SplitMix64(25)
    f = random_map(field, b.dim, 1, 1, rng)
    c = delta1(b, f)
    out = extend_to_quadratic(b, c)
    assert out.success
    # independent existence proof: conjugating by 1 + hbar f over
    # k[hbar]/(hbar^3) is an order-2 deformation whose degree-1 part is c
    ring = TruncatedRing(field, 3)
    one = identity_map(ring, b.dim, 1)
    ft = one + truncated_from_parts(ring, [None, f])
    f2 = compose(f, f)
    ft_inv = one - truncated_from_parts(ring, [None, f]) \
        + truncated_from_parts(ring, [None, None, f2])
    assert ft_inv.compose(ft) == one
    mu_t = compose(ft, truncated_from_parts(ring, [b.mu]), ft_inv.tensor(ft_inv))
    r_t = compose(ft.tensor(ft), truncated_from_parts(ring, [b.r]),
                  ft_inv.tensor(ft_inv))
    conj = DeformationSeries(
        b,
        [truncated_part(r_t, 1), truncated_part(r_t, 2)],
        [truncated_part(mu_t, 1), truncated_part(mu_t, 2)])
    assert truncated_part(mu_t, 0) == b.mu and truncated_part(r_t, 0) == b.r
    assert verify_deformation(conj).ok
    assert conj.phi_terms[0] == delta1(b, f.scale(field.neg(field.one))).phi


@pytest.mark.parametrize("name,field", [("dual_trivial", GF(2)), ("z2_adjoint", QQ)])
def test_extension_outcomes_are_consistent(name, field):
    b = build_fixture(name, field)
    d2 = differential_matrix(b, 2)
    image_cols = [d2.column(i) for i in range(d2.cols)]
    n3 = d2.rows
    dense_cols = [[col.get(r, field.zero) for r in range(n3)] for col in image_cols]
    for c in cocycle_basis(b):
        out = extend_to_quadratic(b, c)
        vec = flatten3(obstruction_bundle(series_from_cocycle(b, c), 2).as_cochain3())
        dense = [field.zero] * n3
        for pos, v in vec.items():
            dense[pos] = field.neg(v)
        ok, _ = in_span(dense_cols, dense, field)
        assert ok == out.success
        if out.success:
            series = DeformationSeries(b, [c.phi, out.phi2], [c.psi, out.psi2])
            assert verify_deformation(series).ok
        else:
            assert isinstance(out.certificate, SolveCertificate)


def test_extend_session_eliminates_d2_once(monkeypatch):
    eliminated = []
    eliminate = linalg._eliminate

    def counting(m):
        eliminated.append(m)
        return eliminate(m)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    b = build_fixture("mat2_trivial", GF(101))
    cocycles = cocycle_basis(b)
    outcomes = [extend_to_quadratic(b, c) for c in cocycles]
    assert len(cocycles) == 22 and sum(not out.success for out in outcomes) == 6
    d2 = differential_matrix(b, 2)
    assert sum(m is d2 for m in eliminated) == 1


def test_extend_rejects_non_cocycle():
    b = build_fixture("z2_adjoint", QQ)
    rng = SplitMix64(26)
    c = _random_cochain(QQ, 2, rng)
    with pytest.raises(InputError):
        extend_to_quadratic(b, c)


def test_order2_verification_iff_obstruction_equations():
    # pick a cocycle c, random second-order terms, and compare the verifier
    # against the four displayed equations delta2(c2) + bundle = 0
    field = GF(101)
    b = build_fixture("z2_adjoint", field)
    rng = SplitMix64(27)
    cocycles = cocycle_basis(b)
    c = cocycles[len(cocycles) // 2]
    bundle = obstruction_bundle(series_from_cocycle(b, c), 2)
    for _ in range(12):
        c2 = _random_cochain(field, 2, rng)
        s = DeformationSeries(b, [c.phi, c2.phi], [c.psi, c2.psi])
        lhs = delta2(b, c2)
        equations_hold = (
            (lhs.beta + bundle.beta).is_zero()
            and (lhs.alpha_yi + bundle.alpha_yi).is_zero()
            and (lhs.alpha_iy + bundle.alpha_iy).is_zero()
            and (lhs.gamma + bundle.gamma).is_zero())
        assert verify_deformation(s).ok == equations_hold


@pytest.mark.parametrize("name,field", [("z2_adjoint", QQ), ("heap_z2", GF(101)),
                                        ("dual_trivial", GF(2))])
def test_trivializing_isomorphism(name, field):
    b = build_fixture(name, field)
    zero = TensorMap.zero(field, b.dim, 1, 1)
    assert trivializing_isomorphism(b, zero).ok
    assert trivializing_isomorphism(b, identity_map(field, b.dim, 1)).ok
    rng = SplitMix64(28)
    for _ in range(20):
        f = random_map(field, b.dim, 1, 1, rng, span=4)
        assert trivializing_isomorphism(b, f).ok


def test_cohomologous_deformations_are_connected():
    field = GF(101)
    b = build_fixture("z2_adjoint", field)
    rng = SplitMix64(29)
    for _ in range(20):
        c = _random_cochain(field, 2, rng)
        f = random_map(field, 2, 1, 1, rng)
        assert check_cohomologous_deformations(b, c, f)


def test_infinitesimal_iff_cocycle_both_directions():
    field = GF(101)
    b = build_fixture("heap_z2", field)
    d2 = differential_matrix(b, 2)
    rng = SplitMix64(30)
    kernel = [d2.kernel_basis()[i] for i in range(min(3, d2.cols - d2.rank()))]
    samples = []
    for _ in range(10):
        samples.append(flatten2(_random_cochain(field, b.dim, rng)))
    samples.extend({i: v for i, v in enumerate(k) if v} for k in kernel)
    from ybh.cohomology import unflatten2
    for vec in samples:
        c = unflatten2(vec, field, b.dim)
        in_kernel = all(field.is_zero(x) for x in d2.matvec(vec))
        assert verify_deformation(series_from_cocycle(b, c)).ok == in_kernel
