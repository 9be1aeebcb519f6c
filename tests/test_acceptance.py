"""Acceptance suite: ten criteria, each with an explicit runtime budget and
exact (tolerance-free) assertions.  Run with `pytest tests/test_acceptance.py
-v -s` to see one pass/fail line per criterion.

Scope notes: criterion 1 covers every fixture (dimensions 2 through 9) over
Q, F_2, F_3, F_101; the matrix-level criteria (2, 4, 6, 7) cover every
fixture of dimension <= 4, and the degree-3 criteria (3, 5) every fixture of
dimension <= 3, which is what their budgets admit.  Kernel bases are
computed over Q for d <= 3 and over the exact field F_101 at d = 4.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from ybh.braided import braided_multiplication
from ybh.cohomology import (Complex, YBH2Cochain, cochain2_sizes, cocycle_basis,
                            delta1, delta2, delta3, differential_matrix, flatten2,
                            unflatten2)
from ybh.deformation import (check_cohomologous_deformations,
                             extend_to_quadratic, obstruction_bundle,
                             obstruction_is_cocycle, series_from_cocycle,
                             trivializing_isomorphism, verify_deformation)
from ybh.fixtures import FIXTURES, build_fixture, fixture_names
from ybh.hopf import (braided_from_hopf, dual_numbers_hopf, group_hopf,
                      hopf_coboundary, normalized_cocycle_basis, psi_map,
                      antipode_correction, check_normalized)
from ybh.constructions import FiniteGroup
from ybh.linalg import ExactMatrix, SolveCertificate, in_span
from ybh.rng import SplitMix64
from ybh.scalars import GF, QQ
from ybh.tensor import TensorMap, compose, random_map

F2, F3, F101 = GF(2), GF(3), GF(101)
FIELD_BY_TAG = {"q": QQ, "f2": F2, "f3": F3, "f101": F101}
ALL_TAGS = ("q", "f2", "f3", "f101")

BUDGETS = {1: 10, 2: 30, 3: 60, 4: 30, 5: 60, 6: 60, 7: 30, 8: 30, 9: 30, 10: 30}


@lru_cache(maxsize=None)
def fx(name, tag):
    return build_fixture(name, FIELD_BY_TAG[tag])


@lru_cache(maxsize=None)
def z2_basis(name, tag):
    return tuple(cocycle_basis(fx(name, tag)))


def _finish(criterion, t0, detail=""):
    elapsed = time.monotonic() - t0
    budget = BUDGETS[criterion]
    line = f"criterion {criterion}: PASS in {elapsed:.1f}s (budget {budget}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert elapsed <= budget, f"criterion {criterion} exceeded its {budget}s budget"


def _random_cochain(field, d, rng):
    return YBH2Cochain(random_map(field, d, 2, 2, rng),
                       random_map(field, d, 2, 1, rng))


def test_criterion_01_axiom_suite():
    t0 = time.monotonic()
    count = 0
    for name in fixture_names():
        for tag in ALL_TAGS:
            b = fx(name, tag)
            for res in b.all_checks():
                assert res.ok, f"{name}/{tag}: {res.describe()}"
            count += 1
    _finish(1, t0, f"{count} fixture/field combinations, exact equality")


def test_criterion_02_chain_property_degree_1_2():
    t0 = time.monotonic()
    rng = SplitMix64(202)
    for name in fixture_names(max_dim=4):
        for tag in ("q", "f101"):
            b = fx(name, tag)
            d1 = differential_matrix(b, 1)
            d2 = differential_matrix(b, 2)
            assert d2.matmul(d1).is_zero(), f"{name}/{tag}"
        b = fx(name, "f101")
        for _ in range(200):
            f = random_map(F101, b.dim, 1, 1, rng)
            assert delta2(b, delta1(b, f)).is_zero()
    _finish(2, t0, "D2 D1 = 0 over Q and F101, 200 random f per fixture")


def test_criterion_03_chain_property_degree_2_3():
    t0 = time.monotonic()
    rng = SplitMix64(303)
    for name in fixture_names(max_dim=3):
        b = fx(name, "f101")
        for _ in range(100):
            c = _random_cochain(F101, b.dim, rng)
            assert delta3(b, delta2(b, c)).is_zero(), name
    _finish(3, t0, "delta3(delta2(c)) = 0, 100 random c per fixture at d <= 3")


def test_criterion_04_deformation_equivalence():
    t0 = time.monotonic()
    rng = SplitMix64(404)
    for name in fixture_names(max_dim=4):
        b = fx(name, "f101")
        d2 = differential_matrix(b, 2)
        kernel = z2_basis(name, "f101")
        passes = fails = 0
        for trial in range(100):
            if trial % 2 == 0 or not kernel:
                c = _random_cochain(F101, b.dim, rng)
            else:
                c = kernel[rng.randrange(len(kernel))]
                scale = F101.random(rng)
                c = YBH2Cochain(c.phi.scale(scale), c.psi.scale(scale))
            vec = flatten2(c)
            in_kernel = all(F101.is_zero(x) for x in d2.matvec(vec))
            verified = verify_deformation(series_from_cocycle(b, c)).ok
            assert verified == in_kernel, f"{name} trial {trial}"
            passes += verified
            fails += not verified
        assert passes > 0 and fails > 0, f"{name}: both directions must occur"
    _finish(4, t0, "order-1 verification iff D2-kernel membership, both directions")


def test_criterion_05_obstruction_cocycle():
    t0 = time.monotonic()
    count = 0
    for name in fixture_names(max_dim=3):
        for tag in ALL_TAGS:
            b = fx(name, tag)
            for c in z2_basis(name, tag):
                assert obstruction_is_cocycle(b, c), f"{name}/{tag}"
                count += 1
    _finish(5, t0, f"{count} kernel cocycles, all bundles annihilated by delta3")


def test_criterion_06_quadratic_extension():
    t0 = time.monotonic()
    plan = [(name, "q") for name in fixture_names(max_dim=3)] + \
           [(name, "f2") for name in fixture_names(max_dim=3)] + \
           [(name, "f101") for name in fixture_names(max_dim=4)
            if FIXTURES[name]["dim"] == 4]
    from ybh.cohomology import flatten3
    extended = obstructed = 0
    for name, tag in plan:
        field = FIELD_BY_TAG[tag]
        b = fx(name, tag)
        d2 = differential_matrix(b, 2)
        cocycles = z2_basis(name, tag)
        outcomes = [extend_to_quadratic(b, c) for c in cocycles]
        bundles = [flatten3(obstruction_bundle(
            series_from_cocycle(b, c), 2).as_cochain3()) for c in cocycles]
        memberships = d2.image_membership(bundles)
        for c, out, member in zip(cocycles, outcomes, memberships):
            assert member == out.success, f"{name}/{tag}: certificate inconsistency"
            if out.success:
                series = series_from_cocycle(b, c)
                series.phi_terms.append(out.phi2)
                series.psi_terms.append(out.psi2)
                assert verify_deformation(series).ok
                extended += 1
            else:
                assert isinstance(out.certificate, SolveCertificate)
                assert out.certificate.rank_augmented == out.certificate.rank + 1
                obstructed += 1
    assert obstructed > 0, "expected at least one genuinely obstructed cocycle"
    _finish(6, t0, f"{extended} extended, {obstructed} certified obstructions, "
                   "certificates consistent in 100% of cases")


def test_criterion_07_classification():
    t0 = time.monotonic()
    rng = SplitMix64(707)
    for name in fixture_names(max_dim=4):
        b = fx(name, "f101")
        for _ in range(50):
            f = random_map(F101, b.dim, 1, 1, rng)
            assert trivializing_isomorphism(b, f).ok
            c = _random_cochain(F101, b.dim, rng)
            assert check_cohomologous_deformations(b, c, f)
    _finish(7, t0, "50 random f per fixture: coboundary deformations trivialized "
                   "by 1 + hbar f and shifts connected by 1 + hbar f")


def test_criterion_08_iota_monomorphism():
    t0 = time.monotonic()
    from ybh.cohomology import iota_r
    candidates = [("dual_trivial", "f2"), ("heap_z2", "f2")]
    h2_of = {}
    for name, tag in candidates:
        h2_of[(name, tag)] = Complex(fx(name, tag)).dim_h(2)
    name, tag = max(h2_of, key=h2_of.get)
    field = FIELD_BY_TAG[tag]
    b = fx(name, tag)
    br = braided_multiplication(b, 1)
    d1r = differential_matrix(br, 1)
    d2r = differential_matrix(br, 2)
    n2 = sum(cochain2_sizes(b.dim))

    cocycles = z2_basis(name, tag)
    images = [iota_r(b, c) for c in cocycles]
    for img in images:  # Z^2 lands in Z^2(V_R)
        assert delta2(br, img).is_zero()
    boundary_images = [flatten2(iota_r(b, c)) for c in Complex(b).coboundaries()]
    assert all(d1r.image_membership(boundary_images))  # B^2 lands in B^2(V_R)

    # full rank on H^2: span(iota(Z^2 basis)) + B^2(V_R) has rank
    # rank(B^2(V_R)) + dim H^2(V)
    h2_v = h2_of[(name, tag)]
    img_cols = []
    for img in images:
        vec = flatten2(img)
        img_cols.append({pos: v for pos, v in vec.items()})
    boundary_cols = [d1r.column(j) for j in range(d1r.cols)]
    combined = ExactMatrix.from_columns(field, n2, boundary_cols + img_cols)
    assert combined.rank() - d1r.rank() == h2_v
    _finish(8, t0, f"{name}/{tag}: dim H2 = {h2_v}, induced map has full rank")


def test_criterion_09_hopf_bridge():
    t0 = time.monotonic()
    rng = SplitMix64(909)
    for group, field in [(FiniteGroup.cyclic(2), QQ), (FiniteGroup.cyclic(3), QQ)]:
        h = group_hopf(group, field)
        b = braided_from_hopf(h)
        s = h.antipode
        found = 0
        while found < 5:
            f = random_map(field, h.dim, 1, 1, rng, span=4)
            f = f - compose(compose(f, h.eta), h.epsilon)
            f = f - compose(h.eta, compose(h.epsilon, f))
            c = hopf_coboundary(h, f)
            if not check_normalized(h, c):
                continue
            found += 1
            s1 = antipode_correction(h, c)
            assert s1 == compose(f, s) - compose(s, f)
            pair = psi_map(h, c)
            assert pair.phi == delta1(b, f.scale(field.neg(field.one))).phi
            assert pair.psi == c.xi
    hd = dual_numbers_hopf(F2)
    bd = braided_from_hopf(hd)
    basis = normalized_cocycle_basis(hd)
    assert basis
    for c in basis:
        pair = psi_map(hd, c, check=False)
        assert delta2(bd, pair).is_zero()  # (Psi, xi) lies in Z^2
    _finish(9, t0, f"coboundary identities on k[Z/2], k[Z/3]; "
                   f"{len(basis)} kernel cocycles on F2[t]/(t^2) map into Z^2")


def _independent_rank_mod2(m: ExactMatrix) -> int:
    """Second elimination implementation for the golden H^2 number: dense
    Gauss-Jordan over F_2 on numpy arrays, sharing no code with ybh.linalg."""
    a = np.zeros((m.rows, m.cols), dtype=np.int64)
    for r, c, v in m.entries():
        a[r, c] = v % 2
    rank = 0
    for col in range(m.cols):
        pivot = None
        for row in range(rank, m.rows):
            if a[row, col] & 1:
                pivot = row
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        for row in range(m.rows):
            if row != rank and (a[row, col] & 1):
                a[row] ^= a[rank]
        rank += 1
    return rank


def test_criterion_10_nontriviality_golden():
    t0 = time.monotonic()
    b = fx("dual_trivial", "f2")
    d1 = differential_matrix(b, 1)
    d2 = differential_matrix(b, 2)
    rank1, rank2 = d1.rank(), d2.rank()
    assert (rank1, rank2) == (_independent_rank_mod2(d1), _independent_rank_mod2(d2))
    h2 = sum(cochain2_sizes(2)) - rank2 - rank1
    # golden values, frozen after the two eliminations above agreed
    assert (rank1, rank2, h2) == (2, 16, 6)
    assert h2 > 0
    _finish(10, t0, "H2 of the F2 dual-numbers fixture = 6 > 0, two eliminations agree")
