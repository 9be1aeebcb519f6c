import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ybh.cohomology
import ybh.linalg
from ybh import hopf
from ybh.braided import (AXIOM_TERMS, assoc_defect, braided_algebra, iy_defect, read_tables,
                         yb_defect, yi_defect)
from ybh.cli import main
from ybh.cohomology import (C2, C3, C4, D1_TERMS, D2_TERMS, D3_TERMS, HOCHSCHILD_D0_TERMS,
                            Complex, YBH2Cochain, YBH3Cochain,
                            cochain2_sizes, cochain3_sizes, cochain4_size,
                            cocycle_basis,
                            cohomology_dimension, delta1, delta2, delta2_oracle,
                            delta3, delta3_components, differential_matrix,
                            flatten2, flatten3, h3_dimension,
                            hochschild_differential, iota_r, linearize,
                            mixed_differential_d2, shared_target_matrix,
                            unflatten2, unflatten3,
                            yang_baxter_differential, yb_differential_d3)
from ybh.deformation import (bundle_terms, obstruction_bundle, series_from_cocycle,
                             series_slots)
from ybh.braided import braided_multiplication
from ybh.errors import InputError, ResourceLimitError
from ybh.fixtures import build_fixture
from ybh.linalg import ExactMatrix, in_span
from ybh.serialize import algebra_to_json, canonical_json
from ybh.rng import SplitMix64
from ybh.scalars import GF, QQ, TruncatedRing
from ybh.tensor import (TensorMap, compose, identity_map, random_map, truncated_from_parts,
                        truncated_part)

SMALL_FIXTURES = ["z2_adjoint", "dual_trivial"]
D3_FIXTURES = ["z2_adjoint", "z3_adjoint", "dual_trivial"]


def _random_cochain(field, d, rng):
    return YBH2Cochain(random_map(field, d, 2, 2, rng),
                       random_map(field, d, 2, 1, rng))


def test_hochschild_differential_examples():
    b = build_fixture("z2_adjoint", QQ)
    one = identity_map(QQ, 2, 1)
    assert hochschild_differential(b, 1, one) == b.mu
    assert hochschild_differential(b, 2, b.mu).is_zero()
    s = TensorMap.from_entries(QQ, 2, 0, 1, [(0, 0, QQ.one)])
    d0 = hochschild_differential(b, 0, s)
    assert (d0.in_arity, d0.out_arity) == (1, 1)


@pytest.mark.parametrize("d", [2, 3])
def test_hochschild_chain_property_random(d):
    field = GF(101)
    b = build_fixture("z2_adjoint" if d == 2 else "z3_adjoint", field)
    rng = SplitMix64(d)
    for _ in range(100):
        f = random_map(field, d, 1, 1, rng)
        assert hochschild_differential(b, 2, hochschild_differential(b, 1, f)).is_zero()


def test_yang_baxter_differential_examples():
    b = build_fixture("z2_adjoint", QQ)
    one = identity_map(QQ, 2, 1)
    assert yang_baxter_differential(b, 1, one).is_zero()
    assert yang_baxter_differential(b, 2, b.r).is_zero()
    rng = SplitMix64(10)
    for _ in range(100):
        f = random_map(QQ, 2, 1, 1, rng, span=3)
        assert yang_baxter_differential(b, 2, yang_baxter_differential(b, 1, f)).is_zero()


def test_mixed_d2_zero_and_coboundary():
    b = build_fixture("heap_z2", GF(3))
    zero = YBH2Cochain(TensorMap.zero(GF(3), 4, 2, 2), TensorMap.zero(GF(3), 4, 2, 1))
    yi, iy = mixed_differential_d2(b, zero)
    assert yi.is_zero() and iy.is_zero()
    rng = SplitMix64(11)
    for _ in range(20):
        f = random_map(GF(3), 4, 1, 1, rng)
        yi, iy = mixed_differential_d2(b, delta1(b, f))
        assert yi.is_zero() and iy.is_zero()


@pytest.mark.parametrize("name", ["z2_adjoint", "dual_trivial", "heap_z2", "mcq_z2_z2"])
def test_mixed_d2_matches_truncated_oracle(name):
    field = GF(101)
    b = build_fixture(name, field)
    rng = SplitMix64(12)
    for _ in range(25):
        c = _random_cochain(field, b.dim, rng)
        oracle = delta2_oracle(b, c)
        assert delta2(b, c) == oracle
        assert mixed_differential_d2(b, c) == (oracle.alpha_yi, oracle.alpha_iy)
    # the psi-only case spelled out in the contract
    c = YBH2Cochain(TensorMap.zero(field, b.dim, 2, 2), b.mu)
    assert delta2(b, c) == delta2_oracle(b, c)


def test_mixed_d2_matches_oracle_over_q():
    b = build_fixture("z2_adjoint", QQ)
    rng = SplitMix64(13)
    for _ in range(5):
        c = _random_cochain(QQ, 2, rng)
        assert delta2(b, c) == delta2_oracle(b, c)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)])
@pytest.mark.parametrize("d", [2, 3])
def test_delta1_delta2_match_their_oracles_on_non_braided_data(field, d):
    # the tables are formal identities, so they hold for arbitrary bilinear
    # mu and arbitrary R: delta2 is the hbar coefficient of the axiom defects
    # of (mu + hbar psi, R + hbar phi), and delta1 minus the hbar coefficient
    # of conjugating (mu, R) by g = 1 + hbar f over k[hbar]/(hbar^2)
    rng = SplitMix64(31 + d)
    ring = TruncatedRing(field, 2)
    one = identity_map(field, d, 1)
    for _ in range(4):
        b = braided_algebra(field, d, random_map(field, d, 2, 1, rng),
                            random_map(field, d, 2, 2, rng), require=False)
        c = _random_cochain(field, d, rng)
        assert delta2(b, c) == delta2_oracle(b, c)
        f = random_map(field, d, 1, 1, rng)
        g = truncated_from_parts(ring, [one, f])
        g_inv = truncated_from_parts(ring, [one, -f])
        gg, gg_inv = g.tensor(g), g_inv.tensor(g_inv)
        mu_conj = compose(g, truncated_from_parts(ring, [b.mu]), gg_inv)
        r_conj = compose(gg, truncated_from_parts(ring, [b.r]), gg_inv)
        assert delta1(b, f) == YBH2Cochain(-truncated_part(r_conj, 1),
                                           -truncated_part(mu_conj, 1))


# (in, out) arity of every token of the term tables
TOKEN_ARITY = {"1": (1, 1), "m": (2, 1), "R": (2, 2), "f": (1, 1), "p": (2, 2),
               "s": (2, 1), "b": (3, 3), "a": (3, 2), "A": (3, 2), "g": (3, 1),
               "c": (0, 1), "u": (0, 1), "D": (1, 2), "e": (1, 0), "S": (1, 1),
               "T": (2, 2), "x": (2, 1), "z": (1, 2), "y": (1, 1), "L": (1, 0)}
SLOT_TOKENS = set("fpsbaAgcxzyL")


def test_every_term_table_row_is_well_typed():
    # the generated bundle tables' slots: phi_i and psi_i tokens of order i
    token_arity, slot_orders = dict(TOKEN_ARITY), {}
    for structure, tokens in series_slots(2).items():
        for i, token in enumerate(tokens, 1):
            token_arity[token], slot_orders[token] = TOKEN_ARITY[structure], i

    def arity(word):
        return tuple(sum(token_arity[t][k] for t in word) for k in (0, 1))

    # the structure tokens, those the structure classes declare, and the
    # slot tokens are disjoint and cover every token a table word may use
    structure = set(build_fixture("z2_adjoint", QQ).tokens()) | set(
        hopf.dual_numbers_hopf(GF(2)).tokens())
    slot_tokens = SLOT_TOKENS | set(slot_orders)
    assert structure.isdisjoint(slot_tokens) and structure | slot_tokens == set(token_arity)

    hopf_axioms = {"associativity": (3, 1), "unit-left": (1, 1), "unit-right": (1, 1),
                   "coassociativity": (1, 3), "counit-left": (1, 1), "counit-right": (1, 1),
                   "bialgebra": (2, 2), "counit-multiplicative": (2, 0),
                   "coproduct-of-unit": (0, 2), "counit-of-unit": (0, 0),
                   "antipode-left": (1, 1), "antipode-right": (1, 1)}
    # (name, table, {entry: target (in, out)}, cochain slots per row)
    tables = [
        ("AXIOM_TERMS", AXIOM_TERMS, {"yb": (3, 3), "yi": (3, 2), "iy": (3, 2), "assoc": (3, 1),
                                      "unit_left": (1, 1), "unit_right": (1, 1)}, 0),
        ("HOCHSCHILD_D0_TERMS", {"d0": HOCHSCHILD_D0_TERMS}, {"d0": (1, 1)}, 1),
        ("D1_TERMS", D1_TERMS, {name: (a, b) for name, a, b in C2}, 1),
        ("D2_TERMS", D2_TERMS, {name: (a, b) for name, a, b in C3}, 1),
        ("D3_TERMS", D3_TERMS, {name: (a, b) for name, a, b in C4}, 1),
        ("HOPF_AXIOM_TERMS", hopf.HOPF_AXIOM_TERMS, hopf_axioms, 0),
        ("HOPF_FLAG_TERMS", hopf.HOPF_FLAG_TERMS,
         {"commutative": (2, 1), "cocommutative": (1, 2), "involutory": (1, 1)}, 0),
        ("HOPF_COCYCLE_TERMS", hopf.HOPF_COCYCLE_TERMS,
         {"algebra-cocycle": (3, 1), "coalgebra-cocycle": (1, 3),
          "bialgebra-compatibility": (2, 2)}, 1),
        ("NORMALIZATION_TERMS", dict(enumerate(hopf.NORMALIZATION_TERMS)),
         dict.fromkeys(range(4), (1, 1)), 1),
        ("HEXAGON_TERMS", dict(enumerate(hopf.HEXAGON_TERMS)), dict.fromkeys(range(2), (1, 1)), 1),
        ("ANTIPODE_CORRECTION_TERMS", {"s1": hopf.ANTIPODE_CORRECTION_TERMS}, {"s1": (1, 1)}, 1),
        ("COBOUNDARY_ZETA_TERMS", {"zeta": hopf.COBOUNDARY_ZETA_TERMS}, {"zeta": (1, 2)}, 1),
        ("LEFT_INTEGRAL_TERMS", {"lam": hopf.LEFT_INTEGRAL_TERMS}, {"lam": (1, 1)}, 1),
    ]
    # a degree-r bundle row has slots of orders summing to r, none of order r
    bundle_orders = {f"bundle_terms({r})": r for r in (2, 3)}
    tables += [(name, bundle_terms(r), {name: (a, b) for name, a, b in C3}, None)
               for name, r in bundle_orders.items()]
    for table_name, table, targets, slot_count in tables:
        assert set(table) == set(targets), table_name
        for name, rows in table.items():
            assert rows, f"{table_name}[{name!r}] has no rows"
            for row in rows:
                sign, lifts = row
                where = f"{table_name}[{name!r}] row {row}"
                assert sign in (+1, -1), where
                for word in lifts:
                    assert set(word) <= set(token_arity), f"{where}: word {word!r}"
                for left, right in zip(lifts, lifts[1:]):
                    assert arity(left)[0] == arity(right)[1], \
                        f"{where}: word {left!r} does not chain onto {right!r}"
                assert (arity(lifts[-1])[0], arity(lifts[0])[1]) == targets[name], where
                slots = [t for word in lifts for t in word if t in slot_tokens]
                if slot_count is None:
                    orders = [slot_orders[t] for t in slots]
                    r = bundle_orders[table_name]
                    assert sum(orders) == r and r not in orders, where
                else:
                    assert len(slots) == slot_count, where
    # one YBE row per (i, j, k) with i + j + k = r and no index r: the ten
    # compositions of 3 less the three with an index 3
    assert [len(bundle_terms(r)["beta"]) for r in (2, 3)] == [2 * 3, 2 * 7]
    # the product-crossing loop and its mirror are the same rows up to sign
    assert Counter(D3_TERMS["prod_iy"]) == Counter((-sign, lifts)
                                                   for sign, lifts in D3_TERMS["prod_yi"])


@pytest.mark.parametrize("name,field", [("z2_adjoint", QQ), ("dual_trivial", GF(3)),
                                        ("heap_z2", GF(101))])
def test_structure_read_equals_its_token_dict_read(name, field):
    # D1, D2 and an order-3 bundle read at b and at a copy of b's tokens
    # agree; the dict argument is not mutated
    b = build_fixture(name, field)
    rng = SplitMix64(77)
    d = b.dim
    series = {token: random_map(field, d, 2, 2 if structure == "R" else 1, rng, span=5)
              for structure, tokens in series_slots(2).items() for token in tokens}
    reads = [({"f": random_map(field, d, 1, 1, rng, span=5)}, D1_TERMS.values()),
             ({"p": random_map(field, d, 2, 2, rng, span=5),
               "s": random_map(field, d, 2, 1, rng, span=5)}, D2_TERMS.values()),
             (series, bundle_terms(3).values())]
    nonzero = 0
    for slots, tables in reads:
        tokens = dict(b.tokens())
        before = dict(tokens)
        reads_b = read_tables(b, slots, *tables)
        assert reads_b == read_tables(tokens, slots, *tables)
        assert tokens.keys() == before.keys() and all(tokens[t] is before[t] for t in before)
        nonzero += sum(not t.is_zero() for t in reads_b)
    assert nonzero >= 4


def test_structure_caches_keep_only_slot_free_words():
    # after D1, D2, a bundle read and the Hopf reads, every word a structure
    # keeps is made of its own tokens
    b = build_fixture("z2_adjoint", GF(2))
    c = cocycle_basis(b)[0]
    delta1(b, identity_map(b.field, b.dim, 1))
    delta2(b, c)
    obstruction_bundle(series_from_cocycle(b, c), 2)
    h = hopf.dual_numbers_hopf(GF(2))
    h.check_hopf()
    assert h.flags["commutative"]
    hopf.normalized_cocycle_basis(h)
    kept = {x: vars(x)["_lifted"] for x in (b, b.algebra, h, h.algebra) if "_lifted" in vars(x)}
    assert {"m1", "1m", "R1", "1R"} <= set(kept[b]) and {"mm", "1T1", "DD"} <= set(kept[h])
    for x, words in kept.items():
        assert all(set(word) <= set(x.tokens()) for word in words), (x, sorted(words))


def test_linearize_enumerates_occurrences_in_reading_order():
    # order 1: one occurrence replaced at a time, first occurrence first
    assert linearize(AXIOM_TERMS["yb"], {"R": "p"}) == (
        (+1, ("p1", "1R", "R1")), (+1, ("R1", "1p", "R1")), (+1, ("R1", "1R", "p1")),
        (-1, ("1p", "R1", "1R")), (-1, ("1R", "p1", "1R")), (-1, ("1R", "R1", "1p")))
    assert linearize(AXIOM_TERMS["yi"], {"R": "p", "m": "s"}) == (
        (+1, ("s1", "1R", "R1")), (+1, ("m1", "1p", "R1")), (+1, ("m1", "1R", "p1")),
        (-1, ("p", "1m")), (-1, ("R", "1s")))
    # order 2 with R -> R + hbar p + hbar^2 q: the first occurrence takes the
    # highest order first; a row without the token drops out
    rows = ((+1, ("R", "R")), (-1, ("1",)))
    assert linearize(rows, {"R": "pq"}, 2) == (
        (+1, ("q", "R")), (+1, ("p", "p")), (+1, ("R", "q")))


D2_ORACLE_CASES = [(name, field, None) for name in ("z2_adjoint", "z3_adjoint", "dual_trivial")
                   for field in (QQ, GF(2))] + [("heap_z2", GF(101), 40),
                                                ("mat2_trivial", QQ, 40)]


@pytest.mark.parametrize("name,field,sample", D2_ORACLE_CASES)
def test_d2_columns_match_truncated_oracle(name, field, sample):
    # D2 is delta2 applied to basis cochains; the truncated-ring route reads
    # the same cochain off the axiom defects, sharing none of delta2's code
    b = build_fixture(name, field)
    d2 = differential_matrix(b, 2)
    columns = set(range(d2.cols))
    if sample is not None:
        rng = SplitMix64(20)
        columns = set()
        while len(columns) < sample:
            columns.add(rng.randrange(d2.cols))
    for idx in sorted(columns):
        c = unflatten2({idx: field.one}, field, b.dim)
        assert unflatten3(d2.column(idx), field, b.dim) == delta2_oracle(b, c), idx


def test_d1_d2_matrices_apply_delta1_delta2(monkeypatch):
    calls = {"delta1": 0, "delta2": 0}
    for name in calls:
        def counting(b, c, real=getattr(ybh.cohomology, name), name=name):
            calls[name] += 1
            return real(b, c)
        monkeypatch.setattr(ybh.cohomology, name, counting)
    b = build_fixture("z2_adjoint", QQ)
    differential_matrix(b, 1)
    differential_matrix(b, 2)
    assert calls == {"delta1": 4, "delta2": 24}  # dim C^1 and dim C^2 at d=2


def test_differential_matrix_shapes():
    b = build_fixture("z2_adjoint", QQ)
    d1 = differential_matrix(b, 1)
    d2 = differential_matrix(b, 2)
    assert (d1.rows, d1.cols) == (24, 4)
    assert (d2.rows, d2.cols) == (144, 24)
    b3 = build_fixture("z3_adjoint", GF(2))
    d1 = differential_matrix(b3, 1)
    d2 = differential_matrix(b3, 2)
    assert (d1.rows, d1.cols) == (108, 9)
    # C^3 = d^6 + 2 d^5 + d^4 summands: 729 + 486 + 81
    assert (d2.rows, d2.cols) == (1296, 108)


@pytest.mark.parametrize("name", ["z2_adjoint", "dual_trivial", "mcq_z2_z2",
                                  "heap_z2", "frobenius_z2", "mat2_trivial"])
@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_chain_property_d2_d1(name, field):
    b = build_fixture(name, field)
    d1 = differential_matrix(b, 1)
    d2 = differential_matrix(b, 2)
    assert d2.matmul(d1).is_zero()


@pytest.mark.parametrize("name", ["z2_adjoint", "z3_adjoint", "dual_trivial"])
def test_chain_property_d2_d1_mod_3(name):
    b = build_fixture(name, GF(3))
    assert differential_matrix(b, 2).matmul(differential_matrix(b, 1)).is_zero()


def test_syzygy_identity_pins_degree3():
    # every degree-3 component vanishes on the axiom defects of arbitrary
    # (mu, R) -- the identity behind the chain property and the obstruction
    # lemma; checked over a prime field and over Q
    for field, trials in [(GF(101), 6), (QQ, 2)]:
        rng = SplitMix64(99)
        for _ in range(trials):
            mu = random_map(field, 2, 2, 1, rng, span=3)
            r = random_map(field, 2, 2, 2, rng, span=3)
            defects = YBH3Cochain(beta=yb_defect(r), alpha_yi=yi_defect(mu, r),
                                  alpha_iy=iy_defect(mu, r), gamma=assoc_defect(mu))
            out = delta3_components(mu, r, defects)
            for name, value in out.items():
                assert value.is_zero(), name


def test_mirror_partners_match_the_mirror_conjugation_route():
    # each generated YI/IY partner equals its partner's component conjugated
    # by tensor reversal: evaluated on mirror(mu), mirror(R) and the mirrored
    # 3-cochain (alpha slots swapped, beta and gamma negated), then mirrored
    # back; on random non-braided structures and random cochains
    from ybh.braided import mirror_map
    from ybh.cohomology import D3_MIRROR_PARTNERS
    assert sorted(D3_MIRROR_PARTNERS) == ["assoc_yi", "prod_iy", "slide_yi"]
    for field in (GF(101), QQ):
        rng = SplitMix64(23)
        for _ in range(3):
            mu = random_map(field, 2, 2, 1, rng, span=3)
            r = random_map(field, 2, 2, 2, rng, span=3)
            c = YBH3Cochain(*(random_map(field, 2, 3, k, rng, span=3) for k in (3, 2, 2, 1)))
            mirrored = YBH3Cochain(beta=-mirror_map(c.beta),
                                   alpha_yi=mirror_map(c.alpha_iy),
                                   alpha_iy=mirror_map(c.alpha_yi),
                                   gamma=-mirror_map(c.gamma))
            out = delta3_components(mu, r, c)
            base = delta3_components(mirror_map(mu), mirror_map(r), mirrored)
            for name, partner in D3_MIRROR_PARTNERS.items():
                assert not out[name].is_zero(), name
                assert out[name] == mirror_map(base[partner]), name


def test_pin_degree3_tool_rederives_the_frozen_tables(tmp_path):
    # the tool searches the braid-word graph for the YB loop and substitutes
    # the axiom defects of random dense (mu, R) over GF(101) and Q; it finds
    # the package on its own, from any working directory
    tool = Path(__file__).resolve().parents[1] / "tools" / "pin_degree3.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(tool)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert 'frozen-table check (ybh.cohomology.D3_TERMS["yb"]): MATCHES' in out
    assert "all syzygies vanish identically: OK" in out


@pytest.mark.parametrize("name", D3_FIXTURES)
def test_chain_property_d3_d2(name):
    field = GF(101)
    b = build_fixture(name, field)
    rng = SplitMix64(14)
    for _ in range(10):
        c = _random_cochain(field, b.dim, rng)
        assert delta3(b, delta2(b, c)).is_zero()


def test_yb_differential_d3_oracles():
    field = GF(101)
    b = build_fixture("z2_adjoint", field)
    assert yb_differential_d3(b, TensorMap.zero(field, 2, 3, 3)).is_zero()
    rng = SplitMix64(15)
    for _ in range(50):
        phi = random_map(field, 2, 2, 2, rng)
        assert yb_differential_d3(b, yang_baxter_differential(b, 2, phi)).is_zero()


def test_yb_differential_d3_on_theta_of_yb_cocycles():
    # Theta_2 of any phi in ker(delta2_YB) is annihilated (YB-only statement)
    from ybh.deformation import obstruction_bundle, series_from_cocycle
    field = QQ
    b = build_fixture("z2_adjoint", field)
    nphi = 16
    columns = []
    for idx in range(nphi):
        phi = TensorMap.from_entries(field, 2, 2, 2, [(idx // 4, idx % 4, field.one)])
        columns.append(yang_baxter_differential(b, 2, phi).flatten())
    from ybh.linalg import ExactMatrix
    m = ExactMatrix.from_columns(field, len(columns[0]), columns)
    for v in m.kernel_basis():
        phi = TensorMap.from_entries(
            field, 2, 2, 2,
            ((p // 4, p % 4, x) for p, x in enumerate(v) if not field.is_zero(x)))
        c = YBH2Cochain(phi, TensorMap.zero(field, 2, 2, 1))
        bundle = obstruction_bundle(series_from_cocycle(b, c), 2)
        assert yb_differential_d3(b, bundle.beta).is_zero()


@pytest.mark.parametrize("name", SMALL_FIXTURES)
@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_cocycle_and_coboundary_bases(name, field):
    b = build_fixture(name, field)
    cocycles = cocycle_basis(b)
    for c in cocycles:
        out = delta2(b, c)
        assert out.beta.is_zero() and out.alpha_yi.is_zero() \
            and out.alpha_iy.is_zero() and out.gamma.is_zero()
    boundaries = Complex(b).coboundaries()
    for c in boundaries:
        assert delta2(b, c).is_zero()
    # coboundaries lie in the span of the cocycle basis
    if boundaries:
        basis_cols = []
        for c in cocycles:
            vec = flatten2(c)
            basis_cols.append([vec.get(i, field.zero)
                               for i in range(sum(cochain2_sizes(b.dim)))])
        for c in boundaries:
            vec = flatten2(c)
            dense = [vec.get(i, field.zero)
                     for i in range(sum(cochain2_sizes(b.dim)))]
            ok, _ = in_span(basis_cols, dense, field)
            assert ok


def test_z2_adjoint_coboundary_rank_is_four():
    # k[Z/2] over Q is separable: no derivations, and ker(delta1_YB) meets
    # ker(delta1_H) trivially, so D1 has full column rank d^2 = 4
    b = build_fixture("z2_adjoint", QQ)
    d1 = differential_matrix(b, 1)
    assert d1.rank() == 4
    assert d1.kernel_basis() == []
    assert len(Complex(b).coboundaries()) == 4


def test_cohomology_dimension_and_guard():
    b = build_fixture("z2_adjoint", QQ)
    h2 = cohomology_dimension(b)
    d1 = differential_matrix(b, 1)
    d2 = differential_matrix(b, 2)
    assert h2 == (24 - d2.rank()) - d1.rank()
    assert h2 >= 0
    s3 = build_fixture("s3_adjoint", GF(2))
    with pytest.raises(ResourceLimitError):
        cohomology_dimension(s3)
    with pytest.raises(ResourceLimitError):
        h3_dimension(build_fixture("heap_z2", GF(2)))


def test_dual_trivial_has_positive_h2_mod_2():
    b = build_fixture("dual_trivial", GF(2))
    assert cohomology_dimension(b) > 0


H3_PINNED = [("z2_adjoint", QQ, (0, 0)), ("z2_adjoint", GF(2), (26, 26)),
             ("dual_trivial", QQ, (7, 7)), ("dual_trivial", GF(2), (26, 26))]


@pytest.fixture(scope="module")
def d3_algebras():
    """The H3_PINNED algebras, shared by the degree-3 tests below so the D3
    cached on each is assembled once."""
    return {(name, repr(field)): build_fixture(name, field)
            for name, field, _ in H3_PINNED}


def _shared_targets_oracle(b) -> ExactMatrix:
    """Shared-target D3 built column by column: apply delta3 to each basis
    3-cochain, add prod_yi into assoc_yi and prod_iy into assoc_iy as maps,
    and flatten the six remaining summands."""
    field, d = b.field, b.dim
    columns = []
    for idx in range(sum(cochain3_sizes(d))):
        comps = dict(delta3(b, unflatten3({idx: field.one}, field, d)).components)
        comps["assoc_yi"] = comps["assoc_yi"] + comps.pop("prod_yi")
        comps["assoc_iy"] = comps["assoc_iy"] + comps.pop("prod_iy")
        vec = {}
        off = 0
        for name in ("yb", "slide_yi", "slide_iy", "assoc_yi", "assoc_iy", "pentagon"):
            t = comps[name]
            for pos, v in t.flatten_sparse().items():
                vec[off + pos] = v
            off += t.rows * t.cols
        columns.append(vec)
    return ExactMatrix.from_columns(field, off, columns)


def test_h3_dimension_variants(d3_algebras):
    for name, field, pinned in H3_PINNED:
        b = d3_algebras[name, repr(field)]
        h3 = h3_dimension(b)
        h3_shared = h3_dimension(b, shared_targets=True)
        assert (h3, h3_shared) == pinned, (name, field)
        assert h3_shared >= h3  # merging targets can only enlarge the kernel


@pytest.mark.parametrize("name,field", [case[:2] for case in H3_PINNED])
def test_shared_target_merge_matches_per_column_oracle(d3_algebras, name, field):
    b = d3_algebras[name, repr(field)]
    d3 = differential_matrix(b, 3)
    assert (d3.rows, d3.cols) == (cochain4_size(b.dim), sum(cochain3_sizes(b.dim)))
    merged = shared_target_matrix(d3, b.dim)
    oracle = _shared_targets_oracle(b)
    assert (merged.rows, merged.cols) == (oracle.rows, oracle.cols)
    assert list(merged.entries()) == list(oracle.entries())


def test_cohomology_degree3_assembles_d3_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "z2_adjoint.json"
    path.write_text(canonical_json(algebra_to_json(build_fixture("z2_adjoint", QQ))))
    calls = []

    def counting_delta3(b, c):
        calls.append(1)
        return delta3(b, c)

    monkeypatch.setattr(ybh.cohomology, "delta3", counting_delta3)
    assert main(["cohomology", str(path), "--degree", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 144  # dim C^3 at d=2: one private D3, merged for shared


@pytest.mark.parametrize("degree", [2, 3])
def test_cohomology_eliminates_each_matrix_once(tmp_path, capsys, monkeypatch, degree):
    # loading the document inverts R; the report, Z^2 basis included, then
    # reads D1 and D2 (and at degree 3 D3 and its shared-target merge) off
    # one elimination each
    path = tmp_path / "z2_adjoint.json"
    path.write_text(canonical_json(algebra_to_json(build_fixture("z2_adjoint", QQ))))
    shapes = Counter()
    eliminate = ybh.linalg._eliminate

    def counting_eliminate(m):
        shapes[m.rows, m.cols] += 1
        return eliminate(m)

    monkeypatch.setattr(ybh.linalg, "_eliminate", counting_eliminate)
    assert main(["cohomology", str(path), "--degree", str(degree), "--basis"]) == 0
    capsys.readouterr()
    expected = {(4, 4), (C2.size(2), 4), (C3.size(2), C2.size(2))}
    if degree == 3:
        assoc = C4.offsets(2)["prod_yi"] - C4.offsets(2)["assoc_yi"]
        expected |= {(C4.size(2), C3.size(2)), (C4.size(2) - assoc, C3.size(2))}
    assert shapes == Counter(expected)  # 3 eliminations at degree 2, 5 at degree 3


def test_prod_iy_is_the_negated_prod_yi_row_table():
    negated = Counter((-sign, lifts) for sign, lifts in D3_TERMS["prod_yi"])
    assert Counter(D3_TERMS["prod_iy"]) == negated


@pytest.mark.parametrize("name,field", [("dual_trivial", QQ), ("z2_adjoint", GF(3))])
def test_prod_iy_block_of_d3_is_the_negated_prod_yi_block(name, field):
    b = build_fixture(name, field)
    offsets, size = C4.offsets(b.dim), b.dim ** 6
    blocks = {"prod_yi": {}, "prod_iy": {}}
    for r, c, v in differential_matrix(b, 3).entries():
        for block, start in ((k, offsets[k]) for k in blocks):
            if start <= r < start + size:
                blocks[block][r - start, c] = v
    assert blocks["prod_yi"]  # the blocks are not trivially equal
    assert blocks["prod_iy"] == {k: field.neg(v) for k, v in blocks["prod_yi"].items()}


def test_guards_sit_in_complex_matrix_alone():
    # every degree's dimension guard is Complex.matrix's; the readings that
    # carried their own guard are gone from the library
    src = Path(ybh.cohomology.__file__).parent
    tree = ast.parse((src / "cohomology.py").read_text())
    callers = [(cls.name, fn.name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_guard"]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_guard"]
    assert callers == [("Complex", "matrix")] and len(calls) == 1
    for path in src.glob("*.py"):
        assert not re.search(r"\b(ComplexSlice|coboundary_basis)\b", path.read_text()), path.name


def test_iota_r_zero_and_coboundary():
    b = build_fixture("dual_trivial", GF(2))
    br = braided_multiplication(b, 1)
    zero = YBH2Cochain(TensorMap.zero(GF(2), 2, 2, 2), TensorMap.zero(GF(2), 2, 2, 1))
    out = iota_r(b, zero)
    assert out.phi.is_zero() and out.psi.is_zero()
    rng = SplitMix64(16)
    for _ in range(20):
        f = random_map(GF(2), 2, 1, 1, rng)
        image = iota_r(b, delta1(b, f))
        expected = delta1(br, f)
        assert image.phi == expected.phi and image.psi == expected.psi


def test_iota_r_sends_cocycles_to_cocycles():
    b = build_fixture("dual_trivial", GF(2))
    br = braided_multiplication(b, 1)
    for c in cocycle_basis(b):
        out = iota_r(b, c)
        assert delta2(br, out).is_zero()


def test_iota_r_rejects_non_cocycles():
    b = build_fixture("z2_adjoint", QQ)
    rng = SplitMix64(17)
    c = _random_cochain(QQ, 2, rng)
    if delta2(b, c).is_zero():  # vanishingly unlikely
        pytest.skip("random cochain happened to be a cocycle")
    with pytest.raises(InputError):
        iota_r(b, c)


def test_flatten_unflatten_degree3_round_trip():
    field = GF(7)
    rng = SplitMix64(18)
    c3 = YBH3Cochain(beta=random_map(field, 2, 3, 3, rng),
                     alpha_yi=random_map(field, 2, 3, 2, rng),
                     alpha_iy=random_map(field, 2, 3, 2, rng),
                     gamma=random_map(field, 2, 3, 1, rng))
    vec = flatten3(c3)
    back = unflatten3(vec, field, 2)
    assert back == c3
    assert sum(cochain3_sizes(2)) == 144


def test_degree2_flatten_round_trip():
    field = QQ
    rng = SplitMix64(19)
    c = _random_cochain(field, 2, rng)
    assert unflatten2(flatten2(c), field, 2) == c


def test_complex_chain_identities():
    for name in ("z2_adjoint", "dual_trivial"):
        b = build_fixture(name, GF(3))
        cx = Complex(b)
        assert cx.d2d1_zero() and cx.d3d2_zero()


# ---------------------------------------------------------------- summand tables

def _cochain_classes():
    from ybh.cohomology import YBH4Cochain
    from ybh.hopf import HopfTwoCochain
    return [YBH2Cochain, YBH3Cochain, YBH4Cochain, HopfTwoCochain]


def _random_sparse_cochain(cls, field, d, rng):
    parts = []
    for _, a, b in cls.SUMMANDS:
        entries = [(rng.randrange(d ** b), rng.randrange(d ** a), field.random(rng, 3))
                   for _ in range(3)]
        parts.append(TensorMap.from_entries(field, d, a, b, entries))
    return cls.from_parts(parts)


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_every_cochain_space_round_trips_through_its_layout(field, d):
    rng = SplitMix64(50 + d)
    for cls in _cochain_classes():
        c = _random_sparse_cochain(cls, field, d, rng)
        flat = c.flatten()
        assert cls.unflatten(flat, field, d) == c, cls.__name__
        dense = [field.zero] * cls.SUMMANDS.size(d)
        for pos, v in flat.items():
            dense[pos] = v
        assert cls.unflatten(dense, field, d) == c, cls.__name__


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_derived_sizes_and_offsets_equal_the_closed_forms(d):
    from ybh.cohomology import C1, C2, C3, C4
    assert cochain2_sizes(d) == (d ** 4, d ** 3)
    assert cochain3_sizes(d) == (d ** 6, d ** 5, d ** 5, d ** 4)
    assert cochain4_size(d) == d ** 8 + 2 * d ** 7 + 4 * d ** 6 + d ** 5
    assert (C1.size(d), C2.size(d), C3.size(d)) == (
        d ** 2, d ** 4 + d ** 3, d ** 6 + 2 * d ** 5 + d ** 4)
    offsets = C4.offsets(d)
    assert offsets["prod_yi"] == d ** 8 + 2 * d ** 7 + 2 * d ** 6
    assert offsets["prod_yi"] - offsets["assoc_yi"] == 2 * d ** 6
    assert offsets["pentagon"] == cochain4_size(d) - d ** 5


@pytest.mark.parametrize("name", ["z2_adjoint", "z3_adjoint"])
def test_cli_cochain_dims_equal_the_closed_forms(tmp_path, capsys, name):
    import json
    b = build_fixture(name, QQ)
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_json(algebra_to_json(b)))
    assert main(["cohomology", str(path)]) == 0
    d = b.dim
    assert json.loads(capsys.readouterr().out)["cochain_dims"] == {
        "c1": d ** 2, "c2": d ** 4 + d ** 3, "c3": d ** 6 + 2 * d ** 5 + d ** 4}


def test_every_cochain_class_validates_its_summands():
    from ybh.cohomology import C4_SUMMANDS, YBH4Cochain
    from ybh.hopf import HopfTwoCochain

    def zero(a, b, d=2):
        return TensorMap.zero(QQ, d, a, b)

    m = zero(2, 2)
    bad = [
        lambda: YBH2Cochain(m, m),                                 # psi not (2->1)
        lambda: YBH2Cochain(m, zero(2, 1, d=3)),                   # dimension mismatch
        lambda: YBH3Cochain(m, m, m, m),                           # four (2->2) maps
        lambda: YBH3Cochain(zero(3, 3), zero(3, 2), zero(3, 2, d=3), zero(3, 1)),
        lambda: HopfTwoCochain(zero(1, 2), zero(2, 1)),            # xi and zeta swapped
        lambda: HopfTwoCochain(zero(2, 1), zero(1, 2, d=3)),
    ]
    good = {name: zero(4, b) for name, _, b in YBH4Cochain.SUMMANDS}
    YBH4Cochain(good)
    bad += [
        lambda: YBH4Cochain(dict(good, yb=zero(4, 3))),            # wrong arity
        lambda: YBH4Cochain(dict(good, pentagon=zero(4, 1, d=3))),
        lambda: YBH4Cochain({n: good[n] for n in C4_SUMMANDS[1:]}),  # missing yb
        lambda: YBH4Cochain(dict(good, extra=zero(4, 1))),
    ]
    for i, make in enumerate(bad):
        with pytest.raises(InputError):
            make()
            pytest.fail(f"case {i} was accepted")


def test_cochain_summands_share_one_coefficient_ring():
    from ybh.cohomology import YBH4Cochain
    from ybh.hopf import HopfTwoCochain

    def zero(field, a, b):
        return TensorMap.zero(field, 2, a, b)

    F2 = GF(2)
    good = {name: zero(QQ, 4, b) for name, _, b in YBH4Cochain.SUMMANDS}
    bad = [
        lambda: YBH2Cochain(zero(QQ, 2, 2), zero(F2, 2, 1)),
        lambda: YBH2Cochain(zero(GF(3), 2, 2), zero(F2, 2, 1)),
        lambda: YBH3Cochain(zero(F2, 3, 3), zero(F2, 3, 2), zero(F2, 3, 2), zero(QQ, 3, 1)),
        lambda: HopfTwoCochain(zero(F2, 2, 1), zero(QQ, 1, 2)),
        lambda: YBH4Cochain(dict(good, pentagon=zero(F2, 4, 1))),
    ]
    for i, make in enumerate(bad):
        with pytest.raises(InputError, match="ring"):
            make()
            pytest.fail(f"case {i} was accepted")
    from ybh.scalars import PrimeField
    assert PrimeField(2) is not F2              # equal rings, separate objects
    assert YBH2Cochain(zero(F2, 2, 2), zero(PrimeField(2), 2, 1)).flatten() == {}
