import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from ybh import braided
from ybh.braided import (AXIOM_TERMS, BraidedHomomorphism, CheckResult, _check,
                         braided_algebra, braided_multiplication, check_associative,
                         check_braided_homomorphism, check_identity, check_iy, check_yb,
                         check_yi, iy_defect, mirror, mirror_map, sum_terms, yi_defect)
from ybh.constructions import FiniteGroup, group_algebra, matrix_algebra_2x2, trivial_braiding
from ybh.errors import InputError, ValidationError
from ybh.fixtures import build_fixture, fixture_names
from ybh.hopf import (HOPF_AXIOM_TERMS, HOPF_FLAG_TERMS, HopfAlgebra, braided_from_hopf,
                      group_hopf)
from ybh.rng import SplitMix64
from ybh.scalars import GF, QQ
from ybh.serialize import algebra_from_json, algebra_to_json
from ybh.tensor import (TensorMap, compose, encode_index, identity_map,
                        random_map, tensor_product, transposition)

# One-sided pair found by exhaustive search over d=2, F_2: mu(e1 ox e1) = e0
# and nothing else; R as below.  Associativity and the YBE hold, YI holds,
# IY fails.  (48 such pairs exist at this size.)
ONE_SIDED_MU = [(0, 3, 1)]
ONE_SIDED_R = [(0, 0, 1), (0, 1, 1), (2, 1, 1), (1, 2, 1), (1, 3, 1), (3, 3, 1)]


def _one_sided():
    f = GF(2)
    mu = TensorMap.from_entries(f, 2, 2, 1, [(r, c, f.one) for r, c, _ in ONE_SIDED_MU])
    r = TensorMap.from_entries(f, 2, 2, 2, [(i, c, f.one) for i, c, _ in ONE_SIDED_R])
    return braided_algebra(f, 2, mu, r, require=False)


def test_check_associative_group_algebra():
    alg = group_algebra(FiniteGroup.cyclic(2), QQ)
    assert check_associative(alg.mu).ok


def test_check_associative_failure_witness():
    # e0 e0 = e1, e0 e1 = e0, everything else 0: (e0 e0) e0 = e1 e0 = 0 but
    # e0 (e0 e0) = e0 e1 = e0, so the first failing triple is (0, 0, 0)
    mu = TensorMap.from_entries(QQ, 2, 2, 1, [
        (1, encode_index((0, 0), 2), QQ.one),
        (0, encode_index((0, 1), 2), QQ.one)])
    res = check_associative(mu)
    assert not res.ok and res.witness == (0, 0, 0)


def test_zero_multiplication_is_associative():
    assert check_associative(TensorMap.zero(QQ, 3, 2, 1)).ok


def test_check_yb_transposition_and_identity():
    assert check_yb(transposition(QQ, 2)).ok
    assert check_yb(identity_map(QQ, 2, 2)).ok


def test_check_yb_against_brute_force():
    # R(e_i ox e_j) = e_j ox e_{i+j mod 2} over F_2, decided by evaluating
    # both YBE composites on all 8 basis inputs with an independent evaluator
    f = GF(2)
    r = TensorMap.from_entries(
        f, 2, 2, 2,
        ((encode_index((j, (i + j) % 2), 2), encode_index((i, j), 2), f.one)
         for i in range(2) for j in range(2)))

    def apply_r(vec):  # vec: dict (i,j) -> coeff
        out = {}
        for (i, j), c in vec.items():
            key = (j, (i + j) % 2)
            out[key] = (out.get(key, 0) + c) % 2
        return out

    def side(order, i, j, k):
        state = {(i, j, k): 1}
        for pos in order:
            nxt = {}
            for (a, b, c), coeff in state.items():
                if pos == 0:
                    for (x, y), c2 in apply_r({(a, b): coeff}).items():
                        key = (x, y, c)
                        nxt[key] = (nxt.get(key, 0) + c2) % 2
                else:
                    for (x, y), c2 in apply_r({(b, c): coeff}).items():
                        key = (a, x, y)
                        nxt[key] = (nxt.get(key, 0) + c2) % 2
            state = {k: v for k, v in nxt.items() if v}
        return state

    brute_holds = all(side([0, 1, 0], i, j, k) == side([1, 0, 1], i, j, k)
                      for i in range(2) for j in range(2) for k in range(2))
    assert check_yb(r).ok == brute_holds


def test_yi_iy_hold_for_transposition_braiding():
    b = trivial_braiding(matrix_algebra_2x2(QQ))
    assert b.yi_holds and b.iy_holds


def test_yi_fails_for_identity_braiding_on_group_algebra():
    alg = group_algebra(FiniteGroup.cyclic(2), QQ)
    res = check_yi(alg.mu, identity_map(QQ, 2, 2))
    assert not res.ok


def test_s3_adjoint_is_braided():
    b = braided_from_hopf(group_hopf(FiniteGroup.symmetric(3), QQ))
    assert b.yi_holds and b.iy_holds


def test_braided_multiplication_trivial_cases():
    z2 = build_fixture("z2_adjoint", QQ)
    out = braided_multiplication(z2, 1)
    assert out.mu == z2.mu  # R is the basis swap and mu is commutative
    mat = build_fixture("mat2_trivial", GF(3))
    out = braided_multiplication(mat, 2)
    assert out.mu == mat.mu and out.r == mat.r  # tau^2 = id


def test_braided_multiplication_s3_associative():
    b = build_fixture("s3_adjoint", GF(2))
    out = braided_multiplication(b, 1)
    assert out.algebra.check_associative().ok
    assert all(c.ok for c in out.all_checks())


def test_homomorphism_checks():
    b = build_fixture("z2_adjoint", QQ)
    ident = identity_map(QQ, 2, 1)
    assert all(r.ok for r in check_braided_homomorphism(BraidedHomomorphism(b, b, ident)))
    zero = TensorMap.zero(QQ, 2, 1, 1)
    assert all(r.ok for r in check_braided_homomorphism(BraidedHomomorphism(b, b, zero)))
    swap = TensorMap.from_entries(QQ, 2, 1, 1, [(1, 0, QQ.one), (0, 1, QQ.one)])
    results = check_braided_homomorphism(BraidedHomomorphism(b, b, swap))
    assert not results[0].ok  # f(e e) = a but f(e) f(e) = a a = e


def test_mirror_involution_and_transposition():
    b = build_fixture("heap_z2", QQ)
    bm = mirror(b)
    assert mirror(bm).mu == b.mu and mirror(bm).r == b.r
    assert mirror_map(transposition(QQ, 3)) == transposition(QQ, 3)


def test_mirror_exchanges_yi_and_iy_defects():
    rng = SplitMix64(77)
    rev2 = lambda t: mirror_map(t)
    for field in (GF(2), GF(101)):
        for _ in range(50):
            mu = random_map(field, 2, 2, 1, rng)
            r = random_map(field, 2, 2, 2, rng)
            assert mirror_map(yi_defect(mu, r)) == iy_defect(rev2(mu), rev2(r))
            assert mirror_map(iy_defect(mu, r)) == yi_defect(rev2(mu), rev2(r))


def test_one_sided_example_and_mirror_swap():
    b = _one_sided()
    assert b.algebra.check_associative().ok
    assert b.yb.check_yb().ok
    assert b.yi_holds and not b.iy_holds
    bm = mirror(b, require=False)
    assert bm.iy_holds and not bm.yi_holds
    with pytest.raises(ValidationError):
        b.require()


def test_r_inverse_satisfies_ybe():
    for name in ("z2_adjoint", "heap_z2", "s3_adjoint"):
        b = build_fixture(name, GF(3))
        inv = b.yb.r_inverse
        assert compose(b.r, inv) == identity_map(GF(3), b.dim, 2)
        assert check_yb(inv).ok


def test_braided_algebra_dimension_mismatch():
    with pytest.raises(InputError):
        braided_algebra(QQ, 2, TensorMap.zero(QQ, 2, 2, 1),
                        transposition(QQ, 3), require=False)


def _sum_terms_callers(tree, where="<module>"):
    """The enclosing function of every sum_terms(...) call in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _sum_terms_callers(node, node.name)
            continue
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", getattr(node.func, "attr", None)) == "sum_terms":
            yield where
        yield from _sum_terms_callers(node, where)


def test_structure_reads_have_one_reader():
    # lifting words is braided.py's alone, and outside it only the two
    # delta3 reads, which keep per-term lifts, call sum_terms directly
    lift_users, callers = set(), set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ybh").glob("*.py")):
        if path.name == "braided.py":
            continue
        text = path.read_text()
        if re.search(r"\b_lift\b", text):
            lift_users.add(path.name)
        callers.update(f"{path.stem}.{fn}" for fn in _sum_terms_callers(ast.parse(text)))
    assert lift_users == set()
    assert callers == {"cohomology.yb_differential_d3", "cohomology.delta3_components"}


def test_fractions_are_built_in_scalars_and_linalg_only():
    # the rational representation (int when integral) is scalars.py's rule;
    # linalg.py divides inside the elimination
    src = Path(__file__).resolve().parents[1] / "src" / "ybh"
    builders = {path.name for path in src.glob("*.py") if "Fraction(" in path.read_text()}
    assert builders == {"scalars.py", "linalg.py"}


@pytest.mark.parametrize("name", fixture_names())
def test_rational_fixtures_store_int_structure_constants(name):
    b = build_fixture(name, QQ)
    for a in (b, algebra_from_json(algebra_to_json(b))):
        maps = [a.mu, a.r] + ([a.algebra.unit] if a.algebra.unit is not None else [])
        assert {type(v) for t in maps for _, _, v in t.entries()} == {int}, name


# ---------------------------------------------------------------- check_identity
# Each verdict compares the two composed sides; the defect route (_check of
# the rows' sum, lifted afresh) is its oracle, witness included.

def _oracle(x, tokens, tables):
    """Assert that check_identity on x agrees with _check of the defect of
    every table ({name: rows}) read at tokens."""
    for name, rows in tables.items():
        assert check_identity(x, name, rows) == _check(name, sum_terms(rows, tokens, {})), name


def _axioms(b):
    return {name: rows for name, rows in AXIOM_TERMS.items()
            if b.algebra.unit is not None or not name.startswith("unit")}


def _perturbed(t, rng):
    """t with one seeded scalar added at one seeded position."""
    f = t.field
    v = f.from_int(rng.randint(1, f.characteristic - 1 if f.characteristic else 9))
    one = TensorMap.from_entries(f, t.dim, t.in_arity, t.out_arity,
                                 [(rng.randrange(t.rows), rng.randrange(t.cols), v)])
    return t + one


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=["Q", "F2", "F101"])
def test_check_identity_matches_the_defect_on_perturbed_fixtures(field):
    rng = SplitMix64(61)
    witnesses = set()
    for fx in fixture_names():
        b = build_fixture(fx, field)
        maps = {"mu": b.mu, "r": b.r, "unit": b.algebra.unit}
        for key in [k for k, t in maps.items() if t is not None]:
            changed = dict(maps, **{key: _perturbed(maps[key], rng)})
            c = braided_algebra(field, b.dim, changed["mu"], changed["r"],
                                unit=changed["unit"], require=False)
            _oracle(c, c.tokens(), _axioms(c))
            witnesses.update(res.witness for res in c.all_checks() if not res.ok)
    assert len(witnesses) > 3  # the perturbations fail at many inputs


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=["Q", "F2", "F101"])
@pytest.mark.parametrize("d", [2, 3])
def test_check_identity_matches_the_defect_on_random_pairs(field, d):
    # dense over the prime fields, sparse over Q
    rng = SplitMix64(67 + d)
    for _ in range(3):
        b = braided_algebra(field, d, random_map(field, d, 2, 1, rng),
                            random_map(field, d, 2, 2, rng),
                            unit=random_map(field, d, 0, 1, rng), require=False)
        _oracle(b, b.tokens(), _axioms(b))
        tokens = {"m": b.mu, "R": b.r}
        for name, key, res in (("associativity", "assoc", check_associative(b.mu)),
                               ("yang-baxter", "yb", check_yb(b.r)),
                               ("yi", "yi", check_yi(b.mu, b.r)),
                               ("iy", "iy", check_iy(b.mu, b.r))):
            assert res == _check(name, sum_terms(AXIOM_TERMS[key], tokens, {}))


def test_check_identity_matches_the_defect_on_hopf_axioms():
    # k[Z/3] over Q with S = 1 fails both antipode axioms at (1,)
    g = group_hopf(FiniteGroup.cyclic(3), QQ)
    h = HopfAlgebra(QQ, 3, g.mu, g.eta, g.delta, g.epsilon, identity_map(QQ, 3, 1))
    _oracle(h, h.tokens(), {**HOPF_AXIOM_TERMS, **HOPF_FLAG_TERMS})
    failed = {c.name: c.witness for c in h.check_hopf() if not c.ok}
    assert failed == {"antipode-left": (1,), "antipode-right": (1,)}
    assert h.flags == {"commutative": True, "cocommutative": True, "involutory": True}


def test_check_identity_passes_maps_stored_with_explicit_zeros():
    same = ((+1, ("f",)), (-1, ("g",)))
    for field, extra in ((QQ, QQ.zero), (GF(5), 5)):
        f = group_algebra(FiniteGroup.cyclic(2), field).mu
        data = {c: dict(col) for c, col in f.to_sparse_data().items()}
        data[0][1] = extra  # an explicit zero entry
        g = TensorMap(field, 2, 2, 1, "sparse", data)
        assert g.to_sparse_data() != f.to_sparse_data()
        # the explicit zero on the -1 side and on the +1 side
        assert check_identity({"f": f, "g": g}, "same", same).ok
        assert check_identity({"f": g, "g": f}, "same", same).ok
        assert check_associative(g).ok
    one = identity_map(GF(5), 2, 1)
    unreduced = TensorMap(GF(5), 2, 1, 1, "sparse", {0: {0: 6}, 1: {1: 1}})
    assert check_identity({"f": one, "g": unreduced}, "same", same).ok
    assert check_identity({"f": unreduced, "g": one}, "same", same).ok
    # a column that differs only by an explicit zero is not the witness
    zero_then_moved = TensorMap(GF(5), 2, 1, 1, "sparse", {0: {0: 1, 1: 0}, 1: {0: 1}})
    for pair in ({"f": one, "g": zero_then_moved}, {"f": zero_then_moved, "g": one}):
        res = check_identity(pair, "same", same)
        assert (res.ok, res.witness) == (False, (1,))


@pytest.mark.parametrize("field,zero", [(QQ, 0), (QQ, Fraction(0)), (GF(5), 0), (GF(5), 5)])
def test_witness_skips_columns_that_store_only_zeros(field, zero):
    defect = TensorMap(field, 2, 2, 1, "sparse", {0: {1: zero}, 2: {0: zero, 1: 1}})
    assert _check("x", defect) == CheckResult("x", False, (1, 0))
    zeros = TensorMap(field, 2, 2, 1, "sparse", {0: {0: zero}, 3: {1: zero}})
    assert _check("x", zeros) == CheckResult("x", True, None)


def test_identity_tables_have_a_left_and_a_right_side():
    for rows in (*AXIOM_TERMS.values(), *HOPF_AXIOM_TERMS.values(), *HOPF_FLAG_TERMS.values()):
        assert [sign for sign, _ in rows] == [+1, -1]


@pytest.mark.parametrize("name", ["s3_adjoint", "mat2_trivial", "frobenius_z2"])
def test_braided_checks_read_the_lifts_of_their_parts(monkeypatch, name):
    # the algebra's, the operator's and the braided algebra's verdicts share
    # their kept lifts, so building a fixture lifts each slot-free word at
    # most once per dimension (frobenius_z2 is built on V = X ox X from k[Z/2];
    # L is the left integral's slot, lifted per call)
    lifted, lift = [], braided._lift

    def spy(word, maps):
        if "L" not in word:
            lifted.append((word, next(iter(maps.values())).dim))
        return lift(word, maps)

    monkeypatch.setattr(braided, "_lift", spy)
    b = build_fixture(name, QQ)
    assert lifted and len(lifted) == len(set(lifted)), sorted(lifted)
    assert b._lifted["m1"] is b.algebra._lifted["m1"]
    assert b._lifted["R1"] is b.yb._lifted["R1"]
