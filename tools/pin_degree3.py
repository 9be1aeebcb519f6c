"""Derivation and verification of the degree-3 differential components.

Every degree 3 -> 4 component of the complex is the defect-slot
linearization of a rewrite loop: a cycle of axiom applications (braid
relations, the YI/IY slides, associativity) whose telescoping sum is zero
for completely arbitrary bilinear mu and arbitrary R.  Writing F_ax for the
defect (left minus right side) of an axiom, each rewrite step is exactly a
context-inserted F_ax, so around a cycle

    sum_j  sign_j * (context_j o ins_j(F_{ax_j}) o context'_j)  =  0

identically in (mu, R).  Replacing each F_ax slot by the matching 3-cochain
summand defines the component; differentiating the identity once gives the
chain property d3 o d2 = 0 and twice gives the vanishing of d3 on degree-2
obstruction bundles.

Every component is one entry of the term table ybh.cohomology.D3_TERMS,
in the row notation of the axiom table ybh.braided.AXIOM_TERMS: rows
(sign, lifts), each lift a word of strand tokens ("1", "m" for mu, "R" for
R, one cochain slot per term).  The YI/IY partners of the mixed loops are
generated from their partners' rows by the mirror rule (mirror_terms).

Part 1 searches the rewrite graph of six-crossing braid words on four
strands for the pure Yang-Baxter loop, converts its braid moves into table
rows and compares them with D3_TERMS["yb"].

Part 2 substitutes the actual axiom defects of random NON-braided (mu, R)
over GF(101) and Q into every table entry, and into the rows the search
found, through the library's one evaluator of term tables
(ybh.braided.sum_terms, which also reads the axiom defects), and asserts
exact zero.

Run from any directory:  python tools/pin_degree3.py
"""

from __future__ import annotations

import sys
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ybh.braided import assoc_defect, iy_defect, sum_terms, yb_defect, yi_defect
from ybh.cohomology import D3_TERMS, YBH3Cochain, delta3_components
from ybh.rng import SplitMix64
from ybh.scalars import GF, QQ
from ybh.tensor import random_map

START = (1, 2, 1, 3, 2, 1)
# The crossing generators R_s of a braid word, and beta inserted at strand
# s, as words of the term table.
GENERATOR_WORDS = {1: "R11", 2: "1R1", 3: "11R"}
INSERT_WORDS = {1: "b1", 2: "1b"}


def braid_edges(w):
    """Braid-relation rewrites (a,b,a) -> (b,a,b) with |a-b| = 1."""
    for i in range(len(w) - 2):
        a, b, c = w[i], w[i + 1], w[i + 2]
        if a == c and abs(a - b) == 1:
            yield w[:i] + (b, a, b) + w[i + 3:], i


def comm_edges(w):
    for i in range(len(w) - 1):
        a, b = w[i], w[i + 1]
        if abs(a - b) == 2:
            yield w[:i] + (b, a) + w[i + 2:], i


def neighbors(w):
    for v, i in braid_edges(w):
        yield v, ("braid", i)
    for v, i in comm_edges(w):
        yield v, ("comm", i)


def reachable_graph(start):
    seen = {start}
    queue = deque([start])
    edges = []
    while queue:
        w = queue.popleft()
        for v, tag in neighbors(w):
            edges.append((w, v, tag))
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen, edges


def shortest_path(src, dst, banned=frozenset()):
    prev = {src: None}
    queue = deque([src])
    while queue:
        w = queue.popleft()
        if w == dst:
            path = []
            while prev[w] is not None:
                pw, tag = prev[w]
                path.append((pw, w, tag))
                w = pw
            return list(reversed(path))
        for v, tag in neighbors(w):
            if (w, v) in banned or (v, w) in banned:
                continue
            if v not in prev:
                prev[v] = (w, tag)
                queue.append(v)
    return None


def contribution(w, i):
    """Telescoping term of traversing a braid edge at position i of word w,
    as a table row.

    With F_s = op(s, s+1, s) - op(s+1, s, s+1):
    old - new = +suffix o ins_s(F_s) o prefix when the old pattern rises
    (s, s+1, s), and the negative of that when it falls.  A braid word
    lists its crossings in application order, so the row's lifts are the
    suffix reversed, the insertion, then the prefix reversed.
    """
    a, b = w[i], w[i + 1]
    sign = +1 if a < b else -1
    lifts = [GENERATOR_WORDS[g] for g in reversed(w[i + 3:])]
    lifts.append(INSERT_WORDS[min(a, b)])
    lifts.extend(GENERATOR_WORDS[g] for g in reversed(w[:i]))
    return sign, tuple(lifts)


def loop_terms(cycle_edges):
    return tuple(contribution(w, tag[1]) for w, _, tag in cycle_edges if tag[0] == "braid")


def _insertions(rows):
    return sorted({word for _, lifts in rows for word in lifts if "b" in word})


def find_yb_loop():
    nodes, edges = reachable_graph(START)
    print(f"word graph: {len(nodes)} words, {len(edges)} directed rewrites")
    best = None
    for w, v, tag in edges:
        if tag[0] != "braid":
            continue
        back = shortest_path(v, w, banned=frozenset({(w, v)}))
        if back is None:
            continue
        cycle = [(w, v, tag)] + back
        terms = loop_terms(cycle)
        score = (len(_insertions(terms)) < 2, len(cycle), len(terms))
        if best is None or score < best[0]:
            best = (score, cycle, terms)
    _, cycle, terms = best
    print(f"loop: {len(cycle)} rewrites, {len(terms)} braid moves, "
          f"insertions {_insertions(terms)}")
    for w, v, tag in cycle:
        print(f"   {w} -> {v}  via {tag}")
    return terms


def check_syzygies(yb_rows, trials=4):
    """Substitute the four axiom defects of a random (mu, R) -- satisfying no
    axioms at all -- into every degree-3 component and into the searched
    Yang-Baxter rows; each must vanish exactly.  This is the identity each
    component linearizes, and it implies both the chain property and the
    annihilation of obstruction bundles."""
    rng = SplitMix64(20240901)
    fields = [GF(101), GF(101), QQ]
    failures = []
    for trial in range(trials):
        for field in fields:
            d = 2
            mu = random_map(field, d, 2, 1, rng, span=3)
            r = random_map(field, d, 2, 2, rng, span=3)
            defects = YBH3Cochain(beta=yb_defect(r),
                                  alpha_yi=yi_defect(mu, r),
                                  alpha_iy=iy_defect(mu, r),
                                  gamma=assoc_defect(mu))
            out = delta3_components(mu, r, defects)
            out["yb-search"] = sum_terms(yb_rows, {"R": r, "b": defects.beta})
            for name, value in out.items():
                if not value.is_zero():
                    failures.append((trial, repr(field), name))
                    print(f"  FAIL {name} over {field!r} trial {trial}")
    return failures


def main():
    print("== searching the four-strand Yang-Baxter coherence loop ==")
    rows = find_yb_loop()
    print('\nD3_TERMS["yb"] = (')
    for sign, lifts in rows:
        print(f"    ({sign:+d}, {lifts!r}),")
    print(")")
    print("\n== syzygy verification on random non-braided (mu, R) ==")
    failures = check_syzygies(rows)
    print('\nfrozen-table check (ybh.cohomology.D3_TERMS["yb"]):',
          "MATCHES" if rows == D3_TERMS["yb"] else "DIFFERS -- update the table")
    if failures:
        print(f"\n{len(failures)} FAILURES")
        sys.exit(1)
    print("all syzygies vanish identically: OK")


if __name__ == "__main__":
    main()
