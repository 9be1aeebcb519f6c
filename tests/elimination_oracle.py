"""Independent elimination oracle for the tests: dense Gauss-Jordan mod p on
numpy int64 arrays, sharing no code with ybh.linalg."""

import numpy as np


def rref_modp(m, p):
    """Reduced rows ({col: residue} dicts, one per row) and pivot columns of an
    ExactMatrix reduced mod p (p < 2^31, so products fit in int64), with the
    same first-row pivot rule as ybh; each pivot step is one array update."""
    a = np.zeros((m.rows, m.cols), dtype=np.int64)
    for r, c, v in m.entries():
        a[r, c] = v % p
    pivots = []
    for col in range(m.cols):
        rank = len(pivots)
        if rank == m.rows:
            break
        below = np.flatnonzero(a[rank:, col])
        if below.size == 0:
            continue
        piv = rank + int(below[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), p - 2, p) % p
        hit = np.flatnonzero(a[:, col])
        hit = hit[hit != rank]
        a[hit] = (a[hit] - np.outer(a[hit, col], a[rank])) % p
        pivots.append(col)
    rows = [{int(c): int(a[r, c]) for c in np.flatnonzero(a[r])} for r in range(m.rows)]
    return rows, pivots
