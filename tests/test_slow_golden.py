"""Golden values too slow for the default run (the d = 6 degree-2 rank, the
d = 3 degree-3 ranks over F3); deselected by default (run with
`pytest -m slow`)."""

import pytest

from elimination_oracle import rref_modp
from ybh.cohomology import (cochain2_sizes, differential_matrix, h3_dimension,
                            shared_target_matrix)
from ybh.fixtures import build_fixture
from ybh.scalars import GF


@pytest.mark.slow
def test_s3_adjoint_degree2_golden_mod_101():
    b = build_fixture("s3_adjoint", GF(101))
    d1 = differential_matrix(b, 1)
    d2 = differential_matrix(b, 2)
    assert d2.matmul(d1).is_zero()
    assert d1.rank() == len(rref_modp(d1, 101)[1]) == 36
    # D2 is 63504 x 1512; the dense cross-check is out of reach there, so the
    # sparse-elimination value is the recorded golden
    assert d2.rank() == 1476
    h2 = sum(cochain2_sizes(6)) - 1476 - 36
    assert h2 == 0  # k[S3] is separable away from characteristic 2 and 3


@pytest.mark.slow
def test_z3_adjoint_h3_mod_3_private_and_shared_targets():
    # the first fixture and field where the two readings of the degree-4
    # group differ: H^3 = 102 with private targets, 105 with shared ones
    b = build_fixture("z3_adjoint", GF(3))
    d2 = differential_matrix(b, 2)
    d3 = differential_matrix(b, 3)
    matrices = (d2, d3, shared_target_matrix(d3, b.dim))
    ranks = [m.rank() for m in matrices]
    assert ranks == [len(rref_modp(m, 3)[1]) for m in matrices]
    assert h3_dimension(b) == d3.cols - ranks[1] - ranks[0] == 102
    assert h3_dimension(b, shared_targets=True) == d3.cols - ranks[2] - ranks[0] == 105
