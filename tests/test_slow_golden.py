"""Golden values that need the d = 6 resource guard lifted; deselected by
default (run with `pytest -m slow`)."""

import pytest

from elimination_oracle import rref_modp
from ybh.cohomology import cochain2_sizes, differential_matrix
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
