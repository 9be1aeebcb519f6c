"""Exact-arithmetic toolkit for braided algebras.

Constructs algebras carrying a compatible Yang-Baxter operator, verifies
their axioms exactly over Q or F_p, assembles the unified Yang-Baxter /
Hochschild cochain complex through degree 3 -> 4 as explicit matrices,
computes second-cohomology dimensions, and evaluates and extends
infinitesimal deformations through their degree-2 obstruction classes.
"""

from .scalars import FieldSpec, GF, QQ, TruncatedRing, rational_normalize
from .tensor import (TensorMap, compose, identity_map, linear_combination,
                     tensor_product, transposition, unflatten)
from .linalg import ExactMatrix, SolveCertificate, in_span, invert_matrix
from .braided import (AssociativeAlgebra, BraidedAlgebra, BraidedHomomorphism,
                      CheckResult, YangBaxterOperator, braided_algebra,
                      braided_multiplication, check_associative,
                      check_braided_homomorphism, check_iy, check_yb, check_yi,
                      mirror, mirror_map)
from .constructions import (MCQ, FiniteGroup, dual_numbers, from_heap, from_mcq,
                            group_algebra, matrix_algebra_2x2, trivial_braiding)
from .hopf import (HopfAlgebra, HopfTwoCochain, LeftIntegral, adjoint_yb,
                   antipode_correction, braided_from_hopf, braided_frobenius,
                   check_hopf_2cocycle, check_normalized, dual_numbers_hopf,
                   find_left_integral, group_hopf, hopf_coboundary, psi_map)
from .fixtures import FIXTURES, build_fixture, fixture_names

__version__ = "0.1.0"
