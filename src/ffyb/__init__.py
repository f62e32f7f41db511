"""Exact solution counting, orbit classification, separating invariants and
the orbit-image ideal for the quadratic matrix equation X^2 = aX over GF(q)."""

from .errors import (BudgetExceededError, InternalInvariantError,
                     SingularMatrixError)
from .gf import Field, FieldElement, all_elements, make_field
from .matfq import (Matrix, char_coeffs, companion, conjugate, direct_sum,
                    gl_order, matrix_from_index, matrix_index, parse_matrix)
from .polyfq import (PolyMatrix, UniPoly, char_matrix, elementary_divisors,
                     factor_monic, invariant_factors, parse_unipoly, poly_gcd,
                     rational_canonical_form)
from .solutions import (CountReport, EquationInstance, brute_force_count,
                        brute_force_solutions, closed_form_count, is_solution,
                        yang_baxter_count)
from .orbits import (OrbitLabel, OrbitRecord, all_labels, block_solution,
                     brute_force_centralizer_order,
                     brute_force_conjugacy_classes, classify, enumerate_gl,
                     label_rank, list_orbits, mixed_label, orbit_size,
                     representative, stabilizer_order)
from .invariants import (SeparationReport, minimal_separating_subsets,
                         separation_report)
from .ideal import (GeneratorSet, MultiPoly, VarietyCheck, generating_set,
                    variety, verify_variety)

__version__ = "0.1.0"
