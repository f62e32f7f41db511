"""Exact solution counting, orbit classification, separating invariants and
the orbit-image ideal for the quadratic matrix equation X^2 = aX over GF(q)."""

from .errors import (BudgetExceededError, InternalInvariantError,
                     SingularMatrixError)
from .gf import Field, FieldElement, all_elements, make_field
from .matfq import (Matrix, char_coeffs, companion, conjugate, direct_sum,
                    gl_order, matrix_from_index, matrix_index, parse_matrix)
from .polyfq import (PolyMatrix, SmithForm, UniPoly, char_matrix,
                     companion_not_solution, elementary_divisors,
                     factor_monic, invariant_factors, monic_irreducibles,
                     parse_unipoly, poly_gcd, rational_canonical_form,
                     smith_normal_form)
from .solutions import (CountReport, EquationInstance, brute_force_count,
                        brute_force_solutions, closed_form_count, is_solution,
                        satisfies_yang_baxter, yang_baxter_count)
from .orbits import (OrbitLabel, OrbitRecord, all_labels, block_solution,
                     brute_force_centralizer_order,
                     brute_force_conjugacy_classes, classify, enumerate_gl,
                     label_rank, list_orbits, mixed_label, orbit_size,
                     orbit_sum_count, representative, stabilizer_order)
from .invariants import (ImagePoint, SeparationReport, image_points,
                         minimal_separating_subsets, orbit_invariants,
                         separation_report, subset_separates, trace_separates)
from .ideal import (GeneratorSet, MultiPoly, VarietyCheck, generating_set,
                    variety, verify_variety)

__version__ = "0.1.0"
