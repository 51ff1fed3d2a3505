"""Numerical global symbol calculus and Fredholm indices on compact groups.

Supported groups: T^n, SU(2), SU(3) (SU(3): dual enumeration, dimension
formula and Haar quadrature only).  See the README for the command-line
interface and the conventions used throughout.
"""

__version__ = "0.1.0"

from .groups import (GroupSpec, GroupPoint, QuadratureRule, SU2, SU3, torus,
                     identity, su2_point, su3_point, torus_point, group_mul,
                     group_inv, haar_quadrature, min_level_for_band, point_rule,
                     GroupMismatchError, ChartDomainError)
from .dual import (IrrepLabel, LieBasis, enumerate_dual, labels_for_band,
                   rep_matrix, rep_matrices_on_rule, lie_basis,
                   left_invariant_derivative, left_invariant_second_derivative,
                   laplacian_fd, torus_label, su2_label, su3_label,
                   trivial_label, UnsupportedFeatureError)
from .fourier import (SampledFunction, FourierCoefficients, fourier_forward,
                      fourier_inverse_on_rule, plancherel_norm, sobolev_norm,
                      l2_norm, l2_inner_product, spectral_inner_product)
from .symbols import (MatrixSymbol, identity_symbol, lambda_multiplier,
                      multiplier_symbol, table_symbol, pointwise_symbol,
                      winding_symbol, winding_adjoint_symbol, symbol_sum,
                      frozen_symbol_product, conjugate_transpose_symbol,
                      symbol_of_operator, quantize_on_rule, apply_symbol,
                      kernel_table, difference_apply, ellipticity_check,
                      symbol_class_diagnostic, EllipticityReport,
                      DiagnosticTable, BandHeadroomError, torus_function,
                      su2_function)
from .galerkin import (PeterWeylBasis, GalerkinOperator, basis_for_band,
                       assemble, assemble_cached, adjoint, compose,
                       gram_matrix, index_codomain_labels, index_truncation,
                       AliasingError, OperatorCache, save_operator,
                       read_cache_entry)
from .index_engine import (heat_trace_index, kernel_count_index,
                           density_route_index, order_reduce,
                           trace_via_symbol, stabilization_sweep, IndexReport,
                           singular_value_census, DensityError)
from .operators import BuiltinOperator, ConfigError, parse_operator
