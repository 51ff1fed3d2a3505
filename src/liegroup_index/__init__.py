"""Fredholm indices of global matrix-valued symbols on compact groups.

Supported groups: T^n, SU(2), SU(3) (SU(3): dual enumeration, dimension
formula and Haar quadrature only).  See the README for the command-line
interface and the conventions used throughout.
"""

__version__ = "0.1.0"

from .groups import (GroupSpec, GroupPoint, QuadratureRule, SU2, SU3, torus,
                     identity, su2_point, su3_point, torus_point,
                     haar_quadrature, min_level_for_band, point_rule,
                     flow_rule, GroupMismatchError, ChartDomainError)
from .dual import (IrrepLabel, enumerate_dual, labels_for_band,
                   rep_matrices_on_rule, rep_factors, axis_charges, lie_basis,
                   left_invariant_derivative, left_invariant_second_derivative,
                   laplacian_fd, torus_label, su2_label, su3_label,
                   trivial_label, UnsupportedFeatureError)
from .fourier import (SampledFunction, FourierCoefficients, fourier_forward,
                      fourier_inverse_on_rule, plancherel_norm, l2_norm)
from .symbols import (MatrixSymbol, lambda_multiplier,
                      multiplier_symbol, table_symbol, pointwise_symbol,
                      winding_symbol, winding_adjoint_symbol, symbol_sum,
                      frozen_symbol_product, conjugate_transpose_symbol,
                      quantize_on_rule, ellipticity_check, EllipticityReport,
                      BandHeadroomError, torus_function, su2_function)
from .galerkin import (PeterWeylBasis, GalerkinOperator, basis_for_band,
                       assemble, assemble_cached, compose,
                       gram_blocks, index_codomain_labels, index_truncation,
                       sweep_operator,
                       AliasingError, OperatorCache, read_cache_entry)
from .index_engine import (heat_trace_index, density_route_index,
                           order_reduce, trace_via_symbol, stabilization_sweep,
                           IndexReport, singular_value_census, DensityError)
from .operators import BuiltinOperator, ConfigError, parse_operator
