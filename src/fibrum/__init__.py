"""Chart-local kernel for nonlinear connections on fibre bundles.

Derivative-carrying scalars, projector/lift algebra, covariant
derivatives, curvature by independent routes, parallel transport,
geodesics, sprays and holonomy, plus a scenario-driven verification CLI.
"""

from .bundle import (BaseVectorField, Box, Point, SectionMap, SpaceTag,
                     TotalTangent, TotalVectorField, TrivializedBundle,
                     base_lie_bracket, check_p_related, lie_bracket)
from .calculus import (DScalar, cos, derivative, dot, exp,
                       float_value, hessian, jacobian, log, mat_vec,
                       seed_scalars, sin, sqrt, tan, value_and_jacobian,
                       vec_add, vec_scale, vec_sub)
from .catalog import (CATALOG, build_connection, circle_loop, latitude_loop,
                      make_custom_christoffel, make_flat, make_nonlinear_demo,
                      make_sphere, random_base_field, random_base_point,
                      random_section, random_tangent, random_total_point,
                      reversed_curve, segment_curve, sphere_angle_between,
                      sphere_latitude_gb_angle, sphere_metric)
from .config import ScenarioConfig, canonical_text, emit_report, load_config
from .connection import (ConnectionField, ConnectionKind, constant_base_field,
                         covariant_derivative, extend_covariant_derivative,
                         extend_natural_derivative, horizontal_lift,
                         horizontal_lift_field, horizontal_projector,
                         lift_rank_check, natural_derivative, section_jet,
                         vertical_projector)
from .curvature import (VerticalValue, base_covariant_derivative,
                        cocurvature, composition_commutator,
                        covariant_derivative_section, cross_bracket_sum,
                        curv_via_covariant, curv_via_covariant_composition,
                        curv_via_lifts, curv_via_vertical_projection,
                        curvature, curvature_routes, leibniz_check,
                        second_covariant_derivative,
                        tensoriality_check_curvature, torsion)
from .errors import (ChartExitError, ConfigError, DomainError, FibrumError,
                     LinearityRequiredError, NonFiniteOutputError,
                     SecondOrderUnavailableError, StepBudgetError,
                     TangentBundleRequiredError, TooFewSamplesError)
from .scenarios import CheckRow, VerificationReport, run_scenario
from .transport import (CurveOnBase, IntegratorConfig, flow,
                        flow_base, geodesic, holonomy_loop,
                        lie_derivative_covariant, parallel_transport_path,
                        parallel_transport_vector, spray_from_connection,
                        covariant_derivative_along_curve)

__version__ = "0.1.0"
