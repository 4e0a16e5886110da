"""Numerical laboratory for Gaussian curvature in arbitrary codimension.

Computes first/second fundamental forms of parametrized submanifolds of
R^k from exact jets, the generalized Gaussian curvature by independent
routes, Riemann tensors and their Pfaffian density, tube-boundary
geometry, and total-curvature checks against the Euler characteristic.
"""

from .catalog import (
    catalog_entries,
    catalog_get,
    catalog_names,
    graph_poly,
    load_immersion,
    random_graph_poly,
)
from .curvature import (
    CurvatureReport,
    CurvatureTensor,
    NormalDirection,
    batched_curvature_moments,
    batched_curvature_quadrature,
    directional_curvature,
    egregium_report,
    gauss_equation_tensor,
    generalized_curvature_moments,
    generalized_curvature_quadrature,
    intrinsic_curvature_fd,
    pfaffian_density,
    sphere_moment,
    sphere_volume,
    whiten_second_form,
)
from .errors import (
    CurvlabError,
    DegenerateImmersionError,
    DomainError,
    ImmersionFileError,
    ReachExceededError,
    UnknownImmersionError,
    UnsupportedDimensionError,
)
from .immersion import (
    Axis,
    FrameData,
    Immersion,
    frame_data_at,
    frames_at,
    jets_at,
    sample_domain,
)
from .integrate import (
    GaussBonnetReport,
    NormalSphereRule,
    QuadratureGrid,
    batched_curvature,
    default_grid,
    gauss_bonnet_check,
    integrate_scalar,
    normal_sphere_rule,
)
from .tube import (
    TubeBoundary,
    TubeConfig,
    TubePoint,
    normal_jacobian,
    tube_boundary_immersion,
    tube_identity_check,
    tube_point,
    tube_spectrum_check,
    tube_total_curvature,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "CurvatureReport",
    "CurvatureTensor",
    "CurvlabError",
    "DegenerateImmersionError",
    "DomainError",
    "FrameData",
    "GaussBonnetReport",
    "Immersion",
    "ImmersionFileError",
    "NormalDirection",
    "NormalSphereRule",
    "QuadratureGrid",
    "ReachExceededError",
    "TubeBoundary",
    "TubeConfig",
    "TubePoint",
    "UnknownImmersionError",
    "UnsupportedDimensionError",
    "batched_curvature",
    "batched_curvature_moments",
    "batched_curvature_quadrature",
    "catalog_entries",
    "catalog_get",
    "catalog_names",
    "default_grid",
    "directional_curvature",
    "egregium_report",
    "frame_data_at",
    "frames_at",
    "gauss_bonnet_check",
    "gauss_equation_tensor",
    "generalized_curvature_moments",
    "generalized_curvature_quadrature",
    "graph_poly",
    "integrate_scalar",
    "intrinsic_curvature_fd",
    "jets_at",
    "load_immersion",
    "normal_jacobian",
    "normal_sphere_rule",
    "pfaffian_density",
    "random_graph_poly",
    "sample_domain",
    "sphere_moment",
    "sphere_volume",
    "tube_boundary_immersion",
    "tube_identity_check",
    "tube_point",
    "tube_spectrum_check",
    "tube_total_curvature",
    "whiten_second_form",
]
