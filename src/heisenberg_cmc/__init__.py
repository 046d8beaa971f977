"""Constant-mean-curvature spheres in the Riemannian Heisenberg group.

A numerics library for the two-parameter family of left-invariant metrics
on C x R interpolating between Euclidean space and the sub-Riemannian
Heisenberg group, and for the rotationally symmetric CMC spheres that
foliate it: closed-form profiles and curvature, geodesic meridian
foliations, the calibration foliation of vertical cylinders, and
quantitative isoperimetric checks, each paired with an independent
finite-difference or quadrature oracle.
"""

from .ambient import (
    ModelParams,
    Point,
    TangentVector,
    christoffel_frame,
    covariant_derivative,
    curvature_operator,
    frame_in_coordinates,
    horizontal_rotation,
    ricci,
    vector_to_coordinates,
    vertical_component,
)
from .errors import ContractError, DomainError, NumericsError
from .sphere import (
    ProfileQuantities,
    RadiusField,
    SphereSpec,
    euclidean_profile,
    foliation_normal,
    graph_mean_curvature_fd,
    outer_normal,
    pansu_profile,
    pansu_radius,
    profile_height,
    profile_height_R,
    profile_height_r,
    profile_quantities,
    radius_field,
    sphere_area,
    sphere_volume,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
