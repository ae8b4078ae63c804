"""Model ambient spaces, discretized submanifolds and their operators."""

from .ambient import AmbientSpace
from .mesh import SimplicialMesh, disk_mesh, graph_mesh, sphere_mesh
from .patch import (
    ParametricPatch,
    ball_domain,
    flat_disk_patch,
    geodesic_disk,
    plane_rect,
    poly_graph_patch,
    sphere_patch,
)
from .domain import Domain, GradingStats, boundary_integral, weighted_integral
from .fields import Field

__all__ = [
    "AmbientSpace", "SimplicialMesh", "disk_mesh", "sphere_mesh",
    "graph_mesh", "ParametricPatch", "plane_rect", "flat_disk_patch",
    "sphere_patch", "geodesic_disk", "ball_domain", "poly_graph_patch",
    "Domain", "GradingStats", "weighted_integral", "boundary_integral",
    "Field",
]
