"""polydet: zeta-regularized determinants of Dirichlet Laplacians on convex
polygons and their first variations under polygon-preserving deformations."""

from .geometry import (
    Polygon,
    DeformationField,
    build_polygon,
    field_from_vertex_velocities,
    complexified_normal,
    move_polygon,
)

__all__ = [
    "Polygon",
    "DeformationField",
    "build_polygon",
    "field_from_vertex_velocities",
    "complexified_normal",
    "move_polygon",
]
