"""Polygon geometry: construction, deformation fields, first-order variations.

Conventions used throughout the package:

* vertices are complex numbers listed counterclockwise (signed area > 0);
* side j runs from vertex j to vertex j+1 (indices mod n);
* the complexified outward normal of a side is -1j times its unit tangent;
* a deformation is given by per-vertex velocities; the induced normal
  velocity on each side is affine in arclength, (A.nu)(s) = c0 + c1*s,
  with s measured from the side's start vertex;
* delta_angles[i] > 0 means the interior angle at vertex i increases.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ClockwiseInput, DegenerateVertex, NonConvex, ValidationFailure

COLLINEAR_TOL = 1e-10


@dataclass(frozen=True)
class Polygon:
    """Immutable simple polygon with cached derived quantities."""

    vertices: tuple
    angles: tuple
    side_lengths: tuple
    area: float
    perimeter: float

    @property
    def n(self):
        return len(self.vertices)

    def vertex_array(self):
        return np.asarray(self.vertices, dtype=complex)

    def side_tangent(self, j):
        """Unit tangent of side j (from vertex j to vertex j+1)."""
        v = self.vertices
        d = v[(j + 1) % self.n] - v[j]
        return d / abs(d)

    def side_normal(self, j):
        """Complexified outward normal of side j: -1j * tangent."""
        return -1j * self.side_tangent(j)


@dataclass(frozen=True)
class DeformationField:
    """First-order polygon-preserving deformation.

    side_normal_velocity[j] = (c0, c1) so that (A.nu)(s) = c0 + c1*s on
    side j, s being arclength from vertex j.
    """

    vertex_velocities: tuple
    side_normal_velocity: tuple
    delta_angles: tuple
    delta_area: float
    delta_perimeter: float

    def velocity_array(self):
        return np.asarray(self.vertex_velocities, dtype=complex)


def _signed_area(v):
    x, y = v.real, v.imag
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _interior_angles(v):
    n = len(v)
    out = np.empty(n)
    for i in range(n):
        u = v[(i + 1) % n] - v[i]
        w = v[i - 1] - v[i]
        a = np.angle(w / u)
        if a < 0:
            a += 2 * np.pi
        out[i] = a
    return out


def _segments_intersect(p1, p2, q1, q2):
    def orient(a, b, c):
        return np.sign(((b - a).conjugate() * (c - a)).imag)

    return (orient(p1, p2, q1) * orient(p1, p2, q2) < 0
            and orient(q1, q2, p1) * orient(q1, q2, p2) < 0)


def build_polygon(vertices):
    """Validate vertices and assemble a convex, counterclockwise Polygon.

    Raises ClockwiseInput for negatively oriented input, DegenerateVertex for
    repeated/collinear vertices or self-intersections, and NonConvex when an
    interior angle reaches pi.
    """
    v = np.asarray([complex(z) for z in vertices], dtype=complex)
    n = len(v)
    if n < 3:
        raise DegenerateVertex(f"need at least 3 vertices, got {n}")

    scale = max(1.0, float(np.max(np.abs(v))))
    d = np.abs(v - np.roll(v, -1))
    if np.any(d < 1e-14 * scale):
        raise DegenerateVertex("repeated vertices")

    area = _signed_area(v)
    if area < 0:
        raise ClockwiseInput("vertices are clockwise")

    # collinear triple check via normalized cross products
    for i in range(n):
        u = v[(i + 1) % n] - v[i]
        w = v[i - 1] - v[i]
        cross = (w.conjugate() * u).imag / (abs(u) * abs(w))
        if abs(cross) < COLLINEAR_TOL:
            raise DegenerateVertex(f"collinear triple at vertex {i}")

    # simple-boundary check between non-adjacent sides
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_intersect(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                raise DegenerateVertex(f"sides {i} and {j} intersect")

    angles = _interior_angles(v)
    if np.any(angles >= np.pi):
        bad = int(np.argmax(angles))
        raise NonConvex(f"interior angle {angles[bad]:.6f} >= pi at vertex {bad}")

    side_lengths = np.abs(np.roll(v, -1) - v)
    return Polygon(
        vertices=tuple(v),
        angles=tuple(float(a) for a in angles),
        side_lengths=tuple(float(s) for s in side_lengths),
        area=area,
        perimeter=float(side_lengths.sum()),
    )


def polygon_from_json_dict(d):
    return build_polygon([complex(x, y) for x, y in d["vertices"]])


def field_from_json_dict(p, d):
    return field_from_vertex_velocities(p, [complex(x, y) for x, y in d["vertex_velocities"]])


def field_from_vertex_velocities(p, v):
    """Deformation field induced by vertex velocities v (length n, complex).

    The per-side normal velocity is the affine interpolant of the endpoint
    normal components; delta_angles come from the difference of the rotation
    rates omega_j = ((A.nu)(end) - (A.nu)(start)) / L_j of the two sides
    meeting at the vertex.
    """
    v = np.asarray([complex(z) for z in v], dtype=complex)
    n = p.n
    if len(v) != n:
        raise ValidationFailure(f"expected {n} velocities, got {len(v)}")
    verts = p.vertex_array()
    L = np.asarray(p.side_lengths)

    coeffs = []
    omega = np.empty(n)
    dperim = 0.0
    for j in range(n):
        tau = p.side_tangent(j)
        nu = -1j * tau
        a_start = (np.conj(nu) * v[j]).real
        a_end = (np.conj(nu) * v[(j + 1) % n]).real
        c0 = a_start
        c1 = (a_end - a_start) / L[j]
        coeffs.append((float(c0), float(c1)))
        omega[j] = c1
        dperim += (np.conj(tau) * (v[(j + 1) % n] - v[j])).real

    delta_angles = np.array([omega[i] - omega[i - 1] for i in range(n)])
    darea = sum(c0 * Lj + 0.5 * c1 * Lj**2 for (c0, c1), Lj in zip(coeffs, L))

    assert abs(delta_angles.sum()) < 1e-10 * (1 + np.abs(omega).max())

    return DeformationField(
        vertex_velocities=tuple(v),
        side_normal_velocity=tuple(coeffs),
        delta_angles=tuple(float(a) for a in delta_angles),
        delta_area=float(darea),
        delta_perimeter=float(dperim),
    )


def complexified_normal(p, side_index, s):
    """Outward normal of side ``side_index`` as a complex number, -1j*tangent.

    ``s`` is the arclength position along the side (the normal is constant on
    a straight side; the argument is validated for interface uniformity).
    """
    L = p.side_lengths[side_index]
    if not 0 <= s <= L:
        raise ValidationFailure(f"arclength {s} outside [0, {L}]")
    return p.side_normal(side_index)


def move_polygon(p, f, t):
    """Polygon with vertices displaced by t * vertex_velocities."""
    return build_polygon(p.vertex_array() + t * f.velocity_array())
