"""Polygon geometry: construction, deformation fields, first-order variations.

Every polygon passes build_polygon: finite vertices listed counterclockwise,
every interior angle in (0, pi) and a boundary that winds once, which makes
a simple convex polygon with no straight angle.  Input files give points as
[x, y] pairs of finite numbers (points_from_json, which reads the file
through load_json).

Conventions used throughout the package:

* vertices are complex numbers listed counterclockwise (signed area > 0);
* side j runs from vertex j to vertex j+1 (indices mod n);
* the complexified outward normal of a side is -1j times its unit tangent;
* a deformation is given by per-vertex velocities; the induced normal
  velocity on each side is affine in arclength, (A.nu)(s) = c0 + c1*s,
  with s measured from the side's start vertex;
* delta_angles[i] > 0 means the interior angle at vertex i increases.
"""

import json
import math
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


def build_polygon(vertices):
    """Validate vertices and assemble a convex, counterclockwise Polygon.

    Raises ValidationFailure for a vertex that is not finite, ClockwiseInput
    for negatively oriented input and DegenerateVertex for fewer than three
    or repeated vertices.  One pass over the interior angles a_i then raises
    DegenerateVertex where |sin a_i| < COLLINEAR_TOL, NonConvex where
    a_i >= pi, and DegenerateVertex unless the turns pi - a_i add up to
    2 pi: with every a_i in (0, pi) they add up to 2 pi times the winding
    number, so this admits exactly the simple convex boundaries and rejects
    a square listed twice or a pentagram.
    """
    v = np.asarray([complex(z) for z in vertices], dtype=complex)
    n = len(v)
    if n < 3:
        raise DegenerateVertex(f"need at least 3 vertices, got {n}")
    if not np.all(np.isfinite(v)):
        raise ValidationFailure(f"vertex {int(np.argmin(np.isfinite(v)))} is not finite")

    side_lengths = np.abs(np.roll(v, -1) - v)
    if np.any(side_lengths < 1e-14 * max(1.0, float(np.max(np.abs(v))))):
        raise DegenerateVertex("repeated vertices")

    x, y = v.real, v.imag
    area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    if area < 0:
        raise ClockwiseInput("vertices are clockwise")

    # interior angle a_i between the sides leaving vertex i, in [0, 2 pi)
    angles = np.angle((np.roll(v, 1) - v) / (np.roll(v, -1) - v))
    angles = np.where(angles < 0, angles + 2 * np.pi, angles)
    flat = np.abs(np.sin(angles)) < COLLINEAR_TOL
    if np.any(flat):
        raise DegenerateVertex(f"collinear triple at vertex {int(np.argmax(flat))}")
    if np.any(angles >= np.pi):
        bad = int(np.argmax(angles))
        raise NonConvex(f"interior angle {angles[bad]:.6f} >= pi at vertex {bad}")
    winding = round(float(np.sum(np.pi - angles)) / (2 * np.pi))
    if winding != 1:
        raise DegenerateVertex(f"the boundary winds {winding} times around its interior")

    return Polygon(
        vertices=tuple(v),
        angles=tuple(float(a) for a in angles),
        side_lengths=tuple(float(s) for s in side_lengths),
        area=area,
        perimeter=float(side_lengths.sum()),
    )


def load_json(path):
    """The JSON value in the file at path; ValidationFailure naming the path
    if the file cannot be read or does not parse."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ValidationFailure(f"{path} must be a readable file: {e.strerror}") from None
    except (ValueError, RecursionError) as e:       # bad JSON, UTF-8 or nesting
        raise ValidationFailure(f"{path} must be a JSON file: {e}") from None


def json_float(x, what, rule="finite"):
    """x as a float, if it is a finite JSON number: an int or a float, not a
    bool (float() would read "1.5" as 1.5 and true as 1.0), and neither NaN,
    an infinity nor an integer beyond the float range.  Anything else raises
    ValidationFailure saying that what must be a number, or must be rule."""
    if type(x) not in (int, float):
        raise ValidationFailure(f"{what} must be a number, not {json.dumps(x)}")
    try:
        v = float(x)
    except OverflowError:           # an integer beyond the largest float
        v = math.inf if x > 0 else -math.inf
    if not math.isfinite(v):
        raise ValidationFailure(f"{what} must be {rule}, not {json.dumps(v)}")
    return v


def points_from_json(path, key):
    """The [x, y] pairs listed under key in the JSON object in the file at
    path, as complex numbers; ValidationFailure naming key, or key[k], unless
    each is a pair of finite numbers (json_float)."""
    d = load_json(path)
    pairs = d.get(key) if isinstance(d, dict) else None
    if not isinstance(pairs, list):
        raise ValidationFailure(f"{path}: {key} must be a list of [x, y] pairs")
    points = []
    for k, xy in enumerate(pairs):
        if not (isinstance(xy, list) and len(xy) == 2):
            raise ValidationFailure(f"{path}: {key}[{k}] must be a pair of finite numbers, "
                                    f"not {json.dumps(xy)}")
        points.append(complex(*(json_float(c, f"{path}: {key}[{k}]") for c in xy)))
    return points


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
    if not np.all(np.isfinite(v)):
        raise ValidationFailure(f"velocity {int(np.argmin(np.isfinite(v)))} is not finite")
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


def eigenvalue_ratio_bound(p, q):
    """U with lambda_k(q) <= U lambda_k(p) for every k, for polygons p, q
    with as many vertices.  The map sending each fan triangle (c, v_j, v_j+1)
    of p, c the vertex mean, affinely onto q's has Jacobians M_j with
    det > 0 (both are convex); it raises the Dirichlet energy of a test
    function by at most det M_j / s2(M_j)^2 and its L2 mass by at least
    det M_j, so min-max (Courant-Hilbert I, ch. VI) gives
    U = max_j(det M_j / s2^2) / min_j det M_j, exact for a dilation."""
    def fans(z):                    # (n, 2, 2): columns c -> v_j, c -> v_j+1
        e = np.stack([z - z.mean(), np.roll(z, -1) - z.mean()], axis=-1)
        return np.stack([e.real, e.imag], axis=1)

    M = fans(q.vertex_array()) @ np.linalg.inv(fans(p.vertex_array()))
    det = np.linalg.det(M)
    s2 = np.linalg.svd(M, compute_uv=False)[:, -1]
    return float(np.max(det / s2**2) / np.min(det))
