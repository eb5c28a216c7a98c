"""Voxel occupancy maps, Euclidean signed distance fields and the body hull.

Sign convention: at a free voxel center the field stores the Euclidean
distance to the nearest occupied voxel center; at an occupied voxel center
it stores minus the distance to the nearest free voxel center.  Both sides
are capped at the truncation radius.  The distances come from scipy's exact
Euclidean distance transform, run over the whole grid for the free side and
over the occupied voxels' bounding box, grown by one voxel, for the occupied
side.  Between centers the field is evaluated by trilinear interpolation, so
the zero level sits inside the one-voxel band separating free from occupied
centers.  Every query, of distances, gradients or body clearance, reads the
field's 1-Lipschitz extension beyond the map, which inside the map is the
interpolant itself; a caller that must stay inside the map tests
`points_in_bounds`.

Inside a cell of the lattice of voxel centers the trilinear interpolant is a
convex combination of the cell's 8 stored values, so it never exceeds the
largest of them.  In the half-voxel shell between the outermost centers and
the map's faces the interpolant extrapolates the outermost cell linearly;
there the same bound holds with one ghost layer per face, at the face
itself, holding g = d0 + (d0 - d1)/2 from the two outermost values d0 and
d1 on the axis normal to it.  `nodes_at_least` thresholds the stored values
with that ghost layer, which lets the search bound the field over a whole
cell of centers from booleans alone.

Voxelization tests each obstacle against the voxel centers' coordinates,
given per axis and broadcast against each other, so no full-size array of
centers is built.

`BodyGeometry.surface_points` is the one sampler of the deforming body's
hull; the search's collision check and `clearance_batch` both use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field

import numpy as np

from .fields import check_field_types

_CORNERS = np.array(list(np.ndindex(2, 2, 2)), dtype=np.int64)  # (8, 3)
# per axis, -1 on the corners at the axis' lower bit and +1 at its upper bit
_CORNER_SIGNS = np.where(_CORNERS == 1, 1.0, -1.0).T.reshape(3, 2, 2, 2, 1)


@dataclass(frozen=True, eq=False)
class BoxObstacle:
    lo: np.ndarray
    hi: np.ndarray

    def contains(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Membership of the points (x, y, z), given per axis and broadcast
        together: the AND of the three closed intervals."""
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        return (((x >= lo[0]) & (x <= hi[0]))
                & ((y >= lo[1]) & (y <= hi[1]))
                & ((z >= lo[2]) & (z <= hi[2])))


@dataclass(frozen=True, eq=False)
class SphereObstacle:
    center: np.ndarray
    radius: float

    def contains(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Membership of the points (x, y, z), given per axis and broadcast
        together; the squared distance is summed as (dx² + dy²) + dz²."""
        c = np.asarray(self.center, dtype=float)
        d2 = ((x - c[0]) ** 2 + (y - c[1]) ** 2) + (z - c[2]) ** 2
        return d2 <= self.radius**2


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Axis-aligned boolean occupancy grid; voxel centers at origin + (i+1/2)*resolution."""

    origin: np.ndarray
    resolution: float
    occupancy: np.ndarray  # bool, shape (nx, ny, nz)

    @property
    def dims(self) -> np.ndarray:
        return np.asarray(self.occupancy.shape, dtype=np.int64)

    @property
    def upper(self) -> np.ndarray:
        return self.origin + self.dims * self.resolution


def build_grid(obstacles, bounds_lo, bounds_hi, resolution: float) -> VoxelGrid:
    """Voxelize a list of box/sphere obstacles; a voxel is occupied iff its center
    lies inside any obstacle.

    The centers' coordinates are passed to `contains` per axis, shaped
    (nx, 1, 1), (1, ny, 1) and (1, 1, nz), so that only each obstacle's
    (nx, ny, nz) mask is full-size.
    """
    lo = np.asarray(bounds_lo, dtype=float).reshape(3)
    hi = np.asarray(bounds_hi, dtype=float).reshape(3)
    if resolution <= 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    if np.any(hi - lo <= 0.0):
        raise ValueError(f"bounds must have positive extent, got {lo} .. {hi}")
    dims = np.maximum(np.ceil((hi - lo) / resolution - 1e-9).astype(np.int64), 1)
    axes = [(lo[k] + (np.arange(dims[k]) + 0.5) * resolution).reshape(
        [-1 if j == k else 1 for j in range(3)]) for k in range(3)]
    occ = np.zeros(tuple(dims), dtype=bool)
    for obs in obstacles:
        occ |= obs.contains(*axes)
    return VoxelGrid(origin=lo, resolution=float(resolution), occupancy=occ)


def _add_squared_feature_distance(sq: np.ndarray, feature: np.ndarray) -> None:
    """Add to `sq` the squared distance (cell units) from every voxel to the
    nearest voxel where `feature` is True; zero on the feature voxels.

    scipy's exact feature transform (Maurer, Qi & Raghavan, TPAMI 2003) gives
    the index of the nearest feature voxel; the offsets are integers, so the
    sum of their squares is exact.  `feature` must have a True voxel.
    """
    # imported on first use: scipy.ndimage adds about 70 ms to the import of
    # morphplan, and only map builds need it
    from scipy.ndimage import distance_transform_edt

    nearest = distance_transform_edt(~feature, return_distances=False, return_indices=True)
    for axis, idx in enumerate(nearest):
        shape = [1, 1, 1]
        shape[axis] = -1
        idx -= np.arange(feature.shape[axis], dtype=idx.dtype).reshape(shape)
        sq += np.square(idx, dtype=float)


@dataclass(frozen=True, eq=False)
class EsdfField:
    grid: VoxelGrid
    distance: np.ndarray  # float64, shape grid.dims

    @property
    def lower(self) -> np.ndarray:
        return self.grid.origin

    @property
    def upper(self) -> np.ndarray:
        return self.grid.upper


def compute_esdf(grid: VoxelGrid, truncation: float) -> EsdfField:
    """Signed distance at every voxel center, exact up to the truncation cap.

    The free side (distance to the nearest occupied voxel) is transformed
    over the whole grid; the occupied side (distance to the nearest free
    voxel) only over the occupied voxels' bounding box grown by one voxel and
    clipped to the grid.  The crop is exact: a free voxel outside the grown
    box, clamped onto it, comes no farther from any occupied voxel on any
    axis, and lands on the grown layer, which lies outside the bounding box
    and so is free.  A nearest free voxel can thus always be found inside the grown
    box, which holds one whenever the grid has a free voxel, and since the
    distances are exact sums of squared integer offsets, which voxel wins a
    tie does not change the result.
    """
    if truncation <= 0.0:
        raise ValueError(f"truncation must be positive, got {truncation}")
    occ = grid.occupancy
    if occ.any() and not occ.all():
        # each voxel's own class adds zero, so the sum is the squared distance
        # to the nearest voxel of the other class
        dist = np.zeros(occ.shape)
        _add_squared_feature_distance(dist, occ)
        from scipy.ndimage import find_objects  # imported on first use, as below

        # the occupied voxels' bounding box, grown by one voxel (slicing clips
        # the upper ends to the grid)
        (bbox,) = find_objects(occ.view(np.int8))
        box = tuple(slice(max(s.start - 1, 0), s.stop + 1) for s in bbox)
        _add_squared_feature_distance(dist[box], ~occ[box])
        np.sqrt(dist, out=dist)
        dist *= grid.resolution
    else:
        dist = np.full(occ.shape, np.inf)  # no voxel of the other class
    np.negative(dist, out=dist, where=occ)
    np.clip(dist, -truncation, truncation, out=dist)
    return EsdfField(grid=grid, distance=dist)


def _ghost_face(values: np.ndarray, axis: int, side: int) -> np.ndarray:
    """The ghost layer beyond the face of `values` at index `side` (0 or -1)
    of `axis`: g = d0 + (d0 - d1)/2 from the two outermost values d0 and d1
    on that axis (d1 = d0 on an axis of one node)."""
    n = values.shape[axis]
    i0, i1 = (0, min(1, n - 1)) if side == 0 else (n - 1, max(n - 2, 0))
    return 1.5 * values.take(i0, axis) - 0.5 * values.take(i1, axis)


def _ghost_layers(values: np.ndarray) -> np.ndarray:
    """`values` with a ghost layer on each face, added axis by axis, so that
    the edges and corners extrapolate along every axis they lie beyond."""
    for axis in range(values.ndim):
        lo, hi = (np.expand_dims(_ghost_face(values, axis, side), axis) for side in (0, -1))
        values = np.concatenate([lo, values, hi], axis=axis)
    return values


def nodes_at_least(field: EsdfField, level: float) -> np.ndarray:
    """Boolean (nx+2, ny+2, nz+2): which stored distances are >= level, with
    index 0 and -1 of each axis the ghost layer at that face (module
    docstring).  Only the six face layers are extrapolated in floats."""
    dist = field.distance
    out = np.empty(tuple(n + 2 for n in dist.shape), dtype=bool)
    np.greater_equal(dist, level, out=out[1:-1, 1:-1, 1:-1])
    for axis in range(3):
        for side in (0, -1):
            index = [slice(None)] * 3
            index[axis] = side
            out[tuple(index)] = _ghost_layers(_ghost_face(dist, axis, side)) >= level
    return out


def points_in_bounds(field: EsdfField, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return np.all((pts >= field.lower) & (pts <= field.upper), axis=1)


def _pairwise_sum8(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of 8 terms as ((t0+t1)+(t2+t3))+((t4+t5)+(t6+t7))."""
    pairs = terms[0::2] + terms[1::2]
    quads = pairs[0::2] + pairs[1::2]
    return quads[0] + quads[1]


def _interp(field: EsdfField, points: np.ndarray, want_grad: bool):
    """Trilinear interpolation of the stored distances (and its analytic
    gradient), extended beyond the map.

    A point outside the map is clamped to the boundary and its value lowered
    by the exterior excursion (a 1-Lipschitz extension whose gradient points
    back into the map); inside, the clamp leaves the point as it is and the
    excursion is zero, so the value is the interpolant's.  Gradients at
    interior cell faces use the left cell.

    The kernel is a flat gather: one base index into the raveled distances
    plus 8 fixed corner offsets (an axis of size 1 has offset 0), each corner
    gathered as one (N,) array.  The corners are taken in `np.ndindex(2, 2, 2)`
    order, a corner weight is (wx*wy)*wz, and the 8 weighted corners are summed
    pairwise as ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7)); a gradient component
    sums (±value)*(product of the other two axis weights) the same way.  The
    order is fixed because floating-point sums are not associative: it is the
    order of numpy's reduction over a trailing axis of 8, so the kernel equals
    the (N, 8) formula the tests keep as its reference bit for bit, and the
    optimizer, which runs L-BFGS to its iteration cap on some queries and so
    carries any last-bit change into the planned trajectory, gives the same
    trajectories as with that formula.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    grid = field.grid
    lo, hi = field.lower[:, None], field.upper[:, None]
    res = grid.resolution
    dims = grid.dims
    # one row per axis, so that every step runs along the points
    p = pts.T.copy()
    q = np.clip(p, lo, hi)
    out_vec = p - q

    u = (q - lo) / res - 0.5
    i0 = np.floor(u)
    on_face = (u == i0) & (i0 >= 1.0)  # face tie-break: take the left cell
    i0 = np.where(on_face, i0 - 1.0, i0)
    i0 = np.clip(i0, 0.0, np.maximum(dims - 2.0, 0.0)[:, None])
    f = u - i0

    strides = np.array([dims[1] * dims[2], dims[2], 1])
    offsets = _CORNERS @ (np.minimum(dims - 1, 1) * strides)  # (8,)
    base = strides @ i0.astype(np.int64)
    vals = np.ravel(field.distance).take(base + offsets[:, None])  # (8, N)
    # per axis, the (2, N) weights of the lower and the upper corner
    wx, wy, wz = np.stack([1.0 - f, f], axis=1)
    wxy = wx[:, None] * wy[None, :]  # (2, 2, N)
    weights = wxy[:, :, None] * wz[None, None, :]  # (2, 2, 2, N)
    values = _pairwise_sum8(vals * weights.reshape(8, -1))

    grads = None
    if want_grad:
        grads = np.empty_like(p)
        corner_vals = vals.reshape(2, 2, 2, -1)
        # the product of the other two axes' weights, broadcast over this axis' bit
        w_other = (wy[:, None] * wz[None, :],
                   (wx[:, None] * wz[None, :])[:, None],
                   wxy[:, :, None])
        for ax in range(3):
            terms = corner_vals * _CORNER_SIGNS[ax] * w_other[ax]
            grads[ax] = _pairwise_sum8(terms.reshape(8, -1)) / res

    excursion = np.linalg.norm(out_vec, axis=0)
    values = values - excursion
    if want_grad:
        grads[out_vec != 0.0] = 0.0
        outside = excursion > 0.0
        grads[:, outside] -= out_vec[:, outside] / excursion[outside]
        grads = np.ascontiguousarray(grads.T)
    return values, grads


def query_distance_many(field: EsdfField, points) -> np.ndarray:
    """Extended interpolated signed distance at each point (N,); see `_interp`."""
    values, _ = _interp(field, points, want_grad=False)
    return values


def query_gradient_many(field: EsdfField, points) -> np.ndarray:
    """Gradient of the extended interpolant at each point (N, 3); see `_interp`."""
    _, grads = _interp(field, points, want_grad=True)
    return grads


@dataclass(frozen=True, eq=False)
class BodyGeometry:
    """Cylindrical hull (lateral surface sampled at n_theta angles and n_l+1 rings)
    plus optional fixed attachment points modeling a grasped object.
    [r_min, r_max] is the one deformation range, of the planner and the vehicle."""

    height: float
    n_theta: int = 16
    n_l: int = 2
    r_min: float = 0.131
    r_max: float = 0.211
    attachments: np.ndarray = _field(default_factory=lambda: np.zeros((0, 3)))

    def __post_init__(self):
        check_field_types(self)
        # the servo map divides by r_max - r_min
        if self.height <= 0.0 or self.n_theta < 3 or self.n_l < 1 or not self.r_min < self.r_max:
            raise ValueError("invalid body geometry")
        object.__setattr__(self, "attachments", np.asarray(self.attachments, dtype=float).reshape(-1, 3))

    def max_reach(self, radius):
        """Distance from the body center to its farthest sample, per radius."""
        reach = np.hypot(radius, 0.5 * self.height)
        if len(self.attachments):
            reach = np.maximum(reach, np.max(np.linalg.norm(self.attachments, axis=1)))
        return reach

    def surface_points(self, centers: np.ndarray, radii: np.ndarray):
        """World sample points (B, S, 3) of the hull at centers (B, 3) with
        radii (B,), and the radial direction (S, 3) of each sample (the unit
        lateral direction on the cylinder, zero on attachments).

        A cylinder sample's x and y are center + direction * radius and its z
        is center_z + ring height; an attachment sits at center + offset.
        """
        ang = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        zs = -0.5 * self.height + self.height * np.arange(self.n_l + 1) / self.n_l
        dir_xy = np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=1)
        radial = np.repeat(dir_xy, len(zs), axis=0)  # (n_theta * (n_l + 1), 3)
        pts = centers[:, None, :] + radial[None, :, :] * radii[:, None, None]
        pts[:, :, 2] = centers[:, None, 2] + np.tile(zs, self.n_theta)[None, :]
        if len(self.attachments):
            pts = np.concatenate([pts, centers[:, None, :] + self.attachments[None, :, :]], axis=1)
            radial = np.vstack([radial, np.zeros_like(self.attachments)])
        return pts, radial


def clearance_batch(field: EsdfField, centers: np.ndarray, radii: np.ndarray,
                    body: BodyGeometry):
    """Minimum surface-sample distance, in the extended field, for a batch of
    (center, radius) poses.

    Returns (distance (B,), grad wrt center (B,3), grad wrt radius (B,)).
    Gradients chain through the active minimum sample.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    n = centers.shape[0]
    world, radial = body.surface_points(centers, radii)
    dist = query_distance_many(field, world.reshape(-1, 3)).reshape(n, -1)
    sel = np.argmin(dist, axis=1)
    rows = np.arange(n)
    d_min = dist[rows, sel]
    grad_pos = query_gradient_many(field, world[rows, sel])
    grad_rad = np.einsum("ij,ij->i", grad_pos, radial[sel])
    return d_min, grad_pos, grad_rad
