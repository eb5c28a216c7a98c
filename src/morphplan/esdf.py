"""Voxel occupancy maps, Euclidean signed distance fields and the body hull.

Sign convention: at a free voxel center the field stores the Euclidean
distance to the nearest occupied voxel center; at an occupied voxel center
it stores minus the distance to the nearest free voxel center.  Both sides
are capped at one band: a planner reads no distance far above its clearance
thresholds, so the field need not be known beyond them (Voxblox, Oleynikova
et al., IROS 2017, and FIESTA, Han et al., IROS 2019, bound their fields
the same way).  The field is exact within plus or minus the band and reads
plus or minus the band beyond it.  The distances come from scipy's exact
Euclidean distance transform, run over the occupied voxels' bounding box,
grown by the band for the free side and by one voxel for the occupied side;
`compute_esdf` shows both crops exact.
Between centers the field is evaluated by trilinear interpolation, so the
zero level sits inside the one-voxel band separating free from occupied
centers.  Every query, of distances, gradients or body clearance, reads the
field's 1-Lipschitz extension beyond the map, which inside the map is the
interpolant itself; a caller that must stay inside the map tests
`points_in_bounds`.

On the free side, a band of at least L + 2 voxels changes nothing a query
compares below a level L.  Free-side values are distances to a point set,
so they are 1-Lipschitz over the node positions:
- a cell whose interpolant reads below L somewhere has all 8 corners below
  L + sqrt(3) voxels, under the band, so no value or gradient below L
  changes, and a value at or above L stays at or above it;
- a ghost layer value (below) lies within half a voxel, per axis it
  extrapolates along, of the value it extrapolates, so its comparison with
  L does not change either.
The planner's levels are the optimizer's hinge (`d_margin` plus
`clearance_buffer`), its gate (`d_margin`), the cheap pass of the search's
collision check (`d_margin` plus the body's reach) and the search's free
voxels (`d_margin`, and `d_margin` plus the body's largest reach);
`traj_opt.distance_band` lies two voxels above the largest.  The one
change on this side is outside the map: there a point reads the capped
boundary value minus its excursion, so a point more than about
band - L - sqrt(3) voxels beyond the map may read differently at level L.
Only line-search probes of the optimizer go that far.

The cap on the occupied side changes no comparison at a level L >= 0,
and every level is at least zero (`OptProblem` rejects a negative
`d_margin`).  Occupied values are minus the distance to a point set, the
free voxels, so they are 1-Lipschitz too, and an occupied center within
sqrt(3) voxels of a free one reads at least -sqrt(3) voxels, above minus
the band.  So a cell with a capped corner has only occupied corners, all 8
below sqrt(3) voxels minus the band, which is below zero, and it reads
below zero with the cap and without.  A face's ghost value next to a capped
node lies below 1.5 voxels minus the band either way.  Ghost values at the
map's edges and corners extrapolate along two or three axes, which can add
up to 5.2 voxels in the worst case; the property tests check the search's
free voxels on random maps.  What changes is the value and gradient deep
inside an obstacle thicker than about 2 (band - sqrt(3) voxels): there the
field reads minus the band, and the hinge's gradient goes flat.

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

import logging
import math
import time
from dataclasses import dataclass, field as _field
from functools import cached_property

import numpy as np

from .fields import check_field_types

log = logging.getLogger(__name__)

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


def bounding_box(mask: np.ndarray):
    """Slices of the smallest box holding every True voxel of the 3-D
    `mask`, or None if it has none.  (Projecting each axis with `any` is
    about 4-10 times faster than scipy.ndimage.find_objects.)"""
    box = []
    for axis in range(3):
        hit = np.flatnonzero(mask.any(axis=tuple(a for a in range(3) if a != axis)))
        if len(hit) == 0:
            return None
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def _grown(bbox, layers: int) -> tuple:
    """The bounding box `bbox` (slices) grown by `layers` voxels; slicing
    clips the upper ends to the grid."""
    return tuple(slice(max(s.start - layers, 0), s.stop + layers) for s in bbox)


def compute_esdf(grid: VoxelGrid, band: float) -> EsdfField:
    """Signed distance at every voxel center, exact within plus or minus
    `band` and reading plus or minus `band` beyond it.

    The occupied side (distance to the nearest free voxel) is transformed
    over the occupied voxels' bounding box grown by one voxel; the free side
    (distance to the nearest occupied voxel) over the bounding box grown by
    m - 1 voxels, and by at least one, where m is the fewest whole voxels
    whose length, as the transform rounds it, reaches the band.  Both boxes
    are clipped to the grid, and every free voxel outside the larger one
    reads the band.

    Both crops are exact.  A free voxel outside the larger box is at least m
    voxels from every occupied voxel along some axis, so its distance, a
    square root of a sum of squared integer offsets, rounds to at least the
    band.  Inside the box the transform sees every occupied voxel.  For the
    occupied side, a free voxel outside the smaller box, clamped onto it,
    comes no farther from any occupied voxel on any axis, and lands on the
    grown layer, which lies outside the bounding box and so is free.  A
    nearest free voxel can thus always be found inside the smaller box,
    which holds one whenever the grid has a free voxel.  Since the distances
    are exact sums of squared integer offsets, which voxel wins a tie does
    not change the result, so the field equals the whole grid's transform,
    capped at the same band, bit for bit.
    """
    if band <= 0.0:
        raise ValueError(f"band must be positive, got {band}")
    t0 = time.perf_counter()
    occ = grid.occupancy
    transformed = 0
    # no voxel of the other class, or out of the free side's reach
    dist = np.full(occ.shape, np.inf)
    bbox = bounding_box(occ)
    if bbox is not None and not occ.all():
        res = grid.resolution
        reach = math.ceil(band / res)
        reach += reach * res < band  # the division rounded down past a whole voxel
        outer = _grown(bbox, max(reach - 1, 1))
        # the occupied side's box, relative to the free side's
        inner = tuple(slice(b.start - a.start, b.stop - a.start)
                      for a, b in zip(outer, _grown(bbox, 1)))
        # each voxel's own class adds zero, so the sum is the squared distance
        # to the nearest voxel of the other class
        sq = np.zeros(occ[outer].shape)
        _add_squared_feature_distance(sq, occ[outer])
        _add_squared_feature_distance(sq[inner], ~occ[outer][inner])
        np.sqrt(sq, out=sq)
        sq *= res
        dist[outer] = sq
        transformed = sq.size
    np.negative(dist, out=dist, where=occ)
    np.clip(dist, -band, band, out=dist)
    log.debug("distance field with a band of %.4g m: %d of %d voxels transformed, %.1f ms",
              band, transformed, occ.size, 1e3 * (time.perf_counter() - t0))
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
    # one row per axis, so that every step runs along the points; steps run
    # in place where they can, which saves allocations and changes no result
    p = pts.T.copy()
    # np.clip clamps to the same values, but for the sign of a zero that
    # lands on a bound, which neither out_vec's test nor u below can see
    q = np.maximum(p, lo)
    np.minimum(q, hi, out=q)
    out_vec = p - q

    u = q
    u -= lo
    u /= res
    u -= 0.5
    i0 = np.floor(u)
    # face tie-break: take the left cell
    np.subtract(i0, 1.0, out=i0, where=(u == i0) & (i0 >= 1.0))
    # i0 holds whole numbers, none of them -0, so the bounds clip it exactly
    np.maximum(i0, 0.0, out=i0)
    np.minimum(i0, np.maximum(dims - 2.0, 0.0)[:, None], out=i0)
    f = u
    f -= i0

    strides = np.array([dims[1] * dims[2], dims[2], 1])
    offsets = _CORNERS @ (np.minimum(dims - 1, 1) * strides)  # (8,)
    base = strides @ i0.astype(np.int64)
    vals = np.ravel(field.distance).take(base + offsets[:, None])  # (8, N)
    # per axis, the (2, N) weights of the lower and the upper corner
    wx, wy, wz = w = np.empty((3, 2, len(base)))
    np.subtract(1.0, f, out=w[:, 0])
    w[:, 1] = f
    wxy = wx[:, None] * wy[None, :]  # (2, 2, N)
    terms = np.empty((2, 2, 2, len(base)))
    np.multiply(wxy[:, :, None], wz[None, None, :], out=terms)  # the corner weights
    terms = terms.reshape(8, -1)
    terms *= vals
    values = _pairwise_sum8(terms)

    grads = None
    if want_grad:
        # per axis, the product of the other two axes' weights, broadcast
        # over this axis' bit
        w_other = np.empty((3, 2, 2, 2, len(base)))
        w_other[0] = wy[:, None] * wz[None, :]
        w_other[1] = (wx[:, None] * wz[None, :])[:, None]
        w_other[2] = wxy[:, :, None]
        terms = vals.reshape(2, 2, 2, -1) * _CORNER_SIGNS * w_other
        grads = _pairwise_sum8(terms.reshape(3, 8, -1).transpose(1, 0, 2)) / res

    # beyond the map only: inside, the excursion and its gradient are zero
    if out_vec.any():
        excursion = np.linalg.norm(out_vec, axis=0)
        values = values - excursion
        if want_grad:
            grads[out_vec != 0.0] = 0.0
            outside = excursion > 0.0
            grads[:, outside] -= out_vec[:, outside] / excursion[outside]
    if want_grad:
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

    @cached_property
    def _layout(self):
        """The sample layout, built once per body: the radial direction
        (S, 3) of every sample (zero on attachments, read-only) and the ring
        height of each cylinder sample."""
        ang = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        zs = -0.5 * self.height + self.height * np.arange(self.n_l + 1) / self.n_l
        dir_xy = np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=1)
        radial = np.vstack([np.repeat(dir_xy, len(zs), axis=0), np.zeros_like(self.attachments)])
        radial.flags.writeable = False
        return radial, np.tile(zs, self.n_theta)

    def surface_points(self, centers: np.ndarray, radii: np.ndarray):
        """World sample points (B, S, 3) of the hull at centers (B, 3) with
        radii (B,), and the radial direction (S, 3) of each sample (the unit
        lateral direction on the cylinder, zero on attachments).

        A cylinder sample's x and y are center + direction * radius and its z
        is center_z + ring height; an attachment sits at center + offset.
        """
        radial, ring_z = self._layout
        pts = centers[:, None, :] + radial[None, :len(ring_z)] * radii[:, None, None]
        pts[:, :, 2] = centers[:, None, 2] + ring_z[None, :]
        if len(self.attachments):
            pts = np.concatenate([pts, centers[:, None, :] + self.attachments[None, :, :]], axis=1)
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
