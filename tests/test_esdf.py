import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphplan.esdf import (
    _CORNERS,
    BodyGeometry,
    BoxObstacle,
    EsdfField,
    SphereObstacle,
    VoxelGrid,
    _interp,
    build_grid,
    clearance_batch,
    compute_esdf,
    nodes_at_least,
    points_in_bounds,
    query_distance_many,
    query_gradient_many,
)


def brute_force_signed(grid, truncation):
    """O(V^2) signed-distance oracle: nearest occupied (free side), minus
    nearest free (occupied side), integer-squared arithmetic like the field."""
    occ = grid.occupancy
    dims = tuple(grid.dims)
    idx = np.argwhere(np.ones(dims, dtype=bool))
    occ_idx = np.argwhere(occ)
    free_idx = np.argwhere(~occ)
    out = np.empty(dims)
    for cell in idx:
        if occ[tuple(cell)]:
            ref = free_idx
            sign = -1.0
        else:
            ref = occ_idx
            sign = 1.0
        if len(ref) == 0:
            out[tuple(cell)] = sign * truncation
            continue
        sq = np.min(np.sum((ref - cell) ** 2, axis=1))
        d = sign * np.sqrt(np.int64(sq).astype(float)) * grid.resolution
        out[tuple(cell)] = np.clip(d, -truncation, truncation)
    return out


def voxel_center(grid, index):
    """Center of a voxel: origin + (index + 1/2) * resolution."""
    return grid.origin + (np.asarray(index, dtype=float) + 0.5) * grid.resolution


def uniform_field(value, dims=(6, 6, 6), resolution=0.1):
    grid = VoxelGrid(origin=np.zeros(3), resolution=resolution, occupancy=np.zeros(dims, dtype=bool))
    return EsdfField(grid=grid, distance=np.full(dims, float(value)))


class TestBuildGrid:
    def test_empty_input_all_free(self):
        grid = build_grid([], [0, 0, 0], [1, 1, 1], 0.1)
        assert grid.occupancy.shape == (10, 10, 10)
        assert not grid.occupancy.any()

    def test_small_sphere_marks_exactly_one_voxel(self):
        # sphere of radius 0.05 centered on the voxel center (0.45, 0.45, 0.45)
        center = np.array([0.45, 0.45, 0.45])
        grid = build_grid([SphereObstacle(center=center, radius=0.05)], [0, 0, 0], [1, 1, 1], 0.1)
        # oracle: point-in-sphere over all voxel centers
        expected = np.zeros((10, 10, 10), dtype=bool)
        for ix in range(10):
            for iy in range(10):
                for iz in range(10):
                    c = voxel_center(grid, (ix, iy, iz))
                    expected[ix, iy, iz] = np.sum((c - center) ** 2) <= 0.05**2
        assert expected.sum() == 1
        assert np.array_equal(grid.occupancy, expected)

    def test_total_cover_all_occupied(self):
        grid = build_grid([BoxObstacle(lo=np.zeros(3), hi=np.ones(3))], [0, 0, 0], [1, 1, 1], 0.1)
        assert grid.occupancy.all()

    def test_rejects_bad_resolution_and_bounds(self):
        with pytest.raises(ValueError):
            build_grid([], [0, 0, 0], [1, 1, 1], 0.0)
        with pytest.raises(ValueError):
            build_grid([], [0, 0, 0], [1, 0, 1], 0.1)


def reference_occupancy(grid, obstacles):
    """The per-centre membership formulas that per-axis voxelisation replaced:
    every obstacle tested against a full (nx, ny, nz, 3) array of centres."""
    axes = [grid.origin[k] + (np.arange(grid.dims[k]) + 0.5) * grid.resolution for k in range(3)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    occ = np.zeros(tuple(grid.dims), dtype=bool)
    for obs in obstacles:
        if isinstance(obs, BoxObstacle):
            occ |= np.all((centers >= obs.lo) & (centers <= obs.hi), axis=-1)
        else:
            occ |= np.sum((centers - obs.center) ** 2, axis=-1) <= obs.radius**2
    return occ


@settings(max_examples=200, deadline=None)
@given(cells=st.tuples(*[st.integers(1, 9)] * 3),
       resolution=st.sampled_from([0.025, 0.05, 0.07, 0.1, 0.3]),
       kinds=st.lists(st.sampled_from(["box", "snapped box", "sphere", "snapped sphere"]),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_build_grid_equals_reference_occupancy(cells, resolution, kinds, seed):
    """Bit for bit, random boxes and spheres, box faces and sphere centres
    snapped onto voxel centres, and axes of size 1."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 1.0, 3)
    hi = lo + np.asarray(cells) * resolution
    # the centres exactly as build_grid computes them
    axes = [lo[k] + (np.arange(cells[k]) + 0.5) * resolution for k in range(3)]

    def snapped():
        return np.array([rng.choice(axes[k]) for k in range(3)])

    def anywhere():
        return rng.uniform(lo - resolution, hi + resolution)

    obstacles = []
    for kind in kinds:
        if kind.endswith("box"):
            a, b = (snapped(), snapped()) if kind == "snapped box" else (anywhere(), anywhere())
            obstacles.append(BoxObstacle(lo=np.minimum(a, b), hi=np.maximum(a, b)))
        elif kind == "snapped sphere":
            # a radius of whole cells puts centres on the sphere, up to rounding
            radius = resolution * float(rng.integers(0, 4)) * rng.choice([1.0, np.sqrt(2.0), np.sqrt(3.0)])
            obstacles.append(SphereObstacle(center=snapped(), radius=radius))
        else:
            obstacles.append(SphereObstacle(center=anywhere(), radius=rng.uniform(0.0, 4.0 * resolution)))
    grid = build_grid(obstacles, lo, hi, resolution)
    assert grid.occupancy.shape == cells
    assert np.array_equal(grid.occupancy, reference_occupancy(grid, obstacles))


class TestComputeEsdf:
    def test_single_voxel_three_cells_away(self):
        occ = np.zeros((10, 10, 10), dtype=bool)
        occ[2, 5, 5] = True
        grid = VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ)
        field = compute_esdf(grid, truncation=5.0)
        assert field.distance[5, 5, 5] == pytest.approx(0.3, abs=1e-15)

    def test_empty_grid_truncation_everywhere(self):
        grid = VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=np.zeros((5, 5, 5), dtype=bool))
        field = compute_esdf(grid, truncation=2.0)
        assert np.all(field.distance == 2.0)

    def test_occupied_center_nonpositive(self):
        occ = np.zeros((5, 5, 5), dtype=bool)
        occ[2, 2, 2] = True
        field = compute_esdf(VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ), truncation=5.0)
        assert field.distance[2, 2, 2] <= 0.0

    def test_all_occupied_interior(self):
        occ = np.ones((4, 4, 4), dtype=bool)
        field = compute_esdf(VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ), truncation=1.5)
        assert np.all(field.distance == -1.5)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(7)
        cases = [(rng.random(tuple(rng.integers(2, 13, size=3))) < 0.25, 5.0) for _ in range(10)]
        # dims of 1, and grids with no feature voxel on one side
        cases += [
            (rng.random((1, 7, 9)) < 0.25, 5.0),
            (rng.random((6, 1, 1)) < 0.3, 5.0),
            (np.zeros((4, 1, 5), dtype=bool), 5.0),
            (np.ones((3, 4, 2), dtype=bool), 5.0),
            (np.zeros((1, 1, 1), dtype=bool), 5.0),
        ]
        # occupied bounding boxes smaller than the grid, so that the occupied
        # side's transform runs on a crop: a compact block, a block on each of
        # the six faces, one voxel in a corner, a single free voxel, and a
        # wall with a gap that spans two axes (the `slot` shape)
        block = np.zeros((9, 10, 11), dtype=bool)
        block[3:6, 2:5, 4:8] = True
        cases.append((block, 5.0))
        for axis in range(3):
            for face in (slice(0, 2), slice(-2, None)):
                occ = np.zeros((7, 8, 9), dtype=bool)
                index = [slice(2, 5)] * 3
                index[axis] = face
                occ[tuple(index)] = True
                cases.append((occ, 5.0))
        corner = np.zeros((6, 5, 7), dtype=bool)
        corner[-1, 0, -1] = True
        one_free = np.ones((5, 6, 4), dtype=bool)
        one_free[2, 3, 1] = False
        wall = np.zeros((12, 9, 6), dtype=bool)
        wall[5:7] = True
        wall[5:7, 3:6] = False
        cases += [(corner, 5.0), (one_free, 5.0), (wall, 5.0)]
        # last, a truncation below the largest distance
        cases.append((rng.random((12, 11, 10)) < 0.05, 0.25))
        for occ, truncation in cases:
            grid = VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ)
            field = compute_esdf(grid, truncation=truncation)
            oracle = brute_force_signed(grid, truncation)
            assert np.array_equal(field.distance, oracle)
        # the last case's truncation cuts off its largest distances
        assert np.abs(brute_force_signed(grid, 5.0)).max() > truncation
        assert np.abs(field.distance).max() == truncation

    def test_lipschitz_between_same_sign_neighbors(self):
        rng = np.random.default_rng(3)
        occ = rng.random((12, 10, 8)) < 0.2
        grid = VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ)
        d = compute_esdf(grid, truncation=5.0).distance
        for axis in range(3):
            a = np.moveaxis(d, axis, 0)[:-1]
            b = np.moveaxis(d, axis, 0)[1:]
            same = np.sign(a) == np.sign(b)
            assert np.all(np.abs(a - b)[same] <= 0.1 + 1e-12)


class TestQueries:
    def test_voxel_center_returns_stored_value(self):
        occ = np.zeros((6, 6, 6), dtype=bool)
        occ[1, 1, 1] = True
        field = compute_esdf(VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ), truncation=5.0)
        pt = voxel_center(field.grid, (4, 3, 2))
        assert query_distance_many(field, pt)[0] == pytest.approx(field.distance[4, 3, 2], abs=1e-14)

    def test_midpoint_interpolation(self):
        field = uniform_field(0.0, dims=(4, 4, 4))
        field.distance[1, 1, 1] = 0.2
        field.distance[2, 1, 1] = 0.4
        mid = 0.5 * (voxel_center(field.grid, (1, 1, 1)) + voxel_center(field.grid, (2, 1, 1)))
        assert query_distance_many(field, mid)[0] == pytest.approx(0.3, abs=1e-14)

    def test_uniform_field_constant(self):
        field = uniform_field(1.23)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.05, 0.55, size=(20, 3))
        vals = query_distance_many(field, pts)
        assert np.allclose(vals, 1.23, atol=1e-13)

    def test_out_of_bounds_is_lowered_by_the_excursion(self):
        field = uniform_field(1.0)
        pts = [[-0.1, 0.2, 0.2], [0.2, 0.2, 0.2]]
        np.testing.assert_allclose(query_distance_many(field, pts), [0.9, 1.0], rtol=0, atol=1e-14)
        # the gradient points back into the map
        np.testing.assert_allclose(query_gradient_many(field, pts), [[1, 0, 0], [0, 0, 0]],
                                   rtol=0, atol=1e-14)

    def test_continuity_lipschitz(self):
        rng = np.random.default_rng(11)
        occ = rng.random((8, 8, 8)) < 0.2
        field = compute_esdf(VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ), truncation=5.0)
        res = field.grid.resolution
        lcap = np.max(np.abs(np.diff(field.distance, axis=0)))
        for axis in range(1, 3):
            lcap = max(lcap, np.max(np.abs(np.diff(field.distance, axis=axis))))
        lip = lcap / res * np.sqrt(3.0)
        pts = rng.uniform(0.1, 0.7, size=(200, 3))
        eps = rng.normal(scale=1e-4, size=(200, 3))
        v0 = query_distance_many(field, pts)
        v1 = query_distance_many(field, pts + eps)
        assert np.all(np.abs(v1 - v0) <= lip * np.linalg.norm(eps, axis=1) + 1e-12)


def reference_interp(field, points, extend, want_grad):
    """The (N, 8, 3) trilinear formula that the flat-gather kernel replaced:
    corner weights as products over a (N, 8, 3) weight array, corner sums as
    numpy reductions over the trailing axis of 8.  With extend=False it is
    the plain interpolant, defined on points inside the map only; with
    extend=True, the 1-Lipschitz extension beyond the map."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    lo, hi = field.lower, field.upper
    res = field.grid.resolution
    dims = field.grid.dims
    if extend:
        q = np.clip(pts, lo, hi)
        out_vec = pts - q
    else:
        assert points_in_bounds(field, pts).all()
        q = pts
    u = (q - lo) / res - 0.5
    i0 = np.floor(u)
    on_face = (u == i0) & (i0 >= 1.0)
    i0 = np.where(on_face, i0 - 1.0, i0)
    i0 = np.clip(i0, 0, np.maximum(dims - 2, 0)).astype(np.int64)
    f = u - i0
    idx = np.minimum(i0[:, None, :] + _CORNERS[None, :, :], dims - 1)
    vals8 = field.distance[idx[..., 0], idx[..., 1], idx[..., 2]]
    w_axes = np.where(_CORNERS[None, :, :] == 1, f[:, None, :], 1.0 - f[:, None, :])
    values = (vals8 * w_axes.prod(axis=2)).sum(axis=1)
    grads = None
    if want_grad:
        grads = np.empty_like(pts)
        for ax in range(3):
            sign = np.where(_CORNERS[:, ax] == 1, 1.0, -1.0)[None, :]
            others = [b for b in range(3) if b != ax]
            w_other = w_axes[:, :, others[0]] * w_axes[:, :, others[1]]
            grads[:, ax] = (vals8 * sign * w_other).sum(axis=1) / res
    if extend:
        excursion = np.linalg.norm(out_vec, axis=1)
        values = values - excursion
        if want_grad:
            grads[out_vec != 0.0] = 0.0
            outside = excursion > 0.0
            grads[outside] -= out_vec[outside] / excursion[outside, None]
    return values, grads


@settings(max_examples=150, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 6)] * 3),
       resolution=st.sampled_from([0.025, 0.1, 0.3]),
       shifted=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_interp_equals_reference_formula(dims, resolution, shifted, seed):
    """Bit for bit, sign bits included, values and gradients, on voxel
    centres, cell faces, the map bounds, points beyond them and random
    points; axes of size 1 included.  The kernel is the extended formula
    everywhere, and inside the map it is the plain interpolant."""
    rng = np.random.default_rng(seed)
    origin = rng.uniform(-2.0, 2.0, 3) if shifted else np.zeros(3)
    grid = VoxelGrid(origin=origin, resolution=resolution, occupancy=np.zeros(dims, dtype=bool))
    field = EsdfField(grid=grid, distance=rng.normal(scale=0.5, size=dims))
    n = 96
    size = np.asarray(dims, dtype=float)
    cell = rng.integers(0, dims, size=(n, 3))
    kind = rng.integers(0, 5, size=(n, 3))
    excursion = rng.uniform(0.01, 4.0, (n, 3))
    beyond = np.where(rng.random((n, 3)) < 0.5, -excursion, size + excursion)
    coord = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [cell + 0.5,  # voxel centre
         cell.astype(float),  # lower cell face (the lower map bound on cell 0)
         np.broadcast_to(size, (n, 3)),  # upper map bound
         rng.uniform(0.0, 1.0, (n, 3)) * size],  # anywhere inside
        beyond)
    pts = origin + coord * resolution
    inside = points_in_bounds(field, pts)
    for want_grad in (False, True):
        got = _interp(field, pts, want_grad)
        for sel, extend in ((slice(None), True), (inside, False)):
            want = reference_interp(field, pts[sel], extend, want_grad)
            assert got[0][sel].tobytes() == want[0].tobytes()
            assert (got[1] is None) == (want[1] is None)
            if want_grad:
                assert got[1][sel].tobytes() == want[1].tobytes()


@settings(max_examples=100, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 6)] * 3),
       resolution=st.sampled_from([0.025, 0.1, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_interpolant_never_exceeds_its_ghost_padded_corners(dims, resolution, seed):
    """Anywhere in the map, the half-voxel shells at its faces included, the
    interpolant is at most the largest of the 2x2x2 stored or ghost values
    around the point: `nodes_at_least` at its value keeps one of them."""
    rng = np.random.default_rng(seed)
    origin = rng.uniform(-2.0, 2.0, 3)
    grid = VoxelGrid(origin=origin, resolution=resolution, occupancy=np.zeros(dims, dtype=bool))
    field = EsdfField(grid=grid, distance=rng.normal(scale=0.5, size=dims))
    size = np.asarray(dims, dtype=float)
    n = 48
    # in voxel units; about half of the coordinates in a face's shell
    shell = np.where(rng.random((n, 3)) < 0.5, 0.0, size - 0.5) + rng.uniform(0.0, 0.5, (n, 3))
    coord = np.where(rng.random((n, 3)) < 0.5, shell, rng.uniform(0.0, 1.0, (n, 3)) * size)
    values = query_distance_many(field, origin + coord * resolution)
    # the ghost-padded index of the lower corner around each point
    lower = np.floor(coord - 0.5).astype(np.int64) + 1
    for value, (i, j, k) in zip(values, lower):
        assert nodes_at_least(field, value - 1e-12)[i:i + 2, j:j + 2, k:k + 2].any()


class TestGradient:
    def test_uniform_field_zero_gradient(self):
        field = uniform_field(0.7)
        g = query_gradient_many(field, [0.31, 0.29, 0.30])[0]
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_linear_ramp_gradient(self):
        dims = (6, 6, 6)
        ramp = np.tile((np.arange(6) * 0.1)[:, None, None], (1, 6, 6))
        grid = VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=np.zeros(dims, dtype=bool))
        field = EsdfField(grid=grid, distance=ramp)
        g = query_gradient_many(field, [0.27, 0.33, 0.30])[0]
        assert np.allclose(g, [1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        occ = rng.random((12, 12, 12)) < 0.15
        field = compute_esdf(VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ), truncation=5.0)
        pts = rng.uniform(0.15, 1.05, size=(100, 3))
        h = 1e-5
        g = query_gradient_many(field, pts)
        fd = np.stack([(query_distance_many(field, pts + e) - query_distance_many(field, pts - e))
                       / (2 * h) for e in h * np.eye(3)], axis=1)
        denom = np.maximum(np.linalg.norm(fd, axis=1), 1e-9)
        assert np.max(np.linalg.norm(g - fd, axis=1) / denom) < 1e-4

    def test_consistent_with_distance_inside_cell(self):
        field = uniform_field(0.0, dims=(4, 4, 4))
        rng = np.random.default_rng(5)
        field.distance[:] = rng.normal(size=(4, 4, 4))
        p = np.array([0.171, 0.182, 0.193])
        g = query_gradient_many(field, p)[0]
        step = np.array([3e-3, -2e-3, 1e-3])  # stays inside the same cell
        tiny = 1e-9 * step
        d_p, d_tiny, d_step = query_distance_many(field, [p, p + tiny, p + step])
        lin = d_p + g @ step
        # trilinear has curvature, so compare against a tiny step instead
        lin_tiny = d_p + g @ tiny
        assert d_tiny == pytest.approx(lin_tiny, abs=1e-12)
        assert abs(d_step - lin) < 1e-3


def one_row(field, center, body, radius):
    """clearance_batch for a single pose."""
    d, gp, gr = clearance_batch(field, np.reshape(center, (1, 3)), np.array([radius]), body)
    return d[0], gp[0], gr[0]


class TestBodyClearance:
    def test_sample_offset_formula(self):
        body = BodyGeometry(height=0.1, n_theta=8, n_l=2)
        center = np.array([[1.0, 2.0, 3.0]])
        pts, radial = body.surface_points(center, np.array([0.2]))
        assert pts.shape == (1, 8 * 3, 3) and radial.shape == (8 * 3, 3)
        assert np.allclose(pts[0, 0] - center[0], [0.2, 0.0, -0.05])
        assert np.allclose(radial[0], [1.0, 0.0, 0.0])
        # the radius only moves the lateral samples, along their radial direction
        wide, _ = body.surface_points(center, np.array([0.3]))
        assert np.allclose(wide[0] - pts[0], 0.1 * radial)

    def test_empty_map_truncation(self):
        grid = build_grid([], [0, 0, 0], [4, 4, 4], 0.1)
        field = compute_esdf(grid, truncation=2.0)
        body = BodyGeometry(height=0.1)
        d, _, _ = one_row(field, [2.0, 2.0, 2.0], body, 0.2)
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_single_voxel_matches_exhaustive(self):
        # occupied voxel center at (1, 0, 0), body centered at the origin
        occ = np.zeros((30, 30, 30), dtype=bool)
        occ[20, 10, 10] = True
        grid = VoxelGrid(origin=np.full(3, -1.05), resolution=0.1, occupancy=occ)
        field = compute_esdf(grid, truncation=5.0)
        body = BodyGeometry(height=0.1, n_theta=16, n_l=2)
        center = np.zeros(3)
        d, _, _ = one_row(field, center, body, 0.2)
        samples = [center + [0.2 * np.cos(2 * np.pi * k / 16), 0.2 * np.sin(2 * np.pi * k / 16), z]
                   for k in range(16) for z in (-0.05, 0.0, 0.05)]
        dists = query_distance_many(field, samples)
        assert d == pytest.approx(min(dists), abs=1e-12)

    def test_finer_sampling_is_conservative(self):
        occ = np.zeros((16, 16, 16), dtype=bool)
        occ[10:12, 7:9, 7:9] = True
        grid = VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ)
        field = compute_esdf(grid, truncation=5.0)
        coarse = BodyGeometry(height=0.12, n_theta=6, n_l=1)
        fine = BodyGeometry(height=0.12, n_theta=12, n_l=2)
        for center in ([0.5, 0.8, 0.8], [0.6, 0.7, 0.8], [0.55, 0.85, 0.75]):
            d_coarse = one_row(field, center, coarse, 0.25)[0]
            d_fine = one_row(field, center, fine, 0.25)[0]
            assert d_fine <= d_coarse + 1e-12

    def test_gradients_match_finite_differences(self):
        occ = np.zeros((16, 16, 16), dtype=bool)
        occ[11:13, 6:10, 6:10] = True
        grid = VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ)
        field = compute_esdf(grid, truncation=5.0)
        body = BodyGeometry(height=0.1, n_theta=16, n_l=2)
        center = np.array([0.62, 0.71, 0.76])
        radius = 0.2
        _, grad_position, grad_radius = one_row(field, center, body, radius)
        h = 1e-6
        fd_pos = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            dp = one_row(field, center + e, body, radius)[0]
            dm = one_row(field, center - e, body, radius)[0]
            fd_pos[k] = (dp - dm) / (2 * h)
        fd_rad = (
            one_row(field, center, body, radius + h)[0]
            - one_row(field, center, body, radius - h)[0]
        ) / (2 * h)
        assert np.linalg.norm(grad_position - fd_pos) / max(np.linalg.norm(fd_pos), 1e-9) < 1e-3
        assert abs(grad_radius - fd_rad) / max(abs(fd_rad), 1e-9) < 1e-3

    def test_out_of_map_sample_is_the_worst(self):
        grid = build_grid([], [0, 0, 0], [1, 1, 1], 0.1)
        field = compute_esdf(grid, truncation=5.0)
        body = BodyGeometry(height=0.1)
        # the sample at angle pi lies 0.2 m beyond the map's x = 0 face, so
        # the extension's distance there, truncation minus 0.2 m, is the least
        d, grad_pos, grad_rad = one_row(field, [0.1, 0.5, 0.5], body, 0.3)
        assert d == pytest.approx(5.0 - 0.2, abs=1e-12)
        assert grad_pos == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert grad_rad == pytest.approx(-1.0, abs=1e-12)

    def test_attachments_only_lower_clearance(self):
        occ = np.zeros((16, 16, 16), dtype=bool)
        occ[12, 8, 8] = True
        field = compute_esdf(VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ), truncation=5.0)
        plain = BodyGeometry(height=0.1)
        import dataclasses

        loaded = dataclasses.replace(plain, attachments=np.array([[0.0, 0.0, -0.3], [0.3, 0.0, 0.0]]))
        center = [0.7, 0.8, 0.8]
        assert one_row(field, center, loaded, 0.2)[0] <= one_row(field, center, plain, 0.2)[0] + 1e-15


def test_points_in_bounds():
    field = compute_esdf(build_grid([], [0, 0, 0], [1, 1, 1], 0.1), truncation=5.0)
    mask = points_in_bounds(field, [[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
    assert mask.tolist() == [True, False]


def test_clearance_batch_matches_single():
    occ = np.zeros((14, 14, 14), dtype=bool)
    occ[9, 6:8, 6:8] = True
    field = compute_esdf(VoxelGrid(origin=np.zeros(3), resolution=0.1, occupancy=occ), truncation=5.0)
    body = BodyGeometry(height=0.1)
    centers = np.array([[0.5, 0.7, 0.7], [0.6, 0.6, 0.7]])
    radii = np.array([0.18, 0.15])
    batch = clearance_batch(field, centers, radii, body)
    for i in range(2):
        single = clearance_batch(field, centers[i:i + 1], radii[i:i + 1], body)
        for got, want in zip(batch, single):
            assert np.array_equal(got[i], want[0])
