import numpy as np
import pytest

import rungelab as rl
from rungelab.errors import ConfigurationError, DegenerateRegionError, GeometryError
from rungelab.geometry import BallChain, chain_of_balls, cube_cover, interior_margin

from conftest import cell_dof_slots


def test_edge_counts_8cube(grid8):
    # staggered combinatorics: x-edges n_x (n_y+1)(n_z+1)
    assert grid8.edge_counts[0] == 8 * 9 * 9 == 648
    assert grid8.edge_counts[1] == 9 * 8 * 9
    assert grid8.n_edges == 3 * 648


def test_grid_span():
    g = rl.build_grid((4, 4, 4), 0.3)
    pts = g.cell_centers()
    assert np.allclose(pts.min(axis=0), 0.15)
    assert np.allclose(pts.max(axis=0), 4 * 0.3 - 0.15)


def test_grid_minimum_axis():
    with pytest.raises(ConfigurationError):
        rl.build_grid((3, 8, 8), 0.1)
    with pytest.raises(ConfigurationError):
        rl.build_grid((8, 8, 8), -0.1)


def test_dof_index_bijection(grid8):
    seen = set()
    for axis in range(3):
        shape = grid8.edge_shapes[axis]
        for i in range(shape[0]):
            for j in range(shape[1]):
                for k in range(shape[2]):
                    seen.add(int(grid8.edge_index(axis, i, j, k)))
    assert seen == set(range(grid8.n_edges))


def test_carve_ball_matches_bruteforce(grid8):
    r = 0.3
    center = np.array([0.5, 0.5, 0.5])
    region = rl.carve_region(grid8, {"kind": "ball", "center": center.tolist(), "r": r})
    expected = 0
    h = grid8.h
    for i in range(8):
        for j in range(8):
            for k in range(8):
                c = (np.array([i, j, k]) + 0.5) * h
                if np.linalg.norm(c - center) < r:
                    expected += 1
    assert region.cell_count() == expected


def test_carve_box_covers_all(grid8):
    region = rl.carve_region(grid8, {"kind": "box", "lo": [0, 0, 0], "hi": [1, 1, 1]})
    assert region.cell_count() == 8 ** 3


def test_carve_empty_ball(grid8):
    with pytest.raises(DegenerateRegionError):
        rl.carve_region(grid8, {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.0})


def test_shape_algebra(grid8):
    ball = {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.3}
    box = {"kind": "box", "lo": [0, 0, 0], "hi": [0.5, 1, 1]}
    union = rl.carve_region(grid8, {"kind": "union", "parts": [ball, box]})
    inter = rl.carve_region(grid8, {"kind": "intersection", "parts": [ball, box]})
    comp = rl.carve_region(grid8, {"kind": "complement", "part": box})
    nb = rl.carve_region(grid8, ball).cell_count()
    nx = rl.carve_region(grid8, box).cell_count()
    assert union.cell_count() == nb + nx - inter.cell_count()
    assert comp.cell_count() == 8 ** 3 - nx


def test_interior_margin_central_cube(grid8):
    full = rl.carve_region(grid8, {"kind": "box", "lo": [0, 0, 0], "hi": [1, 1, 1]})
    inner = interior_margin(full, 0.25)
    # distance-to-wall > 0.25 keeps centers in (0.25, 0.75): a 4^3 block
    assert inner.cell_count() == 4 ** 3
    tiny = interior_margin(full, 1e-9)
    assert tiny.cell_count() == 8 ** 3
    with pytest.raises(DegenerateRegionError):
        interior_margin(full, 0.6)


def test_interior_margin_antitone(grid8):
    full = rl.carve_region(grid8, {"kind": "box", "lo": [0, 0, 0], "hi": [1, 1, 1]})
    prev = None
    for r in (0.05, 0.15, 0.3):
        cur = interior_margin(full, r)
        if prev is not None:
            assert np.all(prev.mask | ~cur.mask), "larger margin must shrink the mask"
            assert not np.any(cur.mask & ~prev.mask)
        prev = cur


def test_boundary_patch_full_face(grid8):
    patch = rl.boundary_patch(grid8, "x-")
    assert patch.n_dofs == 2 * 8 * 9 == 144
    assert len(patch.interior_dofs()) == 2 * 8 * 7
    mids = grid8.edge_midpoints()[patch.edge_dofs]
    assert np.all(mids[:, 0] == 0.0)


def test_boundary_patch_single_face_window(grid8):
    patch = rl.boundary_patch(grid8, "x-", window=((0.0, 0.0), (0.125, 0.125)))
    assert patch.n_dofs == 4


def test_boundary_patch_disjoint_window(grid8):
    with pytest.raises(ConfigurationError):
        rl.boundary_patch(grid8, "x-", window=((2.0, 2.0), (3.0, 3.0)))


def test_region_connectivity(grid8):
    ball = rl.carve_region(grid8, {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.3})
    assert ball.complement_connected()
    slab = rl.carve_region(grid8, {"kind": "box", "lo": [0.4, 0, 0], "hi": [0.6, 1, 1]})
    assert not slab.complement_connected()
    assert ball.is_compactly_contained()
    assert not slab.is_compactly_contained()


def _host(grid):
    return rl.carve_region(grid, {"kind": "box", "lo": [0, 0, 0], "hi": [1, 1, 1]})


def test_chain_straight_segment():
    g = rl.build_grid((16, 16, 16), 1 / 16)
    host = _host(g)
    r1 = 0.01  # r3 = 0.09 leaves room inside the unit cube
    path = np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5]])
    chain = chain_of_balls(path, r1, host)
    # stepping by exactly 2*r1 along a straight segment of length 0.4
    expected = np.arange(0.3, 0.7 + 1e-12, 2 * r1)
    assert chain.count == len(expected) == 21
    assert np.allclose(chain.centers[:, 0], expected, atol=1e-12)
    assert np.allclose(chain.centers[:, 1:], 0.5)


def test_chain_short_path():
    g = rl.build_grid((16, 16, 16), 1 / 16)
    chain = chain_of_balls(np.array([[0.5, 0.5, 0.5], [0.505, 0.5, 0.5]]), 0.01, _host(g))
    assert chain.count == 1


def test_chain_nesting_exact():
    g = rl.build_grid((16, 16, 16), 1 / 16)
    chain = chain_of_balls(np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5]]), 0.01, _host(g))
    d = np.linalg.norm(np.diff(chain.centers, axis=0), axis=1)
    assert np.all(d + chain.r1 <= chain.r2 + 64 * np.finfo(float).eps)


def test_chain_rejects_escaping_path():
    g = rl.build_grid((16, 16, 16), 1 / 16)
    with pytest.raises(GeometryError):
        chain_of_balls(np.array([[0.5, 0.5, 0.5], [0.999, 0.5, 0.5]]), 0.01, _host(g))


def test_chain_random_polylines():
    g = rl.build_grid((12, 12, 12), 1 / 12)
    host = _host(g)
    rng = np.random.default_rng(42)
    for _ in range(25):
        r1 = rng.uniform(0.005, 0.012)
        pts = rng.uniform(0.2, 0.8, size=(rng.integers(2, 5), 3))
        chain = chain_of_balls(pts, r1, host)
        assert chain.check_invariants(host)


def test_cube_cover_aligned(grid8):
    full = _host(grid8)
    cover = cube_cover(full, np.sqrt(3) / 2)
    assert len(cover) == 1
    assert abs(cover.diagonal() - np.sqrt(3)) < 1e-12


def test_cube_cover_single_voxel(grid8):
    m = np.zeros(grid8.n, dtype=bool)
    m[3, 4, 5] = True
    vox = rl.Region(grid8, m)
    r1 = np.sqrt(3) * grid8.h / 2 * 1.01
    cover = cube_cover(vox, r1)
    assert 1 <= len(cover) <= 8
    # diagonal equals 2 r1 so each cube fits a radius-r1 ball
    assert abs(cover.diagonal() - 2 * r1) < 1e-12


def test_ballchain_volume_bound():
    centers = np.array([[0.1 * k, 0.0, 0.0] for k in range(4)])
    chain = BallChain(centers, 0.05, centers)
    host_grid = rl.build_grid((8, 8, 8), 0.125)
    host = _host(host_grid)
    assert chain.check_invariants(host)


def test_face_index_bijection(grid8):
    seen = set()
    for axis in range(3):
        shape = grid8.face_shapes[axis]
        for i in range(shape[0]):
            for j in range(shape[1]):
                for k in range(shape[2]):
                    seen.add(int(grid8.face_index(axis, i, j, k)))
    assert seen == set(range(grid8.n_faces))


def test_subdomain_role_requires_clearance(grid8):
    with pytest.raises(GeometryError):
        rl.carve_region(grid8, {"kind": "box", "lo": [0, 0, 0], "hi": [0.5, 1, 1]},
                        role="subdomain_A")
    rl.carve_region(grid8, {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.3},
                    role="subdomain_A")


def test_chain_literal_hand_construction():
    # a box of side 4 leaves room for the r3 = 0.9 erosion, so the stepping
    # rule can be checked at the hand-computed scale: unit segment, r1 = 0.1,
    # centers every 0.2 units of arclength, six of them
    g = rl.build_grid((4, 4, 4), 1.0)
    host = rl.carve_region(g, {"kind": "box", "lo": [0, 0, 0], "hi": [4, 4, 4]})
    path = np.array([[1.5, 2.0, 2.0], [2.5, 2.0, 2.0]])
    chain = chain_of_balls(path, 0.1, host)
    assert chain.count == 6
    assert np.allclose(chain.centers[:, 0], [1.5, 1.7, 1.9, 2.1, 2.3, 2.5], atol=1e-12)


def test_chain_out_and_back_path():
    # the stepping rule takes the last crossing, so a path that leaves and
    # re-enters the stepping sphere still yields a valid disjoint chain
    g = rl.build_grid((12, 12, 12), 1 / 12)
    host = _host(g)
    path = np.array([[0.35, 0.5, 0.5], [0.62, 0.5, 0.5], [0.4, 0.53, 0.5],
                     [0.6, 0.47, 0.52]])
    chain = chain_of_balls(path, 0.008, host)
    assert chain.check_invariants(host)
    assert chain.count >= 2


@pytest.mark.parametrize("family", ["edge", "face"])
def test_adjacent_cell_sums_match_per_cell_loop(family):
    g = rl.build_grid((5, 7, 4), 0.2)
    # integer values keep every sum exact, whatever the summation order
    field = np.random.default_rng(4).integers(-50, 50, size=g.n + (3,)).astype(float)
    index = g.edge_index if family == "edge" else g.face_index
    want = np.zeros(g.n_edges if family == "edge" else g.n_faces)
    for cell in np.ndindex(*g.n):
        for axis in range(3):
            for slot in cell_dof_slots(cell, family, axis):
                want[index(axis, *slot)] += field[cell + (axis,)]
    assert np.array_equal(g.adjacent_cell_sums(field, family), want)
    # a one-column field is shared by the three directions
    shared = g.adjacent_cell_sums(field[..., :1], family)
    assert np.array_equal(shared, g.adjacent_cell_sums(np.repeat(field[..., :1], 3, -1),
                                                       family))
