import numpy as np
import pytest

import rungelab as rl
from rungelab.errors import ConfigurationError, DegenerateRegionError, GeometryError
from rungelab import store
from rungelab.analysis import _patch_graph_laplacian
from rungelab.geometry import (SIDES, BallChain, chain_of_balls, cube_cover, interior_margin,
                               whole_boundary)

from conftest import cell_dof_slots, load_config

CAUCHY_SIDES = ["x-", "y-", "y+", "z-", "z+"]


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
    assert len(patch.select("exclude_rim")) == 2 * 8 * 7
    mids = grid8.edge_midpoints()[patch.edge_dofs]
    assert np.all(mids[:, 0] == 0.0)


def test_boundary_patch_single_face_window(grid8):
    patch = rl.boundary_patch(grid8, "x-", window=((0.0, 0.0), (0.125, 0.125)))
    assert patch.n_dofs == 4


def test_boundary_patch_disjoint_window(grid8):
    with pytest.raises(ConfigurationError):
        rl.boundary_patch(grid8, "x-", window=((2.0, 2.0), (3.0, 3.0)))


def test_boundary_patch_rejects_bad_sides(grid8):
    for side in ([], ["x-", "x-"], "w+", ["x-", "q-"]):
        with pytest.raises(ConfigurationError):
            rl.boundary_patch(grid8, side)
    with pytest.raises(ConfigurationError):
        rl.boundary_patch(grid8, ["x-", "y-"], window=((0.0, 0.0), (0.5, 0.5)))


# BoundaryPatch.key() digests computed with the per-face-loop construction
# the array one replaced: every operator provenance and cache file name
# depends on these bytes.
PATCH_DIGESTS = {
    (5, 7, 4): {
        "x-": "8d75cf79182a31130bec5b79d0238730", "x+": "e78ac5ed60c2b9b6eb3659742d10528e",
        "y-": "7fd5933840d698fdbac632646de76d05", "y+": "8df1702f06af19409bed55939196eef9",
        "z-": "0ea4fac3e140a614574470b34c0a9a80", "z+": "ee685fb0b51f020a8f99b13a9ffcb8ce",
        "window": "29981346bf4bba535cc6448ea3fc5331",
        "cauchy": "b5daf132addda2c1b3d9a6d262af2026",
        "whole": "d1b3421184d77adedbd749b737cd9cc0"},
    (10, 10, 10): {
        "x-": "c6e314cf17881a86ef11c878835ba19c", "x+": "8234f7a38fc1d0a4f86e70e15add238b",
        "y-": "e9380102ee7efd813dba8d4b4681b382", "y+": "1bce17572995b511bb78a5557e63011a",
        "z-": "97df80d30cbb82471c834ad0641b8bdb", "z+": "18f4288655096f0fef5992d3d298ecc5",
        "window": "e401c12c82d79a2506ca810a731c7be4",
        "cauchy": "70feb1e1f394d1f2d24b215d032e9fca",
        "whole": "11074bf7a492498319bb7bf7629776cf"},
}


def _named_patches(grid):
    out = {s: rl.boundary_patch(grid, s) for s in SIDES}
    out["window"] = rl.boundary_patch(grid, "y+", ((0.2, 0.1), (0.7, 0.5)))
    out["cauchy"] = rl.boundary_patch(grid, CAUCHY_SIDES)
    out["whole"] = whole_boundary(grid)
    return out


@pytest.mark.parametrize("n, h", [((5, 7, 4), 0.2), ((10, 10, 10), 0.1)])
def test_patch_keys_pinned(n, h):
    patches = _named_patches(rl.build_grid(n, h))
    assert {name: p.key()[2] for name, p in patches.items()} == PATCH_DIGESTS[n]


def test_cauchy_h_dofs_pinned():
    cfg = load_config("cauchy_reference.json")
    grid = rl.build_grid(cfg["grid"]["n"], cfg["grid"]["h"], cfg["grid"]["origin"])
    patch = rl.boundary_patch(grid, cfg["patch"]["side"])
    h_dofs = patch.inward_faces[patch.select(cfg["patch"]["collar"])]
    assert len(h_dofs) == 1020
    assert store.array_digest(h_dofs) == "f5b0ef984e35f21665e5055e633321de"


def _face_sides(patch):
    """Side of every row of ``face_edges``, read off its edge midpoints: the
    one axis on which the four midpoints agree, on the low or high wall."""
    grid = patch.grid
    mids = grid.edge_midpoints()[patch.edge_dofs][patch.face_edges]
    out = []
    for quad in mids:
        (axis,) = [d for d in range(3) if np.all(quad[:, d] == quad[0, d])]
        low = quad[0, axis] == grid.origin[axis]
        out.append("xyz"[axis] + ("-" if low else "+"))
    return out


@pytest.mark.parametrize("n, h", [((5, 7, 4), 0.2), ((6, 6, 6), 1 / 6)])
def test_patch_topology_matches_per_face_loop(n, h):
    grid = rl.build_grid(n, h)
    mids, edge_comp = grid.edge_midpoints(), grid.edge_components()
    centers, face_comp = grid.face_centers(), grid.face_components()
    for patch in _named_patches(grid).values():
        # every face row is a boundary square: four distinct edges, h/2 from its center
        quads = mids[patch.edge_dofs][patch.face_edges]
        assert np.allclose(np.linalg.norm(quads - quads.mean(axis=1, keepdims=True), axis=2),
                           h / 2)
        assert len({tuple(sorted(r)) for r in patch.face_edges.tolist()}) == len(patch.face_edges)
        shares = [dict() for _ in range(patch.n_dofs)]
        for side, row in zip(_face_sides(patch), patch.face_edges.tolist()):
            for i in row:
                shares[i][side] = shares[i].get(side, 0) + 1
        assert set().union(*shares) == set(patch.sides)
        for i, per_side in enumerate(shares):
            home = max(per_side, key=lambda s: (per_side[s], s))
            assert patch.rim_mask[i] == (per_side[home] < 2)
            assert patch.edge_area[i] == sum(per_side.values()) * h ** 2 / 4.0
            # the inward face: h/2 from the edge along the home normal, its
            # direction the axis that is neither the edge's nor the normal
            axis = "xyz".index(home[0])
            inward = np.zeros(3)
            inward[axis] = h / 2 if home[1] == "-" else -h / 2
            dof, face = patch.edge_dofs[i], patch.inward_faces[i]
            assert np.allclose(centers[face] - mids[dof], inward)
            assert face_comp[face] == 3 - axis - edge_comp[dof]


@pytest.mark.parametrize("collar", ["include_rim", "exclude_rim"])
def test_patch_laplacian_structure(collar):
    grid = rl.build_grid((5, 7, 4), 0.2)
    for patch in _named_patches(grid).values():
        sel = patch.select(collar)
        S = _patch_graph_laplacian(patch, sel)
        pos = {int(p): i for i, p in enumerate(sel)}
        neighbours = [set() for _ in sel]
        for row in patch.face_edges.tolist():
            members = [pos[p] for p in row if p in pos]
            for u in members:
                neighbours[u].update(v for v in members if v != u)
        assert np.array_equal(S, S.T)
        assert np.all(S.sum(axis=1) == 0)
        assert np.array_equal(np.diag(S), [len(nb) for nb in neighbours])
        off = S - np.diag(np.diag(S))
        assert set(np.unique(off)) <= {-1.0, 0.0}
        assert [set(np.flatnonzero(r)) for r in off] == neighbours


def test_region_connectivity(grid8):
    ball = rl.carve_region(grid8, {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.3})
    assert ball.complement_connected()
    assert ball.is_connected()
    slab = rl.carve_region(grid8, {"kind": "box", "lo": [0.4, 0, 0], "hi": [0.6, 1, 1]})
    assert not slab.complement_connected()
    assert slab.is_connected()
    pair = rl.carve_region(grid8, {"kind": "union", "parts": [
        {"kind": "ball", "center": [0.25, 0.5, 0.5], "r": 0.15},
        {"kind": "ball", "center": [0.75, 0.5, 0.5], "r": 0.15}]})
    assert not pair.is_connected()
    ball.require_target()
    with pytest.raises(GeometryError, match="^target region must be compactly contained"):
        slab.require_target()
    # a shell is compactly contained but encloses part of its complement
    shell = rl.carve_region(grid8, {"kind": "intersection", "parts": [
        {"kind": "ball", "center": [0.5] * 3, "r": 0.35},
        {"kind": "complement", "part": {"kind": "ball", "center": [0.5] * 3, "r": 0.2}}]})
    with pytest.raises(GeometryError, match="^target region must have a connected complement"):
        shell.require_target()


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
    # a voxel that is one lattice cube is covered by that cube alone, also
    # where the next cube's face 18 * 0.05 rounds below the voxel's upper face
    g = rl.build_grid((4, 4, 4), 0.05, origin=(0.8, 0.8, 0.8))
    m = np.zeros(g.n, dtype=bool)
    m[1, 1, 1] = True
    cover = cube_cover(rl.Region(g, m), np.sqrt(3) / 2 * 0.05)
    assert cover.lattice.tolist() == [[17, 17, 17]]


def test_cube_cover_single_voxel(grid8):
    m = np.zeros(grid8.n, dtype=bool)
    m[3, 4, 5] = True
    vox = rl.Region(grid8, m)
    r1 = np.sqrt(3) * grid8.h / 2 * 1.01
    cover = cube_cover(vox, r1)
    assert 1 <= len(cover) <= 8
    # diagonal equals 2 r1 so each cube fits a radius-r1 ball
    assert abs(cover.diagonal() - 2 * r1) < 1e-12


@pytest.mark.parametrize("r1, origin", [
    (0.02, (-0.3, 0.1, 0.05)), (0.0625, (-0.3, 0.1, 0.05)), (0.1, (-0.3, 0.1, 0.05)),
    # cube faces on voxel faces: touching cubes must not count
    (np.sqrt(3) / 2 * 0.125, (0.0, 0.0, 0.0)), (np.sqrt(3) / 4 * 0.125, (0.25, -0.5, 0.0)),
])
def test_cube_cover_matches_brute_force(r1, origin):
    # an irregular region on a non-cubic grid, against every (voxel, cube)
    # pair: open cube interiors meeting the voxel box
    g = rl.build_grid((5, 6, 4), 0.125, origin=origin)
    mask = np.random.default_rng(3).random(g.n) < 0.3
    cover = cube_cover(rl.Region(g, mask), r1)
    side = 2.0 * r1 / np.sqrt(3.0)
    lo_box = g.origin
    hi_box = g.origin + np.array(g.n) * g.h
    axes = [np.arange(np.floor(lo_box[d] / side) - 1, np.ceil(hi_box[d] / side) + 1)
            for d in range(3)]
    cubes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    hit = np.zeros(len(cubes), dtype=bool)
    for v in np.argwhere(mask):
        lo = v * g.h + g.origin
        hi = lo + g.h
        hit |= np.all(cubes * side < hi, axis=1) & np.all((cubes + 1) * side > lo, axis=1)
    assert np.array_equal(cover.lattice, cubes[hit].astype(np.int64))
    assert len(cover) == hit.sum()


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
    rng = np.random.default_rng(4)
    index = g.edge_index if family == "edge" else g.face_index
    count = 4 if family == "edge" else 2
    # integer values keep every sum exact, whatever the summation order: a
    # region mask shared by the three directions, 1 in every cell, or a
    # per-direction field (whose sums the cell means read below)
    field = rng.integers(-50, 50, size=g.n + (3,)).astype(float)
    mask = rng.random(g.n) < 0.5
    for cells, per_cell in ((mask, np.repeat(mask[..., None], 3, -1)),
                            (None, np.ones(g.n + (3,))), (field, field)):
        want = np.zeros(g.n_edges if family == "edge" else g.n_faces)
        for cell in np.ndindex(*g.n):
            for axis in range(3):
                for slot in cell_dof_slots(cell, family, axis):
                    want[index(axis, *slot)] += per_cell[cell + (axis,)]
        assert np.array_equal(g.dof_volumes(family, cells), want / count * g.h ** 3)
    # the cell means read the same slots the other way round
    values = want + 1j * np.arange(len(want))
    mean = np.zeros((g.n_cells, 3), dtype=complex)
    for c, cell in enumerate(np.ndindex(*g.n)):
        for axis in range(3):
            slots = cell_dof_slots(cell, family, axis)
            mean[c, axis] = sum(values[index(axis, *slot)] for slot in slots) / len(slots)
    assert np.array_equal(g.cell_means(values, family), mean)


@pytest.mark.parametrize("shape", [(4, 4, 4), (10, 10, 10), (12, 12, 12), (16, 16, 16),
                                   (8, 10, 6), (5, 7, 9)])
def test_whole_boundary_dofs_are_the_boundary_edges(shape):
    # the Cauchy reconstruction lifts data given in idx_boundary order as a
    # trace on the whole boundary
    g = rl.build_grid(shape, 0.1)
    assert np.array_equal(whole_boundary(g).edge_dofs, g.boundary_edge_indices())
