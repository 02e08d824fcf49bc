"""Staggered-grid geometry: the computational box, voxel regions, boundary
patches and the covering constructions (chains of balls, cube tessellations)
used by the propagation experiments.

Conventions.  The box spans ``origin + [0, n*h]^3`` and is split into
``n = (nx, ny, nz)`` cubic cells of side ``h``.  Electric degrees of freedom
sit at edge midpoints (tangential component along the edge), magnetic ones at
face centers (normal component).  Flat dof indices enumerate the x, y, z
families in that order, C-ordered within each family.  All geometry values
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import store
from .errors import ConfigurationError, DegenerateRegionError, GeometryError

SIDES = ("x-", "x+", "y-", "y+", "z-", "z+")


def cell_offsets(family, axis):
    """Offsets, within a cell, of its dofs of direction ``axis``: the 4
    parallel edges or the 2 opposite faces, in ``itertools.product`` order.

    A dof at grid slot s touches the cells s - o over these offsets o; this
    one list drives the dof volumes, the cell means and the cross-pair blocks.
    """
    across = ((axis + 1) % 3, (axis + 2) % 3) if family == "edge" else (axis,)
    out = []
    for bits in itertools.product((0, 1), repeat=len(across)):
        o = [0, 0, 0]
        for d, v in zip(across, bits):
            o[d] = v
        out.append(o)
    return out


def _ravel(shape, i, j, k):
    return (i * shape[1] + j) * shape[2] + k


class Grid:
    """Uniform staggered grid over an axis-aligned box.

    Exposes the edge/face dof bookkeeping needed by the solver: per-family
    shapes, flat-index offsets, midpoint coordinates and the boundary split
    of the electric dofs.
    """

    def __init__(self, n, h, origin=(0.0, 0.0, 0.0)):
        n = tuple(int(v) for v in n)
        if len(n) != 3 or any(v < 4 for v in n):
            raise ConfigurationError(f"grid needs at least 4 cells per axis, got {n}")
        if not (h > 0):
            raise ConfigurationError(f"grid spacing must be positive, got {h}")
        self.n = n
        self.h = float(h)
        self.origin = np.asarray(origin, dtype=float)
        if self.origin.shape != (3,):
            raise ConfigurationError("origin must be a 3-vector")
        nx, ny, nz = n
        self.edge_shapes = ((nx, ny + 1, nz + 1), (nx + 1, ny, nz + 1), (nx + 1, ny + 1, nz))
        self.face_shapes = ((nx + 1, ny, nz), (nx, ny + 1, nz), (nx, ny, nz + 1))
        self.edge_counts = tuple(int(np.prod(s)) for s in self.edge_shapes)
        self.face_counts = tuple(int(np.prod(s)) for s in self.face_shapes)
        self.edge_offsets = (0, self.edge_counts[0], self.edge_counts[0] + self.edge_counts[1])
        self.face_offsets = (0, self.face_counts[0], self.face_counts[0] + self.face_counts[1])
        self.n_edges = sum(self.edge_counts)
        self.n_faces = sum(self.face_counts)
        self.n_cells = nx * ny * nz

    # -- dof indexing -----------------------------------------------------

    def edge_index(self, axis, i, j, k):
        """Flat index of the edge dof of direction ``axis`` at grid slot (i, j, k)."""
        return self.edge_offsets[axis] + _ravel(self.edge_shapes[axis], i, j, k)

    def face_index(self, axis, i, j, k):
        return self.face_offsets[axis] + _ravel(self.face_shapes[axis], i, j, k)

    def _family_grids(self, shapes, half_axis):
        """Midpoints of one staggered family; ``half_axis`` gets the +1/2 shift."""
        out = []
        for axis in range(3):
            shape = shapes[axis]
            idx = np.indices(shape, dtype=float)
            coords = [idx[d] for d in range(3)]
            shift = half_axis(axis)
            for d in range(3):
                coords[d] = (coords[d] + (0.5 if d in shift else 0.0)) * self.h
                coords[d] += self.origin[d]
            out.append(np.stack(coords, axis=-1).reshape(-1, 3))
        return np.concatenate(out, axis=0)

    def edge_midpoints(self):
        """(n_edges, 3) midpoint coordinates, family-ordered."""
        return self._family_grids(self.edge_shapes, lambda a: (a,))

    def face_centers(self):
        return self._family_grids(self.face_shapes, lambda a: tuple(d for d in range(3) if d != a))

    def cell_centers(self):
        nx, ny, nz = self.n
        idx = np.indices((nx, ny, nz), dtype=float)
        pts = np.stack([(idx[d] + 0.5) * self.h + self.origin[d] for d in range(3)], axis=-1)
        return pts.reshape(-1, 3)

    def edge_components(self):
        """Direction (0, 1, 2) of every edge dof."""
        return np.repeat(np.arange(3), self.edge_counts)

    def face_components(self):
        return np.repeat(np.arange(3), self.face_counts)

    # -- boundary split ---------------------------------------------------

    def boundary_edge_mask(self):
        """True for edges lying in a boundary plane (tangential trace dofs)."""
        masks = []
        for axis in range(3):
            shape = self.edge_shapes[axis]
            t1, t2 = (axis + 1) % 3, (axis + 2) % 3
            idx = np.indices(shape)
            m = (idx[t1] == 0) | (idx[t1] == self.n[t1]) | (idx[t2] == 0) | (idx[t2] == self.n[t2])
            masks.append(m.reshape(-1))
        return np.concatenate(masks)

    def interior_edge_indices(self):
        return np.flatnonzero(~self.boundary_edge_mask())

    def boundary_edge_indices(self):
        return np.flatnonzero(self.boundary_edge_mask())

    def dof_volumes(self, family, cells=None):
        """h^3 times the mean of a per-cell weight over the cells adjacent to
        each dof: the 4 around an edge of ``family="edge"``, the 2 on either
        side of a face of ``family="face"``; cells outside the box count as
        zero.

        ``cells`` is a region mask of shape ``n``, a tensor diagonal of shape
        ``n + (3,)`` (column a feeding the dofs of direction a), or ``None``
        for 1 in every cell.  Returns the flat, family-ordered per-dof
        volumes: the L2 quadrature weights of a region, or the lumped
        diagonal of a material mass matrix.
        """
        cells = np.ones(self.n) if cells is None else np.asarray(cells)
        if cells.shape == self.n:
            cells = cells[..., None]
        padded = np.zeros(tuple(v + 2 for v in self.n) + (3,))
        padded[1:-1, 1:-1, 1:-1] = cells
        shapes = self.edge_shapes if family == "edge" else self.face_shapes
        count = 4.0 if family == "edge" else 2.0
        out = []
        for axis, shape in enumerate(shapes):
            acc = np.zeros(shape)
            # cell s - o of dof slot s sits at padded index s - o + 1; floating
            # sums depend on their order, and this one keeps reports byte-stable
            for o in reversed(cell_offsets(family, axis)):
                sl = tuple(slice(1 - o[d], 1 - o[d] + shape[d]) for d in range(3))
                acc += padded[sl + (axis,)]
            out.append(acc.reshape(-1))
        return np.concatenate(out) / count * self.h ** 3

    def cell_means(self, values, family):
        """Average flat, family-ordered edge or face values over each cell:
        per direction the 4 parallel edges or the 2 opposite faces.  Returns
        (n_cells, 3), column a the mean of the direction-a dofs."""
        values = np.asarray(values)
        shapes = self.edge_shapes if family == "edge" else self.face_shapes
        offsets = self.edge_offsets if family == "edge" else self.face_offsets
        out = np.empty((self.n_cells, 3), dtype=values.dtype)
        for axis, block in enumerate(np.split(values, offsets[1:])):
            block = block.reshape(shapes[axis])
            pieces = [block[tuple(slice(o[d], o[d] + self.n[d]) for d in range(3))]
                      for o in cell_offsets(family, axis)]
            acc = pieces[0]
            for piece in pieces[1:]:
                acc = acc + piece
            out[:, axis] = (acc / len(pieces)).reshape(-1)
        return out

    # -- provenance -------------------------------------------------------

    def key(self):
        return ("grid", self.n, self.h, tuple(self.origin.tolist()))

    def __repr__(self):
        return f"Grid(n={self.n}, h={self.h:g}, origin={tuple(self.origin)})"


class Region:
    """A nonempty voxel set inside the grid box, keyed by its mask."""

    def __init__(self, grid: Grid, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != grid.n:
            raise ConfigurationError(f"mask shape {mask.shape} != grid cells {grid.n}")
        if not mask.any():
            raise DegenerateRegionError("region mask is empty")
        self.grid = grid
        self.mask = mask
        self.mask.flags.writeable = False

    def volume(self):
        return float(self.mask.sum()) * self.grid.h ** 3

    def cell_count(self):
        return int(self.mask.sum())

    def require_target(self, name="target region"):
        """Raise GeometryError unless the region keeps one cell of clearance
        from the box walls and has a connected complement (the standing
        geometry hypotheses of the approximation argument)."""
        if self.mask[1:-1, 1:-1, 1:-1].sum() < self.mask.sum():
            raise GeometryError(f"{name} must be compactly contained in the box")
        if not self.complement_connected():
            raise GeometryError(f"{name} must have a connected complement")

    def complement_connected(self):
        """6-neighbor connectivity of the complement voxel set within the box."""
        comp = ~self.mask
        return bool(comp.any()) and _component_count(comp) == 1

    def is_connected(self):
        """6-neighbor connectivity of the voxel set itself."""
        return _component_count(self.mask) == 1

    def key(self):
        return ("region", store.array_digest(self.mask))

    def __repr__(self):
        return f"Region(cells={self.cell_count()})"


def _component_count(mask):
    """Number of 6-connected components of a voxel mask."""
    from scipy import ndimage  # loaded at the first region test only
    return ndimage.label(mask, structure=ndimage.generate_binary_structure(3, 1))[1]


def build_grid(n, h, origin=(0.0, 0.0, 0.0)) -> Grid:
    """Construct the staggered grid; rejects axes below the 4-cell minimum."""
    return Grid(n, h, origin)


def finite_number(v):
    """A finite int or float; bools, strings and null are not numbers."""
    return type(v) in (int, float) and abs(v) < np.inf


# a point key's rule, shared with the experiment config table
POINT = ("a list of three finite numbers",
         lambda v: isinstance(v, list) and len(v) == 3 and all(map(finite_number, v)))
_PARTS = ("a non-empty list of shapes", lambda v: isinstance(v, list) and len(v) > 0)
# each shape kind's keys, as key: (what its value must be, its test)
_SHAPE_KEYS = {
    "ball": {"center": POINT, "r": ("a finite number > 0", lambda v: finite_number(v) and v > 0)},
    "box": {"lo": POINT, "hi": POINT},
    "union": {"parts": _PARTS},
    "intersection": {"parts": _PARTS},
    "complement": {"part": ("a shape", lambda v: isinstance(v, dict))},
}


def check_shape(spec, name):
    """Raise ConfigurationError naming ``name`` and the bad key unless
    ``spec`` is a shape: a known kind, three-number points, r > 0 and
    non-empty ``parts``, checked down every nested shape."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{name} must be a shape object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SHAPE_KEYS:
        raise ConfigurationError(
            f"{name}.kind must be one of {', '.join(_SHAPE_KEYS)}, got {kind!r}")
    for key, (what, test) in _SHAPE_KEYS[kind].items():
        if key not in spec:
            raise ConfigurationError(f"{name}.{key} is missing; it must be {what}")
        if not test(spec[key]):
            raise ConfigurationError(f"{name}.{key} must be {what}, got {spec[key]!r}")
    if kind == "complement":
        check_shape(spec["part"], f"{name}.part")
    for i, part in enumerate(spec["parts"] if kind in ("union", "intersection") else ()):
        check_shape(part, f"{name}.parts[{i}]")


def _shape_predicate(grid: Grid, spec):
    centers = grid.cell_centers()
    kind = spec.get("kind")
    if kind == "ball":
        c = np.asarray(spec["center"], dtype=float)
        r = float(spec["r"])
        return np.linalg.norm(centers - c, axis=1) < r
    if kind == "box":
        lo = np.asarray(spec["lo"], dtype=float)
        hi = np.asarray(spec["hi"], dtype=float)
        return np.all((centers >= lo) & (centers <= hi), axis=1)
    if kind == "union":
        parts = [_shape_predicate(grid, s) for s in spec["parts"]]
        return np.logical_or.reduce(parts)
    if kind == "intersection":
        parts = [_shape_predicate(grid, s) for s in spec["parts"]]
        return np.logical_and.reduce(parts)
    if kind == "complement":
        return ~_shape_predicate(grid, spec["part"])
    raise ConfigurationError(f"unknown shape kind {kind!r}")


def carve_region(grid: Grid, shape, name="shape") -> Region:
    """Voxelize a shape spec by the cell-center membership test; an empty
    region raises an error that calls the shape ``name``."""
    mask = _shape_predicate(grid, shape).reshape(grid.n)
    if not mask.any():
        raise DegenerateRegionError(f"{name} ({shape['kind']}) selects no cells")
    return Region(grid, mask)


def surface_distance(grid: Grid, mask):
    """Distance from cell centers to the region's boundary surface.

    Euclidean distance transform against the complement (with a padding ring
    standing in for the outside of the box), corrected by h/2 so that
    axis-aligned walls are measured to the wall plane, not to the neighbor
    cell center.
    """
    from scipy import ndimage
    padded = np.zeros((grid.n[0] + 2, grid.n[1] + 2, grid.n[2] + 2), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = mask
    dist = ndimage.distance_transform_edt(padded, sampling=grid.h)
    return dist[1:-1, 1:-1, 1:-1] - grid.h / 2.0


def interior_margin(region: Region, r) -> Region:
    """Cells of the region whose distance to its boundary exceeds ``r``."""
    if not (r > 0):
        raise ConfigurationError("margin must be positive")
    dist = surface_distance(region.grid, region.mask)
    mask = region.mask & (dist > r)
    if not mask.any():
        raise DegenerateRegionError(f"margin {r:g} empties the region")
    return Region(region.grid, mask)


def _side_frame(grid: Grid, side):
    """(normal axis, tangential axes, boundary plane index) of one box side."""
    axis = "xyz".index(side[0])
    t1, t2 = [d for d in range(3) if d != axis]
    plane = 0 if side[1] == "-" else grid.n[axis]
    return axis, t1, t2, plane


class BoundaryPatch:
    """A set of boundary faces on one or more box sides plus their tangential edges.

    ``edge_dofs`` lists, sorted, the flat indices of every tangential edge of
    the faces, ``edge_area`` the h^2-weighted area share each edge carries and
    ``rim_mask`` the edges with fewer than two faces on their home side (the
    side holding most of their faces; edges along lines where sides meet
    count as rim).  ``face_edges`` is the (n_faces, 4) incidence: the
    positions in ``edge_dofs`` of each face's edges.  ``inward_faces`` holds,
    per edge, the face dof of the other tangential direction half a cell
    inward of the edge on its home side.
    """

    def __init__(self, grid: Grid, sides, edge_dofs, edge_area, rim_mask, face_edges,
                 inward_faces):
        self.grid = grid
        self.sides = tuple(sides)
        self.edge_dofs = edge_dofs
        self.edge_area = edge_area
        self.rim_mask = rim_mask
        self.face_edges = face_edges
        self.inward_faces = inward_faces
        for arr in (edge_dofs, edge_area, rim_mask, face_edges, inward_faces):
            arr.flags.writeable = False

    @property
    def n_dofs(self):
        return len(self.edge_dofs)

    def select(self, collar="include_rim"):
        if collar == "include_rim":
            return np.arange(self.n_dofs)
        if collar == "exclude_rim":
            return np.flatnonzero(~self.rim_mask)
        raise ConfigurationError(f"unknown collar convention {collar!r}")

    def key(self):
        # the trace Gram reads face_edges: an operator cache entry holds its factor
        return ("patch", self.sides,
                store.array_digest(self.edge_dofs, self.edge_area, self.rim_mask),
                store.array_digest(self.face_edges))

    def __repr__(self):
        return (f"BoundaryPatch(sides={self.sides!r}, faces={len(self.face_edges)}, "
                f"dofs={self.n_dofs})")


def boundary_patch(grid: Grid, side, window=None) -> BoundaryPatch:
    """Collect boundary faces of one side (or a list of sides) inside ``window``.

    ``window`` is a pair (lo, hi) of 2-vectors in the coordinates of the two
    tangential axes of the side (axes other than the normal, in increasing
    order); None takes the whole side, and only a single-side patch may carry
    a window.  Tangential edge dofs are the edges of the selected faces lying
    in the boundary plane; edges interior to a single side's face set count
    as non-rim.
    """
    sides = [side] if isinstance(side, str) else list(side)
    if not sides or len(set(sides)) != len(sides):
        raise ConfigurationError(f"sides must be distinct and nonempty, got {side!r}")
    for s in sides:
        if s not in SIDES:
            raise ConfigurationError(f"side must be one of {SIDES}, got {s!r}")
    if window is not None and len(sides) > 1:
        raise ConfigurationError("a window applies to a single-side patch only")

    edges, inward, owner = [], [], []
    for s in sides:
        axis, t1, t2, plane = _side_frame(grid, s)
        a, b = np.meshgrid(np.arange(grid.n[t1]), np.arange(grid.n[t2]), indexing="ij")
        if window is not None:
            lo, hi = np.asarray(window[0], float), np.asarray(window[1], float)
            c1 = (a + 0.5) * grid.h + grid.origin[t1]
            c2 = (b + 0.5) * grid.h + grid.origin[t2]
            keep = (c1 >= lo[0]) & (c1 <= hi[0]) & (c2 >= lo[1]) & (c2 <= hi[1])
            if not keep.any():
                raise ConfigurationError(f"window {window} misses side {s!r}")
            a, b = a[keep], b[keep]
        a, b = a.ravel(), b.ravel()
        # the cell layer next to the wall
        layer = 0 if plane == 0 else plane - 1

        def at(normal, i1, i2):
            coords = [normal] * 3
            coords[t1], coords[t2] = i1, i2
            return coords

        # per face, its four tangential edges as (edge direction, the other
        # tangential direction, t1 slot, t2 slot)
        corners = ((t1, t2, a, b), (t1, t2, a, b + 1), (t2, t1, a, b), (t2, t1, a + 1, b))
        edges.append(np.stack([grid.edge_index(d, *at(plane, i1, i2))
                               for d, _, i1, i2 in corners], axis=1))
        inward.append(np.stack([grid.face_index(o, *at(layer, i1, i2))
                                for _, o, i1, i2 in corners], axis=1))
        owner.append(np.full(len(a), SIDES.index(s)))
    edges, inward = np.concatenate(edges), np.concatenate(inward)
    owner = np.concatenate(owner)[:, None]

    dofs, pos = np.unique(edges.ravel(), return_inverse=True)
    pos = pos.reshape(edges.shape)
    shares = np.zeros((len(dofs), len(SIDES)), dtype=int)
    np.add.at(shares, (pos, owner), 1)
    # home side: most shares, ties to the larger side name
    by_name = np.argsort(SIDES)[::-1]
    home = by_name[np.argmax(shares[:, by_name], axis=1)]
    rim = shares[np.arange(len(dofs)), home] < 2
    area = shares.sum(axis=1) * grid.h ** 2 / 4.0
    on_home = owner == home[pos]
    inward_faces = np.empty(len(dofs), dtype=int)
    inward_faces[pos[on_home]] = inward[on_home]
    return BoundaryPatch(grid, sides, dofs, area, rim, pos, inward_faces)


def whole_boundary(grid: Grid) -> BoundaryPatch:
    """A patch spanning all six sides, carrying every tangential boundary edge."""
    return boundary_patch(grid, list(SIDES))


class BallChain:
    """Ball centers generated by the max-parameter stepping rule along a path."""

    def __init__(self, centers, r1, path):
        self.centers = np.asarray(centers, dtype=float)
        self.r1 = float(r1)
        self.r2 = 3.0 * self.r1
        self.r3 = 9.0 * self.r1
        self.path = np.asarray(path, dtype=float)

    @property
    def count(self):
        return len(self.centers)

    def check_invariants(self, host: Region | None = None):
        """Disjointness, nesting and the volume count bound; raises on failure.

        Adjacent centers sit at distance exactly 2*r1 up to roundoff of the
        stepping arithmetic, so those two comparisons carry a guard scaled to
        the coordinate magnitude; every other pair is strict.
        """
        eps = np.finfo(float).eps
        x = self.centers
        n = len(x)
        d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        scale = float(np.abs(x).max(initial=1.0)) + 2.0 * self.r1
        guard = 64 * eps * scale
        for j in range(n):
            for k in range(j + 1, n):
                tol = guard if k == j + 1 else 0.0
                if d[j, k] < 2.0 * self.r1 - tol:
                    raise GeometryError(f"balls {j},{k} overlap: |x_j-x_k|={d[j, k]:.17g} < 2*r1")
        for k in range(n - 1):
            if d[k, k + 1] + self.r1 > self.r2 + guard:
                raise GeometryError(f"nesting fails at {k}: {d[k, k + 1] + self.r1:.17g} > r2")
        if host is not None:
            bound = host.volume() / ((4.0 * np.pi / 3.0) * self.r1 ** 3) + 1.0
            if n > bound:
                raise GeometryError(f"chain count {n} exceeds volume bound {bound:g}")
        return True


def _segment_sphere_exits(p0, p1, center, radius):
    """Parameters s in [0, 1] along p0->p1 with |p(s) - center| = radius."""
    d = p1 - p0
    f = p0 - center
    a = float(d @ d)
    if a == 0.0:
        return []
    b = 2.0 * float(f @ d)
    c = float(f @ f) - radius * radius
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    sq = np.sqrt(disc)
    # a > 0 and sq >= 0, so the roots come in increasing order
    return [s for s in ((-b - sq) / (2 * a), (-b + sq) / (2 * a)) if 0.0 <= s <= 1.0]


def chain_of_balls(path, r1, host: Region) -> BallChain:
    """Step along ``path`` placing centers where the distance to the previous
    center last equals 2*r1 (the largest such parameter), with the proof
    ratios r2 = 3*r1, r3 = 9*r1.

    The path must stay inside the host region eroded by r3; sampled at h/4
    resolution against the voxelized erosion.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 3 or len(path) < 1:
        raise ConfigurationError("path must be an (m, 3) polyline")
    if not (r1 > 0):
        raise ConfigurationError("r1 must be positive")
    r3 = 9.0 * r1
    grid = host.grid

    eroded = interior_margin(host, r3)
    _require_path_inside(grid, eroded.mask, path)

    seg_len = np.linalg.norm(np.diff(path, axis=0), axis=1) if len(path) > 1 else np.array([])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])

    centers = [path[0]]
    t_cur = 0.0
    while True:
        xk = centers[-1]
        nxt = None
        # Last crossing: scan segments from the end of the path backwards.
        for si in range(len(path) - 2, -1, -1):
            if cum[si + 1] <= t_cur:
                break
            roots = _segment_sphere_exits(path[si], path[si + 1], xk, 2.0 * r1)
            params = [cum[si] + s * seg_len[si] for s in roots]
            params = [t for t in params if t > t_cur + 1e-12 * max(1.0, cum[-1])]
            if params:
                nxt = max(params)
                break
        if nxt is None:
            break
        t_cur = nxt
        centers.append(_point_at(path, cum, seg_len, t_cur))
    chain = BallChain(np.asarray(centers), r1, path)
    chain.check_invariants(host)
    return chain


def _point_at(path, cum, seg_len, t):
    si = int(np.searchsorted(cum, t, side="right")) - 1
    si = min(max(si, 0), len(seg_len) - 1)
    s = 0.0 if seg_len[si] == 0 else (t - cum[si]) / seg_len[si]
    return path[si] + s * (path[si + 1] - path[si])


def _require_path_inside(grid: Grid, mask, path):
    samples = [path[0]]
    for a, b in zip(path[:-1], path[1:]):
        steps = max(2, int(np.ceil(np.linalg.norm(b - a) / (grid.h / 4.0))))
        for s in np.linspace(0.0, 1.0, steps + 1):
            samples.append(a + s * (b - a))
    for p in samples:
        idx = np.floor((p - grid.origin) / grid.h).astype(int)
        if np.any(idx < 0) or np.any(idx >= grid.n) or not mask[tuple(idx)]:
            raise GeometryError(f"path point {p} leaves the host eroded by r3")


class CubeCover:
    """Tessellation cubes meeting a region: side, and hit mask over a lattice
    box whose first cube has integer corner ``corner``."""

    def __init__(self, hit, corner, side):
        self.hit = hit
        self.corner = np.asarray(corner, dtype=np.int64)
        self.side = float(side)

    @property
    def lattice(self):
        """(N, 3) integer corners of the hit cubes, in C order."""
        return np.argwhere(self.hit) + self.corner

    def __len__(self):
        return int(np.count_nonzero(self.hit))

    def diagonal(self):
        return self.side * np.sqrt(3.0)


def cube_cover(region: Region, r1) -> CubeCover:
    """Axis-aligned tessellation cubes of side 2*r1/sqrt(3) meeting the region.

    The cube diagonal is exactly 2*r1, so each cube fits inside the ball of
    radius r1 around its own center.  Overlap is tested with open interiors,
    so cubes merely touching a region face are not counted.
    """
    if not (r1 > 0):
        raise ConfigurationError("r1 must be positive")
    grid = region.grid
    side = 2.0 * r1 / np.sqrt(3.0)
    occupied = np.argwhere(region.mask)
    first, last = occupied.min(axis=0), occupied.max(axis=0) + 1
    hit = region.mask[tuple(map(slice, first, last))]
    corner = []
    for d in range(3):
        lo = np.arange(first[d], last[d]) * grid.h + grid.origin[d]
        hi = lo + grid.h
        j = np.arange(np.floor(lo[0] / side) - 1, np.ceil(hi[-1] / side) + 1)
        lo, hi = lo[:, None], hi[:, None]
        # voxel slab i meets the open interior of cube j along axis d; the
        # floor/ceil bounds keep out a cube whose face lies on the slab's
        # face when rounding of j * side puts it just inside
        meets = ((j >= np.floor(lo / side)) & ((j + 1) * side > lo)
                 & (j < np.ceil(hi / side)) & (j * side < hi))
        # a cube is hit when one occupied voxel meets it along every axis;
        # each contraction replaces the leading voxel axis by a trailing
        # lattice axis, so the box ends in (j_x, j_y, j_z) order
        hit = np.tensordot(hit, meets.astype(np.float32), axes=(0, 0)) > 0
        corner.append(int(j[0]))
    return CubeCover(hit, corner, side)
