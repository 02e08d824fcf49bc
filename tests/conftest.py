import json
import os

import numpy as np
import pytest

import rungelab as rl
from rungelab.experiments import normalize_config, build_scene
from rungelab import runge_op

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def load_config(name):
    with open(os.path.join(CONFIG_DIR, name), "r", encoding="utf-8") as fh:
        return normalize_config(json.load(fh))


@pytest.fixture(scope="session")
def grid8():
    return rl.build_grid((8, 8, 8), 0.125)


@pytest.fixture(scope="session")
def vacuum8(grid8):
    return rl.make_material(grid8, {"kind": "constant", "eps": 1.0, "mu": 1.0})


@pytest.fixture(scope="session")
def sys8(grid8, vacuum8):
    return rl.assemble(grid8, vacuum8, 2.0)


@pytest.fixture(scope="session")
def small_restriction(sys8, grid8):
    """8^3 single-face restriction operator with its SVD, shared across tests."""
    patch = rl.boundary_patch(grid8, "x-")
    region = rl.carve_region(grid8, {"kind": "ball", "center": [0.4, 0.5, 0.5], "r": 0.22})
    gram = rl.build_norm_weights(patch, collar="exclude_rim")
    volume = rl.VolumeWeights(region)
    op = rl.assemble_restriction(sys8, gram, volume)
    svd = rl.weighted_svd(op)
    return sys8, gram, volume, op, svd


@pytest.fixture(scope="session")
def reference_runge_scene():
    """12^3 reference scene shared by the heavy acceptance criteria.

    The last tuple entry is the wall-clock spent assembling the scene,
    operator and SVD, charged against the budget of the first criterion
    that consumes them.
    """
    import time

    t0 = time.time()
    cfg = load_config("runge_reference.json")
    scene = build_scene(cfg)
    region = rl.carve_region(scene.grid, cfg["regions"]["A"])
    gram = rl.build_norm_weights(scene.patch, collar=cfg["patch"]["collar"])
    volume = rl.VolumeWeights(region)
    op = runge_op.assemble_restriction(scene.system, gram, volume)
    svd = runge_op.weighted_svd(op)
    return cfg, scene, gram, volume, op, svd, time.time() - t0


@pytest.fixture
def krylov_stall(monkeypatch):
    """Cap MINRES at 2 iterations without a preconditioner and switch off the
    transform start, so that a Krylov solve stalls whatever the strength of
    the reference inverse."""
    monkeypatch.setattr(rl.solver, "KRYLOV_MAXITER", 2)
    monkeypatch.setattr(rl.solver.SystemMatrix, "_preconditioner", lambda self: None)
    transform_off(monkeypatch)


def transform_off(monkeypatch):
    """Make the transform start x = 0, whose residual b misses on every
    nonzero column, so that each one goes on to the path's own solver."""
    monkeypatch.setattr(rl.solver.SystemMatrix, "_transform_start",
                        lambda self, b: (np.zeros(b.shape), np.linalg.norm(b, axis=0)))


class FakeLU:
    """Stands in for a SuperLU object with a given ``solve``."""

    def __init__(self, solve):
        self.solve = solve


def rng_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def cell_dof_slots(cell, family, axis):
    """Grid slots of the dofs of direction ``axis`` on the boundary of a cell:
    the 4 parallel edges or the 2 opposite faces."""
    free = [d for d in range(3) if d != axis] if family == "edge" else [axis]
    slots = []
    for bits in range(2 ** len(free)):
        slot = list(cell)
        for n, d in enumerate(free):
            slot[d] += (bits >> (len(free) - 1 - n)) & 1
        slots.append(tuple(slot))
    return slots
