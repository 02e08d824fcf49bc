"""The four benchmark workloads: seeded config generation, one iteration each,
and the output checks that decide whether an iteration failed.

Every workload keeps the grid, patch and regions fixed, so the cost of an
iteration does not depend on the seed; the seed only changes data (wave
direction, noise draws, dipole direction, random test vectors).  The base
configs are copies of the reference configs at the commit that defined the
benchmark, kept here so that edits to ``configs/`` do not change the
workloads.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import random
import shutil
import tempfile
import time

OMEGA = 2.0
VACUUM = {"kind": "constant", "eps": 1.0, "mu": 1.0}

VERIFY_BASE = {
    "tag": "verify_solver",
    "grid": {"n": [6, 6, 6], "h": 1.0 / 6.0},
    "material": VACUUM,
    "omega": OMEGA,
    "verify": {"levels": 3},
    "tolerances": {"convergence_order": 1.8},
}

CAUCHY_BASE = {
    "tag": "cauchy",
    "grid": {"n": [10, 10, 10], "h": 0.1},
    "material": VACUUM,
    "omega": OMEGA,
    "patch": {"side": ["x-", "y-", "y+", "z-", "z+"], "collar": "include_rim"},
    "truth": {"kind": "far_side_bump", "side": "x+", "center": [1.0, 0.45, 0.55],
              "width": 0.3},
    "noise": {"etas": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], "seeds": [101, 102, 103, 104, 105]},
    "regularization": {"strategy": "morozov", "lambda": 1e-12},
    "exponents": {"p": 4.0, "q": 3.0, "q0": 4.0},
}

RUNGE_BASE = {
    "tag": "runge",
    "grid": {"n": [12, 12, 12], "h": 1.0 / 12.0},
    "material": VACUUM,
    "omega": OMEGA,
    "patch": {"side": "x-", "collar": "exclude_rim"},
    "regions": {"A": {"kind": "ball", "center": [0.38, 0.47, 0.52], "r": 0.2}},
    "exponents": {"p": 4.0, "q": 3.0, "q0": 4.0},
    "runge": {"js": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "C": math.e, "m": 3.0,
              "target": {"kind": "dipole", "x0": [0.81, 0.55, 0.44], "m": [0.3, 0.4, 1.0]}},
}

LOCALIZATION_BASE = {
    "tag": "localization",
    "grid": {"n": [10, 10, 10], "h": 0.1},
    "material": VACUUM,
    "omega": OMEGA,
    "patch": {"side": "x-", "collar": "exclude_rim"},
    "regions": {"M": {"kind": "ball", "center": [0.3, 0.5, 0.5], "r": 0.16},
                "D": {"kind": "ball", "center": [0.75, 0.5, 0.5], "r": 0.16}},
    "localization": {"cutoffs": [10, 20, 50], "eps_reg": 1e-6, "n_random": 5, "seed": 0},
}


class CheckFailed(Exception):
    """An iteration ran but its output is wrong."""


def verify_config(seed):
    """Plane wave along a seeded axis and sign, polarized along another axis."""
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    a, b = rng.choice(pairs)
    k = [0.0, 0.0, 0.0]
    k[a] = rng.choice([1.0, -1.0]) * OMEGA
    p = [0.0, 0.0, 0.0]
    p[b] = 1.0
    cfg = copy.deepcopy(VERIFY_BASE)
    cfg["verify"]["wave"] = {"k": k, "p": p}
    return cfg


def cauchy_config(seed):
    """The reference Cauchy study with five seeded noise seeds."""
    rng = random.Random(seed)
    cfg = copy.deepcopy(CAUCHY_BASE)
    cfg["noise"]["seeds"] = rng.sample(range(1, 1_000_000), 5)
    return cfg


def runge_config(seed):
    """The reference Runge study with a seeded dipole direction (the moment's
    magnitude is the reference one)."""
    rng = random.Random(seed)
    cfg = copy.deepcopy(RUNGE_BASE)
    target = cfg["runge"]["target"]
    size = math.sqrt(sum(c * c for c in target["m"]))
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(c * c for c in v))
    target["m"] = [size * c / norm for c in v]
    return cfg


def localization_config(seed):
    cfg = copy.deepcopy(LOCALIZATION_BASE)
    cfg["localization"]["seed"] = seed
    return cfg


def write_config(directory, name, cfg):
    """Write ``cfg`` with ``jobs`` pinned to 1: wider maps only queue solves
    behind the factorization's lock."""
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(cfg, jobs=1), fh, indent=2, sort_keys=True)
    return path


def call_cli(main, argv):
    """Run ``cli.main(argv)`` with its stdout and stderr captured; returns
    (exit status, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        status = main(argv)
    return status, buf.getvalue()


def check_report(status, text, outdir, tag):
    """Exit status 0 and every sidecar flag true."""
    if status != 0:
        raise CheckFailed(f"{tag}: exit status {status}\n{text}")
    with open(os.path.join(outdir, f"{tag}.json"), encoding="utf-8") as fh:
        flags = json.load(fh)["flags"]
    failed = sorted(name for name, ok in flags.items() if not ok)
    if not flags or failed:
        raise CheckFailed(f"{tag}: flags not true: {failed or 'none reported'}")


class Workload:
    """One closed-loop client: ``iterate`` runs one iteration and returns
    its wall time; set-up state lives under ``workdir``."""

    def __init__(self, seed, workdir, cli):
        self.seed = seed
        self.workdir = workdir
        self.cli = cli
        self.configs = os.path.join(workdir, "configs")
        os.makedirs(self.configs, exist_ok=True)

    def fresh_dir(self, prefix):
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def setup(self):
        """Generate configs and do any set-up the workload needs."""
        raise NotImplementedError

    def iterate(self):
        raise NotImplementedError

    def run(self, argv):
        """Call ``cli.main`` through the module attribute, so that a traced
        run sees the wrapped entry point."""
        return call_cli(self.cli.main, argv)


class Verify(Workload):
    def setup(self):
        self.config = write_config(self.configs, "verify", verify_config(self.seed))

    def iterate(self):
        out = self.fresh_dir("out-")
        try:
            t0 = time.perf_counter()
            status, text = self.run(["--out", out, "verify", self.config])
            elapsed = time.perf_counter() - t0
            check_report(status, text, out, "verify_solver")
            with open(os.path.join(out, "verify_solver.csv"), newline="",
                      encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            orders = [float(r["order"]) for r in rows if int(r["level"]) > 0]
            if len(orders) != 2 or min(orders) < 1.8:
                raise CheckFailed(f"verify: observed orders {orders}, need two >= 1.8")
            return elapsed
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Cauchy(Workload):
    def setup(self):
        self.config = write_config(self.configs, "cauchy", cauchy_config(self.seed))

    def iterate(self):
        out = self.fresh_dir("out-")
        try:
            t0 = time.perf_counter()
            status, text = self.run(["--out", out, "run", self.config])
            elapsed = time.perf_counter() - t0
            check_report(status, text, out, "cauchy")
            return elapsed
        finally:
            shutil.rmtree(out, ignore_errors=True)


class OperatorCold(Workload):
    """Runge study against a fresh, empty operator cache, then localization."""

    def setup(self):
        self.runge = write_config(self.configs, "runge", runge_config(self.seed))
        self.localization = write_config(self.configs, "localization",
                                         localization_config(self.seed))

    def iterate(self):
        out = self.fresh_dir("out-")
        cache = self.fresh_dir("cache-")
        try:
            t0 = time.perf_counter()
            runge = self.run(["--out", out, "--cache", cache, "run", self.runge])
            loc = self.run(["--out", out, "run", self.localization])
            elapsed = time.perf_counter() - t0
            check_report(*runge, out, "runge")
            check_report(*loc, out, "localization")
            return elapsed
        finally:
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(cache, ignore_errors=True)


class OperatorWarm(Workload):
    """Runge study reading the operator that set-up wrote.  Each iteration's
    CSV must be byte-identical to the cold CSV set-up produced."""

    def setup(self):
        self.runge = write_config(self.configs, "runge", runge_config(self.seed))
        self.cache = os.path.join(self.workdir, "cache")
        out = self.fresh_dir("out-")
        try:
            status, text = self.run(["--out", out, "--cache", self.cache, "run", self.runge])
            check_report(status, text, out, "runge")
            with open(os.path.join(out, "runge.csv"), "rb") as fh:
                self.cold_csv = fh.read()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if len([n for n in os.listdir(self.cache) if n.endswith(".rgfo")]) != 1:
            raise CheckFailed("operator_warm: set-up did not leave exactly one cached operator")

    def iterate(self):
        out = self.fresh_dir("out-")
        try:
            t0 = time.perf_counter()
            status, text = self.run(["--out", out, "--cache", self.cache, "run", self.runge])
            elapsed = time.perf_counter() - t0
            check_report(status, text, out, "runge")
            with open(os.path.join(out, "runge.csv"), "rb") as fh:
                if fh.read() != self.cold_csv:
                    raise CheckFailed("operator_warm: CSV differs from the cold run's CSV")
            return elapsed
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {
    "verify": Verify,
    "cauchy": Cauchy,
    "operator_cold": OperatorCold,
    "operator_warm": OperatorWarm,
}
