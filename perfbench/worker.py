"""One benchmark process: set-up, then (phase ``measure``) the closed loop.

Protocol on stdout, one line each: ``setup-done`` when set-up has finished,
then ``info <json>`` and ``result <json>``.  ``cli.main``'s own output is
captured, so nothing else reaches stdout.  Run through ``run.py``, which sets
the BLAS thread count and times set-up from process start.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_rungelab():
    """Import rungelab from this checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import rungelab.cli

    where = os.path.realpath(rungelab.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"rungelab imported from {where}, not from {src}")
    return rungelab.cli


def warm_up_blas():
    """Pay the first-call cost of LAPACK and SuperLU before any timing."""
    import numpy as np
    import scipy.linalg as sla
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    spd = a @ a.T + 256 * np.eye(256)
    np.linalg.svd(a + 1j * a.T)
    np.linalg.eigh(spd)
    sla.solve_triangular(np.linalg.cholesky(spd), a, lower=True)
    lap = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(500, 500), format="csc")
    spla.splu(lap, permc_spec="MMD_AT_PLUS_A").solve(np.ones(500))


def environment_info():
    """numpy and scipy versions, BLAS vendor and the thread count OpenBLAS
    reports at run time."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if ".bytes_" in name:
        return "B"
    if name.endswith("_ratio") or name.endswith("residual"):
        return "1"
    return "count"


def run_loop(workload, seconds, trace):
    """Closed loop for ``seconds``; with ``trace`` untraced and traced
    iterations alternate, starting untraced.  Returns a result dict."""
    from tracer import Tracer, install, layer_metrics

    plain, traced, layers, spans = [], [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    least = 2 if trace else 1
    while attempted < least or time.perf_counter() - t_start < seconds:
        tracer = Tracer() if trace and attempted % 2 == 1 else None
        attempted += 1
        installation = install(tracer) if tracer else None
        try:
            elapsed = workload.iterate()
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if installation:
                installation.uninstall()
        if tracer:
            traced.append(elapsed)
            layers.append(layer_metrics(tracer))
            spans.append([s.as_dict() for s in tracer.spans])
        else:
            plain.append(elapsed)
    return {"plain": plain, "traced": traced, "layers": layers, "spans": spans,
            "attempted": attempted, "failed": failed,
            "wall_s": time.perf_counter() - t_start}


def summarize(loop, trace, workload_name, seed):
    plain, traced = loop["plain"], loop["traced"]
    ratio = loop["failed"] / loop["attempted"]
    info = {"failed_ratio": ratio, "attempted": loop["attempted"]}
    if plain:
        q1, med, q3 = quartiles(plain)
        info["run_s"] = {"median": med, "q1": q1, "q3": q3, "n": len(plain)}
    metrics = {}
    if not trace:
        # with every iteration failed, the mean wall time per attempt stands in
        run_s = statistics.median(plain) if plain else loop["wall_s"] / loop["attempted"]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"run_s": {"value": run_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak, "unit": "MB"}}
    else:
        from tracer import Tracer, layer_metrics

        # every per-layer metric is reported, as zeros if no traced iteration passed
        layers = loop["layers"] or [layer_metrics(Tracer())]
        if traced:
            q1, med, q3 = quartiles(traced)
            info["traced_run_s"] = {"median": med, "q1": q1, "q3": q3, "n": len(traced)}
            if plain:
                info["trace_overhead_s"] = med - statistics.median(plain)
        names = sorted(layers[0])
        counts = [n for n in names if layer_unit(n) in ("count", "B")]
        info["counts_repeat"] = all(l[n] == layers[0][n] for l in layers for n in counts)
        for n in names:
            vals = [l[n] for l in layers]
            value = vals[0] if n in counts else statistics.median(vals)
            metrics[n] = {"value": value, "unit": layer_unit(n)}
        metrics["failed_ratio"] = {"value": ratio, "unit": "1"}
        out = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"spans-{workload_name}-seed{seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(loop["spans"], fh)
    return info, {"correct": loop["failed"] == 0 and bool(plain or traced),
                  "attempted": loop["attempted"], "failed": loop["failed"],
                  "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"), default="measure")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    cli = import_rungelab()
    warm_up_blas()
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, cli)
        workload.setup()
        print("setup-done", flush=True)
        if args.phase == "setup":
            return 0
        loop = run_loop(workload, args.seconds, bool(args.trace))
        info, result = summarize(loop, bool(args.trace), args.workload, args.seed)
        info.update(environment_info())
        print("info " + json.dumps(info), flush=True)
        print("result " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
