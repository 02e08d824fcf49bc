"""Command-line entry point: experiment dispatch, cache management, reports.

Exit status contract: 0 on pass, 2 when an experiment runs but a declared
tolerance fails, 1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

from .errors import RungelabError, ConfigurationError, StoreError
from .experiments import normalize_config, run_experiment
from . import runge_op, store


def parse_config(text: str, tag=None, out=None, cache=None, seed=None) -> dict:
    """Parse and validate a JSON experiment config.  ``tag`` replaces its own
    tag, and ``out``, ``cache`` and ``seed`` (when given) its output
    directory, cache directory and base seed, before validation."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if isinstance(raw, dict):
        if tag is not None:
            raw["tag"] = tag
        for key, value in (("output", out), ("cache", cache)):
            # a section that is not an object is left for normalize_config
            if value and isinstance(raw.setdefault(key, {}), dict):
                raw[key]["dir"] = value
        if seed is not None:
            raw["seed"] = seed
    return normalize_config(raw)


def _cmd_run(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        # verify sets its tag before normalization, so its solver defaults apply
        cfg = parse_config(fh.read(), args.tag, args.out, args.cache, args.seed)
    report = run_experiment(cfg)
    csv_path, side_path = report.write(cfg["output"]["dir"])
    for name, ok in sorted(report.flags.items()):
        print(f"{'PASS' if ok else 'FAIL'} {cfg['tag']}.{name}")
    print(f"report: {csv_path}")
    print(f"sidecar: {side_path}")
    return 0 if report.passed else 2


def _entry_summary(payload):
    """The shapes of an operator entry's R and L, its margin, the shapes of
    its stored factors, and the rank ``weighted_svd`` keeps with its
    sigma_last / sigma_0."""
    matrix, chol, factors, margin = store.unpack_operator(payload)
    factors = runge_op.SvdFactors.checked(factors, matrix.shape)
    S = runge_op.StackedSvd(factors).S
    rank = runge_op.kept_rank(S, matrix.shape)
    shapes = " ".join(f"{name}={a.shape[0]}x{a.shape[1]}"
                      for name, a in zip(store.FACTORS, factors))
    return (" R={}x{} L={}x{} margin={:.3e} ".format(*matrix.shape, *chol.shape, margin)
            + f"{shapes} rank={rank} sigma_last/sigma_0={S[rank - 1] / S[0]:.3e}")


def _cmd_cache(args):
    cache_dir = args.cache or "cache"
    if args.action == "ls":
        if not os.path.isdir(cache_dir):
            print(f"(no cache directory {cache_dir})")
            return 0
        names = sorted(os.listdir(cache_dir))
        for name in names:
            path = os.path.join(cache_dir, name)
            try:
                version, kind, prov, length = store.read_header(path)
            except (OSError, StoreError):
                print(f"{name}  (unreadable)")
                continue
            line = (f"{name}  kind={'operator' if kind == store.KIND else '?'} "
                    f"version={version} provenance={prov:#018x} payload={length}B")
            if version != store.VERSION:
                line += "  stale"
            else:
                try:
                    line += _entry_summary(store.read_envelope(path, prov))
                except (OSError, RungelabError):
                    line += " (unreadable payload)"
            print(line)
        if not names:
            print("(cache empty)")
        return 0
    if args.action == "rm":
        if os.path.isdir(cache_dir):
            for name in os.listdir(cache_dir):
                if name.endswith(".rgfo") or name.startswith(store.TEMP_PREFIX):
                    os.unlink(os.path.join(cache_dir, name))
        print(f"cleared {cache_dir}")
        return 0
    raise ConfigurationError(f"unknown cache action {args.action!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rungelab",
        description="Staggered-grid Maxwell laboratory: approximation and stability experiments")
    parser.add_argument("--out", help="report output directory")
    parser.add_argument("--cache", help="operator cache directory")
    parser.add_argument("--seed", type=int, help="base seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment configured in a JSON file")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run, tag=None)

    p_verify = sub.add_parser("verify", help="run the solver verification study")
    p_verify.add_argument("config")
    p_verify.set_defaults(func=_cmd_run, tag="verify_solver")

    p_cache = sub.add_parser("cache", help="inspect or clear the operator cache")
    p_cache.add_argument("action", choices=["ls", "rm"])
    p_cache.set_defaults(func=_cmd_cache)
    return parser


def _release_free_heap():
    """Hand the heap's free pages back to the system (glibc only).

    A command frees its systems and fields when it returns, but glibc gives
    that memory back only when no live block sits above it in the heap.
    Whether one does varies from process to process, so the next ``verify``
    in the same process started from 43 MB or from 87 MB resident and peaked
    up to 20 MB higher in the second case.  ``malloc_trim`` releases free
    pages wherever they sit.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RungelabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _release_free_heap()


if __name__ == "__main__":
    sys.exit(main())
