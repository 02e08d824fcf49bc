import copy
import json
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from rungelab.cli import build_parser, main, parse_config
from rungelab.errors import ConfigurationError


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


QUICK_VERIFY = {
    "tag": "verify_solver",
    "grid": {"n": [4, 4, 4], "h": 0.25},
    "omega": 2.0,
    "verify": {"levels": 2},
    "tolerances": {"convergence_order": 1.5},
}


def test_parse_config_malformed():
    with pytest.raises(ConfigurationError) as err:
        parse_config("{\"tag\": }")
    assert "line" in str(err.value)


def test_parse_config_invariants():
    with pytest.raises(ConfigurationError) as err:
        parse_config(json.dumps({"tag": "runge", "exponents": {"q": 3.0, "q0": 2.5}}))
    assert "q0" in str(err.value)


@pytest.mark.parametrize("section", ["output", "cache"])
@pytest.mark.parametrize("value", [None, ["x"]])
def test_parse_config_override_of_a_section_that_is_not_an_object(section, value):
    # --out and --cache used to index a null or list section with a TypeError
    with pytest.raises(ConfigurationError, match=f"config section {section} must be"):
        parse_config(json.dumps({"tag": "three_balls", section: value}), out="o", cache="c")


def test_run_verify_exit_zero(tmp_path, capsys):
    cfg = _write(tmp_path, "v.json", QUICK_VERIFY)
    out = str(tmp_path / "out")
    code = main(["--out", out, "verify", cfg])
    assert code == 0
    assert os.path.exists(os.path.join(out, "verify_solver.csv"))
    assert os.path.exists(os.path.join(out, "verify_solver.json"))
    text = capsys.readouterr().out
    assert "PASS" in text
    # run_experiment times every driver
    side = json.load(open(os.path.join(out, "verify_solver.json")))
    assert side["volatile"]["wall_clock_s"] > 0


def test_run_exit_two_on_tolerance(tmp_path):
    impossible = dict(QUICK_VERIFY)
    impossible["tolerances"] = {"convergence_order": 99.0}
    cfg = _write(tmp_path, "v.json", impossible)
    code = main(["--out", str(tmp_path / "out"), "run", cfg])
    assert code == 2


def test_run_exit_one_on_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["--out", str(tmp_path / "out"), "run", str(path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_run_exit_one_on_a_config_that_cannot_be_read(tmp_path, capsys):
    # a directory given as the config raised an untyped IsADirectoryError
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and str(tmp_path) in err
    assert "Traceback" not in err and not out.exists()


def test_run_exit_one_on_bad_field(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {"tag": "runge", "exponents": {"q0": 2.0}})
    code = main(["--out", str(tmp_path / "out"), "run", str(cfg)])
    assert code == 1
    assert "q0" in capsys.readouterr().err


_BALL = {"kind": "ball", "center": [0.5, 0.5, 0.5], "r": 0.2}
_LAYERED = {"kind": "layered", "breakpoints": [0.5], "tensors": [1.0, 2.0], "smoothing": 0.25}


def _localize(m_shape):
    """An 8^3 localization config whose region M is ``m_shape``."""
    return {"tag": "localization", "grid": {"n": [8, 8, 8]},
            "regions": {"M": m_shape, "D": {"kind": "ball", "center": [0.72, 0.5, 0.5],
                                            "r": 0.16}}}


def _propagate(g_shape, r0, margin_h, x0=(0.5, 0.5, 0.5)):
    """An 8^3 propagation config with probe region G ``g_shape``."""
    return {"tag": "propagation", "grid": {"n": [8, 8, 8]}, "regions": {"G": g_shape},
            "propagation": {"x0": list(x0), "r0": r0, "margin_h": margin_h}}


@pytest.mark.parametrize("payload, key", [
    ({"regions": {"balls": {"center": [0.5] * 3, "r1": 0.12}}}, "config key regions.balls"),
    ({"material": {"kind": "constant", "params": {"eps": 2.0}}}, "config key material.params"),
    ({"three_balls": {"m0": -1}}, "three_balls.m0"),
    # a missing key of each tag: these died with a KeyError after assembly
    ({"tag": "runge"}, "runge needs regions.A, runge.target"),
    ({"tag": "runge", "regions": {"A": _BALL}, "runge": {"target": {"kind": "dipole"}}},
     "runge needs runge.target.x0"),
    ({"tag": "runge", "regions": {"A": _BALL},
      "runge": {"target": {"kind": "plane_wave", "p": [0.0, 1.0, 0.0]}}},
     "runge needs runge.target.k"),
    ({"tag": "localization", "regions": {"M": _BALL}}, "localization needs regions.D"),
    ({"tag": "propagation", "regions": {"G": _BALL}, "propagation": {"x0": [0.5] * 3}},
     "propagation needs propagation.r0, propagation.margin_h"),
    ({"tag": "cauchy", "truth": {"kind": "dipole"}}, "cauchy needs truth.x0"),
    # a point that is not three numbers died in numpy after assembly
    ({"three_balls": {"center": "middle"}}, "three_balls.center"),
    ({"three_balls": {"center": [0.5, 0.5]}}, "three_balls.center"),
    ({"tag": "propagation", "regions": {"G": _BALL},
      "propagation": {"x0": "middle", "r0": 0.2, "margin_h": 0.1}}, "propagation.x0"),
    # checks on the config and the grid alone, made once the system was built
    ({"three_balls": {"r1": 0.2, "r2": 0.3, "r3": 0.5}},
     "need r1 < r2 < r3/2, got 0.2, 0.3, 0.5"),
    ({"three_balls": {"center": [0.3, 0.5, 0.5]}}, "outer ball must sit inside the box"),
    ({"tag": "propagation", "regions": {"G": _BALL},
      "propagation": {"x0": [0.5] * 3, "r0": 0.2, "margin_h": 0.15}},
     "margin 0.15 exceeds r0/2 = 0.1; the hypotheses conflict"),
    ({"tag": "cauchy", "patch": {"side": ["x-", "y-"]}},
     "truth.side is required unless the patch leaves exactly one side free"),
    # a material kind's own keys: these died in make_material with untyped
    # tracebacks, or ran with a truncated value
    ({"material": {"kind": "smooth", "amplitude": "big"}}, "material.amplitude"),
    ({"material": {"kind": "smooth", "amplitude": 1.0}}, "material.amplitude"),
    ({"material": {"kind": "smooth", "modes": 2.5}}, "material.modes"),
    ({"material": {"kind": "smooth", "max_wavenumber": -1}}, "material.max_wavenumber"),
    ({"material": {"kind": "smooth", "seed": "3"}}, "material.seed"),
    ({"material": {"kind": "constant", "eps": "abc"}}, "material.eps"),
    ({"material": {"kind": "constant", "mu": [1.0, 2.0]}}, "material.mu"),
    ({"material": {"kind": "wood"}}, "material.kind"),
    ({"material": dict(_LAYERED, breakpoints=None)}, "material.breakpoints"),
    ({"material": {k: v for k, v in _LAYERED.items() if k != "breakpoints"}},
     "three_balls needs material.breakpoints"),
    ({"material": {k: v for k, v in _LAYERED.items() if k != "tensors"}},
     "three_balls needs material.tensors"),
    ({"material": dict(_LAYERED, tensors=[1.0])}, "material.tensors"),
    ({"material": dict(_LAYERED, tensors=[1.0, "x"])}, "material.tensors"),
    ({"material": dict(_LAYERED, axis=3)}, "material.axis"),
    ({"material": dict(_LAYERED, smoothing=-0.1)}, "material.smoothing"),
    ({"material": dict(_LAYERED, mu="x")}, "material.mu"),
    # region shapes: these died in carve_region after assembly
    (_localize("ball"), "regions.M"),
    (_localize({"kind": "ball", "center": [0.3, 0.5, 0.5]}), "regions.M.r"),
    (_localize({"kind": "ball", "center": "middle", "r": 0.16}), "regions.M.center"),
    (_localize({"kind": "ball", "center": [0.3, 0.5, 0.5], "r": "0.16"}), "regions.M.r"),
    (_localize({"kind": "ball", "center": [0.3, 0.5, 0.5], "r": 0}), "regions.M.r"),
    (_localize({"kind": "box", "lo": [0.2, 0.4, 0.4]}), "regions.M.hi"),
    (_localize({"kind": "complement"}), "regions.M.part"),
    (_localize({"kind": "union", "parts": []}), "regions.M.parts"),
    (_localize({"kind": "intersection", "parts": [_BALL, {"kind": "ball", "r": 0.1}]}),
     "regions.M.parts[1].center"),
    (_localize({"kind": "cone"}), "regions.M.kind"),
    # the patch window: these died in boundary_patch after assembly
    ({"patch": {"window": [1, 2]}}, "patch.window"),
    ({"patch": {"window": "all"}}, "patch.window"),
    ({"patch": {"window": [[0.0, 0.0], [0.5, None]]}}, "patch.window"),
    # the patch is built before the system, so a window off its side fails first
    ({"patch": {"window": [[2.0, 2.0], [3.0, 3.0]]}},
     "window [[2.0, 2.0], [3.0, 3.0]] misses side 'x-'"),
    # a region that selects no cells, and a restriction target that touches
    # the walls or encloses part of its complement: these failed after
    # assembly, the first without naming the key
    (_localize({"kind": "ball", "center": [2.0, 2.0, 2.0], "r": 0.1}), "regions.M"),
    (_localize({"kind": "ball", "center": [0.1, 0.5, 0.5], "r": 0.2}), "regions.M"),
    (_localize({"kind": "intersection", "parts": [
        {"kind": "ball", "center": [0.5] * 3, "r": 0.35},
        {"kind": "complement", "part": {"kind": "ball", "center": [0.5] * 3, "r": 0.2}}]}),
     "regions.M"),
    # the drivers' own region hypotheses, tested after assembly before: M and
    # D overlap; G is not connected, misses B(x0, r0/2) or comes within the
    # margin of the wall; B(x0, r0/2) is empty (that message named no key)
    (_localize({"kind": "ball", "center": [0.6, 0.5, 0.5], "r": 0.2}), "regions.M"),
    (_propagate({"kind": "union", "parts": [
        {"kind": "ball", "center": [0.3, 0.5, 0.5], "r": 0.12},
        {"kind": "ball", "center": [0.7, 0.5, 0.5], "r": 0.12}]}, 0.2, 0.1), "regions.G"),
    (_propagate(_BALL, 0.1, 0.05), "propagation.r0"),
    (_propagate(_BALL, 0.3, 0.1, x0=[0.3, 0.3, 0.3]), "regions.G"),
    (_propagate(dict(_BALL, r=0.4), 0.4, 0.2), "regions.G"),
    # a file where the cache directory goes, or on its path: os.makedirs
    # raised an untyped FileExistsError or NotADirectoryError once the
    # system and the trace Gram were built
    ({"cache": {"dir": __file__}}, "cache.dir"),
    ({"cache": {"dir": os.path.join(__file__, "cache")}}, "cache.dir"),
    # the same for the output directory, given by --out: Report.write raised
    # an untyped FileExistsError or NotADirectoryError after the whole study
    ({"output": {"dir": __file__}}, "output.dir"),
    ({"output": {"dir": os.path.join(__file__, "sub")}}, "output.dir"),
    # cutoffs out of order: the flags compared records in list order and read
    # the last cutoff as the largest, so the run failed after the whole study
    (dict(_localize({"kind": "ball", "center": [0.3, 0.5, 0.5], "r": 0.16}),
          localization={"cutoffs": [50, 20, 10]}), "localization.cutoffs"),
    # an empty path: its nearest existing part is the working directory, so
    # the output run failed with an untyped error after the whole study and
    # the cache run went on without a cache
    ({"output": {"dir": ""}}, "output.dir"),
    ({"cache": {"dir": ""}}, "cache.dir"),
])
def test_run_exit_one_before_assembly(tmp_path, monkeypatch, capsys, payload, key):
    from rungelab import solver

    def refuse(*args, **kwargs):
        raise AssertionError("a system was assembled")

    monkeypatch.setattr(solver, "assemble", refuse)
    cfg = _write(tmp_path, "c.json", {"tag": "three_balls", "grid": {"n": [6, 6, 6]}, **payload})
    out = tmp_path / "out"
    assert main(["--out", payload.get("output", {}).get("dir", str(out)), "run", cfg]) == 1
    # the key starts the message, or the whole message is given
    err = capsys.readouterr().err
    line = err.splitlines()[0]
    assert line.startswith(f"error: {key} ") or line == f"error: {key}"
    assert "Traceback" not in err
    assert not out.exists()


def test_resonance_error_names_the_suggested_omega(tmp_path, capsys):
    # 6^3 vacuum just below the first cavity eigenvalue; the error already
    # carried the detuned omega that the guard found, but did not print it
    omega = 4.3923
    cfg = _write(tmp_path, "r.json", {"tag": "three_balls", "grid": {"n": [6, 6, 6]},
                                      "omega": omega})
    assert main(["--out", str(tmp_path / "out"), "run", cfg]) == 1
    err = capsys.readouterr().err.rstrip()
    assert err.startswith("error: omega=4.3923 sits near a resonance (relative margin ")
    assert err.endswith((f"; try omega={0.93 * omega:g}", f"; try omega={1.07 * omega:g}"))


def test_low_frequency_error_suggests_no_omega(tmp_path, monkeypatch, capsys):
    # the gradient modes set the margin at omega = 0.02 on 8^3: the error says
    # so, suggests no detuned omega and assembles no probe system
    from rungelab import solver

    calls = []
    assemble = solver.assemble
    monkeypatch.setattr(solver, "assemble", lambda *a, **k: calls.append(1) or assemble(*a, **k))
    cfg = _write(tmp_path, "l.json", {"tag": "three_balls", "grid": {"n": [8, 8, 8]},
                                      "omega": 0.02})
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: omega=0.02 is too low for h=0.125: the gradient modes ")
    assert "try omega=" not in err and "Traceback" not in err
    assert len(calls) == 1 and not out.exists()


def _readme_cli_lines():
    """Every ``rungelab ...`` line of the code blocks in README's CLI section."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line.split("#")[0] for block in section.split("```")[1::2]
            for line in block.splitlines() if line.startswith("rungelab ")]


def test_readme_cli_lines_parse():
    # the options of the top-level parser go before the subcommand
    lines = _readme_cli_lines()
    assert len(lines) >= 5
    fill = {"<config.json>": "c.json", "DIR": "d", "S": "7"}
    for line in lines:
        words = [fill.get(w, w).split("|")
                 for w in line.replace("[", " ").replace("]", " ").split()[1:]]
        for argv in product(*words):
            build_parser().parse_args(list(argv))  # argparse exits 2 on a misplaced option


@pytest.mark.parametrize("material, words", [
    ({"kind": "constant", "eps": [1, 2, 3]}, ["scalar eps and mu", "'constant'", "[1, 2, 3]"]),
    ({"kind": "smooth", "seed": 3}, ["plane wave in a constant medium", "'smooth'"]),
], ids=["anisotropic", "smooth"])
def test_verify_exit_one_on_a_medium_its_oracle_cannot_describe(tmp_path, capsys,
                                                                material, words):
    cfg = _write(tmp_path, "v.json", dict(QUICK_VERIFY, material=material))
    assert main(["--out", str(tmp_path / "out"), "verify", cfg]) == 1
    err = capsys.readouterr().err
    assert all(w in err for w in words), err


def _verify_route(tmp_path, monkeypatch, payload):
    """Dimensions of the systems factorized by a CLI verify run, and its echo."""
    import rungelab.solver as solver_mod

    factorized = []
    splu = solver_mod.spla.splu
    monkeypatch.setattr(solver_mod.spla, "splu",
                        lambda a, **k: factorized.append(a.shape[0]) or splu(a, **k))
    out = str(tmp_path / "out")
    assert main(["--out", out, "verify", _write(tmp_path, "v.json", payload)]) == 0
    with open(os.path.join(out, "verify_solver.json"), encoding="utf-8") as fh:
        return factorized, json.load(fh)["config"]


def test_verify_defaults_to_the_krylov_route(tmp_path, monkeypatch, capsys):
    factorized, echo = _verify_route(tmp_path, monkeypatch, QUICK_VERIFY)
    assert factorized == []
    assert echo["solver"]["direct_limit"] == 0


def test_verify_explicit_direct_limit_factorizes_every_level(tmp_path, monkeypatch, capsys):
    # 4^3 and 8^3 levels: 108 and 1,176 interior edges
    payload = dict(QUICK_VERIFY, solver={"direct_limit": 1176})
    factorized, echo = _verify_route(tmp_path, monkeypatch, payload)
    assert factorized == [108, 1176]
    assert echo["solver"]["direct_limit"] == 1176


def test_verify_default_applies_whatever_the_tag(tmp_path, monkeypatch, capsys):
    factorized, echo = _verify_route(tmp_path, monkeypatch, dict(QUICK_VERIFY, tag="runge"))
    assert factorized == []
    assert echo["tag"] == "verify_solver"
    assert echo["solver"]["direct_limit"] == 0


def test_every_command_releases_the_free_heap(tmp_path, monkeypatch, capsys):
    from rungelab import cli

    cli._release_free_heap()  # a no-op where the C library has no malloc_trim
    calls = []
    monkeypatch.setattr(cli, "_release_free_heap", lambda: calls.append(1))
    assert main(["--out", str(tmp_path / "out"), "verify",
                 _write(tmp_path, "v.json", QUICK_VERIFY)]) == 0
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == 1
    assert len(calls) == 2


def test_cli_import_loads_neither_ndimage_nor_fft():
    # ndimage is loaded by the first call that needs it, so a command that
    # never tests a region does not pay for it; the transforms are dense
    # matrix products and need no scipy.fft
    import rungelab

    src = os.path.dirname(os.path.dirname(os.path.abspath(rungelab.__file__)))
    probe = ("import sys, rungelab.cli; "
             "print(sorted(m for m in ('scipy.ndimage', 'scipy.fft') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_rerun_byte_identical(tmp_path):
    cfg_payload = {
        "tag": "three_balls",
        "grid": {"n": [8, 8, 8], "h": 0.125},
        "three_balls": {"n_samples": 5, "seed": 0},
    }
    cfg = _write(tmp_path, "t.json", cfg_payload)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["--out", out1, "run", cfg]) in (0, 2)
    assert main(["--out", out2, "run", cfg]) in (0, 2)
    a = open(os.path.join(out1, "three_balls.csv"), "rb").read()
    b = open(os.path.join(out2, "three_balls.csv"), "rb").read()
    assert a == b


def test_cache_commands(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["--cache", cache, "cache", "ls"]) == 0
    os.makedirs(cache, exist_ok=True)
    from rungelab import store
    store.write_envelope(os.path.join(cache, "x.rgfo"), 42, b"payload")
    # what an interrupted write leaves behind
    with open(os.path.join(cache, store.TEMP_PREFIX + "k3j9x2"), "wb") as fh:
        fh.write(b"RGFO")
    assert main(["--cache", cache, "cache", "ls"]) == 0
    out = capsys.readouterr().out
    assert "operator" in out and "stale" not in out
    assert main(["--cache", cache, "cache", "rm"]) == 0
    assert os.listdir(cache) == []


def test_seed_override(tmp_path):
    cfg_payload = {
        "tag": "three_balls",
        "grid": {"n": [8, 8, 8], "h": 0.125},
        "three_balls": {"n_samples": 5},
    }
    cfg = _write(tmp_path, "t.json", cfg_payload)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    main(["--out", out1, "--seed", "1", "run", cfg])
    main(["--out", out2, "--seed", "2", "run", cfg])
    a = json.load(open(os.path.join(out1, "three_balls.json")))
    b = json.load(open(os.path.join(out2, "three_balls.json")))
    assert a["config"]["seed"] == 1
    assert b["config"]["seed"] == 2


def test_overrides_pass_the_config_checks(tmp_path, capsys):
    # a negative --seed used to reach numpy's generator after assembly
    cfg = _write(tmp_path, "t.json", {"tag": "three_balls", "grid": {"n": [8, 8, 8], "h": 0.125},
                                      "three_balls": {"n_samples": 5}})
    out = str(tmp_path / "out")
    assert main(["--out", out, "--seed", "-1", "run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be an integer >= 0, got -1")
    assert "Traceback" not in err
    assert not os.path.exists(out)
    # --out, --cache and --seed land in the validated echo
    c = parse_config(open(cfg).read(), "verify_solver", out, str(tmp_path / "c"), 4)
    assert (c["tag"], c["output"]["dir"], c["cache"]["dir"], c["seed"]) == \
        ("verify_solver", out, str(tmp_path / "c"), 4)
    assert c["solver"]["direct_limit"] == 0


RUNGE_SMALL = {
    "tag": "runge",
    "grid": {"n": [8, 8, 8], "h": 0.125},
    "regions": {"A": {"kind": "ball", "center": [0.35, 0.5, 0.5], "r": 0.18}},
    "runge": {"js": [1, 2, 3], "m": 3.0,
              "target": {"kind": "dipole", "x0": [0.82, 0.5, 0.5], "m": [0, 0, 1.0]}},
}


def test_runge_cache_roundtrip_via_cli(tmp_path):
    cfg = _write(tmp_path, "r.json", RUNGE_SMALL)
    cache = str(tmp_path / "cache")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["--out", out1, "--cache", cache, "run", cfg]) in (0, 2)
    cached = [n for n in os.listdir(cache) if n.endswith(".rgfo")]
    assert len(cached) == 1
    assert main(["--out", out2, "--cache", cache, "run", cfg]) in (0, 2)
    a = open(os.path.join(out1, "runge.csv"), "rb").read()
    b = open(os.path.join(out2, "runge.csv"), "rb").read()
    assert a == b


def test_cache_entry_of_the_other_solver_route_is_rebuilt(tmp_path):
    smooth = {"kind": "smooth", "seed": 3, "amplitude": 0.3}
    cfgs = []
    for material in (smooth, None):
        for limit in (None, 0):
            cfg = copy.deepcopy(RUNGE_SMALL)
            if material:
                cfg["material"] = material
            if limit is not None:
                cfg["solver"] = {"direct_limit": limit}
            cfgs.append(_write(tmp_path, f"{len(cfgs)}.json", cfg))
    cache = str(tmp_path / "cache")
    for i, cfg in enumerate(cfgs):
        assert main(["--out", str(tmp_path / f"o{i}"), "--cache", cache, "run", cfg]) in (0, 2)
    # each path writes its own entry: the MINRES run does not read the LU
    # one, nor the Krylov vacuum run the direct one, whose guards differ
    assert len([n for n in os.listdir(cache) if n.endswith(".rgfo")]) == 4


def _forge_version_one(path):
    """Rewrite an envelope as the version-1 format: FNV-1a payload tail."""
    from rungelab import store
    blob = open(path, "rb").read()
    magic, _, kind, prov, length = store._HEADER.unpack_from(blob, 0)
    payload = blob[store._HEADER.size:store._HEADER.size + length]
    with open(path, "wb") as fh:
        fh.write(store._HEADER.pack(magic, 1, kind, prov, length) + payload
                 + store._TAIL.pack(store.fnv1a64(payload)))


def test_stale_cache_entry_is_rebuilt(tmp_path, capsys):
    from rungelab import store
    cfg = _write(tmp_path, "r.json", RUNGE_SMALL)
    cache = str(tmp_path / "cache")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["--out", out1, "--cache", cache, "run", cfg]) in (0, 2)
    [name] = os.listdir(cache)
    path = os.path.join(cache, name)
    _forge_version_one(path)
    capsys.readouterr()
    assert main(["--cache", cache, "cache", "ls"]) == 0
    listing = capsys.readouterr().out.strip()
    assert "version=1" in listing and listing.endswith("stale")
    assert main(["--out", out2, "--cache", cache, "run", cfg]) in (0, 2)
    assert os.listdir(cache) == [name]
    with open(path, "rb") as fh:
        assert store._HEADER.unpack(fh.read(store._HEADER.size))[1] == store.VERSION
    a = open(os.path.join(out1, "runge.csv"), "rb").read()
    b = open(os.path.join(out2, "runge.csv"), "rb").read()
    assert a == b


def test_version_two_complex_entry_is_rebuilt(tmp_path, capsys):
    # the old envelope held A = diag(I, iI) R as complex128 under the same
    # file name; it must be tagged stale and rebuilt, never read as R
    import struct
    import numpy as np
    import rungelab as rl
    from rungelab import store
    from rungelab.experiments import normalize_config
    cfg = _write(tmp_path, "r.json", RUNGE_SMALL)
    cold_cache, cache = str(tmp_path / "cold"), str(tmp_path / "cache")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["--out", out1, "--cache", cold_cache, "run", cfg]) in (0, 2)
    [name] = os.listdir(cold_cache)
    with open(os.path.join(cold_cache, name), "rb") as fh:
        blob = fh.read()
    _, version, kind, prov, length = store._HEADER.unpack_from(blob, 0)
    assert version == store.VERSION
    R, _, _ = store.unpack_operator(blob[store._HEADER.size:store._HEADER.size + length])
    c = normalize_config(RUNGE_SMALL)
    grid = rl.build_grid(c["grid"]["n"], c["grid"]["h"], c["grid"]["origin"])
    region = rl.carve_region(grid, c["regions"]["A"])
    ne = len(rl.VolumeWeights(region).x_edge_idx)
    A = np.where(np.arange(R.shape[0]) < ne, 1.0, 1j)[:, None] * R
    payload = struct.pack("<QQ", *A.shape) + A.astype("<c16").tobytes()
    os.makedirs(cache)
    path = os.path.join(cache, name)
    with open(path, "wb") as fh:
        fh.write(store._HEADER.pack(store.MAGIC, 2, kind, prov, len(payload)) + payload
                 + store._TAIL.pack(store._payload_check(payload)))
    capsys.readouterr()
    assert main(["--cache", cache, "cache", "ls"]) == 0
    listing = capsys.readouterr().out.strip()
    assert "version=2" in listing and listing.endswith("stale")
    assert main(["--out", out2, "--cache", cache, "run", cfg]) in (0, 2)
    assert os.listdir(cache) == [name]
    with open(path, "rb") as fh:
        assert fh.read() == blob
    a = open(os.path.join(out1, "runge.csv"), "rb").read()
    b = open(os.path.join(out2, "runge.csv"), "rb").read()
    assert a == b


def test_corrupt_cache_entry_still_fails(tmp_path, capsys):
    cfg = _write(tmp_path, "r.json", RUNGE_SMALL)
    cache = str(tmp_path / "cache")
    assert main(["--out", str(tmp_path / "o1"), "--cache", cache, "run", cfg]) in (0, 2)
    [name] = os.listdir(cache)
    path = os.path.join(cache, name)
    blob = bytearray(open(path, "rb").read())
    blob[100] ^= 0x01  # inside the payload
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "o2"), "--cache", cache, "run", cfg]) == 1
    assert "checksum" in capsys.readouterr().err


def test_cache_ls_verifies_every_current_entry(tmp_path, capsys):
    # cache ls reads each current entry whole and checks it: copies of a
    # healthy entry with one flipped payload byte or cut short list as
    # unreadable payloads, a file shorter than the header as unreadable,
    # and the healthy entry's line names its shapes and margin
    from rungelab import store
    from rungelab.errors import BadLengthError
    cfg = _write(tmp_path, "r.json", RUNGE_SMALL)
    cache = tmp_path / "cache"
    assert main(["--out", str(tmp_path / "o"), "--cache", str(cache), "run", cfg]) in (0, 2)
    [name] = os.listdir(cache)
    blob = (cache / name).read_bytes()
    flipped = bytearray(blob)
    flipped[100] ^= 0x01  # an entry of R
    (cache / "flipped.rgfo").write_bytes(bytes(flipped))
    (cache / "truncated.rgfo").write_bytes(blob[:-1])
    (cache / "short.rgfo").write_bytes(blob[:10])
    with pytest.raises(BadLengthError):
        store.read_header(cache / "short.rgfo")
    version, _, prov, length = store.read_header(cache / name)
    R, L, margin = _read_entry(cache / name)
    head = f"kind=operator version={version} provenance={prov:#018x} payload={length}B"
    capsys.readouterr()
    assert main(["--cache", str(cache), "cache", "ls"]) == 0
    lines = dict(line.split("  ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines == {
        name: f"{head} R={R.shape[0]}x{R.shape[1]} L={L.shape[0]}x{L.shape[1]} "
              f"margin={margin:.3e}",
        "flipped.rgfo": f"{head} (unreadable payload)",
        "truncated.rgfo": f"{head} (unreadable payload)",
        "short.rgfo": "(unreadable)"}


def _spy_guard(monkeypatch):
    """Record every factorization built (not a cached one handed back),
    every resonance-guard solve (an LU back-solve of a real vector or a
    MINRES guard step) and every trace Gram the runge study builds."""
    from rungelab import runge_op, solver

    calls = []
    factorize, solve_interior = solver.SystemMatrix._factorize, solver.SystemMatrix.solve_interior
    guard_step = solver._guard_step

    def spy_factorize(self):
        if self._lu is None:
            calls.append("factorize")
        return factorize(self)

    def spy_solve_interior(self, rhs):
        if rhs.ndim == 1 and not np.iscomplexobj(rhs):
            calls.append("guard solve")
        return solve_interior(self, rhs)

    monkeypatch.setattr(solver.SystemMatrix, "_factorize", spy_factorize)
    monkeypatch.setattr(solver.SystemMatrix, "solve_interior", spy_solve_interior)
    monkeypatch.setattr(solver, "_guard_step",
                        lambda *a: calls.append("guard solve") or guard_step(*a))
    build_gram = runge_op.build_norm_weights
    monkeypatch.setattr(runge_op, "build_norm_weights",
                        lambda *a: calls.append("gram") or build_gram(*a))
    return calls


def _read_entry(path):
    """(R, L, margin) of the operator entry at ``path``, fully verified."""
    from rungelab import store
    return store.unpack_operator(store.read_envelope(path, store.read_header(path)[2]))


def _cold_system(payload):
    """The system of a config as a cold run assembles it, guard unchecked."""
    from rungelab.experiments import build_scene, normalize_config
    return build_scene(normalize_config(payload), guard=False).system


def test_warm_run_takes_the_stored_margin(tmp_path, monkeypatch, capsys):
    from rungelab import solver
    cfg = _write(tmp_path, "r.json", RUNGE_SMALL)
    cache = str(tmp_path / "cache")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    calls = _spy_guard(monkeypatch)
    assert main(["--out", out1, "--cache", cache, "run", cfg]) in (0, 2)
    assert calls.count("factorize") == 1 and calls.count("guard solve") == 12
    assert calls.count("gram") == 1
    [name] = os.listdir(cache)
    R, L, margin = _read_entry(os.path.join(cache, name))
    # the stored margin is the cold system's guard result, bit for bit
    assert margin == solver.resonance_guard(_cold_system(RUNGE_SMALL))
    calls.clear()
    assert main(["--out", out2, "--cache", cache, "run", cfg]) in (0, 2)
    assert calls == []
    a = open(os.path.join(out1, "runge.csv"), "rb").read()
    b = open(os.path.join(out2, "runge.csv"), "rb").read()
    assert a == b
    # cache ls shows the stored margin
    capsys.readouterr()
    assert main(["--cache", cache, "cache", "ls"]) == 0
    listing = capsys.readouterr().out.strip()
    assert listing.endswith(f" margin={margin:.3e}") and "guard" not in listing
    # and the shapes of R and of the trace Gram's factor L
    (rows, cols), (n, m) = R.shape, L.shape
    assert (n, m) == (cols, cols)
    assert f" R={rows}x{cols} L={n}x{n} margin=" in listing


def test_warm_run_checks_the_stored_margin(tmp_path, monkeypatch, capsys):
    # a threshold above the stored margin fails the warm run with the typed
    # error, which names the margin, and still makes no guard solve
    cache = str(tmp_path / "cache")
    cfg = _write(tmp_path, "r.json", RUNGE_SMALL)
    assert main(["--out", str(tmp_path / "o1"), "--cache", cache, "run", cfg]) in (0, 2)
    [name] = os.listdir(cache)
    _, _, margin = _read_entry(os.path.join(cache, name))
    strict = _write(tmp_path, "s.json", dict(RUNGE_SMALL, solver={"resonance_threshold": 0.01}))
    calls = _spy_guard(monkeypatch)
    capsys.readouterr()
    out = tmp_path / "o2"
    assert main(["--out", str(out), "--cache", cache, "run", strict]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: omega=2 is too low for h=0.125: the gradient modes set the "
                          f"relative margin {margin:.3e} < 0.01")
    assert "Traceback" not in err and not out.exists()
    assert calls == []


def test_a_cold_run_whose_margin_trips_builds_no_trace_gram(tmp_path, monkeypatch, capsys):
    strict = _write(tmp_path, "s.json", dict(RUNGE_SMALL, solver={"resonance_threshold": 0.01}))
    calls = _spy_guard(monkeypatch)
    out = tmp_path / "o"
    assert main(["--out", str(out), "--cache", str(tmp_path / "cache"), "run", strict]) == 1
    assert capsys.readouterr().err.startswith("error: omega=2 is too low")
    assert calls.count("guard solve") == 12 and "gram" not in calls


def test_warm_run_in_a_smooth_medium_raises_the_cold_error(tmp_path, capsys):
    # a margin read from the cache leaves no guard vector behind, so a warm
    # run that trips a stricter threshold runs the guard once for the nearest
    # resonance: it fails with the cold run's error, word for word
    smooth = dict(RUNGE_SMALL, material={"kind": "smooth", "seed": 3, "amplitude": 0.3})
    cache = str(tmp_path / "cache")
    cfg = _write(tmp_path, "r.json", smooth)
    assert main(["--out", str(tmp_path / "o"), "--cache", cache, "run", cfg]) in (0, 2)
    strict = _write(tmp_path, "s.json", dict(smooth, solver={"resonance_threshold": 0.01}))
    errors = []
    for i, cached in enumerate(([], ["--cache", cache])):
        capsys.readouterr()
        out = tmp_path / f"x{i}"
        assert main(["--out", str(out), *cached, "run", strict]) == 1
        errors.append(capsys.readouterr().err)
        assert "Traceback" not in errors[-1] and not out.exists()
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: omega=2 is too low for h=0.125: the gradient modes ")


def test_direct_and_krylov_runs_keep_their_own_margins(tmp_path):
    # the provenance names the solve path, which with the medium fixes the
    # guard: a direct_limit 0 run on the default run's cache writes a second
    # entry, and each entry keeps the margin of its own guard (the Krylov
    # path's closed form differs from inverse iteration in the last digits)
    from rungelab import solver
    cache = str(tmp_path / "cache")
    margins, reports = {}, []
    for i, payload in enumerate((RUNGE_SMALL, dict(RUNGE_SMALL, solver={"direct_limit": 0}))):
        out, cfg = tmp_path / f"o{i}", _write(tmp_path, f"{i}.json", payload)
        assert main(["--out", str(out), "--cache", cache, "run", cfg]) in (0, 2)
        [name] = set(os.listdir(cache)) - set(margins)
        margins[name] = _read_entry(os.path.join(cache, name))[2]
        assert margins[name] == solver.resonance_guard(_cold_system(payload))
        reports.append((out / "runge.csv").read_bytes())
    assert len(set(margins.values())) == 2
    # both paths solve the vacuum columns by the transform
    assert reports[0] == reports[1]


def test_version_three_entry_is_rebuilt(tmp_path, capsys):
    # an entry of an older version, R without the margin (version 3), the
    # margin followed by its guard's name (version 4) or R and the margin
    # without the trace Gram's factor (version 5), is tagged stale and
    # rebuilt to the same bytes as a cold run's
    import struct
    from rungelab import store
    cfg = _write(tmp_path, "r.json", RUNGE_SMALL)
    cache = str(tmp_path / "cache")
    out1 = str(tmp_path / "o1")
    assert main(["--out", out1, "--cache", cache, "run", cfg]) in (0, 2)
    [name] = os.listdir(cache)
    path = os.path.join(cache, name)
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _, kind, prov, length = store._HEADER.unpack_from(blob, 0)
    R, _, margin = store.unpack_operator(blob[store._HEADER.size:store._HEADER.size + length])
    packed_R = struct.pack("<QQ", *R.shape) + R.tobytes()
    old = {3: packed_R,
           4: packed_R + struct.pack("<d12s", margin, b"direct"),
           5: packed_R + struct.pack("<d", margin)}
    for version, payload in old.items():
        with open(path, "wb") as fh:
            fh.write(store._HEADER.pack(magic, version, kind, prov, len(payload)) + payload
                     + store._TAIL.pack(store._payload_check(payload)))
        capsys.readouterr()
        assert main(["--cache", cache, "cache", "ls"]) == 0
        listing = capsys.readouterr().out.strip()
        assert f"version={version}" in listing and listing.endswith("stale")
        assert "margin=" not in listing
        out2 = str(tmp_path / f"v{version}")
        assert main(["--out", out2, "--cache", cache, "run", cfg]) in (0, 2)
        assert os.listdir(cache) == [name]
        with open(path, "rb") as fh:
            assert fh.read() == blob
        a = open(os.path.join(out1, "runge.csv"), "rb").read()
        b = open(os.path.join(out2, "runge.csv"), "rb").read()
        assert a == b
