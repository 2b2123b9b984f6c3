import dataclasses
import itertools
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import per_sample_er, per_sample_exclusivity, per_sample_marginal
from qbm_structures import ConditioningError, DomainError
from qbm_structures.cli import (
    _FIELD_MAP,
    _SCHEMA,
    _uniform_draws,
    CSV_VERSION_HEADER,
    RunConfig,
    apply_overrides,
    build_scenario,
    main,
    parse_config,
    run,
)

MINIMAL_POD = """
[scenario]
kind = pod
"""

FULL_POD = """
# comments and blank lines are allowed
[scenario]
kind = pod
seed = 3

[model]
m1 = 1.2
potential = harmonic
omega = 1.0
n_bath = 3
gamma = 0.15
cutoff_freq = 4.0
perturb = 0.02

[initial]
x = 1.5
temperature = 1.0
purified = true

[times]
t_max = 4.0
n_points = 9
"""


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL_POD)
    assert cfg.kind == "pod"
    assert cfg.seed == 0
    assert cfg.n_bath == 8 and cfg.gamma == 0.2
    assert cfg.purified is False
    assert cfg.output is None


def test_parse_full_config():
    cfg = parse_config(FULL_POD)
    assert cfg.m1 == 1.2 and cfg.potential == "harmonic"
    assert cfg.t_max == 4.0 and cfg.n_points == 9
    assert cfg.purified is True
    scenario = build_scenario(cfg)
    assert scenario.model.n_modes == 4
    assert scenario.times[-1] == 4.0


def test_unknown_key_rejected_by_name():
    with pytest.raises(DomainError, match="fooo"):
        parse_config("[scenario]\nkind = pod\nfooo = 1\n")


def test_unknown_section_rejected():
    with pytest.raises(DomainError, match="mystery"):
        parse_config("[scenario]\nkind = pod\n[mystery]\na = 1\n")


def test_unknown_scenario_kind_rejected():
    with pytest.raises(DomainError, match="kind"):
        parse_config("[scenario]\nkind = frobnicate\n")


def test_negative_mass_names_field():
    cfg = parse_config("[scenario]\nkind = pod\n[model]\nm1 = -2.0\n")
    with pytest.raises(DomainError, match="m1"):
        build_scenario(cfg)


def test_malformed_line_reports_parse_error():
    with pytest.raises(DomainError, match="parse error"):
        parse_config("[scenario]\nkind = pod\nthis is not a key value line\n")


def test_bad_value_names_key():
    with pytest.raises(DomainError, match=r"\[times\] n_points"):
        parse_config("[scenario]\nkind = pod\n[times]\nn_points = soon\n")


def test_explicit_bath_lists():
    cfg = parse_config(
        "[scenario]\nkind = pod\n[model]\nbath_omegas = 0.8, 1.1\nbath_kappas = 0.1 0.2\n"
    )
    scenario = build_scenario(cfg)
    assert [w for _, w, _ in scenario.model.bath] == [0.8, 1.1]
    assert [k for _, _, k in scenario.model.bath] == [0.1, 0.2]


def test_bath_lists_must_come_together():
    with pytest.raises(DomainError):
        parse_config("[scenario]\nkind = pod\n[model]\nbath_omegas = 0.8\n")


def test_bath_masses_need_explicit_bath_lists(tmp_path, capsys):
    text = MINIMAL_POD + "[model]\nn_bath = 2\nbath_masses = 5 7\n[times]\nn_points = 3\n"
    with pytest.raises(DomainError, match="bath_masses"):
        parse_config(text)
    assert main([str(_write_config(tmp_path, text)), "--output", str(tmp_path / "x.csv")]) == 1
    assert "bath_masses needs bath_omegas" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    cfg = parse_config(text.replace("n_bath = 2", "bath_omegas = 0.8 1.1\nbath_kappas = 0.1 0.2"))
    assert [m for m, _, _ in build_scenario(cfg).model.bath] == [5.0, 7.0]


@pytest.mark.parametrize("masses", ["", "5"])
def test_bath_masses_of_the_wrong_length_exit_1(tmp_path, capsys, masses):
    # an empty list is a list of length 0, not a missing key: it does not fall back to bath_mass
    text = MINIMAL_POD + f"[model]\nbath_omegas = 0.8 1.1\nbath_kappas = 0.1 0.2\nbath_masses = {masses}\n"
    assert parse_config(text).bath_masses == tuple(float(m) for m in masses.split())
    assert main([str(_write_config(tmp_path, text)), "--output", str(tmp_path / "x.csv")]) == 1
    assert "bath_masses must have equal lengths" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_every_config_key_names_its_own_run_config_field():
    names = [_FIELD_MAP.get((section, key), key) for section, keys in _SCHEMA.items() for key in keys]
    assert len(names) == len(set(names))
    assert set(names) == {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize(
    "override",
    [
        "initial.x=nan",
        "initial.temperature=nan",
        "model.perturb=nan",
        "model.gamma=nan",
        "model.m1=nan",
        "model.omega=nan",
        "model.cutoff_freq=inf",
        "model.bath_omegas=0.8 -inf",
        "times.t_max=nan",
    ],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, override):
    text = MINIMAL_POD + "[model]\npotential = harmonic\nomega = 1.0\nn_bath = 2\n[times]\nn_points = 3\n"
    path = _write_config(tmp_path, text)
    assert main([str(path), "--output", str(tmp_path / "x.csv"), "--set", override]) == 1
    err = capsys.readouterr().err
    assert override.split("=")[0] in err and "must be finite" in err


def test_apply_overrides():
    cfg = parse_config(MINIMAL_POD)
    cfg = apply_overrides(cfg, ["model.gamma=0.5", "times.n_points=11"])
    assert cfg.gamma == 0.5 and cfg.n_points == 11
    assert apply_overrides(cfg, ["model.gamma=0.7", "model.gamma=0.3"]).gamma == 0.3  # the last one wins
    with pytest.raises(DomainError):
        apply_overrides(cfg, ["model.fooo=1"])
    with pytest.raises(DomainError):
        apply_overrides(cfg, ["not-a-pair"])


def test_bath_lists_set_in_separate_flags_are_validated_together(tmp_path, capsys):
    # every order of the three flags runs the model that the same lists in the file give; none is checked half-set
    lists = {"bath_omegas": "0.8 1.1", "bath_kappas": "0.1 0.2", "bath_masses": "5 7"}
    text = MINIMAL_POD + "[times]\nn_points = 3\n"
    in_file = _write_config(tmp_path, text + "[model]\n" + "".join(f"{k} = {v}\n" for k, v in lists.items()), "lists")
    assert main([str(in_file), "--output", str(tmp_path / "file.csv")]) == 0
    path = _write_config(tmp_path, text)
    for i, order in enumerate(itertools.permutations(lists)):
        argv = [str(path), "--output", str(tmp_path / f"{i}.csv")]
        for key in order:
            argv += ["--set", f"model.{key}={lists[key]}"]
        assert main(argv) == 0, order
        assert (tmp_path / f"{i}.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()
    capsys.readouterr()
    assert main([str(path), "--output", str(tmp_path / "x.csv"), "--set", "model.bath_omegas=0.8"]) == 1
    assert capsys.readouterr().err == "error: bath_omegas and bath_kappas must be given together\n"


# finite values whose squares or widths leave the float range: a message and an exit status, never a traceback, and
# no numpy RuntimeWarning (the suite's filter makes one an error)
FLOAT_RANGE_CASES = {
    "omega=1e160": (["model.omega=1e160"], 1, "error: omega = 1e+160 overflows the stiffness m1 omega^2"),
    "bath frequency=1e200": (
        ["model.bath_omegas=0.8 1e200", "model.bath_kappas=0.1 0.2"],
        1,
        "error: bath frequency 1 = 1e+200 overflows the stiffness m w^2",
    ),
    "bath frequency=1e200 on oracle-compare": (
        ["scenario.kind=oracle-compare", "initial.temperature=0", "initial.purified=false"]
        + ["model.bath_omegas=0.8 1e200", "model.bath_kappas=0.1 0.2"],
        1,
        "error: bath frequency 1 = 1e+200 overflows the stiffness m w^2",
    ),
    "bath coupling=1e200": (
        ["model.bath_omegas=0.8 1.1", "model.bath_kappas=1e200 0.1"],
        1,
        "error: bath coupling 0 = 1e+200 overflows its square kappa^2 / (m1 m)",
    ),
    "bath couplings=1e154 1e154": (
        ["model.bath_omegas=0.8 1.1", "model.bath_kappas=1e154 1e154"],
        1,
        "error: the bath couplings overflow the sum of their squares",
    ),
    "cutoff_freq=1e300": (["model.cutoff_freq=1e300"], 1, "error: cutoff 1e+300 overflows the Ohmic couplings"),
    "cutoff_freq=1e-300": (
        ["model.cutoff_freq=1e-300"],
        2,
        "conditioning error: thermal widths at T = 1.0 leave the float range",
    ),
    "temperature=1e-310": (["initial.temperature=1e-310"], 0, "pod: "),
}


@pytest.mark.parametrize("case", list(FLOAT_RANGE_CASES))
def test_values_beyond_the_float_range_exit_cleanly(tmp_path, capsys, case):
    overrides, status, prefix = FLOAT_RANGE_CASES[case]
    text = MINIMAL_POD + "[model]\npotential = harmonic\nomega = 1.0\nn_bath = 2\n[times]\nn_points = 3\n"
    text += "[initial]\nx = 1.0\ntemperature = 1.0\npurified = true\n[oracle]\ncutoff = 4\n"
    path = _write_config(tmp_path, text)
    argv = [str(path), "--output", str(tmp_path / "x.csv")]
    assert main(argv + [item for pair in overrides for item in ("--set", pair)]) == status
    out, err = capsys.readouterr()
    assert (err or out).startswith(prefix)
    if status == 0:  # w / 2T overflows, and coth(w / 2T) is 1 to the last bit: the T = 0 run
        zero = str(tmp_path / "zero.csv")
        assert main([str(path), "--output", zero, "--set", "initial.temperature=0"]) == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()
    else:
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("perturb", ["1.0", "1.5", "-0.1"])
def test_perturb_outside_unit_interval_rejected(tmp_path, capsys, perturb):
    path = _write_config(tmp_path, MINIMAL_POD)
    assert main([str(path), "--output", str(tmp_path / "x.csv"), "--set", f"model.perturb={perturb}"]) == 1
    assert "perturb must be in [0, 1)" in capsys.readouterr().err


@given(st.integers(0, 2**256))
@example(0)
@example(2**32 - 1)
@example(2**32)
@example(2**64 + 7)
@example(2**200 + 1)
def test_jitter_draws_are_numpys_uniform_stream(seed):
    # pins the seed -> model mapping: N_bath = 1024 takes 2 N_bath + 1 draws; seeds past
    # 2^128 carry more 32-bit words than SeedSequence's pool of four holds
    ours = list(itertools.islice(_uniform_draws(seed), 2049))
    assert ours == np.random.default_rng(seed).uniform(-1.0, 1.0, size=2049).tolist()


def test_seed_changes_perturbed_model():
    cfg = parse_config(FULL_POD)
    a = build_scenario(cfg)
    b = build_scenario(RunConfig(**{**cfg.__dict__, "seed": 4}))
    assert a.model.m1 != b.model.m1


def test_run_writes_versioned_csv(tmp_path):
    out = tmp_path / "pod.csv"
    cfg = parse_config(MINIMAL_POD)
    cfg = apply_overrides(
        cfg, ["times.n_points=5", "times.t_max=2.0", "model.n_bath=2", "initial.x=1.0"]
    )
    cfg = RunConfig(**{**cfg.__dict__, "output": str(out)})
    assert run(cfg) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_VERSION_HEADER
    assert lines[1] == "t,purity_1,purity_Sp,neg_12,neg_SpEp"
    assert len(lines) == 2 + 5
    values = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.all(np.isfinite(values))


def test_pod_zero_coupling_constant_purity(tmp_path):
    out = tmp_path / "flat.csv"
    rc = main(
        [
            str(_write_config(tmp_path, MINIMAL_POD)),
            "--output",
            str(out),
            "--set",
            "model.gamma=0.0",
            "--set",
            "times.n_points=6",
            "--set",
            "model.n_bath=2",
        ]
    )
    assert rc == 0
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[2:]]
    )
    purity_col = rows[:, 1]
    assert np.allclose(purity_col, purity_col[0], atol=1e-12)
    assert np.all(rows[:, 3] == 0.0)


def test_cli_deterministic_byte_identical(tmp_path):
    path = _write_config(tmp_path, FULL_POD)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([str(path), "--output", str(out1), "--set", "times.n_points=6"]) == 0
    assert main([str(path), "--output", str(out2), "--set", "times.n_points=6"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_exit_codes(tmp_path, capsys):
    path = _write_config(tmp_path, "[scenario]\nkind = pod\n[model]\nm1 = -1\n")
    assert main([str(path), "--output", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "m1" in err
    assert main([str(tmp_path / "missing.txt")]) == 1
    # no output path configured anywhere
    path2 = _write_config(tmp_path, MINIMAL_POD)
    assert main([str(path2)]) == 1


def test_cli_er_and_marginal_and_exclusivity(tmp_path, capsys):
    base = """
[scenario]
kind = {kind}

[model]
m1 = 1.0
potential = harmonic
omega = 1.0
bath_omegas = 1.3
bath_kappas = 0.2

[initial]
x = 1.0

[times]
t_max = 2.0
n_points = 4
"""
    for kind, header, summary_end in (
        ("er", "t,neg_12,neg_SpEp,witnessed", " of 4 instants (product tol 1e-08, witness threshold 0.001)"),
        ("exclusivity", "t,neg_SpEp_branch,excluding", " over 4 instants (threshold 0.001, min margin 0.168)"),
        ("marginal", "t,l1_distance,mean_1,var_1,mean_Sp,var_Sp", ""),
    ):
        path = _write_config(tmp_path, base.format(kind=kind), name=f"{kind}.txt")
        out = tmp_path / f"{kind}.csv"
        assert main([str(path), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == header
        assert len(lines) == 2 + 4
        summary = capsys.readouterr().out.strip()
        assert summary.startswith(f"{kind}: ") and summary.endswith(summary_end)


def test_cli_exclusivity_runs_on_the_default_model(tmp_path, capsys):
    # the default model is a free particle whose unstable mode once broke the dense branch route
    path = _write_config(tmp_path, "[scenario]\nkind = exclusivity\n")
    out = tmp_path / "ex.csv"
    assert main([str(path), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "t,neg_SpEp_branch,excluding"
    assert len(lines) == 2 + 50
    assert capsys.readouterr().out.startswith("exclusivity: flagged fraction 1.0000 over 50 instants")


def test_cli_oracle_compare_small(tmp_path):
    cfgtext = """
[scenario]
kind = oracle-compare

[model]
m1 = 1.0
potential = harmonic
omega = 1.0
bath_omegas = 1.3
bath_kappas = 0.2

[initial]
x = 1.0

[times]
t_max = 3.0
n_points = 4

[oracle]
cutoff = 16
"""
    path = _write_config(tmp_path, cfgtext)
    out = tmp_path / "oc.csv"
    assert main([str(path), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "t,delta_purity,delta_mean,delta_cov,delta_decoherence,max_abs_delta"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.max(rows[:, -1]) < 1e-6


ORACLE_TINY = """
[scenario]
kind = oracle-compare

[model]
potential = harmonic
omega = 1.0
bath_omegas = 1.3
bath_kappas = 0.2

[initial]
x = 0.5

[times]
t_max = 1.0
n_points = 2

[oracle]
cutoff = 8
"""


@pytest.mark.parametrize("bump", [0, -3])
def test_certification_needs_a_positive_bump(tmp_path, capsys, bump):
    path = _write_config(tmp_path, ORACLE_TINY)
    args = [str(path), "--output", str(tmp_path / "oc.csv"), "--set", "oracle.certify=true"]
    assert main(args + ["--set", f"oracle.bump={bump}"]) == 1
    assert "bump" in capsys.readouterr().err
    assert not (tmp_path / "oc.csv").exists()


# the Ohmic bath's two modes at cutoff 8 are far from converged: the Fock columns move by 8.9e-2 at cutoff 9
TINY_ORACLE = (
    "[scenario]\nkind = oracle-compare\n[model]\nn_bath = 2\npotential = harmonic\nomega = 1.0\n"
    "[initial]\nx = 0.5\n[times]\nn_points = 3\n[oracle]\ncutoff = 8\n"
)


def test_unconverged_certification_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, TINY_ORACLE)
    args = [str(path), "--output", str(tmp_path / "oc.csv"), "--set", "oracle.certify=true", "--set", "oracle.bump=1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert re.search(r"drift 8\.9\d\de-02 exceeds 1e-06 between cutoffs \(8, 8, 8\) and \(9, 9, 9\) \(bump 1\)", err)
    assert not (tmp_path / "oc.csv").exists()
    assert main(args[:3]) == 0  # uncertified, the same run reports its deltas


UNUSED_KEY_CASES = {
    # oracle-compare's explicit bath lists leave the Ohmic grid's keys unused; pod reads no [oracle] key
    "model.n_bath=0": ORACLE_TINY,
    "model.gamma=-1": ORACLE_TINY,
    "model.cutoff_freq=-2": ORACLE_TINY,
    "oracle.cutoff=0": MINIMAL_POD,
    "oracle.bump=-1": MINIMAL_POD,
}


@pytest.mark.parametrize("override", list(UNUSED_KEY_CASES))
def test_out_of_range_values_of_unused_keys_exit_1(tmp_path, capsys, override):
    path = _write_config(tmp_path, UNUSED_KEY_CASES[override])
    assert main([str(path), "--output", str(tmp_path / "x.csv"), "--set", override]) == 1
    section, key = override.split("=")[0].split(".")
    assert capsys.readouterr().err.startswith(f"error: [{section}] {key}")
    assert not (tmp_path / "x.csv").exists()


def test_unwritable_output_exits_1(tmp_path, capsys):
    path = _write_config(tmp_path, MINIMAL_POD)
    out = tmp_path / "missing" / "dir" / "x.csv"
    assert main([str(path), "--output", str(out), "--set", "times.n_points=3", "--set", "model.n_bath=2"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


@pytest.mark.parametrize("where", ["file", "flag"])
def test_particle_state_other_than_coherent_exits_1(tmp_path, capsys, where):
    text = MINIMAL_POD + ("[initial]\nkind = squeezed\n" if where == "file" else "")
    argv = [str(_write_config(tmp_path, text)), "--output", str(tmp_path / "x.csv")]
    assert main(argv + (["--set", "initial.kind=squeezed"] if where == "flag" else [])) == 1
    assert capsys.readouterr().err == "error: unsupported particle state kind 'squeezed'\n"
    assert not (tmp_path / "x.csv").exists()


def test_run_that_does_not_fit_in_memory_exits_1(tmp_path, capsys, monkeypatch):
    # a real allocation of that size may or may not be refused, as the host's overcommit setting decides
    def refuse(scenario):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr("qbm_structures.experiments.run_pod", refuse)
    assert main([str(_write_config(tmp_path, MINIMAL_POD)), "--output", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: the run does not fit in memory (Unable to allocate 7.28 TiB")
    assert not (tmp_path / "x.csv").exists()


# modules a run must load only when it needs them: scipy (no scenario), numpy.random (the jitter
# draws its own copy of numpy's stream) and the Fock oracle (oracle-compare only)
LOADED_OPTIONAL = (
    "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')"
    " or m == 'qbm_structures.fock_oracle')"
)

SCIPY_FREE_RUNS = {
    "pod-purified": (FULL_POD, []),
    "pod-mixed": (FULL_POD, ["initial.purified=false"]),
    "er": (FULL_POD, ["scenario.kind=er"]),
    "exclusivity": (FULL_POD, ["scenario.kind=exclusivity"]),
    "marginal": (FULL_POD, ["scenario.kind=marginal"]),
    "oracle-compare": (ORACLE_TINY, ["model.perturb=0.05"]),
}


def _package_env():
    import qbm_structures

    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qbm_structures.__file__)))


@pytest.mark.parametrize("case", list(SCIPY_FREE_RUNS))
def test_cli_run_leaves_scipy_unloaded(tmp_path, case):
    # every run draws the seeded jitter; none loads scipy or numpy.random, and only oracle-compare the Fock oracle
    text, overrides = SCIPY_FREE_RUNS[case]
    argv = [str(_write_config(tmp_path, text)), "--output", str(tmp_path / "out.csv"), "--set", "times.n_points=3"]
    for item in overrides:
        argv += ["--set", item]
    code = f"import sys, qbm_structures.cli as cli; status = cli.main({argv!r}); print(status, {LOADED_OPTIONAL})"
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True)
    expected = ["qbm_structures.fock_oracle"] if case == "oracle-compare" else []
    assert out.stdout.strip().splitlines()[-1] == f"0 {expected}"


def _write_config(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cli_import_leaves_scipy_unloaded():
    # the package imports no scipy (tests/test_package.py), and numpy.random
    # and the Fock oracle load on no import of the CLI
    code = f"import sys, qbm_structures.cli; print({LOADED_OPTIONAL})"
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# records OPENBLAS_THREAD_TIMEOUT at the moment numpy is first imported
NUMPY_IMPORT_SPY = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, Spy())
import qbm_structures.cli
print(seen)
"""


@pytest.mark.parametrize("caller", [None, "12"])
def test_openblas_thread_timeout_is_set_before_numpy_loads(caller):
    # OpenBLAS reads the timeout once, when numpy loads it; a caller's own value wins
    env = {k: v for k, v in _package_env().items() if not k.startswith("OPENBLAS_")}
    if caller is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = caller
    out = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_SPY], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == repr([caller or "26"])


# spawns the command in its arguments and prints its exit status and peak RSS in kB.  A child's
# ru_maxrss starts from its parent's RSS at the fork (or its high-water mark, under vfork), so
# the command is started from this small process and never from the test runner itself.
PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.parametrize(
    "workload, n_bath, limit_mb",
    [
        pytest.param("marginal-wide", 1024, 150.0, id="marginal-wide"),
        pytest.param("exclusivity-long", 1024, 150.0, id="exclusivity-long"),
        pytest.param("marginal-wide", 4096, 250.0, id="marginal-wide-4096"),
    ],
)
def test_large_bath_runs_in_quadratic_memory(tmp_path, workload, n_bath, limit_mb):
    # no benchmark workload has more than 128 bath modes; at 1024 a dense 2n x 2n matrix on the
    # run path takes the CLI's peak RSS to about 230 MB, while n x n data stays near 60 MB.  At 4096
    # one n x n array is 134 MB: the run holds U alone, where V and MV took it to about 310 MB
    config = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads", f"{workload}.ini")
    argv = [sys.executable, "-m", "qbm_structures.cli", config, "--output", str(tmp_path / "out.csv")]
    argv += ["--set", f"model.n_bath={n_bath}", "--set", "times.n_points=8"]
    launcher = [sys.executable, "-c", PEAK_RSS_LAUNCHER, *argv]
    out = subprocess.run(launcher, env=_package_env(), capture_output=True, text=True, check=True)
    status, peak_kb = (int(v) for v in out.stdout.split())
    assert status == 0, out.stderr
    assert peak_kb / 1024.0 < limit_mb


@pytest.mark.parametrize("kind", ["pod", "marginal", "er", "exclusivity"])
def test_overflowed_flow_exits_2(tmp_path, capsys, kind):
    # the default free particle is unstable: by t = 1000 its mode-0 rows
    # outgrow the floats, and by t = 2e4 the cosh of its closed-form flow
    # does.  The suite raises every RuntimeWarning, so an overflow must
    # surface as a ConditioningError and never as a warning.
    for t_max in (1000, 1e6):
        path = _write_config(tmp_path, f"[scenario]\nkind = {kind}\n[times]\nt_max = {t_max}\n")
        assert main([str(path), "--output", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("conditioning error: ")
        if kind != "pod" or t_max > 1000:  # pod's covariance degenerates before its rows overflow
            assert "the flow overflowed or went non-finite at t = " in err


def test_exclusivity_exits_2_where_roundoff_can_hide_the_branch(tmp_path, capsys):
    # the unstable free particle of test_experiments._free_particle: accurate to t = 25, not at t = 30
    text = "[scenario]\nkind = exclusivity\n[model]\nn_bath = 3\n[initial]\nx = 2.0\n[times]\nn_points = 2\n"
    out = tmp_path / "out.csv"
    assert main([str(_write_config(tmp_path, text)), "--output", str(out), "--set", "times.t_max=25"]) == 0
    neg, excluding = out.read_text().splitlines()[-1].split(",")[1:]
    assert abs(float(neg) - 0.869126689892) < 1e-7 and excluding == "1"  # test_experiments._mp_reference at t = 25
    assert main([str(_write_config(tmp_path, text)), "--output", str(out), "--set", "times.t_max=30"]) == 2
    assert "roundoff can hide an excluding branch at t = 30 (" in capsys.readouterr().err


# first bad time of each run on the default free particle (50 points to
# t_max), as the per-sample loop named it before the grid route; exclusivity
# at 1000 overflows in its roundoff-dominated branch block, whose size is set
# by how its projection and roundoff bound are computed (first-order bound)
FIRST_OVERFLOW = {
    ("marginal", 1000): "489.796",
    ("er", 1000): "489.796",
    ("exclusivity", 1000): "306.122",
    ("marginal", 1e6): "20408.2",
    ("er", 1e6): "20408.2",
    ("exclusivity", 1e6): "20408.2",
}
PER_SAMPLE = {"marginal": per_sample_marginal, "er": per_sample_er, "exclusivity": per_sample_exclusivity}


@pytest.mark.parametrize("kind, t_max", list(FIRST_OVERFLOW))
def test_grid_overflow_names_the_per_sample_first_bad_time(tmp_path, capsys, kind, t_max):
    text = f"[scenario]\nkind = {kind}\n[times]\nt_max = {t_max}\n"
    named = f"the flow overflowed or went non-finite at t = {FIRST_OVERFLOW[kind, t_max]} ("
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        assert main([str(_write_config(tmp_path, text)), "--output", str(tmp_path / "out.csv")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("conditioning error: ") and named in err
    with pytest.raises(ConditioningError, match=re.escape(named)):
        PER_SAMPLE[kind](build_scenario(parse_config(text)))
