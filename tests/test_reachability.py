"""Every function in src/qbm_structures runs in some CLI scenario, or is listed here with its reason.

The CLI runs every scenario on tiny configs under sys.setprofile; a function
or method that no run enters must appear in UNREACHED, grouped by the reason
it stays.  Code that only tests reach belongs in tests/, not in src/.
"""

import ast
import sys
from pathlib import Path

import qbm_structures
from qbm_structures import cli
from qbm_structures.model import symplectic_form

SRC = Path(qbm_structures.__file__).resolve().parent

# (module, qualified name) per reason; written out here, not read from the benchmark
UNREACHED = {
    "wrapped by perfbench/tracer.TARGETS": {
        ("experiments", "marginal_incompatibility"),
        ("model", "build_qbm_hamiltonian"),
        ("structure", "collective_mode_map"),
        ("gaussian", "embed_symplectic"),
        ("gaussian", "reduce"),
        ("gaussian", "log_negativity"),
        ("gaussian", "thermal_state"),
        ("gaussian", "purify"),
        ("gaussian", "williamson"),
        ("gaussian", "product_state"),
        ("gaussian", "coherent_state"),
        ("gaussian", "condition_on_coherent"),
        ("gaussian", "evolve"),
        ("gaussian", "purity"),
        ("gaussian", "symplectic_eigenvalues"),
        ("gaussian", "cat_state"),
        ("gaussian", "decoherence_factor"),
        ("fock_oracle", "build_fock_hamiltonian"),
        ("fock_oracle", "DenseEvolver.__init__"),
        ("fock_oracle", "DenseEvolver.propagate"),
        ("fock_oracle", "quadrature_moments"),
        ("fock_oracle", "reduced_density"),
        ("fock_oracle", "mode_means"),
        ("fock_oracle", "purity_density"),
        ("fock_oracle", "weyl_operator"),
    },
    "called only by a function wrapped by perfbench/tracer.TARGETS": {
        ("model", "position_block"),
        ("model", "QuadraticHamiltonian.position_block"),
        ("model", "QuadraticHamiltonian.momentum_block"),
        ("structure", "StructureMap.__post_init__"),
        ("structure", "StructureMap.n_modes"),
        ("structure", "StructureMap.T_inv"),
        ("structure", "cm_relative_map"),
        ("structure", "normal_mode_map"),
        ("structure", "normal_modes"),
        ("structure", "_mass_orthonormal"),
        ("structure", "_tie_broken_order"),
        ("structure", "transform_hamiltonian"),
        ("gaussian", "CatState.__post_init__"),
        ("gaussian", "CatState.n_modes"),
        ("gaussian", "CatState.norm"),
        ("gaussian", "_displaced_overlap"),
        ("fock_oracle", "DenseEvolver.propagate.<locals>.apply"),
        ("fock_oracle", "_matricize"),
        ("fock_oracle", "_kron"),
    },
    "test reference": {
        ("structure", "StructureMap.lift"),
        ("fock_oracle", "state_moments"),
        ("fock_oracle", "_apply"),
    },
}

POD = """
[scenario]
kind = pod
[model]
potential = harmonic
omega = 1.0
n_bath = 2
perturb = 0.05
[initial]
x = 1.0
temperature = 1.0
purified = true
[times]
t_max = 2.0
n_points = 3
"""

ORACLE = """
[scenario]
kind = oracle-compare
[model]
potential = harmonic
omega = 1.0
bath_omegas = 0.9 1.4
bath_kappas = 0.15 0.15
perturb = 0.05
[initial]
x = 0.3
[times]
t_max = 2.0
n_points = 3
[oracle]
cutoff = 10
"""

RUNS = [
    (POD, []),
    (POD, ["initial.purified=false"]),
    (POD, ["scenario.kind=er"]),
    (POD, ["scenario.kind=exclusivity"]),
    (POD, ["scenario.kind=marginal"]),
    (ORACLE, []),
    (ORACLE, ["oracle.certify=true", "oracle.bump=1"]),
    (ORACLE, ["model.potential=free"]),
]


def _defined() -> set[tuple[str, str]]:
    """(module, co_qualname) of every def in the package, methods and nested functions included."""
    out = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add((module, prefix + child.name))
                walk(child, module, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return out


def _reached(tmp_path) -> set[tuple[str, str]]:
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and Path(frame.f_code.co_filename).parent == SRC:
            reached.add((Path(frame.f_code.co_filename).stem, frame.f_code.co_qualname))

    symplectic_form.cache_clear()  # a cached size would skip the call
    config = tmp_path / "config.ini"
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i, (text, overrides) in enumerate(RUNS):
            config.write_text(text)
            argv = [str(config), "--output", str(tmp_path / f"{i}.csv")]
            for item in overrides:
                argv += ["--set", item]
            assert cli.main(argv) == 0, overrides
    finally:
        sys.setprofile(previous)
    return reached


def test_every_function_runs_in_a_scenario_or_is_listed(tmp_path, capsys):
    defined, reached = _defined(), _reached(tmp_path)
    listed = set().union(*UNREACHED.values())
    assert sorted(defined - reached - listed) == []
    # the list stays exact: no stale name and none that a scenario now reaches
    assert sorted(listed - defined) == []
    assert sorted(listed & reached) == []
