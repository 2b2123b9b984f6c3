import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qbm_structures import (
    BathSpec,
    DomainError,
    ModelParams,
    QuadraticHamiltonian,
    build_qbm_hamiltonian,
    coherent_state,
    discretize_bath,
    cli,
    evolve,
    product_state,
    propagator,
    symplectic_form,
    thermal_state,
)
import qbm_structures.experiments as ex
import qbm_structures.model as model
from qbm_structures.experiments import ScenarioConfig, _prepare
from qbm_structures.model import position_block
from helpers import random_model, workload


def test_zero_coupling_minimal_entries():
    # free particle + one uncoupled oscillator: two kinetic terms and one bath
    # potential term, nothing else
    params = ModelParams(m1=1.0, bath=((1.0, 1.0, 0.0),))
    K = build_qbm_hamiltonian(params).K
    nonzero = list(zip(*np.nonzero(K)))
    assert nonzero == [(1, 1), (2, 2), (3, 3)]
    assert K[1, 1] == 1.0  # bath potential m w^2
    assert K[2, 2] == 1.0 and K[3, 3] == 1.0  # both kinetic 1/m


def test_coupling_entry_matches_hand_expansion():
    # expanding (1/2) z^T K z and matching the interaction term x1 * kappa * x2
    # requires K[x1, x2] = kappa exactly
    params = ModelParams(m1=1.0, bath=((1.0, 1.0, 0.3),), potential="harmonic", omega=1.0)
    K = build_qbm_hamiltonian(params).K
    z = np.array([0.7, -1.2, 0.0, 0.0])
    energy = 0.5 * z @ K @ z
    by_hand = 0.5 * 1.0 * 0.7**2 + 0.5 * 1.0 * 1.2**2 + 0.3 * 0.7 * (-1.2)
    assert energy == pytest.approx(by_hand, abs=1e-15)
    assert K[0, 1] == 0.3 and K[1, 0] == 0.3


def test_minus_sign_negates_coupling_only():
    plus = build_qbm_hamiltonian(
        ModelParams(m1=1.0, bath=((1.0, 1.0, 0.3),), potential="harmonic", omega=1.0)
    ).K
    minus = build_qbm_hamiltonian(
        ModelParams(
            m1=1.0, bath=((1.0, 1.0, 0.3),), potential="harmonic", omega=1.0, coupling_sign=-1
        )
    ).K
    assert minus[0, 1] == -plus[0, 1]
    off = np.ones_like(plus, dtype=bool)
    off[0, 1] = off[1, 0] = False
    assert np.array_equal(plus[off], minus[off])


def test_zero_coupling_block_diagonal():
    params = ModelParams(m1=2.0, bath=((1.0, 0.7, 0.0), (1.5, 1.2, 0.0)))
    H = build_qbm_hamiltonian(params)
    n = H.n_modes
    for i in range(1, n):
        assert H.K[0, i] == 0.0 and H.K[n, n + i] == 0.0


def test_rejects_bad_parameters():
    with pytest.raises(DomainError):
        ModelParams(m1=-1.0, bath=((1.0, 1.0, 0.0),))
    with pytest.raises(DomainError):
        ModelParams(m1=1.0, bath=((1.0, -1.0, 0.0),))
    with pytest.raises(DomainError):
        ModelParams(m1=1.0, bath=())
    with pytest.raises(DomainError):
        ModelParams(m1=1.0, bath=((1.0, 1.0, 0.0),), potential="harmonic")
    with pytest.raises(DomainError):
        ModelParams(m1=1.0, bath=((1.0, 1.0, 0.0),), coupling_sign=2)


NAN, INF = float("nan"), float("inf")
BATH = ((1.0, 1.0, 0.1),)


def _scenario(times=(0.0, 1.0), **kwargs):
    return ScenarioConfig(ModelParams(m1=1.0, bath=BATH), times=np.array(times), **kwargs)


NON_FINITE_CASES = {
    "m1=nan": ("m1", lambda: ModelParams(m1=NAN, bath=BATH)),
    "m1=inf": ("m1", lambda: ModelParams(m1=INF, bath=BATH)),
    "omega=nan": ("omega", lambda: ModelParams(m1=1.0, bath=BATH, potential="harmonic", omega=NAN)),
    "omega=inf": ("omega", lambda: ModelParams(m1=1.0, bath=BATH, potential="harmonic", omega=INF)),
    "bath mass=nan": ("bath", lambda: ModelParams(m1=1.0, bath=((NAN, 1.0, 0.1),))),
    "bath frequency=inf": ("bath", lambda: ModelParams(m1=1.0, bath=((1.0, INF, 0.1),))),
    "bath coupling=nan": ("bath", lambda: ModelParams(m1=1.0, bath=((1.0, 1.0, 0.1), (1.0, 2.0, NAN)))),
    "gamma=nan": ("gamma", lambda: BathSpec(n_modes=2, gamma=NAN, cutoff=1.0)),
    "cutoff=inf": ("cutoff", lambda: BathSpec(n_modes=2, gamma=0.1, cutoff=INF)),
    "times with nan": ("times", lambda: _scenario(times=(0.0, NAN))),
    "times ending at inf": ("times", lambda: _scenario(times=(0.0, 1.0, INF))),
    "x0=nan": ("x0", lambda: _scenario(x0=NAN)),
    "p0=-inf": ("p0", lambda: _scenario(p0=-INF)),
    "bath_temperature=nan": ("bath_temperature", lambda: _scenario(bath_temperature=NAN)),
    "bath_temperature=inf": ("bath_temperature", lambda: _scenario(bath_temperature=INF)),
    "K with nan": ("K", lambda: QuadraticHamiltonian(1, np.array([[1.0, NAN], [NAN, 1.0]]))),
}


@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_non_finite_entries_are_rejected_by_name(case):
    field, build = NON_FINITE_CASES[case]
    with pytest.raises(DomainError, match=f"^{field} must be finite"):
        build()


def test_asymmetric_matrix_rejected():
    K = np.zeros((4, 4))
    K[0, 1] = 1.0
    with pytest.raises(DomainError):
        QuadraticHamiltonian(2, K)


INDEFINITE = (
    "position block of the model Hamiltonian is indefinite (coupling exceeds confinement); dynamics are unbounded"
)


def _indefinite_warnings(call):
    """call()'s result and the messages of the indefinite-position-block warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in caught if str(w.message).startswith("position block")]


def test_indefinite_position_block_warns():
    # building the model decides nothing; the run's normal modes do
    params = ModelParams(m1=1.0, bath=((1.0, 0.5, 0.8),))
    assert _indefinite_warnings(lambda: build_qbm_hamiltonian(params))[1] == []
    cfg = ScenarioConfig(params, times=np.array([0.0, 1.0]))
    assert _indefinite_warnings(lambda: _prepare(cfg, None))[1] == [INDEFINITE]


def test_default_free_particle_warns_once_per_run(tmp_path):
    config = tmp_path / "pod.ini"
    config.write_text("[scenario]\nkind = pod\n\n[times]\nn_points = 3\n")
    assert _indefinite_warnings(lambda: cli.main([str(config), "--output", str(tmp_path / "o.csv")])) == (
        0,
        [INDEFINITE],
    )


def test_harmonic_and_zero_coupling_models_do_not_warn():
    wide, _ = workload("pod-wide")
    for seed in (0, 1, 2):
        cfg = cli.build_scenario(replace(wide, seed=seed))
        assert _indefinite_warnings(lambda: _prepare(cfg, None))[1] == []
    # a free particle without coupling: the position block has an exact 0 eigenvalue, a free mode, not an unstable one
    params = ModelParams(m1=2.0, bath=((1.0, 0.7, 0.0), (1.5, 1.2, 0.0)))
    assert np.linalg.eigvalsh(build_qbm_hamiltonian(params).position_block).min() == 0.0
    world, messages = _indefinite_warnings(lambda: _prepare(ScenarioConfig(params, times=np.array([0.0, 1.0])), None))
    assert messages == [] and world.sq_freqs[0] == 0.0


TINY_PURIFIED = "[scenario]\nkind = pod\n[model]\nn_bath = 3\n[initial]\ntemperature = 1.0\npurified = true\n"


SOLVERS = ("eigh", "eigvalsh", "eigvals", "eig", "cholesky", "inv")


def _spy_solvers(monkeypatch, names=SOLVERS):
    calls = []
    for name in names:
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _f=solver, _n=name, **k: calls.append(_n) or _f(*a, **k))
    return calls


def test_prepare_solves_the_model_once(monkeypatch):
    # the secular equation on O(N) data: no dense solver, no position block, no n x n array but V and MV
    calls = _spy_solvers(monkeypatch)
    for build in (model.build_qbm_hamiltonian, model.position_block):
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "qbm_structures"]:
            for key in [key for key, value in vars(module).items() if value is build]:
                monkeypatch.setattr(module, key, lambda *a, _f=build: calls.append(_f.__name__) or _f(*a))
    cfg = cli.build_scenario(cli.parse_config("[scenario]\nkind = pod\n"))
    _prepare(cfg, None)
    assert calls == []
    for params in (cfg.model, random_model(np.random.default_rng(7), 3, potential="harmonic", sign=-1)):
        assert np.array_equal(position_block(params), build_qbm_hamiltonian(params).position_block)
    assert not set(calls) & set(SOLVERS)  # building the model, either way, solves nothing

    wide = cli.build_scenario(cli.parse_config("[scenario]\nkind = marginal\n[model]\nn_bath = 1023\n"))
    n = wide.model.n_modes
    tracemalloc.start()
    try:
        world = _prepare(wide, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [k for k, v in vars(world).items() if np.shape(v) == (n, n)] == ["V", "MV"]
    assert peak <= 2.5 * n * n * 8  # V and MV, and temporaries of O(N) rows: the dense route peaked at 4 n^2

    worlds = []
    monkeypatch.setattr(ex, "_prepare", lambda *a, _f=ex._prepare: worlds.append(_f(*a)) or worlds[-1])
    tiny = cli.build_scenario(cli.parse_config(TINY_PURIFIED))
    for run in (ex.run_er_check, ex.run_exclusivity, ex.run_marginal):
        run(tiny)
    n = tiny.model.n_modes
    assert len(worlds) == 3
    for world in worlds:  # a Hamiltonian counts by its K
        assert [k for k, v in vars(world).items() if np.shape(getattr(v, "K", v)) == (2 * n, 2 * n)] == []


# every numpy.linalg function: the LAPACK solvers and the rest (norm, multi_dot, matrix_power, ...)
LINALG = [name for name, f in vars(np.linalg).items() if callable(f) and name.islower() and name[0] != "_"]
LINALG.remove("test")  # numpy's own test runner
TINY_ORACLE = (
    "[scenario]\nkind = oracle-compare\n[model]\nn_bath = 2\npotential = harmonic\nomega = 1.0\n"
    "[initial]\nx = 0.5\n[times]\nn_points = 3\n[oracle]\ncutoff = 8\n"
)


def test_gaussian_scenarios_call_no_eigensolver(monkeypatch):
    # the diagnostics are one-mode closed forms: no numpy.linalg call outside the Fock oracle's Hermitian solves
    assert {"slogdet", "qr", "solve", "inv", "eigh", "eigvals", "norm"} <= set(LINALG)
    calls = []  # (function, the module that called it)

    def spy(name, solver):
        return lambda *a, **k: calls.append((name, sys._getframe(1).f_globals["__name__"])) or solver(*a, **k)

    for name in LINALG:
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    runs = {"pod": ex.run_pod, "er": ex.run_er_check, "exclusivity": ex.run_exclusivity, "marginal": ex.run_marginal}
    for kind, run in runs.items():
        run(cli.build_scenario(cli.parse_config(TINY_PURIFIED.replace("kind = pod", f"kind = {kind}"))))
        assert calls == [], kind
    # mixed pod keeps one eigvals of (Omega + R) sigma0 per split and sample
    mixed = cli.build_scenario(cli.parse_config(TINY_PURIFIED.replace("purified = true", "purified = false")))
    ex.run_pod(mixed)
    assert calls == [("eigvals", "qbm_structures.experiments")] * 2 * len(mixed.times)
    calls.clear()
    oracle = cli.parse_config(TINY_ORACLE)
    ex.run_oracle_compare(cli.build_scenario(oracle), oracle.cutoff, certify=True, bump=1)
    assert calls and {module for _, module in calls} == {"qbm_structures.fock_oracle"}
    assert {name for name, _ in calls} == {"eigh", "eigvalsh", "norm"}  # norm of the Fock amplitudes calls no LAPACK


def test_discretize_single_mode_linear():
    spec = BathSpec(n_modes=1, gamma=0.3, cutoff=1.0)
    ((m, w, k),) = discretize_bath(spec, mass=1.5)
    assert w == 1.0
    assert k**2 == pytest.approx((2 / np.pi) * 1.5 * 0.3, rel=1e-14)


def test_discretize_zero_damping():
    for scheme in ("linear", "log"):
        modes = discretize_bath(BathSpec(n_modes=5, gamma=0.0, cutoff=2.0, scheme=scheme))
        assert all(k == 0.0 for _, _, k in modes)


def test_discretize_linear_grid():
    modes = discretize_bath(BathSpec(n_modes=4, gamma=0.1, cutoff=2.0))
    assert [w for _, w, _ in modes] == pytest.approx([0.5, 1.0, 1.5, 2.0])


def test_discretize_log_grid_in_range():
    modes = discretize_bath(BathSpec(n_modes=6, gamma=0.1, cutoff=3.0, scheme="log"))
    omegas = np.array([w for _, w, _ in modes])
    assert np.all(omegas > 0) and omegas[-1] == pytest.approx(3.0)
    assert np.all(np.diff(omegas) > 0)
    ratios = omegas[1:] / omegas[:-1]
    assert np.allclose(ratios, ratios[0])


def test_discretize_rejects_bad_spec():
    with pytest.raises(DomainError):
        BathSpec(n_modes=0, gamma=0.1, cutoff=1.0)
    with pytest.raises(DomainError):
        BathSpec(n_modes=2, gamma=-0.1, cutoff=1.0)
    with pytest.raises(DomainError):
        BathSpec(n_modes=2, gamma=0.1, cutoff=0.0)
    with pytest.raises(DomainError):
        discretize_bath(BathSpec(n_modes=2, gamma=0.1, cutoff=1.0), mass=0.0)


def test_energy_conserved_along_evolution():
    rng = np.random.default_rng(11)
    for _ in range(5):
        params = random_model(rng, n_bath=3, potential="harmonic", kappa_range=(0.05, 0.2))
        H = build_qbm_hamiltonian(params)
        state = product_state(
            coherent_state(1, 0, 1.0, -0.5, params.m1, params.omega),
            thermal_state([(m, w) for m, w, _ in params.bath], temperature=0.7),
        )
        # <H> = (tr(K sigma) + m^T K m) / 2
        energy = lambda st: 0.5 * (np.trace(H.K @ st.cov) + st.mean @ H.K @ st.mean)  # noqa: E731
        e0 = energy(state)
        for t in (0.3, 1.7, 4.0):
            assert energy(evolve(state, propagator(H, t))) == pytest.approx(e0, rel=1e-8)


def test_symplectic_form_shape():
    om = symplectic_form(3)
    assert om.shape == (6, 6)
    assert np.array_equal(om, -om.T)
    assert np.array_equal(om @ om, -np.eye(6))


def test_symplectic_form_is_shared_and_read_only():
    om = symplectic_form(4)
    assert symplectic_form(4) is om
    assert not om.flags.writeable
    with pytest.raises(ValueError):
        om[0, 4] = 2.0
