"""Configuration-driven command line entry point.

Reads a sectioned key = value scenario file (grammar documented in the
README), runs the requested experiment, writes one CSV per run with a
versioned header comment, and prints a short human summary to stdout.

Exit codes: 0 success, 1 configuration/domain error, 2 numerical
conditioning error.  Identical config and seed produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import experiments as ex
from .errors import ConditioningError, DomainError
from .model import BathSpec, ModelParams, discretize_bath

CSV_VERSION_HEADER = "# qbm-structures v1"

SCENARIOS = ("pod", "er", "exclusivity", "marginal", "oracle-compare")

_SCHEMA: dict[str, dict[str, str]] = {
    "scenario": {"kind": "str", "output": "str", "seed": "int"},
    "model": {
        "m1": "float",
        "potential": "str",
        "omega": "float",
        "coupling_sign": "str",
        "bath_mass": "float",
        "n_bath": "int",
        "gamma": "float",
        "cutoff_freq": "float",
        "grid": "str",
        "bath_omegas": "floats",
        "bath_kappas": "floats",
        "bath_masses": "floats",
        "perturb": "float",
    },
    "initial": {"kind": "str", "x": "float", "p": "float", "temperature": "float", "purified": "bool"},
    "times": {"t_max": "float", "n_points": "int"},
    "oracle": {"cutoff": "int", "certify": "bool", "bump": "int"},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario file contents, before the seeded genericity jitter."""

    kind: str
    output: str | None = None
    seed: int = 0
    m1: float = 1.0
    potential: str = "free"
    omega: float | None = None
    coupling_sign: str = "plus"
    bath_mass: float = 1.0
    n_bath: int = 8
    gamma: float = 0.2
    cutoff_freq: float = 5.0
    grid: str = "linear"
    bath_omegas: tuple[float, ...] | None = None
    bath_kappas: tuple[float, ...] | None = None
    bath_masses: tuple[float, ...] | None = None
    perturb: float = 0.0
    initial_kind: str = "coherent"
    x: float = 0.0
    p: float = 0.0
    temperature: float = 0.0
    purified: bool = False
    t_max: float = 10.0
    n_points: int = 50
    cutoff: int = 16
    certify: bool = False
    bump: int = 10

    def __post_init__(self) -> None:
        if self.kind not in SCENARIOS:
            raise DomainError(f"unknown scenario kind {self.kind!r}; expected one of {SCENARIOS}")
        if self.seed < 0:
            raise DomainError("seed must be a non-negative integer")
        if self.coupling_sign not in ("plus", "minus"):
            raise DomainError(f"coupling_sign must be 'plus' or 'minus', got {self.coupling_sign!r}")
        if self.t_max <= 0:
            raise DomainError("t_max must be positive")
        if self.n_points < 2:
            raise DomainError("n_points must be at least 2")
        if not 0 <= self.perturb < 1:
            # the jitter scales masses and frequencies by 1 +- perturb, which must stay positive
            raise DomainError(f"perturb must be in [0, 1), got {self.perturb}")
        if (self.bath_omegas is None) != (self.bath_kappas is None):
            raise DomainError("bath_omegas and bath_kappas must be given together")
        if self.bath_masses is not None and self.bath_omegas is None:
            raise DomainError("bath_masses needs bath_omegas and bath_kappas; the Ohmic grid uses bath_mass")
        for key, field in (("n_bath", "n_modes"), ("gamma", "gamma"), ("cutoff_freq", "cutoff"), ("grid", "scheme")):
            try:  # BathSpec's checks, one key at a time, also where explicit bath lists leave the grid unused
                replace(BathSpec(1, 0.0, 1.0), **{field: getattr(self, key)})
            except DomainError as exc:
                raise DomainError(f"[model] {key}: {exc}") from exc
        for key in ("cutoff", "bump"):  # also where no oracle-compare run reads them
            if getattr(self, key) < 1:
                raise DomainError(f"[oracle] {key} must be at least 1, got {getattr(self, key)}")


# every other key names its own RunConfig field
_FIELD_MAP = {("initial", "kind"): "initial_kind"}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _coerce(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(raw)
        if kind == "bool":
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError("expected true or false")
        if kind == "floats":
            return tuple(_finite(v) for v in raw.replace(",", " ").split())
        return raw
    except ValueError as exc:
        raise DomainError(f"bad value for {where}: {raw!r} ({exc})") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate the sectioned key = value scenario format.

    Unknown sections or keys are rejected by name; type errors name the key;
    malformed lines surface the parser's line number.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise DomainError(f"config parse error: {exc}") from exc

    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise DomainError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise DomainError(f"unknown key {key!r} in section [{section}]")
            name = _FIELD_MAP.get((section, key), key)
            values[name] = _coerce(_SCHEMA[section][key], raw, f"[{section}] {key}")
    if "kind" not in values:
        raise DomainError("missing required key 'kind' in section [scenario]")
    return RunConfig(**values)  # type: ignore[arg-type]


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply --set section.key=value flags on top of the file values."""
    for pair in pairs:
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise DomainError(f"--set expects section.key=value, got {pair!r}")
        target, raw = pair.split("=", 1)
        section, key = target.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise DomainError(f"unknown key {key!r} in section [{section}]")
        name = _FIELD_MAP.get((section, key), key)
        cfg = replace(cfg, **{name: _coerce(_SCHEMA[section][key], raw, target)})
    return cfg


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(hash_const: int, mult: int):
    """numpy SeedSequence's hashmix of 32-bit words; each call advances its constant."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    value = 0xCA01F9DD * x - 0x4973F715 * y & _M32
    return value ^ value >> 16


def _uniform_draws(seed: int) -> Iterator[float]:
    """The stream of np.random.default_rng(seed).uniform(-1, 1), bit for bit, without loading numpy.random.

    numpy's SeedSequence hashes the seed's 32-bit words into a pool of four and
    draws four 64-bit words from it: the 128-bit PCG64 state and stream.  Each
    draw steps the LCG and takes its XSL-RR output x (O'Neill, HMC-CS-2014-0905),
    read as the double -1 + 2 (x >> 11) 2^-53, as uniform(low, high) reads it.
    """
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0] * 3)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    draw_word = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [draw_word(pool[i % 4]) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
    inc = (inc_hi << 64 | inc_lo) << 1 & _M128 | 1
    state = (inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc & _M128
    while True:
        state = state * _PCG64_MULT + inc & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (-rot & 63)) & _M64
        yield -1.0 + 2.0 * ((x >> 11) * 2.0**-53)


def build_scenario(cfg: RunConfig) -> ex.ScenarioConfig:
    """Resolve the bath, apply the seeded genericity jitter, assemble the scenario."""
    if cfg.bath_omegas is not None:
        omegas = cfg.bath_omegas
        kappas = cfg.bath_kappas
        masses = (cfg.bath_mass,) * len(omegas) if cfg.bath_masses is None else cfg.bath_masses
        if len(kappas) != len(omegas) or len(masses) != len(omegas):
            raise DomainError("bath_omegas, bath_kappas and bath_masses must have equal lengths")
        bath = tuple(zip(masses, omegas, kappas))
    else:
        bath = discretize_bath(BathSpec(cfg.n_bath, cfg.gamma, cfg.cutoff_freq, cfg.grid), cfg.bath_mass)
    m1 = cfg.m1
    if cfg.perturb > 0:
        draws = _uniform_draws(cfg.seed)
        jitter = lambda: 1.0 + cfg.perturb * next(draws)  # noqa: E731
        bath = tuple((m * jitter(), w * jitter(), k) for m, w, k in bath)
        m1 = m1 * jitter()
    params = ModelParams(
        m1=m1,
        bath=bath,
        potential=cfg.potential,
        omega=cfg.omega,
        coupling_sign=+1 if cfg.coupling_sign == "plus" else -1,
    )
    times = np.linspace(0.0, cfg.t_max, cfg.n_points)
    return ex.ScenarioConfig(
        model=params,
        times=times,
        x0=cfg.x,
        p0=cfg.p,
        particle_state=cfg.initial_kind,
        bath_temperature=cfg.temperature,
        purified=cfg.purified,
    )


# ---------------------------------------------------------------------------
# output


def _write_csv(path: str, columns: list[str], rows: np.ndarray) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if not np.all(np.isfinite(rows)):
        raise ConditioningError("refusing to write non-finite values to CSV")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_VERSION_HEADER + "\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    except OSError as exc:  # an output path that cannot be written is a bad setting
        raise DomainError(f"cannot write output: {exc}") from exc


def _fmt_time(value: float) -> str:
    return f"{value:.6g}" if np.isfinite(value) else "n/a"


def run(cfg: RunConfig) -> int:
    """Execute the configured scenario; returns the process exit status."""
    try:
        if cfg.output is None:
            raise DomainError("no output path configured (set [scenario] output or --output)")
        scenario = build_scenario(cfg)
        if cfg.kind == "pod":
            rep = ex.run_pod(scenario)
            columns = {"purity_1": rep.purity_1, "purity_Sp": rep.purity_sp}
            columns |= {"neg_12": rep.neg_12, "neg_SpEp": rep.neg_spep}
            summary = (
                f"pod: min purity_1 = {rep.purity_1.min():.6g}, min purity_Sp = {rep.purity_sp.min():.6g}, "
                f"half-times t1 = {_fmt_time(rep.half_time_1)}, tSp = {_fmt_time(rep.half_time_sp)}"
            ) + (" (recurrences flagged)" if rep.recurrence_1 or rep.recurrence_sp else "")
        elif cfg.kind == "er":
            rep = ex.run_er_check(scenario)
            columns = {"neg_12": rep.neg_12, "neg_SpEp": rep.neg_spep, "witnessed": rep.witnessed.astype(float)}
            summary = (
                f"er: witnessed at {int(rep.witnessed.sum())} of {rep.times.size} instants "
                f"(product tol {ex.ER_PRODUCT_TOL:g}, witness threshold {ex.ER_WITNESS_THRESHOLD:g})"
            )
        elif cfg.kind == "exclusivity":
            rep = ex.run_exclusivity(scenario)
            columns = {"neg_SpEp_branch": rep.neg_spep, "excluding": rep.excluding.astype(float)}
            margin = np.min(np.abs(rep.neg_spep - ex.EXCLUSIVITY_THRESHOLD))
            summary = (
                f"exclusivity: flagged fraction {rep.flagged_fraction:.4f} "
                f"over {rep.times.size} instants (threshold {ex.EXCLUSIVITY_THRESHOLD:g}, min margin {margin:.3g})"
            )
        elif cfg.kind == "marginal":
            rep = ex.run_marginal(scenario)
            columns = {"l1_distance": rep.l1_distance, "mean_1": rep.mean_1, "var_1": rep.var_1}
            columns |= {"mean_Sp": rep.mean_sp, "var_Sp": rep.var_sp}
            summary = f"marginal: L1 distance min {rep.l1_distance.min():.6g}, max {rep.l1_distance.max():.6g}"
        else:
            rep = ex.run_oracle_compare(scenario, cfg.cutoff, certify=cfg.certify, bump=cfg.bump)
            columns = {"delta_purity": rep.delta_purity, "delta_mean": rep.delta_mean, "delta_cov": rep.delta_cov}
            columns["delta_decoherence"] = rep.delta_decoherence
            columns["max_abs_delta"] = np.max(np.column_stack(list(columns.values())), axis=1)
            cert = "" if rep.certification_delta is None else f", certification drift {rep.certification_delta:.3e}"
            summary = f"oracle-compare: max |delta| = {rep.max_abs_delta:.3e}{cert}"
        _write_csv(cfg.output, ["t", *columns], np.column_stack([rep.times, *columns.values()]))
        print(summary)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConditioningError as exc:
        print(f"conditioning error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbm-structures",
        description="Run particle + harmonic-bath decomposition experiments from a config file.",
    )
    parser.add_argument("config", help="path to a scenario config file")
    parser.add_argument("--output", help="override the CSV output path")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override any config value (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        cfg = apply_overrides(cfg, args.overrides)
        if args.output is not None:
            cfg = replace(cfg, output=args.output)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
