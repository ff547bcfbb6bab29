"""Experiment runner.

Usage: paradox-lab <experiment> [key=value ...] [--config FILE] [--out DIR]

Configs are flat typed key=value pairs, accepted both as command-line
tokens and as lines of a config file (tokens override the file).  Every
run is seeded (default 0xC0FFEE, overridable by the PARADOX_LAB_SEED
environment variable) and writes result.json plus CSV data series;
identical config and seed produce byte-identical output.

Each experiment is one entry of ``EXPERIMENTS``: its keys, its runner and a
check across keys.  ``parse_config`` applies the keys and the check, so a bad
config exits 2 before any work starts; an error during the run exits 1.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import __version__, bell, bounds, catlab, lightcone, twoslit, zeno
from .errors import ConfigError, ParadoxLabError, ResolutionError
from .montecarlo import DRAW_BUDGET
from .rng import DEFAULT_SEED, MAX_SEED, SeededStream
from .serialize import write_csv, write_json

_INT_RE = re.compile(r"^[+-]?\d+$")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class _KeySpec:
    kind: str  # int | float | bool | str
    default: Any
    minimum: float | None = None
    maximum: float | None = None
    strictly_positive: bool = False


_COMMON = {
    "seed": _KeySpec("int", DEFAULT_SEED, minimum=0, maximum=MAX_SEED),
    "formats": _KeySpec("str", "json,csv"),
}

_ZENO_KEYS = {
    "B": _KeySpec("float", 1.0, strictly_positive=True),
    "T": _KeySpec("float", None, strictly_positive=True),
    # one trial's row of N uniforms must fit in one Monte Carlo chunk
    "N": _KeySpec("int", 10, minimum=1, maximum=DRAW_BUDGET),
    "trials": _KeySpec("int", 100000, minimum=1),
    "sweep": _KeySpec("str", "1,2,5,10,50"),
}

_BELL_KEYS = {
    "trials": _KeySpec("int", 100000, minimum=1),
    "theta_a": _KeySpec("float", 0.0),
    "theta_a_prime": _KeySpec("float", math.pi / 2.0),
    "theta_b": _KeySpec("float", math.pi / 4.0),
    "theta_b_prime": _KeySpec("float", 3.0 * math.pi / 4.0),
}

_TWOSLIT_KEYS = {
    "wavelength": _KeySpec("float", 1.0, strictly_positive=True),
    "slit_separation": _KeySpec("float", 2.0, strictly_positive=True),
    "screen_distance": _KeySpec("float", 100.0, strictly_positive=True),
    "delta_p_s": _KeySpec("float", None, strictly_positive=True),
    # the direct convolution costs grid x kernel; 4x the benchmark's 16384
    "grid": _KeySpec("int", 2048, minimum=64, maximum=65536),
    "span_fringes": _KeySpec("float", 8.0, minimum=4.0),
    "sweep": _KeySpec("bool", True),
}

_CAT_KEYS = {
    "alpha_re": _KeySpec("float", _INV_SQRT2),
    "alpha_im": _KeySpec("float", 0.0),
    "beta_re": _KeySpec("float", _INV_SQRT2),
    "beta_im": _KeySpec("float", 0.0),
    "n_devices": _KeySpec("int", 1, minimum=1, maximum=3),
    "trials": _KeySpec("int", 100000, minimum=0),
}

_BOUNDS_KEYS = {
    "t_min": _KeySpec("float", 0.1, strictly_positive=True),
    "t_max": _KeySpec("float", 100.0, strictly_positive=True),
    "points": _KeySpec("int", 25, minimum=2),
    "delta_e": _KeySpec("float", None, minimum=0.0),
    "delta_t": _KeySpec("float", None, minimum=0.0),
}

_LIGHTCONE_KEYS = {
    "a_t": _KeySpec("float", 5.0),
    "a_x": _KeySpec("float", -3.0),
    "b_t": _KeySpec("float", 5.0),
    "b_x": _KeySpec("float", 3.0),
    "velocities": _KeySpec("str", "-0.9,-0.5,0,0.5,0.9"),
    "grid_t_min": _KeySpec("float", -1.0),
    "grid_t_max": _KeySpec("float", 6.0),
    "grid_x_min": _KeySpec("float", -6.0),
    "grid_x_max": _KeySpec("float", 6.0),
    "grid_step": _KeySpec("float", 0.25, strictly_positive=True),
}


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    seed: int
    trials: int
    params: dict[str, Any]
    output_dir: Path
    formats: tuple[str, ...]


def _convert(key: str, spec: _KeySpec, raw: str):
    if spec.kind == "int":
        if not _INT_RE.match(raw):
            raise ConfigError(f"key '{key}' expects an integer, got '{raw}'")
        value: Any = int(raw)
    elif spec.kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"key '{key}' expects a real number, got '{raw}'") from None
        if not math.isfinite(value):
            raise ConfigError(f"key '{key}' expects a finite number, got '{raw}'")
    elif spec.kind == "bool":
        lowered = raw.lower()
        if lowered not in ("true", "false"):
            raise ConfigError(f"key '{key}' expects true or false, got '{raw}'")
        value = lowered == "true"
    else:
        value = raw
    if spec.kind in ("int", "float"):
        if spec.strictly_positive and value <= 0:
            raise ConfigError(f"key '{key}' must be positive, got {value}")
        if spec.minimum is not None and value < spec.minimum:
            raise ConfigError(f"key '{key}' must be >= {spec.minimum}, got {value}")
        if spec.maximum is not None and value > spec.maximum:
            raise ConfigError(f"key '{key}' must be <= {spec.maximum}, got {value}")
    return value


def _split_pairs(source: str, where: str) -> list[tuple[str, str]]:
    pairs = []
    for line_number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where} line {line_number}: expected key=value, got '{stripped}'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{where} line {line_number}: empty key")
        pairs.append((key, value))
    return pairs


def parse_config(
    tokens: Sequence[str] | None = None,
    text: str | None = None,
    env: Mapping[str, str] | None = None,
    output_dir: str | Path = ".",
) -> RunConfig:
    """Validate a flat key=value config into a RunConfig.

    ``tokens`` are command-line `key=value` strings and override entries
    from the config ``text``.  Unknown keys, type mismatches and values the
    experiment's check rejects raise ConfigError.
    """
    raw: dict[str, str] = {}
    if text is not None:
        raw.update(_split_pairs(text, "config"))
    for token in tokens or ():
        if "=" not in token:
            raise ConfigError(f"expected key=value, got '{token}'")
        key, _, value = token.partition("=")
        if not key:
            raise ConfigError(f"empty key in '{token}'")
        raw[key] = value

    experiment = raw.pop("experiment", None)
    if experiment is None:
        raise ConfigError("missing required key 'experiment'")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment '{experiment}', expected one of {', '.join(EXPERIMENTS)}"
        )
    schema = {**_COMMON, **EXPERIMENTS[experiment].keys}

    params: dict[str, Any] = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' for experiment '{experiment}'")
        params[key] = _convert(key, schema[key], value)
    for key, spec in schema.items():
        params.setdefault(key, spec.default)

    if env and "PARADOX_LAB_SEED" in env:
        params["seed"] = _convert("PARADOX_LAB_SEED", schema["seed"], env["PARADOX_LAB_SEED"])

    formats = tuple(part.strip() for part in str(params["formats"]).split(",") if part.strip())
    if not formats or any(fmt not in ("json", "csv") for fmt in formats):
        raise ConfigError(f"formats must be a subset of json,csv, got '{params['formats']}'")
    EXPERIMENTS[experiment].check(params)

    return RunConfig(
        experiment=experiment,
        seed=params["seed"],
        trials=int(params.get("trials", 0) or 0),
        params=params,
        output_dir=Path(output_dir),
        formats=formats,
    )


def _parse_number_list(key: str, raw: str, kind: str) -> list:
    values = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if kind == "int" and not _INT_RE.match(part):
            raise ConfigError(f"key '{key}' has a malformed entry '{part}'")
        try:
            values.append(int(part) if kind == "int" else float(part))
        except ValueError:
            raise ConfigError(f"key '{key}' has a malformed entry '{part}'") from None
    if not values:
        raise ConfigError(f"key '{key}' must list at least one value")
    return values


def _zeno_sweep(params: dict) -> list[int]:
    values = _parse_number_list("sweep", params["sweep"], "int")
    for n in values:
        if n < 1:
            raise ConfigError(f"key 'sweep' entries must be >= 1, got {n}")
        if n > DRAW_BUDGET:
            raise ConfigError(f"key 'sweep' entries must be <= {DRAW_BUDGET}, got {n}")
    return values


# Work budget: the most uniforms one Monte Carlo run may draw (over 400x the
# 10M of the largest benchmark invocation), and the most region grid cells a
# lightcone run may write (about 24x the 211k of grid_step=0.02; 4.8M cells
# peaked near 190 MB of memory, mostly the grid's own arrays, and wrote a
# 184 MB file).
MAX_DRAWS = 2**32
LIGHTCONE_MAX_CELLS = 5_000_000
# one CSV row per point, the same table size as the lightcone region
BOUNDS_MAX_POINTS = LIGHTCONE_MAX_CELLS


def _check_work(subject: str, factor: int, per: int, unit: str, limit: int) -> None:
    """ConfigError naming ``subject`` when ``factor * per`` exceeds ``limit``."""
    total = factor * per
    if total > limit:
        raise ConfigError(
            f"{subject} asks for {factor} x {per} = {total} {unit}, above the limit of {limit}"
        )


def _check_draws(params: dict, per_trial: int, detail: str = "") -> None:
    trials = params["trials"]
    _check_work(f"key 'trials' = {trials}{detail}", trials, per_trial, "uniform draws", MAX_DRAWS)


def _check_zeno(params: dict) -> None:
    per_trial = params["N"] + sum(_zeno_sweep(params))
    _check_draws(params, per_trial, f" with N + sum(sweep) = {per_trial}")


def _check_cat(params: dict) -> None:
    _normalized_pair(params)
    # one uniform per trial for the main run and for each of five weights
    _check_draws(params, 6)


def _base_record(cfg: RunConfig) -> dict:
    return {
        "experiment": cfg.experiment,
        "version": __version__,
        "seed": cfg.seed,
        # formats and the output directory must not influence result bytes
        "config": {k: v for k, v in cfg.params.items() if k != "formats"},
    }


def _fields(obj) -> dict:
    """Field name -> value of a result dataclass; ``asdict`` would deep-copy each leaf."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _uncertainty_dict(report) -> dict:
    return {**_fields(report), "apparent_violation": report.apparent_violation}


def _run_zeno_like(cfg: RunConfig):
    dual = cfg.experiment == "dual-zeno"
    runner = zeno.run_dual_zeno if dual else zeno.run_zeno
    zcfg = zeno.ZenoConfig(
        B=cfg.params["B"],
        T=cfg.params["T"],
        N=cfg.params["N"],
        trials=cfg.params["trials"],
        seed=cfg.seed,
    )
    result = runner(zcfg)
    record = _base_record(cfg)
    record["duration"] = zeno.period(zcfg)
    record["result"] = _fields(result)
    record["uncertainty"] = _uncertainty_dict(zeno.jump_resolution_report(zcfg))

    sweep = _zeno_sweep(cfg.params)
    # a sweep point at the main N is the main run again: same config, same bytes
    points = [result if n == zcfg.N else runner(replace(zcfg, N=n)) for n in sweep]
    columns = (
        sweep,
        [point.analytic_survival for point in points],
        [point.empirical_survival for point in points],
        [point.stderr for point in points],
    )
    csv_name = "dual_zeno_sweep.csv" if dual else "zeno_sweep.csv"
    return record, [(csv_name, ("N", "analytic", "empirical", "stderr"), columns)]


def _run_bell(cfg: RunConfig):
    settings = bell.ChshSettings.from_angles(
        cfg.params["theta_a"],
        cfg.params["theta_a_prime"],
        cfg.params["theta_b"],
        cfg.params["theta_b_prime"],
    )
    result = bell.chsh(bell.singlet(), settings, cfg.trials, SeededStream(cfg.seed))
    labels = ("ab", "apb", "apbp", "abp")
    record = _base_record(cfg)
    record["result"] = {
        **_fields(result),
        "exact_correlations": dict(zip(labels, result.exact_correlations)),
        "local_deterministic_bound": bell.local_deterministic_bound(),
        "tsirelson_bound": bell.TSIRELSON,
    }
    rows = [(label, cell) for label in labels for cell in bell.CELLS]
    # a cell's signs are the outcomes: "-+" is A = -1, B = +1
    columns = (
        [label for label, _ in rows],
        [int(cell[0] + "1") for _, cell in rows],
        [int(cell[1] + "1") for _, cell in rows],
        [result.counts[label][cell] for label, cell in rows],
    )
    return record, [("bell_counts.csv", ("pair", "outcome_a", "outcome_b", "count"), columns)]


def _geometry(params: dict) -> twoslit.TwoSlitGeometry:
    keys = ("wavelength", "slit_separation", "screen_distance")
    return twoslit.TwoSlitGeometry(*(params[key] for key in keys))


def _check_twoslit(params: dict) -> None:
    spacing = twoslit.fringe_spacing(_geometry(params))
    grid, span_fringes = params["grid"], params["span_fringes"]
    try:
        twoslit.sample_points(spacing, grid, span_fringes * spacing)
    except ResolutionError as error:
        message = f"keys 'grid' = {grid} and 'span_fringes' = {span_fringes}: {error}"
        raise ConfigError(message) from None


def _run_twoslit(cfg: RunConfig):
    geometry = _geometry(cfg.params)
    spacing = twoslit.fringe_spacing(geometry)
    delta_p_s = cfg.params["delta_p_s"]
    if delta_p_s is None:
        delta_p_s = twoslit.which_path_threshold(geometry)
    report = twoslit.complementarity_report(geometry, delta_p_s)

    grid = cfg.params["grid"]
    span = cfg.params["span_fringes"] * spacing
    # a smear beyond a few fringes is already machine-flat; cap it so the
    # convolution kernel stays bounded
    sigma_used = min(report.delta_x_s_min, 4.0 * spacing)
    profile = twoslit.pattern(geometry, sigma_used, grid, span)

    record = _base_record(cfg)
    record["result"] = {
        **_fields(report),
        "paraxial": geometry.paraxial,
        "smear_sigma_used": sigma_used,
        "visibility": twoslit.visibility(profile),
    }
    csvs = [("twoslit_pattern.csv", ("x", "intensity"), (profile.xs, profile.intensities))]
    if cfg.params["sweep"]:
        ratios = [i / 10.0 for i in range(11)]
        visibilities = [
            twoslit.visibility(twoslit.pattern(geometry, ratio * spacing, grid, span))
            for ratio in ratios
        ]
        csvs.append(
            (
                "twoslit_visibility_sweep.csv",
                ("sigma_over_spacing", "visibility"),
                (ratios, visibilities),
            )
        )
    return record, csvs


def _normalized_pair(params: dict) -> tuple[complex, complex]:
    alpha = complex(params["alpha_re"], params["alpha_im"])
    beta = complex(params["beta_re"], params["beta_im"])
    weight = abs(alpha) ** 2 + abs(beta) ** 2
    if weight == 0.0:
        raise ConfigError("keys alpha_re, alpha_im, beta_re and beta_im cannot all be zero")
    scale = 1.0 / math.sqrt(weight)
    return alpha * scale, beta * scale


def _run_cat(cfg: RunConfig):
    alpha, beta = _normalized_pair(cfg.params)
    chain_cfg = catlab.ChainConfig(
        alpha=alpha,
        beta=beta,
        n_devices=cfg.params["n_devices"],
        trials=cfg.trials,
        seed=cfg.seed,
    )
    result = catlab.run_chain(chain_cfg)
    record = _base_record(cfg)
    amplitudes = [[amp.real, amp.imag] for amp in result.final_state.amplitudes.tolist()]
    born = result.born_frequencies
    record["result"] = {
        "alpha": [alpha.real, alpha.imag],
        "beta": [beta.real, beta.imag],
        "final_state_dims": list(result.final_state.dims),
        "final_state_amplitudes": amplitudes,
        "global_purity": result.global_purity,
        "atom_entropy_bits": result.atom_entropy_bits,
        "branch_weights": list(result.branch_weights),
        "born": None if born is None else born._asdict(),
        "no_collapse_witness": catlab.no_collapse_witness(result),
    }
    if chain_cfg.n_devices >= 2:
        record["result"]["cat_branches"] = {"dead": "up", "live": "down"}

    csvs = []
    if cfg.trials > 0:
        weights = (0.0, 0.25, 0.5, 0.75, 1.0)
        per_weight = [
            catlab.born_statistics(
                catlab.ChainConfig(
                    alpha=math.sqrt(weight),
                    beta=math.sqrt(1.0 - weight),
                    n_devices=chain_cfg.n_devices,
                    trials=cfg.trials,
                    seed=(cfg.seed + index) % 2**64,
                )
            )
            for index, weight in enumerate(weights)
        ]
        columns = (
            weights,
            [stats.f_up for stats in per_weight],
            [stats.f_down for stats in per_weight],
            [stats.stderr for stats in per_weight],
        )
        csvs.append(("cat_born_vs_weight.csv", ("up_weight", "f_up", "f_down", "stderr"), columns))
    return record, csvs


def _check_bounds(params: dict) -> None:
    if params["t_max"] <= params["t_min"]:
        raise ConfigError(f"t_max must exceed t_min, got {params['t_min']}..{params['t_max']}")
    if (params["delta_e"] is None) != (params["delta_t"] is None):
        raise ConfigError("delta_e and delta_t must be given together")
    points = params["points"]
    _check_work(f"key 'points' = {points}", points, 1, "curve points", BOUNDS_MAX_POINTS)


def _run_bounds(cfg: RunConfig):
    t_min = cfg.params["t_min"]
    t_max = cfg.params["t_max"]
    durations = np.geomspace(t_min, t_max, cfg.params["points"])
    floors = bounds.landau_peierls_floors(durations)

    record = _base_record(cfg)
    record["result"] = {
        "t_min": t_min,
        "t_max": t_max,
        "points": cfg.params["points"],
        "min_uncertainty_first": float(floors[0]),
        "min_uncertainty_last": float(floors[-1]),
    }
    delta_e = cfg.params["delta_e"]
    delta_t = cfg.params["delta_t"]
    if delta_e is not None:
        report = bounds.energy_time_product(delta_e, delta_t)
        record["result"]["energy_time"] = _uncertainty_dict(report)
    return record, [
        (
            "bounds_landau_peierls.csv",
            ("duration", "min_field_uncertainty"),
            (durations, floors),
        )
    ]


def _lightcone_grid(params: dict) -> tuple[int, int]:
    """Points along t and x of the region grid; ConfigError if empty or too large."""
    step = params["grid_step"]
    sizes = []
    for axis in ("t", "x"):
        lo, hi = params[f"grid_{axis}_min"], params[f"grid_{axis}_max"]
        if hi <= lo:
            raise ConfigError(f"grid_{axis}_max must exceed grid_{axis}_min, got {lo}..{hi}")
        steps = (hi - lo) / step + 1e-9
        sizes.append(math.floor(steps) + 1 if math.isfinite(steps) else steps)
    n_t, n_x = sizes
    _check_work(f"key 'grid_step' = {step}", n_t, n_x, "grid cells", LIGHTCONE_MAX_CELLS)
    return n_t, n_x


def _check_lightcone(params: dict) -> None:
    _parse_number_list("velocities", params["velocities"], "float")
    _lightcone_grid(params)


def _run_lightcone(cfg: RunConfig):
    a = lightcone.Event(cfg.params["a_t"], cfg.params["a_x"])
    b = lightcone.Event(cfg.params["b_t"], cfg.params["b_x"])
    velocities = _parse_number_list("velocities", cfg.params["velocities"], "float")
    report = lightcone.ordering_report(a, b, velocities)

    record = _base_record(cfg)
    record["result"] = {
        **_fields(report),
        "a": _fields(a),
        "b": _fields(b),
        "orderings": [_fields(ordering) for ordering in report.orderings],
    }

    # row-major over (t, x); lo + i*step is the same IEEE arithmetic as a scalar loop.
    # The region broadcasts the axes, so only the CSV columns repeat them per cell.
    n_t, n_x = _lightcone_grid(cfg.params)
    step = cfg.params["grid_step"]
    t_axis = cfg.params["grid_t_min"] + np.arange(n_t) * step
    x_axis = cfg.params["grid_x_min"] + np.arange(n_x) * step
    allowed = lightcone.collapse_region(t_axis[:, None], x_axis[None, :], a, b)
    columns = (np.repeat(t_axis, n_x), np.tile(x_axis, n_t), allowed.ravel().astype(np.int8))
    return record, [("lightcone_region.csv", ("t", "x", "allowed"), columns)]


@dataclass(frozen=True)
class _Experiment:
    keys: dict[str, _KeySpec]
    # -> (result record, [(CSV file name, header, one column per header name)])
    run: Callable[[RunConfig], tuple[dict, list]]
    # raises ConfigError on converted values that do not fit together
    check: Callable[[dict], Any] = lambda params: None


EXPERIMENTS: dict[str, _Experiment] = {
    "zeno": _Experiment(_ZENO_KEYS, _run_zeno_like, _check_zeno),
    "dual-zeno": _Experiment(_ZENO_KEYS, _run_zeno_like, _check_zeno),
    # two uniforms per trial: the A outcome, then B conditioned on it
    "bell": _Experiment(_BELL_KEYS, _run_bell, lambda params: _check_draws(params, 2)),
    "twoslit": _Experiment(_TWOSLIT_KEYS, _run_twoslit, _check_twoslit),
    "cat": _Experiment(_CAT_KEYS, _run_cat, _check_cat),
    "bounds": _Experiment(_BOUNDS_KEYS, _run_bounds, _check_bounds),
    "lightcone": _Experiment(_LIGHTCONE_KEYS, _run_lightcone, _check_lightcone),
}


def run(cfg: RunConfig) -> int:
    """Execute the configured experiment and write its outputs."""
    try:
        record, csvs = EXPERIMENTS[cfg.experiment].run(cfg)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        if "json" in cfg.formats:
            write_json(cfg.output_dir / "result.json", record)
        if "csv" in cfg.formats:
            for name, header, columns in csvs:
                write_csv(cfg.output_dir / name, header, columns)
    except ParadoxLabError as error:
        print(f"paradox-lab: {cfg.experiment}: {error}", file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="paradox-lab",
        description="Run a quantum-paradox experiment and write JSON/CSV results.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="one of: " + ", ".join(EXPERIMENTS) + " (may also come from --config)",
    )
    parser.add_argument("settings", nargs="*", metavar="key=value")
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    args = parser.parse_args(argv)

    tokens = list(args.settings)
    if args.experiment is not None:
        if "=" in args.experiment:
            tokens.insert(0, args.experiment)
        else:
            tokens.insert(0, f"experiment={args.experiment}")
    text = None
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as error:
            print(f"paradox-lab: cannot read config: {error}", file=sys.stderr)
            return 2
    try:
        cfg = parse_config(tokens, text, env=os.environ, output_dir=args.out)
    except ParadoxLabError as error:
        print(f"paradox-lab: {error}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
