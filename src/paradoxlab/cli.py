"""Experiment runner.

Usage: paradox-lab <experiment> [key=value ...] [--config FILE] [--out DIR]

Configs are flat typed key=value pairs, accepted both as command-line
tokens and as lines of a config file (tokens override the file).  Every
run is seeded (default 0xC0FFEE; PARADOX_LAB_SEED in the environment
overrides seed= from both) and writes result.json plus CSV data series;
identical config and seed produce byte-identical output.

Each experiment is one entry of ``EXPERIMENTS``: its keys, its runner and a
check across keys that returns the runner's inputs.  ``parse_config`` applies
the keys and the check, so a bad config exits 2 before any work starts; an
error during the run, or an output that cannot be written, exits 1.  A runner
returns the result.json fields beyond the common header that ``run`` builds.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import __version__, bell, bounds, catlab, lightcone, twoslit, zeno
from .errors import BoostError, ConfigError, ParadoxLabError, ResolutionError
from .rng import DEFAULT_SEED, MAX_SEED, SeededStream
from .serialize import write_csv, write_json

_INT_RE = re.compile(r"^[+-]?\d+$")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Work budget: the most uniforms one Monte Carlo run may draw (over 400x the
# 10M of the largest benchmark invocation), and the most region grid cells a
# lightcone run may write (about 24x the 211k of grid_step=0.02; 4.76M cells
# peak at 55 MB of RSS in a fresh process, 24 MB of it the grid's 5 bytes a
# cell, and write a 184 MB file).
MAX_DRAWS = 2**32
LIGHTCONE_MAX_CELLS = 5_000_000
# one CSV row per point, the same table size as the lightcone region
BOUNDS_MAX_POINTS = LIGHTCONE_MAX_CELLS
# Most measurements in one Zeno trial, N or a sweep entry: a row longer than a
# Monte Carlo chunk's draw budget gets a chunk to itself, whose uniform block
# this caps at 4 MiB of float64.
ZENO_MAX_ROW = 2**19


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
    "B": _KeySpec("float", zeno.ZenoConfig.B, strictly_positive=True),
    "T": _KeySpec("float", zeno.ZenoConfig.T, strictly_positive=True),
    "N": _KeySpec("int", zeno.ZenoConfig.N, minimum=1, maximum=ZENO_MAX_ROW),
    "trials": _KeySpec("int", zeno.ZenoConfig.trials, minimum=1),
    "sweep": _KeySpec("str", "1,2,5,10,50"),
}

_BELL_ANGLES = ("theta_a", "theta_a_prime", "theta_b", "theta_b_prime")  # from_angles' order
_BELL_KEYS = {
    "trials": _KeySpec("int", 100000, minimum=1),
    **{key: _KeySpec("float", angle) for key, angle in zip(_BELL_ANGLES, bell.OPTIMAL_ANGLES)},
}

_TWOSLIT_KEYS = {
    "wavelength": _KeySpec("float", 1.0, strictly_positive=True),
    "slit_separation": _KeySpec("float", 2.0, strictly_positive=True),
    "screen_distance": _KeySpec("float", 100.0, strictly_positive=True),
    # H / delta_p_s stays a finite double
    "delta_p_s": _KeySpec("float", None, minimum=1e-300),
    # the main profile's direct convolution costs grid x kernel (the sweep
    # convolves only near its extrema); 4x the benchmark's 16384
    "grid": _KeySpec("int", twoslit.DEFAULT_GRID, minimum=twoslit.MIN_GRID, maximum=65536),
    "span_fringes": _KeySpec(
        "float", twoslit.DEFAULT_SPAN_FRINGES, minimum=twoslit.MIN_SPAN_FRINGES
    ),
    "sweep": _KeySpec("bool", True),
}

_CAT_KEYS = {
    "alpha_re": _KeySpec("float", _INV_SQRT2),
    "alpha_im": _KeySpec("float", 0.0),
    "beta_re": _KeySpec("float", _INV_SQRT2),
    "beta_im": _KeySpec("float", 0.0),
    "n_devices": _KeySpec(
        "int", catlab.ChainConfig.n_devices, minimum=1, maximum=catlab.MAX_DEVICES
    ),
    "trials": _KeySpec("int", 100000, minimum=0),
}
_CAT_WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)  # cat_born_vs_weight.csv: one draw per trial each

_BOUNDS_KEYS = {
    # 1/T**2 stays a finite, nonzero double
    "t_min": _KeySpec("float", 0.1, minimum=1e-150, maximum=1e150),
    "t_max": _KeySpec("float", 100.0, minimum=1e-150, maximum=1e150),
    "points": _KeySpec("int", 25, minimum=2, maximum=BOUNDS_MAX_POINTS),
    "delta_e": _KeySpec("float", None, minimum=0.0),
    "delta_t": _KeySpec("float", None, minimum=0.0),
}

_LIGHTCONE_KEYS = {
    # dt**2 and the boosted times (gamma <= 7.1e5 below c) stay finite doubles
    "a_t": _KeySpec("float", 5.0, minimum=-1e150, maximum=1e150),
    "a_x": _KeySpec("float", -3.0, minimum=-1e150, maximum=1e150),
    "b_t": _KeySpec("float", 5.0, minimum=-1e150, maximum=1e150),
    "b_x": _KeySpec("float", 3.0, minimum=-1e150, maximum=1e150),
    "velocities": _KeySpec("str", "-0.9,-0.5,0,0.5,0.9"),
    "grid_t_min": _KeySpec("float", -1.0),
    "grid_t_max": _KeySpec("float", 6.0),
    "grid_x_min": _KeySpec("float", -6.0),
    "grid_x_max": _KeySpec("float", 6.0),
    "grid_step": _KeySpec("float", 0.25, strictly_positive=True),
}
# one entry of `velocities`; Boost checks |v| < 1
_VELOCITY = _KeySpec("float", None)


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    params: dict[str, Any]
    output_dir: Path

    @property
    def seed(self) -> int:
        return self.params["seed"]

    @cached_property
    def formats(self) -> tuple[str, ...]:
        raw = self.params["formats"]
        formats = tuple(_convert_list("formats", _COMMON["formats"], raw))
        if any(fmt not in ("json", "csv") for fmt in formats):
            raise ConfigError(f"formats must be a subset of json,csv, got '{raw}'")
        return formats

    @cached_property
    def inputs(self) -> Any:
        """The experiment's check on ``params``: what its runner uses."""
        return EXPERIMENTS[self.experiment].check(self.params)


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
    if spec.strictly_positive and value <= 0:
        raise ConfigError(f"key '{key}' must be positive, got {value}")
    if spec.minimum is not None and value < spec.minimum:
        raise ConfigError(f"key '{key}' must be >= {spec.minimum}, got {value}")
    if spec.maximum is not None and value > spec.maximum:
        raise ConfigError(f"key '{key}' must be <= {spec.maximum}, got {value}")
    return value


def _convert_list(key: str, spec: _KeySpec, raw: str) -> list:
    """``_convert`` on each comma-separated entry of ``raw``; blank entries are skipped."""
    values = [_convert(key, spec, part.strip()) for part in raw.split(",") if part.strip()]
    if not values:
        raise ConfigError(f"key '{key}' must list at least one value")
    return values


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
    lines = enumerate((text or "").splitlines(), start=1)
    items = [(f"config line {n}: ", line) for n, line in lines] + [("", t) for t in tokens or ()]
    raw: dict[str, str] = {}
    for where, item in items:
        item = item.strip()
        if not item or item.startswith("#"):
            continue
        key, equals, value = item.partition("=")
        if not equals or not key.strip():
            raise ConfigError(f"{where}expected key=value, got '{item}'")
        raw[key.strip()] = value.strip()

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

    cfg = RunConfig(experiment, params, Path(output_dir))
    cfg.formats, cfg.inputs  # the checks raise here, before any work
    return cfg


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


def _check_zeno(params: dict) -> tuple[zeno.ZenoConfig, list[int]]:
    B, T = params["B"], params["T"]
    zcfg = zeno.ZenoConfig(B, T, params["N"], params["trials"], params["seed"])
    # the whole precession angle; each step's angle and phase is a part of it
    angle = (2.0 * B) * zeno.period(zcfg)
    if not math.isfinite(angle):
        raise ConfigError(f"keys 'B' = {B} and 'T' = {T} give 2 B T = {angle}, not finite")
    sweep = _convert_list("sweep", _ZENO_KEYS["N"], params["sweep"])
    per_trial = zcfg.N + sum(sweep)
    _check_draws(params, per_trial, f" with N + sum(sweep) = {per_trial}")
    return zcfg, sweep


def _check_bell(params: dict) -> bell.ChshSettings:
    _check_draws(params, bell.DRAWS_PER_TRIAL)
    return bell.ChshSettings.from_angles(*(params[key] for key in _BELL_ANGLES))


def _check_cat(params: dict) -> catlab.ChainConfig:
    alpha, beta = _normalized_pair(params)
    _check_draws(params, 1 + len(_CAT_WEIGHTS))
    return catlab.ChainConfig(alpha, beta, params["n_devices"], params["trials"], params["seed"])


def _fields(obj) -> dict:
    """Field name -> value of a result dataclass; ``asdict`` would deep-copy each leaf."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _uncertainty_dict(report) -> dict:
    return {**_fields(report), "apparent_violation": report.apparent_violation}


def _run_zeno_like(cfg: RunConfig):
    dual = cfg.experiment == "dual-zeno"
    runner = zeno.run_dual_zeno if dual else zeno.run_zeno
    zcfg, sweep = cfg.inputs
    result = runner(zcfg)
    uncertainty = _uncertainty_dict(zeno.jump_resolution_report(zcfg))
    record = {"duration": zeno.period(zcfg), "result": _fields(result), "uncertainty": uncertainty}

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
    result = bell.chsh(bell.singlet(), cfg.inputs, cfg.params["trials"], SeededStream(cfg.seed))
    labels = tuple(result.counts)  # chsh's pair order
    summary = {
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
    header = ("pair", "outcome_a", "outcome_b", "count")
    return {"result": summary}, [("bell_counts.csv", header, columns)]


def _check_twoslit(params: dict) -> tuple[twoslit.TwoSlitGeometry, float, float, float]:
    keys = ("wavelength", "slit_separation", "screen_distance")
    geometry = twoslit.TwoSlitGeometry(*(params[key] for key in keys))
    spacing = twoslit.fringe_spacing(geometry)
    threshold = twoslit.which_path_threshold(geometry)
    if not (0.0 < spacing < math.inf and 0.0 < threshold < math.inf):
        values = f"fringe spacing {spacing} and which-path threshold {threshold}"
        raise ConfigError(f"{geometry} gives {values}, not both in (0, inf)")
    grid, span_fringes = params["grid"], params["span_fringes"]
    span = span_fringes * spacing
    if not math.isfinite(span):
        raise ConfigError(f"key 'span_fringes' = {span_fringes} gives a span {span}, not finite")
    try:
        twoslit.sample_points(spacing, grid, span)
    except ResolutionError as error:
        message = f"keys 'grid' = {grid} and 'span_fringes' = {span_fringes}: {error}"
        raise ConfigError(message) from None
    return geometry, spacing, threshold, span


def _run_twoslit(cfg: RunConfig):
    geometry, spacing, threshold, span = cfg.inputs
    delta_p_s = cfg.params["delta_p_s"]
    report = twoslit.complementarity_report(geometry, threshold if delta_p_s is None else delta_p_s)

    grid = cfg.params["grid"]
    # a smear beyond a few fringes is already machine-flat; cap it so the
    # convolution kernel stays bounded
    sigma_used = min(report.delta_x_s_min, 4.0 * spacing)
    profile = twoslit.pattern(geometry, sigma_used, grid, span)

    summary = {
        **_fields(report),
        "paraxial": geometry.paraxial,
        "smear_sigma_used": sigma_used,
        "visibility": twoslit.visibility(profile),
    }
    csvs = [("twoslit_pattern.csv", ("x", "intensity"), (profile.xs, profile.intensities))]
    if cfg.params["sweep"]:
        ratios = [i / 10.0 for i in range(11)]
        visibilities = [
            twoslit.smeared_visibility(geometry, ratio * spacing, grid, span) for ratio in ratios
        ]
        header = ("sigma_over_spacing", "visibility")
        csvs.append(("twoslit_visibility_sweep.csv", header, (ratios, visibilities)))
    return {"result": summary}, csvs


def _normalized_pair(params: dict) -> tuple[complex, complex]:
    alpha = complex(params["alpha_re"], params["alpha_im"])
    beta = complex(params["beta_re"], params["beta_im"])
    try:
        # a pair whose squares would leave the normal doubles is scaled to magnitude 1
        largest = max(abs(alpha), abs(beta))
        if 0.0 < largest < 1e-150:
            alpha, beta = alpha / largest, beta / largest
        weight = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        weight = math.inf
    if not 0.0 < weight < math.inf:
        pair = f"alpha = {alpha}, beta = {beta}: |alpha|^2 + |beta|^2 = {weight}, not in (0, inf)"
        raise ConfigError(f"keys alpha_re, alpha_im, beta_re and beta_im give {pair}")
    scale = 1.0 / math.sqrt(weight)
    return alpha * scale, beta * scale


def _run_cat(cfg: RunConfig):
    chain_cfg = cfg.inputs
    result = catlab.run_chain(chain_cfg)
    amplitudes = [[amp.real, amp.imag] for amp in result.final_state.amplitudes.tolist()]
    born = result.born_frequencies
    summary = {
        "alpha": [chain_cfg.alpha.real, chain_cfg.alpha.imag],
        "beta": [chain_cfg.beta.real, chain_cfg.beta.imag],
        "final_state_dims": list(result.final_state.dims),
        "final_state_amplitudes": amplitudes,
        "global_purity": result.global_purity,
        "atom_entropy_bits": result.atom_entropy_bits,
        "branch_weights": list(result.branch_weights),
        "born": None if born is None else born._asdict(),
        "no_collapse_witness": catlab.no_collapse_witness(result),
    }
    if chain_cfg.n_devices >= 2:
        summary["cat_branches"] = {"dead": "up", "live": "down"}

    csvs = []
    if chain_cfg.trials > 0:
        per_weight = [
            catlab.born_statistics(
                replace(
                    chain_cfg,
                    alpha=math.sqrt(weight),
                    beta=math.sqrt(1.0 - weight),
                    seed=(chain_cfg.seed + index) % (MAX_SEED + 1),
                )
            )
            for index, weight in enumerate(_CAT_WEIGHTS)
        ]
        columns = (
            _CAT_WEIGHTS,
            [stats.f_up for stats in per_weight],
            [stats.f_down for stats in per_weight],
            [stats.stderr for stats in per_weight],
        )
        csvs.append(("cat_born_vs_weight.csv", ("up_weight", "f_up", "f_down", "stderr"), columns))
    return {"result": summary}, csvs


def _check_bounds(params: dict) -> None:
    if params["t_max"] <= params["t_min"]:
        raise ConfigError(f"t_max must exceed t_min, got {params['t_min']}..{params['t_max']}")
    if (params["delta_e"] is None) != (params["delta_t"] is None):
        raise ConfigError("delta_e and delta_t must be given together")
    if params["delta_e"] is not None and params["delta_e"] * params["delta_t"] == math.inf:
        keys = f"keys 'delta_e' = {params['delta_e']} and 'delta_t' = {params['delta_t']}"
        raise ConfigError(f"{keys}: their product overflows to inf")


def _run_bounds(cfg: RunConfig):
    t_min = cfg.params["t_min"]
    t_max = cfg.params["t_max"]
    durations = np.geomspace(t_min, t_max, cfg.params["points"])
    floors = bounds.landau_peierls_floors(durations)

    summary = {
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
        summary["energy_time"] = _uncertainty_dict(report)
    header = ("duration", "min_field_uncertainty")
    return {"result": summary}, [("bounds_landau_peierls.csv", header, (durations, floors))]


def _lightcone_grid(params: dict) -> tuple[int, int]:
    """Points along t and x of the region grid; ConfigError if empty or too large."""
    step = params["grid_step"]
    sizes = []
    for axis in ("t", "x"):
        lo, hi = params[f"grid_{axis}_min"], params[f"grid_{axis}_max"]
        if hi <= lo:
            raise ConfigError(f"grid_{axis}_max must exceed grid_{axis}_min, got {lo}..{hi}")
        steps = (hi - lo) / step + 1e-9
        # a count beyond 2**53 stays a float, so the message stays short
        sizes.append(math.floor(steps) + 1 if steps < 2**53 else steps)
    n_t, n_x = sizes
    _check_work(f"key 'grid_step' = {step}", n_t, n_x, "grid cells", LIGHTCONE_MAX_CELLS)
    return n_t, n_x


def _check_lightcone(params: dict) -> tuple[list[float], tuple[int, int]]:
    velocities = _convert_list("velocities", _VELOCITY, params["velocities"])
    for v in velocities:
        try:
            lightcone.Boost(v)
        except BoostError as error:
            raise ConfigError(f"key 'velocities': {error}") from None
    return velocities, _lightcone_grid(params)


def _run_lightcone(cfg: RunConfig):
    a = lightcone.Event(cfg.params["a_t"], cfg.params["a_x"])
    b = lightcone.Event(cfg.params["b_t"], cfg.params["b_x"])
    velocities, (n_t, n_x) = cfg.inputs
    report = lightcone.ordering_report(a, b, velocities)

    summary = {
        **_fields(report),
        "a": _fields(a),
        "b": _fields(b),
        "orderings": [_fields(ordering) for ordering in report.orderings],
    }

    # row-major over (t, x); lo + i*step is the same IEEE arithmetic as a scalar loop.
    # The region broadcasts the axes, and the CSV columns index them per cell
    # in the smallest unsigned dtype that holds them (uint16 to 65,536 points).
    step = cfg.params["grid_step"]
    t_axis = cfg.params["grid_t_min"] + np.arange(n_t) * step
    x_axis = cfg.params["grid_x_min"] + np.arange(n_x) * step
    allowed = lightcone.collapse_region(t_axis[:, None], x_axis[None, :], a, b)
    index = np.min_scalar_type(max(n_t, n_x) - 1)
    t_index, x_index = np.indices((n_t, n_x), index).reshape(2, -1)
    columns = ((t_axis, t_index), (x_axis, x_index), (np.arange(2), allowed.ravel().view(np.int8)))
    return {"result": summary}, [("lightcone_region.csv", ("t", "x", "allowed"), columns)]


@dataclass(frozen=True)
class _Experiment:
    keys: dict[str, _KeySpec]
    # -> (result.json fields beyond run's header, [(CSV file, header, one column per name)])
    run: Callable[[RunConfig], tuple[dict, list]]
    # the runner's inputs from converted values; ConfigError if they do not fit together
    check: Callable[[dict], Any]


EXPERIMENTS: dict[str, _Experiment] = {
    "zeno": _Experiment(_ZENO_KEYS, _run_zeno_like, _check_zeno),
    "dual-zeno": _Experiment(_ZENO_KEYS, _run_zeno_like, _check_zeno),
    "bell": _Experiment(_BELL_KEYS, _run_bell, _check_bell),
    "twoslit": _Experiment(_TWOSLIT_KEYS, _run_twoslit, _check_twoslit),
    "cat": _Experiment(_CAT_KEYS, _run_cat, _check_cat),
    "bounds": _Experiment(_BOUNDS_KEYS, _run_bounds, _check_bounds),
    "lightcone": _Experiment(_LIGHTCONE_KEYS, _run_lightcone, _check_lightcone),
}


def run(cfg: RunConfig) -> int:
    """Execute the configured experiment and write its outputs."""
    try:
        own, csvs = EXPERIMENTS[cfg.experiment].run(cfg)
        record = {
            "experiment": cfg.experiment,
            "version": __version__,
            "seed": cfg.seed,
            # formats and the output directory must not influence result bytes
            "config": {k: v for k, v in cfg.params.items() if k != "formats"},
            **own,
        }
        try:
            cfg.output_dir.mkdir(parents=True, exist_ok=True)
            if "json" in cfg.formats:
                write_json(cfg.output_dir / "result.json", record)
            if "csv" in cfg.formats:
                for name, header, columns in csvs:
                    write_csv(cfg.output_dir / name, header, columns)
        except OSError as error:
            print(f"paradox-lab: {cfg.experiment}: cannot write output: {error}", file=sys.stderr)
            return 1
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
