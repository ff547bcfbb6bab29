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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import __version__, bell, bounds, catlab, lightcone, twoslit, zeno
from .constants import NATURAL
from .errors import ConfigError, ParadoxLabError
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
    "N": _KeySpec("int", 10, minimum=1),
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
    "grid": _KeySpec("int", 2048, minimum=64),
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
    return values


def _base_record(cfg: RunConfig) -> dict:
    return {
        "experiment": cfg.experiment,
        "version": __version__,
        "seed": cfg.seed,
        # formats and the output directory must not influence result bytes
        "config": {k: v for k, v in cfg.params.items() if k != "formats"},
    }


def _uncertainty_dict(report) -> dict:
    return {
        "delta_e": report.delta_e,
        "delta_t": report.delta_t,
        "product": report.product,
        "threshold": report.threshold,
        "satisfied": report.satisfied,
        "apparent_violation": report.apparent_violation,
    }


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
    result = runner(zcfg, NATURAL)
    record = _base_record(cfg)
    record["duration"] = zeno.period(zcfg, NATURAL)
    record["result"] = {
        "analytic_survival": result.analytic_survival,
        "empirical_survival": result.empirical_survival,
        "stderr": result.stderr,
        "per_step_probability": result.per_step_probability,
        "jump_times": list(result.jump_times),
    }
    record["uncertainty"] = _uncertainty_dict(zeno.jump_resolution_report(zcfg, NATURAL))

    rows = []
    for n in _zeno_sweep(cfg.params):
        point = runner(replace(zcfg, N=n), NATURAL)
        rows.append((n, point.analytic_survival, point.empirical_survival, point.stderr))
    csv_name = "dual_zeno_sweep.csv" if dual else "zeno_sweep.csv"
    return record, [(csv_name, ("N", "analytic", "empirical", "stderr"), rows)]


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
        "exact_s": result.exact_s,
        "estimated_s": result.estimated_s,
        "stderr": result.stderr,
        "exact_correlations": {
            label: value for label, value in zip(labels, result.exact_correlations)
        },
        "counts": {label: dict(result.counts[label]) for label in labels},
        "local_deterministic_bound": bell.local_deterministic_bound(),
        "tsirelson_bound": bell.TSIRELSON,
    }
    rows = []
    for label in labels:
        for out_a in (-1, 1):
            for out_b in (-1, 1):
                key = f"{'-' if out_a < 0 else '+'}{'-' if out_b < 0 else '+'}"
                rows.append((label, out_a, out_b, result.counts[label][key]))
    return record, [("bell_counts.csv", ("pair", "outcome_a", "outcome_b", "count"), rows)]


def _run_twoslit(cfg: RunConfig):
    geometry = twoslit.TwoSlitGeometry(
        wavelength=cfg.params["wavelength"],
        slit_separation=cfg.params["slit_separation"],
        screen_distance=cfg.params["screen_distance"],
    )
    spacing = twoslit.fringe_spacing(geometry)
    delta_p_s = cfg.params["delta_p_s"]
    if delta_p_s is None:
        delta_p_s = twoslit.which_path_threshold(geometry, NATURAL)
    report = twoslit.complementarity_report(geometry, delta_p_s, NATURAL)

    grid = cfg.params["grid"]
    span = cfg.params["span_fringes"] * spacing
    # a smear beyond a few fringes is already machine-flat; cap it so the
    # convolution kernel stays bounded
    sigma_used = min(report.delta_x_s_min, 4.0 * spacing)
    profile = twoslit.pattern(geometry, sigma_used, grid, span)

    record = _base_record(cfg)
    record["result"] = {
        "fringe_spacing": spacing,
        "paraxial": geometry.paraxial,
        "delta_p_threshold": report.delta_p_threshold,
        "delta_p_s": report.delta_p_s,
        "delta_x_s_min": report.delta_x_s_min,
        "which_path_resolved": report.which_path_resolved,
        "pattern_washed_out": report.pattern_washed_out,
        "smear_sigma_used": sigma_used,
        "visibility": twoslit.visibility(profile),
    }
    csvs = [
        (
            "twoslit_pattern.csv",
            ("x", "intensity"),
            list(zip(profile.xs.tolist(), profile.intensities.tolist())),
        )
    ]
    if cfg.params["sweep"]:
        rows = []
        for i in range(11):
            ratio = i / 10.0
            vis = twoslit.visibility(twoslit.pattern(geometry, ratio * spacing, grid, span))
            rows.append((ratio, vis))
        csvs.append(("twoslit_visibility_sweep.csv", ("sigma_over_spacing", "visibility"), rows))
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
    born = None
    if result.born_frequencies is not None:
        stats = result.born_frequencies
        born = {"f_up": stats.f_up, "f_down": stats.f_down, "stderr": stats.stderr}
    record["result"] = {
        "alpha": [alpha.real, alpha.imag],
        "beta": [beta.real, beta.imag],
        "final_state_dims": list(result.final_state.dims),
        "final_state_amplitudes": amplitudes,
        "global_purity": result.global_purity,
        "atom_entropy_bits": result.atom_entropy_bits,
        "branch_weights": list(result.branch_weights),
        "born": born,
        "no_collapse_witness": catlab.no_collapse_witness(result),
    }
    if chain_cfg.n_devices >= 2:
        record["result"]["cat_branches"] = {"dead": "up", "live": "down"}

    csvs = []
    if cfg.trials > 0:
        rows = []
        for index, weight in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            row_cfg = catlab.ChainConfig(
                alpha=math.sqrt(weight),
                beta=math.sqrt(1.0 - weight),
                n_devices=chain_cfg.n_devices,
                trials=cfg.trials,
                seed=(cfg.seed + index) % 2**64,
            )
            stats = catlab.born_statistics(row_cfg)
            rows.append((weight, stats.f_up, stats.f_down, stats.stderr))
        csvs.append(("cat_born_vs_weight.csv", ("up_weight", "f_up", "f_down", "stderr"), rows))
    return record, csvs


def _check_bounds(params: dict) -> None:
    if params["t_max"] <= params["t_min"]:
        raise ConfigError(f"t_max must exceed t_min, got {params['t_min']}..{params['t_max']}")
    if (params["delta_e"] is None) != (params["delta_t"] is None):
        raise ConfigError("delta_e and delta_t must be given together")


def _run_bounds(cfg: RunConfig):
    t_min = cfg.params["t_min"]
    t_max = cfg.params["t_max"]
    durations = np.geomspace(t_min, t_max, cfg.params["points"])
    rows = [(float(t), bounds.landau_peierls_min(float(t), NATURAL)) for t in durations]

    record = _base_record(cfg)
    record["result"] = {
        "t_min": t_min,
        "t_max": t_max,
        "points": cfg.params["points"],
        "min_uncertainty_first": rows[0][1],
        "min_uncertainty_last": rows[-1][1],
    }
    delta_e = cfg.params["delta_e"]
    delta_t = cfg.params["delta_t"]
    if delta_e is not None:
        report = bounds.energy_time_product(delta_e, delta_t, NATURAL)
        record["result"]["energy_time"] = _uncertainty_dict(report)
    return record, [
        ("bounds_landau_peierls.csv", ("duration", "min_field_uncertainty"), rows)
    ]


def _check_lightcone(params: dict) -> None:
    _parse_number_list("velocities", params["velocities"], "float")
    for axis in ("t", "x"):
        lo, hi = params[f"grid_{axis}_min"], params[f"grid_{axis}_max"]
        if hi <= lo:
            raise ConfigError(f"grid_{axis}_max must exceed grid_{axis}_min, got {lo}..{hi}")


def _run_lightcone(cfg: RunConfig):
    a = lightcone.Event(cfg.params["a_t"], cfg.params["a_x"])
    b = lightcone.Event(cfg.params["b_t"], cfg.params["b_x"])
    velocities = _parse_number_list("velocities", cfg.params["velocities"], "float")
    report = lightcone.ordering_report(a, b, velocities, NATURAL)

    record = _base_record(cfg)
    record["result"] = {
        "a": {"t": a.t, "x": a.x},
        "b": {"t": b.t, "x": b.x},
        "interval_s2": report.interval_s2,
        "interval_kind": report.interval_kind,
        "admits_reversal": report.admits_reversal,
        "orderings": [
            {"velocity": o.velocity, "t_a": o.t_a, "t_b": o.t_b, "order": o.order}
            for o in report.orderings
        ],
    }

    step = cfg.params["grid_step"]
    t_lo, t_hi = cfg.params["grid_t_min"], cfg.params["grid_t_max"]
    x_lo, x_hi = cfg.params["grid_x_min"], cfg.params["grid_x_max"]
    n_t = int(math.floor((t_hi - t_lo) / step + 1e-9)) + 1
    n_x = int(math.floor((x_hi - x_lo) / step + 1e-9)) + 1
    rows = []
    for i in range(n_t):
        t = t_lo + i * step
        for j in range(n_x):
            x = x_lo + j * step
            allowed = lightcone.collapse_allowed(lightcone.Event(t, x), a, b, NATURAL)
            rows.append((t, x, 1 if allowed else 0))
    return record, [("lightcone_region.csv", ("t", "x", "allowed"), rows)]


@dataclass(frozen=True)
class _Experiment:
    keys: dict[str, _KeySpec]
    run: Callable[[RunConfig], tuple[dict, list]]  # -> (result record, CSV tables)
    # raises ConfigError on converted values that do not fit together
    check: Callable[[dict], Any] = lambda params: None


EXPERIMENTS: dict[str, _Experiment] = {
    "zeno": _Experiment(_ZENO_KEYS, _run_zeno_like, _zeno_sweep),
    "dual-zeno": _Experiment(_ZENO_KEYS, _run_zeno_like, _zeno_sweep),
    "bell": _Experiment(_BELL_KEYS, _run_bell),
    "twoslit": _Experiment(_TWOSLIT_KEYS, _run_twoslit),
    "cat": _Experiment(_CAT_KEYS, _run_cat, _normalized_pair),
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
            for name, header, rows in csvs:
                write_csv(cfg.output_dir / name, header, rows)
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
