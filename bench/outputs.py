"""Correctness checks for one invocation's output directory.

Every exact field is compared with a closed form computed here, not with the
program's own helpers.  Every Monte Carlo count must be consistent with its
exact probability: |z| <= 5 with the exact variance n*p*(1-p), or, where that
variance is below 100 and the normal approximation is poor, an exact binomial
tail probability at the same two-sided level.  Natural units (hbar = c = mu =
1) are assumed, as the CLI uses them.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import CAT_WEIGHTS, OUTPUT_FILES, Invocation, sweep_values

Z_LIMIT = 5.0
TAIL_LEVEL = math.erfc(Z_LIMIT / math.sqrt(2.0))  # P(|Z| > 5), about 5.7e-7
SPARSE_VARIANCE = 100.0
EXACT_RTOL = 1e-12
VISIBILITY_RTOL = 1e-3


class CheckFailed(Exception):
    pass


def _close(name: str, got, want: float, rtol: float = EXACT_RTOL, atol: float = 0.0):
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise CheckFailed(f"{name}: expected a number, got {got!r}")
    if not abs(got - want) <= max(atol, rtol * abs(want)):
        raise CheckFailed(f"{name}: got {got!r}, closed form {want!r}")


def _equal(name: str, got, want):
    if got != want:
        raise CheckFailed(f"{name}: got {got!r}, expected {want!r}")


def _binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), summed term by term in log space."""
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.lgamma(n + 1)
    return sum(
        math.exp(
            log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * log_p + (n - j) * log_q
        )
        for j in range(k + 1)
    )


def binomial_consistent(k: int, n: int, p: float) -> bool:
    """Is a count of k successes in n trials consistent with probability p?"""
    if p <= 0.0 or p >= 1.0:
        return k == (0 if p <= 0.0 else n)
    variance = n * p * (1.0 - p)
    if variance >= SPARSE_VARIANCE:
        return abs(k - n * p) <= Z_LIMIT * math.sqrt(variance)
    if p > 0.5:  # count the rarer outcome so the sum stays short
        k, p = n - k, 1.0 - p
    lower = _binomial_cdf(k, n, p)
    upper = 1.0 - _binomial_cdf(k - 1, n, p) if k > 0 else 1.0
    return min(lower, upper) >= TAIL_LEVEL / 2.0


def _binomial(name: str, k: int, n: int, p: float):
    if not binomial_consistent(k, n, p):
        z = (k - n * p) / math.sqrt(n * p * (1.0 - p)) if 0.0 < p < 1.0 else math.inf
        raise CheckFailed(f"{name}: {k} of {n} is inconsistent with p={p!r} (z={z:.3g})")


def _frequency(name: str, f, n: int, p: float):
    k = round(f * n)
    _close(name + " (count)", f, k / n)
    _binomial(name, k, n, p)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        raise CheckFailed(f"{path.name}: missing final newline")
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def _read_numeric_csv(path: Path, header: list[str], rows: int) -> np.ndarray:
    with path.open(encoding="utf-8") as handle:
        _equal(f"{path.name} header", handle.readline().rstrip("\n").split(","), header)
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    _equal(f"{path.name} rows", data.shape, (rows, len(header)))
    return data


def _table(path: Path, header: list[str], rows: int) -> list[list[str]]:
    got_header, body = _read_csv(path)
    _equal(f"{path.name} header", got_header, header)
    _equal(f"{path.name} rows", len(body), rows)
    return body


def _zeno(inv: Invocation, out: Path, record: dict):
    cfg = inv.config
    result = record["result"]
    duration = math.pi / (2.0 * cfg["B"]) if cfg["T"] is None else cfg["T"]  # h/(4 mu B)
    _close("duration", record["duration"], duration)

    def survival(n: int) -> float:
        theta = cfg["B"] * duration / n
        return math.cos(theta) ** (2 * n)

    n_steps, trials = cfg["N"], cfg["trials"]
    theta = cfg["B"] * duration / n_steps
    _close("analytic_survival", result["analytic_survival"], survival(n_steps))
    _close("per_step_probability", result["per_step_probability"], math.cos(theta) ** 2)
    _frequency("empirical_survival", result["empirical_survival"], trials, survival(n_steps))
    jumps = result["jump_times"]
    _equal("jump_times length", len(jumps), n_steps)
    survivors = round(result["empirical_survival"] * trials)
    _equal("jump_times total", sum(jumps), trials - survivors)
    _binomial("jump_times[0]", jumps[0], trials, math.sin(theta) ** 2)

    name = "dual_zeno_sweep.csv" if inv.experiment == "dual-zeno" else "zeno_sweep.csv"
    sweep = sweep_values(cfg)
    rows = _table(out / name, ["N", "analytic", "empirical", "stderr"], len(sweep))
    for n, row in zip(sweep, rows):
        _equal(f"{name} N", int(row[0]), n)
        _close(f"{name} N={n} analytic", float(row[1]), survival(n))
        _frequency(f"{name} N={n} empirical", float(row[2]), trials, survival(n))


_BELL_PAIRS = (
    ("ab", "theta_a", "theta_b", 1.0),
    ("apb", "theta_a_prime", "theta_b", 1.0),
    ("apbp", "theta_a_prime", "theta_b_prime", 1.0),
    ("abp", "theta_a", "theta_b_prime", -1.0),
)


def _bell(inv: Invocation, out: Path, record: dict):
    cfg = inv.config
    result = record["result"]
    per_pair = max(cfg["trials"] // 4, 1)
    exact_s = estimated_s = variance = 0.0
    csv_rows = []
    for label, key_a, key_b, sign in _BELL_PAIRS:
        e = -math.cos(cfg[key_a] - cfg[key_b])  # singlet correlation
        _close(f"exact_correlations.{label}", result["exact_correlations"][label], e, atol=1e-12)
        counts = result["counts"][label]
        _equal(f"counts.{label} total", sum(counts.values()), per_pair)
        for cell in ("--", "-+", "+-", "++"):
            same = cell[0] == cell[1]
            p_cell = (1.0 + (e if same else -e)) / 4.0
            _binomial(f"counts.{label}.{cell}", counts[cell], per_pair, p_cell)
            csv_rows.append(
                [label, "-1" if cell[0] == "-" else "1", "-1" if cell[1] == "-" else "1",
                 str(counts[cell])]
            )
        agree = counts["++"] + counts["--"]
        estimated_s += sign * (agree - (per_pair - agree)) / per_pair
        exact_s += sign * e
        variance += (1.0 - e * e) / per_pair
    _close("exact_s", result["exact_s"], exact_s, atol=1e-12)
    _close("estimated_s", result["estimated_s"], estimated_s, atol=1e-12)
    if variance > 0.0 and abs(result["estimated_s"] - exact_s) > Z_LIMIT * math.sqrt(variance):
        raise CheckFailed(f"estimated_s {result['estimated_s']!r} is over 5 sigma from {exact_s}")
    _close("tsirelson_bound", result["tsirelson_bound"], 2.0 * math.sqrt(2.0))
    _close("local_deterministic_bound", result["local_deterministic_bound"], 2.0)
    rows = _table(out / "bell_counts.csv", ["pair", "outcome_a", "outcome_b", "count"], 16)
    _equal("bell_counts.csv", rows, csv_rows)


def _cat(inv: Invocation, out: Path, record: dict):
    cfg = inv.config
    result = record["result"]
    alpha = complex(cfg["alpha_re"], cfg["alpha_im"])
    beta = complex(cfg["beta_re"], cfg["beta_im"])
    scale = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    alpha, beta = alpha / scale, beta / scale
    w_up, w_down = abs(alpha) ** 2, abs(beta) ** 2
    n_dev, trials = cfg["n_devices"], cfg["trials"]
    _close("branch_weights[0]", result["branch_weights"][0], w_up)
    _close("branch_weights[1]", result["branch_weights"][1], w_down)
    _close("global_purity", result["global_purity"], 1.0)
    entropy = -sum(w * math.log2(w) for w in (w_up, w_down) if w > 0.0)
    _close("atom_entropy_bits", result["atom_entropy_bits"], entropy, atol=1e-9)
    _equal("final_state_dims", result["final_state_dims"], [2] * (n_dev + 1))
    # unitary premeasurement: alpha|up, fired...> + beta|down, ready...>
    want = np.zeros(2 ** (n_dev + 1), dtype=complex)
    want[2**n_dev - 1] = alpha
    want[2**n_dev] = beta
    got = np.array([complex(re, im) for re, im in result["final_state_amplitudes"]])
    if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-12:
        raise CheckFailed("final_state_amplitudes differ from alpha|up,fired> + beta|down,ready>")
    _equal("no_collapse_witness", result["no_collapse_witness"], 0.0 < w_up < 1.0)
    born = result["born"]
    _frequency("born.f_up", born["f_up"], trials, w_up)
    _close("born.f_down", born["f_down"], 1.0 - born["f_up"])
    rows = _table(
        out / "cat_born_vs_weight.csv",
        ["up_weight", "f_up", "f_down", "stderr"],
        len(CAT_WEIGHTS),
    )
    for weight, row in zip(CAT_WEIGHTS, rows):
        _close("cat_born_vs_weight.csv up_weight", float(row[0]), weight)
        _frequency(f"cat_born_vs_weight.csv w={weight} f_up", float(row[1]), trials, weight)
        _close(f"cat_born_vs_weight.csv w={weight} f_down", float(row[2]), 1.0 - float(row[1]))


def _twoslit(inv: Invocation, out: Path, record: dict):
    cfg = inv.config
    result = record["result"]
    wavelength, d, distance = cfg["wavelength"], cfg["slit_separation"], cfg["screen_distance"]
    spacing = wavelength * distance / d
    threshold = (d / distance) * (2.0 * math.pi / wavelength)
    delta_p = threshold if cfg["delta_p_s"] is None else cfg["delta_p_s"]
    delta_x = 2.0 * math.pi / delta_p
    sigma = min(delta_x, 4.0 * spacing)
    _close("fringe_spacing", result["fringe_spacing"], spacing)
    _close("delta_p_threshold", result["delta_p_threshold"], threshold)
    _close("delta_x_s_min", result["delta_x_s_min"], delta_x)
    _close("smear_sigma_used", result["smear_sigma_used"], sigma)
    _equal("paraxial", result["paraxial"], d / distance <= 0.1)

    def gaussian_visibility(s: float) -> float:
        return math.exp(-2.0 * math.pi**2 * s**2 / spacing**2)

    _close("visibility", result["visibility"], gaussian_visibility(sigma), rtol=VISIBILITY_RTOL)
    grid = cfg["grid"]
    half = cfg["span_fringes"] * spacing / 2.0
    pattern = _read_numeric_csv(out / "twoslit_pattern.csv", ["x", "intensity"], grid)
    _close("twoslit_pattern.csv first x", float(pattern[0, 0]), -half)
    _close("twoslit_pattern.csv last x", float(pattern[-1, 0]), half)
    if np.any(np.diff(pattern[:, 0]) <= 0.0) or np.any(pattern[:, 1] < 0.0):
        raise CheckFailed("twoslit_pattern.csv: x not increasing or intensity negative")
    if cfg["sweep"]:
        rows = _table(
            out / "twoslit_visibility_sweep.csv", ["sigma_over_spacing", "visibility"], 11
        )
        for i, row in enumerate(rows):
            ratio = i / 10.0
            _close(f"visibility sweep ratio {i}", float(row[0]), ratio)
            _close(
                f"visibility sweep at {ratio}",
                float(row[1]),
                gaussian_visibility(ratio * spacing),
                rtol=VISIBILITY_RTOL,
            )


def _bounds(inv: Invocation, out: Path, record: dict):
    cfg = inv.config
    result = record["result"]
    t_min, t_max, points = cfg["t_min"], cfg["t_max"], cfg["points"]
    _close("min_uncertainty_first", result["min_uncertainty_first"], 1.0 / t_min**2)
    _close("min_uncertainty_last", result["min_uncertainty_last"], 1.0 / t_max**2)
    data = _read_numeric_csv(
        out / "bounds_landau_peierls.csv", ["duration", "min_field_uncertainty"], points
    )
    durations = np.geomspace(t_min, t_max, points)
    if np.max(np.abs(data[:, 0] - durations) / durations) > EXACT_RTOL:
        raise CheckFailed("bounds_landau_peierls.csv durations are not geometric")
    floor = 1.0 / data[:, 0] ** 2  # sqrt(hbar c) / (c T)^2
    if np.max(np.abs(data[:, 1] - floor) / floor) > EXACT_RTOL:
        raise CheckFailed("bounds_landau_peierls.csv differs from sqrt(hbar c)/(cT)^2")


def _lightcone(inv: Invocation, out: Path, record: dict):
    cfg = inv.config
    result = record["result"]
    a_t, a_x, b_t, b_x = cfg["a_t"], cfg["a_x"], cfg["b_t"], cfg["b_x"]
    s2 = (b_t - a_t) ** 2 - (b_x - a_x) ** 2
    _close("interval_s2", result["interval_s2"], s2, atol=1e-12)
    kind = "lightlike" if abs(s2) <= 1e-12 * max((b_t - a_t) ** 2, (b_x - a_x) ** 2) else (
        "timelike" if s2 > 0 else "spacelike"
    )
    _equal("interval_kind", result["interval_kind"], kind)
    velocities = [float(v) for v in cfg["velocities"].split(",") if v.strip()]
    orders = set()
    _equal("orderings length", len(result["orderings"]), len(velocities))
    for v, row in zip(velocities, result["orderings"]):
        gamma = 1.0 / math.sqrt(1.0 - v * v)
        t_a, t_b = gamma * (a_t - v * a_x), gamma * (b_t - v * b_x)
        _close(f"orderings v={v} t_a", row["t_a"], t_a, atol=1e-12)
        _close(f"orderings v={v} t_b", row["t_b"], t_b, atol=1e-12)
        orders.add(row["order"])
    _equal("admits_reversal", result["admits_reversal"], {"a_first", "b_first"} <= orders)

    step = cfg["grid_step"]
    n_t = int(math.floor((cfg["grid_t_max"] - cfg["grid_t_min"]) / step + 1e-9)) + 1
    n_x = int(math.floor((cfg["grid_x_max"] - cfg["grid_x_min"]) / step + 1e-9)) + 1
    data = _read_numeric_csv(out / "lightcone_region.csv", ["t", "x", "allowed"], n_t * n_x)
    t = np.repeat(cfg["grid_t_min"] + np.arange(n_t) * step, n_x)
    x = np.tile(cfg["grid_x_min"] + np.arange(n_x) * step, n_t)
    if not (np.array_equal(data[:, 0], t) and np.array_equal(data[:, 1], x)):
        raise CheckFailed("lightcone_region.csv grid coordinates differ")
    # closed double cone: inside the past lightcones of both a and b
    allowed = (
        (t <= a_t) & (np.abs(x - a_x) <= a_t - t) & (t <= b_t) & (np.abs(x - b_x) <= b_t - t)
    )
    got = data[:, 2]
    if not np.all((got == 0.0) | (got == 1.0)):
        raise CheckFailed("lightcone_region.csv allowed flags must be 0 or 1")
    _equal("lightcone region count", int(got.sum()), int(allowed.sum()))
    mismatched = int(np.count_nonzero(got.astype(bool) != allowed))
    _equal("lightcone region cells that differ from the double cone", mismatched, 0)


_CHECKS = {
    "zeno": _zeno,
    "dual-zeno": _zeno,
    "bell": _bell,
    "cat": _cat,
    "twoslit": _twoslit,
    "bounds": _bounds,
    "lightcone": _lightcone,
}


def file_digests(inv: Invocation, out: Path) -> dict[str, str]:
    return {
        f"{inv.label}/{name}": hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES[inv.experiment]
    }


def check_invocation(
    inv: Invocation, out: Path, pinned: dict[str, str] | None = None
) -> list[str]:
    """Failure messages for one invocation's outputs; empty when all pass.

    ``pinned`` maps ``<label>/<file>`` to a sha256 digest the outputs must have.
    """
    try:
        present = sorted(p.name for p in out.iterdir())
        _equal("output files", present, sorted(OUTPUT_FILES[inv.experiment]))
        record = json.loads((out / "result.json").read_text(encoding="utf-8"))
        _equal("experiment", record["experiment"], inv.experiment)
        _equal("seed", record["seed"], inv.seed)
        for key, value in inv.config.items():
            _equal(f"config.{key}", record["config"].get(key), value)
        _CHECKS[inv.experiment](inv, out, record)
        if pinned is not None:
            for name, digest in file_digests(inv, out).items():
                _equal(f"sha256 of {name}", digest, pinned.get(name))
    except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as error:
        return [f"{inv.label}: {type(error).__name__}: {error}"]
    return []
