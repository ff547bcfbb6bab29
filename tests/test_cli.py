"""Config parsing, experiment dispatch, determinism, and output formats."""

import hashlib
import json
import math
import re
import shutil
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paradoxlab import cli, rng, zeno
from paradoxlab.cli import DEFAULT_SEED, main, parse_config, run
from paradoxlab.errors import ConfigError
from paradoxlab.rng import SeededStream
from paradoxlab.serialize import dumps, write_csv


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestParseConfig:
    def test_schema_case(self):
        cfg = parse_config(["experiment=zeno", "N=10", "trials=100000", "seed=42"])
        assert cfg.experiment == "zeno"
        assert cfg.seed == 42
        assert cfg.params["trials"] == 100000
        assert cfg.params["N"] == 10

    def test_defaults_filled(self):
        cfg = parse_config(["experiment=zeno"])
        assert cfg.seed == DEFAULT_SEED == 0xC0FFEE
        assert cfg.params["N"] == 10
        assert cfg.formats == ("json", "csv")

    def test_invariant_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["experiment=zeno", "N=0"])

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(["N=10"])

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="nope"):
            parse_config(["experiment=nope"])

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wibble"):
            parse_config(["experiment=zeno", "wibble=3"])

    def test_type_mismatch_names_expected_type(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config(["experiment=zeno", "N=2.5"])
        with pytest.raises(ConfigError, match="real"):
            parse_config(["experiment=zeno", "B=fast"])
        with pytest.raises(ConfigError, match="true or false"):
            parse_config(["experiment=twoslit", "sweep=maybe"])

    @pytest.mark.parametrize("experiment", ["zeno", "dual-zeno"])
    @pytest.mark.parametrize(
        "sweep, message",
        [
            pytest.param(
                "0", "key 'sweep' must be >= 1, got 0", id="0-'sweep' entries must be >= 1, got 0"
            ),
            pytest.param(
                "5,-3",
                "key 'sweep' must be >= 1, got -3",
                id="5,-3-'sweep' entries must be >= 1, got -3",
            ),
            pytest.param(
                "2,x", "key 'sweep' expects an integer, got 'x'", id="2,x-malformed entry 'x'"
            ),
            pytest.param(
                "1_0", "key 'sweep' expects an integer, got '1_0'", id="1_0-malformed entry '1_0'"
            ),
            (" , ", "at least one value"),
        ],
    )
    def test_bad_sweep_rejected_by_parse_config(self, experiment, sweep, message):
        with pytest.raises(ConfigError, match=message):
            parse_config([f"experiment={experiment}", f"sweep={sweep}"])

    def test_config_text_and_token_precedence(self):
        text = "# comment line\nexperiment=zeno\nN=4\ntrials=500\n"
        cfg = parse_config(["N=7"], text=text)
        assert cfg.params["N"] == 7
        assert cfg.params["trials"] == 500

    def test_tokens_parse_like_config_lines(self):
        text = "experiment=zeno\n N = 7 \n# N=3\n\n"
        tokens = ["experiment=zeno", " N = 7 ", "# N=3", ""]
        assert parse_config(tokens) == parse_config([], text=text)

    def test_malformed_config_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config([], text="experiment=zeno\nnot a pair\n")

    def test_env_seed_override(self):
        cfg = parse_config(
            ["experiment=zeno", "seed=1"], env={"PARADOX_LAB_SEED": "99"}
        )
        assert cfg.seed == 99

    def test_bad_env_seed(self):
        with pytest.raises(ConfigError):
            parse_config(["experiment=zeno"], env={"PARADOX_LAB_SEED": "soon"})

    def test_lightcone_grid_at_the_cell_limit_accepted(self):
        side = ["grid_t_min=0", "grid_t_max=1999", "grid_x_min=0", "grid_step=1"]
        limit = cli.LIGHTCONE_MAX_CELLS
        assert limit == 2000 * 2500
        parse_config(["experiment=lightcone", *side, "grid_x_max=2499"])
        with pytest.raises(ConfigError, match=f"2000 x 2501 = 5002000 grid cells.*{limit}"):
            parse_config(["experiment=lightcone", *side, "grid_x_max=2500"])

    @pytest.mark.parametrize("experiment", ["zeno", "dual-zeno"])
    def test_zeno_row_length_capped_at_the_row_cap(self, experiment):
        cap = cli.ZENO_MAX_ROW
        assert cap == 2**19
        parse_config([f"experiment={experiment}", f"N={cap}", "trials=1", f"sweep={cap}"])
        with pytest.raises(ConfigError, match=f"key 'N' must be <= {cap}, got {cap + 1}"):
            parse_config([f"experiment={experiment}", f"N={cap + 1}", "trials=1"])
        with pytest.raises(ConfigError, match=f"key 'sweep' must be <= {cap}, got {cap + 1}"):
            parse_config([f"experiment={experiment}", "trials=1", f"sweep=1,{cap + 1}"])

    @pytest.mark.parametrize(
        "tokens, per_trial",
        [
            (["experiment=zeno", "N=10", "sweep=1,2,5,10,50"], 78),
            (["experiment=dual-zeno", "N=1000", "sweep=24"], 1024),
            (["experiment=bell"], 2),
            (["experiment=cat"], 6),
        ],
        ids=["zeno", "dual-zeno", "bell", "cat"],
    )
    def test_monte_carlo_draws_within_the_work_budget(self, tokens, per_trial):
        limit = cli.MAX_DRAWS
        assert limit == 2**32
        most = limit // per_trial
        parse_config([*tokens, f"trials={most}"])
        over = most + 1
        with pytest.raises(ConfigError) as error:
            parse_config([*tokens, f"trials={over}"])
        message = str(error.value)
        assert f"key 'trials' = {over}" in message
        assert f"{over} x {per_trial} = {over * per_trial} uniform draws" in message
        assert f"above the limit of {limit}" in message

    def test_lightcone_grid_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match="grid_step"):
            parse_config(["experiment=lightcone", "grid_t_min=-1e308", "grid_t_max=1e308"])

    def test_formats_subset(self):
        cfg = parse_config(["experiment=zeno", "formats=json"])
        assert cfg.formats == ("json",)
        with pytest.raises(ConfigError, match="formats"):
            parse_config(["experiment=zeno", "formats=yaml"])


class TestRunDeterminism:
    @pytest.mark.parametrize(
        "tokens",
        [
            ["experiment=zeno", "N=4", "trials=3000", "sweep=1,2"],
            ["experiment=dual-zeno", "N=3", "trials=3000", "sweep=2"],
            ["experiment=bell", "trials=4000"],
            ["experiment=cat", "trials=3000", "n_devices=2"],
        ],
    )
    def test_identical_bytes_across_runs(self, tmp_path, tokens):
        outputs = []
        for name in ("one", "two"):
            cfg = parse_config(tokens, output_dir=tmp_path / name)
            assert run(cfg) == 0
            per_run = {
                path.name: path.read_bytes()
                for path in sorted((tmp_path / name).iterdir())
            }
            outputs.append(per_run)
        assert outputs[0] == outputs[1]

    def test_seed_changes_output(self, tmp_path):
        blobs = []
        for seed in (1, 2):
            cfg = parse_config(
                ["experiment=zeno", "trials=2000", f"seed={seed}", "sweep=2"],
                output_dir=tmp_path / str(seed),
            )
            run(cfg)
            blobs.append((tmp_path / str(seed) / "result.json").read_bytes())
        assert blobs[0] != blobs[1]

    @pytest.mark.parametrize("experiment", ["bell", "zeno"])
    def test_seed_is_stored_once(self, tmp_path, experiment):
        # a config whose seed is replaced runs as if parsed with that seed
        tokens = [f"experiment={experiment}", "trials=400"]
        cfg = parse_config(tokens, output_dir=tmp_path / "replaced")
        assert run(replace(cfg, params={**cfg.params, "seed": 5})) == 0
        assert run(parse_config([*tokens, "seed=5"], output_dir=tmp_path / "parsed")) == 0
        replaced, parsed = (tmp_path / name / "result.json" for name in ("replaced", "parsed"))
        assert replaced.read_bytes() == parsed.read_bytes()


class TestJsonContract:
    def test_round_trip_is_lossless(self, tmp_path):
        cfg = parse_config(
            ["experiment=bell", "trials=2000"], output_dir=tmp_path
        )
        run(cfg)
        text = (tmp_path / "result.json").read_text(encoding="utf-8")
        record = json.loads(text)
        assert dumps(record) == text  # sorted keys and float formatting round-trip

    def test_bell_result_contents(self, tmp_path):
        cfg = parse_config(["experiment=bell", "trials=8000"], output_dir=tmp_path)
        run(cfg)
        record = read_json(tmp_path / "result.json")
        assert record["experiment"] == "bell"
        assert record["seed"] == DEFAULT_SEED
        assert record["version"]
        assert abs(record["result"]["exact_s"] + 2.0 * math.sqrt(2.0)) <= 1e-9
        assert record["result"]["local_deterministic_bound"] == 2.0

    @pytest.mark.parametrize("experiment", ["zeno", "dual-zeno"])
    def test_sweep_point_at_the_main_n_reuses_the_main_run(
        self, tmp_path, monkeypatch, experiment
    ):
        # the golden files (N=10 in sweep 1,2,5,10,50) pin the bytes of the reused row
        name = "run_dual_zeno" if experiment == "dual-zeno" else "run_zeno"
        original = getattr(zeno, name)
        calls = []

        def counted(zcfg):
            calls.append(zcfg.N)
            return original(zcfg)

        monkeypatch.setattr(zeno, name, counted)
        tokens = [f"experiment={experiment}", "N=4", "trials=3000", "sweep=2,4,7"]
        run(parse_config(tokens, output_dir=tmp_path))
        assert calls == [4, 2, 7]

    def test_zeno_record_fields(self, tmp_path):
        cfg = parse_config(
            ["experiment=zeno", "N=2", "trials=2000", "sweep=1,2"], output_dir=tmp_path
        )
        run(cfg)
        record = read_json(tmp_path / "result.json")
        assert record["result"]["analytic_survival"] == pytest.approx(0.25, abs=1e-12)
        assert record["uncertainty"]["threshold"] == 0.5
        assert record["config"]["T"] is None
        assert record["duration"] == pytest.approx(math.pi / 2.0, abs=1e-15)


class TestCsvContract:
    def test_lf_and_headers(self, tmp_path):
        cfg = parse_config(
            ["experiment=zeno", "N=2", "trials=1000", "sweep=1,2"], output_dir=tmp_path
        )
        run(cfg)
        blob = (tmp_path / "zeno_sweep.csv").read_bytes()
        assert b"\r" not in blob
        assert blob.startswith(b"N,analytic,empirical,stderr\n")

    def test_twoslit_sweep_monotone(self, tmp_path):
        cfg = parse_config(["experiment=twoslit"], output_dir=tmp_path)
        run(cfg)
        lines = (tmp_path / "twoslit_visibility_sweep.csv").read_text().splitlines()
        assert lines[0] == "sigma_over_spacing,visibility"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 11
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_lightcone_region_contains_apex_boundary(self, tmp_path):
        cfg = parse_config(["experiment=lightcone"], output_dir=tmp_path)
        run(cfg)
        rows = {}
        lines = (tmp_path / "lightcone_region.csv").read_text().splitlines()[1:]
        for line in lines:
            t, x, allowed = line.split(",")
            rows[(float(t), float(x))] = int(allowed)
        assert rows[(2.0, 0.0)] == 1
        assert rows[(2.25, 0.0)] == 0
        assert rows[(0.0, 0.0)] == 1

    @pytest.mark.parametrize(
        "tokens",
        [
            [],
            ["grid_step=0.02"],
            ["grid_t_min=-1.1", "grid_t_max=2.9", "grid_x_min=-0.7", "grid_step=0.03"],
            # 0.3/0.1 and 0.7/0.1 fall just below 3 and 7
            ["grid_t_min=0", "grid_t_max=0.3", "grid_x_min=0", "grid_x_max=0.7", "grid_step=0.1"],
        ],
    )
    def test_lightcone_grid_is_the_scalar_loop(self, tokens):
        cfg = parse_config(["experiment=lightcone", *tokens])
        _, [(name, header, columns)] = cli._run_lightcone(cfg)
        # each column is an (axis, index) pair that write_csv expands
        t, x, allowed = (axis[index] for axis, index in columns)
        p = cfg.params
        step = p["grid_step"]
        n_t = int(math.floor((p["grid_t_max"] - p["grid_t_min"]) / step + 1e-9)) + 1
        n_x = int(math.floor((p["grid_x_max"] - p["grid_x_min"]) / step + 1e-9)) + 1
        ts = [p["grid_t_min"] + i * step for i in range(n_t) for _ in range(n_x)]
        xs = [p["grid_x_min"] + j * step for _ in range(n_t) for j in range(n_x)]
        assert (name, header) == ("lightcone_region.csv", ("t", "x", "allowed"))
        assert t.tolist() == ts
        assert x.tolist() == xs
        assert set(allowed.tolist()) <= {0, 1}

    @pytest.mark.parametrize("experiment", ["zeno", "bell", "cat"])
    def test_default_runs_draw_at_most_one_grid_tile_per_block(self, monkeypatch, experiment):
        # a chunk's uniform block never spans more counter blocks than the
        # grid kernel computes at once, so no block needs a second tile
        shapes = []
        uniform_block = SeededStream.uniform_block

        def spy(stream, n_streams, draws, first=0):
            shapes.append((n_streams, draws))
            return uniform_block(stream, n_streams, draws, first)

        monkeypatch.setattr(SeededStream, "uniform_block", spy)
        cli.EXPERIMENTS[experiment].run(parse_config([f"experiment={experiment}"]))
        assert len(shapes) > 1
        assert all(n * -(-draws // 4) <= rng._TILE_BLOCKS for n, draws in shapes)

    def test_lightcone_region_memory_bounded_by_its_columns(self, tmp_path):
        # 787 x 1,349 = 1,061,663 cells.  The CSV columns take 5 bytes a cell
        # (uint16 indexes into the t and x axes, and the region's bool grid
        # viewed as int8); the region's evaluation holds at most four bool
        # grids, and the write one block of rows.  Measured: 5 bytes a cell
        # plus 0.71 MiB; int32 indexes took 9 bytes a cell plus 1.0 MiB.
        cfg = parse_config(["experiment=lightcone", "grid_step=0.0089"])
        n_t, n_x = cli._lightcone_grid(cfg.params)
        tracemalloc.start()
        try:
            _, [(name, header, columns)] = cli._run_lightcone(cfg)
            write_csv(tmp_path / name, header, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n_t * n_x + 2 * 2**20, peak / (n_t * n_x)

    def test_formats_filter(self, tmp_path):
        cfg = parse_config(
            ["experiment=bounds", "formats=csv"], output_dir=tmp_path
        )
        run(cfg)
        names = {path.name for path in tmp_path.iterdir()}
        assert "result.json" not in names
        assert "bounds_landau_peierls.csv" in names


class TestAllExperiments:
    @pytest.mark.parametrize(
        "tokens",
        [
            ["experiment=zeno", "N=2", "trials=500", "sweep=1"],
            ["experiment=dual-zeno", "N=2", "trials=500", "sweep=1"],
            ["experiment=bell", "trials=400"],
            ["experiment=twoslit", "sweep=false"],
            ["experiment=cat", "trials=400"],
            ["experiment=bounds", "delta_e=2", "delta_t=0.1"],
            ["experiment=lightcone"],
        ],
    )
    def test_runs_cleanly(self, tmp_path, tokens):
        cfg = parse_config(tokens, output_dir=tmp_path)
        assert run(cfg) == 0
        assert (tmp_path / "result.json").exists()

    def test_runner_error_is_exit_one(self, tmp_path, capsys):
        # parse_config rejects this velocity, so it is set past the check
        cfg = parse_config(["experiment=lightcone"], output_dir=tmp_path)
        cfg = replace(cfg, params={**cfg.params, "velocities": "1.5"})
        assert run(cfg) == 1
        assert "v = 1.5" in capsys.readouterr().err


class TestMain:
    def test_subcommand_style(self, tmp_path):
        code = main(
            ["zeno", "N=2", "trials=300", "sweep=1", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "result.json").exists()

    def test_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("experiment=bounds\npoints=5\n")
        code = main(["--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        record = read_json(tmp_path / "out" / "result.json")
        assert record["config"]["points"] == 5

    def test_settings_only_with_the_experiment_from_the_config(self, tmp_path):
        # the first key=value lands in argparse's experiment slot
        config = tmp_path / "run.cfg"
        config.write_text("experiment=zeno\ntrials=300\n")
        code = main(["N=7", "sweep=3", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        record = read_json(tmp_path / "out" / "result.json")
        assert record["experiment"] == "zeno"
        assert (record["config"]["N"], record["config"]["sweep"]) == (7, "3")

    def test_bad_config_is_exit_two(self, tmp_path, capsys):
        assert main(["zeno", "N=0", "--out", str(tmp_path)]) == 2
        assert "N" in capsys.readouterr().err

    def test_bad_sweep_fails_before_the_main_run(self, tmp_path, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("the main run started before the sweep was checked")

        monkeypatch.setattr(zeno, "run_zeno", forbidden)
        out = tmp_path / "out"
        assert main(["zeno", "N=20000", "trials=500", "sweep=0", "--out", str(out)]) == 2
        assert "sweep" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "tokens, key",
        [
            pytest.param(["dual-zeno", "sweep=2,0"], "sweep", id="zeno-sweep"),
            pytest.param(["bounds", "t_min=5", "t_max=1"], "t_max", id="bounds-t-order"),
            pytest.param(["bounds", "delta_e=2"], "delta_t", id="bounds-delta-pair"),
            pytest.param(["cat", "alpha_re=0", "beta_re=0"], "alpha_re", id="cat-zero"),
            pytest.param(
                ["lightcone", "grid_t_min=3", "grid_t_max=3"], "grid_t_max", id="lightcone-grid-t"
            ),
            pytest.param(
                ["lightcone", "grid_x_min=2", "grid_x_max=-2"], "grid_x_max", id="lightcone-grid-x"
            ),
            pytest.param(["lightcone", "velocities=0.5,fast"], "velocities", id="lightcone-v"),
            pytest.param(["lightcone", "grid_step=0.0001"], "grid_step", id="lightcone-budget"),
            pytest.param(["bell", "threads=2"], "threads", id="threads-unknown"),
            pytest.param(["zeno", "N=2000000"], "'N'", id="zeno-row-cap"),
            pytest.param(["dual-zeno", "sweep=1,2000000"], "'sweep'", id="zeno-sweep-row-cap"),
            pytest.param(["zeno", "trials=100000000"], "'trials'", id="zeno-budget"),
            pytest.param(["dual-zeno", "N=1000000", "trials=5000"], "N", id="dual-zeno-budget"),
            pytest.param(["bell", "trials=3000000000"], "'trials'", id="bell-budget"),
            pytest.param(["cat", "trials=1000000000"], "'trials'", id="cat-budget"),
            pytest.param(
                ["dual-zeno", "N=500000", "trials=9000"], "'trials'", id="dual-zeno-budget-below-cap"
            ),
            pytest.param(["bounds", "points=5000001"], "'points'", id="bounds-points-cap"),
            pytest.param(["twoslit", "grid=65537"], "'grid'", id="twoslit-grid-cap"),
            pytest.param(
                ["twoslit", "grid=64"],
                "keys 'grid' = 64 and 'span_fringes' = 8.0",
                id="twoslit-sample-step",
            ),
            pytest.param(["cat", "alpha_re=1e300"], "alpha_re", id="cat-weight-overflow"),
            pytest.param(
                ["bounds", "t_min=1e-200", "t_max=1e-190"],
                "'t_min' must be >= 1e-150",
                id="bounds-t-underflow",
            ),
            pytest.param(
                ["bounds", "t_min=1e200", "t_max=1e300"],
                "'t_min' must be <= 1e+150",
                id="bounds-t-overflow",
            ),
            pytest.param(["bounds", "t_max=1e300"], "'t_max' must be <= 1e+150", id="bounds-t-max"),
            pytest.param(
                ["twoslit", "wavelength=1e300", "screen_distance=1e300"],
                "wavelength=1e+300, slit_separation=2.0, screen_distance=1e+300",
                id="twoslit-spacing-overflow",
            ),
            pytest.param(
                ["bounds", "delta_e=1e300", "delta_t=1e300"], "'delta_t'", id="bounds-product"
            ),
            pytest.param(["lightcone", "velocities=1.5"], "'velocities'", id="lightcone-v-c"),
            pytest.param(["lightcone", "velocities=nan"], "'velocities'", id="lightcone-v-nan"),
            pytest.param(
                ["lightcone", "a_t=1e308", "b_t=-1e308"],
                "'a_t' must be <= 1e+150",
                id="lightcone-boost-overflow",
            ),
            pytest.param(
                ["lightcone", "a_t=1e200", "b_t=-1e200"],
                "'a_t' must be <= 1e+150",
                id="lightcone-interval-overflow",
            ),
            pytest.param(
                ["lightcone", "a_t=1e200", "velocities=0"],
                "'a_t' must be <= 1e+150",
                id="lightcone-one-time-overflow",
            ),
            pytest.param(
                ["lightcone", "a_x=1e155", "b_x=-1e155", "velocities=0"],
                "'a_x' must be <= 1e+150",
                id="lightcone-x-overflow",
            ),
            pytest.param(
                ["twoslit", "delta_p_s=1e-320"],
                "'delta_p_s' must be >= 1e-300",
                id="twoslit-delta-p-underflow",
            ),
            pytest.param(
                ["zeno", "B=1e-320"], "keys 'B' = 1e-320 and 'T' = None", id="zeno-period-overflow"
            ),
            pytest.param(
                ["zeno", "B=1e308", "T=1e-300"],
                "keys 'B' = 1e+308 and 'T' = 1e-300",
                id="zeno-angle-overflow",
            ),
            pytest.param(
                ["dual-zeno", "B=1e300", "T=1e150"],
                "keys 'B' = 1e+300 and 'T' = 1e+150",
                id="dual-zeno-axis-overflow",
            ),
            pytest.param(
                ["twoslit", "wavelength=1e300", "screen_distance=0.5", "span_fringes=1e150"],
                "key 'span_fringes' = 1e+150",
                id="twoslit-span-nan-step",
            ),
            pytest.param(
                ["twoslit", "slit_separation=1e-160", "span_fringes=1e300"],
                "key 'span_fringes' = 1e+300",
                id="twoslit-span-overflow",
            ),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_config_error_is_exit_two_before_any_work(
        self, tmp_path, monkeypatch, capsys, tokens, key
    ):
        def forbidden(cfg):
            raise AssertionError("the runner started on a config that parse_config rejects")

        experiment = tokens[0]
        monkeypatch.setitem(
            cli.EXPERIMENTS, experiment, replace(cli.EXPERIMENTS[experiment], run=forbidden)
        )
        out = tmp_path / "out"
        assert main([*tokens, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_lightcone_grid_is_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["lightcone", "grid_step=0.0001", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "grid_step" in err
        assert "70001 x 120001 = 8400190001 grid cells" in err
        assert str(cli.LIGHTCONE_MAX_CELLS) in err
        assert not out.exists()

    def test_far_lightcone_grid_message_is_short(self, tmp_path, capsys):
        # about 8e300 points along t: an exact integer count would print 300 digits
        out = tmp_path / "out"
        tokens = ["lightcone", "grid_t_min=-1e300", "grid_t_max=1e300", "--out", str(out)]
        assert main(tokens) == 2
        err = capsys.readouterr().err
        assert "grid_step" in err
        assert len(err.encode()) < 200
        assert not out.exists()

    @pytest.mark.parametrize("alpha_re", ["1e-160", "1e-200"])
    @pytest.mark.filterwarnings("error")
    def test_tiny_cat_amplitudes_run(self, tmp_path, alpha_re):
        # |alpha|^2 is subnormal or zero; the pair is scaled before it is squared
        tokens = ["cat", f"alpha_re={alpha_re}", "beta_re=0", "trials=10", "--out", str(tmp_path)]
        assert main(tokens) == 0
        result = read_json(tmp_path / "result.json")["result"]
        assert result["alpha"] == [1.0, 0.0]
        assert result["beta"] == [0.0, 0.0]

    @pytest.mark.filterwarnings("error")
    def test_vanishing_twoslit_smear_runs_without_warnings(self, tmp_path, monkeypatch):
        # the smear is about 6e-300, so the kernel's off-center squares overflow
        # to weight 0; the digests are of the bytes written when that overflow warned
        digests = {
            "result.json": "405a4cbbd7a93c3e318990f6bbb950c4159f702ac6a8db1b7be5134051809208",
            "twoslit_pattern.csv": (
                "1fc72cffe2089a62bee06531802802b8a6ee6f9a273edc29f032933f253a14bb"
            ),
            "twoslit_visibility_sweep.csv": (
                "0bdd7627efc77488f33fabf8528a843f916624cebeebd62dae11695256535b69"
            ),
        }
        monkeypatch.delenv("PARADOX_LAB_SEED", raising=False)
        assert main(["twoslit", "delta_p_s=1e300", "--out", str(tmp_path)]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert written == digests

    def test_env_seed_reaches_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PARADOX_LAB_SEED", "321")
        main(["bounds", "--out", str(tmp_path)])
        assert read_json(tmp_path / "result.json")["seed"] == 321

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 2

    def test_unwritable_output_is_exit_one(self, tmp_path, capsys):
        # an existing file in place of the directory fails even for root
        existing = tmp_path / "taken"
        existing.write_text("")
        assert main(["bounds", "--out", str(existing)]) == 1
        err = capsys.readouterr().err
        assert "bounds: cannot write output" in err
        assert str(existing) in err
        assert "Traceback" not in err

    def test_each_input_is_derived_once_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counted(name, original):
            def wrapper(*args):
                # formats is parsed by parse_config itself, not by a check
                if name != "_convert_list" or args[0] in ("sweep", "velocities"):
                    calls.append(name)
                return original(*args)

            return wrapper

        for name in ("_convert_list", "_normalized_pair", "_lightcone_grid"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        runs = {
            "zeno": (["trials=300"], ["_convert_list"]),
            "dual-zeno": (["trials=300"], ["_convert_list"]),
            "cat": (["trials=300"], ["_normalized_pair"]),
            "lightcone": ([], ["_convert_list", "_lightcone_grid"]),
        }
        for experiment, (tokens, expected) in runs.items():
            calls.clear()
            assert main([experiment, *tokens, "--out", str(tmp_path / experiment)]) == 0
            assert sorted(calls) == expected, experiment


# each example reuses one output directory in tmp_path
TMP_PATH = HealthCheck.function_scoped_fixture

# zero, the smallest subnormal, the edges of the normal squares and of the
# doubles, and the non-finite strings
EXTREMES = ["0", "nan", "inf"] + [
    f"{sign}{v}" for v in ("5e-324", "1e-300", "1e-160", "1", "1e150", "1e300") for sign in "+-"
]
# integer keys, small so that every accepted run is cheap; each range reaches
# just past its lower limit
INTS = {
    "trials": st.integers(0, 20),
    "N": st.integers(0, 8),
    "grid": st.integers(63, 200),
    "points": st.integers(1, 40),
}
# drawn on every run: their defaults are the expensive sizes
SIZE_KEYS = ("trials", "grid", "points")


def comma_list(values):
    return st.lists(values, min_size=1, max_size=3).map(",".join)


STRINGS = {
    "sweep": comma_list(st.integers(0, 8).map(str)),
    "velocities": comma_list(st.sampled_from(EXTREMES)),
    "formats": st.sampled_from(["json,csv", "json", "csv", " , "]),
}


def value_strategy(key, spec):
    if spec.kind == "float":
        return st.sampled_from(EXTREMES)
    if spec.kind == "bool":
        return st.sampled_from(["true", "false"])
    if spec.kind == "str":
        return STRINGS[key]
    return INTS.get(key, st.integers(0, 4)).map(str)


def finite_float(text):
    value = float(text)
    assert math.isfinite(value), text
    return value


def config_tokens(experiment):
    """Every size key of ``experiment``'s schema, small, and up to three of its other keys."""
    schema = {**cli._COMMON, **cli.EXPERIMENTS[experiment].keys}
    strategies = {key: value_strategy(key, spec) for key, spec in schema.items()}
    sizes = st.fixed_dictionaries({key: strategies.pop(key) for key in SIZE_KEYS if key in schema})
    others = st.lists(st.sampled_from(sorted(strategies)), unique=True, max_size=3)
    chosen = others.flatmap(lambda keys: st.fixed_dictionaries({k: strategies[k] for k in keys}))
    return st.tuples(sizes, chosen).map(
        lambda dicts: [f"{k}={v}" for d in dicts for k, v in d.items()]
    )


class TestEveryAcceptedConfigRuns:
    """A config that parse_config accepts runs to exit 0; any other exits 2."""

    # 0.3 to 0.5 s per experiment, 2.8 s for all seven, on a 2-vCPU machine
    @pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[TMP_PATH])
    @given(data=st.data())
    def test_exit_is_zero_or_two(self, tmp_path, capsys, monkeypatch, experiment, data):
        monkeypatch.delenv("PARADOX_LAB_SEED", raising=False)
        tokens = data.draw(config_tokens(experiment))
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        capsys.readouterr()

        status = main([experiment, *tokens, "--out", str(out)])

        err = capsys.readouterr().err
        assert status in (0, 2), err
        if status == 2:
            schema = {**cli._COMMON, **cli.EXPERIMENTS[experiment].keys}
            assert not out.exists()
            assert any(re.search(rf"\b{re.escape(key)}\b", err) for key in schema), err
        elif (out / "result.json").exists():
            text = (out / "result.json").read_text(encoding="utf-8")
            json.loads(text, parse_float=finite_float, parse_constant=finite_float)
