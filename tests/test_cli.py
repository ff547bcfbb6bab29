"""Config parsing, experiment dispatch, determinism, and output formats."""

import json
import math
import tracemalloc
from dataclasses import replace

import pytest

from paradoxlab import cli, zeno
from paradoxlab.cli import DEFAULT_SEED, main, parse_config, run
from paradoxlab.errors import ConfigError
from paradoxlab.montecarlo import DRAW_BUDGET
from paradoxlab.serialize import dumps


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestParseConfig:
    def test_schema_case(self):
        cfg = parse_config(["experiment=zeno", "N=10", "trials=100000", "seed=42"])
        assert cfg.experiment == "zeno"
        assert cfg.seed == 42
        assert cfg.trials == 100000
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
            ("0", "'sweep' entries must be >= 1, got 0"),
            ("5,-3", "'sweep' entries must be >= 1, got -3"),
            ("2,x", "malformed entry 'x'"),
            ("1_0", "malformed entry '1_0'"),
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
    def test_zeno_row_length_capped_at_the_draw_budget(self, experiment):
        cap = DRAW_BUDGET
        parse_config([f"experiment={experiment}", f"N={cap}", "trials=1", f"sweep={cap}"])
        with pytest.raises(ConfigError, match=f"key 'N' must be <= {cap}, got {cap + 1}"):
            parse_config([f"experiment={experiment}", f"N={cap + 1}", "trials=1"])
        with pytest.raises(ConfigError, match=f"'sweep' entries must be <= {cap}, got {cap + 1}"):
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
        _, [(name, header, (t, x, allowed))] = cli._run_lightcone(cfg)
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

    def test_lightcone_region_memory_bounded_by_its_columns(self):
        # 787 x 1,349 = 1,061,663 cells.  The CSV columns take 17 bytes a cell
        # (t and x as float64, allowed as int8); the region may add up to four
        # bool grids.  Measured: 18.0 bytes a cell; evaluating the region on
        # the repeated float64 columns instead peaked at 35.0.
        cfg = parse_config(["experiment=lightcone", "grid_step=0.0089"])
        n_t, n_x = cli._lightcone_grid(cfg.params)
        tracemalloc.start()
        try:
            cli._run_lightcone(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (17 + 4) * n_t * n_x

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
        cfg = parse_config(["experiment=lightcone", "velocities=1.5"], output_dir=tmp_path)
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
        ],
    )
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

    def test_env_seed_reaches_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PARADOX_LAB_SEED", "321")
        main(["bounds", "--out", str(tmp_path)])
        assert read_json(tmp_path / "result.json")["seed"] == 321

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 2
