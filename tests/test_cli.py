import json
import re
import string

import numpy as np
import pytest

from scmsim import cli, estimators
from scmsim.attacks import craft_attack
from scmsim.cli import cmd_efficiency_check, cmd_sc_sweep, cmd_simulate, main
from scmsim.config import (
    ConfigError,
    ExperimentConfig,
    file_sha256,
    parse_config,
    resolved_text,
)
from scmsim.estimators import AggregatorKind

FAST_SIM = """
[topology]
agents = 12
edge_probability = 0.8
malicious_counts = 0 2
[learning]
iterations = 25
[model]
dim = 3
[attack]
schemes = large_value
[output]
directory = {out}
"""

# The first invalid value of each range rule in the config validation; the
# last malicious_counts case is a nonzero count under the default attack none.
OUT_OF_RANGE = [
    ("topology", "agents", "1"),
    ("topology", "edge_probability", "0"),
    ("topology", "edge_probability", "1.5"),
    ("topology", "malicious_counts", "-1"),
    ("model", "dim", "0"),
    ("model", "noise_var", "0"),
    ("learning", "step_size", "0"),
    ("learning", "iterations", "0"),
    ("learning", "huber_delta", "0"),
    ("learning", "batch_size", "0"),
    ("aggregators", "schemes", "bogus"),
    ("attack", "schemes", "bogus"),
    ("aggregators", "trim_alpha", "0.5"),
    ("aggregators", "talwar_c", "0"),
    ("aggregators", "tukey_c", "0"),
    ("topology", "malicious_counts", "3"),
    ("sweep", "base_size", "0"),
    ("sweep", "grid_min", "10"),
    ("sweep", "grid_points", "0"),
    ("sweep", "outlier_count", "0"),
    ("efficiency", "trials", "999"),
    ("efficiency", "sample_size", "1"),
]


class TestParseConfig:
    def test_empty_config_gives_standard_defaults(self):
        cfg = parse_config("")
        assert cfg.agents == 32
        assert cfg.edge_probability == 0.7
        assert cfg.dim == 10
        assert cfg.noise_var == 0.01
        assert cfg.iterations == 300
        assert cfg.aggregator_names == (
            "sample_mean",
            "trimmed_mean",
            "talwar",
            "tukey",
            "median",
        )
        assert cfg.attack_names == ("none",)
        # auto seeds materialized
        assert cfg.topology_seed is not None
        assert cfg.data_seed is not None

    @pytest.mark.parametrize("counts", ["20", "3 3"], ids=["over-half", "duplicate"])
    def test_too_many_malicious_rejected(self, counts):
        with pytest.raises(ConfigError, match="malicious_counts"):
            parse_config(f"[topology]\nagents = 32\nmalicious_counts = {counts}\n")

    @pytest.mark.parametrize(
        "text",
        [
            "[topology]\nagents = 8\nturbo = yes\n",
            "[output]\nmetrics = both\n",
            "[sweep]\nmarkers = false\n",
        ],
        ids=["turbo", "output-metrics", "sweep-markers"],
    )
    def test_unknown_key_rejected(self, text):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config("[wormholes]\nenabled = true\n")

    @pytest.mark.parametrize(
        "text, master_seed, key",
        [
            ("[topology]\nagents = many\n", None, "topology.agents"),
            ("[aggregators]\ntalwar_c = nan\n", None, "aggregators.talwar_c"),
            ("[aggregators]\ntukey_c = inf\n", None, "aggregators.tukey_c"),
            ("[learning]\nstep_size = nan\n", None, "learning.step_size"),
            ("[model]\nnoise_var = nan\n", None, "model.noise_var"),
            ("[attack]\nlv_magnitude = inf\n", None, "attack.lv_magnitude"),
            ("[topology]\nseed = -3\n", None, "topology.seed"),
            ("[experiment]\nmaster_seed = -1\n", None, "experiment.master_seed"),
            ("", -1, "experiment.master_seed"),
        ],
        ids=[
            "agents-word",
            "talwar_c-nan",
            "tukey_c-inf",
            "step_size-nan",
            "noise_var-nan",
            "lv_magnitude-inf",
            "seed-negative",
            "master_seed-negative",
            "seed_override-negative",
        ],
    )
    def test_bad_value_names_key(self, text, master_seed, key):
        with pytest.raises(ConfigError, match=f"invalid value for {key}"):
            parse_config(text, master_seed=master_seed)

    @pytest.mark.parametrize(
        "section, key, value",
        OUT_OF_RANGE,
        ids=[f"{key}={value}" for _, key, value in OUT_OF_RANGE],
    )
    def test_out_of_range_value_names_key(self, section, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
            parse_config(f"[{section}]\n{key} = {value}\n")

    def test_scm_attacks_target_the_configured_rules(self):
        cfg = parse_config(
            "[aggregators]\ntrim_alpha = 0.1\ntalwar_c = 2.5\ntukey_c = 4.0\n"
            "[attack]\nschemes = trimmed_scm talwar_scm tukey_scm\n"
            "[topology]\nmalicious_counts = 3\n"
        )
        defended = {spec.kind: spec for spec in cfg.aggregator_specs()}
        assert defended[AggregatorKind.TRIMMED_MEAN].alpha == 0.1
        assert defended[AggregatorKind.TALWAR].c == 2.5
        assert defended[AggregatorKind.TUKEY].c == 4.0
        for name in cfg.attack_names:
            target = cfg.attack_spec(name).target
            assert target == defended[target.kind]

    def test_none_attack_with_malicious_rejected(self):
        text = "[topology]\nmalicious_counts = 3\n[attack]\nschemes = none\n"
        with pytest.raises(ConfigError, match="malicious"):
            parse_config(text)

    def test_round_trip_identity(self):
        cfg = parse_config("[learning]\nstep_size = 0.125\n[attack]\nschemes = large_value\n"
                           "[topology]\nmalicious_counts = 0 3 6\n")
        text = resolved_text(cfg)
        again = parse_config(text)
        assert again == cfg
        assert resolved_text(again) == text

    def test_master_seed_override_changes_derived_seeds(self):
        a = parse_config("", master_seed=1)
        b = parse_config("", master_seed=2)
        assert a.topology_seed != b.topology_seed
        assert a.data_seed != b.data_seed

    def test_explicit_seed_untouched_by_auto_derivation(self):
        cfg = parse_config("[topology]\nseed = 99\n")
        assert cfg.topology_seed == 99

    def test_explicit_auto_seed_equals_omitted_seed(self):
        assert parse_config("[topology]\nseed = auto\n") == parse_config("")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[sweep]\nsymmetric = maybe\n", "expected a boolean"),
            ("[topology]\nmalicious_counts = ,\n", "expected at least one integer"),
            ("[aggregators]\nschemes = ,\n", "expected at least one name"),
            ("[aggregators]\nschemes = median median\n", "aggregators.schemes: duplicate scheme"),
        ],
        ids=["boolean", "empty-int-list", "empty-name-list", "duplicate-scheme"],
    )
    def test_malformed_value_names_the_fault(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_parser_fuzzing_raises_only_config_errors(self):
        rng = np.random.default_rng(0)
        base = resolved_text(ExperimentConfig())
        alphabet = string.ascii_letters + string.digits + " =[]\n.-_"
        for _ in range(200):
            text = base
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(0, len(text)))
                junk = "".join(
                    alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=int(rng.integers(1, 12)))
                )
                choice = rng.integers(0, 3)
                if choice == 0:
                    text = text[:pos] + junk + text[pos:]
                elif choice == 1:
                    text = text.replace("0.7", junk, 1)
                else:
                    text = text + f"\n{junk} = {junk}\n"
            try:
                parse_config(text)
            except ConfigError:
                pass  # structured rejection is the only acceptable failure

    def test_trimmed_marker_needs_a_base_value_left(self, tmp_path, capsys):
        text = "[sweep]\nbase_size = 3\noutlier_count = 5\n[aggregators]\ntrim_alpha = 0.4\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        for key in ("sweep.base_size", "sweep.outlier_count", "aggregators.trim_alpha"):
            assert key in str(err.value)
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(text)
        assert main(["sc-sweep", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        assert "sweep.base_size" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("schemes", ["talwar tukey", "talwar", "median tukey"])
    def test_m_estimator_marker_needs_a_benign_majority(self, tmp_path, capsys, schemes):
        text = f"[sweep]\nbase_size = 3\noutlier_count = 3\n[aggregators]\nschemes = {schemes}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        for key in ("sweep.base_size", "sweep.outlier_count"):
            assert key in str(err.value)
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(text)
        assert main(["sc-sweep", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        assert "sweep.outlier_count" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # One outlier fewer leaves the base values a majority; without an
        # M-estimator swept, any count is fine.
        parse_config(text.replace("outlier_count = 3", "outlier_count = 2"))
        parse_config("[sweep]\nbase_size = 3\noutlier_count = 4\n"
                     "[aggregators]\nschemes = sample_mean median\n")

    def test_m_estimator_tuning_constant_needs_closed_form_placement(self, tmp_path, capsys):
        text = "[aggregators]\nschemes = talwar\ntalwar_c = 1.0\n"
        with pytest.raises(ConfigError, match="aggregators.talwar_c 1.0 must be at least 1.34"):
            parse_config(text)
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(text)
        assert main(["sc-sweep", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        assert "aggregators.talwar_c" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # An attack on the rule uses its c too, swept or not.
        with pytest.raises(ConfigError, match="aggregators.tukey_c 3.0 must be at least 3.01"):
            parse_config("[aggregators]\nschemes = median\ntukey_c = 3.0\n"
                         "[attack]\nschemes = tukey_scm\n[topology]\nmalicious_counts = 1\n")
        # Neither swept nor attacked, a small c is fine; so is the smallest one.
        parse_config("[aggregators]\nschemes = median\ntalwar_c = 1.0\ntukey_c = 3.0\n")
        parse_config("[aggregators]\ntalwar_c = 1.349\ntukey_c = 3.017\n")

    def test_overflowing_grid_width_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[sweep]\ngrid_min = -1e308\ngrid_max = 1e308\n")
        assert "sweep.grid_min" in str(err.value) and "sweep.grid_max" in str(err.value)


class TestSimulateCommand:
    def test_grid_files_and_layout(self, tmp_path):
        cfg = parse_config(FAST_SIM.format(out=tmp_path / "run"))
        outputs = cmd_simulate(cfg)
        names = sorted(p.name for p in outputs)
        assert "manifest.json" in names
        assert "train_loss_edge_08_mal_0_out_large_value.csv" in names
        assert "train_loss_edge_08_mal_2_out_large_value.csv" in names
        assert "msd_edge_08_mal_2_out_large_value.csv" in names
        csv = (tmp_path / "run" / "train_loss_edge_08_mal_0_out_large_value.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == "iteration,sample_mean,trimmed_mean,talwar,tukey,median"
        assert len(lines) == 26
        assert lines[1].split(",")[0] == "1"

    def test_byte_identical_reruns(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            cfg = parse_config(FAST_SIM.format(out=tmp_path / sub))
            cmd_simulate(cfg)
            texts.append(
                (tmp_path / sub / "train_loss_edge_08_mal_2_out_large_value.csv").read_bytes()
            )
        assert texts[0] == texts[1]

    def test_threaded_run_matches_serial(self, tmp_path):
        cfg_a = parse_config(FAST_SIM.format(out=tmp_path / "serial"))
        cfg_b = parse_config(FAST_SIM.format(out=tmp_path / "par"))
        cmd_simulate(cfg_a, threads=1)
        cmd_simulate(cfg_b, threads=2)
        for name in (
            "train_loss_edge_08_mal_0_out_large_value.csv",
            "msd_edge_08_mal_2_out_large_value.csv",
        ):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "par" / name
            ).read_bytes()

    def test_process_pool_after_a_threaded_estimator_call(self, tmp_path, monkeypatch):
        # The pool forks its workers from a process whose last estimator
        # call ran its slices on threads: none of them may be left running.
        monkeypatch.setattr(estimators, "_worker_count", lambda: 2)
        a = np.random.default_rng(0).standard_normal((100, 1000))
        estimators._aggregate_columns(estimators.tuned_aggregators(), a)
        outputs = cmd_simulate(parse_config(FAST_SIM.format(out=tmp_path / "run")), threads=2)
        assert "manifest.json" in [p.name for p in outputs]

    @pytest.mark.parametrize(
        "counts, threads, pools", [("0 2", 8, [2]), ("2", 8, []), ("0 2", 1, [])]
    )
    def test_pool_never_exceeds_cells(self, tmp_path, monkeypatch, counts, threads, pools):
        started = []

        class RecordingPool:
            # Stands in for the process pool: records its size, runs in-process.
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        text = FAST_SIM.format(out=tmp_path / "run").replace(
            "malicious_counts = 0 2", f"malicious_counts = {counts}"
        )
        outputs = cmd_simulate(parse_config(text), threads=threads)
        assert started == pools
        assert len(outputs) == 2 * len(counts.split()) + 1

    def test_failed_cell_writes_nothing(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(
            FAST_SIM.format(out=tmp_path / "run").replace(
                "agents = 12\nedge_probability = 0.8", "agents = 6\nedge_probability = 0.01"
            )
        )
        assert main(["simulate", "--config", str(cfg_file)]) == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_manifest_reproduces_outputs(self, tmp_path):
        cfg = parse_config(FAST_SIM.format(out=tmp_path / "first"))
        cmd_simulate(cfg)
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        # re-run purely from the manifest's resolved config into a new dir
        cfg2 = parse_config(manifest["resolved_config"])
        from dataclasses import replace

        cfg2 = replace(cfg2, output_directory=str(tmp_path / "second"))
        cmd_simulate(cfg2)
        for name, digest in manifest["outputs"].items():
            from scmsim.config import file_sha256

            assert file_sha256(tmp_path / "second" / name) == digest


class TestSweepCommand:
    def test_sweep_csv_and_markers(self, tmp_path):
        cfg = parse_config(
            "[sweep]\nbase_size = 40\nsymmetric = true\ngrid_points = 21\n"
            f"[output]\ndirectory = {tmp_path}\n"
        )
        cmd_sc_sweep(cfg)
        lines = (tmp_path / "SC.csv").read_text().strip().split("\n")
        assert lines[0] == "outlier_value,sample_mean,trimmed_mean,talwar,tukey,median"
        assert len(lines) == 22
        assert lines[1].startswith("-10.0,")
        markers = (tmp_path / "SC_max.csv").read_text().strip().split("\n")
        assert markers[0] == "aggregator,outlier_value,sensitivity"
        assert [m.split(",")[0] for m in markers[1:]] == ["trimmed_mean", "talwar", "tukey"]

    def test_markers_are_the_matched_attacks_values(self, tmp_path):
        cfg = parse_config(
            "[sweep]\nbase_size = 41\nsymmetric = true\noutlier_count = 3\n"
            "grid_points = 5\n"
            f"[output]\ndirectory = {tmp_path}\n"
        )
        cmd_sc_sweep(cfg)
        rows = (tmp_path / "SC_max.csv").read_text().strip().split("\n")[1:]
        matched = {"trimmed_mean": "trimmed_scm", "talwar": "talwar_scm", "tukey": "tukey_scm"}
        base, count = cfg.sweep_base()[:, None], cfg.sweep_outlier_count
        assert len(rows) == len(matched)
        for row in rows:
            label, outlier_value, _ = row.split(",")
            crafted = craft_attack(base, cfg.attack_spec(matched[label]), count)[0]
            assert float(outlier_value) == float(crafted)

    def test_single_point_grid(self, tmp_path):
        cfg = parse_config(
            "[sweep]\nbase_size = 10\ngrid_min = 2.0\ngrid_max = 3.0\ngrid_points = 1\n"
            f"[aggregators]\nschemes = median\n[output]\ndirectory = {tmp_path}\n"
        )
        cmd_sc_sweep(cfg)
        lines = (tmp_path / "SC.csv").read_text().strip().split("\n")
        assert lines[0] == "outlier_value,median"
        assert len(lines) == 2


class TestEfficiencyCommand:
    def test_report_written_and_mean_is_unity(self, tmp_path, capsys):
        cfg = parse_config(
            "[efficiency]\ntrials = 2000\nsample_size = 30\n"
            f"[output]\ndirectory = {tmp_path}\n"
        )
        cmd_efficiency_check(cfg)
        out = capsys.readouterr().out
        assert "sample_mean" in out
        rows = (tmp_path / "efficiency.csv").read_text().strip().split("\n")
        assert rows[0] == "estimator,variance_ratio,ci_low,ci_high"
        mean_row = [r for r in rows[1:] if r.startswith("sample_mean,")][0]
        assert float(mean_row.split(",")[1]) == 1.0


class TestMainEntry:
    def test_exit_zero_and_manifest(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(FAST_SIM.format(out=tmp_path / "run"))
        rc = main(["simulate", "--config", str(cfg_file)])
        assert rc == 0
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_out_and_seed_overrides(self, tmp_path):
        cfg_file = tmp_path / "eff.ini"
        cfg_file.write_text("[efficiency]\ntrials = 1500\nsample_size = 20\n")
        rc = main(
            ["efficiency-check", "--config", str(cfg_file), "--out", str(tmp_path / "e"), "--seed", "9"]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
        assert manifest["master_seed"] == 9

    def test_error_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.ini"
        cfg_file.write_text("[topology]\nagents = 1\n")
        rc = main(["simulate", "--config", str(cfg_file)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        rc = main(["sc-sweep", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "absent.ini" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sc-sweep", "efficiency-check"])
    def test_threads_only_on_simulate(self, tmp_path, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_non_positive_threads_rejected(self, tmp_path, capsys, monkeypatch, threads):
        def no_work(*args, **kwargs):
            raise AssertionError("a rejected --threads value started a simulation")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(cli, "_simulate_cell", no_work)
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(FAST_SIM.format(out=tmp_path / "run"))
        rc = main(["simulate", "--config", str(cfg_file), "--threads", threads])
        assert rc == 1
        assert f"threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "threads, message",
        [
            (2.5, "threads must be a whole number, got 2.5"),
            ("2", "threads must be a whole number, got '2'"),
            (None, "threads must be a whole number, got None"),
            (True, "threads must be a whole number, got True"),
            ([2], "threads must be one whole number, got [2]"),
        ],
        ids=["fraction", "string", "none", "bool", "list"],
    )
    @pytest.mark.parametrize("counts", ["0 2", "0 1 2"])
    def test_threads_one_whole_number(self, tmp_path, monkeypatch, threads, message, counts):
        # Library calls reach cmd_simulate without argparse's int check; a
        # value that is not one whole number starts nothing.
        def no_work(*args, **kwargs):
            raise AssertionError("a rejected threads value started a simulation")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(cli, "_simulate_cell", no_work)
        text = FAST_SIM.format(out=tmp_path / "run").replace(
            "malicious_counts = 0 2", f"malicious_counts = {counts}"
        )
        with pytest.raises(ValueError) as exc:
            cmd_simulate(parse_config(text), threads=threads)
        assert str(exc.value) == message
        assert not (tmp_path / "run").exists()


# sha256 of the offline outputs, recorded with every estimator sum taken
# row by row, on x86-64 Linux, NumPy 2.4.  Any change to these bytes is a
# change to the sweep or efficiency numbers.
PINNED_OFFLINE_DIGESTS = {
    "sweep-defaults": ("sc-sweep", "", {
        "SC.csv": "d7c308b78d5fb12764225b4615a56b89ca8880c41bdf01d8991c647c2542efa7",
        "SC_max.csv": "c9c1b014e0af37f748d3572fb2955dae405bea59051c3751301b628157c844f6",
    }),
    "sweep-symmetric-3": ("sc-sweep", "[sweep]\nsymmetric = true\noutlier_count = 3\n", {
        "SC.csv": "9bd91d94e4390c840260bdfeac763e4a1b48ec3a12407d625bec698563ed40ca",
        "SC_max.csv": "caa5d6ead63fe3cff73bdfcdf346a4735e6daedfd1794c00f74f62c1608b4222",
    }),
    "efficiency-2000": ("efficiency-check", "[efficiency]\ntrials = 2000\nsample_size = 30\n", {
        "efficiency.csv": "af9225bcb1cb16779c5a0301f340475462d10404ba408b852bf0b62e07afc694",
    }),
    # Eleven M-estimation blocks, the last one a single column.
    "efficiency-5121": ("efficiency-check", "[efficiency]\ntrials = 5121\nsample_size = 60\n", {
        "efficiency.csv": "5c6536a3d5b7737b1f6173ad61f9a24b60be346766e6cab241eeb408dcb672ac",
    }),
    # Four slices of 100 rows: the call runs its slices on worker threads
    # where the process may use more than one CPU.  Recorded serially.
    "efficiency-2000-n100": ("efficiency-check", "[efficiency]\ntrials = 2000\nsample_size = 100\n", {
        "efficiency.csv": "7b4a2d7919d91f62198b625e58497187cee88a6bd791a92c891ff05f5d778351",
    }),
}


@pytest.mark.parametrize("case", list(PINNED_OFFLINE_DIGESTS))
def test_offline_bytes_pinned(tmp_path, case):
    command, text, digests = PINNED_OFFLINE_DIGESTS[case]
    cfg_file = tmp_path / "cfg.ini"
    cfg_file.write_text(text)
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
    for name, digest in digests.items():
        assert file_sha256(tmp_path / "out" / name) == digest
