import json
import os

import pytest

from dpvfl import cli
from dpvfl.cli import main
from dpvfl.errors import ProtocolError
from dpvfl.mechanism import PrivacyParams


@pytest.fixture(autouse=True)
def no_hidden_entries(tmp_path):
    """A command leaves no partial run directory: nothing hidden under tmp_path."""
    yield
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob(".*")) == []


def snapshot(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def write_config(tmp_path, name="cfg.json", **overrides):
    raw = {
        "seed": 4,
        "dataset": {"kind": "synthetic", "classes": 2, "per_class": 40,
                    "dim": 6, "spread": 0.5, "parties": 2},
        "model": {"embedding_dim": 4, "extractor_hidden": [8]},
        "training": {"learning_rate": 0.05, "batch_size": 16, "epochs": 1,
                     "alpha": 0.1, "beta": 0.5},
        "privacy": {"epsilon": 0.5, "delta": 0.01, "clip_threshold": 1.0},
        "adaptive": {"rescale": True, "dist_adjust": True},
        "ablate": {"seeds": [4]},
        "timing": {"rounds": 3},
        "attack": {"decoder_epochs": 5, "shadows": 2, "shadow_epochs": 1,
                   "attack_epochs": 10, "eval_per_side": 8},
    }
    for path, value in overrides.items():
        node = raw
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestTrainCommand:
    def test_run_directory_contents(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "resolved_config.json").exists()
        assert (out / "epochs.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "events.log").exists()
        assert (out / "checkpoints" / "party_0.bin").exists()
        assert (out / "checkpoints" / "head.bin").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["privacy"]["sigma"] > 0
        assert summary["privacy"]["delta_prime"] >= summary["privacy"]["delta"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "epochs.csv").read_bytes() == (out_b / "epochs.csv").read_bytes()
        assert (out_a / "events.log").read_bytes() == (out_b / "events.log").read_bytes()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(["train", "--config", str(cfg), "--out", str(out), "--force"]) == 0

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"training.warmup": 3})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "training.warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("halves", ["left", "right"]), ("limit", 5)])
    def test_synthetic_rejects_file_dataset_key_exit_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{f"dataset.{key}": value})
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"dataset.{key} does not apply to a synthetic dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("repeats", [0, -3])
    def test_repeats_below_one_exit_2_before_any_output(self, tmp_path, capsys, repeats):
        cfg = write_config(tmp_path, **{"evaluation.repeats": repeats})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: evaluation.repeats must be at least 1, got {repeats}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("dotted, value, message", [
        ("evaluation.repeats", 2.5, "evaluation.repeats must be an integer, got 2.5"),
        ("training.epochs", "1", "training.epochs must be an integer, got '1'"),
    ])
    def test_mistyped_value_exit_2_before_any_output(self, tmp_path, capsys, dotted, value,
                                                     message):
        cfg = write_config(tmp_path, **{dotted: value})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("dotted, value", [
        ("training.learning_rate", 0),
        ("training.batch_size", 1),
        ("dataset.classes", 1),
        ("dataset.kind", "parquet"),
        ("model.extractor_hidden", 64),
    ])
    def test_section_check_exit_2_before_any_output(self, tmp_path, capsys, dotted, value):
        cfg = write_config(tmp_path, **{dotted: value})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and dotted in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"training.batch_size": 1000}, "batch size 1000 exceeds the 64 training rows"),
        ({"dataset.parties": 7}, "cannot split 6 columns across 7 parties"),
        ({"dataset": {"kind": "csv", "path": "missing.csv",
                      "columns": [{"name": "a", "kind": "numeric"},
                                  {"name": "y", "kind": "label"}]}},
         "missing.csv: no such file"),
    ], ids=["batch_size", "parties", "path"])
    def test_data_refusal_exit_1_before_any_output(self, tmp_path, capsys, overrides,
                                                   message):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_zero_delta_exit_2_names_delta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"privacy.epsilon": 10.0, "privacy.delta": 0,
                                        "privacy.allow_large_epsilon": True})
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: privacy.delta must lie in (0, 1), got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides, dotted", [
        ("train", {"privacy.epsilon": -1}, "privacy.epsilon"),
        ("train", {"privacy.delta": 0}, "privacy.delta"),
        ("train", {"privacy.clip_threshold": 0}, "privacy.clip_threshold"),
        ("train", {"privacy.p1": 0}, "privacy.p1"),
        ("train", {"privacy.sigma_override": -1}, "privacy.sigma_override"),
        ("train", {"adaptive.p2": 0}, "adaptive.p2"),
        ("train", {"adaptive.p2": 1.0}, "adaptive.p2"),
        ("train", {"adaptive.confidence_threshold": 1.5}, "adaptive.confidence_threshold"),
        ("train", {"privacy.delta": 0.5, "privacy.p1": 0.5, "adaptive.p2": 0.9},
         "privacy.delta / (privacy.p1 * adaptive.p2)"),
        ("train", {"dataset.test_fraction": 0}, "dataset.test_fraction"),
        ("train", {"dataset.parties": 0}, "dataset.parties"),
        ("train", {"dataset": {"kind": "idx", "images": "i", "labels": "l",
                               "halves": ["left", "top"]}}, "dataset.halves"),
        ("train", {"dataset": {"kind": "csv", "path": "d.csv",
                               "columns": [{"name": "a", "kind": "numerc"}]}},
         "dataset.columns"),
        ("train", {"dataset": {"kind": "csv", "path": "d.csv",
                               "columns": [{"kind": "label"}]}}, "dataset.columns[0].name"),
        ("train", {"model.activation": "sigmoid"}, "model.activation"),
        ("train", {"model.activation": "softmax"}, "model.activation"),
        ("train", {"model.embedding_dim": 0}, "model.embedding_dim"),
        ("train", {"model.extractor_hidden": [0]}, "model.extractor_hidden[0]"),
        ("attack", {"attack.level": "embeding"}, "attack.level"),
        ("attack", {"attack.target_party": -1}, "attack.target_party"),
        ("attack", {"attack.shadows": 1}, "attack.shadows"),
        ("attack", {"attack.trials": 0}, "attack.trials"),
        ("train", {"dataset": {"kind": "csv", "path": "d.csv", "halves": ["left", "right"],
                               "columns": [{"name": "y", "kind": "label"}]}},
         "dataset.halves"),
        ("train", {"dataset": {"kind": "csv", "path": "d.csv", "limit": 0,
                               "columns": [{"name": "y", "kind": "label"}]}},
         "dataset.limit"),
        ("timing", {"timing.rounds": -1}, "timing.rounds"),
        ("attack", {"attack.eval_per_side": 0}, "attack.eval_per_side"),
        ("attack", {"attack.attack_hidden": 0}, "attack.attack_hidden"),
        ("attack", {"attack.decoder_hidden": [0]}, "attack.decoder_hidden[0]"),
        ("train", {"dataset": {"kind": "csv", "path": "d.csv",
                               "columns": [{"name": "age", "kind": "numeric"},
                                           {"name": "age", "kind": "numeric"},
                                           {"name": "y", "kind": "label"}]}},
         "dataset.columns[1].name"),
        ("train", {"dataset": {"kind": "csv", "path": "d.csv",
                               "columns": [{"name": "y", "kind": "label"},
                                           {"name": "z", "kind": "label"}]}},
         "dataset.columns"),
        ("train", {"dataset.ranges": [[0, 2], [2, 4], [4, 6]]}, "dataset.ranges"),
        ("train", {"dataset": {"kind": "idx", "images": "i", "labels": "l", "parties": 3,
                               "halves": ["left", "right"]}}, "dataset.parties"),
        ("train", {"privacy.enabled": False}, "adaptive.rescale"),
        ("train", {"privacy.enabled": False, "adaptive.rescale": False},
         "adaptive.dist_adjust"),
        ("timing", {"privacy.enabled": False}, "adaptive.rescale"),
        ("timing", {"privacy.enabled": False, "adaptive.rescale": False},
         "adaptive.dist_adjust"),
        ("ablate", {"privacy.enabled": False}, "privacy.enabled"),
        ("ablate", {"privacy.enabled": False, "adaptive.rescale": False,
                    "adaptive.dist_adjust": False}, "privacy.enabled"),
        ("train", {"seed": -1}, "seed"),
        ("train", {"seed": 2**64}, "seed"),
        ("ablate", {"ablate.seeds": [3, -1]}, "ablate.seeds[1]"),
        ("ablate", {"ablate.seeds": [2**64]}, "ablate.seeds[0]"),
        ("train", {"dataset": {"kind": "csv", "path": "d.csv",
                               "columns": [{"name": "y", "kind": "label"}]}}, "dataset.columns"),
        ("train", {"dataset.ranges": [[0, 1, 2], [2, 4]]}, "dataset.ranges[0]"),
        ("train", {"dataset.ranges": [[0, 3], [3]]}, "dataset.ranges[1]"),
    ])
    def test_refused_value_exit_2_before_any_output(self, tmp_path, capsys, command,
                                                    overrides, dotted):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "run"
        extra = ["--victims", str(tmp_path / "victims")] if command == "attack" else []
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dotted} ") or err.startswith(
            f"error: missing config key: {dotted}")
        assert not out.exists()

    @pytest.mark.parametrize("factor, voided", [(None, False), (0.0, True), (0.5, True),
                                                (1.0, False), (2.0, False)])
    def test_summary_note_says_when_the_budget_does_not_hold(self, tmp_path, factor, voided):
        # The calibrated sigma of write_config's budget, about 6.2.
        sigma = PrivacyParams.from_budget(epsilon=0.5, delta=0.01, clip_threshold=1.0).sigma
        override = None if factor is None else factor * sigma
        cfg = write_config(tmp_path, **{"privacy.sigma_override": override})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        privacy = json.loads((out / "summary.json").read_text())["privacy"]
        assert privacy["sigma"] == sigma and privacy["sigma_override"] == override
        if voided:
            assert privacy["note"] == (
                f"sigma_override {override} is below the calibrated sigma {sigma}: "
                "the stated (epsilon, delta) does not hold for this run")
        else:
            assert privacy["note"] == "per-round budget; no cross-round composition is claimed"

    @pytest.mark.parametrize("command", ["train", "ablate", "timing"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_flag_exit_2_before_any_output(self, tmp_path, capsys, command,
                                                             seed):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", seed]) == 2
        assert capsys.readouterr().err == f"error: seed must lie in [0, 2**64), got {seed}\n"
        assert not out.exists()

    def test_toggles_off_allow_privacy_off(self, tmp_path):
        cfg = write_config(tmp_path, **{"privacy.enabled": False})
        off = ["--toggle-rescale", "false", "--toggle-distadj", "false"]
        for command in ("train", "timing"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out), *off]) == 0
            assert (out / "summary.json").exists()

    def test_seed_and_toggle_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main([
            "train", "--config", str(cfg), "--out", str(out),
            "--seed", "9", "--toggle-rescale", "false", "--toggle-distadj", "false",
        ]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["seed"] == 9
        assert resolved["adaptive"]["rescale"] is False
        assert resolved["adaptive"]["dist_adjust"] is False

    def test_out_root_env_var(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("DPVFL_OUT", str(tmp_path / "root"))
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "root" / "train-seed4" / "epochs.csv").exists()


class TestAblateCommand:
    def test_grid_and_single_seed_std_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert lines[0] == "method,seeds,accuracy_mean,accuracy_std"
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["vanilla", "vanilla+rescale", "vanilla+distadj", "full"]
        stds = [float(line.split(",")[3]) for line in lines[1:]]
        assert stds == [0.0, 0.0, 0.0, 0.0]

    def test_scalar_seeds_exit_2_before_any_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"ablate.seeds": 3})
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: ablate.seeds must be a list, got 3\n"
        assert not out.exists()

    def test_zero_epochs_exit_2_before_any_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"training.epochs": 0})
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: ablate needs training.epochs of at least 1\n"
        assert not out.exists()

    def test_repeated_seed_exit_2_before_any_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"ablate.seeds": [4, 5, 4]})
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: ablate.seeds[2] repeats an earlier seed, got 4\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


class TestAttackCommand:
    def _train_victims(self, tmp_path, cfg):
        victims = tmp_path / "victims"
        specs = {
            "unprotected": ["--toggle-rescale", "false", "--toggle-distadj", "false"],
            "vanilla": ["--toggle-rescale", "false", "--toggle-distadj", "false"],
            "full": [],
        }
        for tag, extra in specs.items():
            victim_cfg = cfg
            if tag == "unprotected":
                victim_cfg = write_config(tmp_path, name="unprot.json",
                                          **{"privacy.enabled": False})
            assert main([
                "train", "--config", str(victim_cfg),
                "--out", str(victims / tag), *extra,
            ]) == 0
        return victims

    def test_attack_grid(self, tmp_path):
        cfg = write_config(tmp_path)
        victims = self._train_victims(tmp_path, cfg)
        out = tmp_path / "attack"
        assert main([
            "attack", "--config", str(cfg), "--victims", str(victims),
            "--out", str(out),
        ]) == 0
        lines = (out / "attacks.csv").read_text().strip().splitlines()
        assert lines[0] == "victim,mi_accuracy,inversion_mse"
        assert [line.split(",")[0] for line in lines[1:]] == ["full", "unprotected", "vanilla"]
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["reports"]) == 6

    def test_missing_checkpoint_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        victims = self._train_victims(tmp_path, cfg)
        (victims / "full" / "checkpoints" / "party_0.bin").unlink()
        assert main([
            "attack", "--config", str(cfg), "--victims", str(victims),
            "--out", str(tmp_path / "attack"),
        ]) == 2
        assert "missing checkpoint" in capsys.readouterr().err

    def test_corrupted_checkpoint_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        victims = self._train_victims(tmp_path, cfg)
        target = victims / "full" / "checkpoints" / "head.bin"
        raw = bytearray(target.read_bytes())
        raw[25] ^= 0xFF
        target.write_bytes(bytes(raw))
        assert main([
            "attack", "--config", str(cfg), "--victims", str(victims),
            "--out", str(tmp_path / "attack"),
        ]) == 2
        assert "checksum" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [2, 9])
    def test_target_party_beyond_victim_exit_2(self, tmp_path, capsys, target):
        victims = tmp_path / "victims"
        assert main(["train", "--config", str(write_config(tmp_path)),
                     "--out", str(victims / "full")]) == 0
        cfg = write_config(tmp_path, name="atk.json", **{"attack.target_party": target})
        out = tmp_path / "attack"
        assert main(["attack", "--config", str(cfg), "--victims", str(victims),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: attack.target_party must be below the 2 passive parties of victim "
            f"'full', got {target}\n"
        )
        assert not out.exists()

    def test_victim_with_a_removed_key_exit_2(self, tmp_path, capsys):
        victims = tmp_path / "victims"
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--out", str(victims / "full")]) == 0
        resolved = victims / "full" / "resolved_config.json"
        raw = json.loads(resolved.read_text())
        raw["evaluation"]["with_noise"] = True
        resolved.write_text(json.dumps(raw))
        out = tmp_path / "attack"
        assert main(["attack", "--config", str(cfg), "--victims", str(victims),
                     "--out", str(out)]) == 2
        assert "unknown config key: evaluation.with_noise" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("test_fraction, held_out", [(0.25, 10), (0.275, 11)])
    def test_shadows_the_held_out_rows_cannot_carve_exit_2(self, tmp_path, capsys,
                                                           test_fraction, held_out):
        # Three shadows carve six chunks of a file-backed victim's held-out rows; the
        # last training chunk gets 2 rows from 11 held-out rows up.
        jobs = ("clerk", "nurse")
        lines = ["age,job,income"] + [
            f"{20 + i},{jobs[i % 2]},{'hi' if i % 4 < 2 else 'lo'}" for i in range(40)
        ]
        (tmp_path / "people.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        victim_cfg = write_config(tmp_path, name="csv.json", dataset={
            "kind": "csv", "path": str(tmp_path / "people.csv"), "test_fraction": test_fraction,
            "columns": [{"name": "age", "kind": "numeric"}, {"name": "job", "kind": "categorical"},
                        {"name": "income", "kind": "label"}],
        })
        victims = tmp_path / "victims"
        assert main(["train", "--config", str(victim_cfg), "--out", str(victims / "csv")]) == 0
        assert json.loads((victims / "csv" / "summary.json").read_text())[
            "dataset"]["test_rows"] == held_out
        cfg = write_config(tmp_path, name="atk.json", **{"attack.shadows": 3})
        out = tmp_path / "attack"
        code = main(["attack", "--config", str(cfg), "--victims", str(victims),
                     "--out", str(out)])
        if held_out < 11:
            assert code == 2
            assert capsys.readouterr().err == (
                "error: attack.shadows 3 needs at least 11 held-out rows of victim 'csv', "
                "which has 10\n"
            )
            assert not out.exists()
        else:
            assert code == 0
            assert (out / "attacks.csv").exists()

    def test_missing_victims_dir_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main([
            "attack", "--config", str(cfg),
            "--victims", str(tmp_path / "nope"),
            "--out", str(tmp_path / "attack"),
        ]) == 2


class TestTimingCommand:
    def test_shares_sum_and_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "timing"
        assert main(["timing", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "timing.csv").read_text().strip().splitlines()
        assert lines[0] == "stage,time_ms,share_pct"
        stages = [line.split(",")[0] for line in lines[1:]]
        assert stages == ["base", "noise", "rescale", "dist_adjust"]
        shares = [float(line.split(",")[2]) for line in lines[1:]]
        assert abs(sum(shares) - 100.0) < 0.1

    def test_batch_above_the_training_rows_exit_2_before_any_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"timing.batch_size": 1000})
        out = tmp_path / "timing"
        assert main(["timing", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: timing batch size exceeds the training rows\n")
        assert not out.exists()

    def test_all_stages_off_zero_shares(self, tmp_path):
        cfg = write_config(
            tmp_path, **{
                "privacy.enabled": False,
                "adaptive.rescale": False,
                "adaptive.dist_adjust": False,
            },
        )
        out = tmp_path / "timing"
        assert main(["timing", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "timing.csv").read_text().strip().splitlines()
        shares = {line.split(",")[0]: float(line.split(",")[2]) for line in lines[1:]}
        assert shares["noise"] == 0.0
        assert shares["rescale"] == 0.0
        assert shares["dist_adjust"] == 0.0


class TestRunDirectory:
    """--out, else the config's out_dir, else $DPVFL_OUT/<command>-seed<N>."""

    @pytest.fixture(scope="class")
    def victims(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("victims")
        return TestAttackCommand()._train_victims(tmp, write_config(tmp))

    @pytest.mark.parametrize("command", ["train", "ablate", "timing", "attack"])
    @pytest.mark.parametrize("where", ["default", "out_dir", "out"])
    def test_precedence(self, tmp_path, monkeypatch, victims, command, where):
        monkeypatch.setenv("DPVFL_OUT", str(tmp_path / "root"))
        overrides = {} if where == "default" else {"out_dir": str(tmp_path / "from_config")}
        cfg = write_config(tmp_path, **overrides)
        argv = [command, "--config", str(cfg), "--seed", "6"]
        if command == "attack":
            argv += ["--victims", str(victims)]
        if where == "out":
            argv += ["--out", str(tmp_path / "from_flag")]
        assert main(argv) == 0
        run_dir = {
            "default": tmp_path / "root" / f"{command}-seed6",
            "out_dir": tmp_path / "from_config",
            "out": tmp_path / "from_flag",
        }[where]
        assert json.loads((run_dir / "resolved_config.json").read_text())["seed"] == 6
        assert (run_dir / "summary.json").exists()
        # No other directory was made.
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["cfg.json", run_dir.relative_to(tmp_path).parts[0]])


    @pytest.mark.parametrize("where", ["out", "out_dir"])
    @pytest.mark.parametrize("force", [False, True])
    def test_out_naming_a_file_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                      where, force):
        monkeypatch.setattr(cli, "run_training", None)  # any work would fail on this
        target = tmp_path / "taken"
        target.write_text("not a run")
        cfg = write_config(tmp_path, **({"out_dir": str(target)} if where == "out_dir" else {}))
        argv = ["train", "--config", str(cfg)]
        argv += ["--out", str(target)] if where == "out" else []
        argv += ["--force"] if force else []
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: run directory {target} is not a directory\n"
        assert target.read_text() == "not a run"

    def test_committed_directory_has_the_mode_of_a_plain_mkdir(self, tmp_path):
        out, plain = tmp_path / "run", tmp_path / "plain"
        plain.mkdir()
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        assert os.stat(out).st_mode == os.stat(plain).st_mode

    def test_attack_skips_hidden_victim_entries(self, tmp_path, victims):
        # A run still being written, or cut off, sits in a hidden sibling.
        partial = victims / ".full.cut-off"
        partial.mkdir()
        (partial / "resolved_config.json").write_text("{}")
        try:
            out = tmp_path / "attack"
            assert main(["attack", "--config", str(write_config(tmp_path)),
                         "--victims", str(victims), "--out", str(out)]) == 0
        finally:
            (partial / "resolved_config.json").unlink()
            partial.rmdir()
        victim_names = [line.split(",")[0]
                        for line in (out / "attacks.csv").read_text().splitlines()[1:]]
        assert victim_names == ["full", "unprotected", "vanilla"]

    def test_victim_without_summary_exit_2(self, tmp_path, capsys):
        victims = tmp_path / "victims"
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--out", str(victims / "full")]) == 0
        (victims / "full" / "summary.json").unlink()
        out = tmp_path / "attack"
        capsys.readouterr()
        assert main(["attack", "--config", str(cfg), "--victims", str(victims),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {victims / 'full'}: missing summary.json\n")
        assert not out.exists()

    def test_timing_refuses_an_existing_directory_before_measuring(self, tmp_path, capsys,
                                                                   monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "measure_stage_times", lambda cfg: calls.append(cfg))
        out = tmp_path / "timing"
        out.mkdir()
        (out / "kept.txt").write_text("old")
        assert main(["timing", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 2
        assert "--force" in capsys.readouterr().err
        assert calls == []
        assert snapshot(out) == {"kept.txt": b"old"}


class TestFailedRunLeavesNothing:
    """A command that fails after opening its run directory leaves no trace of it."""

    @staticmethod
    def assert_absent(out):
        assert not out.exists()
        assert [p.name for p in out.parent.iterdir() if p.name.startswith(".")] == []

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_epsilon_outside_the_calibrated_domain(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, **{"privacy.epsilon": 10.0})
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "allow_large_epsilon" in capsys.readouterr().err
        self.assert_absent(out)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_train(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{
            "training.learning_rate": 10.0, "training.epochs": 4,
            "model.activation": "identity", "privacy.enabled": False,
            "adaptive.rescale": False, "adaptive.dist_adjust": False,
        })
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert "non-finite values" in capsys.readouterr().err
        self.assert_absent(out)

    def test_ablate_failing_in_a_later_cell(self, tmp_path, capsys, monkeypatch):
        trained = []
        real = cli.run_training

        def third_cell_fails(cfg, **kwargs):
            trained.append(cfg)
            if len(trained) == 3:
                raise ProtocolError("cell diverged")
            return real(cfg, **kwargs)

        monkeypatch.setattr(cli, "run_training", third_cell_fails)
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(write_config(tmp_path)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: cell diverged\n"
        assert len(trained) == 3
        self.assert_absent(out)

    def test_failed_forced_rerun_keeps_the_old_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        before = snapshot(out)
        failing = write_config(tmp_path, name="eps10.json", **{"privacy.epsilon": 10.0})
        assert main(["train", "--config", str(failing), "--out", str(out), "--force"]) == 1
        assert "allow_large_epsilon" in capsys.readouterr().err
        assert snapshot(out) == before
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []


class TestUsage:
    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "no.json")]) == 2

    def test_bad_usage_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train"])  # --config is required
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["ablate", "attack"])
    @pytest.mark.parametrize("flag", ["--toggle-rescale", "--toggle-distadj"])
    def test_toggles_are_refused_where_they_would_be_ignored(self, tmp_path, capsys, command,
                                                            flag):
        # ablate sets both adjustments in every cell; attack reads only the attack section.
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        extra = ["--victims", str(tmp_path)] if command == "attack" else []
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--config", str(cfg), "--out", str(out), *extra, flag, "false"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} false" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_log_level_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DPVFL_LOG", "verbose")
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: DPVFL_LOG must name a logging level such as DEBUG or INFO, got 'verbose'\n"
        )
        assert not out.exists()

    def test_unexpected_exception_exits_1_with_one_line(self, tmp_path, monkeypatch,
                                                        capsys, caplog):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "train", broken)
        cfg = write_config(tmp_path)
        with caplog.at_level("DEBUG", logger="dpvfl.cli"):
            assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: RuntimeError: boom\n"
        assert [r.exc_info[0] for r in caplog.records] == [RuntimeError]
