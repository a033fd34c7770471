import json

import pytest

from dpvfl import cli
from dpvfl.cli import main


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

    def test_zero_delta_exit_1_names_delta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"privacy.epsilon": 10.0, "privacy.delta": 0,
                                        "privacy.allow_large_epsilon": True})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "error: delta must lie in (0, 1), got 0\n"

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


class TestUsage:
    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "no.json")]) == 2

    def test_bad_usage_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train"])  # --config is required
        assert excinfo.value.code == 2

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
