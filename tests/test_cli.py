"""Command line behavior: configuration parsing, artifact writing,
idempotent reruns, exit codes, and the report formats."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from lcreg import cli, diffcore, tensorio, trainer
from lcreg.cli import ConfigError, load_settings, main
from lcreg.data import LongTailDataset, dataset_cache_dir, load_dataset, save_dataset
from lcreg.trainer import COMPONENT_GRID, canonical_record_bytes

TINY_SETTINGS = """\
# small task for fast runs
task.num_classes = 6
task.input_dim = 5
task.n_max = 60
task.imbalance = 20
task.test_per_class = 40

train.hidden = 12
train.feature_dim = 8
train.num_latents = 4
train.t1_iters = 40
train.t2_iters = 10
train.batch_size = 16
train.lr = 0.05
train.lambda0 = 0.25
train.log_every = 20
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_SETTINGS)
    return str(path)


class TestSettings:
    def test_defaults_without_any_input(self):
        task, cfg = load_settings(None, [])
        assert task.num_classes == 10
        assert cfg.t1_iters == 3000

    def test_file_values_and_comments(self, config_file):
        task, cfg = load_settings(config_file, [])
        assert task.num_classes == 6
        assert task.imbalance == 20.0
        assert cfg.hidden == (12,)
        assert cfg.t1_iters == 40

    def test_set_overrides_file(self, config_file):
        task, cfg = load_settings(config_file, ["train.lr=0.5", "task.n_max=80"])
        assert cfg.lr == 0.5
        assert task.n_max == 80

    def test_seed_argument_overrides(self, config_file):
        _, cfg = load_settings(config_file, [], seed=77)
        assert cfg.seed == 77

    def test_unknown_key_fails_closed(self, config_file):
        with pytest.raises(ConfigError):
            load_settings(config_file, ["train.learning_rate=0.1"])
        with pytest.raises(ConfigError):
            load_settings(config_file, ["batch_size=16"])
        with pytest.raises(ConfigError):
            load_settings(config_file, ["task.nonsense=1"])

    def test_bad_values_rejected(self, config_file):
        with pytest.raises(ConfigError):
            load_settings(config_file, ["train.lr=fast"])
        with pytest.raises(ConfigError):
            load_settings(config_file, ["train.hidden=12,wide"])
        with pytest.raises(ConfigError):
            load_settings(config_file, ["train.t1_iters=3.5"])

    def test_tuple_fields(self):
        _, cfg = load_settings(None, ["train.hidden=64,32",
                                      "train.lr_decay_points=0.5,0.75"])
        assert cfg.hidden == (64, 32)
        assert cfg.lr_decay_points == (0.5, 0.75)

    def test_unknown_variant_is_config_error(self, tmp_path, config_file, capsys):
        out = tmp_path / "r"
        code = main(["train", "--config", config_file, "--out", str(out),
                     "--set", "train.variant=latent_isda"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert "unknown variant" in err[0]

    @pytest.mark.parametrize("setting", ["train.aug_on=false",
                                         "train.stage2_smoothing=0.1"])
    def test_removed_keys_are_unknown(self, tmp_path, config_file, capsys, setting):
        code = main(["train", "--config", config_file, "--out", str(tmp_path / "r"),
                     "--set", setting])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and "unknown key" in err[0], err

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            load_settings("/no/such/file.cfg", [])


class TestMainExitCodes:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_help_is_success(self):
        assert main(["--help"]) == 0

    def test_config_error_maps_to_2(self, tmp_path, config_file):
        code = main(["train", "--config", config_file, "--out", str(tmp_path / "r"),
                     "--set", "train.bogus=1"])
        assert code == 2


    @pytest.mark.parametrize("setting", [
        "task.imbalance=0.5", "task.n_max=5", "task.profile=linear",
        "task.num_classes=1", "task.stdev=0", "task.input_dim=0",
        "train.hidden=0", "train.feature_dim=1", "train.num_latents=0",
        "train.lambda0=-1",
    ])
    def test_value_a_run_rejects_maps_to_2(self, tmp_path, config_file, capsys,
                                           setting):
        out = tmp_path / "r"
        code = main(["train", "--config", config_file, "--out", str(out),
                     "--set", setting])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize("command, settings", [
        ("train", ["train.variant=latent", "train.beta=nan"]),
        ("build-dataset", ["task.stdev=nan"]),
        ("train", ["train.lr_decay_points=0.6,nan"]),
        ("train", ["train.lambda0=inf"]),
        ("train", ["train.lr=-inf"]),
        ("build-dataset", ["task.imbalance=NaN"]),
    ])
    def test_non_finite_float_maps_to_2(self, tmp_path, config_file, capsys,
                                        command, settings):
        out = tmp_path / "out"
        code = main([command, "--config", config_file, "--out", str(out),
                     *(arg for kv in settings for arg in ("--set", kv))])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:") and "finite" in err[0], err
        assert captured.out == "" and not out.exists()


class TestSplitPastFloat32:
    """A setting whose samples overflow float32 is refused by every command
    that synthesizes the splits: exit 2, one config error line, nothing
    written and no numpy warning."""

    @pytest.mark.parametrize("command, extra", [
        ("build-dataset", ["--out", "out"]),
        ("train", ["--out", "out"]),
        ("train", ["--out", "out", "--ablate", "--seeds", "0"]),
        ("train", ["--out", "out", "--ablate", "--seeds", "0",
                   "--row", "a", "train.variant=baseline"]),
        ("eval", ["--model", "run/model.lct"]),
        ("report", ["--model", "run/model.lct", "--histogram-csv", "out/u.csv"]),
    ], ids=["build-dataset", "train", "train-ablate", "train-ablate-row", "eval", "report"])
    @pytest.mark.parametrize("setting", ["task.mean_scale=1e39", "task.stdev=1e39"])
    def test_exits_2_and_writes_nothing(self, tmp_path, config_file, monkeypatch, capsys,
                                        command, extra, setting):
        monkeypatch.setenv("LCREG_CACHE_DIR", str(tmp_path / "cache"))
        if "run/model.lct" in extra:
            assert main(["train", "--config", config_file, "--out", str(tmp_path / "run")]) == 0
            capsys.readouterr()
        extra = [str(tmp_path / a) if "/" in a or a == "out" else a for a in extra]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", config_file, "--set", setting, *extra])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert "not a finite float32 value" in err[0]
        assert captured.out == "" and not caught
        assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


class TestMeansPastFloat64:
    """Class means whose squared gaps overflow (1e300) or that overflow
    float64 themselves (1.7e308): one config error line, with no numpy
    warning before it."""

    @pytest.mark.parametrize("command, extra", [
        ("build-dataset", ["--out", "out"]),
        ("train", ["--out", "out"]),
        ("eval", ["--model", "run/model.lct"]),
    ], ids=["build-dataset", "train", "eval"])
    @pytest.mark.parametrize("scale, message", [
        ("1e300", "not a finite float32 value"),
        ("1.7e308", "class means must be finite"),
    ], ids=["1e300", "1.7e308"])
    def test_one_error_line(self, tmp_path, config_file, monkeypatch, capsys,
                            command, extra, scale, message):
        monkeypatch.setenv("LCREG_CACHE_DIR", str(tmp_path / "cache"))
        if "run/model.lct" in extra:
            assert main(["train", "--config", config_file, "--out", str(tmp_path / "run")]) == 0
            capsys.readouterr()
        extra = [str(tmp_path / a) if "/" in a or a == "out" else a for a in extra]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", config_file,
                         "--set", f"task.mean_scale={scale}", *extra])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert message in err[0]
        assert captured.out == "" and not caught
        assert not (tmp_path / "out").exists()


class TestBuildDataset:
    def test_explicit_out_dir(self, tmp_path, config_file, capsys):
        out = tmp_path / "ds"
        assert main(["build-dataset", "--config", config_file,
                     "--out", str(out)]) == 0
        for split in ("train", "test"):
            assert [p.name for p in (out / split).iterdir()] == ["corpus.lct"]
        task_meta = json.loads((out / "task.json").read_text())
        assert task_meta["task"]["num_classes"] == 6
        assert str(out) in capsys.readouterr().out

    def test_default_cache_dir_name_is_pinned(self):
        # the content hash of the dataset parameters names the cache directory;
        # a change to the canonical JSON form would orphan every built cache
        params = cli._dataset_params(cli.TaskSpec(), 0)
        assert dataset_cache_dir(params).name == "dataset-0f0b9a91e4fd7e0c"

    def test_cache_dir_from_env(self, tmp_path, config_file, monkeypatch, capsys):
        monkeypatch.setenv("LCREG_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["build-dataset", "--config", config_file]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.startswith(str(tmp_path / "cache"))
        assert (tmp_path / "cache").exists()


# Each names one way a cached split can be broken or belong to another task.
CACHE_DAMAGES = ["missing_test_meta", "truncated_train_meta", "scalar_sample_shape",
                 "missing_test_corpus", "truncated_train_corpus", "wrong_sample_shape",
                 "train_label_out_of_range", "test_label_out_of_range", "test_class_count",
                 "test_samples_nan", "train_sample_inf", "train_class_empty",
                 "train_class_count_2e40"]


def _damage_cache(root: Path, damage: str):
    """Break the cache at ``root`` (TINY_SETTINGS: 6 classes, input_dim 5)."""
    split = "test" if "test" in damage else "train"
    path = root / split / "corpus.lct"
    if damage == "missing_test_corpus":
        path.unlink()
        return
    if damage.startswith("truncated"):
        # inside the first meta entry, or inside the samples payload
        blob = path.read_bytes()
        path.write_bytes(blob[:20] if damage.endswith("meta") else blob[:len(blob) // 2])
        return
    tensors, meta = tensorio.load_tensors(path)
    samples, labels = tensors["samples"], tensors["labels"].copy()
    if damage == "missing_test_meta":
        meta = {}
    elif damage == "scalar_sample_shape":
        tensors["samples"] = samples[:, 0]
    elif damage == "wrong_sample_shape":
        tensors["samples"] = samples[..., None]
    elif damage == "test_samples_nan":
        samples[:100] = np.nan
    elif damage == "train_sample_inf":
        samples[-1, 2] = np.inf
    elif damage == "train_class_empty":
        keep = labels != 5
        tensors["samples"], tensors["labels"] = samples[keep], labels[keep]
    elif damage == "train_class_count_2e40":
        meta["num_classes"] = 2 ** 40  # 8 TB of class counts, if sized unchecked
    else:
        labels[-1] = 12
        tensors["labels"] = labels
        if damage == "test_class_count":
            meta["num_classes"] = 13
    tensorio.save_tensors(path, tensors, meta)


class TestTrain:
    def test_artifacts_and_metrics(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        record = json.loads((out / "results.json").read_text())
        assert record["format_version"] == 2
        assert not record["diverged"]
        assert (out / "model.lct").exists()
        lines = (out / "history.jsonl").read_text().splitlines()
        assert len(lines) == 2 + 1  # two stage-1 samples, one stage-2
        printed = json.loads(capsys.readouterr().out)
        assert printed["overall"] == record["metrics"]["overall"]

    def test_idempotent_skip_on_same_config(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        before = (out / "results.json").read_bytes()
        capsys.readouterr()
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        assert "skipping" in capsys.readouterr().out
        assert (out / "results.json").read_bytes() == before

    def test_crash_saving_the_model_is_rerun(self, tmp_path, config_file, monkeypatch,
                                             capsys):
        # results.json marks a complete run, so it must not outlive a failed save
        out = tmp_path / "run"
        args = ["train", "--config", config_file, "--out", str(out)]
        with monkeypatch.context() as m:
            def failing_save(*a, **kw):
                raise OSError("disk full")
            m.setattr(cli, "save_model", failing_save)
            capsys.readouterr()
            assert main(args) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert not (out / "results.json").exists()
        assert main(args) == 0
        assert "skipping" not in capsys.readouterr().out
        assert (out / "model.lct").exists() and (out / "results.json").exists()

    @pytest.mark.parametrize("variant", ["full", "raw_isda"])
    def test_history_lines_are_the_record_rows(self, tmp_path, config_file, variant):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out),
                     "--set", f"train.variant={variant}"]) == 0
        record = json.loads((out / "results.json").read_text())
        lines = (out / "history.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == record["history"]
        assert [(r["stage"], r["iter"]) for r in record["history"]] == [
            (1, 20), (1, 40), (2, 10)]

    def test_older_format_record_is_rerun_once(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        args = ["train", "--config", config_file, "--out", str(out)]
        assert main(args) == 0
        record = json.loads((out / "results.json").read_text())
        record["format_version"] = 1  # same config_hash, older history layout
        (out / "results.json").write_text(json.dumps(record))
        capsys.readouterr()
        assert main(args) == 0
        assert "skipping" not in capsys.readouterr().out
        assert json.loads((out / "results.json").read_text())["format_version"] == 2
        assert main(args) == 0
        assert "skipping" in capsys.readouterr().out

    def test_config_change_triggers_rerun(self, tmp_path, config_file):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        first = json.loads((out / "results.json").read_text())["config_hash"]
        assert main(["train", "--config", config_file, "--out", str(out),
                     "--set", "train.lr=0.01"]) == 0
        second = json.loads((out / "results.json").read_text())["config_hash"]
        assert first != second

    @pytest.mark.parametrize("name", list(COMPONENT_GRID))
    def test_each_variant_trains_from_one_setting(self, tmp_path, config_file,
                                                  capsys, name):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out),
                     "--set", f"train.variant={name}"]) == 0
        record = json.loads((out / "results.json").read_text())
        assert record["config"]["train"]["variant"] == name

    def test_from_cache_with_ablate_is_usage_error(self, tmp_path, config_file,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("LCREG_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "grid"
        code = main(["train", "--config", config_file, "--out", str(out),
                     "--ablate", "--seeds", "0", "--from-cache"])
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1 and "--from-cache" in captured.err
        assert not out.exists()

    def test_from_cache_miss_is_failure(self, tmp_path, config_file, monkeypatch, capsys):
        monkeypatch.setenv("LCREG_CACHE_DIR", str(tmp_path / "cache"))
        code = main(["train", "--config", config_file, "--out", str(tmp_path / "r"),
                     "--from-cache"])
        assert code == 1
        err = capsys.readouterr().err
        assert "cache miss" in err and str(tmp_path / "cache") in err

    def test_from_cache_matches_direct_synthesis(self, tmp_path, config_file,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("LCREG_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["build-dataset", "--config", config_file]) == 0
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train", "--config", config_file, "--out", str(out_a),
                     "--from-cache"]) == 0
        assert main(["train", "--config", config_file, "--out", str(out_b)]) == 0
        a = json.loads((out_a / "results.json").read_text())
        b = json.loads((out_b / "results.json").read_text())
        assert canonical_record_bytes(a) == canonical_record_bytes(b)

    @pytest.mark.parametrize("damage", CACHE_DAMAGES)
    def test_from_cache_partial_cache_fails_cleanly(self, tmp_path, config_file,
                                                    monkeypatch, capsys, damage):
        monkeypatch.setenv("LCREG_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["build-dataset", "--config", config_file]) == 0
        root = Path(capsys.readouterr().out.strip())
        _damage_cache(root, damage)
        out = tmp_path / "r"
        code = main(["train", "--config", config_file, "--out", str(out), "--from-cache"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "cannot load dataset cache" in err and str(root) in err
        assert not (out / "results.json").exists()

    def test_from_cache_empty_train_class_is_named(self, tmp_path, config_file,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("LCREG_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["build-dataset", "--config", config_file]) == 0
        _damage_cache(Path(capsys.readouterr().out.strip()), "train_class_empty")
        out = tmp_path / "r"
        assert main(["train", "--config", config_file, "--out", str(out),
                     "--from-cache"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("train split has no sample of class 5")
        assert not out.exists()

    def test_corrupt_results_file_is_rerun(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "results.json").write_text('{"config_hash": ')
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        assert "not a readable JSON object" in capsys.readouterr().err
        record = json.loads((out / "results.json").read_text())
        assert not record["diverged"]

    def test_divergence_exit_code(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        code = main(["train", "--config", config_file, "--out", str(out),
                     "--set", "train.lr=1e6"])
        assert code == 1
        record = json.loads((out / "results.json").read_text())
        assert record["diverged"] is True
        assert "diverged" in capsys.readouterr().err

    def test_diverged_rerun_leaves_no_stale_checkpoint(self, tmp_path, config_file,
                                                       capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        assert (out / "model.lct").exists()
        diverging = ["--config", config_file, "--set", "train.lr=1e6"]
        assert main(["train", *diverging, "--out", str(out)]) == 1
        assert not (out / "model.lct").exists()
        capsys.readouterr()
        assert main(["eval", *diverging, "--model", str(out / "model.lct")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert "cannot load checkpoint" in captured.err


class TestAblate:
    def test_grid_artifacts_and_skip(self, tmp_path, config_file, capsys):
        out = tmp_path / "grid"
        args = ["train", "--config", config_file, "--out", str(out),
                "--ablate", "--seeds", "0,1",
                "--set", "train.t1_iters=30", "--set", "train.t2_iters=6"]
        assert main(args) == 0
        payload = json.loads((out / "ablation.json").read_text())
        assert set(payload["rows"]) == {"baseline", "latent", "latent_recon",
                                        "latent_aug", "full", "raw_isda"}
        assert payload["seeds"] == [0, 1]
        capsys.readouterr()
        assert main(args) == 0
        assert "skipping" in capsys.readouterr().out

    def test_variant_setting_does_not_rerun_grid(self, tmp_path, config_file, capsys):
        # every grid row sets its own variant, and every cell takes its seed
        # from --seeds, so neither base value is part of the grid's stored
        # config or hash
        out = tmp_path / "grid"
        args = ["train", "--config", config_file, "--out", str(out),
                "--ablate", "--seeds", "0",
                "--set", "train.t1_iters=10", "--set", "train.t2_iters=2"]
        assert main(args) == 0
        payload = json.loads((out / "ablation.json").read_text())
        assert not {"variant", "seed"} & set(payload["config"]["train"])
        for setting in ("train.variant=raw_isda", "train.seed=7"):
            capsys.readouterr()
            assert main([*args, "--set", setting]) == 0
            printed = capsys.readouterr().out
            assert printed.startswith("ablation up to date") and "skipping" in printed

    def test_unwritable_out_exits_1_before_any_cell(self, tmp_path, config_file, capsys,
                                                    monkeypatch):
        blocker = tmp_path / "F"
        blocker.write_text("a file, not a directory")
        calls = []
        real = trainer.run_training
        monkeypatch.setattr(trainer, "run_training",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        before = sorted(tmp_path.rglob("*"))
        assert main(["train", "--config", config_file, "--out", str(blocker / "sub"),
                     "--ablate", "--seeds", "0", "--set", "train.t1_iters=10"]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(blocker) in err[0]
        assert captured.out == ""
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "a file, not a directory"

    def test_corrupt_ablation_file_is_rerun(self, tmp_path, config_file, capsys):
        out = tmp_path / "grid"
        out.mkdir()
        (out / "ablation.json").write_text("[]")
        assert main(["train", "--config", config_file, "--out", str(out),
                     "--ablate", "--seeds", "0",
                     "--set", "train.t1_iters=10", "--set", "train.t2_iters=2"]) == 0
        assert "not a readable JSON object" in capsys.readouterr().err
        assert json.loads((out / "ablation.json").read_text())["seeds"] == [0]

    def test_seeds_without_ablate_is_usage_error(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        for flag, *values in (["--seeds", "7"], ["--seeds", "7,7,x"], ["--seeds", ""],
                              ["--row", "a", "train.alpha=1"]):
            assert main(["train", "--config", config_file, "--out", str(out),
                         flag, *values]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.splitlines()) == 1
            assert flag in captured.err
        assert not out.exists()

    def test_bad_seeds_is_usage_error(self, tmp_path, config_file, capsys):
        # a repeated seed would train every row twice and keep one run
        out = tmp_path / "grid"
        for seeds in ("0,x", ",", "0,0", "", "0,-1"):
            assert main(["train", "--config", config_file, "--out", str(out),
                         "--ablate", "--seeds", seeds]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_seed_with_ablate_is_usage_error(self, tmp_path, config_file, capsys):
        out = tmp_path / "grid"
        assert main(["train", "--config", config_file, "--out", str(out),
                     "--ablate", "--seed", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert "--seed" in captured.err and not out.exists()

    @staticmethod
    def _sweep_args(config_file, out, seeds, pairs):
        args = ["train", "--config", config_file, "--out", str(out), "--ablate",
                "--seeds", seeds, "--set", "train.t1_iters=20", "--set", "train.t2_iters=5"]
        for a, b in pairs:
            args += ["--row", f"{a},{b}", "train.variant=full",
                     f"train.alpha={a}", f"train.beta={b}"]
        return args

    def test_row_sweep_writes_grid_and_report(self, tmp_path, config_file, capsys):
        out = tmp_path / "sweep"
        assert main(self._sweep_args(config_file, out, "0", [(1, 1), (0.1, 0.1)])) == 0
        payload = json.loads((out / "ablation.json").read_text())
        assert set(payload) == {"ablation_hash", "config", "seeds", "rows", "summary"}
        assert payload["seeds"] == [0]
        # every row sets these, and --seeds sets the seed, so the stored
        # config omits them
        assert not {"variant", "alpha", "beta", "seed"} & set(payload["config"]["train"])

        capsys.readouterr()
        assert main(["report", "--results", str(out / "ablation.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("variant") and "Δ" not in lines[0]
        body = [line for line in lines[2:] if line.strip()]
        assert sorted(line.split()[0] for line in body) == ["0.1,0.1", "1,1"]

    def test_row_sweep_rejects_repeated_seed(self, tmp_path, config_file, capsys):
        out = tmp_path / "sweep"
        assert main(self._sweep_args(config_file, out, "0,0", [(1, 1)])) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "repeats a seed" in err[0]
        assert not out.exists()

    def test_rows_enter_the_hash(self, tmp_path, config_file, capsys):
        out = tmp_path / "grid"
        args = ["train", "--config", config_file, "--out", str(out), "--ablate",
                "--seeds", "0", "--set", "train.t1_iters=10", "--set", "train.t2_iters=2"]
        assert main([*args, "--row", "a", "train.alpha=1"]) == 0
        first = json.loads((out / "ablation.json").read_text())["ablation_hash"]
        capsys.readouterr()
        assert main([*args, "--row", "a", "train.alpha=2"]) == 0
        assert "skipping" not in capsys.readouterr().out
        assert json.loads((out / "ablation.json").read_text())["ablation_hash"] != first

    @pytest.mark.parametrize("rows, fragment", [
        ([["a", "train.alpha=1"], ["a", "train.beta=1"]], "repeats a row name"),
        ([["a"]], "sets nothing"),
        ([["a", "train.seed=3"]], "train.seed"),
        ([["a", "train.nope=1"]], "unknown key 'train.nope'"),
        ([["a", "train.alpha=x"]], "expected a number"),
        ([["a", "alpha"]], "expected key=value"),
        # a value only the class profile rejects
        ([["a", "task.imbalance=0.5"]], "--row a:"),
    ])
    def test_bad_row_is_usage_error(self, tmp_path, config_file, capsys, rows, fragment):
        out = tmp_path / "grid"
        args = ["train", "--config", config_file, "--out", str(out), "--ablate",
                "--seeds", "0"]
        for row in rows:
            args += ["--row", *row]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: --row a")
        assert fragment in err[0]
        assert not out.exists()


class TestEval:
    def test_matches_training_report(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        record = json.loads((out / "results.json").read_text())
        capsys.readouterr()
        assert main(["eval", "--config", config_file,
                     "--model", str(out / "model.lct")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["overall"] == record["metrics"]["overall"]
        assert printed["per_class"] == record["metrics"]["per_class"]

    def test_missing_checkpoint(self, tmp_path, config_file):
        assert main(["eval", "--config", config_file,
                     "--model", str(tmp_path / "no.lct")]) == 1

    @pytest.fixture
    def checkpoint(self, tmp_path, config_file, monkeypatch, capsys):
        monkeypatch.setenv("LCREG_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        capsys.readouterr()
        return str(out / "model.lct")

    def test_from_cache_miss_is_failure(self, tmp_path, config_file, checkpoint, capsys):
        code = main(["eval", "--config", config_file, "--model", checkpoint,
                     "--from-cache"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cache miss" in captured.err and str(tmp_path / "cache") in captured.err

    def test_from_cache_matches_direct_synthesis(self, config_file, checkpoint, capsys):
        assert main(["build-dataset", "--config", config_file]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", config_file, "--model", checkpoint,
                     "--from-cache"]) == 0
        cached = capsys.readouterr().out
        assert main(["eval", "--config", config_file, "--model", checkpoint]) == 0
        assert cached == capsys.readouterr().out

    def test_from_cache_empty_test_split_scores_zero(self, config_file, checkpoint, capsys):
        assert main(["build-dataset", "--config", config_file]) == 0
        root = Path(capsys.readouterr().out.strip())
        test = load_dataset(root / "test")
        save_dataset(LongTailDataset(test.samples[:0], test.labels[:0],
                                     np.zeros_like(test.counts), test.seed), root / "test")
        assert main(["eval", "--config", config_file, "--model", checkpoint,
                     "--from-cache"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["overall"] == 0.0 and set(printed["per_class"]) == {0.0}
        assert printed["group_counts"] == {"many": 0, "medium": 0, "few": 0}

    @pytest.mark.parametrize("damage", CACHE_DAMAGES)
    def test_from_cache_partial_cache_fails_cleanly(self, config_file, checkpoint,
                                                    capsys, damage):
        assert main(["build-dataset", "--config", config_file]) == 0
        root = Path(capsys.readouterr().out.strip())
        _damage_cache(root, damage)
        code = main(["eval", "--config", config_file, "--model", checkpoint,
                     "--from-cache"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "cannot load dataset cache" in captured.err and str(root) in captured.err

    def test_truncated_checkpoint_fails_cleanly(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        blob = (out / "model.lct").read_bytes()
        assert len(blob) > 3000
        for size in (3000, 10):
            cut = tmp_path / f"cut{size}.lct"
            cut.write_bytes(blob[:size])
            capsys.readouterr()
            assert main(["eval", "--config", config_file, "--model", str(cut)]) == 1
            assert main(["report", "--config", config_file, "--model", str(cut),
                         "--histogram-csv", str(tmp_path / "u.csv")]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and all("truncated" in line for line in err)
            assert not (tmp_path / "u.csv").exists()

    def test_stats_flag_without_stats_fails_cleanly(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out),
                     "--set", "train.variant=latent_recon"]) == 0
        tensors, meta = tensorio.load_tensors(out / "model.lct")
        assert meta["has_stats"] == 0
        bad = tmp_path / "bad.lct"
        tensorio.save_tensors(bad, tensors, dict(meta, has_stats=1))
        capsys.readouterr()
        assert main(["eval", "--config", config_file, "--set", "train.variant=latent_recon",
                     "--model", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "missing tensor stats.count" in err[0]

    @pytest.mark.parametrize("name", ["pool.features", "stats.cov"])
    def test_non_finite_checkpoint_fails_cleanly(self, tmp_path, config_file, capsys, name):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        tensors, meta = tensorio.load_tensors(out / "model.lct")
        tensors[name].reshape(-1)[0] = np.nan
        bad = tmp_path / "bad.lct"
        tensorio.save_tensors(bad, tensors, meta)
        capsys.readouterr()
        assert main(["eval", "--config", config_file, "--model", str(bad)]) == 1
        assert main(["report", "--config", config_file, "--model", str(bad),
                     "--histogram-csv", str(tmp_path / "u.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 2 and all(line.startswith("cannot load checkpoint") and
                                     f"non-finite value in tensor {name}" in line
                                     for line in err)
        assert not (tmp_path / "u.csv").exists()

    def test_repeated_tensor_fails_cleanly(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        tensors, meta = tensorio.load_tensors(out / "model.lct")
        bad = tmp_path / "bad.lct"
        # "dec.x" sorts right after "dec.w"; renamed, the file stores dec.w twice
        tensorio.save_tensors(bad, {**tensors, "dec.x": np.zeros_like(tensors["dec.w"])}, meta)
        bad.write_bytes(bad.read_bytes().replace(b"dec.x", b"dec.w"))
        capsys.readouterr()
        assert main(["eval", "--config", config_file, "--model", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("cannot load checkpoint")
        assert "tensor 'dec.w' repeated" in err[0]

    def test_checkpoint_without_iteration_fails_cleanly(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        tensors, meta = tensorio.load_tensors(out / "model.lct")
        del meta["iteration"]
        bad = tmp_path / "bad.lct"
        tensorio.save_tensors(bad, tensors, meta)
        capsys.readouterr()
        assert main(["eval", "--config", config_file, "--model", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "no iteration" in err[0]


class TestGradcheck:
    def test_passes_and_prints_every_kernel(self, capsys):
        assert main(["gradcheck", "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert "end_to_end_total_loss" in out
        assert "cross_entropy" in out
        assert "quadratic_penalty" in out
        assert "isda_scores" in out
        assert "FAIL" not in out

    def test_broken_derivative_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(diffcore, "_sigmoid_grad", lambda y: y)
        assert main(["gradcheck", "--instances", "3"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("instances", ["0", "-1"])
    def test_instances_below_one_is_usage_error(self, capsys, instances):
        assert main(["gradcheck", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


class TestReport:
    def test_single_run_table(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--results", str(out / "results.json")]) == 0
        text = capsys.readouterr().out
        assert "overall" in text and "few" in text

    def test_ablation_table_aligned(self, tmp_path, config_file, capsys):
        out = tmp_path / "grid"
        assert main(["train", "--config", config_file, "--out", str(out),
                     "--ablate", "--seeds", "0,1",
                     "--set", "train.t1_iters=30", "--set", "train.t2_iters=6"]) == 0
        capsys.readouterr()
        assert main(["report", "--results", str(out / "ablation.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("variant")
        assert any("±" in line for line in lines[2:])
        body = [l for l in lines[2:] if l.strip()]
        assert len(body) == 6

    def test_ablation_report_prints_baseline_deltas(self, tmp_path, config_file, capsys):
        out = tmp_path / "grid"
        assert main(["train", "--config", config_file, "--out", str(out),
                     "--ablate", "--seeds", "0,1",
                     "--set", "train.t1_iters=10", "--set", "train.t2_iters=2"]) == 0
        summary = json.loads((out / "ablation.json").read_text())["summary"]
        base = summary["baseline"]
        capsys.readouterr()
        assert main(["report", "--results", str(out / "ablation.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        headers = [h.strip() for h in lines[0].split("  ") if h.strip()]
        assert headers[-4:] == ["Δ overall", "Δ few", "few wins", "std Δ few"]
        assert len(lines[2:]) == len(COMPONENT_GRID)
        for line in lines[2:]:
            name, *_, d_overall, d_few, _, _ = line.split()
            assert d_overall == f"{summary[name]['overall'] - base['overall']:+.4f}"
            assert d_few == f"{summary[name]['few'] - base['few']:+.4f}"

    def test_grid_report_pairs_few_by_seed(self, tmp_path, capsys):
        def cell(few):
            return {"overall": 0.5, "many": 0.6, "medium": 0.5, "few": few}

        diverged = {"error": "diverged", "at": 7}
        grid = {"config": {}, "seeds": [0, 1, 2, 3], "summary": {}, "rows": {
            "baseline": {"seeds": {0: cell(0.20), 1: cell(0.30), 2: cell(0.25),
                                   3: diverged}},
            # seed 3 is clean here but not in baseline, so it is not paired
            "full": {"seeds": {0: cell(0.25), 1: diverged, 2: cell(0.20), 3: cell(0.90)}},
            "latent": {"seeds": {0: cell(0.30), 1: cell(0.40), 2: cell(0.35),
                                 3: cell(0.10)}},
            "raw_isda": {"seeds": {0: diverged, 1: diverged, 2: diverged, 3: diverged}},
        }}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))  # seed keys become strings
        for text in (cli.format_grid(grid),
                     main(["report", "--results", str(path)]) == 0
                     and capsys.readouterr().out.rstrip("\n")):
            lines = text.splitlines()
            assert lines[0].endswith("few wins  std Δ few")
            rows = {line.split()[0]: line.split() for line in lines[2:]}
            assert rows["baseline"][-2:] == ["0/3", "0.0000"]
            # paired differences +0.05 and -0.05
            assert rows["full"][-2:] == ["1/2", "0.0500"]
            # +0.10 at each of the three paired seeds
            assert rows["latent"][-2:] == ["3/3", f"{np.std([0.1, 0.1, 0.1]):.4f}"]
            assert rows["raw_isda"][-1] == "0/0"

    def test_empty_group_prints_dash(self, tmp_path, config_file, capsys):
        # no class of the tiny task has more than 100 samples
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        assert json.loads((out / "results.json").read_text())["metrics"]["many"] is None
        capsys.readouterr()
        assert main(["report", "--results", str(out / "results.json")]) == 0
        table = {line.split()[0]: line.split()[1]
                 for line in capsys.readouterr().out.splitlines()[2:]}
        assert table["many"] == "—" and table["few"] != "—"

        grid = tmp_path / "grid"
        assert main(["train", "--config", config_file, "--out", str(grid), "--ablate",
                     "--seeds", "0,1", "--row", "baseline", "train.variant=baseline",
                     "--row", "latent", "train.variant=latent",
                     "--set", "train.t1_iters=10", "--set", "train.t2_iters=2"]) == 0
        summary = json.loads((grid / "ablation.json").read_text())["summary"]
        assert all(row["many"] is None for row in summary.values())
        capsys.readouterr()
        assert main(["report", "--results", str(grid / "ablation.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in lines[2:]:
            # name, then overall as mean ± std, then many
            assert line.split()[4] == "—" and "0.0000 ± 0.0000" not in line

    def test_grid_report_skips_empty_few_group(self, capsys):
        def cell(few):
            return {"overall": 0.5, "many": 0.6, "medium": 0.5, "few": few}

        grid = {"config": {}, "seeds": [0, 1], "summary": {}, "rows": {
            "baseline": {"seeds": {0: cell(0.2), 1: cell(0.3)}},
            # a row whose task leaves no class with fewer than 20 samples
            "if10": {"seeds": {0: cell(None), 1: cell(None)}},
            "full": {"seeds": {0: cell(0.3), 1: cell(0.2)}},
        }}
        rows = {line.split()[0]: line.split()
                for line in cli.format_grid(grid).splitlines()[2:]}
        # few cell, clean count, then the four columns against baseline
        assert rows["if10"][-6:] == ["—", "2/2", "+0.0000", "—", "—", "—"]
        assert rows["full"][-4:] == ["+0.0000", "+0.0000", "1/2", "0.1000"]
        # an empty few group in baseline leaves no row a few comparison
        grid["rows"]["baseline"] = grid["rows"].pop("if10")
        rows = {line.split()[0]: line.split()
                for line in cli.format_grid(grid).splitlines()[2:]}
        assert rows["full"][-4:] == ["+0.0000", "—", "—", "—"]

    def test_grid_compares_rows_with_baseline_of_their_task(self, tmp_path, config_file,
                                                            capsys):
        out = tmp_path / "grid"
        assert main(["train", "--config", config_file, "--out", str(out), "--ablate",
                     "--seeds", "0,1", "--row", "baseline", "train.variant=baseline",
                     "--row", "baseline_if5", "train.variant=baseline", "task.imbalance=5",
                     "--row", "full_if5", "train.variant=full", "task.imbalance=5",
                     "--set", "train.t1_iters=10", "--set", "train.t2_iters=2"]) == 0
        grid = json.loads((out / "ablation.json").read_text())
        # only rows that set a task field store it
        assert "task" not in grid["rows"]["baseline"]
        assert grid["rows"]["full_if5"]["task"] == {"imbalance": 5.0}
        capsys.readouterr()
        assert main(["report", "--results", str(out / "ablation.json")]) == 0
        rows = {line.split()[0]: line.split()
                for line in capsys.readouterr().out.splitlines()[2:]}
        assert rows["baseline"][-4:] == ["+0.0000", "+0.0000", "0/2", "0.0000"]
        # an IF 5 row has other few classes than the IF 20 baseline
        for name in ("baseline_if5", "full_if5"):
            assert rows[name][-4:] == ["—"] * 4
        # a row that restates the grid's own task is still compared
        grid["rows"]["latent"] = dict(grid["rows"]["baseline"], task={"imbalance": 20.0})
        rows = {line.split()[0]: line.split()
                for line in cli.format_grid(grid).splitlines()[2:]}
        assert rows["latent"][-4:] == ["+0.0000", "+0.0000", "0/2", "0.0000"]

    def test_missing_results_file(self, tmp_path):
        assert main(["report", "--results", str(tmp_path / "none.json")]) == 1

    def test_corrupt_results_file_fails_cleanly(self, tmp_path, capsys):
        for text in ('{"config_hash": ', "[1, 2]"):
            path = tmp_path / "results.json"
            path.write_text(text)
            assert main(["report", "--results", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.splitlines()
            assert len(err) == 1 and str(path) in err[0]

    def test_ablation_rows_without_seeds_fail_cleanly(self, tmp_path, capsys):
        self._assert_malformed(tmp_path, capsys, '{"rows": {"full": {}}}')

    def test_record_without_accuracies_fails_cleanly(self, tmp_path, capsys):
        self._assert_malformed(tmp_path, capsys, '{"metrics": {}}')

    @pytest.mark.parametrize("text", [
        "{}",
        # a grid-like object whose results sit under "cells", not "rows"
        '{"config": {}, "seeds": [0], "cells": {"1,1": {"overall": 0.5}}}',
    ])
    def test_non_record_fails_cleanly(self, tmp_path, capsys, text):
        self._assert_malformed(tmp_path, capsys, text)

    def test_diverged_record_reports_divergence(self, tmp_path, capsys):
        path = tmp_path / "results.json"
        path.write_text('{"metrics": null, "diverged": true}')
        assert main(["report", "--results", str(path)]) == 0
        assert "run diverged" in capsys.readouterr().out

    @staticmethod
    def _assert_malformed(tmp_path, capsys, text):
        path = tmp_path / "results.json"
        path.write_text(text)
        assert main(["report", "--results", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and str(path) in err[0]

    def test_no_inputs_is_usage_error(self):
        assert main(["report"]) == 2

    def test_latent_usage_rows_sum_to_one(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        csv_path = tmp_path / "usage.csv"
        assert main(["report", "--config", config_file,
                     "--model", str(out / "model.lct"),
                     "--histogram-csv", str(csv_path)]) == 0
        rows = csv_path.read_text().splitlines()
        assert rows[0].split(",")[0] == "class"
        assert len(rows) == 1 + 6
        for row in rows[1:]:
            vals = [float(v) for v in row.split(",")[1:]]
            assert len(vals) == 4
            assert abs(sum(vals) - 1.0) <= 1e-9

    def test_histogram_csv_creates_its_directory(self, tmp_path, config_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        csv_path = tmp_path / "missing" / "nested" / "usage.csv"
        assert main(["report", "--config", config_file,
                     "--model", str(out / "model.lct"),
                     "--histogram-csv", str(csv_path)]) == 0
        assert len(csv_path.read_text().splitlines()) == 1 + 6

    def test_histogram_needs_model(self, tmp_path, config_file):
        assert main(["report", "--config", config_file,
                     "--histogram-csv", str(tmp_path / "u.csv")]) == 2

    def test_histogram_without_latents_fails(self, tmp_path, config_file, capsys):
        out = tmp_path / "plain"
        assert main(["train", "--config", config_file, "--out", str(out),
                     "--set", "train.variant=baseline"]) == 0
        code = main(["report", "--config", config_file,
                     "--set", "train.variant=baseline",
                     "--model", str(out / "model.lct"),
                     "--histogram-csv", str(tmp_path / "u.csv")])
        assert code == 1


def _fail_replace_onto(monkeypatch, name):
    """Make every rename onto a file called ``name`` fail like a full disk."""
    real = tensorio.os.replace

    def replace(src, dst):
        if str(dst).endswith(name):
            raise OSError("disk full")
        real(src, dst)

    monkeypatch.setattr(tensorio.os, "replace", replace)


def _snapshot(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text('{"old": true}\n')
        with pytest.raises(RuntimeError):
            with tensorio.atomic_write(path, "w") as fh:
                fh.write('{"new": ')
                raise RuntimeError("crash part-way through the write")
        assert path.read_text() == '{"old": true}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["results.json"]

    def test_write_json_bytes(self, tmp_path):
        path = tmp_path / "new" / "r.json"
        tensorio.write_json(path, {"b": 1, "a": [1, 2]})
        assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_failed_checkpoint_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.lct"
        tensorio.save_tensors(path, {"w": np.arange(4.0)}, {"iteration": 1})
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(tensorio.os, "replace", fail)
        with pytest.raises(OSError):
            tensorio.save_tensors(path, {"w": np.ones(9)}, {"iteration": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.lct"]

    @pytest.mark.parametrize("name", ["corpus.lct", "task.json"])
    def test_failed_build_dataset_keeps_previous_file(self, tmp_path, config_file,
                                                      monkeypatch, name, capsys):
        out = tmp_path / "ds"
        assert main(["build-dataset", "--config", config_file, "--out", str(out)]) == 0
        before = _snapshot(out)
        _fail_replace_onto(monkeypatch, name)
        capsys.readouterr()
        assert main(["build-dataset", "--config", config_file, "--out", str(out),
                     "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        after = _snapshot(out)
        assert sorted(after) == sorted(before)  # no temporary file left behind
        assert all(after[k] == before[k] for k in before if k.name == name)

    def test_failed_histogram_csv_keeps_previous_file(self, tmp_path, config_file,
                                                      monkeypatch, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        csv_path = tmp_path / "usage.csv"
        csv_path.write_text("previous\n")
        _fail_replace_onto(monkeypatch, "usage.csv")
        capsys.readouterr()
        assert main(["report", "--config", config_file, "--model", str(out / "model.lct"),
                     "--histogram-csv", str(csv_path)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert csv_path.read_text() == "previous\n"
        assert not (tmp_path / "usage.csv.tmp").exists()

    @pytest.mark.parametrize("command", ["train", "build-dataset", "report"])
    def test_output_under_a_regular_file_is_one_error_line(self, tmp_path, config_file,
                                                           capsys, command):
        out = tmp_path / "run"
        if command == "report":
            assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        blocker = tmp_path / "F"
        blocker.write_text("a file, not a directory\n")
        args = {"train": ["--out", str(blocker)],
                "build-dataset": ["--out", str(blocker)],
                "report": ["--model", str(out / "model.lct"),
                           "--histogram-csv", str(blocker / "x.csv")]}[command]
        capsys.readouterr()
        assert main([command, "--config", config_file, *args]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(blocker) in err[0]
        assert blocker.read_text() == "a file, not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["F", "tiny.cfg"] + (["run"] if command == "report" else []))
