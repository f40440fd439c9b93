import contextlib
import dataclasses
import io
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occreid.cli import main
from occreid.config import ExperimentConfig, load_config, render_config
from occreid.dataset import generate_synthetic_dataset
from occreid.imaging import Image, save_image
from occreid.rng import SplitMix64

TINY_CONFIG = """
[dataset]
identities = 4
per_identity = 4
image_width = 16
image_height = 24

[occlusion]
patch_side = 6

[train]
iterations = 30
batch_size = 8
input_side = 12
resize_side = 14
conv_channels = 4,8
learning_rate = 0.02

[eval]
shots = 1,2
trials = 2

[run]
seed = 5
"""


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(TINY_CONFIG, encoding="utf-8")
    return p


def tree_hash(root):
    import hashlib

    digest = hashlib.sha256()
    for f in sorted(root.rglob("*")):
        if f.is_file():
            digest.update(f.relative_to(root).as_posix().encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()


class TestConfig:
    def test_defaults_match_reference_protocol(self):
        cfg = ExperimentConfig()
        assert cfg.train.alpha == 0.8
        assert cfg.train.batch_size == 20
        assert cfg.train.learning_rate == 1e-3
        assert cfg.eval.trials == 10
        assert cfg.dataset.split_fraction == 0.5

    def test_round_trip(self, tmp_path, config_path):
        cfg = load_config(config_path)
        assert cfg.dataset.identities == 4
        assert cfg.train.conv_channels == (4, 8)
        rendered = tmp_path / "resolved.ini"
        rendered.write_text(render_config(cfg), encoding="utf-8")
        again = load_config(rendered)
        assert again == cfg

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[train]\nlearning_rat = 0.1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="learning_rat"):
            load_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[trainer]\nalpha = 0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="trainer"):
            load_config(p)

    def test_percent_sign_is_literal(self, tmp_path):
        p = tmp_path / "pct.ini"
        p.write_text("[run]\nout = runs/100%\n", encoding="utf-8")
        assert load_config(p).run.out == "runs/100%"

    def test_bad_value_reported_with_location(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[eval]\ntrials = often\n", encoding="utf-8")
        with pytest.raises(ValueError, match="trials"):
            load_config(p)

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\nseed = 3\nidentities = 4\n", "[DEFAULT]\nseed = 3\n[run]\nout = runs\n"],
        ids=["alone", "beside [run]"],
    )
    def test_default_section_rejected(self, tmp_path, capsys, text):
        # configparser would apply [DEFAULT] to every section: alone it
        # loaded as the default config, beside [run] it set run.seed
        p = tmp_path / "default.ini"
        p.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
        assert "unknown section [DEFAULT]" in capsys.readouterr().err
        assert not out.exists()

    def test_shipped_configs_load(self, tmp_path):
        from .test_acceptance import TestCriterion7Determinism, acceptance_config

        texts = [
            render_config(ExperimentConfig()),
            render_config(acceptance_config()),
            TINY_CONFIG,
            TestCriterion7Determinism.CONFIG,
        ]
        for i, text in enumerate(texts):
            p = tmp_path / f"{i}.ini"
            p.write_text(text, encoding="utf-8")
            load_config(p)

    def test_readme_ini_block_lists_every_setting(self):
        import configparser

        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        documented = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
        documented.read_string(block)
        defaults = configparser.ConfigParser(interpolation=None)
        defaults.read_string(render_config(ExperimentConfig()))
        assert documented.sections() == defaults.sections()
        for section in defaults.sections():
            assert list(documented[section]) == list(defaults[section]), section


def _ini_values(**fields):
    """Strategy for one INI section's text: each key is set or left at its
    default, from mostly valid values with some invalid ones."""
    return st.fixed_dictionaries({}, optional=fields).map(
        lambda d: "".join(f"{k} = {v}\n" for k, v in d.items())
    )


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


_TRAIN = _ini_values(
    alpha=_real(-0.1, 1.1),
    learning_rate=_real(-0.1, 1.0),
    batch_size=st.integers(0, 40),
    iterations=st.integers(-1, 50),
    input_side=st.integers(1, 40),
    resize_side=st.integers(1, 44),
    max_jitter=st.integers(-2, 4),
    conv_channels=st.lists(st.integers(0, 8), min_size=1, max_size=3).map(
        lambda c: ",".join(map(str, c))
    ),
    kernel=st.sampled_from([1, 2, 3, 5]),
    stride=st.integers(0, 3),
)
_DATASET = _ini_values(
    identities=st.integers(1, 6),
    per_identity=st.integers(1, 12),
    image_width=st.integers(1, 40),
    image_height=st.integers(1, 80),
    split_fraction=_real(0.0, 1.1),
)
_OCCLUSION = _ini_values(
    patch_side=st.integers(0, 24),
    ratio_lo=_real(0.0, 0.6),
    ratio_hi=_real(0.1, 1.0),
    aspect_lo=_real(0.0, 2.0),
    aspect_hi=_real(0.5, 3.0),
    background_band=_real(0.0, 1.1),
    probe_band=_real(-1.0, 1.1),
)


class TestConfigBuilds:
    @settings(max_examples=300, deadline=None)
    @given(train=_TRAIN, dataset=_DATASET, occlusion=_OCCLUSION)
    def test_accepted_config_builds_the_run(self, train, dataset, occlusion):
        """Whatever load_config accepts builds the run's TrainConfig,
        ArchSpec and both OcclusionConfigs, with the synthetic images'
        patch inside its background band and the smallest target inside
        the image; a rejection names its section."""
        import tempfile
        import warnings
        from pathlib import Path

        from occreid.config import arch_spec, occlusion_config, probe_occlusion_config, train_config
        from occreid.occsim import check_patch_fits, check_target_fits

        text = f"[train]\n{train}[dataset]\n{dataset}[occlusion]\n{occlusion}"
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.ini"
            path.write_text(text, encoding="utf-8")
            try:
                cfg = load_config(path)
            except ValueError as e:
                sections = ("train", "dataset", "occlusion", "eval")
                assert any(f"[{sec}] " in str(e) for sec in sections)
                return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # alpha 0 or 1 warns by design
            tcfg = train_config(cfg, 3, cfg.train.alpha)
        assert tcfg.arch == arch_spec(cfg)
        for build in (occlusion_config, probe_occlusion_config):
            for check in (check_patch_fits, check_target_fits):
                check(build(cfg, 3), cfg.dataset.image_width, cfg.dataset.image_height)


class TestSimulateCommand:
    def test_writes_images_and_manifest(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        images = sorted((out / "simulate" / "images").glob("*.ppm"))
        assert len(images) == 16
        manifest = (out / "simulate" / "manifest.tsv").read_text().strip().splitlines()
        assert len(manifest) == 17  # header + one row per sample
        assert (out / "simulate" / "config.resolved.ini").exists()
        assert (out / "simulate" / "seeds.tsv").exists()
        assert "16 occluded images" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config_path), "--out", str(out1)])
        main(["simulate", "--config", str(config_path), "--out", str(out2)])
        assert tree_hash(out1) == tree_hash(out2)

    def test_manifest_mean_ratio_within_band(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        rows = (out / "simulate" / "manifest.tsv").read_text().strip().splitlines()[1:]
        ratios = [float(r.split("\t")[10]) for r in rows]
        assert 0.1 <= np.mean(ratios) <= 0.3


class TestTrainEvalCommands:
    def test_train_then_eval(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        ckpt = out / "train" / "checkpoint.bin"
        assert ckpt.exists()
        history = (out / "train" / "loss_history.tsv").read_text().strip().splitlines()
        assert len(history) == 31  # header + one row per iteration
        assert (
            main(
                ["eval", "--config", str(config_path), "--out", str(out), "--checkpoint", str(ckpt)]
            )
            == 0
        )
        assert (out / "eval" / "cmc_n1.tsv").exists()
        assert (out / "eval" / "cmc_n2.tsv").exists()
        assert (out / "eval" / "summary.tsv").exists()
        assert (out / "eval" / "cmc.svg").exists()
        assert "rank1=" in capsys.readouterr().out

    def test_train_rerun_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(config_path), "--out", str(out1)])
        main(["train", "--config", str(config_path), "--out", str(out2)])
        assert tree_hash(out1) == tree_hash(out2)

    def test_summary_rank1_matches_report_cmc(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["train", "--config", str(config_path), "--out", str(out)])
        main(
            [
                "eval",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--checkpoint",
                str(out / "train" / "checkpoint.bin"),
            ]
        )
        summary = (out / "eval" / "summary.tsv").read_text().strip().splitlines()
        n1 = [r for r in summary if r.startswith("1\t")][0]
        rank1 = float(n1.split("\t")[1])
        cmc_rows = (out / "eval" / "cmc_n1.tsv").read_text().strip().splitlines()
        first_rate = float([r for r in cmc_rows if r.startswith("1\t")][0].split("\t")[1])
        assert rank1 == pytest.approx(first_rate * 100)

    def test_ablation_switches(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert (
            main(["train", "--config", str(config_path), "--out", str(out), "--no-os", "--no-obc"])
            == 0
        )
        resolved = (out / "train" / "config.resolved.ini").read_text()
        assert "use_os = False" in resolved
        assert "use_obc = False" in resolved

    def test_zero_iterations_with_regeneration(self, tmp_path):
        # no epoch runs, so regeneration must give the initial checkpoint
        # that training without it writes
        ckpts = []
        for regen in ("false", "true"):
            cfg = tmp_path / f"regen_{regen}.ini"
            text = TINY_CONFIG.replace("iterations = 30", "iterations = 0")
            text = text.replace("[occlusion]", f"[occlusion]\nregenerate_per_epoch = {regen}")
            cfg.write_text(text, encoding="utf-8")
            out = tmp_path / regen
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
            history = (out / "train" / "loss_history.tsv").read_text().splitlines()
            assert history == ["# iteration\ttotal\tid_loss\tobc_loss"]
            ckpts.append((out / "train" / "checkpoint.bin").read_bytes())
        assert ckpts[0] == ckpts[1]


class TestSaliencyCommand:
    def test_maps_only_mode(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["train", "--config", str(config_path), "--out", str(out)])
        ckpt = out / "train" / "checkpoint.bin"
        assert (
            main(
                [
                    "saliency",
                    "--config",
                    str(config_path),
                    "--out",
                    str(out),
                    "--checkpoint",
                    str(ckpt),
                ]
            )
            == 0
        )
        maps = sorted((out / "saliency" / "maps").glob("*.pgm"))
        # synthetic test split: 2 identities x 4 full-body + 8 artificial probes
        assert len(maps) == 16
        assert not (out / "saliency" / "precision_model.tsv").exists()

    def test_precision_with_constructed_masks(self, tmp_path):
        # dataset tree whose masks fully cover the image: precision is 1
        # for any non-empty salient region
        from occreid.occsim import OcclusionConfig, build_occlusion_set

        root = tmp_path / "data"
        samples = generate_synthetic_dataset(4, 3, 16, 24, SplitMix64(8))
        z, _ = build_occlusion_set(samples, OcclusionConfig(patch_side=6, seed=3))
        for s in samples:
            p = root / "whole" / f"{s.identity:03d}"
            p.mkdir(parents=True, exist_ok=True)
            save_image(s.image, p / f"{s.id}.ppm")
        for s in z:
            p = root / "occluded" / f"{s.identity:03d}"
            p.mkdir(parents=True, exist_ok=True)
            name = s.id.replace("#occ", "occ")
            save_image(s.image, p / f"{name}.ppm")
            full = Image(np.full((24, 16, 1), 255, dtype=np.uint8))
            save_image(full, p / f"{name}.mask.pgm")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            TINY_CONFIG + f"\n[dataset]\nroot = {root}\n".replace("[dataset]\n", ""),
            encoding="utf-8",
        )
        # rewrite: config parser forbids duplicate sections, so append keys via a fresh file
        cfg.write_text(
            TINY_CONFIG.replace("[dataset]", f"[dataset]\nroot = {root}"), encoding="utf-8"
        )
        out = tmp_path / "out"
        main(["train", "--config", str(cfg), "--out", str(out)])
        ckpt = out / "train" / "checkpoint.bin"
        code = main(
            ["saliency", "--config", str(cfg), "--out", str(out), "--checkpoint", str(ckpt)]
        )
        assert code == 0
        rows = (out / "saliency" / "precision_model.tsv").read_text().strip().splitlines()
        mean_row = [r for r in rows if r.startswith("# per_image_mean")][0]
        assert float(mean_row.split("\t")[1]) == pytest.approx(1.0)


class TestReportAndSweep:
    def test_report_runs_all_regimes(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert main(["report", "--config", str(config_path), "--out", str(out)]) == 0
        table = (out / "report" / "ablation.tsv").read_text().strip().splitlines()
        names = [r.split("\t")[0] for r in table[1:]]
        assert names == [
            "baseline",
            "baseline",
            "os_only",
            "os_only",
            "obc_only",
            "obc_only",
            "full",
            "full",
        ]
        printed = capsys.readouterr().out
        assert "baseline" in printed and "full" in printed

    def test_single_alpha_sweep_equals_train_then_eval(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "sweep-alpha",
                    "--config",
                    str(config_path),
                    "--out",
                    str(out),
                    "--alphas",
                    "0.8",
                ]
            )
            == 0
        )
        sweep_rows = (out / "sweep" / "alpha_sweep.tsv").read_text().strip().splitlines()
        sweep_rank1 = float(sweep_rows[1].split("\t")[1])
        main(["train", "--config", str(config_path), "--out", str(out)])
        main(
            [
                "eval",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--checkpoint",
                str(out / "train" / "checkpoint.bin"),
            ]
        )
        summary = (out / "eval" / "summary.tsv").read_text().strip().splitlines()
        eval_rank1 = float([r for r in summary if r.startswith("1\t")][0].split("\t")[1])
        assert sweep_rank1 == eval_rank1

    def test_sweep_sorted_rows_and_plot(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "sweep-alpha",
                    "--config",
                    str(config_path),
                    "--out",
                    str(out),
                    "--alphas",
                    "0.9,0.5",
                ]
            )
            == 0
        )
        rows = (out / "sweep" / "alpha_sweep.tsv").read_text().strip().splitlines()
        alphas = [float(r.split("\t")[0]) for r in rows[1:]]
        assert alphas == sorted(alphas) == [0.5, 0.9]
        assert (out / "sweep" / "alpha_sweep.svg").exists()


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["train", "--bogus-flag"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[train]\nnope = 1\n", encoding="utf-8")
        assert main(["train", "--config", str(p)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, bad",
        [
            pytest.param("eval", {"shots": ""}, id="shots ="),
            pytest.param("eval", {"shots": "1,0"}, id="shots = 1,0"),
            pytest.param("eval", {"trials": "0"}, id="trials = 0"),
            pytest.param(
                "occlusion", {"ratio_lo": "0.5", "ratio_hi": "0.2"}, id="ratio_lo > ratio_hi"
            ),
            pytest.param("occlusion", {"patch_side": "10"}, id="patch_side = 10 on 16x24"),
            pytest.param("train", {"batch_size": "0"}, id="batch_size = 0"),
            pytest.param("train", {"learning_rate": "-1"}, id="learning_rate = -1"),
            pytest.param("train", {"alpha": "1.5"}, id="alpha = 1.5"),
            pytest.param("train", {"kernel": "2"}, id="kernel = 2"),
            pytest.param("train", {"conv_channels": ""}, id="conv_channels ="),
            pytest.param("train", {"input_side": "40"}, id="input_side = 40"),
            pytest.param("train", {"resize_side": "300"}, id="resize_side = 300"),
            pytest.param("train", {"max_jitter": "5"}, id="max_jitter = 5"),
            pytest.param("dataset", {"identities": "1"}, id="identities = 1"),
            pytest.param("dataset", {"split_fraction": "1.5"}, id="split_fraction = 1.5"),
            pytest.param("eval", {"shots": "1,5"}, id="shots = 1,5 on 4 per identity"),
            pytest.param("occlusion", {"aspect_hi": "inf"}, id="aspect_hi = inf"),
            pytest.param("occlusion", {"aspect_hi": "1e300"}, id="aspect_hi = 1e300"),
            pytest.param("occlusion", {"aspect_lo": "5e-324"}, id="aspect_lo = 5e-324"),
            pytest.param("occlusion", {"probe_band": "0.1"}, id="probe_band = 0.1 on 16x24"),
            pytest.param("dataset", {"image_width": "2"}, id="image_width = 2"),
        ],
    )
    def test_bad_eval_value_fails_before_any_work(self, tmp_path, capsys, section, bad):
        import configparser

        from occreid.model import ArchSpec, ConvSpec, init_params, save_checkpoint

        parser = configparser.ConfigParser()
        parser.read_string(TINY_CONFIG)
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section].update(bad)
        cfg = tmp_path / "bad.ini"
        with cfg.open("w", encoding="utf-8") as f:
            parser.write(f)
        ckpt = tmp_path / "c.bin"
        arch = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        save_checkpoint(init_params(arch, 2, 0), ckpt)
        out = tmp_path / "out"
        code = main(["eval", "--config", str(cfg), "--out", str(out), "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and f"[{section}] " in err
        assert next(iter(bad)) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("occlusion", "probe_ratio_lo", "0.5"),
            ("occlusion", "probe_ratio_hi", "0.5"),
            ("occlusion", "probe_aspect_lo", "1.0"),
            ("occlusion", "probe_aspect_hi", "1.0"),
            ("train", "lr_decay_factor", "0.5"),
            ("eval", "aggregate", "mean"),
            ("saliency", "quantile", "0.3"),
        ],
    )
    def test_removed_setting_is_unknown(self, tmp_path, capsys, section, key, value):
        setting = f"[{section}]\n{key} = {value}\n"
        text = TINY_CONFIG.replace(f"[{section}]\n", setting)
        cfg = tmp_path / "old.ini"
        cfg.write_text(text if setting in text else text + setting, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        # the whole [saliency] section is gone; the other sections remain
        gone = "section [saliency]" if section == "saliency" else f"key '{key}' in [{section}]"
        assert f"config error: {cfg}: unknown {gone}" in err
        assert not out.exists()

    def test_data_error_missing_checkpoint(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "eval",
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--checkpoint",
                str(tmp_path / "missing.bin"),
            ]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_data_error_non_finite_checkpoint(self, tmp_path, config_path, capsys):
        # inf weights (as a diverged run saves them) would give NaN features
        # and all-zero saliency maps; the loader refuses them, so eval and
        # saliency fail before writing anything
        from occreid.model import ArchSpec, ConvSpec, init_params, save_checkpoint

        arch = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        params = init_params(arch, 2, 0)
        ckpt = tmp_path / "inf.bin"
        save_checkpoint(params, ckpt)
        # save_checkpoint refuses non-finite weights, so write +inf over
        # conv0.w, the first tensor after the header, by hand
        data = bytearray(ckpt.read_bytes())
        header = len(data) - 4 * sum(arr.size for _, arr in params.tensors())
        size = params.conv_w[0].size
        data[header : header + 4 * size] = np.full(size, np.inf, "<f4").tobytes()
        ckpt.write_bytes(bytes(data))
        for command in ("eval", "saliency"):
            out = tmp_path / command
            args = ["--config", str(config_path), "--out", str(out), "--checkpoint", str(ckpt)]
            assert main([command, *args]) == 2
            err = capsys.readouterr().err
            assert "data error" in err and "conv0.w" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra, code",
        [
            ("eval", ["--checkpoint", "{missing}"], 2),
            ("saliency", ["--checkpoint", "{missing}"], 2),
            ("saliency", ["--checkpoint", "{valid}", "--compare", "{missing}"], 2),
            ("sweep-alpha", ["--alphas", "0.5,2.0"], 1),
            ("eval", ["--checkpoint", "{gray}"], 2),  # fails at the first forward
            ("saliency", ["--checkpoint", "{valid}", "--compare", "{gray}"], 2),
            ("sweep-alpha", ["--alphas", ","], 1),
        ],
    )
    def test_failing_command_writes_nothing(self, tmp_path, config_path, capsys, command, extra, code):
        import dataclasses

        from occreid.model import ArchSpec, ConvSpec, init_params, save_checkpoint

        valid, gray = tmp_path / "valid.bin", tmp_path / "gray.bin"
        arch = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        save_checkpoint(init_params(arch, 2, 0), valid)
        save_checkpoint(init_params(dataclasses.replace(arch, in_channels=1), 2, 0), gray)
        paths = {"missing": tmp_path / "nope.bin", "valid": valid, "gray": gray}
        out = tmp_path / "out"
        args = [command, "--config", str(config_path), "--out", str(out)]
        assert main(args + [a.format(**paths) for a in extra]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["train", "report", "simulate", "sweep-alpha"])
    def test_patch_outside_scanned_images_band_writes_nothing(self, tmp_path, capsys, command):
        # on-disk image sizes are known only after the scan: the 16x24 images
        # have a 16x6 background band, too small for a 10-pixel patch
        root = tmp_path / "data"
        for s in generate_synthetic_dataset(4, 4, 16, 24, SplitMix64(8)):
            for branch in ("whole", "occluded"):
                p = root / branch / f"{s.identity:03d}"
                p.mkdir(parents=True, exist_ok=True)
                save_image(s.image, p / f"{s.id}.ppm")
        cfg = tmp_path / "cfg.ini"
        text = TINY_CONFIG.replace("[dataset]", f"[dataset]\nroot = {root}")
        cfg.write_text(text.replace("patch_side = 6", "patch_side = 10"), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "patch_side 10" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "train", "eval"])
    def test_band_no_scanned_image_holds_is_a_config_error(self, tmp_path, capsys, command):
        # the image size of a scanned dataset is known only after the scan;
        # the band is checked against it there, before any draw or write
        root = tmp_path / "data"
        for s in generate_synthetic_dataset(4, 4, 16, 24, SplitMix64(8)):
            p = root / "whole" / f"{s.identity:03d}"
            p.mkdir(parents=True, exist_ok=True)
            save_image(s.image, p / f"{s.id}.ppm")
        (root / "occluded").mkdir()
        cfg = tmp_path / "cfg.ini"
        text = TINY_CONFIG.replace("[dataset]", f"[dataset]\nroot = {root}")
        cfg.write_text(text.replace("patch_side = 6", "patch_side = 6\naspect_hi = 1e300"), "utf-8")
        out = tmp_path / "out"
        args = [command, "--config", str(cfg), "--out", str(out)]
        if command == "eval":
            from occreid.model import ArchSpec, ConvSpec, init_params, save_checkpoint

            arch = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2),))
            save_checkpoint(init_params(arch, 2, 0), tmp_path / "c.bin")
            args += ["--checkpoint", str(tmp_path / "c.bin")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "config error: [occlusion] aspect_hi 1e+300" in err and "16x24 image" in err
        assert str(sorted(root.glob("whole/*/*.ppm"))[0]) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "report", "sweep-alpha"])
    def test_gray_image_among_colour_training_images_writes_nothing(self, tmp_path, capsys, command):
        # one whole/ image of a training identity is a 1-channel PGM
        from occreid.config import load_config
        from occreid.pipeline import prepare_experiment

        root = tmp_path / "data"
        for s in generate_synthetic_dataset(4, 4, 16, 24, SplitMix64(8)):
            for branch in ("whole", "occluded"):
                p = root / branch / f"{s.identity:03d}"
                p.mkdir(parents=True, exist_ok=True)
                save_image(s.image, p / f"{s.id}.ppm")
        cfg = _scanned_ini(root, tmp_path / "cfg.ini")
        ident = min(prepare_experiment(load_config(cfg)).split.train_identities)
        victim = sorted(root.glob(f"whole/{ident:03d}/*.ppm"))[0]
        victim.unlink()
        save_image(Image(np.zeros((24, 16), np.uint8)), victim.with_suffix(".pgm"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and victim.with_suffix(".pgm").name in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "eval", "sweep-alpha", "saliency", "report"])
    def test_ablation_switches_only_on_train(self, tmp_path, config_path, capsys, command):
        out = tmp_path / "out"
        args = [command, "--config", str(config_path), "--out", str(out), "--no-os"]
        if command in ("eval", "saliency"):
            args += ["--checkpoint", str(tmp_path / "c.bin")]
        assert main(args) == 1
        assert "unrecognized arguments: --no-os" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_failure_float32_overflow(self, tmp_path, capsys):
        # the default config at this rate leaves the float32 range within a
        # few steps; training checks gradients and weights after every step,
        # so the run stops there, naming the dtype, before anything is written;
        # the overflow on the way there raises no numpy RuntimeWarning
        cfg = tmp_path / "diverge.ini"
        cfg.write_text("[train]\nlearning_rate = 1e6\niterations = 50\n", encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "numeric failure" in err and "float32" in err
        assert not (out / "train" / "checkpoint.bin").exists()
        assert not (out / "train").exists() or not any((out / "train").iterdir())

    def test_env_var_out_dir(self, tmp_path, config_path, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("OCCREID_OUT", str(env_out))
        assert main(["simulate", "--config", str(config_path)]) == 0
        assert (env_out / "simulate" / "manifest.tsv").exists()

    def test_flag_overrides_env(self, tmp_path, config_path, monkeypatch):
        monkeypatch.setenv("OCCREID_OUT", str(tmp_path / "env_out"))
        flag_out = tmp_path / "flag_out"
        assert main(["simulate", "--config", str(config_path), "--out", str(flag_out)]) == 0
        assert (flag_out / "simulate" / "manifest.tsv").exists()
        assert not (tmp_path / "env_out").exists()


def _corruptions(valid: bytes, header: list, field):
    """Truncations of `valid`, one header token replaced, and random tails.

    `header` lists the (start, end) byte spans of the header tokens;
    `field` draws a replacement for a token."""
    truncated = st.integers(0, len(valid) - 1).map(lambda k: valid[:k])

    def flip(args):
        (start, end), token = args
        return valid[:start] + token + valid[end:]

    flipped = st.tuples(st.sampled_from(header), field).map(flip)
    tailed = st.tuples(st.integers(0, len(valid)), st.binary(max_size=64)).map(
        lambda a: valid[: a[0]] + a[1]
    )
    return st.one_of(truncated, flipped, tailed)


def _run_contained(argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _ppm_header_spans(data: bytes) -> list:
    return [m.span() for m in re.finditer(rb"\S+", data[: data.index(b"255\n") + 3])]


_TOKENS = st.one_of(
    st.sampled_from(b"P5 P6 P3 0 -1 1 255 256 65535 1e3 #".split()),
    st.integers(0, 2**24).map(lambda v: str(v).encode()),
    st.binary(min_size=1, max_size=4),
)


def _scanned_ini(root, path):
    path.write_text(TINY_CONFIG.replace("[dataset]", f"[dataset]\nroot = {root}"), "utf-8")
    return path


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """A tiny scanned dataset, a valid checkpoint for it and both configs."""
    from occreid.model import ArchSpec, ConvSpec, init_params, save_checkpoint

    base = tmp_path_factory.mktemp("contract")
    root = base / "data"
    for s in generate_synthetic_dataset(4, 3, 16, 24, SplitMix64(8)):
        for branch in ("whole", "occluded"):
            p = root / branch / f"{s.identity:03d}"
            p.mkdir(parents=True, exist_ok=True)
            save_image(s.image, p / f"{s.id}.ppm")
    scanned = _scanned_ini(root, base / "scanned.ini")
    synthetic = base / "synthetic.ini"
    synthetic.write_text(TINY_CONFIG, encoding="utf-8")
    ckpt = base / "c.bin"
    arch = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2),))
    save_checkpoint(init_params(arch, 2, 0), ckpt)
    return {"root": root, "scanned": scanned, "synthetic": synthetic, "ckpt": ckpt}


class TestCorruptInputContract:
    """Corrupted image or checkpoint bytes end in a documented exit code,
    never in a traceback. The config is valid, so only 0 (the damage left
    a usable file), 2 (data error) or 3 (numeric failure) are correct; 1
    would report the data fault as a config error."""

    _VALID_PPM = b"P6\n16 24\n255\n" + bytes(range(256)) * 4 + bytes(16 * 24 * 3 - 1024)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=_corruptions(_VALID_PPM, _ppm_header_spans(_VALID_PPM), _TOKENS),
           command=st.sampled_from(["eval", "simulate"]))
    def test_corrupted_ppm(self, contract_inputs, data, command):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(shutil.copytree(contract_inputs["root"], f"{tmp}/data"))
            sorted(root.glob("whole/001/*.ppm"))[0].write_bytes(data)
            cfg = _scanned_ini(root, Path(tmp) / "cfg.ini")
            argv = [command, "--config", str(cfg), "--out", f"{tmp}/out"]
            if command == "eval":
                argv += ["--checkpoint", str(contract_inputs["ckpt"])]
            code, err = _run_contained(argv)
        assert code in (0, 2, 3), err
        assert "Traceback" not in err

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_corrupted_checkpoint(self, contract_inputs, data):
        valid = contract_inputs["ckpt"].read_bytes()
        # magic, four geometry fields, one conv's three fields, the class count
        spans = [(0, 8)] + [(8 + 4 * i, 12 + 4 * i) for i in range(8)]
        field = st.one_of(
            st.integers(0, 2**32 - 1).map(lambda v: v.to_bytes(4, "little")),
            st.binary(min_size=4, max_size=4),
        )
        corrupt = data.draw(_corruptions(valid, spans, field))
        cfg = contract_inputs[data.draw(st.sampled_from(["synthetic", "scanned"]))]
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "c.bin"
            ckpt.write_bytes(corrupt)
            argv = ["--config", str(cfg), "--out", f"{tmp}/out", "--checkpoint", str(ckpt)]
            for command in ("eval", "saliency"):
                code, err = _run_contained([command, *argv])
                assert code in (0, 2, 3), err
                assert "Traceback" not in err


_INI_SECTIONS = {
    name: [f.name for f in dataclasses.fields(section)]
    for name, section in vars(ExperimentConfig()).items()
}
# ints stay at or below 16, so identities x per_identity x image size keeps
# every simulate run small
_INI_TOKENS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "1e-320", "0.5", "-0.5", "1.5"]),
    st.sampled_from(["true", "off", "maybe", "1,2", "1,,2", ",", "%", "%%", "2 ; note"]),
    st.integers(-3, 16).map(str),
    _real(-2.0, 2.0),
    st.lists(st.integers(-1, 9), min_size=1, max_size=4).map(lambda v: ",".join(map(str, v))),
)


@st.composite
def _ini_texts(draw):
    """INI text over the known sections and keys with random values, some
    unknown sections and keys, repeated keys and sections, and sometimes a
    line before the first section header."""
    lines = []
    if draw(st.integers(0, 9)) == 0:
        lines.append(f"seed = {draw(_INI_TOKENS)}")
    names = st.sampled_from(list(_INI_SECTIONS) * 4 + ["extra", "Train", "DEFAULT"])
    for name in draw(st.lists(names, min_size=1, max_size=3)):
        lines.append(f"[{name}]")
        keys = st.sampled_from(_INI_SECTIONS.get(name, ["seed", "alpha"]) * 4 + ["nope"])
        lines += [f"{key} = {draw(_INI_TOKENS)}" for key in draw(st.lists(keys, max_size=3))]
    return "\n".join(lines) + "\n"


class TestConfigContract:
    """Any INI text ends `simulate` in a documented exit code, never in a
    traceback; exit 1 (config error) exactly when load_config rejects it."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(text=_ini_texts())
    def test_random_ini(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.ini"
            cfg.write_text(text, encoding="utf-8")
            try:
                load_config(cfg)
                accepted = True
            except ValueError:
                accepted = False
            code, err = _run_contained(["simulate", "--config", str(cfg), "--out", f"{tmp}/out"])
        assert code in (0, 1, 2), err
        assert (code == 1) == (not accepted), err  # a bad config fails at load, nowhere else
        assert "Traceback" not in err
