import numpy as np
import pytest

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

    def test_bad_value_reported_with_location(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[eval]\ntrials = often\n", encoding="utf-8")
        with pytest.raises(ValueError, match="trials"):
            load_config(p)


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

    @pytest.mark.parametrize("bad", ["shots =", "shots = 1,0", "aggregate = median", "trials = 0"])
    def test_bad_eval_value_fails_before_any_work(self, tmp_path, capsys, bad):
        from occreid.model import ArchSpec, ConvSpec, init_params, save_checkpoint

        key = bad.split()[0]
        lines = [line for line in TINY_CONFIG.splitlines() if not line.startswith(f"{key} =")]
        cfg = tmp_path / "bad.ini"
        cfg.write_text("\n".join(lines).replace("[eval]", f"[eval]\n{bad}"), encoding="utf-8")
        ckpt = tmp_path / "c.bin"
        arch = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        save_checkpoint(init_params(arch, 2, 0), ckpt)
        out = tmp_path / "out"
        code = main(["eval", "--config", str(cfg), "--out", str(out), "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and f"[eval] {key}" in err
        assert "Traceback" not in err
        assert not (out / "eval" / "summary.tsv").exists()

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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_data_error_non_finite_checkpoint(self, tmp_path, config_path, capsys):
        # inf weights (as a diverged run saves them) give NaN features; eval
        # must fail instead of ranking NaN scores as perfect matches
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
        out = tmp_path / "out"
        args = ["eval", "--config", str(config_path), "--out", str(out), "--checkpoint", str(ckpt)]
        assert main(args) == 2
        assert "data error" in capsys.readouterr().err
        assert not (out / "eval" / "summary.tsv").exists()

    @pytest.mark.parametrize(
        "command, extra, code",
        [
            ("eval", ["--checkpoint", "{missing}"], 2),
            ("saliency", ["--checkpoint", "{missing}"], 2),
            ("saliency", ["--checkpoint", "{valid}", "--compare", "{missing}"], 2),
            ("sweep-alpha", ["--alphas", "0.5,2.0"], 1),
        ],
    )
    def test_failing_command_writes_nothing(self, tmp_path, config_path, capsys, command, extra, code):
        from occreid.model import ArchSpec, ConvSpec, init_params, save_checkpoint

        valid = tmp_path / "valid.bin"
        arch = ArchSpec(input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2),))
        save_checkpoint(init_params(arch, 2, 0), valid)
        paths = {"missing": tmp_path / "nope.bin", "valid": valid}
        out = tmp_path / "out"
        args = [command, "--config", str(config_path), "--out", str(out)]
        assert main(args + [a.format(**paths) for a in extra]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_numeric_failure_float32_overflow(self, tmp_path, capsys):
        # the default config at this rate keeps finite float64 gradients but
        # drives a bias past the float32 range; train must not save it as inf
        cfg = tmp_path / "diverge.ini"
        cfg.write_text("[train]\nlearning_rate = 1e6\niterations = 50\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "float32" in err
        assert not (out / "train" / "checkpoint.bin").exists()

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
