import re
from pathlib import Path

import numpy as np
import pytest

import occreid.pipeline as pipeline
from occreid.config import ExperimentConfig
from occreid.dataset import Occlusion
from occreid.model import load_checkpoint, save_checkpoint, train
from occreid.pipeline import (
    TAG_OS,
    TAG_PROBE,
    prepare_experiment,
    run_saliency,
    train_model,
)
from occreid.rng import derive_seed


def tiny_cfg(**run_overrides):
    cfg = ExperimentConfig()
    cfg.dataset.identities = 4
    cfg.dataset.per_identity = 4
    cfg.dataset.image_width = 16
    cfg.dataset.image_height = 24
    cfg.occlusion.patch_side = 6
    cfg.train.iterations = 20
    cfg.train.batch_size = 8
    cfg.train.input_side = 12
    cfg.train.resize_side = 14
    cfg.train.conv_channels = (4, 8)
    cfg.train.learning_rate = 0.02
    cfg.eval.shots = (1,)
    cfg.eval.trials = 2
    cfg.run.seed = 13
    for k, v in run_overrides.items():
        setattr(cfg.run, k, v)
    return cfg


class TestPrepareExperiment:
    def test_synthetic_probes_added_for_test_identities(self):
        cfg = tiny_cfg()
        data = prepare_experiment(cfg)
        probes = [s for s in data.test_samples if s.occlusion is Occlusion.ARTIFICIAL]
        fulls = [s for s in data.test_samples if s.occlusion is Occlusion.FULL_BODY]
        assert len(probes) == len(fulls) == 2 * 4  # half the identities
        assert {s.identity for s in probes} == data.split.test_identities

    def test_train_set_is_full_body_train_identities_only(self):
        cfg = tiny_cfg()
        data = prepare_experiment(cfg)
        assert all(s.occlusion is Occlusion.FULL_BODY for s in data.train_full)
        assert {s.identity for s in data.train_full} == data.split.train_identities

    def test_probe_stream_held_out_from_training_stream(self):
        cfg = tiny_cfg()
        probe_seed = derive_seed(cfg.run.seed, TAG_PROBE)
        os_seed = derive_seed(cfg.run.seed, pipeline.TAG_OS)
        assert probe_seed != os_seed

    def test_no_probe_synthesis_when_real_occlusions_exist(self, tmp_path):
        from occreid.dataset import generate_synthetic_dataset
        from occreid.imaging import save_image
        from occreid.rng import SplitMix64

        samples = generate_synthetic_dataset(4, 4, 16, 24, SplitMix64(3))
        for s in samples:
            for branch in ("whole", "occluded"):
                d = tmp_path / branch / f"{s.identity:03d}"
                d.mkdir(parents=True, exist_ok=True)
                save_image(s.image, d / f"{s.id}.ppm")
        cfg = tiny_cfg()
        cfg.dataset.root = str(tmp_path)
        data = prepare_experiment(cfg)
        assert not any(s.occlusion is Occlusion.ARTIFICIAL for s in data.test_samples)
        assert any(s.occlusion is Occlusion.REAL for s in data.test_samples)


class TestTrainModelSwitches:
    def test_no_os_trains_on_full_body_only(self, monkeypatch):
        seen = {}
        original = train

        def spy(samples, cfg, seed, occlusions=None):
            seen["n"] = len(samples)
            seen["flags"] = {s.occlusion for s in samples}
            return original(samples, cfg, seed, occlusions)

        monkeypatch.setattr(pipeline, "train", spy)
        cfg = tiny_cfg(use_os=False)
        train_model(cfg)
        assert seen["n"] == 8  # 2 train identities x 4 images
        assert seen["flags"] == {Occlusion.FULL_BODY}

    def test_os_doubles_training_set(self, monkeypatch):
        seen = {}
        original = train

        def spy(samples, cfg, seed, occlusions=None):
            seen["n"] = len(samples)
            return original(samples, cfg, seed, occlusions)

        monkeypatch.setattr(pipeline, "train", spy)
        train_model(tiny_cfg(use_os=True))
        assert seen["n"] == 16

    def test_no_obc_forces_alpha_one(self, monkeypatch):
        seen = {}
        original = train

        def spy(samples, cfg, seed, occlusions=None):
            seen["alpha"] = cfg.alpha
            return original(samples, cfg, seed, occlusions)

        monkeypatch.setattr(pipeline, "train", spy)
        train_model(tiny_cfg(use_obc=False))
        assert seen["alpha"] == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_warning_follows_the_configured_alpha(self, alpha):
        # a configured alpha of 0 or 1 warns; the alpha of 1 that
        # use_obc = false forces does not
        import warnings

        cfg = tiny_cfg()
        cfg.train.iterations = 1
        cfg.train.alpha = alpha
        with pytest.warns(UserWarning, match=re.escape(f"[train] alpha = {alpha} ")) as caught:
            train_model(cfg)
        # the reported location is the caller's source line, not generated code
        assert [Path(w.filename).suffix for w in caught] == [".py"]
        cfg.run.use_obc = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_model(cfg)

    def test_report_and_sweep_warn_per_training_at_alpha_0_or_1(self, tmp_path):
        # report: only the two regimes with the OBC loss on train with the
        # configured alpha; sweep: one advisory per such --alphas value
        import warnings

        cfg = tiny_cfg()
        cfg.train.iterations = 1
        cfg.train.alpha = 1.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pipeline.run_ablation(cfg, tmp_path / "report")
            pipeline.run_alpha_sweep(cfg, [0.0, 0.5, 1.0], tmp_path / "sweep")
        messages = [str(w.message).split(" disables")[0] for w in caught]
        assert messages == ["[train] alpha = 1.0"] * 2 + ["[train] alpha = 0.0", "[train] alpha = 1.0"]

    def test_regeneration_rebuilds_occlusions_per_epoch(self, monkeypatch):
        calls = []
        original = pipeline.build_occlusion_set

        def spy(samples, occ_cfg, seed):
            calls.append(seed)
            return original(samples, occ_cfg, seed)

        monkeypatch.setattr(pipeline, "build_occlusion_set", spy)
        cfg = tiny_cfg()
        cfg.occlusion.regenerate_per_epoch = True
        cfg.train.iterations = 6
        cfg.train.batch_size = 8  # combined set is 16 -> epoch length 2
        train_model(cfg)
        # builds: synthetic eval probes, then one per epoch; epochs are
        # ceil(2N / batch_size) iterations from the full-body count N, and
        # later epochs derive fresh streams
        assert len(calls) == 4
        assert calls[1] == derive_seed(cfg.run.seed, TAG_OS)
        assert len(set(calls)) == 4

    def test_regeneration_changes_final_params(self):
        cfg_fixed = tiny_cfg()
        cfg_regen = tiny_cfg()
        cfg_regen.occlusion.regenerate_per_epoch = True
        p_fixed, h_fixed = train_model(cfg_fixed)
        p_regen, h_regen = train_model(cfg_regen)
        assert len(h_fixed) == len(h_regen) == 20
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(p_fixed.tensors.values(), p_regen.tensors.values())
        )


class TestSharedPreparation:
    """The grid and the sweep prepare data once: their switches and alphas
    never reach the data, the split or the probes."""

    @pytest.mark.parametrize(
        "run, table, models",
        [
            (lambda cfg, out: pipeline.run_ablation(cfg, out), "ablation.tsv", 4),
            (lambda cfg, out: pipeline.run_alpha_sweep(cfg, [0.6, 0.9], out), "alpha_sweep.tsv", 2),
        ],
        ids=["ablation", "alpha_sweep"],
    )
    def test_one_preparation_gives_the_per_model_table(
        self, tmp_path, monkeypatch, run, table, models
    ):
        cfg = tiny_cfg()
        cfg.train.iterations = 5
        cfg.occlusion.regenerate_per_epoch = True
        calls = []
        prepare = pipeline.prepare_experiment

        def spy(c):
            calls.append(c)
            return prepare(c)

        monkeypatch.setattr(pipeline, "prepare_experiment", spy)
        run(cfg, tmp_path / "once")
        assert len(calls) == 1
        # reference: every model prepares data from its own config, and is
        # trained and evaluated on it
        train_model, evaluate_model = pipeline.train_model, pipeline.evaluate_model
        own = []

        def train_on_own_data(sub, data):
            own.append(pipeline.prepare_experiment(sub))
            return train_model(sub, own[-1])

        monkeypatch.setattr(pipeline, "train_model", train_on_own_data)
        monkeypatch.setattr(
            pipeline, "evaluate_model", lambda sub, params, data: evaluate_model(sub, params, own[-1])
        )
        run(cfg, tmp_path / "each")
        assert len(calls) == 1 + 1 + models  # the run's own, then one per model
        once = (tmp_path / "once" / table).read_bytes()
        assert once == (tmp_path / "each" / table).read_bytes()


class TestEvalManifests:
    def test_split_and_gallery_manifests_written(self, tmp_path):
        from occreid.pipeline import run_eval, run_train

        cfg = tiny_cfg()
        ckpt = run_train(cfg, tmp_path / "train")
        run_eval(cfg, ckpt, tmp_path / "eval")
        split_rows = (tmp_path / "eval" / "split.tsv").read_text().strip().splitlines()
        roles = {r.split("\t")[1] for r in split_rows[1:]}
        assert roles == {"train", "test"}
        assert len(split_rows) == 1 + 4  # header + one row per identity
        gal = (tmp_path / "eval" / "gallery_n1.tsv").read_text().strip().splitlines()
        body = [r for r in gal if not r.startswith("#")]
        # trials x test identities rows, each carrying the trial seed
        assert len(body) == cfg.eval.trials * 2
        assert all(len(r.split("\t")) == 4 for r in body)
        assert gal[-1].startswith("# probes\t")

    def test_chunked_saliency_matches_single_image_maps(self, tmp_path):
        from occreid.imaging import Image, save_image
        from occreid.model import FORWARD_CHUNK, preprocess_image
        from occreid.pipeline import _safe_name, run_saliency
        from occreid.saliency import saliency_maps

        cfg = tiny_cfg()
        cfg.dataset.per_identity = 6
        data = prepare_experiment(cfg)
        assert len(data.test_samples) > FORWARD_CHUNK  # maps cross a chunk boundary
        params, _ = train_model(cfg, data)
        ckpt = tmp_path / "c.bin"
        save_checkpoint(params, ckpt)
        run_saliency(cfg, ckpt, tmp_path / "out")
        map_dir = tmp_path / "out" / "maps"
        assert len(list(map_dir.glob("*.pgm"))) == len(data.test_samples)
        loaded = load_checkpoint(ckpt)
        single = tmp_path / "single.pgm"
        for s in data.test_samples:
            ((smap,),) = saliency_maps(loaded, [preprocess_image(s.image, loaded.arch)])
            save_image(Image.from_float(smap), single)
            assert (map_dir / f"{_safe_name(s.id)}.pgm").read_bytes() == single.read_bytes(), s.id


class TestArrayPathMatchesImageReference:
    """Evaluation features and saliency precision from the one-array
    preprocessing equal the per-Image preprocess_image path."""

    @staticmethod
    def scanned_cfg(root):
        from occreid.dataset import generate_synthetic_dataset
        from occreid.imaging import Image, save_image
        from occreid.rng import SplitMix64

        for s in generate_synthetic_dataset(4, 4, 16, 24, SplitMix64(6)):
            j = int(s.id.rsplit("_", 1)[1])
            for branch in ("whole", "occluded") if j < 2 else ("whole",):
                d = root / branch / f"{s.identity:03d}"
                d.mkdir(parents=True, exist_ok=True)
                save_image(s.image, d / f"{j}.ppm")
                # strips of 126..129 along two sides keep values on both
                # sides of 127 through the resize, where the re-binarisation
                # decides them
                mask = np.zeros((24, 16), np.uint8)
                mask[10:22, 10:14] = 255
                for k, value in enumerate((126, 127, 128, 129)):
                    mask[:, 2 + 2 * k : 4 + 2 * k] = mask[2 + 2 * k : 4 + 2 * k, :] = value
                save_image(Image(mask), d / f"{j}.mask.pgm")
        cfg = tiny_cfg()
        cfg.dataset.root = str(root)
        return cfg

    def test_eval_and_saliency_precision(self, tmp_path):
        from occreid.evaluate import evaluate
        from occreid.imaging import load_image
        from occreid.model import extract_features, preprocess_image
        from occreid.pipeline import TAG_EVAL, evaluate_model
        from occreid.saliency import binarize, detection_precision, saliency_maps

        cfg = self.scanned_cfg(tmp_path / "data")
        data = prepare_experiment(cfg)
        params, _ = train_model(cfg, data)
        ckpt = tmp_path / "c.bin"
        save_checkpoint(params, ckpt)
        params = load_checkpoint(ckpt)
        arch = params.arch
        prepped = [preprocess_image(s.image, arch) for s in data.test_samples]

        feats = extract_features(params, prepped)
        seed = derive_seed(cfg.run.seed, TAG_EVAL)
        want = evaluate(feats, data.test_samples, (1,), cfg.eval.trials, seed)
        assert evaluate_model(cfg, params, data)[1] == want[1]

        run_saliency(cfg, ckpt, tmp_path / "out")
        rows = (tmp_path / "out" / "precision_model.tsv").read_text().splitlines()
        got = dict(r.split("\t") for r in rows if not r.startswith("#"))
        assert len(got) == len(data.test_samples)
        near = set()
        maps = np.concatenate(list(saliency_maps(params, prepped)))
        for s, smap in zip(data.test_samples, maps, strict=True):
            mask_path = tmp_path / "data" / s.id.replace(".ppm", ".mask.pgm")
            mask = preprocess_image(load_image(mask_path), arch)
            near |= set(np.unique(mask.pixels))
            body = mask.pixels[:, :, 0] > 127
            assert got[s.id] == repr(float(detection_precision(binarize(smap), body))), s.id
        assert {127, 128} <= near


class TestMaskMaxval:
    def test_binary_mask_gives_the_precision_of_its_255_copy(self, tmp_path):
        # the same body rectangle saved at maxval 255 and at maxval 1
        from occreid.dataset import generate_synthetic_dataset
        from occreid.imaging import save_image
        from occreid.rng import SplitMix64

        root = tmp_path / "data"
        body = np.zeros((24, 16, 1), np.uint8)
        body[6:23, 3:13] = 1
        for s in generate_synthetic_dataset(4, 3, 16, 24, SplitMix64(2)):
            j = int(s.id.rsplit("_", 1)[1])
            for branch in ("whole", "occluded") if j < 2 else ("whole",):
                d = root / branch / f"{s.identity:03d}"
                d.mkdir(parents=True, exist_ok=True)
                save_image(s.image, d / f"{j}.ppm")
        cfg = tiny_cfg()
        cfg.dataset.root = str(root)
        ckpt = tmp_path / "c.bin"
        save_checkpoint(train_model(cfg)[0], ckpt)
        tables = []
        for maxval in (255, 1):
            header = b"P5\n16 24\n%d\n" % maxval
            for image in root.rglob("*.ppm"):
                image.with_suffix(".mask.pgm").write_bytes(header + (body * maxval).tobytes())
            summary = run_saliency(cfg, ckpt, tmp_path / f"out{maxval}")
            assert summary["model"]["mean_precision"] > 0.0
            tables.append((tmp_path / f"out{maxval}" / "precision_model.tsv").read_bytes())
        assert tables[0] == tables[1]


class TestSaliencyComparison:
    def test_two_checkpoint_comparison_table(self, tmp_path):
        cfg = tiny_cfg()
        data = prepare_experiment(cfg)
        params, _ = train_model(cfg, data)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(params, a)
        save_checkpoint(params, b)
        # masks require a scanned dataset; without one we get maps-only mode
        summary = run_saliency(cfg, a, tmp_path / "out", compare=b)
        assert set(summary) == {"model", "compare"}
        assert summary["model"]["maps"] == len(data.test_samples)
        assert (tmp_path / "out" / "maps").is_dir()
        assert (tmp_path / "out" / "maps_compare").is_dir()
        assert not (tmp_path / "out" / "precision_comparison.tsv").exists()

    def test_checkpoint_round_trip_preserves_eval(self, tmp_path):
        cfg = tiny_cfg()
        data = prepare_experiment(cfg)
        params, _ = train_model(cfg, data)
        path = tmp_path / "c.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        from occreid.pipeline import evaluate_model

        a = evaluate_model(cfg, loaded, data)
        b = evaluate_model(cfg, loaded, data)
        assert a[1] == b[1]


def _grid_cfg():
    # 12 identities and 30 iterations: every regime, and alpha 0.6 against
    # the default 0.8, give a different CMC at this size
    cfg = tiny_cfg()
    cfg.dataset.identities = 12
    cfg.train.iterations = 30
    cfg.eval.shots = (1, 2)
    cfg.occlusion.regenerate_per_epoch = True
    return cfg


@pytest.fixture(scope="module")
def grid_results(tmp_path_factory):
    return pipeline.run_ablation(_grid_cfg(), tmp_path_factory.mktemp("grid"))


class TestGridMatchesCheckpointPath:
    @pytest.mark.parametrize(
        "name, use_os, use_obc", pipeline._REGIMES, ids=[r[0] for r in pipeline._REGIMES]
    )
    def test_in_memory_eval_matches_the_checkpoint_path(
        self, tmp_path, grid_results, name, use_os, use_obc
    ):
        # the grid evaluates train's float32-exact params as they are; a
        # train command under the regime's switches followed by an eval of
        # its checkpoint must agree
        cfg = _grid_cfg()
        cfg.run.use_os, cfg.run.use_obc = use_os, use_obc
        ckpt = pipeline.run_train(cfg, tmp_path / "train")
        on_disk = pipeline.run_eval(cfg, ckpt, tmp_path / "eval")
        in_memory = grid_results[name]
        assert sorted(in_memory) == sorted(on_disk) == [1, 2]
        for n, rep in in_memory.items():
            other = on_disk[n]
            assert list(rep.cmc) == list(other.cmc), n
            assert (rep.rank1, rep.rank5, rep.rank10) == (other.rank1, other.rank5, other.rank10), n

    def test_a_sweep_point_is_the_full_regime_at_that_alpha(self, tmp_path, grid_results):
        cfg = _grid_cfg()
        full = {cfg.train.alpha: grid_results["full"]}
        cfg.train.alpha = 0.6
        full[0.6] = pipeline.run_ablation(cfg, tmp_path / "grid")["full"]
        sweep = pipeline.run_alpha_sweep(_grid_cfg(), list(full), tmp_path / "sweep")
        assert list(sweep) == sorted(full)
        for a, reports in sweep.items():
            rank1 = {n: r.rank1 for n, r in full[a].items()}
            assert {n: r.rank1 for n, r in reports.items()} == rank1, a
