import re
from pathlib import Path

import numpy as np
import pytest

import occreid.pipeline as pipeline
from occreid.config import ExperimentConfig
from occreid.dataset import (
    Occlusion,
    generate_synthetic_dataset,
    scan_dataset,
    scan_identities,
    split_identities,
)
from occreid.imaging import Image, save_image
from occreid.model import load_checkpoint, save_checkpoint, train
from occreid.occsim import build_occlusion_set
from occreid.pipeline import (
    TAG_OS,
    TAG_PROBE,
    prepare_experiment,
    run_saliency,
    train_model,
)
from occreid.rng import SplitMix64, derive_seed


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



def eager_derivation(cfg):
    """Every sample rendered or scanned, split by their labels, each side
    filtered from them, then the probes: the derivation the lazy sides of
    prepare_experiment must reproduce."""
    ds, seed = cfg.dataset, cfg.run.seed
    if ds.root:
        samples = scan_dataset(ds.root)
    else:
        rng = SplitMix64(derive_seed(seed, pipeline.TAG_DATA))
        samples = generate_synthetic_dataset(
            ds.identities, ds.per_identity, ds.image_width, ds.image_height, rng
        )
    split = split_identities(
        [s.identity for s in samples], ds.split_fraction,
        SplitMix64(derive_seed(seed, pipeline.TAG_SPLIT)),
    )
    train_full = [
        s
        for s in samples
        if s.identity in split.train_identities and s.occlusion is Occlusion.FULL_BODY
    ]
    test_samples = [s for s in samples if s.identity in split.test_identities]
    if not any(s.occlusion is not Occlusion.FULL_BODY for s in test_samples):
        probes, _ = build_occlusion_set(
            test_samples, cfg.occlusion.probe_config(), derive_seed(seed, TAG_PROBE)
        )
        test_samples = test_samples + probes
    return split, train_full, test_samples


def odd_tree(root):
    """A scanned dataset with an identity in occluded/ only (7), an identity
    directory holding only masks (8), non-image entries, and two image
    sizes (identity 3 is 20x32, the rest 16x24)."""
    small = generate_synthetic_dataset(7, 4, 16, 24, SplitMix64(3))
    large = generate_synthetic_dataset(7, 4, 20, 32, SplitMix64(3))
    for s, big in zip(small, large):
        img = big.image if s.identity == 3 else s.image
        branches = ["occluded"] if s.identity == 7 else ["whole"]
        if s.identity == 2 and s.id.endswith(("00", "01")):
            branches.append("occluded")
        for branch in branches:
            d = root / branch / f"{s.identity:03d}"
            d.mkdir(parents=True, exist_ok=True)
            save_image(img, d / f"{s.id}.ppm")
    mask = Image(np.full((24, 16), 255, np.uint8))
    for branch in ("whole", "occluded"):
        d = root / branch / "008"
        d.mkdir(parents=True)
        save_image(mask, d / "a.mask.pgm")
        (root / branch / "notes.txt").write_text("not an identity")
    (root / "whole" / "001" / "readme.txt").write_text("not an image")
    (root / "whole" / "002" / "00.ppm.bak").write_bytes(b"not an image")


class TestLazySides:
    """The split from identity labels and the sides built on first access
    equal the eager derivation in ids, identities, flags, pixels and order."""

    @staticmethod
    def rows(samples):
        return [(s.id, s.identity, s.occlusion) for s in samples]

    def assert_equal(self, cfg):
        split, train_full, test_samples = eager_derivation(cfg)
        data = prepare_experiment(cfg)
        assert data.split == split
        for lazy, eager in ((data.train_full, train_full), (data.test_samples, test_samples)):
            assert self.rows(lazy) == self.rows(eager)
            assert all(np.array_equal(a.image.pixels, b.image.pixels) for a, b in zip(lazy, eager))

    @pytest.mark.parametrize("seed", range(4))
    def test_synthetic(self, seed):
        cfg = tiny_cfg(seed=seed)
        cfg.dataset.identities = 7
        self.assert_equal(cfg)

    @pytest.mark.parametrize("seed", range(6))
    def test_scanned(self, tmp_path, seed):
        odd_tree(tmp_path)
        cfg = tiny_cfg(seed=seed)
        cfg.dataset.root = str(tmp_path)
        assert scan_identities(tmp_path) == list(range(1, 8))  # 8 holds only masks
        self.assert_equal(cfg)



def spy_renders(monkeypatch):
    """A list that gets one entry per person the synthetic generator renders."""
    import occreid.dataset as dataset

    rendered, real = [], dataset._render_person
    monkeypatch.setattr(
        dataset, "_render_person", lambda *a: rendered.append(a[:2]) or real(*a)
    )
    return rendered


def spy_decodes(monkeypatch):
    """A list of every path imaging.load_image opens, through any binding."""
    import sys

    import occreid.imaging as imaging

    opened, real = [], imaging.load_image

    def spy(path):
        opened.append(Path(path))
        return real(path)

    for name, module in list(sys.modules.items()):
        if name.startswith("occreid") and getattr(module, "load_image", None) is real:
            monkeypatch.setattr(module, "load_image", spy)
    return opened


def masked_tree(root):
    """4 identities of 4 whole/ and 2 occluded/ 16x24 images, each with a mask."""
    mask = Image(np.full((24, 16), 255, np.uint8))
    for s in generate_synthetic_dataset(4, 4, 16, 24, SplitMix64(3)):
        for branch in ("whole", "occluded") if s.id.endswith(("00", "01")) else ("whole",):
            d = root / branch / f"{s.identity:03d}"
            d.mkdir(parents=True, exist_ok=True)
            save_image(s.image, d / f"{s.id}.ppm")
            save_image(mask, d / f"{s.id}.mask.pgm")


class TestEachCommandReadsItsSide:
    """Each command renders or decodes only the identities and branches it
    reads (tiny_cfg: 4 identities, 2 of them test identities)."""

    def test_eval_renders_the_test_identities(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        [(params, _)] = train_model([cfg], prepare_experiment(cfg))
        save_checkpoint(params, tmp_path / "c.bin")
        rendered = spy_renders(monkeypatch)
        pipeline.run_eval(cfg, tmp_path / "c.bin", tmp_path / "eval")
        assert len(rendered) == 2 * cfg.dataset.per_identity

    def test_train_renders_the_train_identities_and_no_probes(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        rendered = spy_renders(monkeypatch)
        built, real = [], pipeline.build_occlusion_set
        monkeypatch.setattr(
            pipeline, "build_occlusion_set", lambda *a: built.append(a[0]) or real(*a)
        )
        pipeline.run_train(cfg, tmp_path / "train")
        train_ids = prepare_experiment(cfg).split.train_identities
        assert len(rendered) == 2 * cfg.dataset.per_identity
        assert len(built) == 1  # the training set's occluded copies, no probe set
        assert {s.identity for s in built[0]} == train_ids

    def test_ablation_renders_every_identity_once(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        cfg.train.iterations = 2
        rendered = spy_renders(monkeypatch)
        pipeline.run_ablation(cfg, tmp_path / "report")
        assert len(rendered) == 4 * cfg.dataset.per_identity

    def test_simulate_decodes_whole_only(self, tmp_path, monkeypatch):
        masked_tree(tmp_path / "data")
        cfg = tiny_cfg()
        cfg.dataset.root = str(tmp_path / "data")
        opened = spy_decodes(monkeypatch)
        pipeline.run_simulate(cfg, tmp_path / "sim")
        assert opened == sorted((tmp_path / "data").glob("whole/*/*.ppm"))

    def test_saliency_decodes_the_test_identities_and_their_masks(self, tmp_path, monkeypatch):
        root = tmp_path / "data"
        masked_tree(root)
        cfg = tiny_cfg()
        cfg.dataset.root = str(root)
        [(params, _)] = train_model([cfg], prepare_experiment(cfg))
        save_checkpoint(params, tmp_path / "c.bin")
        opened = spy_decodes(monkeypatch)
        run_saliency(cfg, tmp_path / "c.bin", tmp_path / "sal")
        test_ids = prepare_experiment(cfg).split.test_identities
        images = [p for p in sorted(root.glob("*/*/*.ppm")) if int(p.parent.name) in test_ids]
        assert opened == images + [p.with_suffix(".mask.pgm") for p in images]


class TestTrainModelSwitches:
    def test_no_os_trains_on_full_body_only(self, monkeypatch):
        seen = {}
        original = train

        def spy(samples, cfgs, seed, occlusions=None):
            seen["n"] = len(samples)
            seen["flags"] = {s.occlusion for s in samples}
            return original(samples, cfgs, seed, occlusions)

        monkeypatch.setattr(pipeline, "train", spy)
        cfg = tiny_cfg(use_os=False)
        train_model([cfg], prepare_experiment(cfg))
        assert seen["n"] == 8  # 2 train identities x 4 images
        assert seen["flags"] == {Occlusion.FULL_BODY}

    def test_os_doubles_training_set(self, monkeypatch):
        seen = {}
        original = train

        def spy(samples, cfgs, seed, occlusions=None):
            seen["n"] = len(samples)
            return original(samples, cfgs, seed, occlusions)

        monkeypatch.setattr(pipeline, "train", spy)
        cfg = tiny_cfg(use_os=True)
        train_model([cfg], prepare_experiment(cfg))
        assert seen["n"] == 16

    def test_no_obc_forces_alpha_one(self, monkeypatch):
        seen = {}
        original = train

        def spy(samples, cfgs, seed, occlusions=None):
            seen["alpha"] = [c.alpha for c in cfgs]
            return original(samples, cfgs, seed, occlusions)

        monkeypatch.setattr(pipeline, "train", spy)
        cfg = tiny_cfg(use_obc=False)
        train_model([cfg], prepare_experiment(cfg))
        assert seen["alpha"] == [1.0]

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_warning_follows_the_configured_alpha(self, alpha):
        # a configured alpha of 0 or 1 warns; the alpha of 1 that
        # use_obc = false forces does not
        import warnings

        cfg = tiny_cfg()
        cfg.train.iterations = 1
        cfg.train.alpha = alpha
        with pytest.warns(UserWarning, match=re.escape(f"[train] alpha = {alpha} ")) as caught:
            train_model([cfg], prepare_experiment(cfg))
        # the reported location is the caller's source line, not generated code
        assert [Path(w.filename).suffix for w in caught] == [".py"]
        cfg.run.use_obc = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_model([cfg], prepare_experiment(cfg))

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
        train_model([cfg], prepare_experiment(cfg))
        # one build per epoch, and none for the probes, which training
        # never reads; epochs are ceil(2N / batch_size) iterations from the
        # full-body count N, and later epochs derive fresh streams
        assert len(calls) == 3
        assert calls[0] == derive_seed(cfg.run.seed, TAG_OS)
        assert len(set(calls)) == 3

    def test_regeneration_changes_final_params(self):
        cfg_fixed = tiny_cfg()
        cfg_regen = tiny_cfg()
        cfg_regen.occlusion.regenerate_per_epoch = True
        [(p_fixed, h_fixed)] = train_model([cfg_fixed], prepare_experiment(cfg_fixed))
        [(p_regen, h_regen)] = train_model([cfg_regen], prepare_experiment(cfg_regen))
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
        # trained alone and evaluated on it
        train_model, evaluate_model = pipeline.train_model, pipeline.evaluate_model
        own = []

        def train_on_own_data(variants, data):
            trained = []
            for sub in variants:
                own.append(pipeline.prepare_experiment(sub))
                trained += train_model([sub], own[-1])
            return trained

        def evaluate_on_own_data(cfg, params_list, data):
            return [evaluate_model(cfg, [p], d)[0] for p, d in zip(params_list, own)]

        monkeypatch.setattr(pipeline, "train_model", train_on_own_data)
        monkeypatch.setattr(pipeline, "evaluate_model", evaluate_on_own_data)
        run(cfg, tmp_path / "each")
        assert len(calls) == 1 + 1 + models  # the run's own, then one per model
        once = (tmp_path / "once" / table).read_bytes()
        assert once == (tmp_path / "each" / table).read_bytes()


class TestLockstepGrid:
    """Variants that differ only in effective alpha train as one group on
    one batch stream, and the grid's models share one preprocessed test set."""

    def test_work_is_done_once_per_group_and_grid(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        cfg.occlusion.regenerate_per_epoch = True
        cfg.train.iterations = 6  # combined set of 16, batch 8: three epochs of 2
        calls = {"train": [], "build_occlusion_set": [], "preprocess_images": []}

        def spy(name):
            real = getattr(pipeline, name)

            def wrapped(*args):
                calls[name].append(args)
                return real(*args)

            monkeypatch.setattr(pipeline, name, wrapped)

        for name in calls:
            spy(name)
        os_seed = derive_seed(cfg.run.seed, TAG_OS)
        built = [derive_seed(cfg.run.seed, TAG_PROBE), os_seed]
        built += [derive_seed(os_seed, e) for e in (1, 2)]
        pipeline.run_ablation(cfg, tmp_path / "report")
        # [baseline, obc_only], then [os_only, full]
        assert [[c.alpha for c in a[1]] for a in calls["train"]] == [[1.0, 0.8], [1.0, 0.8]]
        assert [a[2] for a in calls["build_occlusion_set"]] == built
        assert len(calls["preprocess_images"]) == 1
        for name in calls:
            calls[name].clear()
        pipeline.run_alpha_sweep(cfg, [0.9, 0.3, 0.6], tmp_path / "sweep")
        assert [[c.alpha for c in a[1]] for a in calls["train"]] == [[0.3, 0.6, 0.9]]
        assert [a[2] for a in calls["build_occlusion_set"]] == built
        assert len(calls["preprocess_images"]) == 1

    def test_a_mixed_list_trains_a_group_per_key_in_first_variant_order(self, monkeypatch):
        on, off, other = tiny_cfg(use_os=True), tiny_cfg(use_os=False), tiny_cfg(use_os=True)
        other.train.alpha = 0.6
        groups, real = [], pipeline.train

        def spy(samples, cfgs, seed, occlusions=None):
            groups.append((len(samples), [c.alpha for c in cfgs]))
            return real(samples, cfgs, seed, occlusions)

        monkeypatch.setattr(pipeline, "train", spy)
        trained = train_model([on, off, other], prepare_experiment(on))
        # [on, other] on the combined set of 16, then [off] on the 8 full-body images
        assert groups == [(16, [0.8, 0.6]), (8, [0.8])]
        for variant, (params, history) in zip([on, off, other], trained):
            [(alone, alone_history)] = train_model([variant], prepare_experiment(variant))
            assert history == alone_history
            for name, tensor in params.tensors.items():
                np.testing.assert_array_equal(tensor, alone.tensors[name])

    def test_every_group_trains_before_the_first_failure_in_variant_order(
        self, tmp_path, monkeypatch
    ):
        # baseline (variant 0, first group) fails at iteration 2 and full
        # (variant 3, second group) at iteration 1: the second group still
        # trains, baseline's failure is raised, and nothing is written
        import occreid.model as model
        from occreid.errors import NonFiniteGradient

        cfg = tiny_cfg()
        cfg.train.iterations = 8
        real_train, real_step = pipeline.train, model.sgd_step
        groups, steps = [], {}

        def spy_train(samples, cfgs, seed, occlusions=None):
            groups.append([c.alpha for c in cfgs])
            return real_train(samples, cfgs, seed, occlusions)

        def failing_step(params, grads, lr):
            member = (len(groups) - 1, bool(np.any(grads["obc.w"])))
            steps[member] = steps.get(member, 0) + 1
            if member == (0, False) and steps[member] == 3:
                raise NonFiniteGradient("baseline blew up")
            if member == (1, True) and steps[member] == 2:
                raise NonFiniteGradient("full blew up")
            return real_step(params, grads, lr)

        monkeypatch.setattr(pipeline, "train", spy_train)
        monkeypatch.setattr(model, "sgd_step", failing_step)
        with pytest.raises(NonFiniteGradient, match=r"^iteration 2: baseline blew up$"):
            pipeline.run_ablation(cfg, tmp_path / "report")
        assert groups == [[1.0, 0.8], [1.0, 0.8]]
        assert steps == {(0, False): 3, (0, True): 8, (1, False): 8, (1, True): 2}
        assert not (tmp_path / "report").exists()

    def test_grid_raises_the_failure_the_serial_loop_meets_first(
        self, tmp_path, monkeypatch, capsys
    ):
        # obc_only, a later variant in the first group, fails at iteration 2;
        # os_only, an earlier variant in the second group, fails at iteration
        # 5. os_only's failure is the first in variant order, so it is the
        # one raised (as a variant-by-variant loop would), and nothing is
        # written.
        import occreid.model as model
        from occreid.cli import main
        from occreid.config import render_config
        from occreid.errors import NonFiniteGradient

        cfg = tiny_cfg()
        cfg.train.iterations = 8
        path = tmp_path / "cfg.ini"
        path.write_text(render_config(cfg), encoding="utf-8")
        real_train, real_step = pipeline.train, model.sgd_step
        groups, steps = [], {}

        def spy_train(samples, cfgs, seed, occlusions=None):
            groups.append([c.alpha for c in cfgs])
            return real_train(samples, cfgs, seed, occlusions)

        def failing_step(params, grads, lr):
            # (group, OBC loss on): the OBC head has a gradient only in
            # obc_only and full
            member = (len(groups) - 1, bool(np.any(grads["obc.w"])))
            steps[member] = steps.get(member, 0) + 1
            if member == (0, True) and steps[member] == 3:
                raise NonFiniteGradient("obc_only blew up")
            if member == (1, False) and steps[member] == 6:
                raise NonFiniteGradient("os_only blew up")
            return real_step(params, grads, lr)

        monkeypatch.setattr(pipeline, "train", spy_train)
        monkeypatch.setattr(model, "sgd_step", failing_step)
        with pytest.raises(NonFiniteGradient, match=r"^iteration 5: os_only blew up$"):
            pipeline.run_ablation(cfg, tmp_path / "direct")
        assert groups == [[1.0, 0.8], [1.0, 0.8]]
        assert steps[0, True] == 3 and steps[0, False] == 8  # baseline carried on
        groups.clear()
        steps.clear()
        out = tmp_path / "out"
        assert main(["report", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numeric failure: iteration 5: os_only blew up" in err and "Traceback" not in err
        assert not (tmp_path / "direct").exists() and not out.exists()


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
        [(params, _)] = train_model([cfg], data)
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
        [(params, _)] = train_model([cfg], data)
        ckpt = tmp_path / "c.bin"
        save_checkpoint(params, ckpt)
        params = load_checkpoint(ckpt)
        arch = params.arch
        prepped = [preprocess_image(s.image, arch) for s in data.test_samples]

        feats = extract_features(params, prepped)
        seed = derive_seed(cfg.run.seed, TAG_EVAL)
        want = evaluate(feats, data.test_samples, (1,), cfg.eval.trials, seed)
        assert evaluate_model(cfg, [params], data)[0][1] == want[1]

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
        save_checkpoint(train_model([cfg], prepare_experiment(cfg))[0][0], ckpt)
        tables = []
        for maxval in (255, 1):
            header = b"P5\n16 24\n%d\n" % maxval
            for image in root.rglob("*.ppm"):
                image.with_suffix(".mask.pgm").write_bytes(header + (body * maxval).tobytes())
            summary = run_saliency(cfg, ckpt, tmp_path / f"out{maxval}")
            assert summary["model"]["mean_precision"] > 0.0
            tables.append((tmp_path / f"out{maxval}" / "precision_model.tsv").read_bytes())
        assert tables[0] == tables[1]


class TestSynthesizedProbeMasks:
    def test_only_images_read_from_the_tree_are_scored(self, tmp_path):
        # no test identity has an occluded/ image, so the probes are
        # synthesized from whole/ images that have masks beside them
        root = tmp_path / "data"
        mask = Image(np.full((24, 16), 255, np.uint8))
        (root / "occluded").mkdir(parents=True)
        for s in generate_synthetic_dataset(4, 4, 16, 24, SplitMix64(3)):
            d = root / "whole" / f"{s.identity:03d}"
            d.mkdir(parents=True, exist_ok=True)
            save_image(s.image, d / f"{s.id}.ppm")
            save_image(mask, d / f"{s.id}.mask.pgm")
        cfg = tiny_cfg()
        cfg.dataset.root = str(root)
        data = prepare_experiment(cfg)
        [(params, _)] = train_model([cfg], data)
        save_checkpoint(params, tmp_path / "c.bin")
        summary = run_saliency(cfg, tmp_path / "c.bin", tmp_path / "sal")
        assert summary["model"]["maps"] == len(data.test_samples)
        rows = (tmp_path / "sal" / "precision_model.tsv").read_text().splitlines()
        fulls = [s.id for s in data.test_samples if s.occlusion is Occlusion.FULL_BODY]
        assert len(fulls) < len(data.test_samples)
        assert [r.split("\t")[0] for r in rows if not r.startswith("#")] == fulls


class TestSaliencyComparison:
    def test_two_checkpoint_comparison_table(self, tmp_path):
        cfg = tiny_cfg()
        data = prepare_experiment(cfg)
        [(params, _)] = train_model([cfg], data)
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
        [(params, _)] = train_model([cfg], data)
        path = tmp_path / "c.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        from occreid.pipeline import evaluate_model

        [a] = evaluate_model(cfg, [loaded], data)
        [b] = evaluate_model(cfg, [loaded], data)
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
        # the grid evaluates train's float32 params as they are; a
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
