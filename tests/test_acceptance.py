"""Acceptance suite.

One test per acceptance criterion; each prints a [PASS] line with its
headline numbers when it succeeds. The ablation and sweep tests exercise
the synthetic end-to-end pipeline at desk scale and take a few minutes
(marked slow; `pytest -m "not slow"` skips them); everything else
finishes in seconds.
"""

import dataclasses
import time

import numpy as np
import pytest

from occreid.cli import main
from occreid.config import ExperimentConfig
from occreid.dataset import generate_synthetic_dataset
from occreid.errors import EmptySalientRegionWarning
from occreid.evaluate import evaluate
from occreid.model import (
    ArchSpec,
    ConvSpec,
    TrainConfig,
    backward,
    forward,
    init_params,
    train,
)
from occreid.occsim import OcclusionConfig, simulate_occlusion
from occreid.pipeline import evaluate_model, prepare_experiment, train_model
from occreid.rng import SplitMix64, derive_seed
from occreid.saliency import binarize, detection_precision, saliency_maps

from .test_evaluate import brute_force_cmc, retrieval_inputs
from .test_model import fd_gradients, shift_biases


def acceptance_config(seed=2024):
    """Desk-scale synthetic setup shared by the ablation and sweep tests.

    20 identities with 10 images each, the small trunk, 2000 iterations.
    Desk-scale overrides of the reference defaults, all documented here:
    from-scratch training needs lr 0.035 with a step decay instead of the
    fine-tuning rate 1e-3; occlusions are regenerated per epoch so the
    network cannot memorize individual occluded images; the loss weight
    0.9 sits inside the recommended 0.7..0.9 band; eval probes draw their
    occluders from the whole image (band 1.0) while training occluders
    come from the top band, mirroring the gap between artificial training
    occlusions and real test-time ones.
    """
    cfg = ExperimentConfig()
    cfg.dataset.identities = 20
    cfg.dataset.per_identity = 10
    cfg.train.iterations = 2000
    cfg.train.learning_rate = 0.035
    cfg.train.lr_decay_every = 1600
    cfg.train.conv_channels = (16, 32, 64)
    cfg.train.alpha = 0.9
    cfg.occlusion.ratio_lo = 0.2
    cfg.occlusion.ratio_hi = 0.4
    cfg.occlusion.regenerate_per_epoch = True
    cfg.occlusion.probe_band = 1.0
    cfg.eval.shots = (1,)
    cfg.eval.trials = 10
    cfg.run.seed = seed
    return cfg


def run_regime(cfg, use_os, use_obc):
    sub = dataclasses.replace(
        cfg, run=dataclasses.replace(cfg.run, use_os=use_os, use_obc=use_obc)
    )
    data = prepare_experiment(sub)
    params, _ = train_model(sub, data)
    return evaluate_model(sub, params, data)[1].rank1


def random_tiny_case(seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    depth = int(gen.integers(1, 3))
    convs = tuple(
        ConvSpec(
            int(gen.integers(2, 4)),
            3 if gen.uniform() < 0.7 else 1,
            int(gen.integers(1, 3)),
        )
        for _ in range(depth)
    )
    arch = ArchSpec(input_side=8, resize_side=8, in_channels=3, convs=convs)
    classes = int(gen.integers(2, 5))
    batch = int(gen.integers(1, 3))
    params = shift_biases(arch, init_params(arch, classes, derive_seed(seed, 1)), seed)
    x = gen.uniform(0, 1, (batch, 3, 8, 8))
    labels = gen.integers(0, classes, batch)
    flags = gen.integers(0, 2, batch)
    alpha = float(gen.uniform(0.1, 0.9))
    return arch, params, x, labels, flags, alpha


class TestCriterion1GradientOracle:
    def test_analytic_matches_central_differences(self):
        t0 = time.time()
        checked = 0
        seed = 0
        worst = 0.0
        while checked < 20:
            arch, params, x, labels, flags, alpha = random_tiny_case(seed)
            seed += 1
            trace = forward(params, x)
            # skip configurations where the 1e-3 perturbation could cross a
            # ReLU kink; central differences are only valid off the kink
            if min(np.abs(z).min() for z in trace.preacts) < 0.02:
                continue
            analytic = backward(trace, params, labels, flags, alpha)
            numeric = fd_gradients(arch, params, x, labels, flags, alpha, eps=1e-3)
            for name, a in analytic.items():
                f = numeric[name]
                rel = np.abs(a - f).max() / max(np.abs(a).max(), np.abs(f).max(), 1e-12)
                assert rel <= 1e-4, f"case {seed - 1} {name}: rel={rel:.3e}"
                worst = max(worst, rel)
            checked += 1
        elapsed = time.time() - t0
        assert elapsed < 60.0
        print(
            f"\n[PASS] criterion 1: gradients match finite differences on {checked} "
            f"architectures, worst rel err {worst:.2e}, {elapsed:.1f}s"
        )


class TestCriterion2CmcOracle:
    def test_matches_exhaustive_ranking_everywhere(self):
        t0 = time.time()
        cases = 0
        for seed in range(100):
            gen = np.random.Generator(np.random.PCG64(seed))
            n_idents = int(gen.integers(2, 7))
            shots = int(gen.integers(1, 4))
            n_probes = int(gen.integers(1, 9))
            gallery = {
                ident: [gen.normal(size=4) for _ in range(shots)] for ident in range(n_idents)
            }
            probes = [
                (gen.normal(size=4), int(gen.integers(0, n_idents))) for _ in range(n_probes)
            ]
            # normal features never tie; the same draw rounded to integers
            # ties often, so the lower-label rule decides ranks there
            rounded = {ident: [np.round(f) for f in fs] for ident, fs in gallery.items()}
            twin = [(np.round(f), ident) for f, ident in probes]
            for g, p in ((gallery, probes), (rounded, twin)):
                features, samples = retrieval_inputs(p, g)
                fast = list(evaluate(features, samples, (shots,), trials=1)[shots].cmc)
                slow = brute_force_cmc(p, g)
                assert fast == slow, f"seed {seed}: {fast} != {slow}"
            cases += 1
        elapsed = time.time() - t0
        assert elapsed < 60.0
        print(
            f"\n[PASS] criterion 2: evaluate equals brute force on {cases} "
            f"random configurations and their integer-rounded twins, {elapsed:.1f}s"
        )


class TestCriterion3OcclusionInvariant:
    def test_area_band_and_outside_pixels(self):
        t0 = time.time()
        sources = generate_synthetic_dataset(4, 2, 32, 64, SplitMix64(99))
        cfg = OcclusionConfig(patch_side=16, ratio_lo=0.1, ratio_hi=0.3)
        total = 32 * 64
        draws = 10**4
        for i in range(draws):
            src = sources[i % len(sources)].image
            out, rec = simulate_occlusion(src, cfg, SplitMix64(derive_seed(7, i)))
            t = rec.target_rect
            covered = t.w * t.h
            eps = (t.w + t.h + 1) / total
            assert 0.1 - eps <= covered / total <= 0.3 + eps, f"draw {i}"
            mask = np.ones((64, 32), dtype=bool)
            mask[t.y : t.y + t.h, t.x : t.x + t.w] = False
            assert np.array_equal(out.pixels[mask], src.pixels[mask]), f"draw {i}"
        elapsed = time.time() - t0
        assert elapsed < 60.0
        print(
            f"\n[PASS] criterion 3: occluded-area ratio within band and outside "
            f"pixels bit-identical over {draws} draws, {elapsed:.1f}s"
        )


class TestCriterion4DirectionalAblation:
    @pytest.mark.slow
    def test_ablation_ordering_and_margin(self):
        t0 = time.time()
        replicates = 5
        rows = {"baseline": [], "os_only": [], "full": []}
        for r in range(replicates):
            cfg = acceptance_config(seed=derive_seed(2024, 100 + r))
            rows["baseline"].append(run_regime(cfg, False, False))
            rows["os_only"].append(run_regime(cfg, True, False))
            rows["full"].append(run_regime(cfg, True, True))
        mean = {k: float(np.mean(v)) for k, v in rows.items()}
        elapsed = time.time() - t0
        print(
            f"\n[criterion 4 detail] baseline={rows['baseline']} os_only={rows['os_only']} "
            f"full={rows['full']}"
        )
        assert mean["full"] >= mean["os_only"] >= mean["baseline"], mean
        assert mean["full"] - mean["baseline"] >= 5.0, mean
        assert elapsed < 600.0
        print(
            f"[PASS] criterion 4: mean rank-1 full={mean['full']:.2f} >= "
            f"os_only={mean['os_only']:.2f} >= baseline={mean['baseline']:.2f}, "
            f"margin {mean['full'] - mean['baseline']:.2f} >= 5, {elapsed:.0f}s"
        )


class TestCriterion5AlphaSweepShape:
    @pytest.mark.slow
    def test_best_alpha_at_least_half(self):
        t0 = time.time()
        alphas = (0.1, 0.3, 0.5, 0.7, 0.8, 0.9)
        results = {}
        for a in alphas:
            cfg = acceptance_config(seed=derive_seed(2024, 500))
            cfg.train.alpha = a
            results[a] = run_regime(cfg, True, True)
        best = max(results, key=lambda a: results[a])
        elapsed = time.time() - t0
        print(f"\n[criterion 5 detail] rank-1 by alpha: {results}")
        assert best >= 0.5, results
        assert elapsed < 900.0
        print(
            f"[PASS] criterion 5: best rank-1 {results[best]:.2f} at alpha={best} "
            f"(>= 0.5), {elapsed:.0f}s"
        )


class TestCriterion6LossIdentities:
    def test_alpha_one_freezes_obc_head(self):
        t0 = time.time()
        samples = generate_synthetic_dataset(4, 4, 16, 24, SplitMix64(6))
        geometry = dict(input_side=12, resize_side=14, conv_channels=(4, 8))
        cfg = TrainConfig(alpha=1.0, learning_rate=0.02, batch_size=8, iterations=100, **geometry)
        initial = init_params(cfg.arch, 4, derive_seed(3, 0))
        final, history = train(samples, cfg, 3)
        assert np.array_equal(initial.tensors["obc.w"], final.tensors["obc.w"])
        assert np.array_equal(initial.tensors["obc.b"], final.tensors["obc.b"])
        assert not np.array_equal(initial.tensors["id.w"], final.tensors["id.w"])

        cfg8 = TrainConfig(alpha=0.8, learning_rate=0.02, batch_size=8, iterations=100, **geometry)
        _, hist8 = train(samples, cfg8, 3)
        for _, total, lp, lo in hist8:
            assert total == 0.8 * lp + (1.0 - 0.8) * lo
        for _, total, lp, lo in history:
            assert total == 1.0 * lp + 0.0 * lo
        elapsed = time.time() - t0
        assert elapsed < 60.0
        print(
            f"\n[PASS] criterion 6: alpha=1 keeps OBC head bit-identical over 100 "
            f"iterations and every logged total equals the affine combination, {elapsed:.1f}s"
        )


class TestCriterion7Determinism:
    CONFIG = """
[dataset]
identities = 6
per_identity = 6
image_width = 16
image_height = 24

[occlusion]
patch_side = 6

[train]
iterations = 200
batch_size = 10
input_side = 12
resize_side = 14
conv_channels = 4,8
learning_rate = 0.02

[eval]
shots = 1,2
trials = 3

[run]
seed = 21
"""

    @staticmethod
    def _tree_hash(root):
        import hashlib

        digest = hashlib.sha256()
        for f in sorted(root.rglob("*")):
            if f.is_file():
                digest.update(f.relative_to(root).as_posix().encode())
                digest.update(f.read_bytes())
        return digest.hexdigest()

    def test_rerun_byte_identical_artifacts(self, tmp_path):
        t0 = time.time()
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(self.CONFIG, encoding="utf-8")
        hashes = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
            ckpt = out / "train" / "checkpoint.bin"
            assert (
                main(
                    [
                        "eval",
                        "--config",
                        str(cfg_path),
                        "--out",
                        str(out),
                        "--checkpoint",
                        str(ckpt),
                    ]
                )
                == 0
            )
            hashes.append(self._tree_hash(out))
        elapsed = time.time() - t0
        assert hashes[0] == hashes[1]
        assert elapsed < 120.0
        print(
            f"\n[PASS] criterion 7: simulate/train/eval reruns byte-identical "
            f"(tree hash {hashes[0][:12]}...), {elapsed:.1f}s"
        )


class TestCriterion8SaliencyMetric:
    def test_constructed_masks_and_trained_maps(self):
        t0 = time.time()

        def mask(bools):
            return np.asarray(bools, dtype=bool)

        subset_salient = mask([[1, 0], [0, 0]])
        subset_annotation = mask([[1, 1], [1, 0]])
        assert detection_precision(subset_salient, subset_annotation) == 1.0

        half_salient = mask([[1, 1, 0, 0]])
        half_annotation = mask([[1, 0, 1, 0]])
        assert detection_precision(half_salient, half_annotation) == 0.5

        empty = mask(np.zeros((2, 2), dtype=bool))
        with pytest.warns(EmptySalientRegionWarning):
            assert detection_precision(empty, subset_annotation) == 0.0

        samples = generate_synthetic_dataset(4, 4, 16, 24, SplitMix64(9))
        geometry = dict(input_side=12, resize_side=14, conv_channels=(4, 8))
        cfg = TrainConfig(learning_rate=0.02, batch_size=8, iterations=60, **geometry)
        arch = cfg.arch
        params, _ = train(samples, cfg, 10)
        from occreid.model import preprocess_image

        chunks = saliency_maps(params, [preprocess_image(s.image, arch) for s in samples])
        maps = np.concatenate(list(chunks))
        assert len(maps) == len(samples)
        for smap in maps:
            assert smap.shape == (12, 12)
            assert 0.0 <= smap.min() and smap.max() <= 1.0
            salient = binarize(smap)
            assert salient.shape == (12, 12) and salient.dtype == bool
        elapsed = time.time() - t0
        assert elapsed < 60.0
        print(
            f"\n[PASS] criterion 8: detection precision exact on constructed masks; "
            f"{len(samples)} trained-model maps have correct dims and range, {elapsed:.1f}s"
        )
