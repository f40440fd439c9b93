"""Experiment orchestration.

Binds the modules into reproducible runs: occlusion simulation over a
sample set, training on the combined set, multi-shot evaluation, the
ablation grid (occlusion simulator and occlusion-classification loss
switched independently) and the alpha sweep. The grid and the sweep share
one runner: one preparation, one shot check, one train_model over every
variant (variants that see the same batches train in lockstep), one
evaluate_model over every model on one preprocessing of the test set, and
nothing written before the last is evaluated.
The identity split is made from identity labels before any image exists,
and each command renders or decodes only the identities and branches it
reads: `train` the train identities' full-body images, `eval` and
`saliency` the test identities, `simulate` every full-body image, and
the grid and the sweep both sides, before any training.
Every run directory receives the resolved config and all derived seeds,
and reruns with the same config produce byte-identical artifacts.

All randomness flows from run.seed through fixed derivation tags, so the
individual stages stay independent: changing eval trials never perturbs
training, and the synthetic probe occlusions use a stream held out from
the training-time simulator.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, render_config
from .dataset import (
    Occlusion,
    draw_gallery,
    gallery_pool,
    generate_synthetic_dataset,
    scan_dataset,
    scan_identities,
    split_identities,
)
from .errors import InfeasibleGeometry, TooFewIdentities, UnsupportedFormat
from .evaluate import EvalReport, evaluate
from .fileio import write_atomic, write_lines
from .imaging import Image, load_image, save_image
from .model import (
    extract_features,
    load_checkpoint,
    preprocess_images,
    save_checkpoint,
    train,
)
from .occsim import build_occlusion_set, check_patch_fits, check_target_fits
from .rng import SplitMix64, derive_seed
from .saliency import binarize, detection_precision, saliency_maps
from .svgplot import line_plot

# Stream tags hung off run.seed; fixed so artifacts are stable across runs.
TAG_DATA = 1
TAG_SPLIT = 2
TAG_OS = 3
TAG_PROBE = 4
TAG_TRAIN = 5
TAG_EVAL = 6

_REGIMES = (
    ("baseline", False, False),
    ("os_only", True, False),
    ("obc_only", False, True),
    ("full", True, True),
)


def _check_scanned_fits(cfg: ExperimentConfig, samples: list) -> None:
    """The occlusion fit checks load_config runs on synthetic images, run on
    each distinct full-body size among the scanned samples a command reads,
    for both simulator configs. A band whose smallest target does not fit
    is a config error (ValueError); a patch too large for an image's
    background band is a data error (InfeasibleGeometry). Both name the
    first image of the size."""
    sizes = {}
    for s in samples:
        if s.occlusion is Occlusion.FULL_BODY:
            sizes.setdefault((s.image.width, s.image.height), s.id)
    occ = cfg.occlusion
    for name, sim in (("", occ), ("probe_band: ", occ.probe_config())):
        for (w, h), sample_id in sizes.items():
            try:
                check_target_fits(sim, w, h)
            except InfeasibleGeometry as e:
                where = Path(cfg.dataset.root) / sample_id
                raise ValueError(f"[occlusion] {name}{e}: {where}") from e
            try:
                check_patch_fits(sim, w, h)
            except InfeasibleGeometry as e:
                raise InfeasibleGeometry(f"sample {sample_id}: {name}{e}") from e


def _load_samples(cfg: ExperimentConfig, identities=None, branches=("occluded", "whole")) -> list:
    """The samples of `identities` (all when None) rendered, or decoded
    from `branches` of a scanned dataset and size-checked."""
    ds = cfg.dataset
    if ds.root:
        samples = scan_dataset(ds.root, identities, branches)
        _check_scanned_fits(cfg, samples)
        return samples
    rng = SplitMix64(derive_seed(cfg.run.seed, TAG_DATA))
    return generate_synthetic_dataset(
        ds.identities, ds.per_identity, ds.image_width, ds.image_height, rng, identities
    )


class ExperimentData:
    """The identity split of an experiment, and each side's samples, built
    on first access and kept: `train_full`, the train identities'
    full-body images, and `test_samples`, the test identities' images in
    both branches plus, when none of them is occluded, the probes."""

    def __init__(self, cfg: ExperimentConfig, split):
        self.cfg, self.split = cfg, split

    @functools.cached_property
    def train_full(self) -> list:
        samples = _load_samples(self.cfg, self.split.train_identities, ("whole",))
        held, root = len({s.identity for s in samples}), self.cfg.dataset.root
        if root and held < 2:  # a data fault here; a synthetic config's is a config error
            raise TooFewIdentities(f"{root}: {held} train identities hold a whole/ image, need 2")
        return samples

    @functools.cached_property
    def test_samples(self) -> list:
        # the synthetic generator emits full-body images only; artificial
        # probes then come from the held-out probe stream, so evaluation
        # never sees occlusions from the training-time simulator stream
        samples = _load_samples(self.cfg, self.split.test_identities)
        if not any(s.occlusion is not Occlusion.FULL_BODY for s in samples):
            seed = derive_seed(self.cfg.run.seed, TAG_PROBE)
            probes, _ = build_occlusion_set(samples, self.cfg.occlusion.probe_config(), seed)
            samples = samples + probes
        return samples


def prepare_experiment(cfg: ExperimentConfig) -> ExperimentData:
    """Split the identities of cfg's data, from their labels alone.

    The labels are 1..identities for synthetic data, and for a scanned
    dataset the identity directories that hold an image, read from the
    directory listing. No image is rendered or decoded here: each side
    is, with its size check, when a command first reads it.
    """
    ds = cfg.dataset
    labels = scan_identities(ds.root) if ds.root else range(1, ds.identities + 1)
    rng = SplitMix64(derive_seed(cfg.run.seed, TAG_SPLIT))
    return ExperimentData(cfg, split_identities(labels, ds.split_fraction, rng))


def _seed_rows(cfg: ExperimentConfig) -> list:
    seed = cfg.run.seed
    rows = [
        ("run", seed),
        ("data", derive_seed(seed, TAG_DATA)),
        ("split", derive_seed(seed, TAG_SPLIT)),
        ("occlusion", derive_seed(seed, TAG_OS)),
        ("probe", derive_seed(seed, TAG_PROBE)),
        ("train", derive_seed(seed, TAG_TRAIN)),
    ]
    for n in cfg.eval.shots:
        rows.append((f"eval_n{n}", derive_seed(derive_seed(seed, TAG_EVAL), n)))
    return rows


def _write_provenance(cfg: ExperimentConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    # the output path does not affect any computation; blank it so reruns
    # into different directories still produce byte-identical artifacts
    neutral = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, out=""))
    write_atomic(out_dir / "config.resolved.ini", render_config(neutral).encode("utf-8"))
    lines = ["# stream\tseed"]
    lines += [f"{name}\t{value}" for name, value in _seed_rows(cfg)]
    write_lines(out_dir / "seeds.tsv", lines)


def _load_mask(path: Path) -> Image:
    mask = load_image(path)
    if mask.channels != 1:
        raise UnsupportedFormat(f"{path}: a body mask must be a single-channel PGM (P5), got P6")
    return mask


def _safe_name(sample_id: str) -> str:
    return sample_id.replace("/", "_").replace("#", "_")


def run_simulate(cfg: ExperimentConfig, out_dir) -> dict:
    """Apply the simulator to every full-body sample; write images and a
    manifest row per sample (source, label, rects, ratio, seed)."""
    out_dir = Path(out_dir)
    samples = _load_samples(cfg, branches=("whole",))
    os_seed = derive_seed(cfg.run.seed, TAG_OS)
    occluded, records = build_occlusion_set(samples, cfg.occlusion, os_seed)
    _write_provenance(cfg, out_dir)
    img_dir = out_dir / "images"
    img_dir.mkdir(exist_ok=True)
    lines = [
        "# source_id\tlabel\tpatch_x\tpatch_y\tpatch_w\tpatch_h"
        "\ttarget_x\ttarget_y\ttarget_w\ttarget_h\tarea_ratio\tseed"
    ]
    for i, (z, rec) in enumerate(zip(occluded, records)):
        save_image(z.image, img_dir / f"{_safe_name(z.id)}.ppm")
        p, t = rec.patch_rect, rec.target_rect
        lines.append(
            f"{rec.source_id}\t{z.identity}\t{p.x}\t{p.y}\t{p.w}\t{p.h}"
            f"\t{t.x}\t{t.y}\t{t.w}\t{t.h}\t{rec.area_ratio!r}\t{derive_seed(os_seed, i)}"
        )
    write_lines(out_dir / "manifest.tsv", lines)
    mean_ratio = float(np.mean([r.area_ratio for r in records])) if records else 0.0
    return {"count": len(occluded), "mean_area_ratio": mean_ratio}


def _build_occluded_set(cfg: ExperimentConfig, data: ExperimentData, epoch: int = 0) -> list:
    os_seed = derive_seed(cfg.run.seed, TAG_OS)
    if epoch:
        os_seed = derive_seed(os_seed, epoch)
    return build_occlusion_set(data.train_full, cfg.occlusion, os_seed)[0]


def _lockstep_key(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg without what sets its effective alpha: variants with equal keys
    see the same batches and can train in lockstep."""
    train_cfg = dataclasses.replace(cfg.train, alpha=1.0)
    return dataclasses.replace(cfg, train=train_cfg, run=dataclasses.replace(cfg.run, use_obc=True))


def train_model(variants: list, data: ExperimentData) -> list:
    """Train each variant under its ablation switches on data's train side;
    one (params, history rows) per variant, in order, each equal to the
    variant trained alone.

    Variants that differ only in effective alpha see the same batches, so
    they train as one lockstep model.train, groups in order of their first
    variant. use_os=False trains on the full-body set only; use_obc=False
    forces alpha to 1 so the occlusion head receives no gradient. With
    regenerate_per_epoch the occluded half is drawn afresh for each epoch
    from a stream derived per epoch. A configured alpha of 0 or 1 under
    use_obc warns, once per such variant, before any work. Once every
    group has trained, the first failure in variant order is raised.
    """
    for v in variants:
        if v.run.use_obc and v.train.alpha in (0.0, 1.0):
            warnings.warn(
                f"[train] alpha = {v.train.alpha} disables one loss entirely; values in "
                "(0, 1) with alpha >= 0.5 are the intended operating range",
                stacklevel=2,
            )
    tcfgs = [v.train if v.run.use_obc else dataclasses.replace(v.train, alpha=1.0) for v in variants]
    keys = [_lockstep_key(v) for v in variants]
    firsts = [keys.index(key) for key in keys]
    results = [None] * len(variants)
    for first in sorted(set(firsts)):
        group = [i for i, f in enumerate(firsts) if f == first]
        cfg, samples, occlusions = variants[first], data.train_full, None
        if cfg.run.use_os and cfg.occlusion.regenerate_per_epoch:
            occlusions = functools.partial(_build_occluded_set, cfg, data)
        elif cfg.run.use_os:
            samples = samples + _build_occluded_set(cfg, data)
        seed = derive_seed(cfg.run.seed, TAG_TRAIN)
        for i, result in zip(group, train(samples, [tcfgs[i] for i in group], seed, occlusions)):
            results[i] = result
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def run_train(cfg: ExperimentConfig, out_dir) -> Path:
    out_dir = Path(out_dir)
    [(params, history)] = train_model([cfg], prepare_experiment(cfg))
    _write_provenance(cfg, out_dir)
    ckpt = out_dir / "checkpoint.bin"
    save_checkpoint(params, ckpt)
    lines = ["# iteration\ttotal\tid_loss\tobc_loss"]
    lines += [f"{it}\t{total!r}\t{lp!r}\t{lo!r}" for it, total, lp, lo in history]
    write_lines(out_dir / "loss_history.tsv", lines)
    return ckpt


def _write_report(report: EvalReport, path: Path) -> None:
    lines = ["# rank\tmatch_rate"]
    lines += [f"{r + 1}\t{rate!r}" for r, rate in enumerate(report.cmc)]
    lines.append(f"# shots\t{report.shots}")
    lines.append(f"# trials\t{report.trials}")
    lines.append(f"# rank1\t{report.rank1!r}")
    lines.append(f"# rank5\t{report.rank5!r}")
    lines.append(f"# rank10\t{report.rank10!r}")
    lines.append("# trial_seeds\t" + ",".join(str(s) for s in report.per_trial_seeds))
    write_lines(path, lines)


def evaluate_model(cfg: ExperimentConfig, params_list: list, data: ExperimentData) -> list:
    """One {shot count: report} per params, in order, on data's test side,
    preprocessed once for all of them; each model's test features and
    their distances are computed once."""
    samples = data.test_samples
    pixels = preprocess_images([s.image for s in samples], params_list[0].arch)
    ev, seed = cfg.eval, derive_seed(cfg.run.seed, TAG_EVAL)
    feats = (extract_features(params, pixels) for params in params_list)
    return [evaluate(f, samples, ev.shots, ev.trials, seed) for f in feats]


def _write_split_manifest(data: ExperimentData, out_dir: Path) -> None:
    lines = ["# identity\trole"]
    for ident in sorted(data.split.train_identities | data.split.test_identities):
        role = "train" if ident in data.split.train_identities else "test"
        lines.append(f"{ident}\t{role}")
    write_lines(out_dir / "split.tsv", lines)


def _write_trial_manifest(report: EvalReport, path: Path) -> None:
    """Every trial's gallery draw with its trial seed, then the probes."""
    lines = ["# trial\tseed\tidentity\tgallery_sample_ids"]
    for t, (trial_seed, draw) in enumerate(zip(report.per_trial_seeds, report.draws)):
        lines += [f"{t}\t{trial_seed}\t{ident}\t{','.join(ids)}" for ident, ids in draw]
    lines.append("# probes\t" + ",".join(report.probe_ids))
    write_lines(path, lines)


def _cmc_series(label: str, report: EvalReport) -> tuple:
    """A line_plot series of the CMC curve in percent against rank."""
    return (label, list(range(1, len(report.cmc) + 1)), [r * 100 for r in report.cmc])


def run_eval(cfg: ExperimentConfig, checkpoint, out_dir) -> dict:
    out_dir = Path(out_dir)
    params = load_checkpoint(checkpoint)
    data = prepare_experiment(cfg)
    [reports] = evaluate_model(cfg, [params], data)
    _write_provenance(cfg, out_dir)
    _write_split_manifest(data, out_dir)
    summary = ["# shots\trank1\trank5\trank10"]
    series = []
    for n, rep in sorted(reports.items()):
        _write_report(rep, out_dir / f"cmc_n{n}.tsv")
        _write_trial_manifest(rep, out_dir / f"gallery_n{n}.tsv")
        summary.append(f"{n}\t{rep.rank1!r}\t{rep.rank5!r}\t{rep.rank10!r}")
        series.append(_cmc_series(f"N={n}", rep))
    write_lines(out_dir / "summary.tsv", summary)
    line_plot(series, out_dir / "cmc.svg", "CMC", "rank", "match rate (%)")
    return reports


def _run_grid(cfg: ExperimentConfig, variants: list, out_dir: Path) -> dict:
    """Train and evaluate the (label, cfg) variants on one preparation of
    cfg's data, which switches and alpha never reach; keyed by label in
    variant order, then shot count.

    train_model trains every variant, then every model is evaluated, and
    provenance is written after the last. A checkpoint stores train's
    float32 params as they are, so each result equals `train` plus `eval`
    of its checkpoint."""
    data = prepare_experiment(cfg)
    # a throwaway draw at the largest shot count: too few images fail before training
    draw_gallery(gallery_pool(data.test_samples)[0], max(cfg.eval.shots), SplitMix64(0))
    trained = train_model([sub for _, sub in variants], data)
    reports = evaluate_model(cfg, [params for params, _ in trained], data)
    _write_provenance(cfg, out_dir)
    return {label: rep for (label, _), rep in zip(variants, reports)}


def run_ablation(cfg: ExperimentConfig, out_dir) -> dict:
    """Evaluate the ablation grid; every regime shares the same data,
    split, probe and seed streams so rows differ only in the switches."""
    out_dir = Path(out_dir)
    variants = []
    for name, use_os, use_obc in _REGIMES:
        run = dataclasses.replace(cfg.run, use_os=use_os, use_obc=use_obc)
        variants.append((name, dataclasses.replace(cfg, run=run)))
    results = _run_grid(cfg, variants, out_dir)
    rows = ["# regime\tuse_os\tuse_obc\tshots\trank1\trank5\trank10"]
    for name, use_os, use_obc in _REGIMES:
        for n, rep in sorted(results[name].items()):
            rows.append(
                f"{name}\t{int(use_os)}\t{int(use_obc)}\t{n}"
                f"\t{rep.rank1!r}\t{rep.rank5!r}\t{rep.rank10!r}"
            )
    write_lines(out_dir / "ablation.tsv", rows)
    for n in sorted(cfg.eval.shots):
        series = [_cmc_series(name, results[name][n]) for name, _, _ in _REGIMES]
        line_plot(series, out_dir / f"ablation_cmc_n{n}.svg", f"CMC, N={n}", "rank", "match rate (%)")
    return results


def run_alpha_sweep(cfg: ExperimentConfig, alphas, out_dir) -> dict:
    """Train and evaluate the full regime per loss weight; table sorted by alpha."""
    out_dir = Path(out_dir)
    if not alphas:
        raise ValueError("no alpha values to sweep")
    if len(set(alphas)) < len(alphas):
        raise ValueError(f"an alpha is repeated in {tuple(alphas)}")
    run = dataclasses.replace(cfg.run, use_os=True, use_obc=True)
    # an alpha outside [0, 1] is refused here, before any work
    variants = [
        (a, dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, alpha=a), run=run))
        for a in sorted(alphas)
    ]
    results = _run_grid(cfg, variants, out_dir)
    shots = sorted(cfg.eval.shots)
    rows = ["# alpha\t" + "\t".join(f"rank1_n{n}" for n in shots)]
    for a, reports in results.items():
        rows.append(f"{a!r}\t" + "\t".join(f"{reports[n].rank1!r}" for n in shots))
    write_lines(out_dir / "alpha_sweep.tsv", rows)
    series = [(f"N={n}", list(results), [r[n].rank1 for r in results.values()]) for n in shots]
    line_plot(series, out_dir / "alpha_sweep.svg", "rank-1 vs loss weight", "alpha", "rank-1 (%)")
    return results


def run_saliency(cfg: ExperimentConfig, checkpoint, out_dir, compare=None) -> dict:
    """Write one PGM saliency map per sample; where annotation masks exist,
    also report per-image detection precision and its mean.

    With a second checkpoint, emit a two-row comparison of mean precision.
    """
    out_dir = Path(out_dir)
    checkpoints = [("model", load_checkpoint(checkpoint))]
    if compare is not None:
        checkpoints.append(("compare", load_checkpoint(compare)))
    samples = prepare_experiment(cfg).test_samples
    root = cfg.dataset.root  # an image read from it may have a <name>.mask.pgm beside it
    read = [(i, s) for i, s in enumerate(samples) if s.occlusion is not Occlusion.ARTIFICIAL]
    paths = {i: (Path(root) / s.id).with_suffix(".mask.pgm") for i, s in read if root}
    masks = {i: _load_mask(p) for i, p in paths.items() if p.exists()}
    has_mask = np.isin(np.arange(len(samples)), list(masks))
    results = []  # every checkpoint runs before anything is written
    for label, params in checkpoints:
        # annotations take the images' resize and center crop, then are re-binarized
        bodies = preprocess_images(list(masks.values()), params.arch)[..., 0] > 127
        pixels = preprocess_images([s.image for s in samples], params.arch)
        images, precisions = [], []  # chunk by chunk: 8-bit maps and the masked rows' scores
        for maps in saliency_maps(params, pixels):
            rows = has_mask[len(images) : len(images) + len(maps)]
            body = bodies[len(precisions) : len(precisions) + rows.sum()]
            images += [Image.from_float(m) for m in maps]
            precisions += detection_precision(binarize(maps[rows]), body).tolist()
        results.append((label, images, precisions))
    _write_provenance(cfg, out_dir)
    summary = {}
    for label, maps, precisions in results:
        map_dir = out_dir / ("maps" if label == "model" else f"maps_{label}")
        map_dir.mkdir(exist_ok=True)
        for s, img in zip(samples, maps):
            save_image(img, map_dir / f"{_safe_name(s.id)}.pgm")
        mean = float(np.mean(precisions)) if precisions else None
        if precisions:
            rows = ["# sample_id\tprecision"]
            rows += [f"{samples[i].id}\t{prec!r}" for i, prec in zip(masks, precisions)]
            rows.append(f"# per_image_mean\t{mean!r}")
            write_lines(out_dir / f"precision_{label}.tsv", rows)
        summary[label] = {"maps": len(maps), "mean_precision": mean}
    if compare is not None and all(v["mean_precision"] is not None for v in summary.values()):
        lines = ["# model\tmean_precision"]
        lines += [f"{k}\t{v['mean_precision']!r}" for k, v in summary.items()]
        write_lines(out_dir / "precision_comparison.tsv", lines)
    return summary
