"""Experiment orchestration.

Binds the modules into reproducible runs: occlusion simulation over a
sample set, training on the combined set, multi-shot evaluation, the
ablation grid (occlusion simulator and occlusion-classification loss
switched independently) and the alpha sweep. Every run directory receives
the resolved config and all derived seeds, and reruns with the same
config produce byte-identical artifacts.

All randomness flows from run.seed through fixed derivation tags, so the
individual stages stay independent: changing eval trials never perturbs
training, and the synthetic probe occlusions use a stream held out from
the training-time simulator.
"""

from __future__ import annotations

import dataclasses
import warnings
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    occlusion_config,
    probe_occlusion_config,
    train_config,
    write_resolved,
)
from .dataset import (
    Occlusion,
    generate_synthetic_dataset,
    scan_dataset,
    split_identities,
)
from .errors import InfeasibleGeometry
from .evaluate import EvalReport, evaluate
from .fileio import write_lines
from .imaging import Image, load_image, save_image
from .model import (
    ModelParams,
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
TAG_REPLICATE = 100

_REGIMES = (
    ("baseline", False, False),
    ("os_only", True, False),
    ("obc_only", False, True),
    ("full", True, True),
)


@dataclasses.dataclass
class ExperimentData:
    split: object
    train_full: list
    test_samples: list


def _check_scanned_fits(cfg: ExperimentConfig, samples: list) -> None:
    """The occlusion fit checks load_config runs on synthetic images, run on
    each distinct full-body size of a scanned dataset for both simulator
    configs. A band whose smallest target does not fit is a config error
    (ValueError); a patch too large for an image's background band is a
    data error (InfeasibleGeometry). Both name the first image of the size."""
    sizes = {}
    for s in samples:
        if s.occlusion is Occlusion.FULL_BODY:
            sizes.setdefault((s.image.width, s.image.height), s.id)
    for name, build in (("", occlusion_config), ("probe_band: ", probe_occlusion_config)):
        occ = build(cfg, 0)
        for (w, h), sample_id in sizes.items():
            try:
                check_target_fits(occ, w, h)
            except InfeasibleGeometry as e:
                where = Path(cfg.dataset.root) / sample_id
                raise ValueError(f"[occlusion] {name}{e}: {where}") from e
            try:
                check_patch_fits(occ, w, h)
            except InfeasibleGeometry as e:
                raise InfeasibleGeometry(f"sample {sample_id}: {name}{e}") from e


def load_samples(cfg: ExperimentConfig) -> list:
    ds = cfg.dataset
    if ds.root:
        samples = scan_dataset(ds.root)
        _check_scanned_fits(cfg, samples)
        return samples
    rng = SplitMix64(derive_seed(cfg.run.seed, TAG_DATA))
    return generate_synthetic_dataset(
        ds.identities, ds.per_identity, ds.image_width, ds.image_height, rng
    )


def prepare_experiment(cfg: ExperimentConfig) -> ExperimentData:
    """Load samples, split identities, and furnish occluded test probes.

    When the test side has no occluded images (the synthetic generator
    emits full-body only), artificial probes are built from the test
    full-body images with the held-out probe stream, so evaluation never
    sees occlusions from the training-time simulator stream.
    """
    samples = load_samples(cfg)
    split = split_identities(
        samples, cfg.dataset.split_fraction, SplitMix64(derive_seed(cfg.run.seed, TAG_SPLIT))
    )
    train_full = [
        s
        for s in samples
        if s.identity in split.train_identities and s.occlusion is Occlusion.FULL_BODY
    ]
    test_samples = [s for s in samples if s.identity in split.test_identities]
    if not any(s.occlusion is not Occlusion.FULL_BODY for s in test_samples):
        probe_cfg = probe_occlusion_config(cfg, derive_seed(cfg.run.seed, TAG_PROBE))
        probes, _ = build_occlusion_set(test_samples, probe_cfg)
        test_samples = test_samples + probes
    return ExperimentData(split, train_full, test_samples)


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
    write_resolved(neutral, out_dir)
    lines = ["# stream\tseed"]
    lines += [f"{name}\t{value}" for name, value in _seed_rows(cfg)]
    write_lines(out_dir / "seeds.tsv", lines)


def _safe_name(sample_id: str) -> str:
    return sample_id.replace("/", "_").replace("#", "_")


def run_simulate(cfg: ExperimentConfig, out_dir) -> dict:
    """Apply the simulator to every full-body sample; write images and a
    manifest row per sample (source, label, rects, ratio, seed)."""
    out_dir = Path(out_dir)
    samples = [s for s in load_samples(cfg) if s.occlusion is Occlusion.FULL_BODY]
    occ_cfg = occlusion_config(cfg, derive_seed(cfg.run.seed, TAG_OS))
    occluded, records = build_occlusion_set(samples, occ_cfg)
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
            f"\t{t.x}\t{t.y}\t{t.w}\t{t.h}\t{rec.area_ratio!r}\t{derive_seed(occ_cfg.seed, i)}"
        )
    write_lines(out_dir / "manifest.tsv", lines)
    mean_ratio = float(np.mean([r.area_ratio for r in records])) if records else 0.0
    return {"count": len(occluded), "mean_area_ratio": mean_ratio}


def _build_occluded_set(cfg: ExperimentConfig, data: ExperimentData, epoch: int = 0) -> list:
    os_seed = derive_seed(cfg.run.seed, TAG_OS)
    if epoch:
        os_seed = derive_seed(os_seed, epoch)
    return build_occlusion_set(data.train_full, occlusion_config(cfg, os_seed))[0]


def train_model(cfg: ExperimentConfig, data: ExperimentData | None = None):
    """Train under the configured ablation switches.

    use_os=False trains on the full-body set only; use_obc=False forces
    alpha to 1 so the occlusion head receives no gradient. With
    regenerate_per_epoch the occluded half is drawn afresh for each epoch
    from a stream derived per epoch. Returns (params, history rows).
    """
    data = data or prepare_experiment(cfg)
    alpha = cfg.train.alpha if cfg.run.use_obc else 1.0
    train_seed = derive_seed(cfg.run.seed, TAG_TRAIN)
    with warnings.catch_warnings():
        if not cfg.run.use_obc:
            warnings.simplefilter("ignore")  # alpha=1 is deliberate here
        tcfg = train_config(cfg, train_seed, alpha)
    if not cfg.run.use_os:
        return train(data.train_full, tcfg)
    if cfg.occlusion.regenerate_per_epoch:
        return train(data.train_full, tcfg, occlusions=lambda e: _build_occluded_set(cfg, data, e))
    return train(data.train_full + _build_occluded_set(cfg, data), tcfg)


def run_train(cfg: ExperimentConfig, out_dir) -> Path:
    out_dir = Path(out_dir)
    params, history = train_model(cfg)
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


def evaluate_model(cfg: ExperimentConfig, params: ModelParams, data: ExperimentData) -> dict:
    """One report per shot count; test features and their distances are
    computed once."""
    samples = data.test_samples
    feats = extract_features(params, preprocess_images([s.image for s in samples], params.arch))
    ev = cfg.eval
    return evaluate(feats, samples, ev.shots, ev.trials, derive_seed(cfg.run.seed, TAG_EVAL))


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


def run_eval(cfg: ExperimentConfig, checkpoint, out_dir) -> dict:
    out_dir = Path(out_dir)
    params = load_checkpoint(checkpoint)
    data = prepare_experiment(cfg)
    reports = evaluate_model(cfg, params, data)
    _write_provenance(cfg, out_dir)
    _write_split_manifest(data, out_dir)
    summary = ["# shots\trank1\trank5\trank10"]
    series = []
    for n, rep in sorted(reports.items()):
        _write_report(rep, out_dir / f"cmc_n{n}.tsv")
        _write_trial_manifest(rep, out_dir / f"gallery_n{n}.tsv")
        summary.append(f"{n}\t{rep.rank1!r}\t{rep.rank5!r}\t{rep.rank10!r}")
        ranks = list(range(1, len(rep.cmc) + 1))
        series.append((f"N={n}", ranks, [r * 100 for r in rep.cmc]))
    write_lines(out_dir / "summary.tsv", summary)
    line_plot(series, out_dir / "cmc.svg", "CMC", "rank", "match rate (%)")
    return reports


def train_and_eval(cfg: ExperimentConfig, data: ExperimentData | None = None) -> dict:
    """In-memory train plus eval under cfg's switches; keyed by shot count.

    train returns float32-exact parameters, which a checkpoint stores
    exactly, so the result matches a train command followed by an eval of
    its checkpoint.
    """
    data = data or prepare_experiment(cfg)
    params, _ = train_model(cfg, data)
    return evaluate_model(cfg, params, data)


def run_ablation(cfg: ExperimentConfig, out_dir) -> dict:
    """Evaluate the ablation grid; every regime shares the same data,
    split, probe and seed streams so rows differ only in the switches."""
    out_dir = Path(out_dir)
    data = prepare_experiment(cfg)  # the switches never reach data, split or probes
    results = {}
    rows = ["# regime\tuse_os\tuse_obc\tshots\trank1\trank5\trank10"]
    series = {}
    for name, use_os, use_obc in _REGIMES:
        sub = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, use_os=use_os, use_obc=use_obc))
        reports = train_and_eval(sub, data)
        results[name] = reports
        for n, rep in sorted(reports.items()):
            rows.append(
                f"{name}\t{int(use_os)}\t{int(use_obc)}\t{n}"
                f"\t{rep.rank1!r}\t{rep.rank5!r}\t{rep.rank10!r}"
            )
            series.setdefault(n, []).append(
                (name, list(range(1, len(rep.cmc) + 1)), [r * 100 for r in rep.cmc])
            )
    _write_provenance(cfg, out_dir)
    write_lines(out_dir / "ablation.tsv", rows)
    for n, s in sorted(series.items()):
        line_plot(s, out_dir / f"ablation_cmc_n{n}.svg", f"CMC, N={n}", "rank", "match rate (%)")
    return results


def run_alpha_sweep(cfg: ExperimentConfig, alphas, out_dir) -> dict:
    """Train and evaluate once per loss weight; table sorted by alpha."""
    out_dir = Path(out_dir)
    if not alphas:
        raise ValueError("no alpha values to sweep")
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha {a} outside [0, 1]")
    data = prepare_experiment(cfg)  # alpha never reaches data, split or probes
    results = {}
    for a in sorted(alphas):
        sub = dataclasses.replace(
            cfg,
            train=dataclasses.replace(cfg.train, alpha=a),
            run=dataclasses.replace(cfg.run, use_os=True, use_obc=True),
        )
        results[a] = train_and_eval(sub, data)
    shots = sorted(next(iter(results.values())))
    _write_provenance(cfg, out_dir)
    rows = ["# alpha\t" + "\t".join(f"rank1_n{n}" for n in shots)]
    for a in sorted(results):
        rows.append(f"{a!r}\t" + "\t".join(f"{results[a][n].rank1!r}" for n in shots))
    write_lines(out_dir / "alpha_sweep.tsv", rows)
    series = [
        (f"N={n}", sorted(results), [results[a][n].rank1 for a in sorted(results)]) for n in shots
    ]
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
    root = cfg.dataset.root  # a scanned image may have a <name>.mask.pgm annotation beside it
    paths = {i: (Path(root) / s.id).with_suffix(".mask.pgm") for i, s in enumerate(samples) if root}
    masks = {i: load_image(p) for i, p in paths.items() if p.exists()}
    results = []  # every checkpoint runs before anything is written
    for label, params in checkpoints:
        maps = saliency_maps(params, preprocess_images([s.image for s in samples], params.arch))
        # annotations take the images' resize and center crop, then are re-binarized
        bodies = preprocess_images(list(masks.values()), params.arch) > 127
        precisions = [
            detection_precision(binarize(maps[i]), Image(body * 255))
            for i, body in zip(masks, bodies)
        ]
        results.append((label, maps, precisions))
    _write_provenance(cfg, out_dir)
    summary = {}
    for label, maps, precisions in results:
        map_dir = out_dir / ("maps" if label == "model" else f"maps_{label}")
        map_dir.mkdir(exist_ok=True)
        for s, smap in zip(samples, maps):
            save_image(smap.to_image(), map_dir / f"{_safe_name(s.id)}.pgm")
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
