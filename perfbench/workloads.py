"""The benchmark's workloads: inputs made from a seed, one timed job, and an
output check that does not go through the timed code path.

Each workload object is built from ``(seed, size)``, where size is
``"full"`` for measured runs or ``"tiny"`` for the self-check. ``setup``
makes the inputs under a work directory; ``job`` makes one batch of calls
into ``occreid.pipeline`` and returns a ``JobResult``; ``check`` returns a
list of problems found in that job's outputs (empty when correct).
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import time
from collections import Counter
from pathlib import Path

import numpy as np

from occreid import pipeline
from occreid.config import ExperimentConfig
from occreid.dataset import generate_synthetic_dataset, make_probe_gallery
from occreid.model import (
    ArchSpec,
    ConvSpec,
    extract_features,
    init_params,
    load_checkpoint,
    preprocess_image,
    save_checkpoint,
)
from occreid.rng import SplitMix64, derive_seed

REGIMES = (("baseline", 0, 0), ("os_only", 1, 0), ("obc_only", 0, 1), ("full", 1, 1))
TOL = 1e-9


@dataclasses.dataclass
class JobResult:
    items: int  # units of the workload's throughput metric
    seconds: float  # wall time of those calls
    value: object = None  # what the calls returned, for the check


def acceptance_config(seed: int) -> ExperimentConfig:
    """The acceptance suite's desk-scale setup (20 x 10 synthetic identities,
    conv 16/32/64, alpha 0.9, per-epoch occlusion regeneration, probe
    occluders from the whole image), before per-workload sizing."""
    cfg = ExperimentConfig()
    cfg.dataset.identities = 20
    cfg.dataset.per_identity = 10
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


def arch_of(cfg: ExperimentConfig) -> ArchSpec:
    t = cfg.train
    convs = tuple(ConvSpec(c, t.kernel, t.stride) for c in t.conv_channels)
    return ArchSpec(t.input_side, t.resize_side, 3, convs)


def train_identities(cfg: ExperimentConfig, identities: int) -> int:
    """Train-side identity count of the split: round half up, at least one
    identity on each side."""
    return min(max(math.floor(identities * cfg.dataset.split_fraction + 0.5), 1), identities - 1)


def write_checkpoint(cfg: ExperimentConfig, classes: int, path: Path) -> None:
    save_checkpoint(init_params(arch_of(cfg), classes, derive_seed(cfg.run.seed, 900)), path)


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def fresh_files(d: Path, since_ns: int) -> list:
    """Files in d written at or after since_ns: job directories are reused,
    so older files are leftovers of an earlier run."""
    return sorted(p for p in d.iterdir() if p.stat().st_mtime_ns >= since_ns)


def read_fresh(path: Path, since_ns: int) -> bytes:
    if path.stat().st_mtime_ns < since_ns:
        raise ValueError(f"{path.name}: not written by this job")
    return path.read_bytes()


# --- netpbm codec owned by the benchmark, independent of occreid.imaging ---

_PNM_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s")


def write_pnm(path: Path, pixels: np.ndarray) -> None:
    """Write in place when the file exists: truncating would free its blocks
    and allocate new ones, which costs more, and varies more from run to run,
    than the write itself."""
    h, w, c = pixels.shape
    try:
        f = open(path, "r+b")
    except FileNotFoundError:
        f = open(path, "wb")
    with f:
        f.write(b"%s\n%d %d\n255\n" % (b"P6" if c == 3 else b"P5", w, h) + pixels.tobytes())
        f.truncate()


def read_pnm(path: Path, since_ns: int) -> np.ndarray:
    """(h, w, c) uint8 pixels; ValueError when the file is not a complete
    8-bit P5/P6 image or was not written since since_ns."""
    data = read_fresh(path, since_ns)
    m = _PNM_HEADER.match(data)
    if m is None or int(m.group(4)) != 255:
        raise ValueError(f"{path.name}: not an 8-bit P5/P6 file")
    c = 3 if m.group(1) == b"P6" else 1
    w, h = int(m.group(2)), int(m.group(3))
    payload = data[m.end() :]
    if len(payload) != w * h * c:
        raise ValueError(f"{path.name}: payload is {len(payload)} bytes, expected {w * h * c}")
    return np.frombuffer(payload, np.uint8).reshape(h, w, c)


def read_tsv(path: Path, since_ns: int) -> tuple[list, dict]:
    """Data rows split on tabs, plus '# key<TAB>value' trailer lines."""
    rows, notes = [], {}
    for line in read_fresh(path, since_ns).decode("utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("\t")
            notes[key] = value
        elif line:
            rows.append(line.split("\t"))
    return rows, notes


def safe_name(sample_id: str) -> str:
    """File stem the pipeline gives a sample's output."""
    return sample_id.replace("/", "_").replace("#", "_")


def check_cmc(cmc, where: str) -> list:
    cmc = np.asarray(cmc, dtype=np.float64)
    problems = []
    if cmc.size == 0 or not np.all(np.isfinite(cmc)):
        problems.append(f"{where}: CMC empty or not finite")
    elif np.any(np.diff(cmc) < -TOL) or abs(cmc[-1] - 1.0) > TOL:
        problems.append(f"{where}: CMC not nondecreasing to 1.0")
    return problems


class Workload:
    name = ""
    ops_per_job = 1  # pipeline calls one job makes
    test_images = 0  # distinct (model, test image) pairs one job feeds forward

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        """Untimed, untraced reference data for the check, made once after set-up."""

    def job(self, out: Path) -> JobResult:
        raise NotImplementedError

    def check(self, out: Path, res: JobResult, since_ns: int) -> list:
        """Problems in the outputs under out; files older than since_ns
        do not count as outputs."""
        raise NotImplementedError


class AblationGrid(Workload):
    """``pipeline.run_ablation``: four regimes trained and evaluated."""

    name = "ablation-grid"
    SIZES = {"full": dict(identities=20, per_identity=10, iterations=50, trials=10),
             "tiny": dict(identities=4, per_identity=4, iterations=2, trials=2)}

    def __init__(self, seed: int, size: str):
        s = self.SIZES[size]
        self.cfg = acceptance_config(seed)
        self.cfg.dataset.identities = s["identities"]
        self.cfg.dataset.per_identity = s["per_identity"]
        self.cfg.train.iterations = s["iterations"]
        self.cfg.eval.trials = s["trials"]
        self.cfg.run.jobs = len(os.sched_getaffinity(0))  # nproc

    def setup(self, work: Path) -> None:
        data = pipeline.prepare_experiment(self.cfg)
        # every regime evaluates its own model on the same test images
        self.test_images = len(REGIMES) * len(data.test_samples)

    def job(self, out: Path) -> JobResult:
        results, seconds = timed(pipeline.run_ablation, self.cfg, out)
        t = self.cfg.train
        return JobResult(len(REGIMES) * t.iterations * t.batch_size, seconds, results)

    def check(self, out: Path, res: JobResult, since_ns: int) -> list:
        shots = self.cfg.eval.shots
        rows, _ = read_tsv(out / "ablation.tsv", since_ns)
        want = {(name, str(os_), str(obc), str(n)) for name, os_, obc in REGIMES for n in shots}
        got = {tuple(r[:4]) for r in rows}
        problems = []
        if got != want or len(rows) != len(want):
            problems.append("ablation.tsv: rows do not cover regimes x shots once")
        for r in rows:
            vals = [float(v) for v in r[4:7]]
            if len(vals) != 3 or not all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in vals):
                problems.append(f"ablation.tsv: rank-1/5/10 out of [0, 100] in {r}")
        for name, _, _ in REGIMES:
            for n in shots:
                rep = res.value.get(name, {}).get(n)
                if rep is None:
                    problems.append(f"{name} N={n}: no report returned")
                    continue
                problems += check_cmc(rep.cmc, f"{name} N={n}")
        return problems


class EvalMultishot(Workload):
    """``pipeline.run_eval`` of a checkpoint written during set-up."""

    name = "eval-multishot"
    SIZES = {"full": dict(identities=100, per_identity=10, trials=3),
             "tiny": dict(identities=6, per_identity=6, trials=2)}

    def __init__(self, seed: int, size: str):
        s = self.SIZES[size]
        self.cfg = acceptance_config(seed)
        self.cfg.dataset.identities = s["identities"]
        self.cfg.dataset.per_identity = s["per_identity"]
        self.cfg.eval.shots = (1, 2, 5)
        self.cfg.eval.trials = s["trials"]
        self.ckpt = None
        self.expected = None

    def setup(self, work: Path) -> None:
        """Checkpoint, plus the test samples and their features for the oracle."""
        self.ckpt = work / "checkpoint.bin"
        classes = train_identities(self.cfg, self.cfg.dataset.identities)
        write_checkpoint(self.cfg, classes, self.ckpt)
        params = load_checkpoint(self.ckpt)
        self.samples = pipeline.prepare_experiment(self.cfg).test_samples
        prepped = [preprocess_image(s.image, params.arch) for s in self.samples]
        self.features = extract_features(params, prepped)
        self.test_images = len(self.samples)

    def reference(self) -> None:
        self.expected = self.oracle()

    def oracle(self) -> dict:
        """Per shot count: mean CMC, trial seeds, gallery manifest rows and
        probe count, from the replayed draws and one (P x I x N) distance
        array per trial (min over N; ties ranked by ascending label)."""
        feat_of = {s.id: i for i, s in enumerate(self.samples)}
        expected = {}
        for n in self.cfg.eval.shots:
            seed_n = derive_seed(derive_seed(self.cfg.run.seed, pipeline.TAG_EVAL), n)
            curves, seeds, manifest = [], [], []
            for t in range(self.cfg.eval.trials):
                trial_seed = derive_seed(seed_n, t)
                pg = make_probe_gallery(self.samples, n, SplitMix64(trial_seed))
                labels = np.array(sorted(pg.gallery))
                gallery = self.features[[[feat_of[s.id] for s in pg.gallery[i]] for i in labels]]
                probes = self.features[[feat_of[s.id] for s in pg.probes]]
                truth = np.array([s.identity for s in pg.probes])
                scores = np.empty((len(probes), len(labels)))
                for c in range(0, len(probes), 64):
                    diff = probes[c : c + 64, None, None, :] - gallery[None]
                    scores[c : c + 64] = np.sqrt((diff**2).sum(-1)).min(-1)
                true_score = scores[np.arange(len(probes)), np.searchsorted(labels, truth)][:, None]
                rank = (scores < true_score).sum(1) + (
                    (scores == true_score) & (labels[None] < truth[:, None])
                ).sum(1)
                curves.append(np.cumsum(np.bincount(rank, minlength=len(labels))) / len(probes))
                seeds.append(trial_seed)
                manifest += [
                    [str(t), str(trial_seed), str(i), ",".join(s.id for s in pg.gallery[i])]
                    for i in labels
                ]
            expected[n] = (np.mean(curves, axis=0), tuple(seeds), manifest, len(probes))
        return expected

    def job(self, out: Path) -> JobResult:
        reports, seconds = timed(pipeline.run_eval, self.cfg, self.ckpt, out)
        probes = sum(e[3] for e in self.expected.values())
        return JobResult(probes * self.cfg.eval.trials, seconds, reports)

    def check(self, out: Path, res: JobResult, since_ns: int) -> list:
        problems = []
        summary, _ = read_tsv(out / "summary.tsv", since_ns)
        if [r[0] for r in summary] != [str(n) for n in sorted(self.cfg.eval.shots)]:
            problems.append("summary.tsv: one row per shot count expected")
        for n, (cmc, seeds, manifest, _) in self.expected.items():
            rep = res.value.get(n)
            if rep is None:
                problems.append(f"N={n}: no report returned")
                continue
            got = np.asarray(rep.cmc, dtype=np.float64)
            if got.shape != cmc.shape or np.max(np.abs(got - cmc)) > TOL:
                problems.append(f"N={n}: mean CMC differs from the oracle")
            ranks = [rep.rank1, rep.rank5, rep.rank10]
            want = [cmc[min(k, len(cmc)) - 1] * 100.0 for k in (1, 5, 10)]
            if np.max(np.abs(np.subtract(ranks, want))) > 100 * TOL:
                problems.append(f"N={n}: rank-1/5/10 differ from the oracle")
            if tuple(rep.per_trial_seeds) != seeds:
                problems.append(f"N={n}: trial seeds differ from the replayed derivation")
            rows, _ = read_tsv(out / f"cmc_n{n}.tsv", since_ns)
            if len(rows) != len(cmc) or np.max(np.abs([float(r[1]) for r in rows] - cmc)) > TOL:
                problems.append(f"cmc_n{n}.tsv differs from the oracle")
            rows, _ = read_tsv(out / f"gallery_n{n}.tsv", since_ns)
            if rows != manifest:
                problems.append(f"gallery_n{n}.tsv differs from the replayed draws")
        return problems


class SimulateSaliency(Workload):
    """``pipeline.run_simulate`` then ``pipeline.run_saliency`` over an
    on-disk dataset with whole/ and occluded/ branches and body masks."""

    name = "simulate-saliency"
    ops_per_job = 2
    SIZES = {"full": dict(identities=400, whole=5, occluded=5),
             "tiny": dict(identities=4, whole=3, occluded=3)}
    WIDTH, HEIGHT = 32, 64

    def __init__(self, seed: int, size: str):
        self.size = self.SIZES[size]
        self.cfg = acceptance_config(seed)
        self.cfg.run.jobs = 1
        self.ckpt = None

    def body_mask(self) -> np.ndarray:
        """Central body rectangle: below the top background band, the torso's
        width, down to the feet."""
        w, h = self.WIDTH, self.HEIGHT
        mask = np.zeros((h, w, 1), np.uint8)
        half = round(0.34 * w)
        mask[round(0.25 * h) : round(0.95 * h), w // 2 - half : w // 2 + half] = 255
        return mask

    def setup(self, work: Path) -> None:
        """Synthetic persons written as whole/<id>/<j>.ppm, occluded copies
        (a solid block over the body, drawn by the benchmark) as
        occluded/<id>/<j>.ppm, a .mask.pgm beside every image, and a
        checkpoint."""
        s = self.size
        seed = self.cfg.run.seed
        root = work / "dataset"
        self.cfg.dataset.root = str(root)
        persons = generate_synthetic_dataset(
            s["identities"], s["whole"], self.WIDTH, self.HEIGHT, SplitMix64(seed)
        )
        draw = np.random.default_rng(seed)
        mask = self.body_mask()
        self.sources = {}
        written = set()
        for p in persons:
            j = int(p.id.rsplit("_", 1)[1])
            images = [("whole", p.image.pixels)]
            if j < s["occluded"]:
                block = p.image.pixels.copy()
                bw, bh = draw.integers(8, 20), draw.integers(12, 30)
                x, y = draw.integers(0, self.WIDTH - bw), draw.integers(16, self.HEIGHT - bh)
                block[y : y + bh, x : x + bw] = draw.integers(0, 256, 3)
                images.append(("occluded", block))
            for branch, pixels in images:
                d = root / branch / f"{p.identity:04d}"
                d.mkdir(parents=True, exist_ok=True)
                write_pnm(d / f"{j:02d}.ppm", pixels)
                write_pnm(d / f"{j:02d}.mask.pgm", mask)
                written.update((d / f"{j:02d}.ppm", d / f"{j:02d}.mask.pgm"))
                if branch == "whole":
                    self.sources[f"whole/{p.identity:04d}/{j:02d}.ppm"] = pixels
        # the directory is reused across runs; drop what an earlier size left
        for p in sorted(root.rglob("*"), reverse=True):
            if p.is_dir() and not any(p.iterdir()):
                p.rmdir()
            elif p.is_file() and p not in written:
                p.unlink()
        test_ids = s["identities"] - train_identities(self.cfg, s["identities"])
        self.maps_per_identity = s["whole"] + min(s["whole"], s["occluded"])
        self.test_images = test_ids * self.maps_per_identity
        self.test_identities = test_ids
        self.ckpt = work / "checkpoint.bin"
        write_checkpoint(self.cfg, s["identities"] - test_ids, self.ckpt)

    def job(self, out: Path) -> JobResult:
        sim, t_sim = timed(pipeline.run_simulate, self.cfg, out / "simulate")
        sal, t_sal = timed(pipeline.run_saliency, self.cfg, self.ckpt, out / "saliency")
        maps = sal["model"]["maps"]
        return JobResult(sim["count"] + maps, t_sim + t_sal, (sim, sal))

    def check(self, out: Path, res: JobResult, since_ns: int) -> list:
        sim, sal = res.value
        return self._check_simulate(out / "simulate", sim, since_ns) + self._check_saliency(
            out / "saliency", sal, since_ns
        )

    def _check_simulate(self, out: Path, summary: dict, since_ns: int) -> list:
        occ = self.cfg.occlusion
        w, h = self.WIDTH, self.HEIGHT
        rows, _ = read_tsv(out / "manifest.tsv", since_ns)
        problems = []
        if summary["count"] != len(self.sources) or len(rows) != len(self.sources):
            problems.append(f"simulate: {len(rows)} rows for {len(self.sources)} whole images")
        if {r[0] for r in rows} != set(self.sources):
            problems.append("simulate: manifest sources are not the whole images")
            return problems
        ratios = []
        for r in rows:
            tx, ty, tw, th = (int(v) for v in r[6:10])
            ratio = float(r[10])
            ratios.append(ratio)
            # rounding each side to whole pixels moves it by at most 0.5
            lo, hi = occ.ratio_lo * w * h, occ.ratio_hi * w * h
            in_band = (tw - 0.5) * (th - 0.5) <= hi and (tw + 0.5) * (th + 0.5) >= lo
            if abs(ratio - tw * th / (w * h)) > TOL or not in_band:
                problems.append(f"simulate: {r[0]} area ratio {ratio} outside the configured band")
            try:
                img = read_pnm(out / "images" / f"{safe_name(r[0] + '#occ')}.ppm", since_ns)
            except (OSError, ValueError) as e:
                problems.append(f"simulate: {e}")
                continue
            if img.shape != (h, w, 3):
                problems.append(f"simulate: {r[0]} decoded as {img.shape}")
                continue
            outside = np.ones((h, w), bool)
            outside[ty : ty + th, tx : tx + tw] = False
            if not np.array_equal(img[outside], self.sources[r[0]][outside]):
                problems.append(f"simulate: {r[0]} changed outside its target rectangle")
        if len(fresh_files(out / "images", since_ns)) != len(self.sources):
            problems.append("simulate: image count differs from the whole-image count")
        if ratios and abs(summary["mean_area_ratio"] - float(np.mean(ratios))) > TOL:
            problems.append("simulate: mean area ratio differs from the manifest")
        return problems

    def _check_saliency(self, out: Path, summary: dict, since_ns: int) -> list:
        side = self.cfg.train.input_side
        rows, notes = read_tsv(out / "precision_model.tsv", since_ns)
        problems = []
        if summary["model"]["maps"] != self.test_images or len(rows) != self.test_images:
            problems.append(f"saliency: {len(rows)} precision rows, {self.test_images} test samples")
        ids = [r[0] for r in rows]
        per_identity = Counter(sid.split("/")[1] for sid in ids)
        if len(set(ids)) != len(ids) or len(per_identity) != self.test_identities or any(
            c != self.maps_per_identity for c in per_identity.values()
        ):
            problems.append("saliency: rows are not one per test sample")
        precisions = np.array([float(r[1]) for r in rows])
        if not np.all((precisions >= 0.0) & (precisions <= 1.0)):
            problems.append("saliency: precision outside [0, 1]")
        mean = summary["model"]["mean_precision"]
        reported = float(notes["per_image_mean"]) if rows else mean
        if rows and (abs(mean - precisions.mean()) > TOL or abs(reported - mean) > TOL):
            problems.append("saliency: mean precision differs from the rows")
        maps = fresh_files(out / "maps", since_ns)
        if [p.name for p in maps] != sorted(f"{safe_name(sid)}.pgm" for sid in ids):
            problems.append("saliency: map files are not one per test sample")
        for p in maps:
            try:
                m = read_pnm(p, since_ns)
            except (OSError, ValueError) as e:
                problems.append(f"saliency: {e}")
                continue
            # min-max normalised: spans 0..255 unless the map is constant
            if m.shape != (side, side, 1) or m.min() != 0 or m.max() not in (0, 255):
                problems.append(f"saliency: {p.name} is not a normalised {side}x{side} map")
        return problems


WORKLOADS = {w.name: w for w in (AblationGrid, EvalMultishot, SimulateSaliency)}
