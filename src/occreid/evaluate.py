"""Retrieval evaluation.

Probes are matched against the gallery by L2 distance between trunk
features, computed for all probe/gallery pairs as one array. An
identity's score under the multi-shot protocol is the minimum distance
over its N gallery images (or, optionally, the mean); a probe's rank is
the number of identities scoring below its true one, plus those tying
with it under a lower label, and a NaN or inf distance is an error. The
CMC curve is the fraction of probes whose true identity appears within
the top r ranks; multi-trial runs redraw the gallery per trial, average
the curves pointwise and keep each draw on record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import make_probe_gallery
from .errors import LengthMismatch, NonFiniteFeature, UnknownProbeIdentity
from .rng import SplitMix64, derive_seed

AGGREGATES = ("min", "mean")


@dataclass(frozen=True)
class EvalReport:
    """CMC curve plus the rank-1/5/10 summary, averaged over trials.

    `draws` holds one ((identity, gallery sample ids), ...) tuple per
    trial in ascending identity order; `probe_ids` the probes every
    trial ranks.
    """

    shots: int
    trials: int
    cmc: tuple
    rank1: float
    rank5: float
    rank10: float
    per_trial_seeds: tuple
    draws: tuple = ()
    probe_ids: tuple = ()

    @classmethod
    def from_curve(cls, cmc, shots, trials, seeds=(), draws=(), probe_ids=()) -> EvalReport:
        """Rank-k reads cmc[k - 1], clamped to the last rank."""
        cmc = tuple(float(v) for v in cmc)
        r1, r5, r10 = (cmc[min(k, len(cmc)) - 1] * 100.0 for k in (1, 5, 10))
        return cls(shots, trials, cmc, r1, r5, r10, tuple(seeds), tuple(draws), tuple(probe_ids))


def cmc_curve(probes, gallery: dict, aggregate: str = "min") -> EvalReport:
    """Single-trial CMC over (feature, identity) probes against a gallery
    mapping each identity to an equal number of features.

    cmc[r] is the fraction of probes whose true identity sits at rank
    <= r + 1; the last entry is always 1 because every identity is ranked.
    """
    if aggregate not in AGGREGATES:
        raise ValueError(f"aggregate must be one of {AGGREGATES}, got {aggregate!r}")
    if not probes:
        raise ValueError("no probes")
    labels = sorted(gallery)
    if not labels or not len(gallery[labels[0]]):
        raise ValueError("empty gallery")
    shots = len(gallery[labels[0]])
    for ident in labels:
        if len(gallery[ident]) != shots:
            raise ValueError(
                f"identity {ident} has {len(gallery[ident])} gallery images, "
                f"identity {labels[0]} has {shots}; galleries must be even"
            )
    column = {ident: j for j, ident in enumerate(labels)}
    for _, ident in probes:
        if ident not in column:
            raise UnknownProbeIdentity(f"probe identity {ident} not in gallery")
    shapes = {np.shape(f) for ident in labels for f in gallery[ident]}
    shapes |= {np.shape(f) for f, _ in probes}
    if len(shapes) > 1:
        raise LengthMismatch(f"feature lengths differ: {sorted(shapes)}")

    # shot-major (N, I, D): reducing the leading axis adds the N distances
    # in gallery order, as a sequential sum does; numpy sums a last axis of
    # 8 or more terms pairwise, which rounds the mean differently
    g = np.asarray([gallery[ident] for ident in labels], dtype=np.float64).transpose(1, 0, 2)
    p = np.asarray([f for f, _ in probes], dtype=np.float64)
    scores = np.empty((len(p), len(labels)))
    step = max(1, 2**18 // g.size)  # keeps each (N, step, I, D) temporary near 2 MB
    for c in range(0, len(p), step):
        dist = np.sqrt(((p[None, c : c + step, None] - g[:, None]) ** 2).sum(-1))
        scores[c : c + step] = dist.min(0) if aggregate == "min" else dist.mean(0)
    if not np.isfinite(scores).all():  # NaN would compare false and rank first
        raise NonFiniteFeature("probe-to-gallery distance is NaN or inf; features are not finite")

    true_col = np.array([column[ident] for _, ident in probes])
    true_score = scores[np.arange(len(p)), true_col][:, None]
    lower_label = np.arange(len(labels)) < true_col[:, None]
    rank = (scores < true_score).sum(1) + ((scores == true_score) & lower_label).sum(1)
    cmc = np.cumsum(np.bincount(rank, minlength=len(labels))) / len(p)
    return EvalReport.from_curve(cmc, shots, 1)


def evaluate(
    features,
    samples,
    shots: int,
    trials: int = 10,
    seed: int = 0,
    aggregate: str = "min",
) -> EvalReport:
    """Multi-trial protocol: trial t redraws the gallery with a generator
    seeded by derive_seed(seed, t) and the curves are averaged pointwise.

    `features` is the (S, D) feature matrix row-aligned with `samples`,
    shared across trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    samples = list(samples)
    if len(features) != len(samples):
        raise ValueError(f"{len(features)} feature rows for {len(samples)} samples")
    row = {s.id: i for i, s in enumerate(samples)}
    curves, seeds, draws = [], [], []
    for t in range(trials):
        seeds.append(derive_seed(seed, t))
        pg = make_probe_gallery(samples, shots, SplitMix64(seeds[-1]))
        gallery = {ident: [features[row[s.id]] for s in m] for ident, m in pg.gallery.items()}
        probes = [(features[row[s.id]], s.identity) for s in pg.probes]
        curves.append(cmc_curve(probes, gallery, aggregate).cmc)
        draws.append(tuple((ident, tuple(s.id for s in m)) for ident, m in pg.gallery.items()))
    probe_ids = [s.id for s in pg.probes]
    return EvalReport.from_curve(np.mean(curves, axis=0), shots, trials, seeds, draws, probe_ids)
