"""Retrieval evaluation.

Probes are matched against the gallery by L2 distance between trunk
features, computed for all probe/gallery pairs as one array; the
probe-to-full-body distances do not depend on the gallery draw, so a
multi-trial run computes them once and every trial gathers its rows. An
identity's score under the multi-shot protocol is the minimum distance
over its N gallery images; a probe's rank is the number of identities
scoring below its true one, plus those tying with it under a lower
label, and a NaN or inf distance is an error. The CMC curve is the
fraction of probes whose true identity appears within the top r ranks;
multi-trial runs redraw the gallery per trial, average the curves
pointwise and keep each draw on record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import draw_gallery, gallery_pool
from .errors import NonFiniteFeature
from .rng import SplitMix64, derive_seed

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
    draws: tuple
    probe_ids: tuple

    @classmethod
    def from_curve(cls, cmc, shots, trials, seeds, draws, probe_ids) -> EvalReport:
        """Rank-k reads cmc[k - 1], clamped to the last rank."""
        cmc = tuple(float(v) for v in cmc)
        r1, r5, r10 = (cmc[min(k, len(cmc)) - 1] * 100.0 for k in (1, 5, 10))
        return cls(shots, trials, cmc, r1, r5, r10, tuple(seeds), tuple(draws), tuple(probe_ids))


def _distances(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(G, P) L2 distances between the rows of g and p, from broadcast
    differences; the expansion |a|^2 + |b|^2 - 2ab would round exact ties
    apart. A NaN or inf distance (non-finite features) is an error, since
    NaN compares false and would rank first."""
    out = np.empty((len(g), len(p)))
    step = max(1, 2**18 // max(1, p.size))  # keeps each (step, P, D) temporary near 2 MB
    for c in range(0, len(g), step):
        out[c : c + step] = np.sqrt(((g[c : c + step, None] - p[None]) ** 2).sum(-1))
    if not np.isfinite(out).all():
        raise NonFiniteFeature("probe-to-gallery distance is NaN or inf; features are not finite")
    return out


def _cmc(dist: np.ndarray, rows: np.ndarray, true_col: np.ndarray) -> np.ndarray:
    """CMC of one gallery draw over a (G, P) distance matrix.

    rows[n, i] is the dist row of identity i's n-th gallery image;
    true_col[p] is probe p's identity index.
    """
    scores = dist[rows].min(0)  # (I, P): each identity's closest image
    n_ids, n_probes = scores.shape
    true_score = scores[true_col, np.arange(n_probes)]
    lower_label = np.arange(n_ids)[:, None] < true_col
    rank = (scores < true_score).sum(0) + ((scores == true_score) & lower_label).sum(0)
    return np.cumsum(np.bincount(rank, minlength=n_ids)) / n_probes


def evaluate(features, samples, shots, trials: int = 10, seed: int = 0) -> dict:
    """Multi-trial protocol, one EvalReport per shot count in `shots`.

    Shot count n's trial t redraws the gallery with a generator seeded by
    derive_seed(derive_seed(seed, n), t); the curves are averaged
    pointwise. `features` is the (S, D) feature matrix row-aligned with
    `samples`. The probe-to-full-body distances do not depend on the draw,
    so they are computed once and every trial gathers its gallery rows.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    samples = list(samples)
    if len(features) != len(samples):
        raise ValueError(f"{len(features)} feature rows for {len(samples)} samples")
    fulls, probes = gallery_pool(samples)
    seeds = {n: [derive_seed(derive_seed(seed, n), t) for t in range(trials)] for n in shots}
    draws = {n: [draw_gallery(fulls, n, SplitMix64(s)) for s in seeds[n]] for n in shots}
    if not draws:
        return {}
    if not probes:
        raise ValueError("no probes")
    true_col = np.searchsorted(list(fulls), [samples[i].identity for i in probes])
    full = sorted(i for members in fulls.values() for i in members)  # the distance rows
    feats = np.asarray(features, dtype=np.float64)
    dist = _distances(feats[full], feats[probes])
    probe_ids = [samples[i].id for i in probes]
    reports = {}
    for n, galleries in draws.items():
        # (I, N) drawn sample indices -> (N, I) distance rows
        curves = [_cmc(dist, np.searchsorted(full, list(g.values())).T, true_col)
                  for g in galleries]
        manifest = [tuple((i, tuple(samples[k].id for k in g[i])) for i in g) for g in galleries]
        reports[n] = EvalReport.from_curve(
            np.mean(curves, axis=0), n, trials, seeds[n], manifest, probe_ids
        )
    return reports
