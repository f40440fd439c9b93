import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occreid.dataset import Occlusion, generate_synthetic_dataset
from occreid.errors import LengthMismatch, NonFiniteFeature, UnknownProbeIdentity
from occreid.evaluate import cmc_curve, evaluate
from occreid.model import ArchSpec, ConvSpec, extract_features, init_params, preprocess_image
from occreid.occsim import OcclusionConfig, build_occlusion_set
from occreid.rng import SplitMix64


def brute_force_cmc(probes, gallery, shots=None):
    """Exhaustive reference: plain loops, explicit min, stable sort."""
    idents = sorted(gallery)
    hits = [0] * len(idents)
    for feat, true_ident in probes:
        scored = []
        for ident in idents:
            best = None
            for g in gallery[ident]:
                d = math.sqrt(sum((a - b) ** 2 for a, b in zip(feat, g)))
                if best is None or d < best:
                    best = d
            scored.append((best, ident))
        scored.sort()
        rank = [ident for _, ident in scored].index(true_ident)
        hits[rank] += 1
    out, acc = [], 0
    for h in hits:
        acc += h
        out.append(acc / len(probes))
    return out


class TestCmcCurve:
    def test_perfect_probes_give_flat_one(self):
        gen = np.random.Generator(np.random.PCG64(7))
        gallery = {i: [gen.normal(size=3)] for i in range(4)}
        probes = [(gallery[i][0], i) for i in range(4)]
        report = cmc_curve(probes, gallery)
        assert report.cmc == (1.0, 1.0, 1.0, 1.0)
        assert report.rank1 == 100.0

    def test_adversarial_toy_half_then_full(self):
        # probe A matches at rank 1; probe B's nearest gallery is identity 1,
        # its own identity 2 only at rank 2 -> cmc = [0.5, 1.0, 1.0]
        gallery = {
            1: [np.array([0.0, 0.0])],
            2: [np.array([4.0, 0.0])],
            3: [np.array([100.0, 100.0])],
        }
        probes = [
            (np.array([0.5, 0.0]), 1),
            (np.array([1.5, 0.0]), 2),
        ]
        report = cmc_curve(probes, gallery)
        assert report.cmc == (0.5, 1.0, 1.0)

    def test_last_rank_always_one(self):
        gen = np.random.Generator(np.random.PCG64(8))
        gallery = {i: [gen.normal(size=2)] for i in range(5)}
        probes = [(gen.normal(size=2), i) for i in range(5)]
        assert cmc_curve(probes, gallery).cmc[-1] == 1.0

    def test_unknown_probe_identity(self):
        gallery = {1: [np.zeros(2)]}
        with pytest.raises(UnknownProbeIdentity):
            cmc_curve([(np.zeros(2), 9)], gallery)

    def test_monotone_nondecreasing(self):
        gen = np.random.Generator(np.random.PCG64(9))
        gallery = {i: [gen.normal(size=3) for _ in range(2)] for i in range(6)}
        probes = [(gen.normal(size=3), int(gen.integers(0, 6))) for _ in range(10)]
        cmc = cmc_curve(probes, gallery).cmc
        assert all(a <= b for a, b in zip(cmc, cmc[1:]))

    def test_gallery_insertion_order_irrelevant(self):
        gen = np.random.Generator(np.random.PCG64(10))
        feats = {i: [gen.normal(size=3) for _ in range(2)] for i in range(5)}
        probes = [(gen.normal(size=3), i) for i in range(5)]
        forward_order = cmc_curve(probes, dict(sorted(feats.items()))).cmc
        reverse_order = cmc_curve(probes, dict(sorted(feats.items(), reverse=True))).cmc
        assert forward_order == reverse_order

    def test_exact_match_ranks_first(self):
        gallery = {1: [np.array([0.0, 0.0])], 2: [np.array([5.0, 5.0])]}
        assert cmc_curve([(np.array([5.0, 5.0]), 2)], gallery).cmc == (1.0, 1.0)

    def test_tie_broken_by_lower_label(self):
        # equidistant from identities 1 and 3; the true identity 3 loses the
        # tie to the lower label and lands at rank 2
        gallery = {3: [np.array([1.0, 0.0])], 1: [np.array([-1.0, 0.0])]}
        assert cmc_curve([(np.array([0.0, 0.0]), 3)], gallery).cmc == (0.0, 1.0)

    def test_three_four_five_tie_exact_far_from_origin(self):
        # both distances are exactly 5 when computed from differences; the
        # |a|^2 + |b|^2 - 2ab expansion rounds them apart (5.29 vs 4.90)
        c = np.array([1e8 + 0.25, 3e7 + 0.5])
        gallery = {1: [c + [3.0, 4.0]], 2: [c + [4.0, 3.0]]}
        assert cmc_curve([(c, 2)], gallery).cmc == (0.0, 1.0)
        assert cmc_curve([(c, 1)], gallery).cmc == (1.0, 1.0)

    def test_two_shot_matches_hand_computation(self):
        # four identities, two 2-d features each; identity score is the min
        # of its two distances, checked against all eight explicit distances
        gallery = {
            1: [np.array([0.0, 0.0]), np.array([10.0, 10.0])],
            2: [np.array([3.0, 0.0]), np.array([0.0, 3.0])],
            3: [np.array([1.0, 1.0]), np.array([9.0, 9.0])],
            4: [np.array([-2.0, -2.0]), np.array([2.0, 2.0])],
        }
        probe = np.array([1.0, 0.0])
        dists = {
            1: min(1.0, math.sqrt(81 + 100)),
            2: min(2.0, math.sqrt(1 + 9)),
            3: min(1.0, math.sqrt(64 + 81)),
            4: min(math.sqrt(9 + 4), math.sqrt(1 + 4)),
        }
        expected = [i for _, i in sorted((d, i) for i, d in dists.items())]
        assert expected == [1, 3, 2, 4]  # frozen from the hand computation
        for rank, ident in enumerate(expected):
            cmc = cmc_curve([(probe, ident)], gallery).cmc
            assert cmc == tuple(float(r >= rank) for r in range(4))
        assert cmc_curve([(probe, 1)], gallery).shots == 2

    def test_scale_equivariance(self):
        gen = np.random.Generator(np.random.PCG64(6))
        gallery = {i: [gen.normal(size=4) for _ in range(2)] for i in range(5)}
        probes = [(gen.normal(size=4), i) for i in range(5) for _ in range(3)]
        base = cmc_curve(probes, gallery).cmc
        scaled = {i: [7.5 * g for g in v] for i, v in gallery.items()}
        assert cmc_curve([(7.5 * f, i) for f, i in probes], scaled).cmc == base

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cmc_curve([(np.zeros(1), 1)], {1: [np.zeros(2)]})
        with pytest.raises(LengthMismatch):
            cmc_curve([(np.zeros(2), 1)], {1: [np.zeros(2)], 2: [np.zeros(3)]})

    def test_empty_gallery(self):
        with pytest.raises(ValueError, match="empty gallery"):
            cmc_curve([(np.zeros(2), 1)], {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["probe", "true identity", "other identity"])
    def test_non_finite_features_rejected(self, bad, where):
        # a NaN score compares false both ways and would rank first
        probe = np.array([bad, 0.0]) if where == "probe" else np.zeros(2)
        gallery = {1: [np.ones(2)], 2: [np.full(2, 2.0)]}
        if where != "probe":
            gallery[1 if where == "true identity" else 2] = [np.array([0.0, bad])]
        with pytest.raises(NonFiniteFeature):
            cmc_curve([(probe, 1)], gallery)

    def test_uneven_gallery_names_identity(self):
        gallery = {1: [np.zeros(2), np.ones(2)], 2: [np.zeros(2)], 3: [np.ones(2)] * 2}
        with pytest.raises(ValueError, match="identity 2 "):
            cmc_curve([(np.zeros(2), 1)], gallery)

    @settings(max_examples=30, derandomize=True)
    @given(
        seed=st.integers(0, 10**6),
        n_idents=st.integers(2, 6),
        shots=st.integers(1, 3),
        n_probes=st.integers(1, 8),
    )
    def test_matches_brute_force(self, seed, n_idents, shots, n_probes):
        gen = np.random.Generator(np.random.PCG64(seed))
        gallery = {
            i: [gen.normal(size=3) for _ in range(shots)] for i in range(n_idents)
        }
        probes = [
            (gen.normal(size=3), int(gen.integers(0, n_idents))) for _ in range(n_probes)
        ]
        assert list(cmc_curve(probes, gallery).cmc) == brute_force_cmc(probes, gallery)


@pytest.fixture(scope="module")
def setup():
    samples = generate_synthetic_dataset(4, 4, 16, 24, SplitMix64(3))
    z, _ = build_occlusion_set(samples, OcclusionConfig(patch_side=6, seed=5))
    arch = ArchSpec(
        input_side=12, resize_side=14, in_channels=3, convs=(ConvSpec(4, 3, 2), ConvSpec(8, 3, 2))
    )
    params = init_params(arch, 4, 9)
    samples = samples + z
    return extract_features(params, [preprocess_image(s.image, arch) for s in samples]), samples


class TestEvaluate:
    def test_single_trial_equals_cmc_curve_path(self, setup):
        feats, samples = setup
        a = evaluate(feats, samples, (2,), trials=1, seed=42)[2]
        b = evaluate(feats, samples, (2,), trials=1, seed=42)[2]
        assert a == b
        assert a.trials == 1 and a.shots == 2
        assert len(a.per_trial_seeds) == 1

    def test_default_shape_and_seed_recording(self, setup):
        feats, samples = setup
        report = evaluate(feats, samples, (1,), trials=10, seed=3)[1]
        assert report.trials == 10
        assert len(report.per_trial_seeds) == 10
        assert len(set(report.per_trial_seeds)) == 10
        assert len(report.cmc) == 4  # gallery identity count

    def test_average_remains_nondecreasing(self, setup):
        feats, samples = setup
        for seed in range(5):
            rep = evaluate(feats, samples, (1,), trials=4, seed=seed)[1]
            assert all(a <= b + 1e-12 for a, b in zip(rep.cmc, rep.cmc[1:]))
            assert rep.cmc[-1] == pytest.approx(1.0, abs=1e-12)

    def test_rank_fields_consistent_with_curve(self, setup):
        feats, samples = setup
        rep = evaluate(feats, samples, (2,), trials=3, seed=8)[2]
        assert rep.rank1 == pytest.approx(rep.cmc[0] * 100)
        # only 4 identities: rank5/rank10 clamp to the final rank
        assert rep.rank5 == pytest.approx(rep.cmc[-1] * 100)
        assert rep.rank10 == pytest.approx(rep.cmc[-1] * 100)

    def test_averaged_curve_is_pointwise_mean_of_trials(self, setup):
        # replay each trial by hand: trial t draws its gallery with a
        # generator seeded derive_seed(derive_seed(seed, shots), t),
        # features are shared
        from occreid.dataset import make_probe_gallery
        from occreid.rng import SplitMix64, derive_seed

        feats, samples = setup
        feat_of = {s.id: feats[i] for i, s in enumerate(samples)}
        curves = []
        for t in range(3):
            pg = make_probe_gallery(samples, 1, SplitMix64(derive_seed(derive_seed(77, 1), t)))
            gallery = {i: [feat_of[s.id] for s in m] for i, m in pg.gallery.items()}
            probes = [(feat_of[s.id], s.identity) for s in pg.probes]
            curves.append(cmc_curve(probes, gallery).cmc)
        avg = evaluate(feats, samples, (1,), trials=3, seed=77)[1]
        assert np.allclose(avg.cmc, np.mean(curves, axis=0), atol=1e-15)

    def test_draws_record_each_trial_gallery(self, setup):
        from occreid.dataset import make_probe_gallery
        from occreid.rng import SplitMix64, derive_seed

        feats, samples = setup
        rep = evaluate(feats, samples, (2,), trials=3, seed=5)[2]
        assert len(rep.draws) == 3
        for t, draw in enumerate(rep.draws):
            pg = make_probe_gallery(samples, 2, SplitMix64(derive_seed(derive_seed(5, 2), t)))
            assert draw == tuple((i, tuple(s.id for s in m)) for i, m in sorted(pg.gallery.items()))
            assert rep.probe_ids == tuple(s.id for s in pg.probes)

    def test_equals_per_trial_replay(self):
        # small-integer features tie often, so the lower-label rule decides
        # many ranks; 2-d features keep the loop reference's distances exact
        from occreid.dataset import make_probe_gallery
        from occreid.rng import derive_seed

        samples = generate_synthetic_dataset(6, 10, 16, 24, SplitMix64(4))
        z, _ = build_occlusion_set(samples, OcclusionConfig(patch_side=6, seed=2))
        samples = samples + z
        shots = (1, 2, 5, 9)
        for feature_seed in range(4):
            gen = np.random.Generator(np.random.PCG64(feature_seed))
            feats = gen.integers(0, 3, (len(samples), 2)).astype(np.float64)
            feat_of = {s.id: feats[i] for i, s in enumerate(samples)}
            reports = evaluate(feats, samples, shots, trials=3, seed=11)
            assert list(reports) == list(shots)
            for n in shots:
                curves = []
                for t in range(3):
                    rng = SplitMix64(derive_seed(derive_seed(11, n), t))
                    pg = make_probe_gallery(samples, n, rng)
                    gallery = {i: [feat_of[s.id] for s in m] for i, m in pg.gallery.items()}
                    probes = [(feat_of[s.id], s.identity) for s in pg.probes]
                    curves.append(cmc_curve(probes, gallery).cmc)
                    assert list(curves[-1]) == brute_force_cmc(probes, gallery)
                want = tuple(float(v) for v in np.mean(curves, axis=0))
                assert reports[n].cmc == want, (feature_seed, n)

    def test_one_distance_matrix_for_all_shots_and_trials(self, setup, monkeypatch):
        import importlib

        evaluate_module = importlib.import_module("occreid.evaluate")  # not the function
        feats, samples = setup
        calls = []
        real = evaluate_module._distances
        monkeypatch.setattr(
            evaluate_module, "_distances", lambda g, p: calls.append(g.shape) or real(g, p)
        )
        reports = evaluate(feats, samples, (1, 2, 3), trials=4, seed=0)
        assert sorted(reports) == [1, 2, 3]
        assert len(calls) == 1

    @pytest.mark.parametrize("role", [Occlusion.ARTIFICIAL, Occlusion.FULL_BODY])
    def test_non_finite_feature_row_rejected(self, setup, role):
        # a full-body row counts even when no trial draws it into the gallery
        feats, samples = setup
        bad = feats.copy()
        bad[next(i for i, s in enumerate(samples) if s.occlusion is role), 0] = np.nan
        with pytest.raises(NonFiniteFeature):
            evaluate(bad, samples, (1,), trials=1)

    def test_feature_rows_must_match_samples(self, setup):
        feats, samples = setup
        with pytest.raises(ValueError, match="feature rows"):
            evaluate(feats[1:], samples, (1,), trials=1)
