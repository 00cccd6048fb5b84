import collections
from types import SimpleNamespace

import numpy as np
import pytest

from l0landscape import (
    Instance,
    PointKind,
    StabilityVerdict,
    ValidationError,
    default_probe_epsilon,
    enumerate_stationary,
    perturb_instance,
    probe_strong_stability,
)
from l0landscape.stability import _near_stationary_points
from l0landscape.util import spawn_seed

from _oracles import (
    LANDSCAPES,
    landscape_instance,
    min_gap_pairwise,
    near_points_by_enumeration,
    random_instance,
)


def report_of(xs):
    """The part of a landscape report that ``default_probe_epsilon`` reads."""
    return SimpleNamespace(points=[SimpleNamespace(x=x) for x in xs])


def data_distance(a: Instance, b: Instance) -> float:
    return float(np.sqrt(np.sum((a.A - b.A) ** 2) + np.sum((a.b - b.b) ** 2)))


def test_negative_delta_rejected(saddle_instance):
    with pytest.raises(ValidationError, match="delta must be finite and nonnegative, got -1.0"):
        perturb_instance(saddle_instance, -1.0, 0)


class TestPerturbInstance:
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_radius(self, saddle_instance, seed):
        perturbed = perturb_instance(saddle_instance, 0.37, seed)
        assert data_distance(saddle_instance, perturbed) == pytest.approx(0.37, abs=1e-12)

    def test_seed_determinism(self, saddle_instance):
        a = perturb_instance(saddle_instance, 1e-2, 123)
        b = perturb_instance(saddle_instance, 1e-2, 123)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.b, b.b)

    def test_paper_mode_shifts_measurements_uniformly(self, instability_original):
        eps = 0.1
        perturbed = perturb_instance(
            instability_original, eps * np.sqrt(2.0), 0, paper_mode=True)
        np.testing.assert_array_equal(perturbed.A, instability_original.A)
        np.testing.assert_allclose(perturbed.b, [eps, eps], atol=1e-15)

    def test_zero_delta_is_identity(self, saddle_instance):
        perturbed = perturb_instance(saddle_instance, 0.0, 5)
        np.testing.assert_array_equal(perturbed.A, saddle_instance.A)
        np.testing.assert_array_equal(perturbed.b, saddle_instance.b)


class TestProbeStrongStability:
    CFG = dict(epsilon=0.02, delta=1e-3, trials=50, seed=11)

    def test_degenerate_origin_is_unstable(self, instability_original):
        rep = enumerate_stationary(instability_original)
        probe = probe_strong_stability(instability_original, rep.points[0], **self.CFG)
        assert probe.verdict is StabilityVerdict.UNSTABLE
        assert not probe.nondegenerate_expected
        assert probe.agreement

    def test_degenerate_origin_unstable_in_paper_mode(self, instability_original):
        rep = enumerate_stationary(instability_original)
        probe = probe_strong_stability(instability_original, rep.points[0], epsilon=0.02,
                                       delta=1e-3, trials=5, seed=1, paper_mode=True)
        assert probe.verdict is StabilityVerdict.UNSTABLE
        assert probe.exists_count == 5  # the bifurcated points stay nearby
        assert probe.unique_count == 0

    def test_perturbed_points_all_stable(self, instability_perturbed):
        rep = enumerate_stationary(instability_perturbed)
        assert len(rep.points) == 3
        for p in rep.points:
            probe = probe_strong_stability(instability_perturbed, p, **self.CFG)
            assert probe.verdict is StabilityVerdict.STABLE
            assert probe.exists_count == probe.trials
            assert probe.unique_count == probe.trials
            assert probe.agreement

    def test_zero_delta_counts_everything(self, saddle_instance):
        rep = enumerate_stationary(saddle_instance)
        minimizer = [p for p in rep.points if p.kind is PointKind.LOCAL_MINIMIZER][0]
        probe = probe_strong_stability(saddle_instance, minimizer, epsilon=0.02, delta=0.0,
                                       trials=7, seed=2)
        assert probe.exists_count == 7
        assert probe.unique_count == 7
        assert probe.verdict is StabilityVerdict.STABLE

    def test_unique_count_never_exceeds_exists_count(self, complementarity_instance):
        rep = enumerate_stationary(complementarity_instance)
        for p in rep.points:
            probe = probe_strong_stability(complementarity_instance, p, **self.CFG)
            assert probe.unique_count <= probe.exists_count <= probe.trials

    def test_determinism(self, instability_perturbed):
        rep = enumerate_stationary(instability_perturbed)
        a = probe_strong_stability(instability_perturbed, rep.points[0], **self.CFG)
        b = probe_strong_stability(instability_perturbed, rep.points[0], **self.CFG)
        assert a.to_dict() == b.to_dict()

    def test_sample_capped_at_ten_trials(self, instability_perturbed):
        rep = enumerate_stationary(instability_perturbed)
        probe = probe_strong_stability(instability_perturbed, rep.points[0], **self.CFG)
        assert len(probe.perturbed_points_sample) == 10

    def test_config_validation(self, saddle_instance):
        # The arguments are checked in the order epsilon, delta, trials, seed.
        point = enumerate_stationary(saddle_instance).points[0]
        for epsilon, delta, trials, message in [
            (0.0, -1.0, 0, "epsilon must be finite and positive, got 0.0"),
            (0.1, -1.0, 0, "delta must be finite and nonnegative, got -1.0"),
            (0.1, 1e-3, 0, "trials must be at least 1, got 0"),
            (0.1, 1e-3, 5, "seed must be nonnegative, got -1"),
        ]:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                probe_strong_stability(saddle_instance, point, epsilon=epsilon, delta=delta,
                                       trials=trials, seed=-1)

    @pytest.mark.parametrize("epsilon, delta, message", [
        (np.inf, 1e-3, "epsilon must be finite and positive, got inf"),
        (np.nan, 1e-3, "epsilon must be finite and positive, got nan"),
        (0.1, np.inf, "delta must be finite and nonnegative, got inf"),
        (0.1, np.nan, "delta must be finite and nonnegative, got nan"),
    ])
    def test_config_rejects_non_finite_radii(self, saddle_instance, epsilon, delta, message):
        point = enumerate_stationary(saddle_instance).points[0]
        with pytest.raises(ValidationError, match=f"^{message}$"):
            probe_strong_stability(saddle_instance, point, epsilon=epsilon, delta=delta,
                                   trials=5, seed=1)


class TestAgreementProperty:
    def test_nondegenerate_points_probe_stable_on_random_instances(self):
        rng = np.random.default_rng(2718)
        shapes = [(3, 4, 1), (4, 5, 2), (2, 3, 1)]
        instances_checked = 0
        attempt = 0
        while instances_checked < 200:
            m, n, s = shapes[attempt % len(shapes)]
            attempt += 1
            inst = random_instance(rng, m, n, s)
            rep = enumerate_stationary(inst)
            if rep.degenerate or rep.continuum_detected:
                continue
            min_entry = min(
                (abs(v) for p in rep.points for v in p.x[list(p.support)]),
                default=1.0,
            )
            min_nd1 = min(
                (p.nd1_min_abs for p in rep.points if np.isfinite(p.nd1_min_abs)),
                default=1.0,
            )
            epsilon = default_probe_epsilon(rep)
            # a delta-perturbation moves a stationary point by up to about
            # ||pinv(A_S)|| * (1 + ||x||) * delta, so shrink delta accordingly
            sigma_min = min(
                (float(np.linalg.svd(inst.A[:, list(p.support)],
                                     compute_uv=False)[-1])
                 for p in rep.points if p.support),
                default=1.0,
            )
            x_max = max(float(np.linalg.norm(p.x)) for p in rep.points)
            delta = min(
                1e-3 * min(min_entry, min_nd1),
                0.1 * epsilon * sigma_min / (1.0 + x_max),
            )
            for p in rep.points:
                probe = probe_strong_stability(inst, p, epsilon=epsilon, delta=delta, trials=5,
                                               seed=instances_checked)
                assert probe.verdict is StabilityVerdict.STABLE
                assert probe.agreement
            instances_checked += 1

    def test_unique_nearby_point_keeps_the_support(self):
        rng = np.random.default_rng(31415)
        inst = random_instance(rng, 3, 4, 1)
        rep = enumerate_stationary(inst)
        assert rep.degenerate == 0
        epsilon = default_probe_epsilon(rep)
        for p in rep.points:
            for trial in range(10):
                perturbed = perturb_instance(inst, 1e-5, spawn_seed(9, trial))
                nearby = [
                    q for q in enumerate_stationary(perturbed).points
                    if np.linalg.norm(q.x - p.x) <= epsilon
                ]
                assert len(nearby) == 1
                assert nearby[0].support == p.support


class TestDefaultEpsilon:
    def test_quarter_of_min_gap(self, instability_perturbed):
        rep = enumerate_stationary(instability_perturbed)
        # closest pair: (0.1, 0) and (0, 0) at distance 0.1
        assert default_probe_epsilon(rep) == pytest.approx(0.025)

    def test_single_point_fallback(self, instability_original):
        rep = enumerate_stationary(instability_original)
        assert default_probe_epsilon(rep) == pytest.approx(1e-2)

    @pytest.mark.parametrize("shape, variant, seed", LANDSCAPES)
    def test_equals_quarter_of_pairwise_min_gap(self, shape, variant, seed):
        rep = enumerate_stationary(landscape_instance(shape, variant, seed))
        assert default_probe_epsilon(rep) == 0.25 * min_gap_pairwise(
            [p.x for p in rep.points])

    def test_two_points(self):
        # A zero column collapses its support onto the origin: P = 2.
        rep = enumerate_stationary(Instance.from_arrays([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.5], 1))
        assert len(rep.points) == 2
        assert default_probe_epsilon(rep) == 0.25 * min_gap_pairwise(
            [p.x for p in rep.points]) == 0.25

    def test_closest_pair_has_equal_norms(self):
        # The closest pair lies on the unit circle; the origin and the far
        # point are farther from everything.
        xs = [np.array(x) for x in
              [(0.0, 0.0), (1.0, 0.0), (0.8, 0.6), (-1.0, 0.0), (0.0, -1.0), (3.0, 4.0)]]
        assert default_probe_epsilon(report_of(xs)) == 0.25 * min_gap_pairwise(xs)
        assert default_probe_epsilon(report_of(xs[::-1])) == 0.25 * min_gap_pairwise(xs)

    @pytest.mark.parametrize("k", [-1000, -520, 520, 1000])
    def test_scales_exactly_with_extreme_coefficients(self, k):
        # Squares of these coefficients overflow or underflow float64; an
        # exact power-of-two rescale keeps the gap exact (and warning-free).
        xs = [np.array(x) for x in
              [(0.0, 0.0), (1.0, 0.0), (0.8, 0.6), (-1.0, 0.0), (0.0, -1.0), (3.0, 4.0)]]
        scaled = [np.ldexp(x, k) for x in xs]
        assert default_probe_epsilon(report_of(scaled)) == np.ldexp(
            default_probe_epsilon(report_of(xs)), k)

    def test_all_norms_equal(self):
        xs = [np.roll([1.0, 0.0, 0.0, 0.0], k) for k in range(4)] + [np.full(4, 0.5)]
        assert default_probe_epsilon(report_of(xs)) == 0.25 * min_gap_pairwise(xs)

    def test_collinear_equally_spaced_points(self):
        # On a ray, the norm differences equal the distances, so the rounding
        # of the norms decides whether the closest pair is in the window.
        rng = np.random.default_rng(11)
        for _ in range(300):
            u = rng.standard_normal(3)
            t, g = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)
            xs = [(t + k * g) * u for k in range(3)]
            assert default_probe_epsilon(report_of(xs)) == 0.25 * min_gap_pairwise(xs)


class TestNearStationaryPoints:
    @pytest.mark.parametrize("shape, variant, seed", LANDSCAPES)
    def test_matches_full_enumeration(self, shape, variant, seed):
        inst = landscape_instance(shape, variant, seed)
        rep = enumerate_stationary(inst)
        xs = [p.x for p in rep.points]
        epsilon = default_probe_epsilon(rep)
        # up to three points of every kind, each under both perturbation sizes,
        # at the probe's radius and at one wide enough to hold three more points
        kinds = collections.defaultdict(list)
        for k, p in enumerate(rep.points):
            kinds[p.kind].append((k, p.x))
        probed = [kx for points in kinds.values() for kx in points[:3]]
        for k, x_bar in probed:
            wide = sorted(float(np.linalg.norm(x - x_bar)) for x in xs)[min(3, len(xs) - 1)]
            for delta in (1e-3 * epsilon, 1e-6):
                perturbed = perturb_instance(inst, delta, spawn_seed(seed, k))
                for r in (2.0 * epsilon, wide):
                    expected = near_points_by_enumeration(perturbed, x_bar, r)
                    got, distance = _near_stationary_points(perturbed, x_bar, r)
                    assert len(got) == len(expected)
                    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
                    assert distance == [float(np.linalg.norm(x - x_bar)) for x in got]

    def test_two_points_in_range(self, instability_perturbed):
        # The origin lies 0.1 from x_bar = (0.1, 0), inside r = 0.12, although
        # x_bar's nonzero entry is below r: the search must not require it.
        x_bar = np.array([0.1, 0.0])
        got, distance = _near_stationary_points(instability_perturbed, x_bar, 0.12)
        expected = near_points_by_enumeration(instability_perturbed, x_bar, 0.12)
        assert len(got) == len(expected) == 2
        assert distance == [float(np.linalg.norm(x - x_bar)) for x in got]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        point = enumerate_stationary(instability_perturbed).points[0]
        np.testing.assert_array_equal(point.x, x_bar)
        probe = probe_strong_stability(instability_perturbed, point, epsilon=0.06, delta=1e-4,
                                       trials=5, seed=4)
        assert probe.exists_count == 5
        assert probe.unique_count == 0
        assert all(len(sample) == 2 for sample in probe.perturbed_points_sample)
