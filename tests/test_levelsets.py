import numpy as np
import pytest

from l0landscape import (
    Instance,
    PointKind,
    component_count,
    enumerate_stationary,
    objective,
    support_min_table,
    sweep_levels,
)
from l0landscape.levelsets import _level_counts

from _oracles import (
    grid_components,
    min_relative_value_gap,
    pairwise_components,
    random_instance,
)


class TestSubspaceMin:
    def test_empty_support(self, saddle_instance):
        sub = support_min_table(saddle_instance)[()]
        assert sub.value == pytest.approx(1.0)  # half the squared data norm
        np.testing.assert_allclose(sub.x, [0.0, 0.0])
        assert sub.nd2_holds

    def test_axis_support(self, saddle_instance):
        sub = support_min_table(saddle_instance)[(0,)]
        assert sub.value == pytest.approx(0.5)
        np.testing.assert_allclose(sub.x, [1.0, 0.0])

    def test_matches_grid_refinement_oracle(self):
        from _oracles import grid_refine_min

        rng = np.random.default_rng(21)
        inst = Instance.from_arrays(rng.standard_normal((4, 5)), rng.standard_normal(4), 2)
        S = (1, 3)
        expected_z = grid_refine_min(inst.A[:, list(S)], inst.b)
        sub = support_min_table(inst)[S]
        np.testing.assert_allclose(sub.x[list(S)], expected_z, atol=1e-6)
        assert sub.value == pytest.approx(objective(inst, sub.x))

    def test_rank_deficient_flagged(self):
        inst = Instance.from_arrays([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.5], 1)
        sub = support_min_table(inst)[(1,)]
        assert not sub.nd2_holds


class TestComponentCount:
    @pytest.mark.parametrize("level,expected_q", [(0.3, 0), (0.75, 2), (1.5, 1)])
    def test_two_axis_landscape(self, saddle_instance, level, expected_q):
        assert component_count(saddle_instance, level) == expected_q

    @pytest.mark.parametrize("level", [0.3, 0.75, 1.5])
    def test_two_axis_landscape_matches_flood_fill(self, saddle_instance, level):
        assert component_count(saddle_instance, level) == grid_components(
            saddle_instance, level)

    def test_empty_level_set(self, saddle_instance):
        assert component_count(saddle_instance, -1.0) == 0

    def test_connected_above_data_norm_threshold(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            inst = random_instance(rng, 3, 4, 2)
            threshold = 0.5 * float(inst.b @ inst.b)
            assert component_count(inst, threshold + 0.1) == 1

    def test_bounded_ellipsoids_under_s_regularity(self):
        # finite radius bound: the size-s Gram matrices must be positive definite
        import itertools

        rng = np.random.default_rng(33)
        inst = random_instance(rng, 4, 6, 2)
        rep = enumerate_stationary(inst)
        assert rep.s_regular
        for S in itertools.combinations(range(inst.n), inst.s):
            gram = inst.A[:, list(S)].T @ inst.A[:, list(S)]
            eigenvalues = np.linalg.eigvalsh(gram)
            assert eigenvalues.min() > 0.0
            radius_bound = 2.0 * 1.7 * float(np.max(np.linalg.eigvalsh(np.linalg.inv(gram))))
            assert np.isfinite(radius_bound)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_flood_fill_on_small_instances(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m, n, s = [(2, 2, 1), (3, 3, 1), (3, 3, 2)][seed % 3]
        inst = random_instance(rng, m, n, s, min_sigma=0.35, max_b_norm=2.0)
        rep = enumerate_stationary(inst)
        values = sorted({p.value for p in rep.points})
        if min_relative_value_gap(values) < 1e-3:
            pytest.skip("level gaps too tight for a grid oracle")
        levels = [0.5 * values[0]]
        levels += [0.5 * (a + b) for a, b in zip(values, values[1:])]
        levels += [values[-1] + 0.5]
        for level in levels[:4]:
            assert component_count(inst, level) == grid_components(inst, level)

    @pytest.mark.parametrize("variant", ["generic", "zero-column", "duplicate-column"])
    @pytest.mark.parametrize("m,n,s", [(4, 7, 2), (5, 8, 3), (4, 5, 4)])
    def test_matches_pairwise_graph_at_every_value(self, m, n, s, variant):
        # Every support value and every midpoint between consecutive values:
        # the union-find pass must give the all-pairs graph's count at each.
        rng = np.random.default_rng(m * 100 + n * 10 + s)
        inst = random_instance(rng, m, n, s)
        A = inst.A.copy()
        if variant == "zero-column":
            A[:, 0] = 0.0
        elif variant == "duplicate-column":
            A[:, -1] = A[:, 0]
        inst = Instance.from_arrays(A, inst.b, s)
        table = support_min_table(inst)
        values = sorted({sub.value for sub in table.values()})
        levels = sorted(values + [0.5 * (a + b) for a, b in zip(values, values[1:])])
        for level, q in zip(levels, _level_counts(inst, table, levels)):
            assert q == pairwise_components(inst, level, table), level


class TestSweep:
    def test_two_axis_landscape(self, saddle_instance):
        rep = enumerate_stationary(saddle_instance)
        sweep = sweep_levels(saddle_instance, rep)
        assert [iv.q for iv in sweep.intervals] == [0, 2, 1]
        assert sweep.applicable
        deltas = [(t.value, t.delta, t.admissible) for t in sweep.transitions]
        assert deltas == [(0.5, 2, True), (1.0, -1, True)]
        # the tied pair of minimizers is audited jointly
        tied = sweep.transitions[0]
        assert [k.value for k in tied.kinds] == ["LocalMinimizer", "LocalMinimizer"]
        assert (tied.admissible_lo, tied.admissible_hi) == (2, 2)
        assert sweep.all_admissible

    def test_perturbed_instance_structure(self, instability_perturbed):
        rep = enumerate_stationary(instability_perturbed)
        values = sorted({p.value for p in rep.points})
        assert values == pytest.approx([0.005, 0.01])
        sweep = sweep_levels(instability_perturbed, rep)
        assert [iv.q for iv in sweep.intervals] == [0, 2, 1]

    def test_not_applicable_with_degenerate_points(self, instability_original):
        rep = enumerate_stationary(instability_original)
        sweep = sweep_levels(instability_original, rep)
        assert not sweep.applicable
        assert sweep.transitions == []
        assert [iv.q for iv in sweep.intervals]  # interval counts still emitted

    def test_constant_within_intervals(self):
        rng = np.random.default_rng(77)
        inst = random_instance(rng, 4, 6, 2)
        rep = enumerate_stationary(inst)
        assert not rep.hypothesis_violated
        sweep = sweep_levels(inst, rep)
        counts = _level_counts(inst, rep.table, [
            iv.lo + f * (iv.hi - iv.lo) for iv in sweep.intervals for f in (0.25, 0.5, 0.75)])
        for i, iv in enumerate(sweep.intervals):
            assert set(counts[3 * i:3 * i + 3]) == {iv.q}

    def test_s_one_matches_flood_fill(self):
        # s = 1: every support contains the empty support, so U = () links
        # all n pieces once the origin is inside the level.
        rng = np.random.default_rng(41)
        inst = random_instance(rng, 3, 4, 1, min_sigma=0.35, max_b_norm=2.0)
        rep = enumerate_stationary(inst)
        sweep = sweep_levels(inst, rep)
        assert len(sweep.intervals) >= 3
        for iv in sweep.intervals:
            assert iv.q == grid_components(inst, 0.5 * (iv.lo + iv.hi))

    @pytest.mark.parametrize("seed", range(12))
    def test_saddle_deltas_with_full_codimension(self, seed):
        # for s = n-1 every saddle crossing can merge at most one component
        rng = np.random.default_rng(500 + seed)
        m, n = (4, 4) if seed % 2 else (5, 5)
        inst = random_instance(rng, m, n, n - 1)
        rep = enumerate_stationary(inst)
        if rep.hypothesis_violated:
            pytest.skip("tied or degenerate landscape")
        sweep = sweep_levels(inst, rep)
        assert sweep.applicable
        for t in sweep.transitions:
            if all(k is PointKind.SADDLE_POINT for k in t.kinds):
                assert -len(t.kinds) <= t.delta <= 0

    def test_json_shape(self, saddle_instance):
        rep = enumerate_stationary(saddle_instance)
        payload = sweep_levels(saddle_instance, rep).to_dict()
        assert set(payload) == {"intervals", "transitions", "applicable"}
        assert all(set(iv) == {"interval", "q"} for iv in payload["intervals"])
        assert all(set(t) == {"value", "kind", "delta", "admissible"}
                   for t in payload["transitions"])
        assert payload["transitions"][0]["kind"] == "LocalMinimizer,LocalMinimizer"
