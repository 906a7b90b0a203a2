"""Tests for the design-space exploration machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ModelCategory, sparse_b
from repro.core.metrics import EfficiencyPoint
from repro.core.overhead import overhead_of
from repro.dse.evaluate import DesignEvaluation, EvalSettings
from repro.dse.explorer import design_space, space_categories, sparse_a_space, sparse_ab_space, sparse_b_space
from repro.dse.pareto import dominates, pareto_front, pareto_ranks
from repro.dse.report import format_table, select_optimal


class TestExplorer:
    def test_sparse_b_space_respects_fanin(self):
        for cfg in sparse_b_space():
            assert overhead_of(cfg).amux_fanin <= 8
            assert cfg.b.d1 > 1

    def test_sparse_a_space_respects_fanin(self):
        for cfg in sparse_a_space():
            ovh = overhead_of(cfg)
            assert max(ovh.amux_fanin, ovh.bmux_fanin) <= 8

    def test_sparse_ab_space_constraints(self):
        space = sparse_ab_space()
        for cfg in space:
            assert overhead_of(cfg).amux_fanin <= 16
            assert cfg.a.d3 == 0  # excluded per Fig. 7 observation 3
            assert cfg.a.d1 <= 2

    def test_spaces_include_published_stars(self):
        b_notations = {c.notation for c in sparse_b_space()}
        assert "B(4,0,1,on)" in b_notations
        a_notations = {c.notation for c in sparse_a_space()}
        assert "A(2,1,0,on)" in a_notations
        ab_notations = {c.notation for c in sparse_ab_space()}
        assert "AB(2,0,0,2,0,1,on)" in ab_notations

    def test_shuffle_variants_paired(self):
        space = sparse_b_space(shuffle_options=(False, True))
        on = sum(1 for c in space if c.shuffle)
        assert on == len(space) - on


class TestPareto:
    XY = [lambda p: p[0], lambda p: p[1]]

    def test_simple_front(self):
        pts = [(1, 5), (2, 4), (3, 3), (2, 2), (0, 6)]
        front = pareto_front(pts, self.XY)
        assert set(front) == {(1, 5), (2, 4), (3, 3), (0, 6)}

    def test_single_objective_is_max(self):
        front = pareto_front([3, 1, 4, 1, 5], [lambda x: x])
        assert front == [5]

    def test_empty(self):
        assert pareto_front([], [lambda x: x]) == []

    def test_duplicate_front_points_all_kept_by_default(self):
        # Identical score vectors never dominate each other, so every copy
        # of a duplicated front point survives, in input order.
        pts = [(2, 2), (1, 1), (2, 2), (2, 2)]
        assert pareto_front(pts, self.XY) == [(2, 2), (2, 2), (2, 2)]

    def test_dedupe_keeps_first_of_each_tied_score(self):
        labelled = [("a", 2, 2), ("b", 1, 1), ("c", 2, 2), ("d", 0, 3)]
        objs = [lambda p: p[1], lambda p: p[2]]
        front = pareto_front(labelled, objs, dedupe=True)
        assert front == [("a", 2, 2), ("d", 0, 3)]

    def test_all_identical_items(self):
        pts = [(1, 1)] * 4
        assert pareto_front(pts, self.XY) == pts
        assert pareto_front(pts, self.XY, dedupe=True) == [(1, 1)]

    def test_partial_tie_one_equal_coordinate(self):
        # (3, 5) dominates (3, 4): equal on x, strictly better on y.
        assert pareto_front([(3, 5), (3, 4)], self.XY) == [(3, 5)]

    def test_single_item_and_no_objectives(self):
        assert pareto_front([(1, 2)], self.XY) == [(1, 2)]
        # With no objectives nothing can dominate: everything is a tie.
        assert pareto_front([1, 2, 3], []) == [1, 2, 3]
        assert pareto_front([1, 2, 3], [], dedupe=True) == [1]


class TestDominates:
    def test_strict_and_tie_and_incomparable(self):
        assert dominates((2, 2), (1, 2))
        assert not dominates((1, 2), (2, 2))
        assert not dominates((2, 2), (2, 2))      # ties dominate nothing
        assert not dominates((3, 1), (1, 3))      # incomparable
        assert not dominates((), ())              # empty vectors

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            dominates((1, 2), (1, 2, 3))


class TestParetoRanks:
    def test_layered_ranks(self):
        scores = [(3, 3), (2, 2), (1, 1), (0, 4)]
        assert pareto_ranks(scores) == [0, 1, 2, 0]

    def test_ties_share_a_rank(self):
        assert pareto_ranks([(2, 2), (2, 2), (1, 1)]) == [0, 0, 1]

    def test_empty(self):
        assert pareto_ranks([]) == []

    def test_every_rank_contiguous_from_zero(self):
        scores = [(i % 4, (7 - i) % 5) for i in range(20)]
        ranks = pareto_ranks(scores)
        assert set(ranks) == set(range(max(ranks) + 1))


class TestDesignSpaceLookup:
    def test_unknown_space_lists_names_and_labels(self):
        with pytest.raises(ValueError) as err:
            design_space("c")
        message = str(err.value)
        for name in ("'a'", "'b'", "'ab'"):
            assert name in message
        assert "Fig. 5 Sparse.B" in message
        with pytest.raises(ValueError, match="Fig. 6 Sparse.A"):
            space_categories("nope")


@settings(max_examples=30, deadline=None)
@given(
    pts=st.lists(
        st.tuples(st.floats(0, 10), st.floats(0, 10)), min_size=1, max_size=30
    )
)
def test_pareto_properties(pts):
    """No front member dominates another; all others are dominated."""
    objs = [lambda p: p[0], lambda p: p[1]]
    front = pareto_front(pts, objs)
    assert front
    for p in front:
        for q in front:
            if p != q:
                assert not (q[0] >= p[0] and q[1] >= p[1] and (q[0] > p[0] or q[1] > p[1]))
    for p in pts:
        assert any(q[0] >= p[0] and q[1] >= p[1] for q in front)


def _peeled_ranks(scores):
    """Reference layering: rescan the remaining vectors pairwise per layer."""
    ranks = [-1] * len(scores)
    remaining = list(range(len(scores)))
    rank = 0
    while remaining:
        layer = [
            i
            for i in remaining
            if not any(dominates(scores[j], scores[i]) for j in remaining if j != i)
        ]
        for i in layer:
            ranks[i] = rank
        remaining = [i for i in remaining if ranks[i] < 0]
        rank += 1
    return ranks


@st.composite
def _score_sets(draw):
    """0-150 vectors of 1-3 objectives on a small grid (ties are common)."""
    width = draw(st.integers(1, 3))
    return draw(
        st.lists(
            st.tuples(*[st.integers(0, 4)] * width), min_size=0, max_size=150
        )
    )


@settings(max_examples=60, deadline=None)
@given(scores=_score_sets())
def test_pareto_ranks_match_the_pairwise_peel(scores):
    assert pareto_ranks(scores) == _peeled_ranks(scores)


def _eval(label, sparse_eff, dense_eff):
    # Build a DesignEvaluation with synthetic efficiencies via power choice.
    def pt(category, eff):
        return EfficiencyPoint(
            label=label, category=category, speedup=1.0,
            power_mw=1.6384e3 / eff, area_um2=1e6,
        )
    return DesignEvaluation(
        label=label,
        points=(pt(ModelCategory.B.value, sparse_eff), pt(ModelCategory.DENSE.value, dense_eff)),
    )


class TestSelectOptimal:
    def test_picks_balanced_product(self):
        evals = [
            _eval("fast-but-hot", 30.0, 4.0),
            _eval("balanced", 25.0, 8.0),
            _eval("cold-but-slow", 12.0, 10.0),
        ]
        best = select_optimal(evals, ModelCategory.B)
        assert best.label == "balanced"

    def test_dominated_points_never_win(self):
        evals = [_eval("good", 20.0, 8.0), _eval("strictly-worse", 18.0, 7.0)]
        assert select_optimal(evals, ModelCategory.B).label == "good"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            select_optimal([], ModelCategory.B)


class TestReportTable:
    def test_format_alignment(self):
        rows = [{"arch": "B(4,0,1,on)", "speedup": 2.5}, {"arch": "x", "speedup": 10.0}]
        text = format_table(rows, title="Fig5")
        lines = text.splitlines()
        assert lines[0] == "Fig5"
        assert "B(4,0,1,on)" in lines[3]
        assert "2.5" in text and "10" in text

    def test_empty_rows(self):
        assert format_table([], title="t") == "t"


class TestEvalSettings:
    def test_quick_suite_is_subset(self):
        quick = EvalSettings(quick=True)
        full = EvalSettings(quick=False)
        q = {b.name for b in quick.suite(ModelCategory.B)}
        f = {b.name for b in full.suite(ModelCategory.B)}
        assert q <= f and len(q) == 3

    def test_a_suite_excludes_bert(self):
        names = {b.name for b in EvalSettings(quick=False).suite(ModelCategory.A)}
        assert "BERT" not in names
