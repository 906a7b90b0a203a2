"""Griffin morphing logic and the Table III comparison.

A plain dual-sparse design running a single-sparse model *downgrades*: the
nine-entry ABUF and the extra adder tree sit underutilized while the
effective borrowing shrinks to ``Sparse.A(da1,0,0)`` / ``Sparse.B(db1,0,db3)``.
Griffin re-purposes exactly those already-paid resources (Sec. IV-B):

* **conf.B** -- with dense A, the per-PE control idles and the (widened, 4-bit)
  preprocessing metadata indexes the *full* ABUF, turning the nine entries
  into a lookahead-8 window: ``Sparse.B(8,0,1)``.  Only one BBUF entry is
  used, so BMUX selects are pinned to zero.
* **conf.A** -- with dense B, one arbiter per PE row replaces the per-PE
  control; three own-row plus two copied neighbour-row ABUF entries enable
  lane lookaside and the spare adder tree enables row borrowing:
  ``Sparse.A(2,1,1)`` (BMUX fan-in grows from 3 to 5).

The module quantifies both directions against the downgraded dual-sparse
design, reproducing Table III.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ArchConfig, GriffinArch, ModelCategory, sparse_a, sparse_b
from repro.core.overhead import HardwareOverhead, overhead_of


def downgraded_config(dual: ArchConfig, category: ModelCategory) -> ArchConfig:
    """What a non-hybrid dual-sparse design degrades to on single sparsity.

    Per Table III: on ``DNN.A`` the B side idles and lane/row reach is lost
    (per-PE control cannot coordinate across lanes without pairs), leaving
    ``Sparse.A(da1, 0, 0)``; on ``DNN.B`` the runtime pair arbitration keeps
    only the preprocessing reach, ``Sparse.B(db1, db2, db3)``.
    """
    if dual.family != "Sparse.AB":
        raise ValueError(f"downgrade is defined for Sparse.AB designs, got {dual.family}")
    if category is ModelCategory.A:
        return sparse_a(dual.a.d1, 0, 0, shuffle=dual.shuffle)
    if category is ModelCategory.B:
        return sparse_b(dual.b.d1, dual.b.d2, dual.b.d3, shuffle=dual.shuffle)
    raise ValueError(f"downgrade applies to single-sparse categories, got {category}")


@dataclass(frozen=True)
class MorphComparison:
    """One row-pair of Table III."""

    category: ModelCategory
    downgrade: ArchConfig
    morph: ArchConfig
    downgrade_overhead: HardwareOverhead
    morph_overhead: HardwareOverhead

    @property
    def bmux_fanin_change(self) -> tuple[int, int]:
        return (self.downgrade_overhead.bmux_fanin, self.morph_overhead.bmux_fanin)

    @property
    def abuf_entries_used(self) -> tuple[int, int]:
        return (self.downgrade_overhead.abuf_depth, self.morph_overhead.abuf_depth)

    @property
    def metadata_bits(self) -> tuple[int, int]:
        return (self.downgrade_overhead.metadata_bits, self.morph_overhead.metadata_bits)


def compare_morph_vs_downgrade(
    griffin: GriffinArch, category: ModelCategory
) -> MorphComparison:
    """Build the Table III comparison for one single-sparse category."""
    if category not in (ModelCategory.A, ModelCategory.B):
        raise ValueError(f"Table III covers DNN.A and DNN.B, got {category}")
    down = downgraded_config(griffin.conf_ab, category)
    morph = griffin.config_for(category)
    return MorphComparison(
        category=category,
        downgrade=down,
        morph=morph,
        downgrade_overhead=overhead_of(down),
        morph_overhead=overhead_of(morph),
    )


def morph_fits_provisioned_hardware(griffin: GriffinArch) -> dict[str, bool]:
    """Check that each morph reuses (never exceeds) the dual-sparse budget.

    Griffin's claim is that conf.A / conf.B need only *negligible* extra
    hardware on top of conf.AB: the ABUF window, the BBUF, and the adder
    trees must all fit inside what the dual configuration already pays for.
    (The BMUX fan-in and metadata width grow slightly -- the ~1% cost the
    paper reports -- so they are exempt.)
    """
    base = overhead_of(griffin.conf_ab)
    checks = {}
    for label, conf in (("conf.A", griffin.conf_a), ("conf.B", griffin.conf_b)):
        ovh = overhead_of(conf)
        checks[label] = (
            ovh.abuf_depth <= base.abuf_depth
            and ovh.bbuf_depth <= base.bbuf_depth
            and ovh.adder_trees <= base.adder_trees
        )
    return checks
