"""Power/area composition for borrowing architectures (Table VII).

``cost_of`` combines the structural overhead model (Table II / Sec. IV-A
counts) with the calibrated component library into the same breakdown
Table VII reports: CTRL, SHF, ABUF, BBUF, and the PE's REG/WR, ACC, MUL,
ADT, MUX columns plus SRAM.  Power is in milliwatts, area in thousands of
square microns, matching the paper's units.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

from repro.config import ArchConfig, CoreGeometry, GriffinArch, ModelCategory, dense
from repro.core.overhead import HardwareOverhead, overhead_of
from repro.hw.components import (
    DEFAULT_LIBRARY,
    FAMILY_CALIBRATION,
    ComponentLibrary,
    FamilyCalibration,
)


@dataclass(frozen=True)
class CostBreakdown:
    """One Table VII row: per-component power (mW) and area (k um^2)."""

    label: str
    ctrl_power: float = 0.0
    shf_power: float = 0.0
    abuf_power: float = 0.0
    bbuf_power: float = 0.0
    reg_power: float = 0.0
    acc_power: float = 0.0
    mul_power: float = 0.0
    adt_power: float = 0.0
    mux_power: float = 0.0
    sram_power: float = 0.0
    ctrl_area: float = 0.0
    shf_area: float = 0.0
    abuf_area: float = 0.0
    bbuf_area: float = 0.0
    reg_area: float = 0.0
    acc_area: float = 0.0
    mul_area: float = 0.0
    adt_area: float = 0.0
    mux_area: float = 0.0
    sram_area: float = 0.0

    @cached_property
    def total_power_mw(self) -> float:
        return sum(
            getattr(self, f.name)
            for f in fields(self)
            if f.name.endswith("_power")
        )

    @cached_property
    def total_area_kum2(self) -> float:
        return sum(
            getattr(self, f.name)
            for f in fields(self)
            if f.name.endswith("_area")
        )

    @property
    def total_area_um2(self) -> float:
        return self.total_area_kum2 * 1e3

    def power_row(self) -> dict[str, float]:
        """The power cells in Table VII column order."""
        return {
            "CTRL": self.ctrl_power,
            "SHF": self.shf_power,
            "ABUF": self.abuf_power,
            "BBUF": self.bbuf_power,
            "REG/WR": self.reg_power,
            "ACC": self.acc_power,
            "MUL": self.mul_power,
            "ADT": self.adt_power,
            "MUX": self.mux_power,
            "SRAM": self.sram_power,
        }

    def area_row(self) -> dict[str, float]:
        return {
            "CTRL": self.ctrl_area,
            "SHF": self.shf_area,
            "ABUF": self.abuf_area,
            "BBUF": self.bbuf_area,
            "REG/WR": self.reg_area,
            "ACC": self.acc_area,
            "MUL": self.mul_area,
            "ADT": self.adt_area,
            "MUX": self.mux_area,
            "SRAM": self.sram_area,
        }


def provisioned_bandwidth_scale(config: ArchConfig) -> float:
    """SRAM bandwidth multiple a design provisions over the dense baseline.

    The paper sizes SRAM BW to the design's ideal speedup -- the combined
    lookahead window ``(1+da1)(1+db1)`` (Sec. V).
    """
    return float((1 + config.a.d1) * (1 + config.b.d1))


def _mux_counts(config: ArchConfig, ovh: HardwareOverhead, geometry: CoreGeometry) -> int:
    """Total 2:1-mux-equivalent legs in the operand-select network.

    AMUXes driven by a per-row arbiter (Sparse.A) are shared by the row's
    PEs (the selected A ops are common to every column); metadata-driven
    AMUXes (Sparse.B) and all dual-sparse muxes are per multiplier, as is
    every BMUX (Sec. III).
    """
    lanes = geometry.k0
    per_mult = geometry.macs_per_cycle
    per_row = geometry.m0 * lanes
    amux_legs = max(0, ovh.amux_fanin - 1)
    bmux_legs = max(0, ovh.bmux_fanin - 1)
    if config.family == "Sparse.A":
        return amux_legs * per_row + bmux_legs * per_mult
    return amux_legs * per_mult + bmux_legs * per_mult


def cost_of(
    config: ArchConfig,
    library: ComponentLibrary = DEFAULT_LIBRARY,
    calibration: FamilyCalibration | None = None,
    label: str | None = None,
) -> CostBreakdown:
    """Compose the Table VII-style cost of an architecture configuration."""
    geometry = config.geometry
    ovh = overhead_of(config)
    cal = calibration or FAMILY_CALIBRATION[config.family]
    lanes, n0, m0 = geometry.k0, geometry.n0, geometry.m0
    n_pe = geometry.num_pes
    n_mult = geometry.macs_per_cycle

    # Buffers: ABUF streams are per (row, lane); BBUF per (column, lane).
    abuf_words = ovh.abuf_depth * lanes * m0 if ovh.abuf_depth > 1 else 0
    bbuf_words = ovh.bbuf_depth * lanes * n0 if ovh.bbuf_depth > 1 else 0
    abuf_power = abuf_words * library.buf_power_uw_per_word * cal.abuf_power_factor / 1e3
    abuf_area = abuf_words * library.buf_area_um2_per_word * cal.abuf_area_factor / 1e3
    bbuf_power = bbuf_words * library.buf_power_uw_per_word * cal.bbuf_power_factor / 1e3
    bbuf_area = bbuf_words * library.buf_area_um2_per_word * cal.bbuf_area_factor / 1e3

    # Control: per-PE pair detection (dual) and/or per-row arbiters.
    ctrl_power = 0.0
    ctrl_area = 0.0
    if ovh.per_pe_control:
        ctrl_power += n_pe * library.pe_ctrl_power_uw / 1e3
        ctrl_area += n_pe * library.pe_ctrl_area_um2 / 1e3
    if ovh.per_row_arbiter and not ovh.per_pe_control:
        ctrl_power += m0 * library.row_arbiter_power_uw / 1e3
        ctrl_area += m0 * library.row_arbiter_area_um2 / 1e3

    # Shuffler: one rotation network per sparse operand path.
    sides = int(config.supports_a_sparsity) + int(config.supports_b_sparsity)
    shf_power = library.shuffler_power_mw_per_side * sides if ovh.shuffler else 0.0
    shf_area = library.shuffler_area_kum2_per_side * sides if ovh.shuffler else 0.0

    # PE datapath.
    reg_power = library.reg_base_power_mw * cal.reg_factor
    reg_area = library.reg_base_area_kum2 * (1.0 + 0.9 * (cal.reg_factor - 1.0))
    acc_power = n_pe * library.acc_power_uw / 1e3
    acc_area = n_pe * library.acc_area_um2 / 1e3
    mul_power = n_mult * library.mul_power_uw * cal.mul_activity / 1e3
    mul_area = n_mult * library.mul_area_um2 / 1e3
    trees = ovh.adder_trees
    adt_power = (
        n_pe * library.adt_power_uw * (1.0 + cal.extra_adt_activity * (trees - 1)) / 1e3
    )
    adt_area = n_pe * trees * library.adt_area_um2 / 1e3
    mux_legs = _mux_counts(config, ovh, geometry)
    mux_power = mux_legs * library.mux_power_uw_per_leg / 1e3
    mux_area = mux_legs * library.mux_area_um2_per_leg / 1e3

    # SRAM: power scales with the provisioned bandwidth, area with banking.
    bw = provisioned_bandwidth_scale(config)
    sram_power = library.sram_base_power_mw * (1.0 + cal.sram_beta * (bw - 1.0))
    sram_area = library.sram_base_area_kum2 * cal.sram_area_factor

    return CostBreakdown(
        label=label or config.label,
        ctrl_power=ctrl_power,
        shf_power=shf_power,
        abuf_power=abuf_power,
        bbuf_power=bbuf_power,
        reg_power=reg_power,
        acc_power=acc_power,
        mul_power=mul_power,
        adt_power=adt_power,
        mux_power=mux_power,
        sram_power=sram_power,
        ctrl_area=ctrl_area,
        shf_area=shf_area,
        abuf_area=abuf_area,
        bbuf_area=bbuf_area,
        reg_area=reg_area,
        acc_area=acc_area,
        mul_area=mul_area,
        adt_area=adt_area,
        mux_area=mux_area,
        sram_area=sram_area,
    )


def griffin_cost(
    griffin: GriffinArch, library: ComponentLibrary = DEFAULT_LIBRARY
) -> CostBreakdown:
    """Cost of the hybrid Griffin core.

    Griffin pays the dual-sparse (conf.AB) hardware plus the small morphing
    additions Table III/VII quantify: the BMUX fan-in growth of conf.A
    (3 -> 5 inputs per multiplier), the widened conf.B metadata, and the
    morph-control in each PE (Table VII: +1.8 mW / +3.2 kum2 MUX and
    +1.3 kum2 CTRL over Sparse.AB*).  The extra BMUX legs cost power
    only, not their 3.26 kum2 of area: Griffin's total is 285.24 kum2,
    not 288.50 (paper: 286; see ``docs/figures.md``, known deviations).
    """
    base = cost_of(griffin.conf_ab, library=library, label=griffin.label)
    ab_ovh = overhead_of(griffin.conf_ab)
    a_ovh = overhead_of(griffin.conf_a)
    extra_bmux_legs = max(0, a_ovh.bmux_fanin - ab_ovh.bmux_fanin)
    mux_power = base.mux_power + extra_bmux_legs * (
        library.mux_power_uw_per_leg * griffin.geometry.macs_per_cycle / 1e3
    )
    # Morph-mode control (configuration registers, metadata width switch).
    return replace(base, mux_power=mux_power, ctrl_area=base.ctrl_area * 1.16)


#: Fraction of idle sparse-machinery power removed by clock gating.
#: Calibrated to the paper's per-category overhead statements: Sparse.B*
#: "imposes 16% power overhead compared to dense baseline" on DNN.dense
#: (175 mW vs its 206 mW sparse operating point), and Griffin's dense
#: "sparsity tax" is 29% (~213 mW vs 284 mW) -- both solved by gating
#: ~55% of the overhead above the dense-equivalent core.
DENSE_GATING = 0.55


@lru_cache
def _dense_power_mw(geometry: CoreGeometry) -> float:
    return cost_of(dense(geometry)).total_power_mw


def gated_power_mw(
    cost: CostBreakdown, config: ArchConfig, category: ModelCategory
) -> float:
    """Operating power of a design while running one model category.

    Table VII reports power at each design's sparse operating point; when a
    model category leaves part of the sparse machinery idle, clock gating
    recovers ``DENSE_GATING`` of that machinery's power:

    * on dense models, everything above the dense-equivalent core idles;
    * a dual-sparse core on weight-only models bypasses the per-PE pair
      control and most of the BBUF (Table III);
    * a dual-sparse core on activation-only models idles the per-PE control
      (one arbiter per row takes over -- Table III).
    """
    active_a = config.supports_a_sparsity and category.activations_sparse
    active_b = config.supports_b_sparsity and category.weights_sparse
    total = cost.total_power_mw
    if active_a and active_b:
        return total
    if not active_a and not active_b:
        dense_equiv = _dense_power_mw(config.geometry)
        overhead = max(0.0, total - dense_equiv)
        return dense_equiv + (1.0 - DENSE_GATING) * overhead
    if config.family == "Sparse.AB":
        if active_b:
            return total - DENSE_GATING * (cost.bbuf_power + cost.ctrl_power)
        return total - DENSE_GATING * cost.ctrl_power
    return total


def griffin_category_power_mw(
    griffin: GriffinArch, cost: CostBreakdown, category: ModelCategory
) -> float:
    """Griffin's operating power per category.

    The hybrid gates like the dual-sparse core it is built from; on DNN.A
    its per-PE controllers are *bypassed* (a per-row arbiter coordinates
    instead -- Table III), the same saving as on DNN.B minus the BBUF,
    which conf.A keeps busy.
    """
    if category is ModelCategory.AB:
        return cost.total_power_mw
    if category is ModelCategory.B:
        return cost.total_power_mw - DENSE_GATING * (cost.bbuf_power + cost.ctrl_power)
    if category is ModelCategory.A:
        return cost.total_power_mw - DENSE_GATING * cost.ctrl_power
    return gated_power_mw(cost, griffin.conf_ab, category)
