"""The shared weight-field draw behind the engine's sampled passes.

A layer's weight-only and dual-sparse pass sets come from one draw of its
weight factor field: the dual set replays the generator from right after
the field.  These tests hold that sharing to the draw sequence the engine
had before it, one fresh ``default_rng(seed)`` per requested pass set,
reproduced here as a test-side oracle.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.config import SPARSE_AB_STAR, SPARSE_B_STAR, ModelCategory, sparse_b
from repro.gemm.layers import GemmShape
from repro.gemm.tiling import tile_grid
from repro.sim import engine
from repro.sim.engine import EvalContext, Memo, SimulationOptions, simulate_layer
from repro.workloads.models import NetworkLayer, RawGemmSpec
from repro.workloads.sparsity import (
    act_profile,
    activation_tile_mask,
    sample_act_field,
    sample_weight_field,
    weight_profile,
    weight_tile_mask,
)

OPTIONS = SimulationOptions(passes_per_gemm=4, max_t_steps=16, seed=11)

#: Every GEMM is longer than ``max_t_steps`` time steps (segment sampling)
#: and ragged in M and N (edge passes).  The first has exactly four passes,
#: so all of them, edges included, are sampled; the second has nine, so the
#: pass choice is random; the third has convolution channels.
GEMMS = (
    GemmShape(m=6, k=500, n=20),
    GemmShape(m=10, k=700, n=40),
    GemmShape(m=9, k=576, n=24, channels=64),
)

LAYER = NetworkLayer(
    spec=RawGemmSpec(name="ragged", shapes=GEMMS),
    weight_density=0.4,
    act_density=0.55,
)

#: Request name -> (design, category, weights used, activations used).
REQUESTS = {
    "weight-only": (SPARSE_B_STAR, ModelCategory.AB, True, False),
    "downgraded": (SPARSE_AB_STAR, ModelCategory.B, True, False),
    "dual": (SPARSE_AB_STAR, ModelCategory.AB, True, True),
    "act-only": (SPARSE_AB_STAR, ModelCategory.A, False, True),
}


def _oracle_passes(gemm: GemmShape, use_b: bool, use_a: bool) -> list:
    """One pass set drawn the way the engine drew each one independently."""
    geometry = SPARSE_AB_STAR.geometry
    seed = engine._layer_seed(
        OPTIONS.seed, gemm, LAYER.weight_density, LAYER.act_density
    )
    weights = weight_profile(LAYER.weight_density) if use_b else None
    activations = act_profile(LAYER.act_density) if use_a else None
    rng = np.random.default_rng(seed)
    grid = tile_grid(gemm, geometry)
    w_field = a_field = None
    if weights:
        w_field = sample_weight_field(
            rng, weights, gemm.k, gemm.n, gemm.k_channels, k0=geometry.k0
        )
    if activations:
        a_field = sample_act_field(
            rng, activations, gemm.k, gemm.m, gemm.k_channels, k0=geometry.k0
        )
    n_passes = grid.m_tiles * grid.n_tiles
    pass_ids = rng.choice(
        n_passes, size=min(OPTIONS.passes_per_gemm, n_passes), replace=False
    )
    full_t = grid.t_steps
    seg_t = min(full_t, OPTIONS.max_t_steps)
    pairs = []
    for pass_id in pass_ids:
        mi, ni = divmod(int(pass_id), grid.n_tiles)
        k_start = 0
        if seg_t < full_t:
            k_start = int(rng.integers(0, full_t - seg_t + 1)) * geometry.k0
        a_mask = b_mask = None
        if weights is not None:
            b_mask = weight_tile_mask(
                rng, weights, w_field, t_steps=seg_t, k0=geometry.k0,
                k_offset=k_start, k_total=gemm.k,
                n_offset=ni * geometry.n0, n_tile=geometry.n0, n_total=gemm.n,
            )
        if activations is not None:
            a_mask = activation_tile_mask(
                rng, activations, a_field, t_steps=seg_t, k0=geometry.k0,
                k_offset=k_start, k_total=gemm.k,
                m_offset=mi * geometry.m0, m_tile=geometry.m0, m_total=gemm.m,
            )
        pairs.append((a_mask, b_mask))
    return pairs


@pytest.fixture
def scheduled(monkeypatch):
    """``(pairs seen, context)``: a fresh context with no persistent store,
    and each GEMM's pairs as they reach the scheduling step, which every
    sparse GEMM passes through whether its tile memo hits or not."""
    seen: list[list] = []
    real = engine._schedule_passes

    def spy(context, config, tile_key, pairs):
        seen.append(list(pairs))
        tiles = real(context, config, tile_key, pairs)
        assert len(tiles) == len(pairs)
        return tiles

    monkeypatch.setattr(engine, "_schedule_passes", spy)
    return seen, EvalContext()


def _request(scheduled: tuple, name: str) -> list:
    """Simulate the layer for one request in the fixture's context; the
    pass pairs of each GEMM."""
    seen, context = scheduled
    config, category, _, _ = REQUESTS[name]
    del seen[:]
    simulate_layer(LAYER, config, category, OPTIONS, cache=context)
    assert len(seen) == len(GEMMS)
    return list(seen)


def _assert_same_passes(got: list, want: list) -> None:
    assert len(got) == len(want)
    for (got_a, got_b), (want_a, want_b) in zip(got, want):
        for got_mask, want_mask in ((got_a, want_a), (got_b, want_b)):
            if want_mask is None:
                assert got_mask is None
            else:
                assert got_mask.dtype == want_mask.dtype
                np.testing.assert_array_equal(got_mask, want_mask)


@pytest.mark.parametrize(
    "order",
    [
        ("weight-only", "dual", "downgraded", "act-only"),
        ("dual", "act-only", "downgraded", "weight-only"),
    ],
    ids=["weight-first", "dual-first"],
)
def test_pass_sets_match_independent_draws(scheduled, order):
    """Every request reads the oracle's masks, whichever came first."""
    for name in order:
        _, _, use_b, use_a = REQUESTS[name]
        for gemm, pairs in zip(GEMMS, _request(scheduled, name)):
            _assert_same_passes(pairs, _oracle_passes(gemm, use_b, use_a))


def test_one_weight_draw_serves_both_variants(scheduled, monkeypatch):
    """Weight-only, downgraded and dual requests share one field per GEMM."""
    draws: list[tuple[int, int]] = []
    real = engine.sample_weight_field

    def counting(rng, profile, k_total, n_total, channels, k0=16):
        draws.append((k_total, n_total))
        return real(rng, profile, k_total, n_total, channels, k0=k0)

    monkeypatch.setattr(engine, "sample_weight_field", counting)
    for name in ("weight-only", "dual", "downgraded"):
        _request(scheduled, name)
    assert sorted(draws) == sorted((gemm.k, gemm.n) for gemm in GEMMS)
    _request(scheduled, "act-only")
    assert len(draws) == len(GEMMS)


def test_memo_holds_no_factor_fields(scheduled):
    """Only masks are memoized; the fields are dropped after the draw."""
    _, context = scheduled
    _request(scheduled, "dual")
    assert (len(context.passes), context.passes.misses) == (len(GEMMS), len(GEMMS))
    for gemm in GEMMS:
        seed = engine._layer_seed(
            OPTIONS.seed, gemm, LAYER.weight_density, LAYER.act_density
        )
        sets = context.passes.get((
            seed, weight_profile(LAYER.weight_density),
            act_profile(LAYER.act_density), gemm, SPARSE_AB_STAR.geometry,
            OPTIONS.passes_per_gemm, OPTIONS.max_t_steps,
        ))
        assert set(sets) == {(True, False), (True, True)}
        for pairs in sets.values():
            for pair in pairs:
                assert all(m is None or isinstance(m, np.ndarray) for m in pair)


def test_clear_memo_cache_empties_every_engine_memo():
    """The engine keeps no memo of its own, so there is nothing to clear.

    Found by introspection, so a memo added later is caught: no value the
    engine module defines is an ``lru_cache`` or holds a :class:`Memo`,
    before or after simulating, and ``clear_memo_cache`` is a no-op.  A
    fresh :class:`EvalContext` (a fresh session) is the cold start.
    """

    def engine_memos() -> list[str]:
        return [
            name for name, value in vars(engine).items()
            if callable(getattr(value, "cache_info", None))
            and getattr(value, "__module__", None) == engine.__name__
            or isinstance(value, (Memo, EvalContext))
        ]

    assert engine_memos() == []
    for config, category, _, _ in REQUESTS.values():
        simulate_layer(LAYER, config, category, OPTIONS)
    assert engine_memos() == []
    assert engine.clear_memo_cache() is None


def test_context_memos_count_and_bound_their_entries():
    """A context's memos start empty, count every lookup, and stay within
    their bounds by dropping the least recently used entry."""
    context = EvalContext()
    assert (len(context.layers), len(context.passes)) == (0, 0)
    for config, category, _, _ in REQUESTS.values():
        simulate_layer(LAYER, config, category, OPTIONS, cache=context)
    layers, passes = context.layers, context.passes
    assert (layers.misses, layers.hits, len(layers)) == (len(REQUESTS), 0, len(REQUESTS))
    # One draw per GEMM for the weight sets, one for the activation-only set.
    assert (passes.misses, len(passes)) == (2 * len(GEMMS), 2 * len(GEMMS))
    assert passes.hits == 2 * len(GEMMS)
    assert context.on(None).layers is layers

    memo = Memo(2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1  # "b" is now the least recent
    memo.put("c", 3)
    assert (memo.get("b"), memo.get("a"), memo.get("c"), len(memo)) == (None, 1, 3, 2)
    assert (memo.hits, memo.misses) == (3, 1)


def test_memo_counts_every_lookup_under_thread_stress():
    """Threads (more than cores) hammer one memo with a short switch
    interval: no lookup goes uncounted and the bound holds, as a session's
    memo must when ``repro serve`` evaluates on many threads at once."""
    memo = Memo(64)
    threads, lookups = 8, 2000
    barrier = threading.Barrier(threads, timeout=30.0)

    def hammer(offset: int) -> None:
        barrier.wait()
        for i in range(lookups):
            key = (offset + i) % 96
            if memo.get(key) is None:
                memo.put(key, i + 1)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, args=(n,)) for n in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    assert memo.hits + memo.misses == threads * lookups
    assert memo.hits > 0 and len(memo) == 64


def test_downgraded_design_reads_the_weight_only_tile_entry():
    """A ``Sparse.AB`` design downgraded on DNN.B schedules its passes
    with its ``db`` reach, so it reads the tile-memo entry of the
    ``Sparse.B`` design with those distances and gets the same GEMM
    results as a cold context; another shuffle flag or distance misses.
    The memo holds cycle counts, never masks."""
    ab = SPARSE_AB_STAR
    twin = sparse_b(*ab.b.as_tuple(), shuffle=ab.shuffle, geometry=ab.geometry)
    context = EvalContext()
    tiles = context.tiles

    def gemm_results(config, in_context=context) -> list:
        return [
            engine._simulate_gemm(gemm, LAYER, config, ModelCategory.B, OPTIONS, in_context)
            for gemm in GEMMS
        ]

    weight_only = gemm_results(twin)
    assert (tiles.misses, tiles.hits, len(tiles)) == (len(GEMMS), 0, len(GEMMS))
    downgraded = gemm_results(ab)
    assert (tiles.misses, tiles.hits) == (len(GEMMS), len(GEMMS))
    assert downgraded == weight_only == gemm_results(ab, EvalContext())
    for other in (
        sparse_b(*ab.b.as_tuple(), shuffle=not ab.shuffle, geometry=ab.geometry),
        sparse_b(ab.b.d1 + 1, ab.b.d2, ab.b.d3, shuffle=ab.shuffle, geometry=ab.geometry),
    ):
        misses = tiles.misses
        gemm_results(other)
        assert (tiles.misses - misses, tiles.hits) == (len(GEMMS), len(GEMMS))
    for results in tiles._entries.values():
        assert all(isinstance(tile, engine.TileResult) for tile in results)
        assert all(isinstance(value, int) for tile in results for value in vars(tile).values())
