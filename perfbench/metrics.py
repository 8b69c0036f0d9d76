"""Every metric the benchmark reports: name, unit, direction, and for the
per-layer metrics the end-to-end metric each should move (and where not).

BENCHMARK.json lists the same names and units; ``selftest.py`` checks that
the two agree.
"""

from __future__ import annotations

from typing import NamedTuple

# Bounded end-to-end metrics; every workload reports each of them. A "step"
# is one generation on the search workloads and one 1000-episode replay call
# on replay_stoch4. Step times are counted in "ref" units, the time of the
# host probe loop measured next to them (hostclock.py), because on a shared
# host raw times swing by up to 1.8x between runs. The raw numbers (gen_ms_p50,
# replay_ms_p50, p99, episodes_per_s) and the search outcomes (solve times,
# quality) are printed in the workload report, unbounded.
END_TO_END = {
    "setup_s": "s",
    "episodes_per_ref": "1/ref",
    "step_ref_p50": "ref",
}


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric(s) and workload(s) it should move
    flat_on: str  # workload(s) where it should not move


# step_ref_p50 is gen_ms_p50 (searches) or replay_ms_p50 (replay_stoch4) in
# ref units, and episodes_per_ref is proportional to gen_per_s on the searches.
_BT_MOVES = "step_ref_p50 and solve_s_p50 on search_det; episodes_per_ref on search_stoch3"
_GP_MOVES = "step_ref_p50 on search_det and search_stoch3"
_WASTE_MOVES = "gens_to_solve_p50 and solve_s_p50 on search_det"
_CKPT_MOVES = "episodes_per_ref and wall_s on search_stoch3"
_WORLD_MOVES = (
    "episodes_per_ref and step_ref_p50 on replay_stoch4; episodes_per_ref on search_stoch3"
)
_NOT_REPLAY = "replay_stoch4"

PER_LAYER = (
    LayerMetric("bt.canonical_us", "us", "lower", _BT_MOVES, _NOT_REPLAY),
    LayerMetric("bt.canonical_calls_per_gen", "calls/gen", "lower", _BT_MOVES, _NOT_REPLAY),
    LayerMetric("bt.validate_us", "us", "lower", _BT_MOVES, _NOT_REPLAY),
    LayerMetric("bt.validate_calls_per_gen", "calls/gen", "lower", _BT_MOVES, _NOT_REPLAY),
    LayerMetric("bt.subtree_span_us", "us", "lower", _BT_MOVES, _NOT_REPLAY),
    LayerMetric("bt.repair_calls", "count", "lower", _BT_MOVES, _NOT_REPLAY),
    LayerMetric("bt.parse_us", "us", "lower", _BT_MOVES, _NOT_REPLAY),
    LayerMetric("bt.compile_tree_us", "us", "lower", _BT_MOVES, _NOT_REPLAY),
    LayerMetric("bt.genotype_nodes_p50", "nodes", "lower", _BT_MOVES, _NOT_REPLAY),
    LayerMetric("gp.generation_ms", "ms", "lower", _GP_MOVES, _NOT_REPLAY),
    LayerMetric("gp.breed_ms", "ms", "lower", _GP_MOVES, _NOT_REPLAY),
    LayerMetric("gp.eval_batch_ms", "ms", "lower", _GP_MOVES, _NOT_REPLAY),
    LayerMetric("gp.select_ms", "ms", "lower", _GP_MOVES, _NOT_REPLAY),
    LayerMetric("gp.crossover_us", "us", "lower", _GP_MOVES, _NOT_REPLAY),
    LayerMetric("gp.mutate_us", "us", "lower", _GP_MOVES, _NOT_REPLAY),
    LayerMetric("gp.tournament_us", "us", "lower", _GP_MOVES, _NOT_REPLAY),
    LayerMetric("gp.parent_copy_frac", "frac", "lower", _WASTE_MOVES, _NOT_REPLAY),
    LayerMetric("gp.validate_per_offspring", "calls/child", "lower", _WASTE_MOVES, _NOT_REPLAY),
    LayerMetric("gp.checkpoint_ms", "ms", "lower", _CKPT_MOVES, "search_det, replay_stoch4"),
    LayerMetric("gp.checkpoint_bytes", "bytes", "lower", _CKPT_MOVES, "search_det, replay_stoch4"),
    LayerMetric("fitness.evaluate_us", "us", "lower", _GP_MOVES, _NOT_REPLAY),
    LayerMetric("fitness.cost_us", "us", "lower", _GP_MOVES, _NOT_REPLAY),
    LayerMetric("fitness.eval_overhead_us", "us", "lower", _GP_MOVES, _NOT_REPLAY),
    LayerMetric("world.episode_us", "us", "lower", _WORLD_MOVES, "search_det (least)"),
    LayerMetric("world.ticks_per_episode", "ticks", "lower", _WORLD_MOVES, "search_det (least)"),
    LayerMetric("world.root_success_frac", "frac", "higher", _WORLD_MOVES, "search_det (least)"),
    LayerMetric("world.failure_budget_frac", "frac", "lower", _WORLD_MOVES, "search_det (least)"),
    LayerMetric("world.tick_budget_frac", "frac", "lower", _WORLD_MOVES, "search_det (least)"),
    LayerMetric(
        "experiments.replay_ms", "ms", "lower", "step_ref_p50 on replay_stoch4",
        "search_det, search_stoch3 (their replays are untimed)",
    ),
    LayerMetric(
        "trace.overhead_s", "s", "lower", "none: traced minus untraced wall time of the same work",
        "every end-to-end metric (they are measured untraced)",
    ),
    LayerMetric(
        "trace.overhead_frac", "frac", "lower", "none: trace.overhead_s in host probe units",
        "every end-to-end metric (they are measured untraced)",
    ),
)
