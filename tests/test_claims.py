"""The paper's claims as directional tests on final bests of full-budget runs.

These run the experiment harness at its defaults (2000 generations, ten
seeds), so they carry the ``slow`` marker: ``python -m pytest -m slow``.
"""

from __future__ import annotations

import pytest

from btgp import experiments, world

REPLAY_EPISODES = 2000
REPLAY_SEED = 7
RISKY_MOVES = ("move_to_pick", "move_to_goal")
SAFE_MOVES = ("move_to_pick_safe", "move_to_goal_safe")


@pytest.mark.slow
def test_exp3_risk_weight_steers_to_safe_paths(tmp_path):
    # Bars fixed before seeds 6-9 were run: with the risk weight at 150 the
    # final bests avoid the risky paths, without it they mostly take them.
    config = experiments.ExperimentConfig("exp3", str(tmp_path), workers=2)
    experiments.run_experiment(config)
    profile = world.make_profile("exp3", "safe_paths")
    rows = {}
    for delta in experiments.EXP3_DELTAS:
        for seed in config.seeds:
            path = tmp_path / "exp3" / f"delta{delta:g}" / f"best_seed{seed}.txt"
            genotype = experiments.read_genotype(path)
            report = experiments.replay(genotype, profile, REPLAY_EPISODES, REPLAY_SEED)
            risky = sum(report.executed.get(b, 0) for b in RISKY_MOVES) / REPLAY_EPISODES
            safe = sum(report.executed.get(b, 0) for b in SAFE_MOVES) / REPLAY_EPISODES
            rows[delta, seed] = (risky, safe, report.success_rate)
    for (delta, seed), (risky, safe, success) in rows.items():
        print(f"delta={delta:g} seed={seed} risky={risky:.2f} safe={safe:.2f} success={success}")
    never_places = sum(success == 0.0 for _, _, success in rows.values())
    print(f"final bests that never place: {never_places} of {len(rows)}")
    averse = sum(rows[150.0, s][0] == 0.0 for s in config.seeds)
    risk_taking = sum(rows[0.0, s][0] > rows[0.0, s][1] for s in config.seeds)
    assert averse >= 8, f"{averse} of 10 delta=150 bests take no risky move"
    assert risk_taking >= 7, f"{risk_taking} of 10 delta=0 bests move more risky than safe"
