"""Aggregation, replay, CSV outputs, experiment orchestration, CLI."""

from __future__ import annotations

import json
import random

import pytest

from btgp import bt, cli, experiments, fitness, gp, world

DET = world.make_profile("det")
STOCH4 = world.make_profile("stoch4")

REFERENCE_SOLUTION = bt.from_text(
    "s( f( have_block s( localise tuck head_up move_to_pick head_down pick ) ) "
    "head_up move_to_goal head_down place )"
)


def fake_history(values, genotype=("localise",)):
    return [
        gp.GenerationStats(i, v, v - 1.0, genotype, 60) for i, v in enumerate(values)
    ]


def test_aggregate_single_seed_has_zero_std():
    curve = experiments.aggregate([fake_history([1.0, 2.0, 3.0])])
    assert [p.mean_best for p in curve] == [1.0, 2.0, 3.0]
    assert all(p.std_best == 0.0 for p in curve)


def test_aggregate_two_constant_runs():
    curve = experiments.aggregate(
        [fake_history([2.0, 2.0]), fake_history([4.0, 4.0])]
    )
    assert [p.mean_best for p in curve] == [3.0, 3.0]
    assert all(p.per_seed == (2.0, 4.0) for p in curve)


def test_aggregate_rejects_unequal_lengths():
    with pytest.raises(experiments.LengthMismatch):
        experiments.aggregate([fake_history([1.0]), fake_history([1.0, 2.0])])


def test_replay_reference_solution_on_det():
    report = experiments.replay(REFERENCE_SOLUTION, DET, 50, 0)
    assert report.success_rate == 1.0
    assert report.terminations == {world.ROOT_SUCCESS: 50}


def test_replay_single_condition_never_succeeds():
    report = experiments.replay(("have_block",), DET, 20, 0)
    assert report.success_rate == 0.0
    assert report.terminations == {world.FAILURE_BUDGET: 20}


def test_replay_stoch4_reproducible_and_strictly_between_0_and_1():
    a = experiments.replay(REFERENCE_SOLUTION, STOCH4, 500, 3)
    b = experiments.replay(REFERENCE_SOLUTION, STOCH4, 500, 3)
    assert a == b
    assert 0.0 < a.success_rate < 1.0
    assert a.executed["localise"] > 0


@pytest.mark.parametrize("episodes", [0, -3])
def test_replay_rejects_nonpositive_episodes(episodes):
    with pytest.raises(ValueError, match="episodes"):
        experiments.replay(REFERENCE_SOLUTION, DET, episodes, 0)


def test_replay_rejects_invalid_genotype():
    with pytest.raises(bt.MalformedGenotype):
        experiments.replay(bt.from_text("s( localise have_block )"), DET, 5, 0)


def test_history_csv_roundtrip_bytes(tmp_path):
    history = fake_history([1.5, 2.25], genotype=bt.from_text("s( localise tuck )"))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    experiments.write_history_csv(p1, history)
    experiments.write_history_csv(p2, history)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "generation,best_j,mean_j,episodes,best_genotype"
    assert lines[1].startswith("0,1.5,0.5,60,")


def test_curve_csv_schema(tmp_path):
    curve = experiments.aggregate(
        [fake_history([1.0, 2.0]), fake_history([3.0, 4.0])]
    )
    path = tmp_path / "curve.csv"
    experiments.write_curve_csv(path, curve, (0, 1))
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,mean_best,std_best,seed0,seed1"
    assert len(lines) == 3


def test_genotype_file_roundtrip(tmp_path):
    path = tmp_path / "best.txt"
    experiments.write_genotype(path, REFERENCE_SOLUTION)
    assert experiments.read_genotype(path) == REFERENCE_SOLUTION


def tiny_config(tmp_path, experiment, **kw):
    defaults = dict(
        experiment=experiment,
        out_dir=str(tmp_path),
        seeds=(0,),
        generations=2,
        population=6,
        episodes_per_eval=1,
        workers=1,
    )
    defaults.update(kw)
    return experiments.ExperimentConfig(**defaults)


def test_exp1_writes_all_variant_files(tmp_path):
    written = experiments.run_experiment(tiny_config(tmp_path, "exp1"))
    names = {str(p.relative_to(tmp_path)) for p in written}
    for variant in ("det", "stoch1", "stoch2", "stoch3", "stoch4"):
        assert f"exp1/{variant}/seed0.csv" in names
        assert f"exp1/{variant}/best_seed0.txt" in names
        assert f"exp1/{variant}_curve.csv" in names


def test_exp2_uses_stoch3_with_noise_pools(tmp_path):
    variants = experiments.experiment_variants(tiny_config(tmp_path, "exp2"))
    names = [v[0] for v in variants]
    assert names == ["core9", "low_noise", "high_noise"]
    assert all(p.pick_failure == 0.2 for _, p, _ in variants)
    assert len(variants[2][1].pool) == 39


def test_exp3_variants_delta_pair():
    config = tiny_config("/tmp", "exp3")
    variants = experiments.experiment_variants(config)
    assert [v[0] for v in variants] == ["delta0", "delta150"]
    deltas = [w.delta for _, _, w in variants]
    assert deltas == [0.0, 150.0]
    profile = variants[0][1]
    assert profile.risky_losing_cube == 0.2
    assert profile.risky_losing_localization == 0.4
    assert "move_to_pick_safe" in profile.pool


def test_experiment_outputs_are_deterministic(tmp_path):
    c1 = tiny_config(tmp_path / "a", "custom", profile="stoch3", generations=3)
    c2 = tiny_config(tmp_path / "b", "custom", profile="stoch3", generations=3)
    w1 = experiments.run_experiment(c1)
    w2 = experiments.run_experiment(c2)
    for p1, p2 in zip(sorted(w1), sorted(w2)):
        assert p1.read_bytes() == p2.read_bytes()


def test_experiment_workers_fanout_matches_serial(tmp_path):
    serial = tiny_config(tmp_path / "s", "custom", seeds=(3, 7), generations=3)
    fanned = tiny_config(tmp_path / "p", "custom", seeds=(3, 7), generations=3, workers=2)
    w1 = experiments.run_experiment(serial)
    w2 = experiments.run_experiment(fanned)
    for p1, p2 in zip(sorted(w1), sorted(w2)):
        assert p1.read_bytes() == p2.read_bytes()
    curve = tmp_path / "s" / "custom" / "det_core9_curve.csv"
    assert curve.read_text().splitlines()[0] == "generation,mean_best,std_best,seed3,seed7"


def test_cli_replay_reports_json(tmp_path, capsys):
    tree_file = tmp_path / "tree.txt"
    experiments.write_genotype(tree_file, REFERENCE_SOLUTION)
    rc = cli.main(
        ["replay", "--tree", str(tree_file), "--profile", "det", "--episodes", "20", "--seed", "1"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["success_rate"] == 1.0
    assert report["episodes"] == 20


def test_cli_replay_invalid_tree_fails(tmp_path, capsys):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("s( localise have_block )\n")
    rc = cli.main(["replay", "--tree", str(tree_file)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_replay_zero_episodes_fails(tmp_path, capsys):
    tree_file = tmp_path / "tree.txt"
    experiments.write_genotype(tree_file, REFERENCE_SOLUTION)
    rc = cli.main(["replay", "--tree", str(tree_file), "--episodes", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: episodes must be >= 1\n"


def test_cli_run_writes_outputs(tmp_path, capsys):
    rc = cli.main(
        [
            "run",
            "--profile",
            "det",
            "--seed",
            "0",
            "--generations",
            "2",
            "--population",
            "6",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "run_det_seed0.csv").exists()
    assert (tmp_path / "run_det_seed0_best.txt").exists()
    out = capsys.readouterr().out
    assert "episodes:" in out


def test_cli_uses_env_var_for_default_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "env_out"))
    rc = cli.main(
        ["run", "--profile", "det", "--generations", "1", "--population", "6"]
    )
    assert rc == 0
    assert (tmp_path / "env_out" / "run_det_seed0.csv").exists()


def test_cli_exp1_tiny(tmp_path):
    rc = cli.main(
        [
            "exp1",
            "--seeds",
            "0..1",
            "--generations",
            "2",
            "--population",
            "6",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    curve = tmp_path / "exp1" / "det_curve.csv"
    assert curve.exists()
    header = curve.read_text().splitlines()[0]
    assert header == "generation,mean_best,std_best,seed0,seed1"


def test_cli_seed_parsing():
    assert cli._parse_seeds("0..3") == (0, 1, 2, 3)
    assert cli._parse_seeds("2,5,7") == (2, 5, 7)
    assert cli._parse_seeds("4") == (4,)


def test_cli_run_rejects_negative_generations(tmp_path, capsys):
    rc = cli.main(["run", "--generations", "-2", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: generations must be >= 0, got -2\n"
    assert not (tmp_path / "out").exists()


def test_cli_rejects_empty_seed_range(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["exp1", "--seeds", "5..3"])
    assert exc.value.code == 2
    assert "argument --seeds: empty seed range '5..3'" in capsys.readouterr().err


def test_cli_rejects_repeated_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["exp3", "--seeds", "0,0", "--generations", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --seeds: repeated seed in '0,0'" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_exp_rejects_workers_below_one(tmp_path, capsys, workers):
    out = tmp_path / "out"
    rc = cli.main(
        ["exp1", "--workers", workers, "--generations", "1", "--seeds", "0", "--out", str(out)]
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
    assert not out.exists()


def test_cli_run_has_no_workers_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--workers", "2", "--generations", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_cli_run_rejects_checkpoint_without_interval(tmp_path, capsys):
    ckpt = tmp_path / "x.json"
    rc = cli.main(
        ["run", "--generations", "2", "--population", "6", "--checkpoint", str(ckpt)]
        + ["--out", str(tmp_path)]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: a checkpoint path needs checkpoint_every >= 1\n"
    assert not ckpt.exists()


def test_cli_rejects_unknown_profile():
    with pytest.raises(SystemExit):
        cli.main(["run", "--profile", "nope"])


def test_cli_checkpoint_resume(tmp_path):
    ckpt = tmp_path / "c.json"
    rc = cli.main(
        [
            "run",
            "--generations",
            "4",
            "--population",
            "6",
            "--checkpoint",
            str(ckpt),
            "--checkpoint-every",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0 and ckpt.exists()
    rc = cli.main(
        [
            "run",
            "--generations",
            "6",
            "--population",
            "6",
            "--resume",
            str(ckpt),
            "--out",
            str(tmp_path / "resumed"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "resumed" / "run_det_seed0.csv").exists()


def test_cli_resume_rejects_a_checkpoint_missing_keys(tmp_path, capsys):
    ckpt = tmp_path / "c.json"
    ckpt.write_text(json.dumps({"format": gp.CHECKPOINT_FORMAT}))
    rc = cli.main(["run", "--generations", "2", "--resume", str(ckpt), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: checkpoint {ckpt} has no 'fingerprint' entry\n"
