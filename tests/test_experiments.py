"""Aggregation, replay, CSV outputs, experiment orchestration, CLI."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_aggregate_sums_left_to_right():
    # a compensated sum (Python 3.12's sum of floats) gives 0.6 / 3 instead
    curve = experiments.aggregate([fake_history([v]) for v in (0.1, 0.2, 0.3)])
    assert curve[0].mean_best == ((0.1 + 0.2) + 0.3) / 3


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([-171.5, -170.7025, 0.1]),
        min_size=2,
        max_size=10,
    )
)
def test_aggregate_std_best_is_the_exact_value_correctly_rounded(values):
    got = experiments.aggregate([fake_history([v]) for v in values])[0].std_best
    xs = [Fraction(v) for v in values]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    # the exact root lies within half a float step of got on either side
    below, above = math.nextafter(got, -math.inf), math.nextafter(got, math.inf)
    assert got >= 0.0
    if got > 0.0:
        assert ((Fraction(below) + Fraction(got)) / 2) ** 2 <= var
    assert var <= ((Fraction(got) + Fraction(above)) / 2) ** 2


def test_aggregate_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="^histories differ in length$"):
        experiments.aggregate([fake_history([1.0]), fake_history([1.0, 2.0])])


def test_aggregate_rejects_no_histories():
    with pytest.raises(ValueError, match="^no histories to aggregate$"):
        experiments.aggregate([])


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


def replay_counting_with_a_counter(genotype, profile, episodes, seed):
    """``experiments.replay`` as it was before its int cells: every behavior
    call adds to one ``Counter`` through a closure."""
    kinds = world.leaf_kinds(profile)
    violations = bt.validate(genotype, kinds)
    if violations:
        raise bt.MalformedGenotype(f"genotype fails validity: {violations[0]}")
    executed: Counter[str] = Counter()

    def counting(behavior_id, fn):
        def counted(state, rng):
            executed[behavior_id] += 1
            return fn(state, rng)
        return counted

    table = {bid: counting(bid, fn) for bid, fn in world.build_transition_table(profile).items()}
    compiled = bt.compile_tree(genotype, table)
    rng = random.Random(f"replay:{seed}")
    successes = 0
    time_sum = risk_sum = 0.0
    terminations: Counter[str] = Counter()
    for _ in range(episodes):
        final = world.run_compiled(compiled, rng)
        successes += final.placed
        time_sum += final.elapsed_time
        risk_sum += final.risk_sum
        terminations[final.terminated_by] += 1
    return experiments.ReplayReport(
        episodes=episodes,
        success_rate=successes / episodes,
        mean_time=time_sum / episodes,
        mean_risk=risk_sum / episodes,
        terminations=dict(terminations),
        executed=dict(executed),
    )


ORACLE_PROFILES = {
    "det": DET,
    "stoch3": world.make_profile("stoch3"),
    "stoch4": STOCH4,
    "exp3": world.make_profile("exp3", "safe_paths"),
    "stoch3_high_noise": world.make_profile("stoch3", "high_noise"),
}


@settings(max_examples=150, deadline=None)
@given(
    profile_name=st.sampled_from(sorted(ORACLE_PROFILES)),
    tree_seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 14),
    seed=st.integers(0, 10**6),
    episodes=st.integers(1, 40),
)
def test_replay_matches_counter_oracle(profile_name, tree_seed, length, seed, episodes):
    profile = ORACLE_PROFILES[profile_name]
    genotype = bt.random_genotype(world.leaf_kinds(profile), length, random.Random(tree_seed))
    got = experiments.replay(genotype, profile, episodes, seed)
    want = replay_counting_with_a_counter(genotype, profile, episodes, seed)
    assert got.as_dict() == want.as_dict()
    assert 0 not in got.executed.values()


@pytest.mark.parametrize(
    "text, never_run",
    [
        # on det localise always succeeds, so the fallback never reaches tuck
        ("f( localise tuck )", {"tuck"}),
        # the root is the only leaf; every other pool behavior stays idle
        ("have_block", set(world.CORE9) - {"have_block"}),
        # move_to_pick fails its guard, so the sequence stops before pick
        ("s( move_to_pick pick place )", {"pick", "place"}),
    ],
)
def test_replay_leaves_idle_behaviors_out_of_executed(text, never_run):
    genotype = bt.from_text(text)
    got = experiments.replay(genotype, DET, 30, 4)
    want = replay_counting_with_a_counter(genotype, DET, 30, 4)
    assert got.as_dict() == want.as_dict()
    assert never_run.isdisjoint(got.executed)
    assert set(got.executed) <= set(genotype)


# SHA-256 of the sorted-key JSON of the reference tree's stoch4 replay at seed
# 11, taken before replay counted into int cells and EpisodeResult gained
# slots. A change to any episode, termination or execution count breaks it.
REFERENCE_STOCH4_SEED11_REPLAY_DIGEST = (
    "91e82b8d545c5d591d0140fd59bfedf5765ce22d120d6cc8796e923fbddb937d"
)


def test_reference_stoch4_replay_digest_is_pinned():
    report = experiments.replay(REFERENCE_SOLUTION, STOCH4, 1000, 11)
    digest = hashlib.sha256(json.dumps(report.as_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == REFERENCE_STOCH4_SEED11_REPLAY_DIGEST


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


def tiny_config(tmp_path, experiment, generations=2, **kw):
    # the harness's own run settings, at a tiny budget
    params = dataclasses.replace(
        experiments.ExperimentConfig.params, generations=generations, population=6
    )
    defaults = dict(experiment=experiment, out_dir=str(tmp_path), seeds=(0,), params=params)
    defaults.update(kw)
    return experiments.ExperimentConfig(**defaults)


def test_exp1_writes_all_variant_files(tmp_path):
    written = experiments.run_experiment(tiny_config(tmp_path, "exp1"))
    names = {str(p.relative_to(tmp_path)) for p in written}
    for variant in ("det", "stoch1", "stoch2", "stoch3", "stoch4"):
        assert f"exp1/{variant}/seed0.csv" in names
        assert f"exp1/{variant}/best_seed0.txt" in names
        assert f"exp1/{variant}_curve.csv" in names


def test_experiment_variants_rejects_an_unknown_experiment(tmp_path):
    with pytest.raises(ValueError, match="^unknown experiment 'exp4'$"):
        experiments.experiment_variants(tiny_config(tmp_path, "exp4"))


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
    assert profile == world.make_profile("exp3", "safe_paths")
    assert profile.name == "exp3_safe_paths"
    assert "move_to_pick_safe" in profile.pool


# The 10-node straight tree with a re-pick branch; with the reference tree, the
# two hand-written trees whose risky and safe versions exp3's premise compares.
TEN_NODE_TREE = bt.from_text(
    "s( localise tuck head_up f( have_block s( move_to_pick head_down pick head_up ) ) "
    "move_to_goal head_down place )"
)


def test_exp3_premise_risky_paths_pay_only_without_a_risk_weight():
    profile = world.make_profile("exp3", "safe_paths")

    def best_j(trees, delta):
        weights = dataclasses.replace(fitness.TABLE2, delta=delta)
        return max(fitness.evaluate(t, profile, weights, 3000, random.Random(1)).j for t in trees)

    risky = (REFERENCE_SOLUTION, TEN_NODE_TREE)
    safe = tuple(
        tuple(tok + "_safe" if tok.startswith("move_to_") else tok for tok in tree)
        for tree in risky
    )
    assert best_j(risky, 0.0) > best_j(safe, 0.0)
    assert best_j(safe, 150.0) > best_j(risky, 150.0)


def test_experiment_outputs_are_deterministic(tmp_path):
    # exp3's risky paths draw from the rng, so every run draws
    c1 = tiny_config(tmp_path / "a", "exp3", generations=3)
    c2 = tiny_config(tmp_path / "b", "exp3", generations=3)
    w1 = experiments.run_experiment(c1)
    w2 = experiments.run_experiment(c2)
    for p1, p2 in zip(sorted(w1), sorted(w2)):
        assert p1.read_bytes() == p2.read_bytes()


def test_experiment_workers_fanout_matches_serial(tmp_path):
    serial = tiny_config(tmp_path / "s", "exp3", seeds=(3, 7), generations=3)
    fanned = tiny_config(tmp_path / "p", "exp3", seeds=(3, 7), generations=3, workers=2)
    w1 = experiments.run_experiment(serial)
    w2 = experiments.run_experiment(fanned)
    for p1, p2 in zip(sorted(w1), sorted(w2)):
        assert p1.read_bytes() == p2.read_bytes()
    curve = tmp_path / "s" / "exp3" / "delta0_curve.csv"
    assert curve.read_text().splitlines()[0] == "generation,mean_best,std_best,seed3,seed7"


def test_experiment_pool_gets_no_more_workers_than_jobs(tmp_path, monkeypatch):
    # a fork pool starts every worker at its first job, idle or not
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    # run_experiment imports the pool class from its package when it makes a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for workers in (64, 3, 1):  # exp3 on two seeds is four jobs
        config = tiny_config(tmp_path / str(workers), "exp3", seeds=(0, 1), workers=workers)
        experiments.run_experiment(config)
    assert sizes == [4, 3]


# sha256 of exp3's curve CSVs over seeds 0-2 at 3 generations, population 6:
# std_best is the exact value correctly rounded on every supported Python, so
# the bytes do not depend on the interpreter (CI checks Python 3.11-3.13)
EXP3_CURVE_DIGESTS = {
    "delta0_curve.csv": "ac0b6fdbff4c087721c8124be294308e8b9a43dbd1684c619e5d8a4dfd4c3563",
    "delta150_curve.csv": "1af92056e688b93be8b24dec770fd412e3421cf0d0583af9d0b5044c8c69206f",
}


def test_exp3_curve_digests_are_pinned(tmp_path):
    config = tiny_config(tmp_path, "exp3", seeds=(0, 1, 2), generations=3)
    experiments.run_experiment(config)
    got = {
        name: hashlib.sha256((tmp_path / "exp3" / name).read_bytes()).hexdigest()
        for name in EXP3_CURVE_DIGESTS
    }
    assert got == EXP3_CURVE_DIGESTS


@pytest.mark.parametrize("workers", [1, 2])
def test_experiment_returns_paths_in_job_order(tmp_path, workers):
    # per variant: each seed's CSV and best tree, then the variant's curve
    config = tiny_config(tmp_path, "exp3", seeds=(3, 7), workers=workers)
    written = experiments.run_experiment(config)
    assert [str(p.relative_to(tmp_path)) for p in written] == [
        "exp3/delta0/seed3.csv",
        "exp3/delta0/best_seed3.txt",
        "exp3/delta0/seed7.csv",
        "exp3/delta0/best_seed7.txt",
        "exp3/delta0_curve.csv",
        "exp3/delta150/seed3.csv",
        "exp3/delta150/best_seed3.txt",
        "exp3/delta150/seed7.csv",
        "exp3/delta150/best_seed7.txt",
        "exp3/delta150_curve.csv",
    ]


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


@pytest.mark.parametrize(
    "args, profile",
    [
        ([], DET),
        (["--profile", "stoch4"], STOCH4),
        (["--pool", "safe_paths"], world.make_profile("det", "safe_paths")),
        (["--profile", "exp3", "--pool", "safe_paths"], world.make_profile("exp3", "safe_paths")),
    ],
)
def test_cli_replay_picks_the_profile(tmp_path, capsys, args, profile):
    tree_file = tmp_path / "tree.txt"
    experiments.write_genotype(tree_file, REFERENCE_SOLUTION)
    rc = cli.main(["replay", "--tree", str(tree_file), "--episodes", "30", "--seed", "2", *args])
    assert rc == 0
    want = experiments.replay(REFERENCE_SOLUTION, profile, 30, 2).as_dict()
    assert json.loads(capsys.readouterr().out) == want


@pytest.mark.parametrize(
    "flags",
    [["--profile", "det"], ["--pool", "core9"], ["--profile", "stoch3", "--pool", "safe_paths"]],
)
def test_cli_replay_exp3_paths_rejects_profile_and_pool(tmp_path, capsys, flags):
    # --exp3-paths is gone: exp3's profile is the exp3 column with the
    # safe_paths pool, so the flag is an argparse error with or without others
    tree_file = tmp_path / "tree.txt"
    experiments.write_genotype(tree_file, REFERENCE_SOLUTION)
    with pytest.raises(SystemExit) as exc:
        cli.main(["replay", "--tree", str(tree_file), "--exp3-paths", *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exp3-paths" in capsys.readouterr().err


def test_cli_replay_invalid_tree_fails(tmp_path, capsys):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("s( localise have_block )\n")
    rc = cli.main(["replay", "--tree", str(tree_file)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (b"", "empty genotype text"),
        (b"s( nope )", "unknown leaf id 'nope'"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["empty", "unknown_leaf", "not_utf8"],
)
def test_cli_replay_names_the_tree_file_in_errors(tmp_path, capsys, text, message):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_bytes(text)
    assert cli.main(["replay", "--tree", str(tree_file)]) == 1
    assert capsys.readouterr().err == f"error: tree file {tree_file}: {message}\n"


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


def test_cli_run_with_population_three(tmp_path):
    # its crossover tournament keeps round(3 * 0.4) = 1 parent
    rc = cli.main(
        ["run", "--generations", "20", "--population", "3", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "run_det_seed0.csv").exists()


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


# options `btgp run` does not take: argparse refuses each before any run starts
@pytest.mark.parametrize(
    "option",
    [["--workers", "2"], ["--full"], ["--early-stop-window", "3"]],
    ids=["workers", "full", "early_stop_window"],
)
def test_cli_run_has_no_removed_option(tmp_path, capsys, option):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", *option, "--generations", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_cli_run_creates_the_directory_of_a_checkpoint_path(tmp_path):
    ckpt = tmp_path / "nodir" / "x.json"
    rc = cli.main(
        ["run", "--generations", "2", "--population", "6", "--out", str(tmp_path)]
        + ["--checkpoint", str(ckpt), "--checkpoint-every", "1"]
    )
    assert rc == 0
    assert json.loads(ckpt.read_text())["generation"] == 2


def test_cli_run_checkpoints_to_the_output_directory_without_a_path(tmp_path, capsys):
    args = ["run", "--population", "6", "--out", str(tmp_path)]
    assert cli.main(args + ["--generations", "2", "--checkpoint-every", "1"]) == 0
    ckpt = tmp_path / "run_det_seed0.checkpoint.json"
    assert json.loads(ckpt.read_text())["generation"] == 2
    capsys.readouterr()
    assert cli.main(args + ["--generations", "4", "--resume", str(ckpt)]) == 0
    assert capsys.readouterr().out.startswith("generations: 4\n")


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


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_cli_run_rejects_a_non_finite_weight(tmp_path, capsys, delta):
    args = ["run", "--profile", "exp3", "--pool", "safe_paths", f"--delta={delta}"]
    assert cli.main(args + ["--generations", "2", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: weight delta must be finite, got {float(delta)}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "data, reason",
    [
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["empty", "not_utf8"],
)
def test_cli_resume_names_a_checkpoint_that_is_not_json(tmp_path, capsys, data, reason):
    ckpt = tmp_path / "bad.json"
    ckpt.write_bytes(data)
    rc = cli.main(["run", "--generations", "2", "--resume", str(ckpt), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: checkpoint {ckpt} is not a JSON file: {reason}\n"


def test_cli_resume_rejects_a_checkpoint_missing_keys(tmp_path, capsys):
    ckpt = tmp_path / "c.json"
    ckpt.write_text(json.dumps({"format": gp.CHECKPOINT_FORMAT}))
    rc = cli.main(["run", "--generations", "2", "--resume", str(ckpt), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: checkpoint {ckpt} has no 'fingerprint' entry\n"


def test_cli_resume_refuses_a_v2_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "c.json"
    args = ["run", "--generations", "4", "--population", "6", "--out", str(tmp_path)]
    assert cli.main(args + ["--checkpoint", str(ckpt), "--checkpoint-every", "2"]) == 0
    capsys.readouterr()
    data = json.loads(ckpt.read_text())
    for version in (2, 3, 4, 5, 6, 7, 8):
        data["format"] = f"btgp-checkpoint-v{version}"
        ckpt.write_text(json.dumps(data))
        assert cli.main(args + ["--resume", str(ckpt)]) == 1
        assert capsys.readouterr().err == f"error: not a btgp-checkpoint-v9 file: {ckpt}\n"


def set_entry(data, path, value):
    *parents, last = path
    for key in parents:
        data = data[key]
    data[last] = value


NOT_AN_RNG_STATE = "'rng_state' entry is not a random.Random state"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("fingerprint",), None, "'fingerprint' entry is not of type dict"),
        (("generation",), "4", "'generation' entry is not of type int"),
        (("rng_state",), 3, "'rng_state' entry is not of type list"),
        (("rng_state",), [3, [0] * 625], NOT_AN_RNG_STATE),
        (("rng_state", 0), 99, NOT_AN_RNG_STATE),
        (("rng_state", 1), [0] * 624, NOT_AN_RNG_STATE),
        (("rng_state", 1, 0), 2**33, NOT_AN_RNG_STATE),
        (("rng_state", 2), "x", NOT_AN_RNG_STATE),
        (("population",), 5, "'population' entry is not of type list"),
        (("population", 2), 5, "population entry 2 has no 'genotype'"),
        (
            ("population", 0, "terms"),
            [1.0, 2.0],
            "population entry 0 needs a genotype string and 5 cost-term floats",
        ),
        (
            ("population", 1, "genotype"),
            7,
            "population entry 1 needs a genotype string and 5 cost-term floats",
        ),
        (
            ("history", 1, 3),
            7,
            "history row 1 is not [generation, best_j, mean_j, genotype, episodes]",
        ),
        (("population", 0, "terms", 0), math.nan, "population entry 0 has a non-finite fitness"),
        (("population", 3, "terms", 2), math.inf, "population entry 3 has a non-finite fitness"),
        # each term finite, their sum not: the rebuilt j is checked too
        (("population", 2, "terms"), [1e308] * 5, "population entry 2 has a non-finite fitness"),
        (("history", 1, 1), -math.inf, "history row 1 has a non-finite best_j/mean_j"),
        (("history", 2, 2), math.nan, "history row 2 has a non-finite best_j/mean_j"),
    ],
    ids=[
        "fingerprint",
        "generation",
        "rng_state",
        "rng_state_two_items",
        "rng_state_version",
        "rng_state_short_vector",
        "rng_state_wide_word",
        "rng_state_gauss",
        "population",
        "entry",
        "fitness",
        "genotype",
        "history",
        "fitness_nan",
        "fitness_inf",
        "j_inf",
        "best_j_inf",
        "mean_j_nan",
    ],
)
def test_cli_resume_rejects_a_malformed_checkpoint(tmp_path, capsys, path, value, message):
    ckpt = tmp_path / "c.json"
    args = ["run", "--generations", "4", "--population", "6", "--out", str(tmp_path)]
    assert cli.main(args + ["--checkpoint", str(ckpt), "--checkpoint-every", "2"]) == 0
    capsys.readouterr()
    data = json.loads(ckpt.read_text())
    set_entry(data, path, value)
    ckpt.write_text(json.dumps(data))
    assert cli.main(args + ["--resume", str(ckpt)]) == 1
    assert capsys.readouterr().err == f"error: checkpoint {ckpt}: {message}\n"


@pytest.mark.parametrize(
    "seeds, message",
    [
        ((0, 0, 1), r"^seeds must be distinct, got \(0, 0, 1\)$"),
        ((), "^seeds must not be empty$"),
    ],
    ids=["repeated", "empty"],
)
def test_experiment_config_rejects_repeated_or_empty_seeds(tmp_path, seeds, message):
    with pytest.raises(ValueError, match=message):
        experiments.ExperimentConfig("exp3", str(tmp_path), seeds=seeds)
