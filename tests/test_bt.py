"""Genotype parsing, validity, tick semantics, spans, random generation."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btgp import bt

KINDS = {
    "pick": bt.ACTION,
    "place": bt.ACTION,
    "move_pick": bt.ACTION,
    "have_block": bt.CONDITION,
    "a": bt.ACTION,
    "b": bt.ACTION,
    "c": bt.ACTION,
}


def scripted_table(results, calls):
    """Transition table returning a fixed status per behavior id; each call
    appends its id to ``calls``."""

    def leaf(bid, status):
        def fn(state, rng):
            calls.append(bid)
            return status
        return fn

    return {bid: leaf(bid, status) for bid, status in results.items()}


def tick(tokens, results):
    """(status, executed ids) of one tick of the compiled tree."""
    calls = []
    policy = bt.compile_tree(tokens, scripted_table(results, calls))
    return policy(None, None), calls


def oracle(node, results, calls):
    """Status of one tick of a parsed tree: a Sequence's first non-Success
    child status, else Success; a Fallback's first non-Failure child status,
    else Failure; children are visited lazily, left to right."""
    if isinstance(node, bt.Leaf):
        calls.append(node.behavior_id)
        return results[node.behavior_id]
    skip = bt.SUCCESS if node.kind == "s" else bt.FAILURE
    statuses = (oracle(c, results, calls) for c in node.children)
    return next((status for status in statuses if status != skip), skip)


def tree_size(node):
    if isinstance(node, bt.Leaf):
        return 1
    return 1 + sum(tree_size(c) for c in node.children)


def test_parse_sequence_of_two_actions():
    tree = bt.parse(("s(", "pick", "place", ")"), KINDS)
    assert tree == bt.sequence(bt.Leaf("pick", False), bt.Leaf("place", False))


def test_parse_single_condition_leaf():
    tree = bt.parse(("have_block",), KINDS)
    assert tree == bt.Leaf("have_block", True)


def test_parse_nested_fallback():
    tokens = ("f(", "have_block", "s(", "move_pick", "pick", ")", ")")
    tree = bt.parse(tokens, KINDS)
    expected = bt.fallback(
        bt.Leaf("have_block", True),
        bt.sequence(bt.Leaf("move_pick", False), bt.Leaf("pick", False)),
    )
    assert tree == expected


@pytest.mark.parametrize(
    "tokens",
    [
        (),
        ("s(", "a"),
        ("s(", "a", ")", ")"),
        (")",),
        ("a", "b"),
        ("s(", "nope", ")"),
        ("s(", "a", ")", "b"),
    ],
)
def test_parse_rejects_malformed(tokens):
    with pytest.raises(bt.MalformedGenotype):
        bt.parse(tokens, KINDS)
    with pytest.raises(bt.MalformedGenotype):
        bt.compile_tree(tokens, scripted_table(dict.fromkeys(KINDS, bt.SUCCESS), []))


def test_serialize_inverts_parse():
    tokens = ("s(", "pick", "place", ")")
    assert bt.serialize(bt.parse(tokens, KINDS)) == tokens
    assert bt.serialize(bt.Leaf("a", False)) == ("a",)


def test_fallback_with_nested_sequence_serializes_to_seven_tokens():
    tree = bt.fallback(
        bt.Leaf("have_block", True),
        bt.sequence(bt.Leaf("a", False), bt.Leaf("b", False)),
    )
    tokens = bt.serialize(tree)
    assert len(tokens) == 7  # 5 nodes + 2 closes
    assert bt.parse(tokens, KINDS) == tree


def test_roundtrip_random_genotypes():
    rng = random.Random(7)
    for _ in range(300):
        g = bt.random_genotype(KINDS, rng.randint(1, 20), rng)
        assert bt.serialize(bt.parse(g, KINDS)) == g
        assert bt.node_count(g) == tree_size(bt.parse(g, KINDS))


def test_validate_same_control_kind_nesting():
    violations = bt.validate(("s(", "s(", "a", "b", ")", "c", ")"), KINDS)
    assert [v.code for v in violations] == ["V1"]


def test_validate_condition_in_rightmost_position():
    violations = bt.validate(("s(", "a", "have_block", ")"), KINDS)
    assert [v.code for v in violations] == ["V2"]


def test_validate_childless_control():
    violations = bt.validate(("s(", "f(", ")", "a", ")"), KINDS)
    assert [v.code for v in violations] == ["V3"]


def test_validate_identical_adjacent_conditions():
    violations = bt.validate(("f(", "have_block", "have_block", "a", ")"), KINDS)
    assert [v.code for v in violations] == ["V4"]


def test_validate_accepts_plain_sequence():
    assert not bt.validate(("s(", "a", "b", ")"), KINDS)
    assert not bt.validate(("have_block",), KINDS)
    # conditions may be adjacent when not identical, and last child may be a control
    assert not bt.validate(("f(", "have_block", "s(", "a", "have_block", "b", ")", ")"), KINDS)


def test_tick_sequence_and_fallback_basics():
    status, _ = tick(("s(", "a", "b", ")"), {"a": bt.SUCCESS, "b": bt.SUCCESS})
    assert status == bt.SUCCESS
    status, calls = tick(("f(", "a", "b", ")"), {"a": bt.FAILURE, "b": bt.FAILURE})
    assert status == bt.FAILURE
    assert calls == ["a", "b"]


def test_tick_sequence_short_circuits():
    status, calls = tick(("s(", "a", "b", ")"), {"a": bt.FAILURE, "b": bt.SUCCESS})
    assert status == bt.FAILURE
    assert calls == ["a"]


def test_tick_fallback_short_circuits():
    status, calls = tick(("f(", "a", "b", ")"), {"a": bt.SUCCESS, "b": bt.FAILURE})
    assert status == bt.SUCCESS
    assert calls == ["a"]


def test_tick_fallback_runs_pick_sequence_once():
    results = {"have_block": bt.FAILURE, "move_pick": bt.SUCCESS, "pick": bt.SUCCESS}
    status, calls = tick(("f(", "have_block", "s(", "move_pick", "pick", ")", ")"), results)
    assert status == bt.SUCCESS
    assert calls == ["have_block", "move_pick", "pick"]


def test_tick_propagates_running():
    results = {"a": bt.SUCCESS, "b": bt.RUNNING, "c": bt.SUCCESS}
    assert tick(("s(", "a", "b", "c", ")"), results) == (bt.RUNNING, ["a", "b"])
    assert tick(("f(", "c", "b", ")"), results) == (bt.SUCCESS, ["c"])
    results["c"] = bt.FAILURE
    assert tick(("f(", "c", "b", "a", ")"), results) == (bt.RUNNING, ["c", "b"])


def test_compile_tree_leaf_is_the_table_entry():
    table = scripted_table({"a": bt.SUCCESS}, [])
    assert bt.compile_tree(("a",), table) is table["a"]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 15),
    statuses=st.lists(
        st.sampled_from((bt.SUCCESS, bt.FAILURE)), min_size=len(KINDS), max_size=len(KINDS)
    ),
)
def test_compile_tree_matches_short_circuit_oracle(seed, length, statuses):
    g = bt.random_genotype(KINDS, length, random.Random(seed))
    results = dict(zip(sorted(KINDS), statuses))
    expected_calls: list[str] = []
    expected = oracle(bt.parse(g, KINDS), results, expected_calls)
    assert tick(g, results) == (expected, expected_calls)


def tree_tokens():
    """Token strings of random parseable trees: any nesting, childless
    controls included, validity not enforced."""

    def control(children):
        return st.tuples(
            st.sampled_from((bt.SEQUENCE_OPEN, bt.FALLBACK_OPEN)), st.lists(children, max_size=4)
        ).map(lambda kc: (kc[0], *itertools.chain.from_iterable(kc[1]), bt.CLOSE))

    leaves = st.sampled_from(sorted(KINDS)).map(lambda tok: (tok,))
    return st.recursive(leaves, control, max_leaves=12)


def noise_tokens():
    alphabet = (bt.SEQUENCE_OPEN, bt.FALLBACK_OPEN, bt.CLOSE, "a", "have_block", "nope")
    return st.lists(st.sampled_from(alphabet), max_size=12).map(tuple)


def token_strings():
    """Parseable trees, near misses of them (a token cut from either end,
    trailing tokens) and raw noise (stray closes, unknown ids, empty input)."""
    trees = tree_tokens()
    return st.one_of(
        trees,
        trees.map(lambda t: t[1:]),
        trees.map(lambda t: t[:-1]),
        st.tuples(trees, noise_tokens().filter(bool)).map(lambda p: p[0] + p[1]),
        noise_tokens(),
    )


@settings(max_examples=500, deadline=None)
@given(token_strings())
def test_compile_tree_raises_exactly_when_parse_does(tokens):
    table = scripted_table(dict.fromkeys(KINDS, bt.SUCCESS), [])
    try:
        bt.parse(tokens, KINDS)
    except bt.MalformedGenotype:
        with pytest.raises(bt.MalformedGenotype):
            bt.compile_tree(tokens, table)
    else:
        assert callable(bt.compile_tree(tokens, table))


@settings(max_examples=300, deadline=None)
@given(
    tokens=tree_tokens(),
    statuses=st.lists(
        st.sampled_from((bt.SUCCESS, bt.FAILURE, bt.RUNNING)),
        min_size=len(KINDS),
        max_size=len(KINDS),
    ),
)
def test_compile_tree_matches_oracle_on_any_parseable_tree(tokens, statuses):
    results = dict(zip(sorted(KINDS), statuses))
    expected_calls: list[str] = []
    expected = oracle(bt.parse(tokens, KINDS), results, expected_calls)
    assert tick(tokens, results) == (expected, expected_calls)


def test_tick_determinism_with_stub_world():
    tokens = ("f(", "have_block", "s(", "move_pick", "pick", ")", ")")
    results = {"have_block": bt.FAILURE, "move_pick": bt.SUCCESS, "pick": bt.FAILURE}
    assert tick(tokens, results) == tick(tokens, results)
    assert tick(tokens, results) == (bt.FAILURE, ["have_block", "move_pick", "pick"])


def test_random_genotype_length_one_is_a_leaf():
    g = bt.random_genotype(KINDS, 1, random.Random(0))
    assert len(g) == 1 and g[0] in KINDS


def test_random_genotype_deterministic_per_seed():
    a = bt.random_genotype(KINDS, 4, random.Random(42))
    b = bt.random_genotype(KINDS, 4, random.Random(42))
    assert a == b


def test_random_genotype_always_valid():
    rng = random.Random(11)
    for _ in range(10_000):
        g = bt.random_genotype(KINDS, 4, rng)
        assert bt.node_count(g) == 4
        assert not bt.validate(g, KINDS)


def test_random_genotype_rejects_bad_args():
    with pytest.raises(bt.PoolEmpty):
        bt.random_genotype({}, 4, random.Random(0))
    with pytest.raises(ValueError):
        bt.random_genotype(KINDS, 0, random.Random(0))


def test_subtree_span_leaf_and_root():
    tokens = ("s(", "a", "b", ")")
    assert bt.subtree_span(tokens, 1) == (1, 2)
    assert bt.subtree_span(tokens, 0) == (0, 4)


def test_subtree_span_inner_control_reparses():
    tokens = ("s(", "a", "f(", "b", "c", ")", "have_block", "pick", ")")
    start, stop = bt.subtree_span(tokens, 2)
    inner = tokens[start:stop]
    assert bt.parse(inner, KINDS) == bt.fallback(bt.Leaf("b", False), bt.Leaf("c", False))


def test_subtree_span_rejects_close_and_out_of_range():
    tokens = ("s(", "a", ")")
    with pytest.raises(IndexError):
        bt.subtree_span(tokens, 2)
    with pytest.raises(IndexError):
        bt.subtree_span(tokens, 9)


def test_canonical_splices_single_child_controls():
    assert bt.canonical(("f(", "a", ")")) == ("a",)
    assert bt.canonical(("s(", "a", "f(", "b", ")", ")")) == ("s(", "a", "b", ")")
    assert bt.canonical(("s(", "f(", "s(", "a", ")", ")", "b", ")")) == ("s(", "a", "b", ")")
    # multi-child controls are preserved
    tokens = ("s(", "a", "f(", "b", "c", ")", ")")
    assert bt.canonical(tokens) == tokens


def restart_loop_canonical(tokens):
    """Reference splicing: remove the first single-child control found, then
    rescan from the start, until a full scan splices nothing."""
    toks = tokens
    changed = True
    while changed:
        changed = False
        stack = []  # [open_index, child_count]
        for i, tok in enumerate(toks):
            if bt.is_control_open(tok):
                if stack:
                    stack[-1][1] += 1
                stack.append([i, 0])
            elif tok == bt.CLOSE:
                open_index, children = stack.pop()
                if children == 1:
                    toks = toks[:open_index] + toks[open_index + 1 : i] + toks[i + 1 :]
                    changed = True
                    break
            elif stack:
                stack[-1][1] += 1
    return toks


def node_indices(tokens):
    """Indices of all node tokens (everything except closes)."""
    return [i for i, t in enumerate(tokens) if t != bt.CLOSE]


@st.composite
def wrapped_genotypes(draw):
    """Random valid genotypes with up to six single-child wrappers injected
    around random subtrees (wrappers may nest)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    toks = bt.random_genotype(KINDS, draw(st.integers(1, 15)), rng)
    for _ in range(draw(st.integers(0, 6))):
        start, stop = bt.subtree_span(toks, rng.choice(node_indices(toks)))
        wrapper = rng.choice((bt.SEQUENCE_OPEN, bt.FALLBACK_OPEN))
        toks = toks[:start] + (wrapper,) + toks[start:stop] + (bt.CLOSE,) + toks[stop:]
    return toks


@pytest.mark.parametrize(
    "tokens",
    [
        ("a",),
        ("s(", ")"),
        ("s(", "f(", ")", ")"),
        ("s(", "f(", ")", "a", ")"),
        ("f(", "s(", "f(", "a", ")", ")", ")"),
        ("s(", "f(", "a", ")", "f(", "s(", "b", "c", ")", ")", ")"),
    ],
)
def test_canonical_matches_restart_loop_on_edge_cases(tokens):
    assert bt.canonical(tokens) == restart_loop_canonical(tokens)


@settings(max_examples=300, deadline=None)
@given(wrapped_genotypes())
def test_canonical_matches_restart_loop(tokens):
    assert bt.canonical(tokens) == restart_loop_canonical(tokens)


@settings(max_examples=200, deadline=None)
@given(wrapped_genotypes())
def test_canonical_is_idempotent(tokens):
    once = bt.canonical(tokens)
    assert bt.canonical(once) == once


@settings(max_examples=200, deadline=None)
@given(
    tokens=wrapped_genotypes(),
    statuses=st.lists(
        st.sampled_from((bt.SUCCESS, bt.FAILURE, bt.RUNNING)),
        min_size=len(KINDS),
        max_size=len(KINDS),
    ),
)
def test_canonical_preserves_behavior(tokens, statuses):
    results = dict(zip(sorted(KINDS), statuses))
    assert tick(bt.canonical(tokens), results) == tick(tokens, results)


@settings(max_examples=200, deadline=None)
@given(wrapped_genotypes())
def test_node_spans_match_subtree_span(tokens):
    spans = bt.node_spans(tokens)
    assert [(s, e) for s, e, _ in spans] == [
        bt.subtree_span(tokens, i) for i in node_indices(tokens)
    ]
    assert [n for _, _, n in spans] == [bt.node_count(tokens[s:e]) for s, e, _ in spans]


@settings(max_examples=300, deadline=None)
@given(wrapped_genotypes())
def test_node_facts_agree_with_the_tree(tokens):
    facts = bt.node_facts(tokens)
    assert [row[:3] for row in facts] == bt.node_spans(tokens)
    spans = [bt.subtree_span(tokens, i) for i in node_indices(tokens)]
    assert [row[:2] for row in facts] == spans
    for k, (start, stop, count, parent, children) in enumerate(facts):
        assert count == bt.node_count(tokens[start:stop])
        # the parent is the innermost span strictly around the node
        assert parent == max((s for s, e in spans if s < start and stop <= e), default=-1)
        # the children are row k + 1 and then each sibling ``count`` rows on
        kids = [row for row in facts if row[3] == start]
        assert children == len(kids)
        walked, j = [], k + 1
        while j < k + count:
            walked.append(facts[j])
            j += facts[j][2]
        assert walked == kids
        if parent >= 0:
            # a sibling borders the span exactly when the parent's open or
            # close does not
            siblings = [row for row in facts if row[3] == parent]
            assert any(row[1] == start for row in siblings) == (start - 1 != parent)
            assert any(row[0] == stop for row in siblings) == (tokens[stop] != bt.CLOSE)


def test_repair_produces_valid_genotype():
    rng = random.Random(5)
    broken = [
        ("s(", "s(", "a", "b", ")", "c", ")"),
        ("s(", "a", "have_block", ")"),
        ("s(", "f(", ")", "a", ")"),
        ("f(", "have_block", "have_block", "a", ")"),
        ("s(", "f(", ")", ")"),
    ]
    for tokens in broken:
        fixed = bt.repair(tokens, KINDS, rng)
        assert not bt.validate(fixed, KINDS)


def test_text_roundtrip():
    tokens = ("f(", "have_block", "s(", "move_pick", "pick", ")", ")")
    assert bt.from_text(bt.to_text(tokens)) == tokens
    with pytest.raises(bt.MalformedGenotype):
        bt.from_text("   ")
