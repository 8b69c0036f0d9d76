"""Genotype acceptance, validity, tick semantics, spans, random generation."""

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


def parse_tree(tokens):
    """Reference parser: a leaf becomes its behavior id, a control a
    ``(kind, children)`` pair with kind "s" or "f". Childless controls parse
    and V1-V4 are not checked; a sequence that is not one balanced tree over
    KINDS raises MalformedGenotype."""
    toks = tuple(tokens)
    if not toks:
        raise bt.MalformedGenotype("empty genotype")
    pos = 0

    def node():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == bt.CLOSE:
            raise bt.MalformedGenotype(f"unmatched close at token {pos - 1}")
        if tok not in (bt.SEQUENCE_OPEN, bt.FALLBACK_OPEN):
            if tok not in KINDS:
                raise bt.MalformedGenotype(f"unknown leaf id {tok!r}")
            return tok
        children = []
        while True:
            if pos == len(toks):
                raise bt.MalformedGenotype("unclosed control node")
            if toks[pos] == bt.CLOSE:
                pos += 1
                return (tok[0], tuple(children))
            children.append(node())

    root = node()
    if pos != len(toks):
        raise bt.MalformedGenotype(f"trailing tokens after position {pos}")
    return root


def oracle(node, results, calls):
    """Status of one tick of a ``parse_tree`` tree: a Sequence's Failure at
    its first failing child, else Success; a Fallback's Success at its first
    succeeding child, else Failure; children are visited lazily, left to right."""
    if isinstance(node, str):
        calls.append(node)
        return results[node]
    kind, children = node
    skip = bt.SUCCESS if kind == "s" else bt.FAILURE
    statuses = (oracle(c, results, calls) for c in children)
    return next((status for status in statuses if status != skip), skip)


def tree_size(node):
    if isinstance(node, str):
        return 1
    return 1 + sum(tree_size(c) for c in node[1])


def test_parse_sequence_of_two_actions():
    tokens = ("s(", "pick", "place", ")")
    assert bt.parse(list(tokens), KINDS) == tokens
    assert parse_tree(tokens) == ("s", ("pick", "place"))


def test_parse_single_condition_leaf():
    assert bt.parse(("have_block",), KINDS) == ("have_block",)
    assert parse_tree(("have_block",)) == "have_block"


def test_parse_nested_fallback():
    tokens = ("f(", "have_block", "s(", "move_pick", "pick", ")", ")")
    assert bt.parse(tokens, KINDS) == tokens
    assert parse_tree(tokens) == ("f", ("have_block", ("s", ("move_pick", "pick"))))


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
        parse_tree(tokens)
    with pytest.raises(bt.MalformedGenotype):
        bt.parse(tokens, KINDS)


@pytest.mark.parametrize(
    "tokens, code",
    [
        (("s(", "s(", "a", "b", ")", "c", ")"), "V1"),
        (("s(", "a", "have_block", ")"), "V2"),
        (("s(", "f(", ")", "a", ")"), "V3"),
        (("f(", "have_block", "have_block", "a", ")"), "V4"),
    ],
)
def test_parse_rejects_the_first_violation(tokens, code):
    parse_tree(tokens)  # a balanced tree over known leaves
    with pytest.raises(bt.MalformedGenotype, match=f"^breaks {code} \\("):
        bt.parse(tokens, KINDS)


def test_fallback_with_nested_sequence_serializes_to_seven_tokens():
    tokens = ("f(", "have_block", "s(", "a", "b", ")", ")")
    assert parse_tree(tokens) == ("f", ("have_block", ("s", ("a", "b"))))
    assert len(tokens) == 7 and bt.node_count(tokens) == 5  # 5 nodes + 2 closes
    assert bt.parse(tokens, KINDS) == tokens


def test_roundtrip_random_genotypes():
    rng = random.Random(7)
    for _ in range(300):
        g = bt.random_genotype(KINDS, rng.randint(1, 20), rng)
        assert bt.parse(g, KINDS) == g
        assert bt.node_count(g) == tree_size(parse_tree(g))


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


def test_compile_tree_leaf_is_the_table_entry():
    table = scripted_table({"a": bt.SUCCESS}, [])
    assert bt.compile_tree(("a",), table) is table["a"]


def test_compile_tree_single_child_control_is_its_child():
    # a single-child control passes its child's status through unchanged
    table = scripted_table({"a": bt.SUCCESS}, [])
    assert bt.compile_tree(("s(", "f(", "a", ")", ")"), table) is table["a"]


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
    expected = oracle(parse_tree(g), results, expected_calls)
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
def test_parse_raises_exactly_when_the_reference_parser_or_validate_does(tokens):
    """bt.parse raises when the reference parser does, and on a parseable
    tree exactly when validate finds a violation; compile_tree compiles
    every parseable tree."""
    table = scripted_table(dict.fromkeys(KINDS, bt.SUCCESS), [])
    try:
        parse_tree(tokens)
    except bt.MalformedGenotype:
        with pytest.raises(bt.MalformedGenotype):
            bt.parse(tokens, KINDS)
    else:
        assert callable(bt.compile_tree(tokens, table))
        if bt.validate(tokens, KINDS):
            with pytest.raises(bt.MalformedGenotype, match="^breaks V"):
                bt.parse(tokens, KINDS)
        else:
            assert bt.parse(tokens, KINDS) == tokens


@settings(max_examples=300, deadline=None)
@given(
    tokens=tree_tokens(),
    statuses=st.lists(
        st.sampled_from((bt.SUCCESS, bt.FAILURE)),
        min_size=len(KINDS),
        max_size=len(KINDS),
    ),
)
def test_compile_tree_matches_oracle_on_any_parseable_tree(tokens, statuses):
    results = dict(zip(sorted(KINDS), statuses))
    expected_calls: list[str] = []
    expected = oracle(parse_tree(tokens), results, expected_calls)
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


def test_subtree_span_leaf_and_root():
    tokens = ("s(", "a", "b", ")")
    assert bt.subtree_span(tokens, 1) == (1, 2)
    assert bt.subtree_span(tokens, 0) == (0, 4)


def test_subtree_span_inner_control_reparses():
    tokens = ("s(", "a", "f(", "b", "c", ")", "have_block", "pick", ")")
    start, stop = bt.subtree_span(tokens, 2)
    inner = tokens[start:stop]
    assert parse_tree(inner) == ("f", ("b", "c"))


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
        st.sampled_from((bt.SUCCESS, bt.FAILURE)),
        min_size=len(KINDS),
        max_size=len(KINDS),
    ),
)
def test_canonical_preserves_behavior(tokens, statuses):
    results = dict(zip(sorted(KINDS), statuses))
    assert tick(bt.canonical(tokens), results) == tick(tokens, results)


def tree_rows(node, start=0, parent=-1):
    """``bt.node_facts`` rows of a ``parse_tree`` tree whose first token is
    at ``start``: the node's row, then its subtrees' rows in order."""
    if isinstance(node, str):
        return [(start, start + 1, 1, parent, 0)]
    rows, pos = [], start + 1
    for child in node[1]:
        sub = tree_rows(child, pos, start)
        rows += sub
        pos = sub[0][1]
    return [(start, pos + 1, 1 + len(rows), parent, len(node[1]))] + rows


@settings(max_examples=300, deadline=None)
@given(wrapped_genotypes())
def test_node_facts_agree_with_the_tree(tokens):
    facts = bt.node_facts(tokens)
    assert facts == tree_rows(parse_tree(tokens))
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


def validate_tracking_children(tokens, kinds):
    """``bt.validate`` as a stack of per-control records (kind, open index,
    child count, last condition child), each constraint checked where a
    child is added or a control closes."""
    toks = tuple(tokens)
    if not toks:
        raise bt.MalformedGenotype("empty genotype")
    violations = []
    # stack entries: [kind, open_index, n_children, last_condition_id, last_child_cond_index]
    stack = []
    roots = 0
    for i, tok in enumerate(toks):
        if tok == bt.CLOSE:
            if not stack:
                raise bt.MalformedGenotype(f"unmatched close at token {i}")
            kind, open_index, n_children, _, last_cond = stack.pop()
            if n_children == 0:
                violations.append(bt.Violation("V3", open_index, "control node without children"))
            if last_cond is not None:
                violations.append(
                    bt.Violation("V2", last_cond, "condition in the rightmost position")
                )
            continue
        parent = stack[-1] if stack else None
        if parent is None:
            roots += 1
            if roots > 1:
                raise bt.MalformedGenotype(f"trailing tokens after position {i}")
        if bt.is_control_open(tok):
            kind = "s" if tok == bt.SEQUENCE_OPEN else "f"
            if parent is not None:
                if parent[0] == kind:
                    violations.append(
                        bt.Violation("V1", i, "same control kind on consecutive levels")
                    )
                parent[2] += 1
                parent[3] = None
                parent[4] = None
            stack.append([kind, i, 0, None, None])
            continue
        leaf_kind = kinds.get(tok)
        if leaf_kind is None:
            raise bt.MalformedGenotype(f"unknown leaf id {tok!r}")
        is_cond = leaf_kind == bt.CONDITION
        if parent is not None:
            if is_cond and parent[3] == tok:
                violations.append(
                    bt.Violation("V4", i, "identical condition nodes next to each other")
                )
            parent[2] += 1
            parent[3] = tok if is_cond else None
            parent[4] = i if is_cond else None
    if stack:
        raise bt.MalformedGenotype("unclosed control node")
    return violations


# KINDS plus a second condition, so that V4 can tell two condition ids apart
TWO_CONDITIONS = {**KINDS, "path_clear": bt.CONDITION}
ALPHABET = (bt.SEQUENCE_OPEN, bt.FALLBACK_OPEN, bt.CLOSE, "a", "have_block", "path_clear", "nope")


@st.composite
def corrupted_trees(draw):
    """Random valid genotypes with up to four tokens inserted, deleted or
    replaced at random positions."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    toks = list(bt.random_genotype(TWO_CONDITIONS, draw(st.integers(1, 12)), rng))
    for _ in range(draw(st.integers(0, 4))):
        i = rng.randrange(len(toks) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            toks.insert(i, rng.choice(ALPHABET))
        elif i < len(toks):
            toks[i : i + 1] = [] if edit == 1 else [rng.choice(ALPHABET)]
    return tuple(toks)


def validate_outcome(validate, tokens):
    try:
        return validate(tokens, TWO_CONDITIONS)
    except bt.MalformedGenotype as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        token_strings(),
        st.lists(st.sampled_from(ALPHABET), max_size=14).map(tuple),
        corrupted_trees(),
    )
)
def test_validate_matches_the_child_tracking_oracle(tokens):
    # the same violations in the same order, or the same MalformedGenotype text
    assert validate_outcome(bt.validate, tokens) == validate_outcome(
        validate_tracking_children, tokens
    )


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
