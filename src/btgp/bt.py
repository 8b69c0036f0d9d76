"""Behavior trees as token-string genotypes: parsing, validity, tick engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

SUCCESS = 1
FAILURE = 0
RUNNING = 2

SEQUENCE_OPEN = "s("
FALLBACK_OPEN = "f("
CLOSE = ")"

ACTION = "action"
CONDITION = "condition"

Genotype = tuple[str, ...]
# Maps behavior id -> ACTION | CONDITION for every leaf usable in a genotype.
LeafKinds = Mapping[str, str]


class MalformedGenotype(ValueError):
    """Token sequence is not a single balanced tree over known leaves."""


class PoolEmpty(ValueError):
    pass


def is_control_open(token: str) -> bool:
    return token == SEQUENCE_OPEN or token == FALLBACK_OPEN


class Leaf:
    __slots__ = ("behavior_id", "is_condition")

    def __init__(self, behavior_id: str, is_condition: bool):
        self.behavior_id = behavior_id
        self.is_condition = is_condition

    def __eq__(self, other):
        return (
            isinstance(other, Leaf)
            and other.behavior_id == self.behavior_id
            and other.is_condition == self.is_condition
        )

    def __repr__(self):
        return f"Leaf({self.behavior_id!r})"


class Control:
    __slots__ = ("kind", "children")

    def __init__(self, kind: str, children: list):
        self.kind = kind  # "s" or "f"
        self.children = children

    def __eq__(self, other):
        return (
            isinstance(other, Control)
            and other.kind == self.kind
            and other.children == self.children
        )

    def __repr__(self):
        inner = " ".join(repr(c) for c in self.children)
        return f"{self.kind}({inner})"


Node = Leaf | Control


def sequence(*children: Node) -> Control:
    return Control("s", list(children))


def fallback(*children: Node) -> Control:
    return Control("f", list(children))


def parse(tokens: Iterable[str], kinds: LeafKinds) -> Node:
    """Parse a genotype into a tree; raises MalformedGenotype.

    Accepts childless controls so that validity checking (V3) can report
    them; `validate` is the place where they are rejected.
    """
    toks = tuple(tokens)
    if not toks:
        raise MalformedGenotype("empty genotype")
    pos = 0

    def parse_node() -> Node:
        nonlocal pos
        tok = toks[pos]
        if tok == CLOSE:
            raise MalformedGenotype(f"unmatched close at token {pos}")
        if is_control_open(tok):
            kind = "s" if tok == SEQUENCE_OPEN else "f"
            pos += 1
            children: list[Node] = []
            while True:
                if pos >= len(toks):
                    raise MalformedGenotype("unclosed control node")
                if toks[pos] == CLOSE:
                    pos += 1
                    return Control(kind, children)
                children.append(parse_node())
        leaf_kind = kinds.get(tok)
        if leaf_kind is None:
            raise MalformedGenotype(f"unknown leaf id {tok!r}")
        pos += 1
        return Leaf(tok, leaf_kind == CONDITION)

    root = parse_node()
    if pos != len(toks):
        raise MalformedGenotype(f"trailing tokens after position {pos}")
    return root


def serialize(node: Node) -> Genotype:
    """Inverse of parse: depth-first token sequence."""
    out: list[str] = []

    def walk(n: Node) -> None:
        if isinstance(n, Leaf):
            out.append(n.behavior_id)
            return
        out.append(SEQUENCE_OPEN if n.kind == "s" else FALLBACK_OPEN)
        for c in n.children:
            walk(c)
        out.append(CLOSE)

    walk(node)
    return tuple(out)


def node_count(tokens: Iterable[str]) -> int:
    """Number of tree nodes: every token except the closing parentheses."""
    toks = tuple(tokens)
    return len(toks) - toks.count(CLOSE)


@dataclass(frozen=True)
class Violation:
    code: str  # V1..V4
    token_index: int
    message: str


def validate(tokens: Iterable[str], kinds: LeafKinds) -> list[Violation]:
    """Check the four structural constraints on a parseable genotype.

    V1 same control kind on consecutive levels, V2 condition as last child,
    V3 childless control, V4 identical adjacent condition siblings.
    Raises MalformedGenotype for sequences that do not parse at all.
    """
    toks = tuple(tokens)
    if not toks:
        raise MalformedGenotype("empty genotype")
    violations: list[Violation] = []
    # stack entries: [kind, open_index, n_children, last_condition_id, last_child_cond_index]
    stack: list[list] = []
    roots = 0
    for i, tok in enumerate(toks):
        if tok == CLOSE:
            if not stack:
                raise MalformedGenotype(f"unmatched close at token {i}")
            kind, open_index, n_children, _, last_cond = stack.pop()
            if n_children == 0:
                violations.append(Violation("V3", open_index, "control node without children"))
            if last_cond is not None:
                violations.append(
                    Violation("V2", last_cond, "condition in the rightmost position")
                )
            continue
        parent = stack[-1] if stack else None
        if parent is None:
            roots += 1
            if roots > 1:
                raise MalformedGenotype(f"trailing tokens after position {i}")
        if is_control_open(tok):
            kind = "s" if tok == SEQUENCE_OPEN else "f"
            if parent is not None:
                if parent[0] == kind:
                    violations.append(
                        Violation("V1", i, "same control kind on consecutive levels")
                    )
                parent[2] += 1
                parent[3] = None
                parent[4] = None
            stack.append([kind, i, 0, None, None])
            continue
        leaf_kind = kinds.get(tok)
        if leaf_kind is None:
            raise MalformedGenotype(f"unknown leaf id {tok!r}")
        is_cond = leaf_kind == CONDITION
        if parent is not None:
            if is_cond and parent[3] == tok:
                violations.append(
                    Violation("V4", i, "identical condition nodes next to each other")
                )
            parent[2] += 1
            parent[3] = tok if is_cond else None
            parent[4] = i if is_cond else None
    if stack:
        raise MalformedGenotype("unclosed control node")
    return violations


def compile_tree(
    tokens: Iterable[str], table: Mapping[str, Callable]
) -> Callable[[object, object], int]:
    """Bind a genotype to a transition table as one policy ``fn(state, rng) -> status``.

    One stack pass over the tokens, no tree: a leaf is ``table[behavior_id]``
    itself, and a control's closure is built at its ``)`` over its
    children's. Raises MalformedGenotype for every input ``parse`` rejects;
    childless controls compile. A tick is reactive and memoryless: a
    Sequence returns its first non-Success child status (Success if all
    succeed), a Fallback its first non-Failure child status (Failure if all
    fail), left to right, each visited leaf executed exactly once.
    """
    stack: list[tuple[bool, list]] = []  # (is_sequence, child policies) per open control
    root = None
    for i, tok in enumerate(tokens):
        if root is not None:
            raise MalformedGenotype(f"trailing tokens after position {i}")
        if tok == CLOSE:
            if not stack:
                raise MalformedGenotype(f"unmatched close at token {i}")
            is_sequence, children = stack.pop()
            fns = tuple(children)
            if is_sequence:
                def run_sequence(state, rng, _fns=fns):
                    for f in _fns:
                        status = f(state, rng)
                        if status != SUCCESS:
                            return status
                    return SUCCESS
                fn = run_sequence
            else:
                def run_fallback(state, rng, _fns=fns):
                    for f in _fns:
                        status = f(state, rng)
                        if status != FAILURE:
                            return status
                    return FAILURE
                fn = run_fallback
        elif tok == SEQUENCE_OPEN or tok == FALLBACK_OPEN:
            stack.append((tok == SEQUENCE_OPEN, []))
            continue
        else:
            fn = table.get(tok)
            if fn is None:
                raise MalformedGenotype(f"unknown leaf id {tok!r}")
        if stack:
            stack[-1][1].append(fn)
        else:
            root = fn
    if stack:
        raise MalformedGenotype("unclosed control node")
    if root is None:
        raise MalformedGenotype("empty genotype")
    return root


def subtree_span(tokens: Genotype, index: int) -> tuple[int, int]:
    """Token range [start, stop) of the subtree rooted at a non-close token."""
    if index < 0 or index >= len(tokens):
        raise IndexError(f"token index {index} out of range")
    tok = tokens[index]
    if tok == CLOSE:
        raise IndexError(f"token {index} is a close token, not a node")
    if not is_control_open(tok):
        return (index, index + 1)
    depth = 0
    for j in range(index, len(tokens)):
        if is_control_open(tokens[j]):
            depth += 1
        elif tokens[j] == CLOSE:
            depth -= 1
            if depth == 0:
                return (index, j + 1)
    raise MalformedGenotype("unclosed control node")


def node_facts(tokens: Genotype) -> list[tuple[int, int, int, int, int]]:
    """(start, stop, node count, parent, children) of every node, in token order.

    One stack pass. ``tokens[start:stop]`` is the subtree, ``parent`` the
    token index of the enclosing control's open (-1 for the root) and
    ``children`` the number of direct children. Row k's subtree is rows
    ``k .. k + count - 1``: its first child is row k + 1, and each next
    sibling starts ``count`` rows after the one before. The siblings are
    the tokens bordering the span: ``tokens[start - 1]`` is the left
    sibling's last token (its leaf id or a close) or the parent's open,
    ``tokens[stop]`` the right sibling's first token or the parent's close.
    """
    facts: list[tuple[int, int, int, int, int]] = []
    stack: list[list[int]] = []  # [row, open token index, children] per open control
    for i, tok in enumerate(tokens):
        if tok == CLOSE:
            k, start, children = stack.pop()
            facts[k] = (start, i + 1, len(facts) - k, facts[k][3], children)
            continue
        parent = -1
        if stack:
            top = stack[-1]
            top[2] += 1
            parent = top[1]
        if tok == SEQUENCE_OPEN or tok == FALLBACK_OPEN:
            stack.append([len(facts), i, 0])
            facts.append((i, i, 0, parent, 0))
        else:
            facts.append((i, i + 1, 1, parent, 0))
    return facts


def node_spans(tokens: Genotype) -> list[tuple[int, int, int]]:
    """(start, stop, node count) of every node's subtree: ``node_facts`` cut short."""
    return [row[:3] for row in node_facts(tokens)]


def fits(tokens: Genotype, row: tuple, root: str, kinds: LeafKinds) -> bool:
    """Whether a valid subtree whose root token is ``root`` may replace the
    node ``row`` (a ``node_facts`` row) of the valid genotype ``tokens``.

    Equals ``not validate(splice)``: the splice keeps every constraint
    inside the subtree and away from the node, so only the boundary
    can break, by V1 against the parent's kind, or, for a condition
    root, V2 as the last child and V4 next to an equal sibling.
    """
    start, stop, _, parent, _ = row
    if parent < 0:
        return True  # the subtree becomes the whole tree
    if root == SEQUENCE_OPEN or root == FALLBACK_OPEN:
        return tokens[parent] != root
    if kinds[root] != CONDITION:
        return True
    after = tokens[stop]
    return after != CLOSE and after != root and tokens[start - 1] != root


def random_genotype(
    kinds: LeafKinds,
    length: int,
    rng,
    *,
    node_cap: int = 64,
    p_control: float = 0.5,
    max_attempts: int = 100,
) -> Genotype:
    """Random valid genotype with exactly ``length`` nodes.

    Control nodes are drawn with probability ``p_control`` per slot where a
    subtree of two or more nodes still fits. Invalid draws are resampled up
    to ``max_attempts`` times, after which the last draw is repaired by
    deleting violating nodes.
    """
    if not kinds:
        raise PoolEmpty("behavior pool is empty")
    if length < 1:
        raise ValueError("length must be >= 1")
    if length > node_cap:
        raise ValueError(f"length {length} exceeds node cap {node_cap}")
    leaves = sorted(kinds)

    def grow(n: int, parent_kind: str | None) -> list[str]:
        if n == 1:
            return [leaves[rng.randrange(len(leaves))]]
        # Same-kind nesting (V1) is avoided by construction.
        if parent_kind is None:
            kind = "s" if rng.random() < 0.5 else "f"
        else:
            kind = "f" if parent_kind == "s" else "s"
        out = [SEQUENCE_OPEN if kind == "s" else FALLBACK_OPEN]
        remaining = n - 1
        sizes: list[int] = []
        while remaining > 0:
            if remaining >= 2 and rng.random() < p_control:
                size = rng.randint(2, remaining)
            else:
                size = 1
            sizes.append(size)
            remaining -= size
        for size in sizes:
            out.extend(grow(size, kind))
        out.append(CLOSE)
        return out

    last: Genotype = ()
    for _ in range(max_attempts):
        candidate = tuple(grow(length, None))
        if not validate(candidate, kinds):
            return candidate
        last = candidate
    return repair(last, kinds, rng)


def repair(tokens: Genotype, kinds: LeafKinds, rng) -> Genotype:
    """Delete violating nodes until the genotype passes validation.

    Same-kind nesting is fixed by splicing the inner control's children into
    its parent (removing only the violating node); the other violations drop
    the offending node or subtree. Falls back to a single random leaf if the
    tree empties out.
    """
    toks = list(tokens)
    for _ in range(len(tokens) * 2 + 8):
        if not toks:
            break
        violations = validate(tuple(toks), kinds)
        if not violations:
            return tuple(toks)
        v = violations[0]
        if v.code == "V1":
            start, stop = subtree_span(tuple(toks), v.token_index)
            toks = toks[:start] + toks[start + 1 : stop - 1] + toks[stop:]
        elif v.code == "V3":
            start, stop = subtree_span(tuple(toks), v.token_index)
            toks = toks[:start] + toks[stop:]
        else:  # V2 / V4 point at a condition leaf
            toks = toks[: v.token_index] + toks[v.token_index + 1 :]
    if toks and not validate(tuple(toks), kinds):
        return tuple(toks)
    leaves = sorted(kinds)
    return (leaves[rng.randrange(len(leaves))],)


def canonical(tokens: Genotype) -> Genotype:
    """Behavioral signature: the genotype with single-child controls spliced.

    A control node with exactly one child returns its child's status
    unchanged, so such wrappers don't affect execution. Two genotypes with
    the same canonical form encode the same policy; duplicate detection in
    the evolution layer keys on this.

    One O(n) stack pass marks the open and close of every control with
    exactly one child and drops them. Splicing a wrapper leaves every other
    control's child count as it was, so no second pass can find more. An
    already canonical genotype is returned as the same object.
    """
    stack: list[list[int]] = []  # [open_index, child_count]
    drop: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok == CLOSE:
            open_index, children = stack.pop()
            if children == 1:
                drop.add(open_index)
                drop.add(i)
            continue
        if stack:
            stack[-1][1] += 1
        if tok == SEQUENCE_OPEN or tok == FALLBACK_OPEN:
            stack.append([i, 0])
    if not drop:
        return tokens
    return tuple(tok for i, tok in enumerate(tokens) if i not in drop)


def to_text(tokens: Genotype) -> str:
    """On-disk genotype format: whitespace-separated tokens."""
    return " ".join(tokens)


def from_text(text: str) -> Genotype:
    tokens = tuple(text.split())
    if not tokens:
        raise MalformedGenotype("empty genotype text")
    return tokens
