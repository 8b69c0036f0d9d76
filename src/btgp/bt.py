"""Behavior trees as token-string genotypes.

The genotype is the tree: a tuple of tokens, each control open ``s(`` / ``f(``
matched by a ``)``, each leaf a behavior id. This module checks genotypes
(``validate``, ``parse``), compiles them straight onto a transition table
(``compile_tree``), and gives breeding its per-node facts, spans and
canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

SUCCESS = 1
FAILURE = 0

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


def is_control_open(token: str) -> bool:
    return token == SEQUENCE_OPEN or token == FALLBACK_OPEN


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
    """Check the four structural constraints on a genotype.

    V1 same control kind on consecutive levels, V2 condition as last child,
    V3 childless control, V4 identical adjacent condition siblings.
    Raises MalformedGenotype for a sequence that is not one balanced tree
    over the leaves in ``kinds``.

    Only V1 needs the enclosing control; the others are read off
    neighbouring tokens, as ``fits`` reads them. A close is V3 after an
    open and V2 after a condition. A condition equal to the token before it
    is V4: a leaf before a token is its left sibling. Violations are listed
    in the order their last token is reached, V2 and V3 at their close.
    """
    toks = tuple(tokens)
    if not toks:
        raise MalformedGenotype("empty genotype")
    violations: list[Violation] = []
    stack: list[str] = []  # the open token of each enclosing control
    for i, tok in enumerate(toks):
        if tok == CLOSE:
            if not stack:
                raise MalformedGenotype(f"unmatched close at token {i}")
            stack.pop()
            before = toks[i - 1]
            if is_control_open(before):
                violations.append(Violation("V3", i - 1, "control node without children"))
            elif kinds.get(before) == CONDITION:
                violations.append(Violation("V2", i - 1, "condition in the rightmost position"))
            continue
        if not stack and i > 0:
            raise MalformedGenotype(f"trailing tokens after position {i}")
        if is_control_open(tok):
            if stack and stack[-1] == tok:
                violations.append(Violation("V1", i, "same control kind on consecutive levels"))
            stack.append(tok)
            continue
        leaf_kind = kinds.get(tok)
        if leaf_kind is None:
            raise MalformedGenotype(f"unknown leaf id {tok!r}")
        if leaf_kind == CONDITION and i > 0 and toks[i - 1] == tok:
            violations.append(Violation("V4", i, "identical condition nodes next to each other"))
    if stack:
        raise MalformedGenotype("unclosed control node")
    return violations


def parse(tokens: Iterable[str], kinds: LeafKinds) -> Genotype:
    """The acceptance check for a genotype from outside the program.

    Returns the tokens as a tuple when they are one balanced tree over the
    leaves in ``kinds`` that keeps V1-V4, the genotypes a run breeds.
    Raises MalformedGenotype otherwise, for the first V1-V4 violation as
    ``"breaks Vn (...)"``.
    """
    toks = tuple(tokens)
    violations = validate(toks, kinds)
    if violations:
        v = violations[0]
        raise MalformedGenotype(f"breaks {v.code} ({v.message} at token {v.token_index})")
    return toks


def compile_tree(
    tokens: Iterable[str], table: Mapping[str, Callable]
) -> Callable[[object, object], int]:
    """Bind a genotype to a transition table as one policy ``fn(state, rng) -> status``.

    The genotype must be one ``parse`` accepts or breeding produced, over the
    table's leaves. One stack pass over the tokens, no tree: a leaf is
    ``table[behavior_id]`` itself, and a control's closure is built at its
    ``)`` over its children's. A control with exactly one child returns that
    child's status unchanged, so it compiles to the child's policy itself: a
    genotype ticks as its ``canonical`` form. A leaf returns SUCCESS or
    FAILURE (each world transition is one atomic step), so every policy
    does too. A tick is reactive and memoryless: a Sequence returns Failure
    at its first failing child (Success if all succeed), a Fallback Success
    at its first succeeding child (Failure if all fail), left to right, each
    visited leaf executed exactly once.
    """
    stack: list[tuple[bool, list]] = []  # (is_sequence, child policies) per open control
    for tok in tokens:
        fn = table.get(tok)  # looked up first: most tokens are leaves
        if fn is None:
            if tok != CLOSE:
                stack.append((tok == SEQUENCE_OPEN, []))
                continue
            is_sequence, children = stack.pop()
            fns = tuple(children)
            if len(fns) == 1:
                fn = fns[0]
            elif is_sequence:
                def run_sequence(state, rng, _fns=fns):
                    for f in _fns:
                        if f(state, rng) == FAILURE:
                            return FAILURE
                    return SUCCESS
                fn = run_sequence
            else:
                def run_fallback(state, rng, _fns=fns):
                    for f in _fns:
                        if f(state, rng) == SUCCESS:
                            return SUCCESS
                    return FAILURE
                fn = run_fallback
        if not stack:
            return fn  # the root: a leaf, or the control this close ends
        stack[-1][1].append(fn)


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


def random_genotype(kinds: LeafKinds, length: int, rng) -> Genotype:
    """Random valid genotype with exactly ``length`` >= 1 nodes.

    Controls are drawn with probability 0.5 per slot where a subtree of two
    or more nodes still fits. Invalid draws are resampled up to 100 times,
    after which the last draw is repaired by deleting violating nodes.
    """
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
            if remaining >= 2 and rng.random() < 0.5:
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
    for _ in range(100):
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
    return tuple([tok for i, tok in enumerate(tokens) if i not in drop])


def to_text(tokens: Genotype) -> str:
    """On-disk genotype format: whitespace-separated tokens."""
    return " ".join(tokens)


def from_text(text: str) -> Genotype:
    tokens = tuple(text.split())
    if not tokens:
        raise MalformedGenotype("empty genotype text")
    return tokens
