"""The package's public surface."""

from __future__ import annotations

import btgp

# Growing or shrinking the public API is a deliberate edit of this list.
PUBLIC_NAMES = [
    "FAILURE",
    "FitnessValue",
    "FitnessWeights",
    "GenerationStats",
    "GpParams",
    "Individual",
    "MalformedGenotype",
    "Profile",
    "SUCCESS",
    "TABLE2",
    "build_transition_table",
    "compile_tree",
    "cost",
    "evaluate",
    "make_profile",
    "parse",
    "run",
    "validate",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(btgp.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(btgp, name)  # AttributeError if the name does not resolve
