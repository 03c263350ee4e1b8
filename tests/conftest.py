import pytest

from starbench.witnesses import CANONICAL_LETTERS, FAMILIES, WitnessSpec, build


@pytest.fixture
def witness():
    """Builder shortcut in the witness-syntax names: witness('U', 4),
    witness('U', 5, 'bac'), or witness('U', 5, 'abcd') for the four-letter U."""

    def make(family, n, order=None):
        return build(WitnessSpec(family, n, tuple(order) if order else None))

    return make


@pytest.fixture
def every_family():
    """(family, canonical letter order) for every arity of every family."""
    return [(family, tuple(CANONICAL_LETTERS[:arity]))
            for family, arities in FAMILIES.items() for arity in arities]
