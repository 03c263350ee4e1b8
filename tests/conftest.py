from collections import deque

import pytest

from starbench.core import Dfa
from starbench.witnesses import CANONICAL_LETTERS, FAMILIES, WitnessSpec, build


def random_dfa(rng, size, alphabet=("a", "b")):
    """A seeded random DFA: each transition uniform, each state final with
    probability 0.4, a uniform initial state."""
    delta = {
        x: tuple(rng.randrange(size) for _ in range(size))
        for x in alphabet
    }
    finals = frozenset(s for s in range(size) if rng.random() < 0.4)
    return Dfa(size, alphabet, delta, rng.randrange(size), finals)


def relabel_states(d, perm):
    """The same automaton under a bijective state renaming."""
    delta = {}
    for x, t in d.delta.items():
        img = [0] * d.size
        for s in range(d.size):
            img[perm[s]] = perm[t[s]]
        delta[x] = tuple(img)
    return Dfa(d.size, d.alphabet, delta, perm[d.initial],
               frozenset(perm[f] for f in d.finals))


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


@pytest.fixture
def simulate():
    """The NFA reference: simulate(nfa, w) runs nfa on w one set of states
    at a time, sharing no code with the subset construction."""

    def states(nfa, mask):
        return {q for q in range(nfa.size) if mask >> q & 1}

    def closure(nfa, start):
        """start and all states reached from it along epsilon edges, by a
        depth-first search over sets, apart from EpsNfa.closure."""
        seen = set(start)
        stack = list(seen)
        while stack:
            for t in states(nfa, nfa.epsilon[stack.pop()]) - seen:
                seen.add(t)
                stack.append(t)
        return seen

    def run(nfa, w):
        current = closure(nfa, states(nfa, nfa.initials))
        for x in w:
            if x not in nfa.alphabet:
                raise ValueError(f"unknown letter {x!r}")
            moved = set()
            for s in current:
                moved |= states(nfa, nfa.moves[x][s])
            current = closure(nfa, moved)
        return bool(current & states(nfa, nfa.finals))

    return run


@pytest.fixture
def distinguishing_word():
    """The equivalence reference, the pair search of Hopcroft and Karp
    (1971): distinguishing_word(d1, d2) is a shortest word accepted by
    exactly one of two DFAs over one alphabet, or None when they are
    equivalent."""

    def search(d1, d2):
        if d1.alphabet != d2.alphabet:
            raise ValueError(f"alphabet mismatch: {d1.alphabet} vs {d2.alphabet}")
        start = (d1.initial, d2.initial)
        seen = {start}
        queue = deque(((start, ()),))
        while queue:
            (p, q), word = queue.popleft()
            if (p in d1.finals) != (q in d2.finals):
                return word
            for x in d1.alphabet:
                target = (d1.delta[x][p], d2.delta[x][q])
                if target not in seen:
                    seen.add(target)
                    queue.append((target, word + (x,)))
        return None

    return search


@pytest.fixture
def run():
    """The DFA reference: run(d, w) is whether d accepts the word w, read
    one letter at a time; a letter outside d's alphabet is a ValueError."""

    def accepts(d, w):
        s = d.initial
        for x in w:
            if x not in d.delta:
                raise ValueError(f"unknown letter {x!r}")
            s = d.delta[x][s]
        return s in d.finals

    return accepts


@pytest.fixture
def member():
    """The per-word oracle: member(oracle, w) folds a SemanticOracle's
    compiled letter steps along the word w, as its merged walks fold them
    along many; a letter outside the oracle's alphabet is a ValueError."""

    def fold(oracle, w):
        node = oracle.start
        for j, x in enumerate(w, 1):
            if x not in oracle.alphabet:
                raise ValueError(f"unknown letter {x!r}")
            node = oracle.steps[oracle.alphabet.index(x)](node, 1 << j)
        return bool(node[0])

    return fold
