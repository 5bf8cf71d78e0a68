import itertools

import pytest

from lockedmatroid import from_bases, locked_structure, standard_corpus

CORPUS_SEED = 1


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus(CORPUS_SEED)


@pytest.fixture(scope="session")
def corpus_by_name(corpus):
    byname = {m.name: m for m in corpus}
    assert len(byname) == len(corpus)
    return byname


@pytest.fixture(scope="session")
def structures(corpus):
    """Locked structures for every corpus matroid, shared across tests."""
    return {m.name: locked_structure(m) for m in corpus}


@pytest.fixture(scope="session")
def sparse_paving_pair():
    """Two rank-4 sparse paving matroids on 8 elements, given by their
    circuit-hyperplanes, that agree on n, rank, basis count and per-element
    basis counts but are not isomorphic."""
    def build(hyperplanes):
        bases = [b for b in itertools.combinations(range(8), 4) if b not in hyperplanes]
        return from_bases(8, bases)

    return (build({(0, 2, 3, 7), (2, 4, 5, 6), (0, 1, 2, 6), (1, 3, 6, 7)}),
            build({(2, 5, 6, 7), (1, 3, 4, 5), (3, 4, 6, 7), (0, 1, 4, 7)}))
