"""Locked subsets, locked lattices, and the bases polytope of small matroids."""

from .matroid import (
    MAX_N,
    GroundSet,
    Matroid,
    from_bases,
    from_text,
    to_text,
    save,
    load,
    minor,
    restriction,
    is_connected,
    find_separator,
    closures,
    two_sum,
    relax,
    relabel,
    with_names,
)
from .catalog import catalog, graphic, mk4, p6, q6, uniform, vamos, whirl3
from .locked import (
    KLockedVerdict,
    LockedStructure,
    dual_structure,
    is_locked,
    k_locked_decision,
    locked_structure,
    structure_text,
)
from .lattice import (
    LabeledDag,
    augmented_lattice,
    dot_text,
    recover_cardinality,
    reduced_lattice,
    series_encode,
    to_colored,
)
from .dagiso import CanonicalForm, ColoredDigraph, are_isomorphic, canonical_form
from .axioms import (
    AxiomReport,
    RankExtender,
    Violation,
    extract_system,
    validate,
)
from .polytope import (
    LinearSystem,
    Row,
    build_P,
    greedy_max_basis,
    lp_maximize,
    member,
    member_Q,
    sample_rational_points,
    zero_one_vertices,
)
from .isoengine import IsoReport, mip_bruteforce, mip_locked, mip_zero_locked, tsd
from .corpus import mk4_doubled, seeded_two_sums, standard_corpus
from . import errors

__version__ = "0.1.0"
