"""Edge cases that sit just off the main corpus paths."""

import ast
import itertools
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import lockedmatroid as lm
from lockedmatroid import errors
from lockedmatroid.dagiso import ColoredDigraph
from helpers import brute_force_iso, naive_rank


def test_minor_contracting_one_of_a_parallel_pair_leaves_a_loop():
    m = lm.mk4_doubled()  # g is parallel to a
    c = lm.minor(m, contract=(0,))
    g_new = c.index_map[6]
    assert c.loops() == (g_new,)
    c.validate()
    with pytest.raises(errors.LoopPresent):
        lm.closures(c)


def test_minor_contracting_a_dependent_set():
    m = lm.mk4()
    c = lm.minor(m, contract=(0, 1, 3))  # a triangle: rank 2, not 3
    assert c.rank == m.rank - 2
    c.validate()


def test_two_sum_with_parallel_basepoint():
    m = lm.mk4_doubled()
    t = lm.two_sum(m, lm.uniform(2, 4, prefix="h"), 0, 0)  # basepoint a, g parallel
    assert t.n == m.n + 4 - 2 and t.rank == m.rank + 2 - 1
    t.validate()
    assert lm.is_connected(t)
    # the partner g is now parallel to the glued-in side's elements: rank checks
    ranks = t._rank_table()
    for k in range(t.n + 1):
        for comb in itertools.combinations(range(t.n), k):
            assert ranks[sum(1 << e for e in comb)] == naive_rank(t.bases, comb)
            if k > 2:
                break  # full sweep is quadratic in tests elsewhere; spot check


def test_flow_recovery_on_disconnected_matroid():
    a = lm.mk4()
    shifted = [tuple(e + 6 for e in b) for b in a.bases]
    m = lm.from_bases(12, [b1 + b2 for b1 in a.bases for b2 in shifted])
    d = lm.reduced_lattice(lm.locked_structure(m))
    locked = [v for v in range(d.vertex_count) if d.levels[v] == "locked"]
    assert len(locked) == 8
    for v in locked:
        assert lm.recover_cardinality(d, v) == len(d.provenance[v])


def test_reader_tolerates_crlf():
    text = "matroid x\r\nelements a,b,c\r\nbasis a b\r\nbasis a c\r\nbasis b c\r\n"
    m = lm.from_text(text)
    assert m.names == ("a", "b", "c") and m.name == "x"
    assert m.bases == ((0, 1), (0, 2), (1, 2))


def test_brute_force_rejects_duplicate_arcs():
    g = ColoredDigraph(2, ((0, 1), (0, 1)), (0, 0))
    with pytest.raises(errors.InvalidParams):
        brute_force_iso(g, g)


def test_canonical_form_handles_duplicate_arcs_as_multiset():
    g1 = ColoredDigraph(2, ((0, 1), (0, 1)), (0, 0))
    g2 = ColoredDigraph(2, ((1, 0), (1, 0)), (0, 0))
    g3 = ColoredDigraph(2, ((0, 1),), (0, 0))
    assert lm.are_isomorphic(g1, g2)[0]
    assert not lm.are_isomorphic(g1, g3)[0]


def test_single_element_matroid():
    m = lm.uniform(1, 1)
    assert lm.is_connected(m)
    assert m.coloops() == (0,)
    with pytest.raises(errors.ColoopPresent):
        lm.locked_structure(m)


def test_u12_degenerate_closures():
    # two-element circuit that is also a cocircuit: the parallel class and
    # the coparallel class coincide (both are the whole ground set), the one
    # real boundary case of the closure-intersection rule
    m = lm.uniform(1, 2)
    p, s = lm.closures(m)
    assert p == ((0, 1),) and s == ((0, 1),)
    assert lm.locked_structure(m).locked == ()


def test_k_locked_rejects_bad_parameters():
    with pytest.raises(errors.InvalidParams):
        lm.k_locked_decision(lm.mk4(), -1)
    with pytest.raises(errors.InvalidParams):
        lm.k_locked_decision(lm.mk4(), 1, c=0)
    for k in (1.5, 2.0, "1", None):  # operator.index refuses each
        with pytest.raises(errors.InvalidParams):
            lm.k_locked_decision(lm.mk4(), k)
    for c in ("x", None, float("nan"), float("inf"), "1/0"):  # Fraction(c) raises
        with pytest.raises(errors.InvalidParams):
            lm.k_locked_decision(lm.mk4(), 1, c=c)


SRC = Path(lm.__file__).resolve().parent

_UNDER_O = """
import lockedmatroid as lm
from lockedmatroid import errors
assert False, "asserts still run"
try:
    lm.from_bases(4, [(0, 1), (2, 3)])
except errors.ExchangeViolation as exc:
    print(exc.basis1, exc.basis2, exc.element)
m = lm.vamos()
print(lm.mip_bruteforce(m, lm.relabel(m, [1, 0, 3, 2, 5, 4, 7, 6])).answer,
      lm.mip_locked(m, m.dual()).answer, lm.mip_locked(m, lm.uniform(4, 8)).answer)
"""


def test_checks_hold_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["(0, 1) (2, 3) 0", "True True False"]


def _names_used(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


PUBLIC_NAMES = [
    "AxiomReport", "CanonicalForm", "ColoredDigraph", "GroundSet", "IsoReport", "KLockedVerdict",
    "LabeledDag", "LinearSystem", "LockedStructure", "MAX_N", "Matroid", "RankExtender", "Row",
    "Violation", "are_isomorphic", "augmented_lattice", "build_P", "canonical_form", "catalog",
    "closures", "dot_text", "dual_structure", "extract_system", "find_separator", "from_bases",
    "from_text", "graphic", "greedy_max_basis", "is_connected", "is_locked", "k_locked_decision",
    "load", "locked_structure", "lp_maximize", "member", "member_Q", "minor", "mip_bruteforce",
    "mip_locked", "mip_zero_locked", "mk4", "mk4_doubled", "p6", "q6", "recover_cardinality",
    "reduced_lattice", "relabel", "relax", "restriction", "sample_rational_points", "save",
    "seeded_two_sums", "series_encode", "standard_corpus", "structure_text", "to_colored",
    "to_text", "tsd", "two_sum", "uniform", "validate", "vamos", "whirl3", "with_names",
    "zero_one_vertices",
]


def test_public_names_are_pinned():
    # the package's public surface, submodules aside (which of them are
    # attributes depends on what has been imported)
    names = sorted(n for n, v in vars(lm).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_every_module_level_definition_is_used_in_package():
    # re-exports from __init__ count as uses; a function calling itself does not
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    used = Counter(name for tree in trees for name in _names_used(tree))
    unused = [node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and used[node.name] == Counter(_names_used(node))[node.name]]
    assert unused == []
