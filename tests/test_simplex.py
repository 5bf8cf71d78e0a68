import copy
import hashlib
from fractions import Fraction
from random import Random

import pytest

from lockedmatroid import errors
from lockedmatroid.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, SimplexProgram
from helpers import ReferenceSimplexProgram, reference_primitive

_FLIP = {"==": "==", "<=": ">=", ">=": "<="}


def random_programs(seed, count):
    """(n, constraints, nonneg, objectives) of small seeded programs: n <= 5,
    up to 6 rows of ==, <= and >= with negative bounds, sometimes a
    redundant copy of a row, and half of them boxed so that most objectives
    stay bounded."""
    rng = Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        nonneg = rng.random() < 0.5
        cons = []
        for _ in range(rng.randint(0, 6)):
            coeffs = [rng.choice((0, 0, 1, 1, -1, 2, -2, 3)) for _ in range(n)]
            cons.append((coeffs, rng.choice(("==", "<=", ">=")), rng.randint(-4, 6)))
        if cons and rng.random() < 0.2:
            coeffs, rel, bound = rng.choice(cons)
            k = rng.choice((1, 2, -1))
            cons.append(([k * c for c in coeffs], rel if k > 0 else _FLIP[rel], k * bound))
        if rng.random() < 0.5:
            for i in range(n):
                unit = [int(j == i) for j in range(n)]
                cons.append((unit, "<=", rng.randint(1, 5)))
                if not nonneg:
                    cons.append((unit, ">=", -rng.randint(1, 5)))
        objs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
        yield n, cons, nonneg, objs


def test_lp_results_pinned():
    # sha256 over (status, value, point) of 3 objectives on each of 2,000
    # seeded programs (1,961 optimal, 2,724 infeasible, 1,315 unbounded),
    # computed when the objective row was still priced in Fractions
    h = hashlib.sha256()
    for n, cons, nonneg, objs in random_programs(2024, 2000):
        prog = SimplexProgram(n, cons, nonneg=nonneg)
        for w in objs:
            out = prog.maximize(w)
            h.update(repr((n, cons, nonneg, w, out)).encode("utf-8"))
    assert h.hexdigest() == "0aa6353a9a6d0576b6edc1565533374cd093c4f846448e5bac2b8c3314dfc0b8"


def test_lp_witness_attains_the_optimum():
    holds = {"==": lambda a, b: a == b, "<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b}
    optimal = 0
    for n, cons, nonneg, objs in random_programs(7, 300):
        prog = SimplexProgram(n, cons, nonneg=nonneg)
        for w in objs:
            status, value, point = prog.maximize(w)
            if status != OPTIMAL:
                continue
            optimal += 1
            assert sum(c * x for c, x in zip(w, point)) == value
            assert not nonneg or min(point) >= 0
            for coeffs, rel, bound in cons:
                assert holds[rel](sum(c * x for c, x in zip(coeffs, point)), bound)
    assert optimal > 200


def test_widths_must_match_the_variable_count():
    with pytest.raises(errors.DimensionMismatch, match="^constraint width mismatch$"):
        SimplexProgram(2, [([1], "<=", 1)])
    prog = SimplexProgram(2, [([1, 1], "<=", 1)])
    with pytest.raises(errors.DimensionMismatch, match="^objective width mismatch$"):
        prog.maximize([1])


def test_maximize_leaves_the_stored_tableau_alone():
    # maximize starts from a shallow copy of the phase-one rows, so no pivot
    # may change a stored row in place; the artificial columns are gone
    statuses = set()
    rng = Random(11)
    for n, cons, nonneg, objs in random_programs(31, 400):
        prog = SimplexProgram(n, cons, nonneg=nonneg)
        before = copy.deepcopy(vars(prog))
        if prog.feasible:
            n_slack = sum(1 for _, rel, _ in cons if rel != "==")
            width = prog.n_struct + n_slack + 1
            assert all(len(row) == width for row in prog._rows0)
            assert prog.ncols == width - 1
        for w in objs + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(5)]:
            statuses.add(prog.maximize(w)[0])
            assert vars(prog) == before
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_lp_core_matches_the_reference():
    # the same (status, value, witness) as the simplex that divided every
    # row by its gcd and summed a Fraction witness, and an integer result
    # that is the same answer over positive denominators; after phase one
    # the basis is the same and each row a positive multiple of its row
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0, "free": 0, "nonneg": 0,
            "unit pivots": 0, "other pivots": 0, "ratio ties": 0}
    dropped = 0
    for n, cons, nonneg, objs in random_programs(4242, 1500):
        prog = SimplexProgram(n, cons, nonneg=nonneg)
        ref = ReferenceSimplexProgram(n, cons, nonneg=nonneg)
        seen["nonneg" if nonneg else "free"] += 1
        assert prog.feasible == ref.feasible
        if prog.feasible:
            assert prog._basis0 == ref._basis0
            assert list(map(reference_primitive, prog._rows0)) == \
                list(map(reference_primitive, ref._rows0))
        for w in objs + [[0] * n]:
            out = prog.maximize(w)
            assert out == ref.maximize(w), (n, cons, nonneg, w)
            status, value, witness = prog.maximize_integral(w)
            seen[status] += 1
            if status == OPTIMAL:
                (num, den), (x, d) = value, witness
                assert den > 0 and d > 0
                assert (Fraction(num, den), tuple(Fraction(a, d) for a in x)) == out[1:]
            else:
                assert value is None and witness is None
        for key, count in ref.counts.items():
            seen[key] += count
        dropped += ref.feasible and len(ref._rows0) < len(cons)  # a redundant row
    assert min(seen.values()) > 200 and dropped > 10, (seen, dropped)


@pytest.mark.parametrize("rel", ["<", "=", "=>", ""])
def test_unknown_relation_is_refused(rel):
    # it used to build a tableau without a slack, and maximize answered from it
    with pytest.raises(errors.InvalidParams, match="^unknown constraint relation"):
        SimplexProgram(1, [([1], rel, 1)])


def test_unknown_relation_with_a_negative_bound_is_refused():
    # flipping the row's sign used to look the relation up and raise KeyError
    with pytest.raises(errors.InvalidParams, match="^unknown constraint relation '<'$"):
        SimplexProgram(1, [([1], "<", -1)])
