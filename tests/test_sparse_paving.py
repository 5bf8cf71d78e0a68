"""Seeded sparse paving matroids (ROADMAP item 5), the tier where the axiom
and polytope layers are slowest at |E| <= 16.

``helpers.sparse_paving`` drops a greedy packing of circuit-hyperplanes
from U(r,n).  The packing sizes are pinned, and so is the
``polytope verify`` output at n = 12, taken before the simplex skipped the
gcd after unit pivots and answered on integers.
"""

import hashlib
import math

import lockedmatroid as lm
from lockedmatroid import cli
from helpers import sparse_paving


def test_packing_sizes():
    # the circuit-hyperplanes are exactly the dropped r-sets, and every one
    # of them is locked
    for (n, r), count in {(12, 6): 70, (14, 7): 201}.items():
        m = sparse_paving(n, r, 1)
        assert (m.n, m.rank) == (n, r)
        assert math.comb(n, r) - len(m._basis_masks) == count
        if n == 12:
            s = lm.locked_structure(m)
            assert len(s.locked) == count
            assert all(len(l) == r and s.rho[l] == r - 1 for l in s.locked)


def test_polytope_verify_pinned(tmp_path, capsys):
    path = tmp_path / "sp12.matroid"
    lm.save(sparse_paving(12, 6, 1), path)
    assert cli.main(["polytope", "verify", str(path), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "pq-agreement skipped (n=12)" in out and "FAIL" not in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "1c57c7e2bbf93a481a7cce79e7d496c4d8c4cfe2608575342a32ac5911e5f969"
