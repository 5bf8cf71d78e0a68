"""The stress tier (n = 12..16), pinned end to end.

The locked families, the k-locked verdicts and the canonical forms of the
reduced lattices of U(6,12), the 2-sum chain of three M(K4), U(7,14), M(K6)
and U(8,16) are hashed.  The digests were taken before the cyclic-flat
filter in the locked enumeration and the singleton-cell skip in the colour
refinement, which must leave every one of these outputs unchanged.
"""

import hashlib
import itertools
from collections import Counter

import pytest

import lockedmatroid as lm
from lockedmatroid.dagiso import canonical_form


def _mk4_chain(k):
    m = lm.mk4()
    for i in range(1, k):
        nxt = lm.with_names(lm.mk4(), tuple("%s%d" % ("fghijk"[i - 1], j) for j in range(6)))
        m = lm.two_sum(m, nxt, m.n - 1 if i > 1 else 0, 0)
    return m


STRESS_TIER = {
    "uniform(6,12)": lambda: lm.uniform(6, 12),
    "mk4chain3": lambda: _mk4_chain(3),
    "uniform(7,14)": lambda: lm.uniform(7, 14),
    "mk6": lambda: lm.graphic(6, tuple(itertools.combinations(range(6), 2))),
    "uniform(8,16)": lambda: lm.uniform(8, 16),
}

LOCKED_DIGESTS = {
    "uniform(6,12)": "e0291b1eff31b10b77058ceb70f8043e62d36d7a369a5c2b4639a6a9072174c8",
    "mk4chain3": "95502811072bd254cfd67a72d110f0b37a986ac30c8f7697e66402847bda8d1d",
    "uniform(7,14)": "c15ca931f6c404fa83c891ec15b900e6e53535580985b46e2506c58e237194ef",
    "mk6": "abf1497af0987d14d5ff80307c105dd587941e12cf6de0b8b128710d812379d9",
    "uniform(8,16)": "7fab5c63ed58f8423233033d1afe3e56ea8e8b7b0ffd628587f6fcd0c82b293d",
}

CANONICAL_DIGESTS = {
    "uniform(6,12)": "0eac0d43980e7e775de9f699e2d8a9df69aba2a8319baf80e090897f1954cf8a",
    "mk4chain3": "e599bcf6cbf479860ad4a2b49e063a9acb38ece5a82eb86f0328dd23ae86eb61",
    "uniform(7,14)": "39fbe61a98838e987426fb293748f9a48e9c1dfc713f536936da7f807230fde4",
    "mk6": "fbb453000bdb41b802c2a4573ca3204497b3e4cfcb39045d503a547e721c2639",
    "uniform(8,16)": "631ea23f7eefe3f5f11e2e3ab122c0a7aa77dadded22acb4fa92858f74302b0f",
}


# validate(extract_system(m), m) on the chain, M(K6) and their duals, where
# L18/L19 fire: 16 L18 + 16 L19 lines on the chain and on its dual, 10 L19
# on M(K6) and 10 L18 on its dual; taken before validate read ranks by mask
AXIOM_REPORTS = {"mk4chain3": ({"L18": 16, "L19": 16}, {"L18": 16, "L19": 16}),
                 "mk6": ({"L19": 10}, {"L18": 10})}
AXIOM_REPORTS_DIGEST = "5395bfa369e7baa5780eefeec5b00fd70bd3d91d8ff5badd948a4cb03e49bcdc"


def _sha(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode("utf-8"))
    return h.hexdigest()


@pytest.fixture(scope="module")
def stress():
    out = {}
    for name, build in STRESS_TIER.items():
        m = build()
        out[name] = (m, lm.locked_structure(m))
    return out


def _locked_items(m, s):
    yield s.locked
    yield [s.rho[x] for x in s.locked]
    for k in (0, 1, 2):  # k = 0 and 1 abort on the chain and M(K6)
        v = lm.k_locked_decision(m, k)
        yield k, v.threshold, v.locked_count, v.structure == s if v.yes else None


def _canonical_items(s):
    for st in (s, lm.dual_structure(s)):
        d = lm.reduced_lattice(st)
        for g in (lm.to_colored(d), lm.series_encode(d)):
            cf = canonical_form(g)
            yield cf.digest, cf.perm


@pytest.mark.parametrize("name", list(STRESS_TIER))
def test_stress_locked_families_pinned(stress, name):
    m, s = stress[name]
    assert _sha(_locked_items(m, s)) == LOCKED_DIGESTS[name]


@pytest.mark.parametrize("name", list(STRESS_TIER))
def test_stress_canonical_forms_pinned(stress, name):
    _, s = stress[name]
    assert _sha(_canonical_items(s)) == CANONICAL_DIGESTS[name]


def test_stress_axiom_reports_pinned(stress):
    reports = []
    for name, counts in AXIOM_REPORTS.items():
        m, _ = stress[name]
        for x, want in zip((m, m.dual()), counts):
            rep = lm.validate(lm.extract_system(x), x)
            assert Counter(v.axiom for v in rep.violations) == want, (name, x.name)
            reports.append([(v.axiom, v.witnesses, v.message) for v in rep.violations])
    assert _sha(reports) == AXIOM_REPORTS_DIGEST
