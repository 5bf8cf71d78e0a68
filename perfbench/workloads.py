"""The three benchmark workloads as seeded lists of checked operations.

* ``ingest``: in-process ``cli.main`` runs of ``gen``, ``locked`` and
  ``lattice --reduced`` on matroid files, dense ones up to n = 15.
* ``lattice-iso``: library isomorphism and self-duality calls on pre-built
  matroids at n = 8..16.
* ``certify``: in-process ``cli.main`` runs of ``polytope verify``,
  ``axioms check`` and ``iso --method both`` at n <= 10.

An operation is prepared untimed (fresh ``Matroid`` objects, a cleared LP
program cache), timed while it runs, and checked afterwards against the
truth of its construction or a value pinned from the seed commit.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Optional

from lockedmatroid import cli, isoengine
from lockedmatroid.catalog import vamos

import inputs
from inputs import fresh

PINS_PATH = Path(__file__).with_name("pins.json")

# Operations whose answer is known to be wrong at the seed commit.  They are
# still run, checked against the truth and counted as failed; they only keep
# ``correct`` true.  ``axioms check`` reports false L18/L19 violations on the
# M(K4)+M(K4) 2-sum, a genuine matroid.
KNOWN_DEFECTS = frozenset({"certify/axioms/twosum"})

_K5 = ",".join("%d-%d" % e for e in inputs.complete_graph_edges(5))
_K6 = ",".join("%d-%d" % e for e in inputs.complete_graph_edges(6))
GEN_SPECS = ["mk4", "whirl3", "q6", "p6", "vamos", "uniform:2,4", "uniform:3,6",
             "uniform:4,8", "uniform:5,10", "uniform:6,12", "graphic:5:" + _K5,
             "graphic:6:" + _K6, "twosum:mk4+mk4@a,f0"]
INGEST_STRESS = ["uniform(5,10)", "mk5", "twosum", "uniform(6,12)", "mk4chain3", "mk6"]
CERTIFY_STRESS = ["uniform(5,10)", "mk5", "twosum"]

# lattice-iso: (matroid, operations, repetitions).  "+" pairs a matroid with
# a seeded relabelling, "-" with a non-isomorphic partner; "zl" is
# mip_zero_locked.  The n >= 14 inputs, at seconds each, get one call of each
# kind.  The 13 slowest operations (>= 0.5 s at the seed commit) are followed
# by eight chain series+ calls of ~0.4 s, and the vamos calls bring a pass to
# 170 operations, so the 90th percentile falls inside that cluster of like
# operations rather than in a gap between unlike ones: lattice-iso's
# op_p90_ms is the latency of one n=14 chain operation, mostly series+.
_ALL = ("labels+", "labels-", "series+", "series-", "tsd")
LATTICE_PLAN = [
    ("vamos", _ALL, 22),
    ("mk5", _ALL, 6),
    ("mk4chain3", _ALL, 2),
    ("mk4chain3", ("series+",), 6),
    ("uniform(6,12)", _ALL + ("zl+", "zl-"), 1),
    ("uniform(7,14)", ("labels+", "series-", "tsd", "zl+"), 1),
    ("mk6", ("labels+", "tsd"), 1),
    ("uniform(8,16)", ("tsd",), 1),
]


@dataclass
class Op:
    key: str  # "<workload>/<command>/<input>[#copy]": unique within a pass, stable across seeds
    prepare: Callable[[], tuple]  # untimed: the call's arguments
    call: Callable
    check: Callable[[object, list], Optional[str]]  # (result, digests) -> failure
    bases_in: int = 0  # bases handed to a library call (CLI ops count via from_text)
    pin_key: Optional[str] = None  # the result's observe() must equal pins[pin_key]
    observe: Optional[Callable[[object], object]] = None

    def verify(self, result, digests, pins: dict) -> Optional[str]:
        """None when the result is right, else why it is not."""
        reason = self.check(result, digests)
        if reason is None and self.pin_key is not None:
            got = self.observe(result)
            if pins.get(self.pin_key) != got:
                reason = "%s: got %r, pinned %r" % (self.pin_key, got, pins.get(self.pin_key))
        return reason


def sha256(text) -> str:
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` in-process with stdout captured; (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _cli_op(key, argv, check, before=None, pin_key=None, observe=None) -> Op:
    def prepare():
        if before is not None:
            before()
        return (argv,)
    return Op(key, prepare, run_cli, lambda res, _digests: check(res),
              pin_key=pin_key, observe=observe)


def _exit_zero(res) -> Optional[str]:
    return None if res[0] == 0 else "exit %r" % (res[0],)


def _stdout_sha(res) -> str:
    return sha256(res[1])


# -- ingest -------------------------------------------------------------------

def ingest(seed: int, pins: dict, workdir: Path) -> list[Op]:
    rng = Random(seed)
    ops = []
    reads = [(m, copy) for m in inputs.corpus() for copy in (1, 2)]
    reads += [(m, 1) for m in inputs.stress_tier(INGEST_STRESS).values()]
    # U(5,10), at ~50 ms a read, is read twice like the corpus, so that the 90th
    # percentile falls among its four reads rather than in a gap beside them
    reads.append((inputs.uniform(5, 10), 2))
    for m, copy in reads:
        path = workdir / ("%s.%d.matroid" % (slug(m.name), copy))
        path.write_text(inputs.text_of(m, rng), encoding="utf-8")
        for cmd in ("locked", "lattice"):
            ops.append(_read_op(cmd, m, copy, path))
    # one U(7,14) read costs ~12 s at the seed commit, so it gets one command
    u714 = inputs.uniform(7, 14)
    path = workdir / ("%s.1.matroid" % slug(u714.name))
    path.write_text(inputs.text_of(u714, rng), encoding="utf-8")
    ops.append(_read_op(rng.choice(("locked", "lattice")), u714, 1, path))
    for i, spec in enumerate(GEN_SPECS):
        ops.append(_gen_op(spec, workdir / ("gen-%d.matroid" % i)))
    rng.shuffle(ops)
    return ops


def _read_op(cmd, m, copy, path) -> Op:
    argv = [cmd, str(path)] + (["--reduced"] if cmd == "lattice" else [])
    pin = "ingest/%s/%s" % (cmd, slug(m.name))
    return _cli_op("%s#%d" % (pin, copy), argv, _exit_zero,
                   pin_key=pin, observe=_stdout_sha)


def _gen_op(spec, out_path: Path) -> Op:
    def check(res):
        code, out = res
        return None if code == 0 and not out else "exit %r, stdout %r" % (code, out[:80])
    return _cli_op("ingest/gen/%s" % spec, ["gen", spec, str(out_path)], check,
                   before=lambda: out_path.unlink(missing_ok=True),
                   pin_key="ingest/gen/%s" % spec,
                   observe=lambda _res: sha256(out_path.read_bytes()))


# -- lattice-iso ----------------------------------------------------------------

def lattice_bases() -> dict:
    """The lattice-iso base matroids by name."""
    stress = list(dict.fromkeys(name for name, _, _ in LATTICE_PLAN if name != "vamos"))
    out = {"vamos": vamos()}
    out.update(inputs.stress_tier(stress))
    return out


def self_dual_truth(m, pins: dict) -> Optional[bool]:
    """Self-duality from the construction where it is known; otherwise the
    verdict pinned from the seed commit (None when there is no pin)."""
    if 2 * m.rank != m.n:
        return False
    if m.name == "vamos" or inputs.is_uniform(m):
        return True
    return pins.get("lattice-iso/tsd/%s" % m.name)


def lattice_iso(seed: int, pins: dict, workdir: Path) -> list[Op]:
    rng = Random(seed)
    bases = lattice_bases()
    bruteforce: dict = {}
    ops = []
    first_rep: dict = {}
    for name, kinds, reps in LATTICE_PLAN:
        m = bases[name]
        start = first_rep.get(name, 0)
        first_rep[name] = start + reps
        for rep in range(start, start + reps):
            pairs = {"+": inputs.relabelled(m, rng), "-": inputs.non_isomorphic_partner(m, rng)}
            for kind in kinds:
                key = "lattice-iso/%s/%s#%d" % (kind, name, rep)
                if kind == "tsd":
                    ops.append(tsd_op(key, m, pins, bruteforce))
                else:
                    other = pairs[kind[-1]]
                    ops.append(iso_op(key, m, other, kind[:-1], kind[-1] == "+", pins,
                                      bruteforce))
    rng.shuffle(ops)
    return ops


def _bruteforce_says(cache: dict, m1, m2, key) -> bool:
    if key not in cache:
        cache[key] = isoengine.mip_bruteforce(fresh(m1), fresh(m2)).answer
    return cache[key]


def _locked_pin_check(pins, m, counts, both: bool) -> Optional[str]:
    want = pins.get("lattice-iso/locked/%s" % m.name)
    got = counts if both else counts[:1]
    if want is None or any(c != want for c in got):
        return "locked counts %r, pinned %r" % (counts, want)
    return None


def _digest_check(pins, m, route, digests) -> Optional[str]:
    """Traced runs only: the pinned canonical digest of m's lattice must be
    among the digests computed on that route."""
    span = "dagiso.canonical_form." + route
    seen = {sha256(d) for s, d in digests if s == span}
    if digests and pins.get("lattice-iso/digest/%s/%s" % (m.name, route)) not in seen:
        return "canonical %s digest of %s differs from the pin" % (route, m.name)
    return None


def iso_op(key, m1, m2, route, truth: bool, pins, bruteforce) -> Op:
    """mip_locked on (m1, m2) whose isomorphism is ``truth`` by construction;
    zero-locked pairs use mip_zero_locked (route "zl")."""
    # the package functions are looked up at call time, so that a traced
    # run sees its top-level span
    if route == "zl":
        def call(a, b):
            return isoengine.mip_zero_locked(a, b)
    else:
        def call(a, b):
            return isoengine.mip_locked(a, b, route=route)

    def check(rep, digests):
        if rep.answer != truth:
            return "answer %r, truth %r" % (rep.answer, truth)
        if m1.n <= 10 and _bruteforce_says(bruteforce, m1, m2, (id(m1), id(m2))) != truth:
            return "mip_bruteforce disagrees with the construction"
        if route == "zl":
            return None
        return (_locked_pin_check(pins, m1, rep.locked_counts, truth)
                or _digest_check(pins, m1, route, digests))
    return Op(key, lambda: (fresh(m1), fresh(m2)), call, check,
              bases_in=len(m1.bases) + len(m2.bases))


def tsd_op(key, m, pins, bruteforce) -> Op:
    def check(rep, digests):
        truth = self_dual_truth(m, pins)
        if truth is None or rep.answer != truth:
            return "tsd answer %r, truth %r" % (rep.answer, truth)
        if m.n <= 10 and _bruteforce_says(bruteforce, m, m.dual(), id(m)) != truth:
            return "mip_bruteforce disagrees on self-duality"
        return (_locked_pin_check(pins, m, rep.locked_counts, True)
                or _digest_check(pins, m, "labels", digests))
    return Op(key, lambda: (fresh(m),), lambda a: isoengine.tsd(a), check,
              bases_in=len(m.bases))


# -- certify ------------------------------------------------------------------

def certify(seed: int, pins: dict, workdir: Path) -> list[Op]:
    rng = Random(seed)
    ops = []
    ms = inputs.corpus() + list(inputs.stress_tier(CERTIFY_STRESS).values())
    for m in ms:
        name = slug(m.name)

        def write(tag, mat):
            path = workdir / ("%s.%s.matroid" % (name, tag))
            path.write_text(inputs.text_of(mat, rng), encoding="utf-8")
            return str(path)
        base = write("base", m)
        ops.append(_polytope_op(m, base, rng.randrange(1, 1 << 31)))
        ops.append(_axioms_op(m, base))
        for i in (1, 2):
            ops.append(_iso_cli_op("certify/iso+/%s#%d" % (name, i), base,
                                   write("pos%d" % i, inputs.relabelled(m, rng)), True))
        neg = inputs.non_isomorphic_partner(m, rng)
        ops.append(_iso_cli_op("certify/iso-/%s" % name, base, write("neg", neg), False))
    rng.shuffle(ops)
    return ops


def polytope_stdout_digest(out: str) -> str:
    """sha256 of ``polytope verify`` output without its seed line."""
    return sha256("".join(ln for ln in out.splitlines(True) if not ln.startswith("# seed: ")))


def _polytope_op(m, path, seed) -> Op:
    def check(res):
        code, out = res
        if code != 0 or "lp-greedy pass" not in out:
            return "exit %r; the LP optimum must equal greedy_max_basis" % code
        return None
    pin = "certify/polytope/%s" % slug(m.name)
    return _cli_op(pin, ["polytope", "verify", path, "--seed", str(seed)], check,
                   pin_key=pin, observe=lambda res: polytope_stdout_digest(res[1]))


def _axioms_op(m, path) -> Op:
    # a genuine matroid satisfies every axiom: the truth, not a pinned output
    want = "# format: 1\nmatroid %s n=%d rank=%d\nok: 0 violations\n" % (m.name, m.n, m.rank)

    def check(res):
        code, out = res
        if code != 0 or out != want:
            return "exit %r, %d violation lines" % (code, len(out.splitlines()) - 2)
        return None
    return _cli_op("certify/axioms/%s" % slug(m.name), ["axioms", "check", path], check)


def _iso_cli_op(key, a, b, truth: bool) -> Op:
    word = "true" if truth else "false"
    want = (0 if truth else 1,
            "%s (bruteforce=lattice=%s)\n" % ("isomorphic" if truth else "not isomorphic", word))

    def check(res):
        return None if tuple(res) == want else "got %r, truth %r" % (res, want)
    return _cli_op(key, ["iso", a, b, "--method", "both"], check)


# name -> builder(seed, pins, workdir); every builder takes the same arguments
WORKLOADS = {"ingest": ingest, "lattice-iso": lattice_iso, "certify": certify}
