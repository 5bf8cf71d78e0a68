"""Command line entry point.

Subcommands: gen, locked, lattice, iso, selfdual, axioms, polytope, bench.
Output is deterministic for fixed inputs and seeds; report-style commands
start with a ``# format: 1`` header and echo the seed when they use one.
Exit codes: 2 for usage or input errors, 1 for a negative verdict of a
yes/no query (iso, selfdual, and axioms check when it reports a
violation), 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from random import Random

from . import errors
from ._bits import subset_text
from .axioms import extract_system, validate
from .catalog import catalog
from .corpus import standard_corpus
from .isoengine import mip_bruteforce, mip_locked, mip_zero_locked, tsd
from .lattice import augmented_lattice, dot_text, label_text, reduced_lattice, series_encode
from .locked import locked_structure, structure_text
from .matroid import Matroid, _reject_disconnected, is_connected, load, save, two_sum, with_names
from .polytope import build_P, verify_lines

DEFAULT_SEED = 1


def _natural(text: str) -> int:
    """argparse type of a count: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid count: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("a count cannot be negative: %d" % value)
    return value


def parse_gen_spec(spec: str) -> Matroid:
    """gen specs: mk4 | whirl3 | q6 | p6 | vamos | uniform:R,N |
    graphic:NV:u-v,... | twosum:<spec1>+<spec2>@<e1>,<e2>

    In a twosum the first summand keeps default e-names and the second is
    renamed to f-names, so basepoints read like e3, f0."""
    if spec.startswith("twosum:"):
        body = spec[len("twosum:"):]
        if "@" not in body or "+" not in body:
            raise errors.InvalidParams("twosum spec is twosum:<a>+<b>@<e1>,<e2>")
        core, at = body.rsplit("@", 1)
        left_spec, right_spec = core.split("+", 1)
        if left_spec.startswith("twosum:") or right_spec.startswith("twosum:"):
            raise errors.InvalidParams("nested twosum specs are not supported")
        m1 = parse_gen_spec(left_spec)
        m2 = parse_gen_spec(right_spec)
        m2 = with_names(m2, tuple("f%d" % i for i in range(m2.n)), m2.name + "f")
        try:
            n1, n2 = (t.strip() for t in at.split(","))
        except ValueError:
            raise errors.InvalidParams("twosum basepoints are <e1>,<e2>") from None
        res = two_sum(m1, m2, m1.ground.index_of(n1), m2.ground.index_of(n2))
        res.name = "twosum"
        return res
    if spec.startswith("uniform:"):
        return catalog("uniform", *spec[len("uniform:"):].split(","))
    if spec.startswith("graphic:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise errors.InvalidParams("graphic spec is graphic:<nv>:<u-v,u-v,...>")
        nv, edges = parts[1], parts[2].split(",")
        return catalog("graphic", nv, [tuple(e.split("-")) for e in edges])
    return catalog(spec)


def _cmd_gen(args) -> int:
    m = parse_gen_spec(args.spec)
    save(m, args.out)
    return 0


def _cmd_locked(args) -> int:
    m = load(args.matroid)
    s = locked_structure(m)
    print("# format: 1")
    print("matroid %s n=%d rank=%d" % (m.name, m.n, m.rank))
    if args.full:
        sys.stdout.write(structure_text(s))
    else:
        for x in s.locked:
            print("locked %s rank=%d" % (subset_text(s.names, x), s.rho[x]))
        print("count %d" % len(s.locked))
    return 0


def _cmd_lattice(args) -> int:
    m = load(args.matroid)
    s = locked_structure(m)
    d = augmented_lattice(s) if args.augmented else reduced_lattice(s)
    if args.dot:
        sys.stdout.write(dot_text(d))
        return 0
    kind = "augmented" if args.augmented else "reduced"
    print("# format: 1")
    print("lattice %s vertices=%d arcs=%d" % (kind, d.vertex_count, len(d.arcs)))
    for v in range(d.vertex_count):
        print("v%d %s label=%s %s" % (v, d.levels[v], label_text(d.labels[v]),
                                      subset_text(s.names, d.provenance[v])))
    for (u, v) in d.arcs:
        print("a v%d v%d" % (u, v))
    return 0


def _verdict(method: str, bruteforce, lattice) -> bool:
    """Answer of the chosen method; "both" runs the two and insists they agree."""
    if method == "bruteforce":
        return bruteforce().answer
    if method == "lattice":
        return lattice().answer
    b, l = bruteforce().answer, lattice().answer
    if b != l:
        raise errors.LockedMatroidError("methods disagree: bruteforce=%r lattice=%r" % (b, l))
    return b


def _cmd_iso(args) -> int:
    m1 = load(args.matroid1)
    m2 = load(args.matroid2)
    if args.method == "l0":
        answer = mip_zero_locked(m1, m2).answer
    else:
        answer = _verdict(args.method, lambda: mip_bruteforce(m1, m2),
                          lambda: mip_locked(m1, m2))
    line = "isomorphic" if answer else "not isomorphic"
    if args.method == "both":
        line += " (bruteforce=lattice=%s)" % str(answer).lower()
    print(line)
    return 0 if answer else 1


def _cmd_selfdual(args) -> int:
    m = load(args.matroid)
    answer = _verdict(args.method, lambda: mip_bruteforce(m, m.dual()), lambda: tsd(m))
    print("self-dual" if answer else "not self-dual")
    return 0 if answer else 1


def _cmd_axioms(args) -> int:
    m = load(args.matroid)
    system = extract_system(m)  # first, so loops and coloops keep their own errors
    if not is_connected(m):
        raise errors.Disconnected("the locked axiom system is defined for connected "
                                  "matroids; %s is not connected" % m.name)
    report = validate(system, m)
    print("# format: 1")
    print("matroid %s n=%d rank=%d" % (m.name, m.n, m.rank))
    sys.stdout.write(report.text())
    return 0 if report.ok else 1


def _cmd_polytope(args) -> int:
    m = load(args.matroid)
    rng = Random(args.seed)
    s = locked_structure(m)
    _reject_disconnected(m)  # the rows cut out the bases polytope of connected matroids only
    system = build_P(s)
    print("# format: 1")
    print("# seed: %d" % args.seed)
    print("matroid %s n=%d rank=%d" % (m.name, m.n, m.rank))
    for line in verify_lines(m, system, rng, args.trials, args.points):
        print(line)
    return 0


def _cmd_bench(args) -> int:
    print("# format: 1")
    print("# seed: %d" % args.seed)
    for m in standard_corpus(args.seed):
        s = locked_structure(m)
        d = reduced_lattice(s)
        se = series_encode(d)
        print("%s n=%d rank=%d bases=%d locked=%d lattice=%d/%d series=%d/%d" % (
            m.name, m.n, m.rank, len(m._basis_masks), len(s.locked),
            d.vertex_count, len(d.arcs), se.vertex_count, len(se.arcs)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="locked-matroid",
                                 description="locked structure toolkit for small matroids")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a catalog matroid to a file")
    p.add_argument("spec")
    p.add_argument("out")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("locked", help="print the locked subsets of a matroid file")
    p.add_argument("matroid")
    p.add_argument("--full", action="store_true", help="print the full P/S/L dump")
    p.set_defaults(fn=_cmd_locked)

    p = sub.add_parser("lattice", help="print or export the locked lattice")
    p.add_argument("matroid")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--augmented", action="store_true")
    g.add_argument("--reduced", action="store_true", default=True)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of plain text")
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("iso", help="isomorphism test between two matroid files")
    p.add_argument("matroid1")
    p.add_argument("matroid2")
    p.add_argument("--method", choices=("bruteforce", "lattice", "l0", "both"),
                   default="lattice")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("selfdual", help="self-duality test")
    p.add_argument("matroid")
    p.add_argument("--method", choices=("bruteforce", "lattice", "both"),
                   default="lattice")
    p.set_defaults(fn=_cmd_selfdual)

    p = sub.add_parser("axioms", help="validate the extracted locked system")
    p.add_argument("action", choices=("check",))
    p.add_argument("matroid")
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("polytope", help="verify polytope facts for a matroid file")
    p.add_argument("action", choices=("verify",))
    p.add_argument("matroid")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=_natural, default=20)
    p.add_argument("--points", type=_natural, default=200)
    p.set_defaults(fn=_cmd_polytope)

    p = sub.add_parser("bench", help="deterministic corpus size report")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=_cmd_bench)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (errors.LockedMatroidError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
