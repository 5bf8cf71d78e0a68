"""Regenerate pins.json: the outputs the benchmark compares against.

    python3 perfbench/pin.py

Run it only at a commit whose outputs are trusted (the pins were taken at
the seed commit).  It pins CLI stdout sha256s (ingest reads, ``polytope
verify`` without its seed line), the sha256 of every ``gen`` file, and per
lattice-iso matroid its locked-subset count, the sha256 of its canonical
lattice digests and, where the construction does not settle it, its
self-duality verdict.  Answers known from the construction (isomorphism of
relabellings, ``axioms check`` on genuine matroids) are never pinned.
"""

from __future__ import annotations

import json
import shutil
import sys
from random import Random

import run

run._import_package()

from lockedmatroid import dagiso, isoengine, lattice, locked  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from inputs import fresh  # noqa: E402


def cli_pins(workdir) -> dict:
    pins: dict = {}
    for name in ("ingest", "certify"):
        for op in workloads.WORKLOADS[name](1, {}, workdir):
            if op.pin_key is None:
                continue
            result = op.call(*op.prepare())
            reason = op.check(result, [])
            if reason is not None:
                raise SystemExit("%s fails its own check: %s" % (op.key, reason))
            value = op.observe(result)
            if pins.setdefault(op.pin_key, value) != value:
                raise SystemExit("%s is not deterministic" % op.pin_key)
    # the seed picks the one command that reads U(7,14); pin the other too
    u714 = inputs.uniform(7, 14)
    path = workdir / "u714.matroid"
    path.write_text(inputs.text_of(u714, Random(1)), encoding="utf-8")
    for cmd in ("locked", "lattice"):
        op = workloads._read_op(cmd, u714, 1, path)
        if op.pin_key not in pins:
            pins[op.pin_key] = op.observe(op.call(*op.prepare()))
    return pins


def lattice_pins() -> dict:
    pins: dict = {}
    for name, m in workloads.lattice_bases().items():
        s = locked.locked_structure(fresh(m))
        d = lattice.reduced_lattice(s)
        pins["lattice-iso/locked/%s" % name] = len(s.locked)
        for route, g in (("labels", lattice.to_colored(d)), ("series", lattice.series_encode(d))):
            digest = dagiso.canonical_form(g).digest
            pins["lattice-iso/digest/%s/%s" % (name, route)] = workloads.sha256(digest)
        if workloads.self_dual_truth(m, {}) is None:
            pins["lattice-iso/tsd/%s" % name] = isoengine.tsd(fresh(m)).answer
    return pins


def main() -> int:
    workdir = run.ROOT / ".perfbench_work" / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        pins = cli_pins(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pins.update(lattice_pins())
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d pins written to %s" % (len(pins), workloads.PINS_PATH.name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
