"""Outside-in span tracing of the lockedmatroid layers.

The tracer wraps module attributes (and a few methods) at their call sites:
every ``lockedmatroid`` module that holds a reference to a traced function
gets the wrapper, so calls through ``from .x import f`` copies are seen as
well.  Nothing in the package is edited; ``uninstall`` puts the originals
back.  Spans stay in memory as (name, start, end, parent, op) and are
written out once, at the end of a run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from lockedmatroid import (axioms, cli, dagiso, isoengine, lattice, locked, matroid,
                           polytope, simplex)


def _canonical_span(g) -> str:
    # the series encoding is the one all-zero-colour digraph the package builds
    route = "series" if not any(g.colors) else "labels"
    return "dagiso.canonical_form." + route


# (span name, owner, attribute, counter name, result -> count)
TRACED = [
    ("matroid.from_text", matroid, "from_text", "matroid.bases_in", lambda m: len(m.bases)),
    ("matroid.check_exchange", matroid, "_check_exchange", None, None),
    ("matroid.rank_table", matroid.Matroid, "_build_tables", None, None),
    ("matroid.closures", matroid, "closures", None, None),
    ("matroid.find_separator", matroid, "find_separator", None, None),
    ("matroid.to_text", matroid, "to_text", None, None),
    ("locked.locked_structure", locked, "locked_structure", "locked.sets_found",
     lambda s: len(s.locked)),
    ("locked.dual_structure", locked, "dual_structure", None, None),
    ("lattice.reduced_lattice", lattice, "reduced_lattice", "lattice.vertices",
     lambda d: d.vertex_count),
    ("lattice.series_encode", lattice, "series_encode", "lattice.series_vertices",
     lambda g: g.vertex_count),
    (_canonical_span, dagiso, "canonical_form", None, None),
    ("isoengine.mip_locked", isoengine, "mip_locked", None, None),
    ("isoengine.tsd", isoengine, "tsd", None, None),
    ("isoengine.mip_zero_locked", isoengine, "mip_zero_locked", None, None),
    ("isoengine.mip_bruteforce", isoengine, "mip_bruteforce", None, None),
    ("axioms.extract_system", axioms, "extract_system", None, None),
    ("axioms.validate", axioms, "validate", "axioms.violations",
     lambda rep: len(rep.violations)),
    ("polytope.build_P", polytope, "build_P", None, None),
    ("polytope.zero_one_vertices", polytope, "zero_one_vertices", None, None),
    ("polytope.lp_maximize", polytope, "lp_maximize", None, None),
    ("polytope.member_Q", polytope, "member_Q", None, None),
    ("simplex.build", simplex.SimplexProgram, "__init__", None, None),
    ("simplex.maximize", simplex.SimplexProgram, "maximize", None, None),
    ("cli.gen", cli, "_cmd_gen", None, None),
    ("cli.locked", cli, "_cmd_locked", None, None),
    ("cli.lattice", cli, "_cmd_lattice", None, None),
    ("cli.polytope", cli, "_cmd_polytope", None, None),
    ("cli.axioms", cli, "_cmd_axioms", None, None),
    ("cli.iso", cli, "_cmd_iso", None, None),
]

SPAN_NAMES = [n for name, *_ in TRACED
              for n in ([name] if isinstance(name, str) else
                        ["dagiso.canonical_form.labels", "dagiso.canonical_form.series"])]
COUNT_NAMES = ["matroid.bases_in", "locked.sets_found", "lattice.vertices",
               "lattice.series_vertices", "axioms.violations",
               "polytope.program_cache.hits", "polytope.program_cache.misses"]


class Tracer:
    """Records one span per traced call and the counts listed in TRACED."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.digests: list[tuple[str, str]] = []  # (span name, digest) of the current op
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter, count_of):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args[0])
            idx = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else None, self.op])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None:
                counts[counter] += count_of(result)
            if fn is _CANONICAL:
                self.digests.append((span_name, result.digest))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "lockedmatroid" or k.startswith("lockedmatroid.")]
        for name, owner, attr, counter, count_of in TRACED:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, counter, count_of)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, value = self._restore.pop()
            setattr(holder, key, value)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by its
        direct child spans."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s[0]] = out.get(s[0], 0.0) + t
        return out

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def metrics(self) -> dict[str, tuple]:
        """name -> (value, unit): calls and self time of every span, then
        the counts."""
        calls = self.calls()
        own = self.self_times()
        out: dict[str, tuple] = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = (calls.get(name, 0), "count")
            out[name + ".self_s"] = (own.get(name, 0.0), "s")
        for name in COUNT_NAMES:
            out[name] = (self.counts.get(name, 0), "count")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


_CANONICAL = dagiso.canonical_form
