"""Benchmark runner for the lockedmatroid package.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: each operation starts after the
previous one has finished.  The workload (see workloads.py) is built from
the seed, then replayed in whole passes for at most ``--seconds`` seconds,
and at least one pass; every operation's answer is checked.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics, writing the spans to
``.perfbench_out/``.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7  # set-up is tens of milliseconds: report the median of several
# Other tenants share the host's cores, and its speed drifts by up to ~30%
# over seconds.  Times are reported scaled to this probe time (probe_s), so
# that runs on one host compare; the measured times are printed beside them.
PROBE_REFERENCE_S = 0.003
_PROBE_TABLE = list(range(4096))
# An operation of seconds is probed every SAMPLE_EVERY_S too (SIGALRM), so
# that its scaling follows the host's speed while it runs.
SAMPLE_EVERY_S = 0.5
_samples: list[float] = []  # probe times taken during the current operation


def _import_package():
    """Import lockedmatroid from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import lockedmatroid
    if Path(lockedmatroid.__file__).resolve().parent.parent != src:
        raise ImportError("lockedmatroid was not imported from %s" % src)


def probe_s() -> float:
    """Time a fixed pure-Python loop of bit and list operations, the kind
    the package runs: the host's current speed."""
    start = perf_counter()
    acc = 0
    table = _PROBE_TABLE
    for m in range(1, 16384):
        low = m & -m
        acc += table[(m ^ low) & 4095] + m.bit_count()
    return perf_counter() - start


def _sample(_signum, _frame) -> None:
    _samples.append(probe_s())


def run_ops(ops, tracer=None) -> list[tuple]:
    """One pass: (op, latency s, scaled latency s, result, error, digests)
    per operation.  The latency leaves out the probes taken during the
    operation.  The scaled latency divides by the host's speed, the mean of
    the probes just before, during and just after the operation."""
    from lockedmatroid import polytope
    records = []
    previous = signal.signal(signal.SIGALRM, _sample)
    before = probe_s()
    for i, op in enumerate(ops):
        args = op.prepare()
        polytope._program.cache_clear()
        gc.collect()
        if tracer is not None:
            tracer.op = i
            tracer.digests = []
        result = error = None
        _samples.clear()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = perf_counter()
        try:
            result = op.call(*args)
        except Exception as exc:  # an operation's failure is measured, not fatal
            error = "%s: %s" % (type(exc).__name__, exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = perf_counter() - start - sum(_samples)
        after = probe_s()
        scaled = latency * PROBE_REFERENCE_S / statistics.fmean([before, *_samples, after])
        before = after
        if tracer is not None:
            info = polytope._program.cache_info()
            tracer.counts["polytope.program_cache.hits"] += info.hits
            tracer.counts["polytope.program_cache.misses"] += info.misses
            tracer.counts["matroid.bases_in"] += op.bases_in
        records.append((op, latency, scaled, result, error,
                        tracer.digests if tracer else []))
    signal.signal(signal.SIGALRM, previous)
    return records


def check(records, pins, known_defects) -> tuple[int, bool, list[str]]:
    """(failed count, correct, failure lines).  ``correct`` is false when an
    operation fails that is not a known defect of the seed commit."""
    failed, correct, lines = 0, True, []
    for op, _, _, result, error, digests in records:
        reason = error
        if reason is None:
            try:
                reason = op.verify(result, digests, pins)
            except Exception as exc:  # a check that cannot run fails the operation
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
        if reason is not None:
            failed += 1
            known = op.key in known_defects
            correct = correct and known
            lines.append("# failed %s%s: %s" % (op.key, " (known defect)" if known else "",
                                                reason))
    return failed, correct, lines


def summarize(latencies, setups, rss_mb) -> dict[str, tuple]:
    """The end-to-end metrics, name -> (value, unit)."""
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ingest", "lattice-iso", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        _import_package()
    except ImportError as exc:
        print("error: cannot import lockedmatroid from %s: %s" % (ROOT / "src", exc),
              file=sys.stderr)
        return 2
    import spans
    import workloads

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gc.collect()
            before = probe_s()
            start = perf_counter()
            pins = workloads.load_pins()
            ops = workloads.WORKLOADS[args.workload](args.seed, pins, workdir)
            took = perf_counter() - start
            setups.append((took, took * 2 * PROBE_REFERENCE_S / (before + probe_s())))
        gc.collect()
        gc.freeze()

        start = perf_counter()
        records = run_ops(ops)
        passes = 1
        if not args.trace:
            passes = max(1, int(args.seconds // (perf_counter() - start)))
            for _ in range(passes - 1):
                records += run_ops(ops)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_ops(ops, tracer)
            finally:
                tracer.uninstall()
        all_records = records + (traced if args.trace else [])
        failed, correct, failure_lines = check(all_records, pins, workloads.KNOWN_DEFECTS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end = summarize([r[2] for r in records], [s[1] for s in setups], rss_mb)
    measured = summarize([r[1] for r in records], [s[0] for s in setups], rss_mb)
    attempted = len(all_records)
    print("# workload %s seed %d: %d passes of %d ops, closed loop, one client"
          % (args.workload, args.seed, passes, len(ops)))
    for line in failure_lines:
        print(line)
    for name, (value, unit) in end_to_end.items():
        print("%s %.6g %s (measured %.6g %s)" % (name, value, unit, measured[name][0], unit))
    print("error_rate %.6g failed/attempted (%d/%d)"
          % (failed / attempted, failed, attempted))

    if args.trace:
        traced_busy = sum(r[2] for r in traced)
        metrics = tracer.metrics()
        metrics["trace.ops_per_s"] = (len(traced) / traced_busy, "1/s")
        metrics["trace.untraced_ops_per_s"] = end_to_end["ops_per_s"]
        print("# trace overhead %+.3g%% (untraced over traced ops_per_s, minus 1)"
              % ((end_to_end["ops_per_s"][0] / metrics["trace.ops_per_s"][0] - 1) * 100))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
        for name, (value, unit) in metrics.items():
            print("%s %.6g %s" % (name, value, unit))
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
