"""Tests of the benchmark itself: a minimal run of every workload, the
failure accounting, and the tracer's install/uninstall and self times.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from random import Random

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_package()

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lockedmatroid import cli  # noqa: E402
from lockedmatroid.catalog import vamos  # noqa: E402
from lockedmatroid.matroid import Matroid  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*argv) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


# inputs small enough for a smoke run; lattice-iso starts at vamos (n = 8)
SMALL_INPUTS = {"ingest": {"mk4", "whirl3", "q6", "p6"},
                "certify": {"mk4", "whirl3", "q6", "p6"},
                "lattice-iso": {"vamos"}}


def _small_only(monkeypatch, workload):
    """Replace the workload by its operations on SMALL_INPUTS."""
    build = workloads.WORKLOADS[workload]

    def small(seed, pins, workdir):
        return [op for op in build(seed, pins, workdir)
                if op.key.split("/")[2].split("#")[0] in SMALL_INPUTS[workload]]
    monkeypatch.setitem(workloads.WORKLOADS, workload, small)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload, monkeypatch):
    _small_only(monkeypatch, workload)
    lines, result = _run("--workload", workload, "--seed", "5", "--seconds", "0.01",
                         "--trace", "0")
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    for metric in BENCHMARK["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0
        # "name value unit (measured value unit)"
        assert any(ln.split()[:3:2] == [metric["name"], metric["unit"]] for ln in lines)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert any(ln.startswith("error_rate 0 ") for ln in lines)


def test_traced_run_reports_every_layer_metric(monkeypatch):
    _small_only(monkeypatch, "lattice-iso")
    _, result = _run("--workload", "lattice-iso", "--seed", "5", "--seconds", "0.01",
                     "--trace", "1")
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["isoengine.tsd.calls"]["value"] > 0
    assert result["metrics"]["locked.sets_found"]["value"] > 0


def test_corrupted_answer_is_counted_as_failed():
    m = vamos()
    twin = inputs.relabelled(m, Random(7))
    # swap one basis of the relabelled copy for a non-basis of the same size
    non_basis = next(x for x in range(1 << m.n)
                     if x.bit_count() == m.rank and x not in twin._basis_mask_set)
    corrupted = Matroid(twin.ground, list(twin._basis_masks[1:]) + [non_basis], m.name)
    pins = workloads.load_pins()
    good = workloads.iso_op("good", m, twin, "labels", True, pins, {})
    bad = workloads.iso_op("bad", m, corrupted, "labels", True, pins, {})
    failed, correct, lines = run.check(run.run_ops([good, bad]), pins, frozenset())
    assert (failed, correct) == (1, False)
    assert lines[0].startswith("# failed bad")


def test_known_defect_fails_but_keeps_correct():
    op = workloads.Op("known", lambda: (), lambda: None, lambda res, _d: "wrong")
    assert run.check(run.run_ops([op]), {}, frozenset({"known"}))[:2] == (1, True)


def test_check_that_raises_is_counted_as_failed():
    def check(_res, _digests):
        raise FileNotFoundError("no output file")
    op = workloads.Op("raises", lambda: (), lambda: None, check)
    failed, correct, lines = run.check(run.run_ops([op]), {}, frozenset())
    assert (failed, correct) == (1, False)
    assert "FileNotFoundError" in lines[0]


def test_tracer_restores_the_package_and_subtracts_children():
    original = cli._cmd_locked
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli._cmd_locked is not original
        workloads.isoengine.tsd(vamos())
    finally:
        tracer.uninstall()
    assert cli._cmd_locked is original
    assert workloads.isoengine.tsd is original.__globals__["tsd"]
    calls = tracer.calls()
    assert calls["isoengine.tsd"] == 1 and calls["locked.locked_structure"] == 1
    own = tracer.self_times()
    total = sum(s[2] - s[1] for s in tracer.spans if s[3] is None)
    assert abs(sum(own.values()) - total) < 1e-9
