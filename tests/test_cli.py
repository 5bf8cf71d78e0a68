import dataclasses
import hashlib
import inspect
import typing
from pathlib import Path
from random import Random

import pytest

import lockedmatroid as lm
from lockedmatroid import cli, isoengine, polytope
from lockedmatroid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_uniform(tmp_path, capsys):
    out = tmp_path / "u24.matroid"
    code, _, _ = run(capsys, "gen", "uniform:2,4", str(out))
    assert code == 0
    m = lm.load(out)
    assert m == lm.uniform(2, 4)
    assert out.read_text().count("basis") == 6


def test_gen_vamos(tmp_path, capsys):
    out = tmp_path / "v.matroid"
    assert run(capsys, "gen", "vamos", str(out))[0] == 0
    assert out.read_text().count("basis") == 65


def test_gen_twosum(tmp_path, capsys):
    out = tmp_path / "t.matroid"
    code, _, _ = run(capsys, "gen", "twosum:uniform:2,4+uniform:2,4@e3,f0", str(out))
    assert code == 0
    m = lm.load(out)
    assert m.n == 6 and m.rank == 3
    assert m.names == ("e0", "e1", "e2", "f1", "f2", "f3")


def test_gen_bad_spec(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "uniform:9,2", str(tmp_path / "x"))
    assert code == 2 and "error" in err


def test_gen_roundtrip_all_catalog(tmp_path, capsys):
    for spec in ("mk4", "whirl3", "q6", "p6", "vamos", "uniform:3,6",
                 "graphic:3:0-1,1-2,0-2"):
        out = tmp_path / "m.matroid"
        assert run(capsys, "gen", spec, str(out))[0] == 0
        m = lm.load(out)
        lm.save(m, out)
        assert lm.load(out) == m


def test_locked_output(tmp_path, capsys):
    path = tmp_path / "mk4.matroid"
    lm.save(lm.mk4(), path)
    code, out, _ = run(capsys, "locked", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# format: 1"
    locked_lines = [ln for ln in lines if ln.startswith("locked ")]
    assert locked_lines == [
        "locked {a,b,d} rank=2",
        "locked {a,c,f} rank=2",
        "locked {b,c,e} rank=2",
        "locked {d,e,f} rank=2",
    ]
    assert lines[-1] == "count 4"


def test_locked_full_dump(tmp_path, capsys):
    path = tmp_path / "mk4.matroid"
    lm.save(lm.mk4(), path)
    code, out, _ = run(capsys, "locked", str(path), "--full")
    assert code == 0
    assert "P: {a} rank=1" in out and "L: {a,b,d} rank=2" in out


def test_lattice_text_and_dot(tmp_path, capsys):
    path = tmp_path / "mk4.matroid"
    lm.save(lm.mk4(), path)
    code, out, _ = run(capsys, "lattice", str(path))
    assert code == 0
    assert "lattice reduced vertices=18 arcs=28" in out
    code, aug, _ = run(capsys, "lattice", str(path), "--augmented")
    assert "lattice augmented vertices=18 arcs=28" in aug
    assert "v0 root label=(0,0) {}" in aug
    code, dot, _ = run(capsys, "lattice", str(path), "--dot")
    assert dot.startswith("digraph locked_lattice {")


def test_iso_lattice_and_both(tmp_path, capsys):
    p1 = tmp_path / "a.matroid"
    p2 = tmp_path / "b.matroid"
    lm.save(lm.mk4(), p1)
    lm.save(lm.relabel(lm.mk4(), [5, 4, 3, 2, 1, 0], name="mk4r"), p2)
    code, out, _ = run(capsys, "iso", str(p1), str(p2), "--method", "lattice")
    assert code == 0 and out.strip() == "isomorphic"
    p3 = tmp_path / "w.matroid"
    lm.save(lm.whirl3(), p3)
    code, out, _ = run(capsys, "iso", str(p1), str(p3), "--method", "both")
    assert code == 1
    assert out.strip() == "not isomorphic (bruteforce=lattice=false)"


def test_iso_both_on_an_exhaustive_negative(tmp_path, capsys, sparse_paving_pair):
    paths = [tmp_path / "a.matroid", tmp_path / "b.matroid"]
    for m, p in zip(sparse_paving_pair, paths):
        lm.save(m, p)
    code, out, err = run(capsys, "iso", *map(str, paths), "--method", "both")
    assert (code, out, err) == (1, "not isomorphic (bruteforce=lattice=false)\n", "")


def test_iso_both_reports_methods_that_disagree(tmp_path, capsys, monkeypatch):
    p1, p2 = tmp_path / "a.matroid", tmp_path / "b.matroid"
    lm.save(lm.mk4(), p1)
    lm.save(lm.whirl3(), p2)
    monkeypatch.setattr(cli, "mip_locked", lambda m1, m2: isoengine.IsoReport(True, "lattice"))
    code, out, err = run(capsys, "iso", str(p1), str(p2), "--method", "both")
    assert (code, out, err) == (2, "", "error: methods disagree: bruteforce=False lattice=True\n")


def test_iso_l0_method(tmp_path, capsys):
    p1 = tmp_path / "a.matroid"
    p2 = tmp_path / "b.matroid"
    lm.save(lm.uniform(2, 5), p1)
    lm.save(lm.uniform(3, 5), p2)
    code, out, _ = run(capsys, "iso", str(p1), str(p2), "--method", "l0")
    assert code == 1 and out.strip() == "not isomorphic"


def test_iso_l0_reports_a_loop(tmp_path, capsys):
    # the loop is named before connectivity, as the lattice method does
    p = tmp_path / "loopy.matroid"
    lm.save(lm.from_bases(3, [(0,), (1,)]), p)
    for method in ("l0", "lattice"):
        code, out, err = run(capsys, "iso", str(p), str(p), "--method", method)
        assert (code, out, err) == (2, "", "error: loop present: element 2\n"), method


def test_selfdual(tmp_path, capsys):
    p = tmp_path / "v.matroid"
    lm.save(lm.vamos(), p)
    code, out, _ = run(capsys, "selfdual", str(p), "--method", "both")
    assert code == 0 and out.strip() == "self-dual"
    p2 = tmp_path / "u.matroid"
    lm.save(lm.uniform(1, 3), p2)
    code, out, _ = run(capsys, "selfdual", str(p2))
    assert code == 1 and out.strip() == "not self-dual"


def _verdict_commands(tmp_path, corpus):
    """iso with every method on self, relabelled and neighbour pairs, and
    selfdual with every method, over the corpus files."""
    rng = Random(11)
    paths, relabelled = [], []
    for i, m in enumerate(corpus):
        perm = list(range(m.n))
        rng.shuffle(perm)
        paths.append(str(tmp_path / ("%02d.matroid" % i)))
        relabelled.append(str(tmp_path / ("%02dr.matroid" % i)))
        lm.save(m, paths[-1])
        lm.save(lm.relabel(m, perm, name=m.name + "r"), relabelled[-1])
    for i, p in enumerate(paths):
        for method in ("bruteforce", "lattice", "l0", "both"):
            for q in (p, relabelled[i], paths[(i + 1) % len(paths)]):
                yield ["iso", p, q, "--method", method]
        for method in ("bruteforce", "lattice", "both"):
            yield ["selfdual", p, "--method", method]


def test_cli_verdicts_pinned(tmp_path, capsys, corpus):
    # sha256 over (argv, exit code, stdout, stderr), computed at the commit
    # whose lattice method also ran the series route on every call
    h = hashlib.sha256()
    count = 0
    for argv in _verdict_commands(tmp_path, corpus):
        result = run(capsys, *argv)
        shown = [Path(a).name if a.startswith(str(tmp_path)) else a for a in argv]
        h.update(repr((shown,) + result).encode("utf-8"))
        count += 1
    assert count == 15 * len(corpus)
    assert h.hexdigest() == "895f73afb8814d27c0d012afbb62e50c6fee66b7dc220cb22e51fc52a73601a8"


def test_lattice_verdicts_do_not_use_the_series_route(tmp_path, capsys, monkeypatch):
    # the lattice method answers on the labels route alone
    def refuse(d):
        raise RuntimeError("series route called")
    monkeypatch.setattr(isoengine, "series_encode", refuse)
    for name, m in (("mk4", lm.mk4()), ("mk4r", lm.relabel(lm.mk4(), [5, 4, 3, 2, 1, 0])),
                    ("whirl3", lm.whirl3()), ("vamos", lm.vamos()), ("u13", lm.uniform(1, 3))):
        lm.save(m, tmp_path / name)

    def iso(a, b, method):
        return run(capsys, "iso", str(tmp_path / a), str(tmp_path / b), "--method", method)

    def selfdual(a, method):
        return run(capsys, "selfdual", str(tmp_path / a), "--method", method)

    assert iso("mk4", "mk4r", "lattice") == (0, "isomorphic\n", "")
    assert iso("mk4", "whirl3", "lattice") == (1, "not isomorphic\n", "")
    assert iso("mk4", "mk4r", "both") == (0, "isomorphic (bruteforce=lattice=true)\n", "")
    assert iso("mk4", "whirl3", "both") == (1, "not isomorphic (bruteforce=lattice=false)\n", "")
    for method in ("lattice", "both"):
        assert selfdual("vamos", method) == (0, "self-dual\n", "")
        assert selfdual("u13", method) == (1, "not self-dual\n", "")


def test_axioms_check(tmp_path, capsys):
    p = tmp_path / "q6.matroid"
    lm.save(lm.q6(), p)
    code, out, _ = run(capsys, "axioms", "check", str(p))
    assert code == 0
    assert "ok: 0 violations" in out


def test_axioms_check_refuses_disconnected(tmp_path, capsys):
    # U(1,2)+U(1,2): the library still builds and validates its system, but
    # the command refuses it rather than print false L3/L9/L10 lines
    p = tmp_path / "dis.matroid"
    lm.save(lm.from_bases(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), p)
    code, out, err = run(capsys, "axioms", "check", str(p))
    assert (code, out) == (2, "")
    assert err == ("error: the locked axiom system is defined for connected "
                   "matroids; M is not connected\n")


def test_axioms_check_exits_1_on_a_violation(tmp_path, capsys):
    p = tmp_path / "twosum.matroid"
    assert run(capsys, "gen", "twosum:mk4+mk4@a,f0", str(p))[0] == 0
    code, out, err = run(capsys, "axioms", "check", str(p))
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert lines[:2] == ["# format: 1", "matroid twosum n=10 rank=5"]
    assert sorted(line.split()[0] for line in lines[2:]) == ["L18"] * 4 + ["L19"] * 4


def _disconnected_files(tmp_path):
    # U(2,3)+U(1,3), the 2-sum of U(1,4) and U(3,4), and M(K4)+U(1,2)
    u23 = [(0, 1), (0, 2), (1, 2)]
    paths = {name: tmp_path / ("%s.matroid" % name) for name in ("a", "b", "k")}
    lm.save(lm.from_bases(6, [x + (y,) for x in u23 for y in (3, 4, 5)]), paths["a"])
    lm.save(lm.two_sum(lm.uniform(1, 4), lm.uniform(3, 4, prefix="f"), 0, 0), paths["b"])
    lm.save(lm.from_bases(8, [b + (y,) for b in lm.mk4().bases for y in (6, 7)]), paths["k"])
    return {name: str(p) for name, p in paths.items()}


REFUSED = (2, "", "error: M is not connected\n")


def test_iso_refuses_disconnected(tmp_path, capsys):
    # the lattice route answered isomorphic; with --method both the two
    # methods disagreed
    f = _disconnected_files(tmp_path)
    for method in ("lattice", "both"):
        assert run(capsys, "iso", f["a"], f["b"], "--method", method) == REFUSED
        assert run(capsys, "iso", f["b"], f["a"], "--method", method) == REFUSED
    assert run(capsys, "iso", f["a"], f["b"])[0] == 2
    assert run(capsys, "iso", f["a"], f["b"], "--method", "bruteforce") == (
        1, "not isomorphic\n", "")


def test_selfdual_refuses_disconnected(tmp_path, capsys):
    # M(K4)+U(1,2) is self-dual; the lattice method answered not self-dual
    f = _disconnected_files(tmp_path)
    for method in ("lattice", "both"):
        assert run(capsys, "selfdual", f["k"], "--method", method) == REFUSED
    assert run(capsys, "selfdual", f["k"])[0] == 2
    assert run(capsys, "selfdual", f["k"], "--method", "bruteforce") == (0, "self-dual\n", "")


def test_polytope_verify_refuses_disconnected(tmp_path, capsys):
    # U(2,3)+U(1,3) printed three FAIL lines; M(K4)+U(1,2) printed two
    # lines and then "error: objective is unbounded over the system"
    f = _disconnected_files(tmp_path)
    for name in ("a", "k"):
        assert run(capsys, "polytope", "verify", f[name], "--trials", "3") == REFUSED


def test_locked_and_lattice_accept_disconnected(tmp_path, capsys):
    f = _disconnected_files(tmp_path)
    for argv in (["locked", f["k"]], ["locked", f["k"], "--full"], ["lattice", f["k"]],
                 ["lattice", f["k"], "--augmented", "--dot"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out


def test_polytope_verify(tmp_path, capsys):
    p = tmp_path / "mk4.matroid"
    lm.save(lm.mk4(), p)
    code, out, _ = run(capsys, "polytope", "verify", str(p),
                       "--trials", "5", "--points", "50")
    assert code == 0
    assert "# seed: 1" in out
    assert "vertices-match pass (16 bases)" in out
    assert "lp-greedy pass (5/5 trials)" in out
    assert "box-implied pass" in out
    assert "pq-agreement pass (50 points)" in out


def test_polytope_verify_reports_a_box_the_rows_miss(tmp_path, capsys):
    # U(1,2) has P = S = E, so its rows x(E) = 1, x(P) <= 1, x(S) >= 1 hold
    # at (2, -1): the box step fails and the check goes on
    p = tmp_path / "u12.matroid"
    assert run(capsys, "gen", "uniform:1,2", str(p))[0] == 0
    code, out, err = run(capsys, "polytope", "verify", str(p))
    assert (code, err) == (0, "")
    assert out == ("# format: 1\n# seed: 1\nmatroid uniform(1,2) n=2 rank=1\n"
                   "vertices-match pass (2 bases)\nlp-greedy pass (20/20 trials)\n"
                   "box-implied FAIL\npq-agreement pass (200 points)\n")


def _verify_with_rows(tmp_path, capsys, monkeypatch, m, rows):
    """polytope verify on m with build_P's system replaced by rows(system)."""
    build_p = cli.build_P
    monkeypatch.setattr(cli, "build_P", lambda s: rows(build_p(s)))
    p = tmp_path / "m.matroid"
    lm.save(m, p)
    return run(capsys, "polytope", "verify", str(p))


def test_polytope_verify_fails_lp_greedy_on_a_missing_row(tmp_path, capsys, monkeypatch):
    # without its locked rows, M(K4)'s LP reaches the triangles, which
    # outweigh every basis on some trials: the integer compare of the LP
    # optimum with the greedy total fails there
    def unlocked(system):
        return lm.LinearSystem(system.dimension,
                               tuple(r for r in system.rows if r.tag != "locked"))
    code, out, err = _verify_with_rows(tmp_path, capsys, monkeypatch, lm.mk4(), unlocked)
    assert (code, err) == (0, "")
    assert "\nlp-greedy FAIL (18/20 trials)\nbox-implied pass\n" in out


@pytest.mark.parametrize("i, rel, bound, tops", [
    (1, "<=", 2, [2, 0, 1, 0, 1, 0, 1, 0]),
    (5, ">=", -1, [1, 1, 1, 0, 1, 0, 1, 0])])
def test_polytope_verify_fails_box_implied_on_a_finite_bound(tmp_path, capsys, monkeypatch,
                                                             i, rel, bound, tops):
    # U(2,4)'s rows with x(0) <= 1 raised to 2, or x(0) >= 0 lowered to -1:
    # every free LP is bounded, and x(0) reaches 2 or -1, so the box fails
    # through the integer compare, not the Unbounded catch
    def loose(system):
        rows = list(system.rows)
        assert (rows[i].support, rows[i].rel) == ((0,), rel)
        rows[i] = dataclasses.replace(rows[i], bound=bound)
        return lm.LinearSystem(system.dimension, tuple(rows))
    m = lm.uniform(2, 4)
    code, out, err = _verify_with_rows(tmp_path, capsys, monkeypatch, m, loose)
    assert (code, err) == (0, "")
    assert "\nlp-greedy pass (20/20 trials)\nbox-implied FAIL\n" in out
    system = loose(lm.build_P(lm.locked_structure(m)))
    got = [lm.lp_maximize(system, [s * (j == e) for j in range(4)], add_box=False)[0]
           for e in range(4) for s in (1, -1)]
    assert got == tops


def test_polytope_verify_reads_the_optima_as_unreduced_pairs(tmp_path, capsys, monkeypatch):
    # the simplex does not reduce its (num, den) pairs, so the command must
    # compare them as ratios: every pair scaled by 3 prints the same lines
    p = str(tmp_path / "m.matroid")
    for spec in ("mk4", "vamos", "uniform:1,2"):
        assert run(capsys, "gen", spec, p)[0] == 0
        want = run(capsys, "polytope", "verify", p, "--points", "5")
        core = cli._lp_maximize

        def scaled(system, program, weights):
            (num, den), witness = core(system, program, weights)
            return (3 * num, 3 * den), witness
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_lp_maximize", scaled)
            assert run(capsys, "polytope", "verify", p, "--points", "5") == want, spec


@pytest.mark.parametrize("spec", ["mk4", "vamos", "uniform:5,10"])
def test_polytope_verify_looks_each_program_up_once(tmp_path, capsys, spec):
    # one lookup of the boxed program for lp-greedy and one of the free
    # program for box-implied, whatever --trials and n are
    p = str(tmp_path / "m.matroid")
    assert run(capsys, "gen", spec, p)[0] == 0
    for trials in ("0", "1", "20"):
        polytope._program.cache_clear()
        code, _, err = run(capsys, "polytope", "verify", p, "--trials", trials, "--points", "5")
        info = polytope._program.cache_info()
        assert (code, err, info.hits, info.misses) == (0, "", 0, 2), (spec, trials)


_POLYTOPE_SPECS = ("uniform:1,2", "uniform:5,10",
                   "graphic:5:0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4", "twosum:mk4+mk4@a,f0")


def test_polytope_verify_pinned(tmp_path, capsys, corpus):
    # sha256 over (argv, exit code, stdout, stderr) of polytope verify on the
    # corpus, U(1,2), U(5,10), M(K5) and M(K4)+M(K4), computed at the commit
    # whose command compared the LP optima as Fractions
    paths = []
    for i, m in enumerate(corpus):
        paths.append(tmp_path / ("%02d.matroid" % i))
        lm.save(m, paths[-1])
    for i, spec in enumerate(_POLYTOPE_SPECS):
        paths.append(tmp_path / ("g%d.matroid" % i))
        assert run(capsys, "gen", spec, str(paths[-1]))[0] == 0
    h = hashlib.sha256()
    for p in paths:
        for options in ((), ("--seed", "9"), ("--trials", "3", "--points", "17")):
            result = run(capsys, "polytope", "verify", str(p), *options)
            h.update(repr((["polytope", "verify", p.name, *options],) + result).encode("utf-8"))
    assert len(paths) == len(corpus) + 4 == 25
    assert h.hexdigest() == "d0ecde64b5730cba1563017b349c5cbb9c06122d78925faf606a6af74d420a3f"


def test_repeated_element_in_a_basis_line_exit_2(tmp_path, capsys):
    p = tmp_path / "rep.matroid"
    p.write_text("matroid r\nelements a,b,c\nbasis a a\n")
    code, out, err = run(capsys, "locked", str(p))
    assert (code, out) == (2, "")
    assert err == "error: repeated element 'a' in basis line\n"


@pytest.mark.parametrize("option", ["--trials", "--points"])
@pytest.mark.parametrize("value", ["-3", "-1", "x", "2.5"])
def test_polytope_verify_refuses_bad_counts(tmp_path, capsys, option, value):
    p = tmp_path / "mk4.matroid"
    lm.save(lm.mk4(), p)
    with pytest.raises(SystemExit) as exc:
        main(["polytope", "verify", str(p), option, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and option in err


def test_polytope_verify_zero_counts(tmp_path, capsys):
    p = tmp_path / "mk4.matroid"
    lm.save(lm.mk4(), p)
    code, out, _ = run(capsys, "polytope", "verify", str(p), "--trials", "0", "--points", "0")
    assert code == 0
    assert "lp-greedy pass (0/0 trials)" in out and "pq-agreement pass (0 points)" in out


def test_polytope_verify_skips_pq_for_big(tmp_path, capsys):
    p = tmp_path / "v.matroid"
    lm.save(lm.vamos(), p)
    code, out, _ = run(capsys, "polytope", "verify", str(p),
                       "--trials", "2", "--points", "10")
    assert code == 0 and "pq-agreement skipped (n=8)" in out


def test_bench_deterministic(capsys):
    code1, out1, _ = run(capsys, "bench")
    code2, out2, _ = run(capsys, "bench")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "mk4 n=6 rank=3 bases=16 locked=4 lattice=18/28 series=41/51" in out1


def test_outputs_byte_identical(tmp_path, capsys):
    p = tmp_path / "mk4.matroid"
    lm.save(lm.mk4(), p)
    for argv in (["locked", str(p)], ["lattice", str(p), "--dot"],
                 ["polytope", "verify", str(p), "--trials", "3", "--points", "20"]):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2, argv


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "locked", "/nonexistent/x.matroid")
    assert code == 2 and "error" in err


def test_non_utf8_file_exit_2(tmp_path, capsys):
    p = tmp_path / "latin1.matroid"
    p.write_bytes("matroid x\nelements \u00e9,b\nbasis \u00e9\nbasis b\n".encode("latin-1"))
    code, out, err = run(capsys, "locked", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "UTF-8" in err


def test_seventeen_element_file_exit_2(tmp_path, capsys):
    names = ["e%d" % i for i in range(17)]
    p = tmp_path / "u1_17.matroid"
    p.write_text("matroid u\nelements %s\n%s\n"
                 % (",".join(names), "\n".join("basis " + nm for nm in names)))
    code, out, err = run(capsys, "locked", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "capped at 16" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["iso", "only-one-file"])
    assert exc.value.code == 2


def test_iso_has_no_seed_option(tmp_path, capsys):
    p = tmp_path / "mk4.matroid"
    lm.save(lm.mk4(), p)
    with pytest.raises(SystemExit) as exc:
        main(["iso", str(p), str(p), "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_gen_oversized_uniform_refused_at_once(tmp_path, capsys):
    out = tmp_path / "u20_40.matroid"
    code, stdout, err = run(capsys, "gen", "uniform:20,40", str(out))
    assert code == 2 and stdout == ""
    assert "capped at 16" in err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["graphic:3:0-1,1-2-0", "graphic:3:0-1,1"])
def test_gen_graphic_edge_not_a_pair_refused(tmp_path, capsys, spec):
    out = tmp_path / "g.matroid"
    code, stdout, err = run(capsys, "gen", spec, str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: edge is not a pair of vertices")
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("uniform:3", "uniform needs (r, n)"),
    ("uniform:3,4,5", "uniform needs (r, n)"),
    ("uniform:3,x", "'x' is not an integer"),
    ("uniform:2.5,4", "'2.5' is not an integer"),
    ("graphic:3:0-x", "'x' is not an integer"),
    ("graphic:x:0-1", "'x' is not an integer"),
    ("graphic:3", "graphic spec is graphic:<nv>:<u-v,u-v,...>"),
    ("graphic:3:", "edge is not a pair of vertices: ('',)"),
    ("graphic:3:0-3", "edge endpoint out of range: (0, 3)"),
    ("twosum:mk4+mk4@a", "twosum basepoints are <e1>,<e2>"),
    ("twosum:mk4+uniform:3@a,f0", "uniform needs (r, n)"),
    ("twosum:mk4@a,f0", "twosum spec is twosum:<a>+<b>@<e1>,<e2>"),
    ("twosum:twosum:mk4+mk4@a,f0+mk4@a,f0", "nested twosum specs are not supported"),
])
def test_gen_malformed_spec_refused(tmp_path, capsys, spec, message):
    # each field is checked once, by the catalog constructor it goes to
    out = tmp_path / "x.matroid"
    assert run(capsys, "gen", spec, str(out)) == (2, "", "error: %s\n" % message)
    assert not out.exists()
    with pytest.raises(lm.errors.InvalidParams):
        cli.parse_gen_spec(spec)


def test_gen_oversized_twosum_refused(tmp_path, capsys):
    out = tmp_path / "ts.matroid"
    code, stdout, err = run(capsys, "gen", "twosum:uniform:5,10+uniform:5,10@e0,f0", str(out))
    assert (code, stdout) == (2, "")
    assert "capped at 16, got 18" in err
    assert not out.exists()


def test_cli_type_hints_resolve():
    # every annotation in cli names something the module imports
    fns = [f for f in vars(cli).values()
           if inspect.isfunction(f) and f.__module__ == cli.__name__]
    assert fns
    for f in fns:
        typing.get_type_hints(f)
