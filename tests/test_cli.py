import hashlib
import inspect
import typing
from pathlib import Path
from random import Random

import pytest

import lockedmatroid as lm
from lockedmatroid import cli, isoengine
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


def test_iso_l0_method(tmp_path, capsys):
    p1 = tmp_path / "a.matroid"
    p2 = tmp_path / "b.matroid"
    lm.save(lm.uniform(2, 5), p1)
    lm.save(lm.uniform(3, 5), p2)
    code, out, _ = run(capsys, "iso", str(p1), str(p2), "--method", "l0")
    assert code == 1 and out.strip() == "not isomorphic"


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


def test_cli_type_hints_resolve():
    # every annotation in cli names something the module imports
    fns = [f for f in vars(cli).values()
           if inspect.isfunction(f) and f.__module__ == cli.__name__]
    assert fns
    for f in fns:
        typing.get_type_hints(f)
