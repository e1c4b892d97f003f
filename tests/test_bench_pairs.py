"""tools/bench_pairs.py: seed ranges and the report on synthetic pairs."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BOUNDS = {"solve_s": (0.25, "lower"), "rate": (0.1, "higher")}


def record(pair, side, solve_s, rate=1.0, workload="w", attempted=10, failed=0):
    return {"workload": workload, "seed": pair, "pair": pair, "side": side,
            "result": {"attempted": attempted, "failed": failed,
                       "metrics": {"solve_s": {"value": solve_s, "unit": "s"},
                                   "rate": {"value": rate, "unit": "1/s"}}}}


def records(parent, change, **kwargs):
    out = []
    for pair, (b, n) in enumerate(zip(parent, change), 1):
        out += [record(pair, "parent", b, **kwargs), record(pair, "change", n, **kwargs)]
    return out


def line(lines, name):
    (found,) = [text for text in lines if text.startswith(f"w {name}:")]
    return found


def test_seeds():
    assert bench_pairs.seeds("7") == [7]
    assert bench_pairs.seeds("30-33") == [30, 31, 32, 33]
    assert bench_pairs.seeds("5-5") == [5]


@pytest.mark.parametrize("text", ["39-30", "", "-", "3-x"])
def test_seeds_without_a_seed_are_refused(text, tmp_path, monkeypatch, capsys):
    # A reversed or empty range is an argparse error: exit 2 before any run,
    # with the out file left unmade.
    out = tmp_path / "runs.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", str(tmp_path),
                                      "--workload", "w", "--seeds", text, "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_load_bounds_reads_the_benchmark():
    bounds = bench_pairs.load_bounds()
    assert bounds["solve_s"] == (0.25, "lower")
    assert bounds["peak_rss_mb"] == (0.1, "lower")


def test_pairs_missing_a_side_are_left_out():
    # Pair 3 has no change run and another workload's pairs are ignored:
    # one complete pair is too few to report.
    recs = records([1.0], [0.9]) + [record(3, "parent", 5.0)]
    recs += records([1.0, 1.0], [9.0, 9.0], workload="other")
    assert bench_pairs.report(recs, "w", BOUNDS) == []
    recs += [record(2, "parent", 1.1), record(2, "change", 1.0)]
    assert "/2," in line(bench_pairs.report(recs, "w", BOUNDS), "solve_s")


def test_wins_ties_and_a_gap_beyond_the_iqr():
    recs = records([1.0, 1.01, 0.99, 1.0, 1.02], [0.5, 0.51, 0.49, 1.0, 0.5],
                   rate=2.0)
    lines = bench_pairs.report(recs, "w", BOUNDS)
    solve = line(lines, "solve_s")
    assert "change lower in 4/5, tied in 1" in solve
    assert "exceeds the parent's IQR" in solve
    assert solve.endswith("within the 0.25 bound (-50.0%)")
    assert "change higher in 0/5, tied in 5" in line(lines, "rate")


@pytest.mark.parametrize("parent, change, verdict", [
    # 30% slower on a tight parent: worse beyond the bound.
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "worse beyond the 0.25 bound (+30.0%)"),
    # 10% slower: within.
    ([1.0, 1.01, 0.99, 1.0], [1.1, 1.11, 1.09, 1.1], "within the 0.25 bound (+10.0%)"),
    # A parent spread wider than the bound, and one change run slower than
    # a parent run: unresolved.
    ([0.5, 1.0, 1.5, 2.0], [0.4, 0.9, 1.4, 1.9],
     "unresolved: the parent's spread exceeds the 0.25 bound"),
    # The same spread, but every change run beats every parent run.
    ([0.5, 1.0, 1.5, 2.0], [0.1, 0.2, 0.3, 0.4], "within the 0.25 bound (-80.0%)"),
])
def test_verdict_against_the_bound(parent, change, verdict):
    lines = bench_pairs.report(records(parent, change), "w", BOUNDS)
    assert line(lines, "solve_s").endswith(verdict)


def test_higher_is_better():
    recs = records([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    recs[1]["result"]["metrics"]["rate"]["value"] = 0.8
    assert line(bench_pairs.report(recs, "w", BOUNDS),
                "rate").endswith("within the 0.1 bound (+0.0%)")
    for rec in recs[1::2]:
        rec["result"]["metrics"]["rate"]["value"] = 0.8
    assert line(bench_pairs.report(recs, "w", BOUNDS),
                "rate").endswith("worse beyond the 0.1 bound (+20.0%)")


def test_operation_totals_and_a_larger_failed_share():
    # Three pairs, the parent failing 1 of 10 operations in each.  A change
    # failing 2 of 10 in one pair fails a larger share; one failing 2 of 20
    # in every pair fails the same share.
    recs = [record(pair, "parent", 1.0, failed=1) for pair in (1, 2, 3)]
    more = recs + [record(1, "change", 1.0, failed=2)]
    more += [record(pair, "change", 1.0, failed=1) for pair in (2, 3)]
    assert line(bench_pairs.report(more, "w", BOUNDS), "operations") == (
        "w operations: parent attempted 30, failed 3; change attempted 30, failed 4;"
        " the change fails a larger share")
    same = recs + [record(pair, "change", 1.0, attempted=20, failed=2) for pair in (1, 2, 3)]
    assert line(bench_pairs.report(same, "w", BOUNDS), "operations") == (
        "w operations: parent attempted 30, failed 3; change attempted 60, failed 6;"
        " no larger failed share")


def test_records_name_each_sides_commit(tmp_path, monkeypatch):
    # The parent is a one-commit repository with an untracked file, clean
    # for the first pair and with a tracked file edited for the second; this
    # checkout's records carry its own HEAD.
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=parent, check=True, capture_output=True,
                              text=True).stdout.strip()

    parent = tmp_path / "parent"
    parent.mkdir()
    (parent / "code.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "code.py")
    git("commit", "-q", "-m", "one")
    (parent / "untracked.txt").write_text("")
    sha = git("rev-parse", "HEAD")
    assert bench_pairs.revision(str(parent)) == {"commit": sha, "dirty": False}

    def fake_run(checkout, workload, seed, seconds):
        # Every parent run edits the tracked file, so the parent is clean
        # only when pair 1 reads its revision.
        if checkout == str(parent):
            (parent / "code.py").write_text(f"x = {seed + 1}\n")
        return {"attempted": 1, "failed": 0, "metrics": {}}

    out = tmp_path / "runs.json"
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", str(parent),
                                      "--workload", "w", "--seeds", "1-2", "--out", str(out)])
    bench_pairs.main()
    recs = json.loads(out.read_text())
    assert [(r["pair"], r["side"]) for r in recs] == [
        (1, "change"), (1, "parent"), (2, "parent"), (2, "change")]
    for rec in recs:
        want = bench_pairs.revision(bench_pairs.ROOT)["commit"] if rec["side"] == "change" else sha
        assert rec["commit"] == want
    assert [r["dirty"] for r in recs if r["side"] == "parent"] == [False, True]


def test_uncommitted_trees_read_apart(tmp_path):
    # Two different edits of a tracked file on one commit give two digests,
    # one edit gives the same digest each time, and a clean tree has none.
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=tmp_path, check=True, capture_output=True, text=True)

    (tmp_path / "code.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "code.py")
    git("commit", "-q", "-m", "one")
    sha = git("rev-parse", "HEAD").stdout.strip()
    clean = bench_pairs.revision(str(tmp_path))
    assert clean == {"commit": sha, "dirty": False}
    digests = []
    for text in ("x = 2\n", "x = 3\n", "x = 2\n"):
        (tmp_path / "code.py").write_text(text)
        rev = bench_pairs.revision(str(tmp_path))
        assert rev["commit"] == sha and rev["dirty"]
        digests.append(rev["diff_sha256"])
    assert digests[0] != digests[1] and digests[0] == digests[2]
    (tmp_path / "code.py").write_text("x = 1\n")
    assert bench_pairs.revision(str(tmp_path)) == clean
