import json
import math
import random

import pytest

from mbsn import cli
from mbsn.cli import (generate_instance, load_instance, load_solution, main,
                      save_instance)
from mbsn.geom import Point2, distance


def _write_instance(path, points):
    save_instance(path, points)
    return str(path)


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--n", "8", "--seed", "42", "--output", str(a)]) == 0
    assert main(["gen", "--n", "8", "--seed", "42", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(load_instance(a)) == 8


def test_gen_clusters_spread(tmp_path):
    path = tmp_path / "c.json"
    assert main(["gen", "--n", "8", "--seed", "42", "--distribution", "clusters",
                 "--output", str(path)]) == 0
    pts = load_instance(path)
    assert len(pts) == 8
    # at least two well-separated spatial groups
    dists = [distance(p, q) for p in pts for q in pts]
    assert max(dists) > 0.3


def test_gen_two_points(tmp_path):
    path = tmp_path / "t.json"
    assert main(["gen", "--n", "2", "--seed", "1", "--output", str(path)]) == 0
    assert len(load_instance(path)) == 2


def test_solve_square_k0(tmp_path):
    inst = _write_instance(tmp_path / "sq.json",
                           [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)])
    out = tmp_path / "sol.json"
    assert main(["solve", "--input", inst, "--k", "0", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 0
    assert doc["bottleneck"] == pytest.approx(1.0)
    assert doc["steiner"] == []


def test_solve_tri_k1_and_roundtrip(tmp_path):
    pts = [Point2(0, 0), Point2(10, 0), Point2(5, 1)]
    inst = _write_instance(tmp_path / "tri.json", pts)
    out = tmp_path / "sol.json"
    svg = tmp_path / "net.svg"
    assert main(["solve", "--input", inst, "--k", "1",
                 "--output", str(out), "--svg", str(svg)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bottleneck"] == pytest.approx(math.sqrt(26), abs=1e-9)
    assert doc["steiner"] == [pytest.approx([5.0, 0.0])]
    # round-trip: recompute the bottleneck from the edge list
    net = load_solution(out, pts)
    assert net.recomputed_bottleneck() == pytest.approx(doc["bottleneck"], abs=1e-12)
    net.validate()
    body = svg.read_text()
    assert "<svg" in body and "circle" in body and "line" in body


def test_solve_dumbbell_k2(tmp_path):
    inst = _write_instance(tmp_path / "db.json",
                           [Point2(0, 0), Point2(0, 1), Point2(10, 0), Point2(10, 1)])
    out = tmp_path / "sol.json"
    assert main(["solve", "--input", inst, "--k", "2", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bottleneck"] == pytest.approx(5.0, abs=1e-6)
    assert len(doc["steiner"]) == 2


def test_solve_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [[0, 0], [0, 0]]}')
    assert main(["solve", "--input", str(bad), "--k", "0"]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text('{"points": [[0, 0]]}')
    assert main(["solve", "--input", str(bad2), "--k", "0"]) == 2
    bools = tmp_path / "bools.json"
    bools.write_text('{"points": [[true, false], [0, 1]]}')
    assert main(["solve", "--input", str(bools), "--k", "0"]) == 2
    with pytest.raises(ValueError):
        load_instance(bools)
    inst = _write_instance(tmp_path / "ok.json", [Point2(0, 0), Point2(1, 0)])
    assert main(["solve", "--input", inst, "--k", "5"]) == 2
    assert main(["verify", "--input", inst, "--k", "5"]) == 2


def test_verify_pass(tmp_path):
    inst = _write_instance(tmp_path / "tri.json",
                           [Point2(0, 0), Point2(10, 0), Point2(5, 1)])
    assert main(["verify", "--input", inst, "--k", "1", "--resolution", "1e-3"]) == 0
    sq = _write_instance(tmp_path / "sq.json",
                         [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)])
    assert main(["verify", "--input", sq, "--k", "0"]) == 0
    db = _write_instance(tmp_path / "db.json",
                         [Point2(0, 0), Point2(0, 1), Point2(10, 0), Point2(10, 1)])
    assert main(["verify", "--input", db, "--k", "2", "--resolution", "1e-2"]) == 0


@pytest.mark.parametrize("scale", [1e-3, 1e6])
def test_verify_pass_at_other_scales(tmp_path, scale):
    # the same instances as test_verify_pass, scaled; the oracle's target
    # error scales with them
    def inst(name, pts):
        return _write_instance(tmp_path / name, [Point2(scale * x, scale * y) for x, y in pts])

    tri = inst("tri.json", [(0, 0), (10, 0), (5, 1)])
    assert main(["verify", "--input", tri, "--k", "0"]) == 0
    assert main(["verify", "--input", tri, "--k", "1", "--resolution", repr(1e-3 * scale)]) == 0
    sq = inst("sq.json", [(0, 0), (1, 0), (1, 1), (0, 1)])
    assert main(["verify", "--input", sq, "--k", "0"]) == 0
    db = inst("db.json", [(0, 0), (0, 1), (10, 0), (10, 1)])
    assert main(["verify", "--input", db, "--k", "2", "--resolution", repr(1e-2 * scale)]) == 0


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_verify_brackets_scale_with_the_instance(tmp_path, monkeypatch, scale):
    # the k = 0 bracket is 1e-12 on the unit square and scales with the
    # instance: an oracle off by half of it passes, by twice it fails
    sq = _write_instance(tmp_path / "sq.json", [Point2(scale * x, scale * y)
                                                for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]])
    exact = cli.oracle_mbsn0
    for factor, code in ((0.5, 0), (2.0, 3)):
        monkeypatch.setattr(cli, "oracle_mbsn0", lambda pts: exact(pts) + factor * 1e-12 * scale)
        assert main(["verify", "--input", sq, "--k", "0"]) == code


def test_bench_csv(tmp_path):
    csv = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "8,16,32", "--repeats", "1", "--k", "0",
                 "--csv", str(csv)]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "n,time_ms,bottleneck"
    assert len(lines) == 4
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == [8, 16, 32]


def test_bench_rejects_unsorted_sizes(tmp_path):
    csv = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "16,8", "--repeats", "1", "--k", "0",
                 "--csv", str(csv)]) == 2


@pytest.mark.parametrize("sizes,k,repeats", [
    ("8", "5", "1"),       # k outside 0..2
    ("8", "-1", "1"),
    ("8.5", "0", "1"),     # non-integer size
    ("8,x", "0", "1"),
    ("1,8", "0", "1"),     # size below 2
    ("0", "0", "1"),
    ("8", "0", "0"),       # no repeat to take a median of
])
def test_bench_rejects_bad_arguments(tmp_path, capsys, sizes, k, repeats):
    csv = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", sizes, "--repeats", repeats, "--k", k,
                 "--csv", str(csv)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not csv.exists()


def test_generate_instance_validation():
    with pytest.raises(ValueError):
        generate_instance(1, 0, "uniform")
    with pytest.raises(ValueError):
        generate_instance(4, 0, "weird")


def _generate_quadratic(n, seed, distribution):
    """The generator's rule written out the slow way: each drawn point is
    compared with every point kept so far."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        if distribution == "uniform":
            cand = Point2(rng.random(), rng.random())
        else:
            group = max(2, math.ceil(n / 4))
            ngroups = math.ceil(n / group)
            i = len(pts) // group % ngroups
            cx = 0.5 + 0.38 * math.cos(2 * math.pi * i / ngroups)
            cy = 0.5 + 0.38 * math.sin(2 * math.pi * i / ngroups)
            cand = Point2(cx + rng.gauss(0.0, 0.035), cy + rng.gauss(0.0, 0.035))
        if all(cand.as_tuple() != p.as_tuple() for p in pts):
            pts.append(cand)
    return pts


@pytest.mark.parametrize("n,seed", [(2, 0), (7, 3), (64, 11), (300, 5)])
@pytest.mark.parametrize("distribution", ["uniform", "clusters"])
def test_generate_instance_matches_quadratic_rule(n, seed, distribution):
    assert generate_instance(n, seed, distribution) == _generate_quadratic(n, seed, distribution)
