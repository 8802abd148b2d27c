import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import affposet
import affposet.poset as poset
from affposet.cli import run


def cap(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_types_lists_the_catalog():
    code, out, err = cap(["types"])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "A1-1", "A2-1", "A3-1", "A4-1", "B3-1", "C2-1", "C3-1", "D4-1",
        "F4-1", "G2-1", "A2-2", "A4-2", "A5-2", "D3-2", "D4-2", "E6-2",
        "D4-3",
    ]


def test_info_payload():
    code, out, err = cap(["info", "G2-1"])
    assert code == 0
    assert json.loads(out) == {
        "type": "G2-1",
        "vertices": 3,
        "cartan": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
        "marks": [1, 2, 3],
        "comarks": [1, 2, 1],
        "root_length_sq": ["2/1", "2/1", "2/3"],
        "special_vertices": [],
    }
    code, out, err = cap(["info", "A2-1"])
    assert json.loads(out)["special_vertices"] == [0, 1, 2]


def test_cocovers_json():
    code, out, err = cap(["cocovers", "A3-1", "--labels", "0,2,1,1"])
    assert code == 0
    data = json.loads(out)
    assert [(e["case"], e["kind"], e["root"], e["lower"]["labels"]) for e in data] == [
        ("a", "simple", [0, 1, 0, 0], [1, 0, 2, 1]),
        ("b", "short", [0, 0, 1, 1], [1, 3, 0, 0]),
    ]
    assert all(e["upper"]["labels"] == [0, 2, 1, 1] for e in data)


def test_cocovers_with_shift():
    code, out, err = cap(["cocovers", "A2-2", "--labels", "0,1", "--shift=-1/2"])
    assert code == 0
    data = json.loads(out)
    assert [(e["case"], e["lower"]["labels"], e["lower"]["delta_shift"])
            for e in data] == [("j", [2, 0], "-1/1")]


def test_covers_json():
    code, out, err = cap(["covers", "A2-2", "--labels", "2,0"])
    assert code == 0
    data = json.loads(out)
    assert [(e["case"], e["kind"], e["upper"]["labels"], e["upper"]["delta_shift"])
            for e in data] == [("j", "exceptional", [0, 1], "1/2")]


def test_interval_dot_frozen():
    code, out, err = cap([
        "interval", "A3-1", "--top", "0,2,1,1", "--bottom", "2,1,1,0",
        "--format", "dot",
    ])
    assert code == 0
    assert out == "\n".join([
        "digraph poset {",
        "  rankdir=TB;",
        '  "0,2,1,1|0/1";',
        '  "1,0,2,1|0/1";',
        '  "1,1,0,2|0/1";',
        '  "1,3,0,0|0/1";',
        '  "2,1,1,0|0/1";',
        '  "0,2,1,1|0/1" -> "1,0,2,1|0/1" [label="a", kind="simple"];',
        '  "0,2,1,1|0/1" -> "1,3,0,0|0/1" [label="b", kind="short"];',
        '  "1,0,2,1|0/1" -> "1,1,0,2|0/1" [label="a", kind="simple"];',
        '  "1,1,0,2|0/1" -> "2,1,1,0|0/1" [label="a", kind="simple"];',
        '  "1,3,0,0|0/1" -> "2,1,1,0|0/1" [label="a", kind="simple"];',
        "}",
    ]) + "\n"


def test_interval_json_matches_dot_nodes():
    code, out, err = cap([
        "interval", "A3-1", "--top", "0,2,1,1", "--bottom", "2,1,1,0",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "A3-1"
    assert len(data["nodes"]) == 5 and len(data["edges"]) == 5


def test_cell_json_and_dot():
    argv = ["cell", "A4-1", "--labels", "1,1,1,1,0",
            "--mu", "0,0,2,1,1", "--mu2", "1,2,0,0,1"]
    code, out, err = cap(argv)
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == "double_pentagon" and data["case"] == "3"
    assert len(data["graph"]["nodes"]) == 7 and len(data["graph"]["edges"]) == 9
    code, out, err = cap(argv + ["--format", "dot"])
    assert code == 0
    assert out.splitlines()[0] == "// shape=double_pentagon case=3"
    assert out.splitlines()[1] == "digraph poset {"


def test_cell_mismatch_is_a_domain_error(monkeypatch):
    argv = ["cell", "A2-1", "--labels", "1,1,1", "--mu", "3,0,0", "--mu2", "0,3,0"]
    code, out, err = cap(argv)
    assert code == 0
    assert '"shape": "delta_interval"' in out
    # a prediction that disagrees with the interval is a domain error
    predict = poset._predict

    def drop_top(top, ka, kb):
        nodes, pairs, shape, case = predict(top, ka, kb)
        return nodes - {(0,) * len(top.labels)}, pairs, shape, case

    monkeypatch.setattr(poset, "_predict", drop_top)
    code, out, err = cap(argv)
    assert code == 2
    assert "error:" in err and "interval has" in err


def test_cell_rejects_non_cocover():
    code, out, err = cap(["cell", "A2-1", "--labels", "0,2,2",
                          "--mu", "1,0,3", "--mu2", "2,2,0"])
    assert code == 2
    assert "available" in err


def test_cell_refuses_another_type_before_it_reads_a_cocover(monkeypatch):
    import affposet.covering as covering

    def no_table(diagram):
        raise AssertionError(f"built the cocover table of {diagram}")

    monkeypatch.setattr(covering, "_cocover_table", no_table)
    # an empty memo, so that no cocover read is answered without the table
    covering._cocover_steps.cache_clear()
    code, out, err = cap(["cell", "B3-1", "--labels", "1,1,1,1",
                          "--mu", "0,0,0,0", "--mu2", "0,0,0,0"])
    assert (code, out) == (2, "")
    assert "classified for A(n,1) only" in err


def test_cell_reads_its_cocovers_without_listing_the_top_s_edges(monkeypatch):
    import affposet.covering as covering

    argv = ["cell", "A4-1", "--labels", "1,1,1,1,2", "--mu", "2,0,0,2,2",
            "--mu2", "2,1,1,2,0"]

    def listed(weight):
        raise AssertionError(f"listed the cocover edges of {weight}")

    monkeypatch.setattr(covering, "cocovers", listed)
    code, out, err = cap(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f7fb145c06fb84513ede94717937126c2d189caf923fbdd57093931e4a485b7a"
    )


def test_cell_finds_the_cocovers_of_each_label_tuple_once(monkeypatch):
    # from an empty memo, the command and the cell it asks for find the
    # cocovers of each label tuple the walk visits once, the top's too,
    # though both look its finite steps up
    import affposet.covering as covering

    argv = ["cell", "A4-1", "--labels", "1,1,1,1,2", "--mu", "2,0,0,2,2",
            "--mu2", "2,1,1,2,0"]
    real, found = covering._cocover_cases, []

    def counted(diagram, labs):
        found.append(labs)
        return real(diagram, labs)

    monkeypatch.setattr(covering, "_cocover_cases", counted)
    covering._cocover_steps.cache_clear()
    try:
        code, out, err = cap(argv)
    finally:
        covering._cocover_steps.cache_clear()
    assert (code, err) == (0, "")
    visited = {tuple(node["labels"]) for node in json.loads(out)["graph"]["nodes"]}
    assert len(found) == len(set(found)) == len(visited) > 1
    assert set(found) == visited and found[0] == (1, 1, 1, 1, 2)


def test_cell_command_refuses_exactly_where_basic_cell_raises():
    # every ordered pair, repeats too, of the finite cocovers of a seeded
    # pool of tops and of labels naming none: the top's own, which only its
    # delta drop has, and tuples of the top's level that no move reaches.
    # Two fixed tops hold a double pentagon and delta intervals.
    from affposet.cartan import build_affine, format_shift
    from affposet.covering import CoverKind, cocovers
    from affposet.weights import weight_from_labels

    rng = random.Random(51)
    tops = [("A3-1", [1, 1, 1, 1], 0), ("A4-1", [0, 1, 1, 1, 1], Fraction(1, 2))]
    for name, rank in (("A3-1", 3), ("A4-1", 4), ("A5-1", 5)):
        for _ in range(6):
            labs = [rng.choice((0, 0, 1, 2)) for _ in range(rank + 1)]
            labs[rng.randrange(rank + 1)] += 1
            tops.append((name, labs, Fraction(rng.randrange(-2, 3), rng.randrange(1, 3))))
    refused, shapes = 0, set()
    for name, labs, shift in tops:
        d = build_affine(name)
        lam = weight_from_labels(d, labs, shift)
        edges = cocovers(lam)
        lowers = [e.lower for e in edges if e.kind is not CoverKind.DELTA]
        level = sum(labs)
        misses = [weight_from_labels(d, labs, shift - 1)]
        misses += [
            weight_from_labels(d, other, shift)
            for other in ([level] + [0] * d.n, [0] * d.n + [level])
            if tuple(other) not in {e.lower.labels for e in edges}
        ]
        for mu, mu2 in itertools.product(lowers + misses, repeat=2):
            code, out, err = cap([
                "cell", name, "--labels", ",".join(map(str, labs)),
                f"--shift={format_shift(lam.shift)}",
                "--mu", ",".join(map(str, mu.labels)),
                "--mu2", ",".join(map(str, mu2.labels)),
            ])
            try:
                cell = poset.basic_cell(lam, mu, mu2)
            except ValueError:
                assert (code, out) == (2, ""), (lam, mu, mu2)
                assert err.startswith("error: ")
                refused += 1
                continue
            payload = {
                "shape": cell.shape.value,
                "case": cell.case,
                "graph": poset.export_graph(cell.graph, "json"),
            }
            assert (code, err) == (0, ""), (lam, mu, mu2)
            assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
            shapes.add(cell.shape)
    assert shapes == set(poset.CellShape) and refused > 50


def test_verify_clean_run():
    code, out, err = cap(["verify", "A2-1", "--levels", "1,2",
                          "--samples", "40", "--seed", "7"])
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "type": "A2-1",
        "levels": [1, 2],
        "tested": 99,
        "mismatches": [],
        "boundary_flags": 0,
    }


def test_verify_rejects_bad_levels_and_samples():
    for argv, name in (
        (["verify", "A2-1", "--samples", "-3"], "samples_per_level"),
        (["verify", "A2-1", "--levels", "-1"], "levels"),
        (["verify", "--all-types", "--levels", "1,0", "--samples", "5"], "levels"),
        # a level seeds its own generator: a repeat would count its samples twice
        (["verify", "A2-1", "--levels", "2,2"], "level 2 is given twice"),
    ):
        code, out, err = cap(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and name in err, argv


def test_verify_refuses_more_draws_than_it_may_make(monkeypatch):
    import affposet.oracle as oracle

    def drawn(*args):
        raise AssertionError("a sample was drawn before the count was checked")

    monkeypatch.setattr(oracle, "_sample_labels", drawn)
    for argv in (
        ["verify", "A1-1", "--levels", "1000000000", "--samples", "1"],
        ["verify", "A1-1", "--samples", "100000000"],
        ["verify", "--all-types", "--levels", "1,2,3", "--samples", "20000"],
    ):
        code, out, err = cap(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "at most 100000" in err, argv


def test_verify_rejects_a_bad_budget():
    for budget in ("-1", "-0.5", "nan", "1_0", "+5", "\u0661"):
        code, out, err = cap(["verify", "A1-1", "--budget", budget])
        assert (code, out) == (2, ""), budget
        assert err.startswith("error:") and "budget" in err, budget


def test_verify_budget_warning(monkeypatch):
    # a clock that advances 10 us per reading, once per weight, stops the
    # sweep at the same weight, the 399th, on any host
    clock = types.SimpleNamespace(monotonic=itertools.count(0, 1e-5).__next__)
    monkeypatch.setattr("affposet.oracle.time", clock)
    code, out, err = cap(["verify", "F4-1", "--budget", "0.004"])
    assert code == 0
    assert "budget exhausted" in err
    assert json.loads(out)["mismatches"] == []


def test_exit_codes():
    code, out, err = cap(["cocovers", "Z9-1", "--labels", "1"])
    assert code == 2 and err.startswith("error:")
    code, out, err = cap(["info", "A3-1\n"])
    assert (code, out) == (2, "") and "malformed type id" in err
    code, out, err = cap(["cocovers", "A2-1", "--labels", "1,1"])
    assert code == 2 and "3 vertices" in err
    code, out, err = cap([])
    assert code == 1 and err.startswith("usage error:")
    code, out, err = cap(["verify"])
    assert code == 1 and err == "usage error: give a type or --all-types\n"
    code, out, err = cap(["verify", "A2-1", "--all-types"])
    assert (code, out) == (1, "") and err == "usage error: give a type or --all-types, not both\n"
    code, out, err = cap(["--help"])
    assert code == 0
    code, out, err = cap(["interval", "A2-1", "--top", "1,3,0",
                          "--top-shift=-1/1", "--bottom", "1,0,3"])
    assert code == 2 and "error:" in err


def test_info_refuses_a_rank_past_the_ceiling(monkeypatch):
    import affposet.cartan as cartan

    def no_tables(tid):
        raise AssertionError(f"built the tables of {tid}")

    monkeypatch.setattr(cartan, "_tables", no_tables)
    for rank in (10**6 + 1, 10**8):
        code, out, err = cap(["info", f"A{rank}-1"])
        assert (code, out) == (2, "")
        assert err == f"error: rank {rank} is past the largest rank, 1000000\n"


def test_info_refuses_dense_rows_past_their_rank(monkeypatch):
    # info prints (n + 1)^2 Cartan entries: 81 MB on A3000-1, and A10**6-1
    # ended in a MemoryError traceback
    import affposet.cartan as cartan
    import affposet.cli as cli

    def no_tables(tid):
        raise AssertionError(f"built the tables of {tid}")

    def built(tid):
        raise AssertionError(f"built {tid}")

    monkeypatch.setattr(cartan, "_tables", no_tables)
    for name, vertices in (
        ("A3001-1", 3002), ("C3001-1", 3002), ("A1000000-1", 1000001), ("A6001-2", 3002)
    ):
        code, out, err = cap(["info", name])
        assert (code, out) == (2, "")
        assert err == (
            f"error: {name} has {vertices} vertices, more than the 3001 "
            "whose Cartan rows info prints\n"
        )
    monkeypatch.setattr(cli, "build_affine", built)
    # 3001, 1502 and 3001 vertices
    for name in ("A3000-1", "A3001-2", "D3001-2"):
        with pytest.raises(AssertionError, match=f"built {name}"):
            cap(["info", name])


def test_verify_counts_its_census_before_it_builds_the_diagram(monkeypatch):
    # A100000-1 took 2.03 s and 177 MB to build before its census was refused
    import affposet.cartan as cartan

    def no_tables(tid):
        raise AssertionError(f"built the tables of {tid}")

    monkeypatch.setattr(cartan, "_tables", no_tables)
    code, out, err = cap(["verify", "A100000-1"])
    assert (code, out) == (2, "")
    assert err == (
        "error: A100000-1 has 166681667100003 census weights, "
        "more than the 50000 a sweep checks with no budget\n"
    )


def test_a_budgeted_verify_refuses_more_vertices_before_the_build(monkeypatch):
    import affposet.cartan as cartan

    def no_tables(tid):
        raise AssertionError(f"built the tables of {tid}")

    monkeypatch.setattr(cartan, "_tables", no_tables)
    code, out, err = cap(["verify", "A600-1", "--budget", "1"])
    assert (code, out) == (2, "")
    assert err == "error: A600-1 has 601 vertices, more than the 512 a search takes\n"


def test_verify_refuses_a_census_past_its_bound_with_no_budget(monkeypatch):
    def censused(diagram):
        raise AssertionError(f"the census of {diagram} ran")

    monkeypatch.setattr("affposet.oracle._census_labels", censused)
    code, out, err = cap(["verify", "A64-1"])
    assert (code, out) == (2, "")
    assert err == (
        "error: A64-1 has 50115 census weights, "
        "more than the 50000 a sweep checks with no budget\n"
    )


def test_interval_of_one_weight_checks_it():
    for labs in ("-1,0,0", "0,0,0"):
        code, out, err = cap(["interval", "A2-1", f"--top={labs}", f"--bottom={labs}"])
        assert (code, out) == (2, ""), labs
        assert err.startswith("error:"), labs


def test_integers_are_parsed_strictly():
    # int() reads each of these as an integer: underscores, a plus sign,
    # and digits of other scripts (here the Arabic-Indic one)
    for bad in ("1_0", "+1", "\u0661"):
        for argv, message in (
            (["cocovers", "A2-1", "--labels", f"{bad},0,0"], "comma separated integers"),
            (["covers", "A2-1", "--labels", "1,0,0", f"--shift={bad}/3"], "malformed shift"),
            (["interval", "A2-1", "--top", f"1,0,{bad}", "--bottom", "1,0,0"],
             "comma separated integers"),
            (["interval", "A2-1", "--top", "1,0,0", "--bottom", f"0,{bad},0"],
             "comma separated integers"),
            (["interval", "A2-1", "--top", "1,0,0", f"--top-shift=1/{bad}",
              "--bottom", "1,0,0"], "malformed shift"),
            (["interval", "A2-1", "--top", "1,0,0", "--bottom", "1,0,0",
              f"--bottom-shift={bad}/1"], "malformed shift"),
            (["cell", "A4-1", "--labels", "1,1,1,1,0", "--mu", f"0,0,2,1,{bad}",
              "--mu2", "1,2,0,0,1"], "comma separated integers"),
            (["cell", "A4-1", "--labels", "1,1,1,1,0", "--mu", "0,0,2,1,1",
              "--mu2", f"{bad},2,0,0,1"], "comma separated integers"),
            (["verify", "A2-1", "--levels", bad, "--samples", "0"], "invalid literal"),
            (["verify", "A2-1", "--window", f"2,2,{bad}", "--samples", "0"],
             "invalid literal"),
            (["verify", "A2-1", "--samples", bad], "invalid literal"),
            (["verify", "A2-1", "--seed", bad, "--samples", "0"], "invalid literal"),
        ):
            code, out, err = cap(argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:") and message in err, argv


def test_verify_window_flag():
    code, out, err = cap(["verify", "A2-1", "--window", "1,1,1", "--levels", "1",
                          "--samples", "0"])
    report = json.loads(out)
    assert code == 3 and report["boundary_flags"] > 0
    assert "boundary" in {m["check"] for m in report["mismatches"]}
    for window, message in (
        ("2,2", "window rank does not match the diagram"),
        ("0,2,2", "window bounds must be positive"),
    ):
        code, out, err = cap(["verify", "A2-1", "--window", window])
        assert (code, out) == (2, "") and message in err, window


def test_verify_e8():
    code, out, err = cap(["verify", "E8-1", "--levels", "1,2", "--samples", "20"])
    report = json.loads(out)
    assert (code, err) == (0, "")
    assert report["mismatches"] == [] and report["boundary_flags"] == 0


# sha256 of stdout for the acceptance suite's CLI commands and one covers
# query, recorded at commit f76dc87, while weights still stored root
# coefficients; the bytes must never change
FROZEN_STDOUT_SHA256 = {
    ("types",):
        "0982d5570a53fe2f30d41b629283471928a4cada3a6bf913ebec534dbd7cf097",
    ("info", "G2-1"):
        "40ed872fce8a7d524a662bb6844620ead118fab6af967023619bac729d394a48",
    ("cocovers", "A3-1", "--labels", "0,2,1,1"):
        "ef12f0170243d1f53d67797e693a15bd2d457197730979ccb1ff29e54515f43b",
    ("interval", "A3-1", "--top", "0,2,1,1", "--bottom", "2,1,1,0",
     "--format", "dot"):
        "66d2df3bb0487edc7e7d24d91bf1d053652c68488d25fb6d8f57d2b529fc45d9",
    ("cell", "A4-1", "--labels", "1,1,1,1,0", "--mu", "0,0,2,1,1",
     "--mu2", "1,2,0,0,1", "--format", "json"):
        "0d5db632c045cb5c5b14a7b6a4b3ce1475af9b2b5f51d1d1236b8fe0c77fcdce",
    ("verify", "A2-1", "--levels", "1,2", "--samples", "40", "--seed", "7"):
        "69b0f8a5c8d1a4631bc92ddd8afae8dc1d3b655e4d640ebec6f275bec419c049",
    ("covers", "A3-1", "--labels", "0,2,1,1"):
        "c82bc44b575f2ff11dac4035c05c83a4c1348cd33dfda13074547eddf5b3469c",
    # recorded at commit abbf64d, before covers were indexed by their needs:
    # the exceptional cases d, e and j, delta edges going down and up, a
    # large rank, and an interval down a full delta with cases a, b and c
    ("cocovers", "G2-1", "--labels", "1,1,1"):
        "5bb530d77768db3eb41969ff4ed91b1769c2a9bcc61caeb772bf6c9288a3c91a",
    ("cocovers", "G2-1", "--labels", "1,0,1"):
        "deaaffec049100e38a109ff305af854857dc39727418b0574e59be9379f3f7ad",
    ("cocovers", "A2-2", "--labels", "1,1"):
        "e6a5e11ecac850ccfb9968098de281a2f247264034b6db57ca8c5261451e1a0f",
    ("cocovers", "D4-3", "--labels", "1,0,0", "--shift=1/3"):
        "9cca1fec87f9608bb20a6cf31db8532201ed076c4df773bc33cab846c549bc95",
    ("covers", "B3-1", "--labels", "0,0,0,1"):
        "1f4928c8838cc689925dc2e60d448deb0443094c85d1d2ac715883879cc1ac2c",
    ("covers", "E8-1", "--labels", "0,1,0,0,0,0,0,0,1"):
        "132de724f3bd999a8ff164bba45af807ea9065f984c6d9ed976d61a81fdd3591",
    ("cocovers", "A20-1", "--labels",
     "1,0,1,0,0,2,0,0,0,1,0,0,0,0,0,0,0,1,0,0,0"):
        "88b58296c886477e52934ba93f7bf253b6a4ca2818ba5e2028da5413fb6e859f",
    ("interval", "C3-1", "--top", "1,1,1,1", "--bottom", "1,1,1,1",
     "--bottom-shift=-1/1", "--format", "json"):
        "25422ed872a2efcdb337798ec93cedfc6f6f98653079ee99b35daab4c99fb60d",
    # recorded at commit e34b90e, while each diagram stored its dense Cartan
    # rows: info on the rest of the catalog, A40-1 and E8-1
    ("info", "A1-1"):
        "83f5e3d8054e177feb59535f07239c4282f3d8adfdf6f2495b82f193c47cc965",
    ("info", "A2-1"):
        "5b65ed172f61893131175033ae6d5f7252ac022da859fc470944036018a14f26",
    ("info", "A3-1"):
        "740d27f732452e2ea9a5f1f0a7d2c7f8baff5ac9910fa3310458b4c4687fde26",
    ("info", "A4-1"):
        "36746b32aa8e6daf00324d2e2a875726fcd32c315daecfebe7cc908d89218ff6",
    ("info", "B3-1"):
        "5919ae1ca4bb0167bb1058a429d4966efc082530964d85c1bb76b6bad448be82",
    ("info", "C2-1"):
        "5d161b71da8bfeec386d72937ab5bbeecb742c6052a6ebf15ea082d2de1174e9",
    ("info", "C3-1"):
        "d630b555894c49565a8df149cf595fea95996f8019b116025e9b7960abdc43d5",
    ("info", "D4-1"):
        "18eeb54c03fcac169bb3694dad9c786588bd0b332141964593856afb030cab74",
    ("info", "F4-1"):
        "7779e6d069fa66d321a8fe3debf8dfcf3855532169a611d2b59c73445da298a4",
    ("info", "A2-2"):
        "f949f7f91b2c01591db7e47f466c1dc6403585bb29ac731d4c8fe665c85996c1",
    ("info", "A4-2"):
        "f044d4ca2188f2f2c64e71f5af4bc525f6cfb0e010b180dbdd6fe2faed8d6d76",
    ("info", "A5-2"):
        "d572d98983a7e6a4422d389eed8426d34785f399e234eab6e767ff62803b634f",
    ("info", "D3-2"):
        "ddbffc62774be7284d0d64d5b85ca31f7eb20c073273e64e55ce86f87eab92b4",
    ("info", "D4-2"):
        "dc559dd90f8c5c4609512a7032a517e12b22790d23185f6d8220c17766bb7bf5",
    ("info", "E6-2"):
        "0a3e31dfab6eb753403bd3c0255737a77eaa4a2a8ca8b4769f97bc4b4dd08ab7",
    ("info", "D4-3"):
        "5bb5d8c8cd8e4b175122728524d3338df9424ca00371dcf22f24d71781dd7fb6",
    ("info", "A40-1"):
        "2bae4fc4c2c56efa14bc82d8776aaaaa63403b84918685d0acc2dd881a28e0b8",
    ("info", "E8-1"):
        "27143055b6bf098e6d33e2a7c763d28d35c0a9030aafaf728d8eab0553e68c6c",
    # recorded at commit b707b9e: the whole catalog sweep, a sampled E7-1
    # sweep and the default E8-1 sweep
    ("verify", "--all-types"):
        "43dab436a1ae1ea89acd7d145cc8658bf5130eab956726045e1485e1853c50bb",
    ("verify", "E7-1", "--levels", "1,2", "--samples", "20"):
        "2246fe6f75c1bb304b4314206a5ab7fc2968888e51aecec0a29fefb94988c2e1",
    ("verify", "E8-1", "--levels", "1,2"):
        "5306095a5a646810951a0d13a159e2d4c7203e1261f791bba312fc5cd3530970",
    # recorded at commit c9d438e, while a walk-built graph still built its
    # weights and edges at once: a cell as DOT, and a G2-1 delta interval
    # as JSON whose exceptional edges come from the d and e rules
    ("cell", "A4-1", "--labels", "1,1,1,1,0", "--mu", "0,0,2,1,1",
     "--mu2", "1,2,0,0,1", "--format", "dot"):
        "11bc6f57f09232ee22799113f1df4934bffe44eaef6ed41e4dbb5dfe7a17d085",
    ("interval", "G2-1", "--top", "1,1,1", "--bottom", "1,1,1",
     "--bottom-shift=-1/1", "--format", "json"):
        "2c730f10b25f878c1818b637971271fa1aaffe181a79544cc4529434fd1bda6d",
}


def test_stdout_digests_frozen():
    for argv, expected in FROZEN_STDOUT_SHA256.items():
        code, out, err = cap(list(argv))
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == expected, argv


def test_verify_digest_survives_optimized_mode():
    # the search and the sweep's checks lean on no assert and no __debug__
    argv = ("verify", "E7-1", "--levels", "1,2", "--samples", "20")
    src = str(pathlib.Path(affposet.__file__).parents[1])
    paths = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "affposet", *argv],
        capture_output=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == FROZEN_STDOUT_SHA256[argv]


def test_a_closed_stdout_exits_as_sigpipe_without_a_traceback():
    # info A300-1 prints about a megabyte, far past a pipe's buffer, so the
    # write after the reader leaves fails
    src = str(pathlib.Path(affposet.__file__).parents[1])
    paths = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.Popen(
        [sys.executable, "-m", "affposet", "info", "A300-1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert head == b'{\n  "carta'
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "Exception ignored" not in err


def test_repeated_invocations_are_identical():
    for argv in (
        ["info", "F4-1"],
        ["cocovers", "A4-1", "--labels", "1,1,1,1,0"],
        ["interval", "A3-1", "--top", "0,2,1,1", "--bottom", "2,1,1,0",
         "--format", "dot"],
        ["verify", "G2-1", "--levels", "1", "--samples", "25", "--seed", "3"],
    ):
        first = cap(argv)
        second = cap(argv)
        assert first == second
        assert first[0] == 0


def test_readme_cli_sample_is_the_commands_output():
    # the README shows the output condensed, so it is compared as JSON
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```\n$ affposet ", 1)[1].split("```", 1)[0]
    command, shown = block.split("\n", 1)
    code, out, err = cap(command.split())
    assert (code, err) == (0, "")
    assert json.loads(out) == json.loads(shown)
