"""Replay the query pools of ``bench/golden.json``.

The file holds the benchmark's query pools with a digest of each answer as
an earlier commit computed it, so a change in the nodes, the edges or their
order, a lattice answer, or a command's output fails here as well as in the
benchmark.  The file is only read.
"""

import hashlib
import io
import json
import pathlib
from fractions import Fraction

import pytest

from affposet.cartan import build_affine
from affposet.cli import run
from affposet.poset import basic_cell, export_graph, interval
from affposet.weights import (
    dominance_leq,
    join,
    meet,
    weight_from_json,
    weight_from_labels,
    weight_to_json,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text()
)


def _digest(answer) -> str:
    # the benchmark's digest of a JSON answer or of a command's stdout
    text = answer if isinstance(answer, str) else json.dumps(
        answer, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN["interval"]))
def test_golden_intervals(name):
    pool = GOLDEN["interval"][name]
    d = build_affine(name)
    for labs, expected in pool["entries"]:
        top = weight_from_labels(d, labs)
        bottom = weight_from_labels(d, labs, -pool["k"])
        assert _digest(export_graph(interval(top, bottom))) == expected, labs


@pytest.mark.parametrize("name", sorted(GOLDEN["cell"]))
def test_golden_cells(name):
    d = build_affine(name)
    for labs, mu, mu2, expected, shape, case in GOLDEN["cell"][name]:
        cell = basic_cell(
            weight_from_labels(d, labs),
            weight_from_labels(d, mu[0], Fraction(mu[1])),
            weight_from_labels(d, mu2[0], Fraction(mu2[1])),
        )
        assert _digest(export_graph(cell.graph)) == expected, (labs, mu, mu2)
        # no shape is recorded where the recording commit refused the cell
        if shape is not None:
            assert (cell.shape.value, cell.case) == (shape, case), (labs, mu, mu2)


@pytest.mark.parametrize("name", sorted(GOLDEN["lattice"]))
def test_golden_lattice(name):
    # the seven answers the benchmark's lattice query digests
    d = build_affine(name)
    for la, sa, lb, sb, expected in GOLDEN["lattice"][name]:
        a = weight_from_labels(d, la, Fraction(sa))
        b = weight_from_labels(d, lb, Fraction(sb))
        low, high = meet(a, b), join(a, b)
        answer = {
            "meet": weight_to_json(low),
            "join": weight_to_json(high),
            "a<=b": dominance_leq(a, b),
            "b<=a": dominance_leq(b, a),
            "meet<=b": dominance_leq(low, b),
            "a<=join": dominance_leq(a, high),
            "round_trip": weight_from_json(weight_to_json(high)) == high,
        }
        assert _digest(answer) == expected, (la, sa, lb, sb)


def test_golden_commands():
    # the one-process queries, run in this process
    pools = GOLDEN["cold"]
    entries = pools["ladder"] + pools["other"]
    for pool in pools["cocovers"].values():
        entries += pool
    assert len(entries) == 67
    for _, argv, expected in entries:
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, stdout=out, stderr=err) == 0, (argv, err.getvalue())
        assert _digest(out.getvalue()) == expected, argv
