"""Replay the interval and cell pools of ``bench/golden.json``.

The file holds the benchmark's query pools with a digest of each answer as
an earlier commit computed it, so a change in the nodes, the edges or their
order fails here as well as in the benchmark.  The file is only read.
"""

import hashlib
import json
import pathlib
from fractions import Fraction

import pytest

from affposet.cartan import build_affine
from affposet.poset import basic_cell, export_graph, interval
from affposet.weights import weight_from_labels

GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text()
)


def _digest(answer) -> str:
    # the benchmark's digest of a JSON answer
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
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
