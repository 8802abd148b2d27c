"""The four workloads: their inputs, the calls they make, and the check on every answer.

A workload hands the runner rounds.  A round is a list of ``(kind, call)``
pairs drawn from the run's seed and the round number, so one seed always
gives the same inputs, and every round has the same mix of kinds.  A call
returns an :class:`Outcome`: how many work items it completed, how many of
them failed (a wrong answer, a mismatch, a ``CellMismatchError`` or a
nonzero exit), and how many of those were wrong answers.

The program only receives generated label tuples, shifts and type names.
Answers are checked three ways: the oracle against the classifier
(``verify_catalog``, ``oracle_e7``), or a digest against ``golden.json``,
which holds the query pools and their answers as the seed commit gave them
(``poset_queries``, ``rank_cold``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Outcome:
    units: int = 1
    failed: int = 0
    wrong: int = 0


def checked(ok: bool) -> Outcome:
    return Outcome(1, int(not ok), int(not ok))


def digest(answer) -> str:
    text = answer if isinstance(answer, str) else json.dumps(
        answer, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sample_labels(comarks, level: int, rng: random.Random) -> tuple:
    """Random dominant labels whose comark-weighted sum is the level."""
    labs = [0] * len(comarks)
    remaining = level
    while remaining > 0:
        j = rng.choice([j for j, c in enumerate(comarks) if c <= remaining])
        labs[j] += 1
        remaining -= comarks[j]
    return tuple(labs)


def interval_answer(ap, type_name: str, labs, k: int) -> dict:
    """Hasse diagram between a weight and its translate by minus k delta."""
    diagram = ap.build_affine(type_name)
    top = ap.weight_from_labels(diagram, labs)
    bottom = ap.weight_from_labels(diagram, labs, -k)
    return ap.export_graph(ap.interval(top, bottom), "json")


def cell_weights(ap, type_name: str, labs, mu, mu2) -> tuple:
    diagram = ap.build_affine(type_name)
    return (
        ap.weight_from_labels(diagram, labs),
        ap.weight_from_labels(diagram, mu[0], Fraction(mu[1])),
        ap.weight_from_labels(diagram, mu2[0], Fraction(mu2[1])),
    )


def lattice_answer(ap, type_name: str, la, sa: str, lb, sb: str) -> dict:
    """Meet, join, the four dominance relations they imply, a JSON round trip."""
    diagram = ap.build_affine(type_name)
    a = ap.weight_from_labels(diagram, la, Fraction(sa))
    b = ap.weight_from_labels(diagram, lb, Fraction(sb))
    low, high = ap.meet(a, b), ap.join(a, b)
    high_json = ap.weight_to_json(high)
    return {
        "meet": ap.weight_to_json(low),
        "join": high_json,
        "a<=b": ap.dominance_leq(a, b),
        "b<=a": ap.dominance_leq(b, a),
        "meet<=b": ap.dominance_leq(low, b),
        "a<=join": ap.dominance_leq(a, high),
        "round_trip": ap.weight_from_json(high_json) == high,
    }


class Workload:
    """A named source of rounds; ``setup`` warms what the timed loop reuses."""

    name = ""
    # nominal seconds one round takes on a busy 2-core 2.1 GHz x86 VM
    ROUND_S = 1.0
    # rounds whose calls a timed run repeats in every pass
    DISTINCT = 1

    def __init__(self, ap, golden: dict, root: Path, env: dict) -> None:
        self.ap = ap
        self.golden = golden
        self.root = root
        self.env = env
        self.tracer = None

    def rng(self, seed: int, r: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}:{r}")

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, seed: int, r: int) -> list:
        raise NotImplementedError

    def warm(self, type_names, grids: bool) -> None:
        """Build diagrams and cover candidates, and the oracle's offset grids."""
        ap = self.ap
        for name in type_names:
            diagram = ap.build_affine(name)
            ap.cover_root_set(diagram)
            if grids:
                ap.brute_cocovers(ap.fundamental_weight(diagram, 0))


class VerifyCatalog(Workload):
    """``verify_covering`` on each catalog type; no budget, so work is fixed."""

    name = "verify_catalog"
    ROUND_S = 6.3
    LEVELS = (1, 2, 3)
    SAMPLES = 20

    def setup(self) -> None:
        self.types = [str(t) for t in self.ap.catalog_types()]
        self.warm(self.types, grids=True)
        # census: every nonzero label vector with entry sum at most three
        self.expected = {
            name: math.comb(self.ap.build_affine(name).n + 4, 3) - 1
            + len(self.LEVELS) * self.SAMPLES
            for name in self.types
        }

    def round(self, seed: int, r: int) -> list:
        sweep_seed = self.rng(seed, r).randrange(2**31)
        return [
            ("verify", functools.partial(self.verify, name, sweep_seed))
            for name in self.types
        ]

    def verify(self, type_name: str, sweep_seed: int) -> Outcome:
        report = self.ap.verify_covering(
            type_name, levels=self.LEVELS, samples_per_level=self.SAMPLES, seed=sweep_seed
        )
        expected = self.expected[type_name]
        if report.tested != expected:
            return Outcome(expected, expected, expected)
        bad = {(tuple(m["labels"]), m["shift"]) for m in report.mismatches}
        if report.boundary_flags and not bad:
            bad = {"boundary"}
        return Outcome(report.tested, len(bad), len(bad))


class OracleE7(Workload):
    """Weights of E7-1 and E6-1, each cross-checked three ways by the oracle.

    Not listed in ``BENCHMARK.json``: three workloads leave room for longer
    runs within the time all runs may take, and ``verify_catalog`` still
    drives the oracle layer.  Run it by name to follow the oracle alone.
    """

    name = "oracle_e7"
    ROUND_S = 1.0
    DISTINCT = 4
    TYPES = ("E7-1",) * 9 + ("E6-1",) * 3
    LEVELS = (1, 2, 3)
    DOUBLINGS = 5

    def setup(self) -> None:
        self.warm(sorted(set(self.TYPES)), grids=True)
        self.tables = {
            name: self.ap.build_affine(name) for name in sorted(set(self.TYPES))
        }

    def round(self, seed: int, r: int) -> list:
        rng = self.rng(seed, r)
        ops = []
        for name in self.TYPES:
            diagram = self.tables[name]
            labs = sample_labels(diagram.comarks, rng.choice(self.LEVELS), rng)
            shift = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
            partner, beta0 = self.partner_labels(diagram.cartan, labs, rng)
            partner_shift = shift + Fraction(beta0, diagram.marks[0])
            ops.append(
                ("check", functools.partial(self.check, name, labs, shift, partner, partner_shift))
            )
        return ops

    @staticmethod
    def partner_labels(cartan, labs, rng: random.Random) -> tuple:
        """Labels of the weight plus a random root offset, raised until dominant.

        Returns the labels and the offset's coefficient on root 0, which moves
        the delta shift.  The offset is an integer root vector, so the partner
        lies in the same lattice component as the weight.
        """
        size = len(labs)
        beta = [rng.randint(-2, 2) for _ in range(size)]
        out = [
            labs[j] + sum(cartan[j][i] * beta[i] for i in range(size)) for j in range(size)
        ]
        while True:
            j = next((j for j in range(size) if out[j] < 0), None)
            if j is None:
                return tuple(out), beta[0]
            step = (-out[j] + 1) // 2
            beta[j] += step
            for k in range(size):
                out[k] += step * cartan[k][j]

    def check(self, name, labs, shift, partner_labs, partner_shift) -> Outcome:
        ap = self.ap
        diagram = ap.build_affine(name)
        weight = ap.weight_from_labels(diagram, labs, shift)
        partner = ap.weight_from_labels(diagram, partner_labs, partner_shift)
        brute = ap.brute_cocovers(weight)
        ok = not any(brute.boundary)
        ok &= set(brute.cocovers) == {e.lower for e in ap.cocovers(weight)}
        candidates = {c.root.coeffs for c in ap.cover_root_set(diagram)}
        ok &= all(d.coeffs in candidates for d in brute.differences)
        ok &= ap.is_delta_cocover(weight) == any(
            d.coeffs == diagram.marks for d in brute.differences
        )
        window = ap.default_window(diagram)
        bounds = None
        for _ in range(self.DOUBLINGS):
            try:
                bounds = ap.brute_bounds(weight, partner, window)
                break
            except ap.WindowExhaustedError:
                window = window.doubled()
        ok &= bounds is not None and (bounds.glb, bounds.lub) == (
            ap.meet(weight, partner),
            ap.join(weight, partner),
        )
        return checked(ok)


class PosetQueries(Workload):
    """A fixed mix of interval, cell and lattice queries; no oracle calls."""

    name = "poset_queries"
    ROUND_S = 1.8
    DISTINCT = 4
    # Twelve cells in a round of 28 calls put the median call inside the
    # dense cluster of cell and small lattice queries, not in the gap below
    # the intervals.
    CELLS_PER_TYPE = 4

    def setup(self) -> None:
        pools = self.golden
        self.warm(sorted(set(pools["interval"]) | set(pools["cell"])), grids=False)
        for name in pools["lattice"]:
            self.ap.build_affine(name)

    def round(self, seed: int, r: int) -> list:
        rng = self.rng(seed, r)
        pools = self.golden
        ops = []
        for name, pool in pools["interval"].items():
            labs, expected = rng.choice(pool["entries"])
            ops.append(("interval", functools.partial(self.interval, name, labs, pool["k"], expected)))
        for name, pool in pools["cell"].items():
            for entry in rng.sample(pool, self.CELLS_PER_TYPE):
                ops.append(("cell", functools.partial(self.cell, name, *entry)))
        for name, pool in pools["lattice"].items():
            ops.append(("lattice", functools.partial(self.lattice, name, *rng.choice(pool))))
        rng.shuffle(ops)
        return ops

    def interval(self, name, labs, k, expected) -> Outcome:
        return checked(digest(interval_answer(self.ap, name, labs, k)) == expected)

    def cell(self, name, labs, mu, mu2, graph_digest, shape, case) -> Outcome:
        """A basic cell; golden shape is None where the seed commit raised.

        A ``CellMismatchError`` is a failed query.  It is also a wrong answer
        when the seed commit returned a cell for the same pair.  A cell
        returned where the seed commit raised must still have the interval
        the seed commit computed.
        """
        ap = self.ap
        try:
            cell = ap.basic_cell(*cell_weights(ap, name, labs, mu, mu2))
        except ap.CellMismatchError:
            return Outcome(1, 1, int(shape is not None))
        ok = digest(ap.export_graph(cell.graph, "json")) == graph_digest
        ok &= shape is None or (cell.shape.value, cell.case) == (shape, case)
        return checked(ok)

    def lattice(self, name, la, sa, lb, sb, expected) -> Outcome:
        return checked(digest(lattice_answer(self.ap, name, la, sa, lb, sb)) == expected)


class RankCold(Workload):
    """One fresh ``python -m affposet`` process per query, one at a time."""

    name = "rank_cold"
    ROUND_S = 8.0
    OTHER_PER_ROUND = 6
    TIMEOUT_S = 120

    def setup(self) -> None:
        self.processes = []

    def round(self, seed: int, r: int) -> list:
        rng = self.rng(seed, r)
        pools = self.golden["cold"]
        entries = list(pools["ladder"])
        entries += [rng.choice(pool) for pool in pools["cocovers"].values()]
        entries += rng.sample(pools["other"], self.OTHER_PER_ROUND)
        rng.shuffle(entries)
        return [(kind, functools.partial(self.query, argv, expected)) for kind, argv, expected in entries]

    def query(self, argv, expected) -> Outcome:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "affposet", *argv]
        else:
            spans = self.root / ".bench_out" / "cold-child.json"
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(spans), *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, timeout=self.TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return checked(False)
        wall = time.perf_counter() - start
        ok = proc.returncode == 0 and digest(proc.stdout.decode()) == expected
        if self.tracer is not None and spans.exists():
            self.record_child(argv, wall, spans)
        return checked(ok)

    def record_child(self, argv, wall: float, spans: Path) -> None:
        child = tracing.Tracer.from_dict(json.loads(spans.read_text()))
        spans.unlink()
        self.tracer.extend(child)
        summary = child.summary()

        def busy(fn):
            return summary[fn]["busy_s"] if summary[fn]["calls"] else None

        self.processes.append(
            {
                "argv": argv,
                "wall_s": wall,
                "run_s": busy("cli.run"),
                "build_affine_s": busy("cartan.build_affine"),
                "cover_root_set_s": busy("roots.cover_root_set"),
            }
        )


WORKLOADS = {w.name: w for w in (VerifyCatalog, OracleE7, PosetQueries, RankCold)}
