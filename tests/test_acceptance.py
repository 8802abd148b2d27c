"""Acceptance suite: one numbered criterion per test, one printed verdict each.

Criterion 5 checks the cell prediction for untwisted type A against the
actual intervals over every pair of finite-root cocovers, including the pairs
whose supports cover the cycle and whose cell is the whole interval down to
the delta shift.  See the README for the derivation.
"""

import functools
import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from affposet.cartan import build_affine, catalog_types, parse_type_id, special_vertices
from affposet.covering import CoverKind, cocovers, is_delta_cocover
from affposet.oracle import WindowExhaustedError, brute_bounds, verify_covering
from affposet.poset import CellMismatchError, CellShape, basic_cell, export_graph, graph_from_json, interval
from affposet.roots import (
    RootVector,
    delta_root,
    highest_short_root,
    is_real_root,
    simple_reflection,
    simple_root,
)
from affposet.weights import (
    add_root,
    dominance_leq,
    fundamental_weight,
    is_dominant,
    join,
    labels,
    meet,
    weight_from_labels,
)


def _announce(capsys, num: int, ok: bool, note: str = "") -> None:
    with capsys.disabled():
        line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
        if note:
            line += f" ({note})"
        print(line, flush=True)


def D(name):
    return build_affine(parse_type_id(name))


def int_labels(w):
    return tuple(int(v) for v in labels(w))


@pytest.fixture(scope="module")
def sweep():
    """One full brute-force comparison per catalog type, shared by 1-3."""
    reports = []
    start = time.monotonic()
    for name in catalog_types():
        reports.append(
            verify_covering(name, levels=(1, 2, 3), samples_per_level=200, seed=0)
        )
    return reports, time.monotonic() - start


def test_criterion_1_covering_classification(sweep, capsys):
    reports, elapsed = sweep
    total = sum(r.tested for r in reports)
    bad = [m for r in reports for m in r.mismatches]
    flags = sum(r.boundary_flags for r in reports)
    ok = not bad and flags == 0 and elapsed < 600.0
    _announce(capsys, 1, ok, f"{total} weights over 17 types in {elapsed:.1f}s")
    assert [str(r.type) for r in reports] == [str(t) for t in catalog_types()]
    assert flags == 0
    assert bad == []
    assert elapsed < 600.0


def test_criterion_2_cover_differences_are_candidate_roots(sweep, capsys):
    reports, _ = sweep
    bad = [m for r in reports for m in r.mismatches if m["check"] == "difference"]
    _announce(capsys, 2, not bad)
    assert bad == []


def test_criterion_3_delta_cocover_classification(sweep, capsys):
    reports, _ = sweep
    bad = [m for r in reports for m in r.mismatches if m["check"] == "delta"]
    frozen = []
    for n in (1, 2, 3, 4):
        frozen.append(is_delta_cocover(fundamental_weight(D(f"A{n}-1"), 0)))
    frozen.append(is_delta_cocover(weight_from_labels(D("D3-2"), (1, 0, 1))))
    frozen.append(is_delta_cocover(weight_from_labels(D("D4-2"), (1, 0, 0, 1))))
    frozen.append(is_delta_cocover(weight_from_labels(D("A1-1"), (1, 1))))
    ok = not bad and all(frozen)
    _announce(capsys, 3, ok)
    assert bad == []
    assert all(frozen)


def _to_dominant(w):
    # reflection walk into the dominant chamber
    while True:
        for j in w.diagram.vertices:
            e = labels(w)[j]
            if e < 0:
                step = [-e if i == j else 0 for i in w.diagram.vertices]
                w = add_root(w, RootVector(w.diagram, step))
                break
        else:
            return w


def _random_dominant(diagram, level, rng):
    labs = [0] * (diagram.n + 1)
    remaining = level
    while remaining > 0:
        choices = [j for j in diagram.vertices if diagram.comarks[j] <= remaining]
        j = rng.choice(choices)
        labs[j] += 1
        remaining -= diagram.comarks[j]
    return weight_from_labels(diagram, labs)


def _random_companion(base, rng):
    offsets = [rng.randint(-2, 2) for _ in base.diagram.vertices]
    return _to_dominant(add_root(base, RootVector(base.diagram, offsets)))


def test_criterion_4_lattice_operations(capsys):
    failures = []
    pairs_per_type = 100
    for name in catalog_types():
        diagram = D(name)
        rng = random.Random(f"lattice:{name}")
        for k in range(pairs_per_type):
            a = _random_dominant(diagram, rng.choice((1, 2, 3)), rng)
            b = _random_companion(a, rng)
            c = _random_companion(b, rng)
            lo, hi = meet(a, b), join(a, b)
            bb = None
            window = None
            for _ in range(3):
                try:
                    bb = brute_bounds(a, b, window)
                    break
                except WindowExhaustedError:
                    from affposet.oracle import default_window

                    window = (window or default_window(diagram)).doubled()
            if bb is None or bb.glb != lo or bb.lub != hi:
                failures.append((name, k, "bounds"))
                continue
            if meet(a, a) != a or join(a, a) != a:
                failures.append((name, k, "idempotence"))
            if meet(b, a) != lo or join(b, a) != hi:
                failures.append((name, k, "commutativity"))
            if meet(meet(a, b), c) != meet(a, meet(b, c)):
                failures.append((name, k, "meet associativity"))
            if join(join(a, b), c) != join(a, join(b, c)):
                failures.append((name, k, "join associativity"))
            if meet(a, hi) != a or join(a, lo) != a:
                failures.append((name, k, "absorption"))
            if not (dominance_leq(lo, a) and dominance_leq(lo, b)
                    and dominance_leq(a, hi) and dominance_leq(b, hi)):
                failures.append((name, k, "order consistency"))
            if dominance_leq(a, b) and (lo != a or hi != b):
                failures.append((name, k, "comparable pair"))
    _announce(capsys, 4, not failures,
              f"{pairs_per_type} pairs x {len(catalog_types())} types")
    assert failures == []


def _census_weights(diagram, max_sum=3):
    out = []
    for labs in itertools.product(range(max_sum + 1), repeat=diagram.n + 1):
        if 0 < sum(labs) <= max_sum:
            out.append(weight_from_labels(diagram, labs))
    return out


def test_criterion_5_basic_cells(capsys):
    shapes_seen = set()
    mismatches = []
    checked = 0
    for name in ("A2-1", "A3-1", "A4-1"):
        diagram = D(name)
        rng = random.Random(f"cells:{name}")
        pool = _census_weights(diagram)
        for level in (4, 5):
            for _ in range(40):
                pool.append(_random_dominant(diagram, level, rng))
        seen = set()
        for lam in pool:
            if lam in seen:
                continue
            seen.add(lam)
            finite = [e.lower for e in cocovers(lam)
                      if e.kind is not CoverKind.DELTA]
            for mu, mu2 in itertools.combinations(finite, 2):
                checked += 1
                try:
                    cell = basic_cell(lam, mu, mu2)
                except CellMismatchError:
                    mismatches.append((name, int_labels(lam),
                                       int_labels(mu), int_labels(mu2)))
                    continue
                shapes_seen.add(cell.shape)
    pentagon = basic_cell(
        weight_from_labels(D("A3-1"), (0, 2, 1, 1)),
        weight_from_labels(D("A3-1"), (1, 0, 2, 1)),
        weight_from_labels(D("A3-1"), (1, 3, 0, 0)),
    )
    ok = not mismatches and shapes_seen == set(CellShape)
    _announce(
        capsys, 5, ok,
        f"{len(mismatches)} of {checked} cocover pairs deviate from the "
        "predicted shapes",
    )
    assert pentagon.shape is CellShape.PENTAGON
    assert shapes_seen == set(CellShape)
    assert mismatches == []


@functools.lru_cache(maxsize=None)
def _integer_form(diagram):
    # the symmetric form times lcm(marks) has integer entries; a common
    # scale leaves every coroot value and every pairing ratio unchanged
    scale = math.lcm(*diagram.marks)
    form = [[x * scale for x in row] for row in diagram.sym_form]
    assert all(x.denominator == 1 for row in form for x in row)
    return tuple(tuple(int(x) for x in row) for row in form)


@functools.lru_cache(maxsize=None)
def _form_image(root: RootVector) -> tuple:
    form = _integer_form(root.diagram)
    return tuple(sum(map(mul, row, root.coeffs)) for row in form)


def _sym_pairing(a: RootVector, b: RootVector) -> int:
    return sum(map(mul, a.coeffs, _form_image(b)))


@functools.lru_cache(maxsize=None)
def _norm(root: RootVector) -> int:
    return _sym_pairing(root, root)


def _coroot_value(alpha: RootVector, beta: RootVector) -> Fraction:
    # alpha evaluated on the coroot of beta
    return Fraction(2 * _sym_pairing(alpha, beta), _norm(beta))


def _real_root_pool(diagram, rng, size=101):
    pool = [simple_root(diagram, j) for j in diagram.vertices]
    theta = delta_root(diagram) - simple_root(diagram, 0)
    if diagram.type_id.twist == 1:
        pool.append(theta)
    roots = set(pool)
    while len(roots) < size:
        base = rng.choice(sorted(roots, key=lambda r: r.coeffs))
        for _ in range(rng.randint(1, 6)):
            base = simple_reflection(base, rng.randrange(diagram.n + 1))
        roots.add(base)
    return sorted(roots, key=lambda r: r.coeffs)


def _check_pairing_bound(diagram, rng):
    pool = _real_root_pool(diagram, rng)
    assert len(pool) >= 101
    bad = 0
    for a in pool:
        for b in pool:
            if _coroot_value(a, b) * _coroot_value(b, a) > 4:
                bad += 1
    return len(pool) ** 2, bad


def _check_degenerate_pairs(diagram, rng):
    # real root and simple root with pairing product exactly four and
    # disjoint support collapse onto a rational multiple of delta
    pool = _real_root_pool(diagram, rng)
    delta = delta_root(diagram)
    qualifying = 0
    bad = 0
    for alpha in pool:
        support = alpha.support()
        for i in diagram.vertices:
            if i in support:
                continue
            a_i = simple_root(diagram, i)
            if _coroot_value(alpha, a_i) * _coroot_value(a_i, alpha) != 4:
                continue
            qualifying += 1
            r = Fraction(_sym_pairing(alpha, a_i), _norm(a_i))
            scale = -r / diagram.marks[i]
            left = [Fraction(c) - r * e for c, e in zip(alpha.coeffs, a_i.coeffs)]
            right = [scale * m for m in delta.coeffs]
            if left != right:
                bad += 1
    return qualifying, bad


def _check_dominant_lattice_vectors(diagram):
    # a vector of the root lattice with no negative coroot values is a
    # multiple of delta; exhaustive over |k_i| <= 4 marks_i
    a = np.array(diagram.cartan, dtype=np.int64)
    marks = diagram.marks
    axes = [np.arange(-4 * m, 4 * m + 1, dtype=np.int64) for m in marks]
    mesh = np.meshgrid(*axes, indexing="ij")
    betas = np.stack(mesh, axis=-1).reshape(-1, diagram.n + 1)
    passing = betas[(betas @ a.T >= 0).all(axis=1)]
    found = {tuple(int(v) for v in row) for row in passing}
    expected = {tuple(t * m for m in marks) for t in range(-4, 5)}
    return found == expected


def _connected_proper_subsets(diagram):
    verts = list(diagram.vertices)
    for r in range(1, len(verts)):
        for combo in itertools.combinations(verts, r):
            if diagram.is_connected(combo):
                yield combo


def _check_short_root_extraction(diagram):
    # dominant nonzero vectors of a finite subsystem stay nonnegative after
    # subtracting its highest short root; exhaustive up to coefficient 3
    for subset in _connected_proper_subsets(diagram):
        hsr = highest_short_root(diagram, subset).coeffs
        for combo in itertools.product(range(4), repeat=len(subset)):
            if not any(combo):
                continue
            coeff = {v: c for v, c in zip(subset, combo)}
            dominant = all(
                sum(c * diagram.cartan[i][j] for j, c in coeff.items()) >= 0
                for i in subset
            )
            if not dominant:
                continue
            if any(coeff[v] - hsr[v] < 0 for v in subset):
                return False
    return True


def test_criterion_6_root_system_lemmas(capsys):
    problems = []
    qualifying_total = 0
    for name in catalog_types():
        diagram = D(name)
        rng = random.Random(f"lemmas:{name}")
        pairs, bad = _check_pairing_bound(diagram, rng)
        if pairs < 10000 or bad:
            problems.append((name, "pairing bound", bad))
        qualifying, bad = _check_degenerate_pairs(diagram, rng)
        qualifying_total += qualifying
        if bad:
            problems.append((name, "degenerate pair identity", bad))
        if diagram.type_id.twist == 1 and qualifying == 0:
            problems.append((name, "no degenerate pair sampled", 0))
        if not _check_dominant_lattice_vectors(diagram):
            problems.append((name, "dominant lattice vectors", 1))
        if not _check_short_root_extraction(diagram):
            problems.append((name, "short root extraction", 1))
    if qualifying_total == 0:
        problems.append(("all", "no degenerate pairs anywhere", 0))
    _announce(capsys, 6, not problems)
    assert problems == []


def test_criterion_7_special_vertices(capsys):
    problems = []
    for n in range(1, 7):
        diagram = D(f"A{n}-1")
        if special_vertices(diagram) != tuple(diagram.vertices):
            problems.append((str(diagram), "not all vertices special"))
    for name in catalog_types():
        diagram = D(name)
        shortest = min(diagram.root_length_sq)
        for i in special_vertices(diagram):
            if diagram.root_length_sq[i] != shortest:
                problems.append((name, f"vertex {i} is not shortest"))
        rebuilt = []
        marks = diagram.marks
        for i in diagram.vertices:
            rest = [v for v in diagram.vertices if v != i]
            if not diagram.is_connected(rest):
                continue
            hsr = highest_short_root(diagram, rest).coeffs
            target = tuple(m - (1 if v == i else 0) for v, m in enumerate(marks))
            if hsr == target:
                rebuilt.append(i)
        if tuple(rebuilt) != special_vertices(diagram):
            problems.append((name, "reconstruction disagrees"))
    _announce(capsys, 7, not problems)
    assert problems == []


_CLI_COMMANDS = (
    ("types",),
    ("info", "G2-1"),
    ("cocovers", "A3-1", "--labels", "0,2,1,1"),
    ("interval", "A3-1", "--top", "0,2,1,1", "--bottom", "2,1,1,0",
     "--format", "dot"),
    ("cell", "A4-1", "--labels", "1,1,1,1,0", "--mu", "0,0,2,1,1",
     "--mu2", "1,2,0,0,1", "--format", "json"),
    ("verify", "A2-1", "--levels", "1,2", "--samples", "40", "--seed", "7"),
)


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "affposet", *args],
        capture_output=True,
        timeout=300,
    )


def test_criterion_8_determinism_and_round_trips(capsys):
    problems = []
    for args in _CLI_COMMANDS:
        first = _run_cli(args)
        second = _run_cli(args)
        if first.returncode != 0 or second.returncode != 0:
            problems.append((args, "nonzero exit"))
        if first.stdout != second.stdout:
            problems.append((args, "stdout differs between runs"))
    rng = random.Random(2024)
    names = list(catalog_types())
    done = 0
    while done < 100:
        diagram = D(rng.choice(names))
        top = _random_dominant(diagram, rng.choice((1, 2, 3)), rng)
        bottom = top
        for _ in range(rng.randint(0, 3)):
            edges = cocovers(bottom)
            if not edges:
                break
            bottom = rng.choice(edges).lower
        graph = interval(top, bottom)
        data = json.loads(json.dumps(export_graph(graph, "json")))
        if graph_from_json(data) != graph:
            problems.append((str(diagram), "graph round trip"))
        done += 1
    _announce(capsys, 8, not problems)
    assert problems == []
