"""Write ``bench/golden.json``: the query pools and the answers to them.

Run from the repository root as ``python3 bench/record_golden.py``.  The file
in the repository was recorded on the commit named in its ``recorded_on``
field; the benchmark compares later answers against it, so re-recording it
after a change to ``src/`` would hide a changed answer.

Pools are enumerated or drawn with fixed seeds; a run's ``--seed`` only picks
entries from them.  A digest is the first 16 hex digits of the SHA-256 of the
answer's compact sorted JSON, or of a command's stdout.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import sys

import run
import workloads

# type: (level of the top weight, k in interval(top, top - k delta))
INTERVALS = {
    "A3-1": (4, 3),
    "A4-1": (4, 2),
    "A5-1": (3, 2),
    "A6-1": (3, 2),
    "C3-1": (4, 3),
    "G2-1": (6, 4),
    "E6-2": (6, 3),
}
CELL_TYPES = ("A3-1", "A4-1", "A5-1")
CELL_LABEL_SUMS = (2, 3)
LATTICE_RANKS = (4, 6, 8, 10, 12, 16, 20, 24, 30)
LATTICE_PAIRS = 24
LADDER_RANKS = (10, 20, 30, 40)
COLD_COCOVER_RANKS = (8, 12, 16)
COLD_COCOVER_LABELS = 12
COLD_OTHER_TYPES = ("B4-1", "B5-1", "B6-1", "C4-1", "C5-1", "C6-1", "D5-1", "D6-1", "D7-1")


def labels_at_level(comarks, level: int) -> list:
    """Every dominant label vector whose comark-weighted sum is the level."""
    out = []

    def extend(prefix, remaining):
        if len(prefix) == len(comarks):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for v in range(remaining // comarks[len(prefix)] + 1):
            extend(prefix + [v], remaining - v * comarks[len(prefix)])

    extend([], level)
    return out


def interval_pool(ap) -> dict:
    pool = {}
    for name, (level, k) in INTERVALS.items():
        comarks = ap.build_affine(name).comarks
        pool[name] = {
            "level": level,
            "k": k,
            "entries": [
                [list(labs), workloads.digest(workloads.interval_answer(ap, name, labs, k))]
                for labs in labels_at_level(comarks, level)
            ],
        }
    return pool


def cell_pool(ap) -> dict:
    """Every pair of finite-root cocovers of every top; none is filtered out."""
    pool = {}
    for name in CELL_TYPES:
        diagram = ap.build_affine(name)
        entries = []
        for total in CELL_LABEL_SUMS:
            for labs in labels_at_level(diagram.comarks, total):
                lam = ap.weight_from_labels(diagram, labs)
                lowers = [
                    e.lower for e in ap.cocovers(lam) if e.kind is not ap.CoverKind.DELTA
                ]
                for mu, mu2 in itertools.combinations(lowers, 2):
                    graph = ap.export_graph(ap.interval(lam, ap.meet(mu, mu2)), "json")
                    try:
                        cell = ap.basic_cell(lam, mu, mu2)
                        shape, case = cell.shape.value, cell.case
                    except ap.CellMismatchError:
                        shape = case = None
                    entries.append(
                        [
                            list(labs),
                            [[int(v) for v in ap.labels(mu)], ap.format_shift(ap.delta_shift(mu))],
                            [[int(v) for v in ap.labels(mu2)], ap.format_shift(ap.delta_shift(mu2))],
                            workloads.digest(graph),
                            shape,
                            case,
                        ]
                    )
        pool[name] = entries
    return pool


def lattice_pool(ap) -> dict:
    """Pairs at equal level in one lattice component of A(n,1).

    For untwisted type A the component of a weight with integral shift is
    the class of sum(j * label_j) modulo n + 1; moving one unit of label
    from vertex j to vertex j + c shifts that class by c.
    """
    rng = random.Random("lattice-pool")
    pool = {}
    for n in LATTICE_RANKS:
        name = f"A{n}-1"
        ones = (1,) * (n + 1)
        entries = []
        for _ in range(LATTICE_PAIRS):
            level = rng.randint(2, 6)
            la = list(workloads.sample_labels(ones, level, rng))
            lb = list(workloads.sample_labels(ones, level, rng))
            c = sum(j * v for j, v in enumerate(la)) - sum(j * v for j, v in enumerate(lb))
            j = next(j for j, v in enumerate(lb) if v)
            lb[j] -= 1
            lb[(j + c) % (n + 1)] += 1
            sa, sb = f"{rng.randint(-2, 2)}/1", f"{rng.randint(-2, 2)}/1"
            answer = workloads.lattice_answer(ap, name, la, sa, lb, sb)
            entries.append([la, sa, lb, sb, workloads.digest(answer)])
        pool[name] = entries
    return pool


def cold_pool(ap) -> dict:
    rng = random.Random("cold-pool")

    def entry(kind, argv):
        out, err = io.StringIO(), io.StringIO()
        code = ap.cli.run(argv, stdout=out, stderr=err)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}: {err.getvalue()}")
        return [kind, argv, workloads.digest(out.getvalue())]

    def label_arg(name, level):
        comarks = ap.build_affine(name).comarks
        return ",".join(map(str, workloads.sample_labels(comarks, level, rng)))

    cocovers = {}
    for n in COLD_COCOVER_RANKS:
        name = f"A{n}-1"
        cocovers[name] = [
            entry("cocovers", ["cocovers", name, "--labels", label_arg(name, rng.randint(2, 4))])
            for _ in range(COLD_COCOVER_LABELS)
        ]
    other = []
    for name in COLD_OTHER_TYPES:
        other.append(entry("other", ["info", name]))
        for command in ("cocovers", "covers"):
            other.append(
                entry("other", [command, name, "--labels", label_arg(name, rng.randint(2, 3))])
            )
    return {
        "ladder": [entry("ladder", ["info", f"A{n}-1"]) for n in LADDER_RANKS],
        "cocovers": cocovers,
        "other": other,
    }


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import affposet as ap
    import affposet.cli  # noqa: F401  (ap.cli for cold_pool)

    golden = {
        "recorded_on": run.commit_of(run.ROOT),
        "source_digest": run.source_digest(run.ROOT),
        "interval": interval_pool(ap),
        "cell": cell_pool(ap),
        "lattice": lattice_pool(ap),
        "cold": cold_pool(ap),
    }
    path = workloads.BENCH_DIR / "golden.json"
    path.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
