"""Child processes of the benchmark; ``run.py`` starts them one at a time.

``python3 bench/child.py setup <workload>``
    Imports affposet from ``src/`` and runs the workload's warm-up, then
    prints ``{"setup_s": ...}``: one set-up sample in a fresh process.

``python3 bench/child.py cli <spans.json> <affposet arguments...>``
    Installs the tracing wrappers, runs ``affposet.cli.run`` on the
    arguments, writes the spans to ``spans.json`` and exits with the
    command's exit code.  This is the traced form of ``python -m affposet``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402


def setup_sample(name: str) -> int:
    import workloads

    golden = json.loads((workloads.BENCH_DIR / "golden.json").read_text())
    start = time.perf_counter()
    import affposet

    workloads.WORKLOADS[name](affposet, golden, ROOT, {}).setup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def traced_cli(spans: Path, argv: list) -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import affposet.cli

    try:
        return affposet.cli.run(argv)
    finally:
        spans.write_text(json.dumps(tracer.to_dict()))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup_sample(sys.argv[2]))
    sys.exit(traced_cli(Path(sys.argv[2]), sys.argv[3:]))
