"""The benchmark's traced mode still finds every function it wraps.

``bench/tracing.py`` looks each traced name up with ``getattr``, so a
package change that drops one of them breaks the traced benchmark run.  The
file is only read.
"""

import importlib.util
import pathlib

import affposet
import affposet.covering as covering
from affposet.cartan import build_affine
from affposet.weights import weight_from_labels

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_mode_wraps_and_restores():
    tracing = _load_tracing()
    original = covering.cocovers
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        affposet.cocovers(weight_from_labels(build_affine("A2-1"), (1, 0, 1)))
        direct = tracer.summary()["covering.cocovers"]["calls"]
        affposet.verify_covering("A2-1", levels=(1,), samples_per_level=1)
    finally:
        uninstall()
    summary = tracer.summary()
    assert direct == 1 and tracer.counts["covering.cocovers.edges"] > 0
    assert summary["oracle.verify_covering"]["calls"] == 1
    # the sweep's checker looks the delta test up in the covering module
    assert summary["covering.is_delta_cocover"]["calls"] > 0
    assert covering.cocovers is original
