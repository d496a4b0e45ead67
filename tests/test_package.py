"""The package's public names, and the names the benchmark traces."""

import importlib
import importlib.util
from pathlib import Path

import graphpde

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"

# (module, attribute) pairs of the benchmark's span table that name
# nothing in the package; an API change may shrink this set, but a name
# it removes from a traced namespace must not silently drop a span
KNOWN_MISSING_SPANS = {
    ("cli", "check_h"), ("cli", "check_f"),
    ("solver", "norm"), ("solver", "evaluate"), ("solver", "energy"),
    ("solver", "gradient"), ("solver", "pointwise_residual"),
    ("spectral", "dirichlet_energy"),
    ("variational", "dirichlet_energy"), ("variational", "laplacian"),
    ("variational", "norm"), ("variational", "evaluate"),
    # deleted with the ball minimizer's descent loop; no work goes untimed
    ("solver", "_descent_step"),
    # deleted with the mountain pass's path, which alone resampled; its
    # descent has no such step, so the per-layer resample time reads 0
    ("solver", "_resample_path"),
    # imported into cli for the gradcheck command alone, which went and
    # which no workload ran, so no work goes untimed
    ("cli", "energy"), ("cli", "gradient"), ("cli", "pointwise_residual"),
}


def test_all_names_resolve_once():
    names = graphpde.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(graphpde, name)]
    assert missing == []


def test_benchmark_trace_spans_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    # the test by which Tracer.install skips an entry
    missing = {
        (module, attr) for module, attr, _ in trace.WRAPS
        if getattr(importlib.import_module(f"graphpde.{module}"), attr, None) is None
    }
    assert missing <= KNOWN_MISSING_SPANS
