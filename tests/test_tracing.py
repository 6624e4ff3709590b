"""The hooks perfbench's tracer reads from the package.

``perfbench/tracing.py`` wraps kernels on ``carmik._kernels.backend`` and
library functions by name, and the worker records ``carmik.backend_name()``
with each run.  A name either of them reads that the package drops breaks
a traced benchmark run, so the tracer runs here on one call of each
workload's kind.
"""

import importlib.util
from pathlib import Path

import carmik
from carmik import ap_search, korselt, pipeline
from carmik._kernels import pure
from carmik.construction import ConstructionConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_records_a_span_per_layer():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert len(korselt.census(1000)) == 1
        ap_search.heath_brown_scan(50, 50)
        # perfbench's small construct variant z=150 nu=6 |Q|=2 omega_d=1.
        cc = ConstructionConfig(z=150, nu=6, omega_g=1, omega_d=1, j_cap=40, k_cap=4000,
                                q_subset_size=2)
        pipeline.harvest_instance(cc)
    finally:
        tracer.uninstall()
    assert {"kernels.carmichael_census", "kernels.ap_max_scan",
            "construction.populate_R"} <= set(tracer.spans)
    assert not hasattr(pure.carmichael_census, "__wrapped__")
    assert carmik.backend_name() == "pure"
