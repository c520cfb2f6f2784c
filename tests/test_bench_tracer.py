"""The bench tracer resolves every function it names in this checkout, so
a rename or deletion in src that would break a traced bench run fails
here first."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert len(saved) >= len(tracing.FUNCTIONS)
        assert all(getattr(owner, attr) is not orig
                   for owner, attr, orig in saved)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in saved)
