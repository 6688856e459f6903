"""The benchmark's span tracer still finds every library function it
wraps, so renaming or deleting a traced function fails here rather than
only inside a benchmark run."""

import sys
from pathlib import Path

import dsaa.harness  # noqa: F401  (loads every module the tracer scans)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_reaches_required_sites(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert set(tracing.REQUIRED_SITES) <= tracer.sites
    finally:
        tracer.uninstall()
        for name in ("tracing", "catalog"):
            sys.modules.pop(name, None)
