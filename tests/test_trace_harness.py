"""The benchmark's trace harness must find every name it instruments."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_public_call_can_be_instrumented(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    with tracing.Tracer().instrument():
        for owner, attr, name, _ in tracing.PUBLIC_CALLS:
            assert hasattr(getattr(owner, attr), "__wrapped__"), name
    for owner, attr, name, _ in tracing.PUBLIC_CALLS:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), name
