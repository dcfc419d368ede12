from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_patch_point_exists():
    # the tracer replaces each (module, attribute) of INNER in place, so a
    # name that moved to another module would fail the install.  The file is
    # run from its source text, which writes no bytecode under perfbench/
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    inner = namespace["INNER"]
    assert inner
    assert [(m.__name__, attr) for m, attr, *_ in inner if not hasattr(m, attr)] == []
