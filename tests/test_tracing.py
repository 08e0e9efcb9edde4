"""The benchmark tracer (``bench/tracing.py``) still finds the bindings it wraps."""

from pathlib import Path

from flowssm import mesh

from test_intersection import merged_interpenetrating_tetrahedra

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_counts_pairs_and_restores_bindings(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    wrapped = list(tracer._undo)
    try:
        assert mesh.count_self_intersections(merged_interpenetrating_tetrahedra())[0]
    finally:
        tracer.uninstall()
    assert tracer.counts["mesh.intersection.pairs_tested"] > 0
    assert tracer.counts["mesh.intersection.pairs_intersecting"] > 0
    assert wrapped
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} still wrapped"
