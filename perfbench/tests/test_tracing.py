import numpy as np
import pytest

import radden.autoencoders as ae
import radden.bench.sweep as sweep
import radden.sparse_solvers as solvers
from tracing import Span, Tracer, layer_metrics


def test_installed_wraps_every_holder_and_restores():
    originals = (ae.infer, sweep.infer, solvers.RidgeDesign.solve)
    tracer = Tracer()
    with tracer.installed():
        assert sweep.infer is ae.infer and sweep.infer is not originals[0]
        assert solvers.RidgeDesign.solve is not originals[2]
    assert (ae.infer, sweep.infer, solvers.RidgeDesign.solve) == originals


def test_spans_nest_and_count():
    rng = np.random.default_rng(0)
    X = rng.random((30, 12))
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("bench.setup"):
            sweep.infer(ae.train_dae(X, X, 5)[0], X)
        with tracer.span("bench.op"):
            weights, _ = ae.train_dae(X, X, 5, opts=ae.TrainOptions(outer_iterations=3))
            sweep.infer(weights, X)
    names = [s.name for s in tracer.spans]
    op = names.index("bench.op")
    assert names[op + 1] == "autoencoders.train.dae"
    assert "sparse_solvers.ridge.solve" in names
    m = layer_metrics(tracer.spans, op, op)  # the op alone
    assert 0 < m["trace.overhead_s"][0] < m["trace.op_s"][0]
    assert m["autoencoders.infer.calls"][0] == 1
    assert m["autoencoders.infer.columns"][0] == 12
    assert m["autoencoders.train.dae.outer_iterations"][0] >= 1
    assert 0 < m["autoencoders.train.dae.self_s"][0] <= m["autoencoders.train.dae.s"][0]
    assert m["trace.layer_share"][0] == pytest.approx(
        1.0 - (tracer.spans[op].end - tracer.spans[op].start
               - sum(s.end - s.start for s in tracer.spans if s.parent == op))
        / m["trace.op_s"][0])
    assert layer_metrics(tracer.spans, 0, op)["autoencoders.infer.calls"][0] == 2


def test_self_time_subtracts_children():
    def span(name, start, end, parent):
        s = Span(name, start, parent)
        s.end = end
        return s

    spans = [span("bench.op", 0.0, 10.0, -1),
             span("sparse_solvers.ista_solve", 1.0, 5.0, 0),
             span("sparse_solvers.lipschitz_bound", 1.0, 2.0, 1),
             span("sparse_solvers.ridge", 6.0, 9.0, 0),
             span("sparse_solvers.ridge.solve", 7.0, 8.0, 3)]
    m = layer_metrics(spans, 0, 0)
    assert m["sparse_solvers.ista_solve.self_s"][0] == 3.0
    assert m["sparse_solvers.lipschitz_bound.s"][0] == 1.0
    assert m["sparse_solvers.ridge.s"][0] == 3.0  # the nested solve is not counted twice
    assert m["sparse_solvers.ridge.calls"][0] == 1
    assert m["trace.layer_share"][0] == pytest.approx(0.7)
