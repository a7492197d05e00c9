
import numpy as np

from facetlp import facet, linalg, reference
from facetlp.generators import klee_minty_v2
from facetlp.model import to_standard_general
import spans  # perfbench/spans.py, on pytest's pythonpath


def test_tracer_counts_every_layer_it_wraps():
    """The benchmark's tracer wraps facetlp's layers by name and reads
    attributes of their arguments and results; a rename in ``src/`` that it
    does not follow fails here, not only in the traced benchmark."""
    originals = [getattr(module, attr) for module, attr, _, _ in spans.WRAPPED]
    tracer = spans.Tracer()
    tracer.install()
    try:
        sp = to_standard_general(klee_minty_v2(3))
        facet_out = facet.solve(sp, collect_trace=True)
        oracle_out = reference.brute_force_optimal(sp)
        dantzig_out = reference.dantzig_solve(reference.to_standard_form(klee_minty_v2(3)))
        # a pivot of 1e-10 is above the singularity threshold, 1e-12, and
        # near it
        linalg.factor(np.diag([1.0, 1e-10, 1.0]))
        metrics = spans.pass_metrics(tracer.take())
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _, _ in spans.WRAPPED] == originals

    assert facet_out.iterations == 3 and dantzig_out.iterations > 0
    assert metrics["facet.solve.calls"] == 1
    assert metrics["facet.pivots"] == facet_out.iterations
    assert metrics["facet.pivot.fallbacks"] == 0
    # read off each pivot's state arguments and result
    assert 0.0 < metrics["facet.pivot.progress_frac"] <= 1.0
    # each pivot solves x once and y_c by a transpose solve; an entering
    # general row's expansion is a transpose solve too, a bound row's is not
    general = sum(record.entering < sp.m + sp.n for record in facet_out.trace)
    assert 0 < general < facet_out.iterations
    assert metrics["linalg.solve.calls"] == facet_out.iterations
    assert metrics["linalg.solve_transpose.calls"] == facet_out.iterations + general
    assert metrics["linalg.factor.calls"] == 1
    assert metrics["linalg.factor.near_singular"] == 1
    assert metrics["linalg.factor.gflops_computed"] > 0
    assert metrics["reference.brute_force_optimal.calls"] == 1
    assert metrics["reference.brute_force_optimal.bases_per_s"] > 0
    assert oracle_out.iterations > 0
    assert metrics["reference.dantzig_solve.calls"] == 1
    assert metrics["reference.dantzig_solve.pivots"] == dantzig_out.iterations
    for name in ("select_entering", "expand_entering", "select_leaving"):
        assert metrics[f"facet.{name}.ms"] > 0, name
