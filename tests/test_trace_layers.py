"""The benchmark's tracer wraps qdegree functions by name.  A traced function
that is renamed, moved or no longer called leaves its layer out of the trace;
these tests catch that without a benchmark run.
"""

import sys
from pathlib import Path

import pytest

from qdegree import cli, contour, degree, model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


@pytest.fixture()
def traced():
    inst = tracing.Instrumentation()
    tr = tracing.Tracer()
    inst.install(tr)
    try:
        yield inst, tr
    finally:
        inst.uninstall()


def test_every_layer_installs(traced):
    inst, _ = traced
    assert inst.missing == []


# one small operation of the kind each workload times
OPERATIONS = {
    "grid": lambda: degree.verify_theorem(model.validate(2, 3, 2, 1)),
    "tower": lambda: degree.verify_theorem(model.validate(6, 4, 3, 1)),
    "contour": lambda: contour.decomposition_report(
        model.validate(1, 3, 1, 0, q=2.0), contour.QuadratureSpec(q=2.0, nodes=16)),
    "degree": lambda: cli.main.main(
        args=["degree", "--m", "2", "--d", "3", "--t", "1", "--a", "0", "--q", "3",
              "--deg-sigma", "1", "--json"], prog_name="qdegree", standalone_mode=False),
}


@pytest.mark.parametrize("workload", sorted(OPERATIONS))
def test_no_silent_layer(traced, workload, capsys):
    _, tr = traced
    OPERATIONS[workload]()
    assert tracing.silent_layers(workload, [tracing.round_layers(tr, 0)]) == []
