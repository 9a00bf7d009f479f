"""The benchmark's own checks: the layer table resolves against the
library, the tracer reports absent layers and self time, and the
host-speed probe runs only while it is on.

    python3 -m pytest benchmarks/test_layers.py
"""

import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from hostspeed import HostSpeed  # noqa: E402
from layers import LAYERS, ROOT_SPAN, Tracer, resolve  # noqa: E402


def test_every_layer_resolves():
    missing = [name for name, module, attr, _ in LAYERS if resolve(module, attr) is None]
    assert missing == []


def test_layer_names_are_unique_and_kinds_known():
    names = [name for name, _, _, _ in LAYERS]
    assert len(names) == len(set(names))
    assert {kind for _, _, _, kind in LAYERS} <= {"span", "leaf", "count"}


def test_missing_function_is_an_absent_layer():
    tracer = Tracer("test")
    tracer.install([("dsl.gone", "nlconcepts.dsl.shape", "no_such_function", "span")])
    assert tracer.absent == ["dsl.gone"]
    metrics = tracer.layer_metrics(1)
    assert metrics["dsl.eval_shape.calls"] == 0


def test_self_time_excludes_child_spans():
    tracer = Tracer("test")

    def child():
        time.sleep(0.02)

    def parent():
        tracer.call_in_span("b.child", child)

    tracer.call_in_span(ROOT_SPAN, tracer.call_in_span, ("a.parent", parent))
    own = {name: self_s for name, _, _, _, _, self_s, _ in tracer.spans}
    assert own["b.child"] >= 0.02 > own["a.parent"]
    assert tracer.self_s_by_call(1)["a.parent"]["b"] == own["b.child"]


def test_host_speed_probes_while_running_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed().start()
    time.sleep(0.1)
    speed.stop()
    speed.stop()
    assert signal.getsignal(signal.SIGALRM) == previous
    assert len(speed.probe_s) >= 3 and speed.slowdown > 0
    assert 0 < speed.own_s(speed.wall_s) < speed.wall_s
