"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import arc_cpd.core as core  # noqa: E402
import arc_cpd.detector as detector  # noqa: E402
from run import local_ratios, tail  # noqa: E402
from tracer import Tracer, traced  # noqa: E402


def test_smoke_emits_every_metric():
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--smoke"], cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "# smoke: ok" in out.stdout


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(1, 1601))) == (99.0, 1584)
    assert tail(list(range(1, 201))) == (95.0, 190)
    assert tail([3.0, 1.0, 2.0, 9.0]) == (None, 2.5)


def test_self_time_per_thread_and_restore():
    originals = (core.RngStream.generator, detector.detect)
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    with traced(tracer):
        assert core.RngStream.generator is not originals[0]
        worker = threading.Thread(target=outer)
        worker.start()
        outer()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert (core.RngStream.generator, detector.detect) == originals
    assert tracer.self_time_error() < 1e-9
    count, total, self_s, _ = tracer.records("outer")
    inner_total = tracer.records("inner", parent="outer")[1]
    assert count == 2 and tracer.records("inner")[0] == 6
    assert abs(self_s - (total - inner_total)) < 1e-9


def test_local_ratios_use_the_bursts_on_either_side():
    bursts = [[1.0], [3.0, 2.0, 9.0], [1.5, 1.5]]
    assert local_ratios([6.0, 9.0], bursts) == [2.4, 4.5]
