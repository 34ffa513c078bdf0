"""One measured execution in a fresh interpreter, as a user runs swnet.

    python3 child.py ROOT SCENARIO_JSON OUT_DIR MODE [SPANS_JSON]

MODE is ``setup`` (import swnet and parse the scenario only), ``execute``
(also run ``cli.execute`` with threads=1, untraced) or ``trace`` (the same,
with tracer.py's spans; they are written to SPANS_JSON). swnet is imported
from ROOT/src and nowhere else. The last stdout line is a JSON object with
the measurements; a raised exception leaves an ``error`` key instead.

Speed normalisation. On a shared host the same code runs up to twice as
fast or as slow from one second to the next, because neighbours load the
physical cores. The child therefore times a fixed calibration kernel right
after set-up, every SAMPLE_PERIOD_S during the execution (from a SIGALRM
handler, so on this process's own CPU), and once more at the end.
``speed`` is the mean of REFERENCE_KERNEL_S / kernel time over those
samples: about 1 on an unloaded core, about 0.5 at half speed. Reported
times are raw times multiplied by ``speed``, i.e. seconds at the reference
speed; the raw clock readings are returned beside them. Time spent in the
kernel during an execution is subtracted from the execution's raw times and
from the tracer's clock.
"""

import contextlib
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

# Time of one calibration kernel on an unloaded core of the 2-core x86-64
# virtual machine the benchmark was built on (Python 3.11, numpy 2.4).
# Fixed for good: it only scales the reported times.
REFERENCE_KERNEL_S = 0.4e-3
SAMPLE_PERIOD_S = 0.1
EDGE_SAMPLES = 3  # kernel samples right after set-up and after the execution


def kernel() -> float:
    """Wall time of a fixed mix of the work swnet does: small numpy calls,
    interpreted float arithmetic and exact rationals."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.arange(4.0)
    x = 0.0
    f = Fraction(0)
    for i in range(60):
        b = np.maximum(a - 1.0, 0.0) + 0.5
        x += float(b.max()) * 1.0000001
        f += Fraction(i % 5, 7)
    return time.perf_counter() - t0


class SpeedSampler:
    """Collects kernel times; ``periodic`` samples every SAMPLE_PERIOD_S."""

    def __init__(self) -> None:
        kernel()  # the first call pays one-off warm-up costs
        self.kernel_s: list[float] = []
        self.spent_wall = 0.0  # inside the periodic handler
        self.spent_cpu = 0.0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.kernel_s.append(kernel())

    def speed(self) -> float:
        return sum(REFERENCE_KERNEL_S / k for k in self.kernel_s) / len(self.kernel_s)

    def _on_alarm(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.sample()
        self.spent_cpu += time.process_time() - c0
        self.spent_wall += time.perf_counter() - w0

    @contextlib.contextmanager
    def periodic(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image. ru_maxrss would also count
    the parent's memory, inherited across fork before exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> dict:
    root, scenario_path, out_dir, mode = argv[:4]
    if mode not in ("setup", "execute", "trace"):
        raise ValueError(f"unknown mode {mode!r}")
    src = os.path.join(root, "src")
    with open(scenario_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import swnet
    from swnet import cli

    t1 = time.perf_counter()
    if not os.path.abspath(swnet.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"swnet imported from {swnet.__file__}, not from {src}")
    sampler = SpeedSampler()
    tracer = None
    if mode == "trace":
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        # a clock that stands still while the sampler's kernel runs
        tr = tracer.Tracer(clock=lambda: time.perf_counter() - sampler.spent_wall)
    with tracer.tracing(swnet, tr) if tracer else contextlib.nullcontext():
        t2 = time.perf_counter()
        cfg = cli.parse_scenario(raw)
        t3 = time.perf_counter()
        sampler.sample(EDGE_SAMPLES)
        setup_raw = (t1 - t0) + (t3 - t2)
        rec = {"setup_raw_s": setup_raw, "setup_s": setup_raw * sampler.speed()}
        if mode != "setup":
            with sampler.periodic():
                c0, w0 = time.process_time(), time.perf_counter()
                code = cli.execute(cfg, out_dir, threads=1)
                w1, c1 = time.perf_counter(), time.process_time()
            sampler.sample(EDGE_SAMPLES)
    import numpy as np

    rec.update(python=sys.version.split()[0], numpy=np.__version__, peak_rss_mb=_peak_rss_mb())
    if mode == "setup":
        return rec
    speed = sampler.speed()
    wall_raw = (w1 - w0) - sampler.spent_wall
    cpu_raw = (c1 - c0) - sampler.spent_cpu
    rec.update(
        exit_code=int(code),
        speed=speed,
        wall_raw_s=wall_raw,
        cpu_raw_s=cpu_raw,
        wall_s=wall_raw * speed,
        cpu_s=cpu_raw * speed,
    )
    if mode == "trace":
        layers, shares = tracer.layer_metrics(tr.spans, speed)
        layers["cli.output_bytes"] = sum(
            e.stat().st_size for e in os.scandir(out_dir) if e.is_file()
        )
        rec["layers"] = layers
        rec["shares"] = shares
        with open(argv[4], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": tr.spans}, fh)
    return rec


if __name__ == "__main__":
    try:
        result = main(sys.argv[1:])
    except Exception as exc:  # report, let the parent count the failure
        traceback.print_exc()
        result = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    sys.exit(1 if "error" in result else 0)
