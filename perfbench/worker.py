"""Child process of the benchmark: a set-up probe or a closed timing loop.

    worker.py setup WORKLOAD WORKDIR
        import the package, parse and validate the generated scenario and
        build the initial measure, then run the calibration loop once and
        print ``ready <time.time() at the end of set-up> <scale>``: the
        parent times interpreter start to that moment and multiplies by
        ``scale``, REF_CALIBRATION_S over the calibration time.  (In trials,
        sampling during the set-up itself tracked the speed less well.)

    worker.py loop WORKLOAD WORKDIR SECONDS TRACE RESULT [SPANS]
        run iterations back to back until the next one would end past
        SECONDS, gate each one, and write a JSON record per iteration to
        RESULT.  With TRACE=1 every iteration runs under the span tracer
        and the spans are written to SPANS (gzip CSV) at the end.

Timings are calibrated against a fixed amount of NumPy work on arrays
like the solver's.  On a shared host the speed of the core
drifts by up to ~1.7x over seconds to minutes, and CPU time drifts with
it.  While an iteration runs, a SIGALRM handler times a few rounds of
the workload's calibration loop every SAMPLE_INTERVAL_S, so the samples
cover the iteration's own window.  The iteration's wall time minus the
time spent sampling, scaled by the reference time per round over the
mean sampled time per round, is its time at a fixed reference speed,
which drifts far less.  Sampling only reads the clock and its own
arrays: the program's results do not change.

Only the parent (``run.py``) is meant to call this.
"""

import gzip
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy

import workloads

# REF_CALIBRATION_S is the time of CALIBRATION_ROUNDS rounds of the
# small loop at the reference speed
REF_CALIBRATION_S = 0.25
CALIBRATION_ROUNDS = 40000
SAMPLE_INTERVAL_S = 0.01


class Loop:
    """A calibration loop: rounds of NumPy arithmetic over arrays of ``sizes``.

    ``ref_round_s`` is one round's time at the reference speed, and
    ``sample_rounds`` the rounds one sample times: about 0.2 ms, so
    sampling every SAMPLE_INTERVAL_S takes ~2.5% of an iteration.
    """

    def __init__(self, sizes, ref_round_s, sample_rounds):
        self.xs = tuple(numpy.linspace(1.0, 2.0, n) for n in sizes)
        self.ref_round_s = ref_round_s
        self.sample_rounds = sample_rounds

    def time(self, rounds):
        xs, k = self.xs, len(self.xs)
        start = time.perf_counter()
        for i in range(rounds):
            x = xs[i % k]
            y = numpy.sqrt(x * x + i)
            float(((y - x) / y).sum())
        return time.perf_counter() - start


# "small" alternates a cache-resident and a solver-sized array, like the
# scalar callbacks and the per-step array passes of the corridor runs
# and the campaign; "large" is like the study's 16384-sample arrays.
# Each workload is sampled with the loop that tracked its speed best in
# trials (inputs.CALIBRATION_LOOP).
LOOPS = {
    "small": Loop((32, 1024), REF_CALIBRATION_S / CALIBRATION_ROUNDS, 32),
    "large": Loop((16384,), REF_CALIBRATION_S / 4500, 3),
}


def calibrate():
    """Seconds the small calibration loop takes right now."""
    return LOOPS["small"].time(CALIBRATION_ROUNDS)


class SpeedSampler:
    """Samples a calibration loop from SIGALRM while an iteration runs."""

    def __init__(self, loop):
        self.loop = loop
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        self.samples.append(self.loop.time(self.loop.sample_rounds))

    def start(self):
        self.samples.clear()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        """``(seconds spent sampling, calibration seconds)`` of the window.

        The calibration seconds are the time the reference loop (which
        takes REF_CALIBRATION_S at the reference speed) would take at
        the mean sampled speed.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        spent = sum(self.samples)
        if not self.samples:  # an iteration shorter than one interval
            self._sample(None, None)
        per_round = sum(self.samples) / (len(self.samples) * self.loop.sample_rounds)
        return spent, REF_CALIBRATION_S * per_round / self.loop.ref_round_s


def _setup(name, work):
    workloads.setup(name, work)
    ready = time.time()
    print("ready", repr(ready), repr(REF_CALIBRATION_S / calibrate()), flush=True)


def _loop(name, work, seconds, traced, result, spans_path):
    import scipy

    from tracer import FlowLog, Tracer

    params = json.loads((work / "inputs.json").read_text())
    out = workloads.outputs_dir(work, traced)
    log = FlowLog()
    log.install()
    tracer = Tracer() if traced else None
    sampler = SpeedSampler(LOOPS[params["calibration_loop"]])
    records, all_spans, peak_rss_mb = [], [], None
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
            tracer.install()
        sampler.start()
        t0 = time.perf_counter()
        try:
            status, report = workloads.run_once(name, work, params, out)
            error = None
        except Exception:
            error = traceback.format_exc(limit=4)
        wall = time.perf_counter() - t0
        sampled, calib = sampler.stop()
        if tracer:
            tracer.uninstall()
        steps, fingerprint = log.take()
        if peak_rss_mb is None:
            # ru_maxrss is in KiB on Linux: the peak of a fresh process
            # that has run exactly one iteration
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is None:
            try:
                ops, failed, gap, msgs = workloads.check(
                    name, work, params, out, status, report)
            except Exception:
                error = traceback.format_exc(limit=4)
        if error is not None:
            ops, failed, gap, msgs = 1, 1, None, [error]
        rec = {"wall_s": wall, "sampled_s": sampled, "calibration_s": calib,
               "cal_wall_s": (wall - sampled) * REF_CALIBRATION_S / calib,
               "steps": steps, "ops": ops, "failed": failed,
               "ref_w2_gap": gap, "messages": msgs[:5], "fingerprint": fingerprint}
        if tracer:
            rec["layers"] = tracer.metrics()
            all_spans.append(list(tracer.spans))
        records.append(rec)
        if time.perf_counter() - start + wall > seconds:
            break
    log.uninstall()
    probe = None
    if name == "campaign" and not traced:
        gap = workloads.campaign_reference_gap()
        probe = {"ref_w2_gap": workloads.floored(gap),
                 "messages": workloads.gap_gate(params, gap)}
    result.write_text(json.dumps({
        "iterations": records,
        "peak_rss_mb": peak_rss_mb,
        "campaign_probe": probe,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))
    if spans_path:
        with gzip.open(spans_path, "wt") as f:
            f.write("iteration,id,name,start,end,parent\n")
            for it, spans in enumerate(all_spans):
                for sid, (nm, s, e, parent) in enumerate(spans):
                    f.write(f"{it},{sid},{nm},{s!r},{e!r},{parent}\n")


def main(argv):
    mode, name, work = argv[0], argv[1], Path(argv[2])
    if mode == "setup":
        _setup(name, work)
    else:
        seconds, traced, result = float(argv[3]), argv[4] == "1", Path(argv[5])
        _loop(name, work, seconds, traced, result, argv[6] if len(argv) > 6 else None)


if __name__ == "__main__":
    main(sys.argv[1:])
