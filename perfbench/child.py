"""One benchmark child process: time a fresh ``import permrank``, then run
one workload's passes for the given number of seconds.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  The
import is timed before any other module is loaded, so it pays for every
module the package pulls in.  The last line of stdout is a JSON record.
"""

import sys
import time

_t0 = time.perf_counter()
import permrank  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from run import THREAD_VARS  # noqa: E402


def fingerprint() -> dict:
    """What ran, observed from outside the package."""
    import mpmath
    import numpy

    from permrank import permmatrix

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "modp_kernel": "numpy-fallback" if permmatrix.numba is None else "numba",
        "exact_ints": "python-int" if permmatrix.mpz is int else "gmpy2.mpz",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, scratch: Path) -> dict:
    import tracing
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[name]()
    caches = tracing.package_caches()
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        pass_span = tracer.intern(tracing.PASS_SPAN)
    rng = random.Random(seed)
    tally = Tally()
    pass_times = []
    peak_rss_mb = None
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        pass_seed = rng.getrandbits(32)
        tally.record("passes", pass_seed)
        inputs = workload.inputs(pass_seed, scratch)
        for cached in caches:  # every pass pays the cold-cache cost a CLI run pays
            cached.cache_clear()
        if tracer is not None:
            tracer.pass_no = len(pass_times)
            span = tracer.open(pass_span)
        t = time.perf_counter()
        ops = workload.run(inputs)
        pass_times.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.close(span)
        if peak_rss_mb is None:  # one solve's peak, before checks and later passes
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.check(inputs, ops, tally)
        del ops, inputs
    record = {
        "setup_s": SETUP_S,
        "pass_s": pass_times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "refused": tally.refused,
        "failures": tally.failures,
        "seeds": tally.seeds,
        "env": fingerprint(),
    }
    if tracer is not None:
        record["layers"] = {name: {"value": value, "unit": tracing.LAYER_UNITS[name]}
                            for name, value in tracing.layer_metrics(tracer).items()}
        tracer.save(scratch / f"trace-{name}.npz")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--scratch", type=Path)
    args = parser.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(permrank.__file__).resolve().is_relative_to(src):
        print(f"error: imported permrank from {permrank.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        record = {"setup_s": SETUP_S}
    else:
        record = run_workload(args.workload, args.seed, args.seconds, args.traced, args.scratch)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
