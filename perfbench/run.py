"""permrank benchmark: run one workload (or all) and report its metrics.

    python3 perfbench/run.py --workload modp-k7 --seed 1 --seconds 18 --trace 0

Each workload runs in a fresh child process, one at a time, as a closed loop
with one client: the next pass starts when the previous one ends.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced child,
plus the tracing overhead against an untraced child with the same seed.
Every output is checked; the JSON line's ``failed``/``attempted`` is the
failure ratio.  Outputs (traces, results, the k=8 bitmap) go to
``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("modp-k7", "exact-k6", "build-k8", "toolkit")

#: Fresh-interpreter imports timed per run besides the workload child's own;
#: setup_s is the median.
SETUP_SAMPLES = 8

#: Later performance claims must also hold on this seed; never tune on it.
HELD_OUT_SEED = 104729

#: A run must end within 180 s; the slowest child takes about 50 s.
CHILD_TIMEOUT_S = 170


#: Threads allowed to every parallel runtime the package may load.  One
#: thread is at most nproc on any machine, and it keeps the numbers steady
#: on a small shared host: with two, OpenBLAS starts a pool at import and
#: ``import permrank`` swings with the load on the other core.
THREADS = "1"
THREAD_VARS = ("PERMRANK_THREADS", "NUMBA_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"})
    env.update({var: THREADS for var in THREAD_VARS})
    return env


def run_child(args: list[str], env: dict[str, str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool, scratch: Path) -> dict:
    env = child_env()
    run_child(["--setup-only"], env)  # writes bytecode and warms the file cache; not timed
    setups = [run_child(["--setup-only"], env)["setup_s"] for _ in range(SETUP_SAMPLES)]
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--scratch", str(scratch)]
    plain = run_child(common, env)
    setups.append(plain["setup_s"])
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "held_out_seed": HELD_OUT_SEED, "untraced": plain}
    pass_s = statistics.median(plain["pass_s"])
    metrics = {
        "pass_s": {"value": pass_s, "unit": "s"},
        "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    checked = [plain]
    if trace:
        traced = run_child(common + ["--traced"], env)
        result["traced"] = traced
        checked.append(traced)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced["pass_s"]) - pass_s, "unit": "s"}
    result["metrics"] = metrics
    result["attempted"] = sum(r["attempted"] for r in checked)
    result["failed"] = sum(r["failed"] for r in checked)
    result["refused"] = sum(r["refused"] for r in checked)
    return result


def report(result: dict) -> None:
    plain = result["untraced"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}  (closed loop, 1 client)")
    env = plain["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + " " + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    print(f"seeds workload={result['seed']} held_out={result['held_out_seed']} "
          + " ".join(f"{k}={v}" for k, v in plain["seeds"].items()))
    print(f"passes {len(plain['pass_s'])}: " + " ".join(f"{t:.4f}" for t in plain["pass_s"]) + " s")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio {failed / attempted:.6g} ({failed} failed of {attempted} attempted; "
          f"{result['refused']} refused at the exact-elimination cap)")
    for line in plain["failures"] + result.get("traced", {}).get("failures", []):
        print(f"FAIL {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "permrank" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'permrank'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace), scratch)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        report(result)
        out = scratch / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1) + "\n")
        results.append(result)
    metrics = results[0]["metrics"] if len(results) == 1 else {
        f"{r['workload']}.{name}": metric for r in results for name, metric in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
