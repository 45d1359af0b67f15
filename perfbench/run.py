"""sqsplit benchmark: closed-loop workloads driven from outside the package.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts three child processes for the workload, one after the
other.  Each child sets up (import plus one untimed warm-up operation)
and then measures S/3 seconds of operations, so setup_s is the median of
three set-ups and the operation samples are spread over the whole run.
With --trace 1 every input runs untraced and traced and the children
report per-layer metrics instead.  A per-layer metric whose wrapper
never fired on the workload is reported as -1 and named on the
"missing" line.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

CHILDREN = 3
DEADLINE_S = 170.0
MISSING = -1


def tail_latency(samples):
    """(value, percentile, beyond): the latency at the highest percentile
    with at least ten samples above it.  Below 21 samples that sample
    lies under the median; the tail is unresolved and the median is
    returned instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n // 2
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # single-threaded numerics: one client, one operation at a time
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SQSPLIT_THREADS", None)
    return env


def _run_child(args, child, tmpdir, deadline):
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
        str(child), repr(args.seconds / CHILDREN), str(args.trace), tmpdir, repr(spawned_at),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{args.workload} child {child} exceeded the time limit")
    finally:
        # a killed worker must not leave a CLI grandchild behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise SystemExit(f"{args.workload} child {child} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _metric(spec_entry, value):
    return {"value": value, "unit": spec_entry["unit"]}


def _layers(children):
    """Per-op medians of each layer metric pooled over the children, plus
    the once-per-child ones; None where a wrapper never fired."""
    samples = [sample for c in children for sample in c["layer_samples"]]
    layers = {}
    for name in {name for sample in samples for name in sample}:
        values = [s[name] for s in samples if s.get(name) is not None]
        layers[name] = statistics.median(values) if values else None
    for key, name in (("import_s", "cli.import_s"), ("table_build_s", "wigner.table_build_s")):
        values = [c[key] for c in children if c[key] is not None]
        if values:
            layers[name] = statistics.median(values)
    plain = sum(c["plain_total"] for c in children)
    if plain > 0.0:
        layers["trace.overhead"] = sum(c["traced_total"] for c in children) / plain - 1.0
    return layers


def _report(args, spec, children):
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# attempted {attempted} failed {failed} failed_frac {failed / attempted:.6g}")
    for child in children:
        for error in child["errors"]:
            print(f"# failure: {error}")
    metrics = {}
    if args.trace:
        layers = _layers(children)
        missing = [m["name"] for m in spec["per_layer"] if layers.get(m["name"]) is None]
        print(f"# missing (reported as {MISSING}): {', '.join(missing) or 'none'}")
        for entry in spec["per_layer"]:
            value = layers.get(entry["name"])
            metrics[entry["name"]] = _metric(entry, MISSING if value is None else value)
    else:
        times = [t for c in children for t in c["op_times"]]
        if not times:
            raise SystemExit("no operation completed")
        tail, pct, beyond = tail_latency(times)
        note = "" if len(times) >= 21 else ", unresolved below 21 samples: the median"
        print(f"# op_tail_s is p{pct:.4g} of {len(times)} samples ({beyond} beyond it{note})")
        print("# op seconds: " + " ".join(f"{x:.3f}" for x in times))
        values = {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "ops_per_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail,
            "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        }
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = _metric(entry, values[entry["name"]])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind through _run_child, which kills the child's group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "sqsplit", "cli.py")):
        print("error: src/sqsplit not found next to perfbench/", file=sys.stderr)
        return 2
    spec = _load_spec()
    deadline = time.monotonic() + DEADLINE_S
    tmpdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    try:
        children = [_run_child(args, child, tmpdir, deadline) for child in range(CHILDREN)]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmpdir))
        except OSError:
            pass
    _report(args, spec, children)
    return 0


if __name__ == "__main__":
    sys.exit(main())
