"""One share of a workload's run in one fresh process.

Usage: worker.py WORKLOAD SEED CHILD SECONDS TRACE TMPDIR SPAWNED_AT

Set-up (import and one untimed warm-up operation), then a closed loop:
one operation at a time until about SECONDS of operation time have been
measured.  CHILD picks this process's own seeded input stream.
SPAWNED_AT is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so set-up time counts interpreter start-up.

With TRACE = 1 each input runs twice, untraced and traced in alternating
order: the outputs must be byte-identical, the traced copy gives the
per-layer numbers and the pair gives the tracing overhead.

Prints one JSON object as the last line of standard output.
"""

import json
import resource
import sys
import time

from tracing import Tracer
from workloads import WORKLOADS


def _peak_rss_mb(in_process):
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _run_traced(workload, tracer, inp, tag):
    tracer.reset()
    with tracer.patched(workload.trace_targets()):
        return workload.run(inp, tag, tracer)


def _attempt(fn, *args):
    """(op, None) or (None, error text): an operation that raises counts
    as failed and the loop goes on."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - any failure of the program under test
        return None, f"raised {type(exc).__name__}: {exc}"


def main(argv):
    name, seed, child, seconds, trace, tmpdir, spawned_at = argv
    seconds, trace, spawned_at = float(seconds), trace == "1", float(spawned_at)
    workload = WORKLOADS[name](tmpdir)
    stream = workload.inputs(int(seed), int(child))
    tracer = Tracer()

    import_s = workload.load()
    warm_input = workload.warm_input()
    table_build_s = None
    if trace and workload.table_in_setup:
        # first call builds the lazy 3j table; an immediate repeat at the
        # same j finds it cached, and the difference is the build
        _run_traced(workload, tracer, warm_input, "warm")
        first = tracer.total("wigner.closed")
        warm = _run_traced(workload, tracer, warm_input, "warm")
        table_build_s = first - tracer.total("wigner.closed")
    else:
        warm = workload.run(warm_input, "warm")
    setup_s = time.monotonic() - spawned_at

    if not workload.in_process:
        workload.load_oracle()
    # the warm-up is checked too and counts as one attempted operation
    attempted, failed, errors = 1, 0, []
    error = workload.check(warm_input, warm)
    if error is not None:
        failed += 1
        errors.append(f"warm-up {warm_input}: {error}")

    op_times, layer_samples = [], []
    plain_total = traced_total = 0.0
    # stop at the operation boundary nearest to SECONDS (judged by the
    # last operation), so slow operations do not overshoot by a whole one
    busy = last = 0.0
    while busy + 0.5 * last < seconds:
        inp = next(stream)
        attempted += 1
        start = time.perf_counter()
        if trace:
            if attempted % 2:
                plain, error = _attempt(workload.run, inp, "plain")
            traced, error2 = _attempt(_run_traced, workload, tracer, inp, "traced")
            if not attempted % 2:
                plain, error = _attempt(workload.run, inp, "plain")
            last = time.perf_counter() - start
            error = error or error2 or workload.check(inp, plain)
            if error is None and traced.fingerprint != plain.fingerprint:
                error = "traced output differs from untraced output"
            if error is None:
                plain_total += plain.seconds
                traced_total += traced.seconds
                layer_samples.append(workload.layer_metrics(tracer, traced))
        else:
            op, error = _attempt(workload.run, inp, "op")
            last = time.perf_counter() - start
            error = error or workload.check(inp, op)
            if error is None:
                op_times.append(op.seconds)
        busy += last
        if error is not None:
            failed += 1
            errors.append(f"{inp}: {error}")

    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "op_times": op_times,
        "peak_rss_mb": _peak_rss_mb(workload.in_process),
        "layer_samples": layer_samples,
        "import_s": import_s,
        "table_build_s": table_build_s,
        "plain_total": plain_total,
        "traced_total": traced_total,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
