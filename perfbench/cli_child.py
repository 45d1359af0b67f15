"""Traced stand-in for ``python -m sqsplit.cli``.

Usage: cli_child.py SPANS_JSON -- <sqsplit cli arguments>

Runs the command line exactly as ``python -m sqsplit.cli`` would, with
the Wigner layers wrapped in spans, then writes the spans to SPANS_JSON
together with:
  import_s       time to import sqsplit.cli in this fresh interpreter
  table_build_s  first closed-form call minus an immediate repeat at
                 the same j (the repeat finds the 3j table cached)
  norm_drift     |sphere_integral / sqrt(4 pi / (2j + 1)) - 1|
  post_s         time spent after cli.main returned, so the caller can
                 take this bookkeeping off the operation's wall time
"""

import json
import math
import sys
import time

from tracing import Tracer


def main(argv):
    spans_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_JSON -- <cli arguments>")
    start = time.perf_counter()
    import sqsplit.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    targets = [
        (cli, "marginal_wigner_closed", "wigner.closed"),
        (cli, "conditional_wigner_closed", "wigner.closed"),
        (cli, "display_lattice", "wigner.display_lattice"),
    ]
    with tracer.patched(targets):
        with tracer.span("cli.main"):
            rc = cli.main(cli_argv)

    post_start = time.perf_counter()
    payload = tracer.dump()
    payload.update(import_s=import_s, table_build_s=None, norm_drift=None)
    if "wigner.closed" in tracer.results:
        import sqsplit

        fn, args, kwargs, grid = tracer.results["wigner.closed"]
        first = tracer.total("wigner.closed")
        repeat_start = time.perf_counter()
        fn(*args, **kwargs)
        payload["table_build_s"] = first - (time.perf_counter() - repeat_start)
        expected = math.sqrt(4.0 * math.pi / (2.0 * grid.j + 1.0))
        payload["norm_drift"] = abs(sqsplit.sphere_integral(grid) / expected - 1.0)
    payload["post_s"] = time.perf_counter() - post_start
    with open(spans_path, "w") as fh:
        json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
