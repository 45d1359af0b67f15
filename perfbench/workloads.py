"""The benchmark workloads: seeded inputs, one operation, its oracle, and
the layers a traced run wraps.

Every operation reaches sqsplit through its public API or its command
line; the program only ever sees the generated arguments.  Names are
looked up on the module at call time (``sqsplit.cli.main``,
``sqsplit.mixed_split_state``, ...) so a traced run can patch them.

Import this module before sqsplit: it only needs the standard library
until a workload's ``load`` runs.
"""

import json
import math
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

CRITERIA_COLUMNS = ("t", "E_D", "E_CM", "E_G", "xi", "E_LR", "E_RL", "g_y", "g_z", "theta")
N_CRITERIA = 500
T_MAX_CRITERIA = 0.02
N_WIGNER_CLI, NL_WIGNER_CLI = 40, 36
N_HERALD = 40
T_MAX_WIGNER = math.pi / 8.0

XI_RTOL = 1e-9
BRACKET_MAX_WIDTH = 1e-9
WIGNER_RTOL = 1e-9
NORM_TOL = 1e-10


def _fmt_ok(cell):
    return f"{float(cell):.17g}" == cell


def _nan_cells(row):
    return sum(1 for cell in row if cell == "nan")


class Op:
    """Outcome of one operation: wall time, a fingerprint that must be
    byte-identical between traced and untraced runs, and whatever the
    oracle and the layer metrics need."""

    def __init__(self, seconds, fingerprint, data):
        self.seconds = seconds
        self.fingerprint = fingerprint
        self.data = data


class Workload:
    name = None
    in_process = True
    # True when the first call builds a cache that the traced run should
    # isolate as wigner.table_build_s (first call minus a repeat)
    table_in_setup = False

    def __init__(self, tmpdir):
        self.tmpdir = tmpdir

    def inputs(self, seed, child=0):
        """Endless deterministic input stream for a seed; each child
        process of a run draws its own stream."""
        rng = random.Random(f"{self.name}/{seed}/{child}")
        index = 0
        while True:
            yield self.make_input(rng, index)
            index += 1

    def warm_input(self):
        """The untimed warm-up input: fixed, so every run and every seed
        pays the same set-up work."""
        return self.make_input(random.Random(f"{self.name}/warm-up"), 0)

    def load(self):
        """Import what the operation needs; returns the import time, or
        None when the workload imports nothing in this process."""
        return None

    def trace_targets(self):
        return []


def unsplit_xi(sq, n, t, theta):
    """Wineland xi of the unsplit twisted coherent state on the axis
    z' = sin(theta) y + cos(theta) z.  Total-spin moments survive the
    split and number projection, so the mixture's xi must agree."""
    import numpy as np

    a = sq.one_axis_twist(sq.spin_coherent(math.sqrt(0.5), math.sqrt(0.5), n), t).amplitudes
    k = np.arange(n + 1)
    u = np.sqrt((k[:-1] + 1.0) * (n - k[:-1]))
    up = np.zeros_like(a)
    up[1:] = u * a[:-1]
    down = np.zeros_like(a)
    down[:-1] = u * a[1:]
    sx = 0.5 * (up + down)
    sy = (up - down) / 2j
    sz = (k - 0.5 * n) * a
    zp = math.sin(theta) * sy + math.cos(theta) * sz
    mean_x = np.vdot(a, sx).real
    mean_z = np.vdot(a, zp).real
    return n * (np.vdot(zp, zp).real - mean_z * mean_z) / (mean_x * mean_x)


class CriteriaN500(Workload):
    """cli.main criteria at N = 500, one t per operation."""

    name = "criteria-n500"

    def make_input(self, rng, index):
        return {"t": repr(rng.uniform(0.0, T_MAX_CRITERIA))}

    def load(self):
        start = time.perf_counter()
        import sqsplit.cli  # noqa: F401

        elapsed = time.perf_counter() - start
        import sqsplit

        self.sq = sqsplit
        return elapsed

    def argv(self, inp, out):
        t = inp["t"]
        return [
            "criteria", "--n", str(N_CRITERIA), "--mode", "mixed",
            "--t-min", t, "--t-max", t, "--steps", "1",
            "--threads", "1", "--out", out,
        ]

    def run(self, inp, tag, tracer=None):
        out = os.path.join(self.tmpdir, f"criteria-{tag}.csv")
        argv = self.argv(inp, out)
        main = self.sq.cli.main
        start = time.perf_counter()
        if tracer is None:
            rc = main(argv)
        else:
            with tracer.span("cli.main"):
                rc = main(argv)
        seconds = time.perf_counter() - start
        with open(out, "rb") as fh:
            blob = fh.read()
        os.remove(out)
        return Op(seconds, blob, {"rc": rc, "blob": blob})

    def check(self, inp, op):
        if op.data["rc"] != 0:
            return f"exit code {op.data['rc']}"
        lines = op.data["blob"].decode().split("\n")
        if len(lines) != 4 or lines[3] != "" or not lines[0].startswith("# "):
            return "CSV must be a config line, a header and one row"
        json.loads(lines[0][2:])
        if lines[1] != ",".join(CRITERIA_COLUMNS):
            return f"header {lines[1]!r}"
        row = lines[2].split(",")
        if len(row) != len(CRITERIA_COLUMNS) or not all(_fmt_ok(c) for c in row):
            return f"row is not ten %.17g cells: {lines[2]!r}"
        cells = dict(zip(CRITERIA_COLUMNS, map(float, row)))
        if cells["t"] != float(inp["t"]):
            return f"row t {cells['t']!r} != {inp['t']}"
        expected = unsplit_xi(self.sq, N_CRITERIA, cells["t"], cells["theta"])
        if not abs(cells["xi"] - expected) <= XI_RTOL * abs(expected):
            return f"xi {cells['xi']!r} != unsplit {expected!r}"
        return None

    def trace_targets(self):
        cli, wit = self.sq.cli, self.sq.witness
        return [
            (cli, "mixed_split_state", "statekit.mixed_split_state"),
            (cli, "moments", "observables.moments"),
            (cli, "rotate_moments", "observables.rotate_moments"),
            (wit, "giovannetti", "witness.giovannetti"),
            (wit, "covariance_criterion", "witness.covariance_criterion"),
            (wit, "dgcz", "witness.other"),
            (wit, "wineland_xi", "witness.other"),
            (wit, "epr_steering", "witness.other"),
            (wit, "squeezing_angle", "witness.other"),
        ]

    def layer_metrics(self, tracer, op):
        mixture = _result(tracer, "statekit.mixed_split_state")
        row = op.data["blob"].decode().split("\n")[2].split(",")
        fired = tracer.fired("witness.giovannetti")
        return {
            "statekit.mixed_split_state_s": tracer.total("statekit.mixed_split_state"),
            "statekit.sectors": None if mixture is None else len(mixture.blocks),
            "statekit.retained_mass": None if mixture is None else mixture.retained_mass,
            "observables.moments_s": tracer.total("observables.moments"),
            "observables.rotate_moments_s": tracer.total("observables.rotate_moments"),
            "witness.giovannetti_s": tracer.total("witness.giovannetti"),
            "witness.covariance_criterion_s": tracer.total("witness.covariance_criterion"),
            "witness.other_s": tracer.total("witness.other"),
            "witness.undefined": _nan_cells(row) if fired else None,
            "cli.self_s": tracer.self_time("cli.main"),
            "cli.out_bytes": len(op.data["blob"]),
        }


class NegativityN500(Workload):
    """log_negativity_bracket(mixed_split_state(500, t))."""

    name = "negativity-n500"

    def make_input(self, rng, index):
        return {"t": rng.uniform(0.0, T_MAX_CRITERIA)}

    def load(self):
        import numpy
        import sqsplit

        self.sq = sqsplit
        self.np = numpy
        return None

    def run(self, inp, tag, tracer=None):
        sq = self.sq
        start = time.perf_counter()
        bracket = sq.log_negativity_bracket(sq.mixed_split_state(N_CRITERIA, inp["t"]))
        seconds = time.perf_counter() - start
        fingerprint = "".join(float(x).hex() for x in bracket).encode()
        return Op(seconds, fingerprint, {"bracket": bracket})

    def check(self, inp, op):
        lower, upper = op.data["bracket"]
        if not (math.isfinite(lower) and math.isfinite(upper)):
            return f"bracket not finite: {lower!r}, {upper!r}"
        if not lower <= upper:
            return f"bracket inverted: {lower!r} > {upper!r}"
        if not upper - lower <= BRACKET_MAX_WIDTH:
            return f"bracket width {upper - lower!r} > {BRACKET_MAX_WIDTH}"
        return None

    def trace_targets(self):
        return [
            (self.sq, "mixed_split_state", "statekit.mixed_split_state"),
            (self.sq, "log_negativity_bracket", "entangle.bracket"),
            # one span per SVD the bracket performs
            (self.np.linalg, "svd", "entangle.svd"),
        ]

    def layer_metrics(self, tracer, op):
        mixture = _result(tracer, "statekit.mixed_split_state")
        lower, upper = op.data["bracket"]
        bracket_fired = tracer.fired("entangle.bracket")
        return {
            "statekit.mixed_split_state_s": tracer.total("statekit.mixed_split_state"),
            "statekit.sectors": None if mixture is None else len(mixture.blocks),
            "statekit.retained_mass": None if mixture is None else mixture.retained_mass,
            "entangle.bracket_s": tracer.total("entangle.bracket"),
            "entangle.sectors": tracer.count("entangle.svd") if bracket_fired else None,
            "entangle.bracket_width": upper - lower if bracket_fired else None,
        }


class WignerCli(Workload):
    """One fresh ``python -m sqsplit.cli wigner`` process per operation."""

    name = "wigner-cli"
    in_process = False

    def make_input(self, rng, index):
        return {
            "kind": "marginal" if index % 2 == 0 else "conditional",
            "k_r": rng.randint(0, N_WIGNER_CLI - NL_WIGNER_CLI),
            "t": repr(rng.uniform(0.0, T_MAX_WIGNER)),
        }

    def argv(self, inp, out):
        argv = ["wigner", "--n", str(N_WIGNER_CLI), "--nl", str(NL_WIGNER_CLI), "--kind", inp["kind"]]
        if inp["kind"] == "conditional":
            argv += ["--kr", str(inp["k_r"])]
        return argv + ["--t", inp["t"], "--threads", "1", "--out", out]

    def run(self, inp, tag, tracer=None):
        out = os.path.join(self.tmpdir, f"wigner-{tag}.csv")
        sidecar = out[:-4] + ".json"
        spans_path = os.path.join(self.tmpdir, f"spans-{tag}.json")
        if tracer is None:
            cmd = [sys.executable, "-m", "sqsplit.cli"] + self.argv(inp, out)
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, "--"]
            cmd += self.argv(inp, out)
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        seconds = time.perf_counter() - start
        data = {"rc": proc.returncode, "stderr": proc.stderr.decode(errors="replace")}
        blob = b""
        if proc.returncode == 0:
            with open(out, "rb") as fh:
                data["csv"] = fh.read()
            with open(sidecar, "rb") as fh:
                data["sidecar"] = fh.read()
            blob = data["csv"] + b"\0" + data["sidecar"]
            os.remove(out)
            os.remove(sidecar)
        if tracer is not None and os.path.exists(spans_path):
            with open(spans_path) as fh:
                data["child"] = json.load(fh)
            os.remove(spans_path)
            # the table repeat and the span dump run after cli.main
            # returns; they are bookkeeping, not part of the operation
            seconds -= data["child"]["post_s"]
        return Op(seconds, blob, data)

    def load_oracle(self):
        import numpy
        import sqsplit

        self.sq = sqsplit
        self.np = numpy

    def check(self, inp, op):
        sq, np = self.sq, self.np
        if op.data["rc"] != 0:
            return f"exit code {op.data['rc']}: {op.data['stderr'][-300:]}"
        lines = op.data["csv"].decode().split("\n")
        if not lines[0].startswith("# ") or lines[1] != "theta,phi,w" or lines[-1] != "":
            return "CSV must be a config line, the theta,phi,w header and rows"
        body = lines[2:-1]
        if len(body) != 181 * 361:
            return f"{len(body)} rows, expected {181 * 361}"
        cells = [c for line in body for c in line.split(",")]
        if len(cells) != 3 * len(body):
            return "rows are not three cells"
        table = np.array(cells, dtype=float).reshape(-1, 3)
        if not np.isfinite(table).all():
            return "non-finite cells"
        side = json.loads(op.data["sidecar"])
        if side["j"] != 0.5 * NL_WIGNER_CLI or side["t"] != float(inp["t"]):
            return f"sidecar {side!r}"
        state = sq.effective_evolution(NL_WIGNER_CLI, N_WIGNER_CLI - NL_WIGNER_CLI, float(inp["t"]))
        if inp["kind"] == "marginal":
            rho = sq.reduced_density_left(state).entries
        else:
            _, phi = sq.project_right_fock(state, inp["k_r"])
            rho = np.outer(phi.amplitudes, phi.amplitudes.conj())
        thetas, phis, values = sq.display_lattice(sq.wigner_from_density(rho))
        grid = np.column_stack(
            (np.repeat(thetas, phis.size), np.tile(phis, thetas.size), values.ravel())
        )
        err = float(np.abs(table - grid).max())
        if not err <= WIGNER_RTOL * max(1.0, float(np.abs(values).max())):
            return f"CSV differs from wigner_from_density by {err!r}"
        return None

    def layer_metrics(self, tracer, op):
        child = op.data.get("child")
        if child is None:
            return {}
        spans = type(tracer).load(child)
        return {
            "wigner.closed_s": spans.total("wigner.closed"),
            "wigner.table_build_s": child["table_build_s"],
            "wigner.display_lattice_s": spans.total("wigner.display_lattice"),
            "wigner.norm_drift": child["norm_drift"],
            "cli.import_s": child["import_s"],
            "cli.self_s": spans.self_time("cli.main"),
            "cli.out_bytes": len(op.data["csv"]) + len(op.data["sidecar"]),
        }


class WignerHeralded(Workload):
    """conditional_wigner_closed(40, 40, k_r, t), negativity_volume and
    sphere_integral in one long-lived process.

    Runnable by name but not listed in BENCHMARK.json: its ~0.15 s
    pure-Python operation runs 1.7x slower while the shared host is
    busy, for minutes at a time, so the median of a run lands in either
    mode and its run-to-run spread (0.23) sits at the 0.25 bound."""

    name = "wigner-heralded"
    table_in_setup = True

    def make_input(self, rng, index):
        return {"k_r": rng.randint(0, N_HERALD), "t": rng.uniform(0.0, T_MAX_WIGNER)}

    def load(self):
        import numpy
        import sqsplit

        self.sq = sqsplit
        self.np = numpy
        return None

    def run(self, inp, tag, tracer=None):
        sq = self.sq
        start = time.perf_counter()
        grid = sq.conditional_wigner_closed(N_HERALD, N_HERALD, inp["k_r"], inp["t"])
        volume = sq.negativity_volume(grid)
        integral = sq.sphere_integral(grid)
        seconds = time.perf_counter() - start
        fingerprint = (
            grid.values.tobytes() + grid.coeffs.tobytes()
            + float(volume).hex().encode() + float(integral).hex().encode()
        )
        return Op(seconds, fingerprint, {"grid": grid, "volume": volume, "integral": integral})

    def norm_drift(self, op):
        expected = math.sqrt(4.0 * math.pi / (N_HERALD + 1))
        return abs(op.data["integral"] / expected - 1.0)

    def check(self, inp, op):
        sq, np = self.sq, self.np
        grid = op.data["grid"]
        if not np.isfinite(grid.values).all():
            return "non-finite Wigner values"
        if not (math.isfinite(op.data["volume"]) and op.data["volume"] >= 0.0):
            return f"negativity volume {op.data['volume']!r}"
        if not self.norm_drift(op) <= NORM_TOL:
            return f"sphere integral {op.data['integral']!r} != sqrt(4 pi / (2j + 1))"
        state = sq.effective_evolution(N_HERALD, N_HERALD, inp["t"])
        _, phi = sq.project_right_fock(state, inp["k_r"])
        rho = np.outer(phi.amplitudes, phi.amplitudes.conj())
        reference = sq.wigner_from_density(rho, grid.rule).values
        err = float(np.abs(grid.values - reference).max())
        if not err <= WIGNER_RTOL * max(1.0, float(np.abs(reference).max())):
            return f"closed form differs from wigner_from_density by {err!r}"
        return None

    def trace_targets(self):
        return [(self.sq, "conditional_wigner_closed", "wigner.closed")]

    def layer_metrics(self, tracer, op):
        return {
            "wigner.closed_s": tracer.total("wigner.closed"),
            "wigner.norm_drift": self.norm_drift(op) if tracer.fired("wigner.closed") else None,
        }


def _result(tracer, name):
    found = tracer.results.get(name)
    return None if found is None else found[-1]


WORKLOADS = {w.name: w for w in (CriteriaN500, NegativityN500, WignerCli, WignerHeralded)}
