"""Command line interface.

Subcommands:
  state         dump one conditional state as JSON
  entanglement  sweep log negativity over t (mixture or one sector)
  criteria      sweep every witness over t
  steering      alias of criteria (same columns)
  wigner        write one Wigner function on the display lattice
  verify        run the split/project vs effective-evolution equivalence suite

Outputs are deterministic: floats are printed with 17 significant
digits, lines end with LF, the resolved configuration is echoed into
every output (a '#'-prefixed JSON comment line in CSV files), and
sweeps fan t-points over a thread pool whose results are written in
input order, so any --threads value produces byte-identical files.
A witness that is undefined at a time point is written as NaN in CSV
and as null in JSON, which has no NaN.
Exit codes: 0 success, 2 usage error, 3 verification failure.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .entangle import log_negativity_mixed, log_negativity_pure
# unused here; kept because perfbench's criteria workload patches sqsplit.cli.rotate_moments
from .observables import moments, rotate_moments  # noqa: F401
from .statekit import (
    effective_evolution,
    mixed_split_state,
    one_axis_twist,
    project_left_number,
    spin_coherent,
    split,
)
from .wigner import (
    conditional_wigner_closed,
    display_lattice,
    gauss_legendre_sphere,
    marginal_wigner_closed,
)
from . import witness as wit

__all__ = [
    "SweepConfig",
    "EquivalenceReport",
    "run_entanglement_sweep",
    "run_criteria_sweep",
    "run_wigner",
    "run_equivalence_suite",
    "main",
]

_CRITERIA_COLUMNS = (
    "t",
    "E_D",
    "E_CM",
    "E_G",
    "xi",
    "E_LR",
    "E_RL",
    "g_y",
    "g_z",
    "theta",
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class UsageError(ValueError):
    """Bad command line / config combination (exit code 2)."""


@dataclass(frozen=True)
class SweepConfig:
    """Resolved settings shared by the sweep commands."""

    n: int
    mode: str = "mixed"
    nl: int | None = None
    t_min: float = 0.0
    t_max: float = 0.02
    steps: int = 200
    epsilon: float = 1e-12
    order: int | None = None
    out: str | None = None
    format: str = "csv"
    threads: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise UsageError("--n must be nonnegative")
        for flag, value in (
            ("--t-min", self.t_min),
            ("--t-max", self.t_max),
            ("--epsilon", self.epsilon),
        ):
            if not math.isfinite(value):
                raise UsageError(f"{flag} must be finite, got {value!r}")
        if self.mode not in ("mixed", "conditional"):
            raise UsageError("--mode must be 'mixed' or 'conditional'")
        if self.mode == "conditional":
            if self.nl is None:
                raise UsageError("--mode conditional requires --nl")
            if not 0 <= self.nl <= self.n:
                raise UsageError("--nl must lie in [0, n]")
        if self.steps < 1:
            raise UsageError("--steps must be positive")
        if self.t_max < self.t_min:
            raise UsageError("--t-max must not be below --t-min")
        if self.epsilon < 0:
            raise UsageError("--epsilon must be nonnegative")
        if self.threads < 1:
            raise UsageError("--threads must be positive")
        if self.format not in ("csv", "json"):
            raise UsageError("--format must be 'csv' or 'json'")

    def time_grid(self):
        return np.linspace(self.t_min, self.t_max, self.steps)

    def echo(self, **extra):
        # execution details (threads, output path) are left out so runs
        # with different parallelism stay byte-identical
        cfg = {
            "n": self.n,
            "mode": self.mode,
            "nl": self.nl,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "steps": self.steps,
            "epsilon": self.epsilon,
            "order": self.order,
            "format": self.format,
        }
        cfg.update(extra)
        return cfg


def _fmt(x):
    return f"{x:.17g}"


def _parallel_map(fn, items, threads):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _write_csv(path, config, columns, rows):
    lines = ["# " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _json_row(row):
    # RFC 8259 has no NaN; an undefined witness cell is written as null
    return [None if math.isnan(x) else x for x in row]


def _write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def run_entanglement_sweep(cfg):
    """Rows (t, log negativity) over the time grid."""
    if cfg.mode == "mixed" and cfg.n > 24:
        raise UsageError("mixed-state negativity is limited to n <= 24")

    def one(t):
        t = float(t)
        if cfg.mode == "mixed":
            state = mixed_split_state(cfg.n, t, window=cfg.epsilon)
            return t, log_negativity_mixed(state)
        state = effective_evolution(cfg.nl, cfg.n - cfg.nl, t)
        return t, log_negativity_pure(state)

    return _parallel_map(one, cfg.time_grid(), cfg.threads)


def run_criteria_sweep(cfg):
    """Rows of every witness value over the time grid.

    In mixed mode the moments come from the split state before the
    number collapse: every witness reads moments of operators that
    conserve N_L, which the binomial mixture over N_L sectors shares
    exactly, so no mixture is built and --epsilon plays no part.
    """
    if cfg.n < 3:
        raise UsageError("criteria needs --n >= 3 for the squeezing angle")
    coherent = spin_coherent(_INV_SQRT2, _INV_SQRT2, cfg.n)

    def one(t):
        t = float(t)
        if cfg.mode == "mixed":
            state = split(one_axis_twist(coherent, t))
        else:
            state = effective_evolution(cfg.nl, cfg.n - cfg.nl, t)
        return astuple(wit.witness_suite(moments(state), t))

    return _parallel_map(one, cfg.time_grid(), cfg.threads)


def run_wigner(cfg, kind, k_r, t):
    """Wigner grid of the requested kind at one time point."""
    if cfg.n > 40:
        raise UsageError("Wigner reconstruction is limited to n <= 40")
    if cfg.nl is None:
        raise UsageError("wigner requires --nl")
    if not 0 <= cfg.nl <= cfg.n:
        raise UsageError("--nl must lie in [0, n]")
    n_right = cfg.n - cfg.nl
    rule = None
    if cfg.order is not None:
        if cfg.order < 1:
            raise UsageError("--order must be positive")
        rule = gauss_legendre_sphere(cfg.order, 2 * cfg.order)
    if kind == "marginal":
        grid = marginal_wigner_closed(cfg.nl, n_right, t, rule)
    elif kind == "conditional":
        if k_r is None:
            raise UsageError("conditional Wigner requires --kr")
        if not 0 <= k_r <= n_right:
            raise UsageError("--kr must lie in [0, n - nl]")
        grid = conditional_wigner_closed(cfg.nl, n_right, k_r, t, rule)
    else:
        raise UsageError("--kind must be 'marginal' or 'conditional'")
    return grid


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the split/project vs effective-evolution check."""

    max_n: int
    t_values: tuple
    tolerance: float
    checks: int
    worst_residual: float
    worst_case: tuple
    sector_law_error: float
    passed: bool

    def lines(self):
        out = [
            f"equivalence suite: N = 1..{self.max_n}, "
            f"{len(self.t_values)} squeezing times, {self.checks} sector checks",
            f"worst amplitude residual {self.worst_residual:.3e} "
            f"at (N, N_L, t) = {self.worst_case}",
            f"worst sector-probability error {self.sector_law_error:.3e}",
            f"tolerance {self.tolerance:.1e}: {'PASS' if self.passed else 'FAIL'}",
        ]
        return out


def run_equivalence_suite(
    max_n=10,
    t_values=(0.05, 0.3, 1.0, math.pi / 8.0),
    tolerance=1e-12,
    phase_error=0.0,
):
    """Certify split-then-project == direct conditional construction.

    For every N <= max_n, every left sector and every probe time, the
    projected sector of the beam-split twisted coherent state is
    compared elementwise with the closed-form conditional state, and
    sector probabilities are compared with the binomial law.
    phase_error is a self-test hook that corrupts the closed-form phases
    so the suite can demonstrate it actually fails on wrong states.
    """
    if not 1 <= max_n <= 12:
        raise UsageError("equivalence suite supports 1 <= max_n <= 12")
    worst = 0.0
    worst_case = None
    sector_err = 0.0
    checks = 0
    for n in range(1, max_n + 1):
        for t in t_values:
            state = one_axis_twist(spin_coherent(_INV_SQRT2, _INV_SQRT2, n), t)
            full = split(state)
            for n_left in range(n + 1):
                prob, cond = project_left_number(full, n_left)
                reference = effective_evolution(n_left, n - n_left, t)
                psi = reference.psi
                if phase_error != 0.0:
                    twiddle = np.exp(
                        1j * phase_error * np.arange(n_left + 1)[:, None]
                    )
                    psi = psi * twiddle
                residual = float(np.abs(cond.psi - psi).max())
                expected = math.exp(
                    math.lgamma(n + 1)
                    - math.lgamma(n_left + 1)
                    - math.lgamma(n - n_left + 1)
                    - n * math.log(2.0)
                )
                law = abs(prob - expected) / expected
                checks += 1
                if residual > worst:
                    worst = residual
                    worst_case = (n, n_left, float(t))
                sector_err = max(sector_err, law)
    passed = worst <= tolerance and sector_err <= tolerance
    return EquivalenceReport(
        max_n=max_n,
        t_values=tuple(float(t) for t in t_values),
        tolerance=tolerance,
        checks=checks,
        worst_residual=worst,
        worst_case=worst_case,
        sector_law_error=sector_err,
        passed=passed,
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sqsplit",
        description="Exact simulation of split spin-squeezed two-component ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sweep=True):
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--n", type=int, help="total atom number")
        p.add_argument("--nl", type=int, help="left-well atom number")
        p.add_argument("--mode", choices=["mixed", "conditional"])
        p.add_argument(
            "--epsilon",
            type=float,
            help="mixture truncation window (entanglement only; "
            "criteria moments in mixed mode are exact)",
        )
        p.add_argument("--order", type=int, help="quadrature order override")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--threads", type=int, help="worker threads (env SQSPLIT_THREADS)")
        if sweep:
            p.add_argument("--t-min", type=float, dest="t_min")
            p.add_argument("--t-max", type=float, dest="t_max")
            p.add_argument("--steps", type=int)

    p_state = sub.add_parser("state", help="dump one conditional state as JSON")
    common(p_state, sweep=False)
    p_state.add_argument("--t", type=float, help="squeezing time")

    p_ent = sub.add_parser("entanglement", help="log-negativity sweep")
    common(p_ent)

    for name in ("criteria", "steering"):
        p_crit = sub.add_parser(name, help="witness sweep (t, E_D, E_CM, E_G, ...)")
        common(p_crit)

    p_wig = sub.add_parser("wigner", help="Wigner function on the display lattice")
    common(p_wig, sweep=False)
    p_wig.add_argument("--kind", choices=["marginal", "conditional"])
    p_wig.add_argument("--kr", type=int, help="right-well outcome")
    p_wig.add_argument("--t", type=float, help="squeezing time")

    p_ver = sub.add_parser("verify", help="equivalence suite")
    p_ver.add_argument("--config", help="JSON file with defaults for any flag")
    p_ver.add_argument("--n", type=int, help="largest total atom number (<= 12)")
    p_ver.add_argument(
        "--inject-phase-error", type=float, default=0.0, help=argparse.SUPPRESS
    )
    return parser


def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _resolve(args, key, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    file_cfg = getattr(args, "_file_cfg", {})
    if key in file_cfg and file_cfg[key] is not None:
        return file_cfg[key]
    return default


def _resolve_threads(args):
    value = _resolve(args, "threads")
    if value is None:
        env = os.environ.get("SQSPLIT_THREADS")
        if env:
            try:
                value = int(env)
            except ValueError:
                raise UsageError(f"SQSPLIT_THREADS must be an integer, got {env!r}")
    return int(value) if value is not None else 1


def _sweep_config(args, need_n=True):
    n = _resolve(args, "n")
    if n is None:
        if need_n:
            raise UsageError("--n is required")
        n = 0
    return SweepConfig(
        n=int(n),
        mode=_resolve(args, "mode", "mixed"),
        nl=_resolve(args, "nl"),
        t_min=float(_resolve(args, "t_min", 0.0)),
        t_max=float(_resolve(args, "t_max", 0.02)),
        steps=int(_resolve(args, "steps", 200)),
        epsilon=float(_resolve(args, "epsilon", 1e-12)),
        order=_resolve(args, "order"),
        out=_resolve(args, "out"),
        format=_resolve(args, "format", "csv"),
        threads=_resolve_threads(args),
    )


def _resolve_time(args):
    t = float(_resolve(args, "t", 0.0))
    if not math.isfinite(t):
        raise UsageError(f"--t must be finite, got {t!r}")
    return t


def _cmd_state(args):
    cfg = _sweep_config(args)
    nl = _resolve(args, "nl")
    if nl is None:
        raise UsageError("state requires --nl")
    nl = int(nl)
    if not 0 <= nl <= cfg.n:
        raise UsageError("--nl must lie in [0, n]")
    t = _resolve_time(args)
    state = effective_evolution(nl, cfg.n - nl, t)
    payload = {
        "n_left": state.n_left,
        "n_right": state.n_right,
        "t": t,
        "amplitudes": [
            [float(z.real), float(z.imag)] for z in state.psi.ravel()
        ],
        "config": cfg.echo(command="state", t=t, nl=nl),
    }
    _write_json(cfg.out, payload)
    return 0


def _cmd_entanglement(args):
    cfg = _sweep_config(args)
    rows = run_entanglement_sweep(cfg)
    config = cfg.echo(command="entanglement")
    if cfg.format == "json":
        _write_json(
            cfg.out,
            {"config": config, "columns": ["t", "logneg"], "rows": [_json_row(r) for r in rows]},
        )
    else:
        _write_csv(cfg.out, config, ("t", "logneg"), rows)
    return 0


def _cmd_criteria(args, command):
    cfg = _sweep_config(args)
    rows = run_criteria_sweep(cfg)
    config = cfg.echo(command=command)
    if cfg.format == "json":
        _write_json(
            cfg.out,
            {
                "config": config,
                "columns": list(_CRITERIA_COLUMNS),
                "rows": [_json_row(r) for r in rows],
            },
        )
    else:
        _write_csv(cfg.out, config, _CRITERIA_COLUMNS, rows)
    return 0


def _cmd_wigner(args):
    cfg = _sweep_config(args)
    kind = _resolve(args, "kind", "marginal")
    k_r = _resolve(args, "kr")
    if k_r is not None:
        k_r = int(k_r)
    t = _resolve_time(args)
    grid = run_wigner(cfg, kind, k_r, t)
    thetas, phis, values = display_lattice(grid)
    config = cfg.echo(command="wigner", kind=kind, kr=k_r, t=t)
    rows = (
        (theta, phi, values[i, m])
        for i, theta in enumerate(thetas)
        for m, phi in enumerate(phis)
    )
    _write_csv(cfg.out, config, ("theta", "phi", "w"), rows)
    sidecar = {
        "j": grid.j,
        "t": t,
        "normalization": grid.norm_constant,
        "config": config,
    }
    if kind == "conditional":
        sidecar["k_r"] = k_r
    if cfg.out is not None:
        base = cfg.out[:-4] if cfg.out.endswith(".csv") else cfg.out
        _write_json(base + ".json", sidecar)
    return 0


def _cmd_verify(args):
    n = _resolve(args, "n", 10)
    report = run_equivalence_suite(
        max_n=int(n), phase_error=float(getattr(args, "inject_phase_error", 0.0))
    )
    for line in report.lines():
        print(line)
    return 0 if report.passed else 3


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args._file_cfg = _load_config_file(getattr(args, "config", None))
        if args.command == "state":
            return _cmd_state(args)
        if args.command == "entanglement":
            return _cmd_entanglement(args)
        if args.command in ("criteria", "steering"):
            return _cmd_criteria(args, args.command)
        if args.command == "wigner":
            return _cmd_wigner(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
