"""Command line interface.

Subcommands:
  state         dump one conditional state as JSON
  entanglement  sweep log negativity over t (mixture or one sector)
  criteria      sweep every witness over t
  steering      alias of criteria (same columns)
  wigner        write one Wigner function on the display lattice
  verify        run the split/project vs effective-evolution equivalence suite,
                and check each fast path against its independent oracle

Each command declares only the flags it reads (_COMMANDS), and main
hands the command line to that command's own parser, which reads it
once (an unknown flag is reported as 'usage: sqsplit <command> ...');
the top-level parser only prints the help or the usage error when argv
names no command.  A --config JSON file is read through the same
parser: key k becomes the flag --k-with-dashes=value placed ahead of
the command line, so it gets the same types and choices, explicit flags
win, null leaves the flag unset, and a key that is not one of the
command's flags is a usage error.  A time must be finite and keep the
twisting phase 8 |t| n^2 finite; --steps is at most 10^5, criteria's
--n at most 10^15 (10^9 in conditional mode) and mixed entanglement's
at most 2000, and the one conditional sector of state and conditional
entanglement holds at most 2^20 amplitudes.

entanglement writes t,logneg_lo,logneg_hi in mixed mode, the certified
log_negativity_bracket of the windowed sector mixture (a wider
--epsilon widens it), and t,logneg in conditional mode, the one
sector's untrimmed log negativity.

A criteria point costs O(1) at any N in either mode: closed-form
moments, witnesses that read each MomentSet once as plain floats, one
argparse pass and one binary write.

Outputs are deterministic: floats are printed with 17 significant
digits, lines end with LF, the parsed flags other than --config, --out
and --threads are echoed into every output (a '#'-prefixed JSON comment
line in CSV files), and sweeps fan t-points over a thread pool whose
results are written in input order, so --threads never changes a byte.
No command's bytes follow the BLAS library's own thread count either
(OPENBLAS_NUM_THREADS); the *_bytes_do_not_depend_on_blas_threads
tests pin criteria, entanglement and wigner under one and two threads.
The criteria and steering moments of either mode are closed forms with
no BLAS reduction; each entanglement sector is decomposed from its real
entangler parts C and S, whose singular values came out the same under
one and two threads (one conditional sector at n = 400, where those of
the complex amplitude matrix differed, and the mixture at n = 800); and
Wigner values are real einsum half-sums that never call BLAS.
A witness that is undefined at a time point is written as NaN in CSV
and as null in JSON, which has no NaN.
Exit codes: 0 success, 2 usage error, 3 verification failure.
"""

import argparse
import functools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .entangle import log_negativity_bracket, log_negativity_mixed, log_negativity_pure
# unused here; kept because perfbench's criteria workload patches sqsplit.cli.rotate_moments
from .observables import moments, rotate_moments  # noqa: F401
from .statekit import (
    effective_evolution,
    mixed_split_state,
    one_axis_twist,
    spin_coherent,
    twisted_split,
)
from .wigner import conditional_wigner_closed, display_lattice, marginal_wigner_closed
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

_CRITERIA_COLUMNS = ("t", "E_D", "E_CM", "E_G", "xi", "E_LR", "E_RL", "g_y", "g_z", "theta")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# a WitnessResult as the tuple of its fields, in order; not
# dataclasses.astuple, which deep-copies every float
_WITNESS_ROW = operator.attrgetter(*(f.name for f in fields(wit.WitnessResult)))


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
    out: str | None = None
    format: str = "csv"
    threads: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise UsageError("--n must be nonnegative")
        _check_time("--t-min", self.t_min, self.n)
        _check_time("--t-max", self.t_max, self.n)
        if not math.isfinite(self.epsilon):
            raise UsageError(f"--epsilon must be finite, got {self.epsilon!r}")
        if self.mode not in ("mixed", "conditional"):
            raise UsageError("--mode must be 'mixed' or 'conditional'")
        if self.mode == "conditional":
            if self.nl is None:
                raise UsageError("--mode conditional requires --nl")
            if not 0 <= self.nl <= self.n:
                raise UsageError("--nl must lie in [0, n]")
        if self.steps < 1:
            raise UsageError("--steps must be positive")
        if self.steps > _STEPS_MAX:
            raise UsageError(f"--steps is limited to {_STEPS_MAX}")
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


def _fmt(x):
    return f"{x:.17g}"


# Largest criteria --n: the witnesses of the closed-form moments hold their
# large-N limit (xi n^(2/3) -> 1.0400 at t = 0.3 n^(-2/3)) to 1e-5 up to
# n = 10^17, drift by 3e-4 at 10^18 and collapse at 10^19; 10^15 < 2^53
# also keeps n, n - 1 and n - 2 exact doubles.
_N_MAX = 10**15

# Largest conditional criteria --n: a row's xi, which reads the total
# spin alone, must equal the mixed row's, but both sum per-well terms of
# size n/4 to a variance of size n^(1/3); they differ by 2.3e-10
# (relative) at 10^9 and 1.5e-9 at 10^10, worst over t n^(2/3) in
# 0.01 .. 10 and nl / n in 0 .. 1.
_CONDITIONAL_N_MAX = 10**9

# Largest entry count (nl + 1)(n - nl + 1) of the one conditional sector
# of state and conditional entanglement: at n = 2000, nl = 1000
# (1,002,001 entries) an entanglement point took 0.74 s, and state 7.5 s
# and 514 MB on 2 vCPUs; at n = 3000 they took 3.8 s and 1.1 GB.
_SECTOR_ENTRIES_MAX = 2**20

# Largest --steps, checked before the time grid is allocated: criteria
# --n 500 --steps 100000 took 8 s and 128 MB peak RSS and wrote a
# 16.5 MB CSV on 2 vCPUs, about 1 KB of memory per row.
_STEPS_MAX = 10**5


def _check_sector(n, nl):
    """One conditional sector, checked before it is allocated."""
    if (nl + 1) * (n - nl + 1) > _SECTOR_ENTRIES_MAX:
        raise UsageError(
            f"a conditional sector is limited to (nl + 1)(n - nl + 1) <= "
            f"{_SECTOR_ENTRIES_MAX} amplitudes (n = 2000, nl = 1000 fits)"
        )


def _check_time(flag, t, n):
    """t must be finite, and so must the twisting phases at n atoms:
    they reach 8 |t| n^2 (the twist (S^z)^2 t with |S^z| <= n, the
    cos(8t) of the moments, the 4 n^2 t of the Wigner closed forms)."""
    if not math.isfinite(t):
        raise UsageError(f"{flag} must be finite, got {t!r}")
    try:
        phase = 8.0 * abs(t) * max(n, 1) ** 2
    except OverflowError:  # n^2 beyond the float range
        phase = math.inf
    if t != 0.0 and not math.isfinite(phase):
        raise UsageError(f"{flag} {t!r} overflows the twisting phase 8 |t| n^2 at n = {n}")


def _parallel_map(fn, items, threads):
    if threads <= 1:
        return [fn(item) for item in items]
    # imported here: concurrent.futures pulls in logging, which would
    # cost every command line a few ms of import
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        # the text is ASCII with LF line ends; binary mode skips the
        # text layer's newline and encoder pass
        with open(path, "wb") as fh:
            fh.write(text.encode())
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}")


# json.dumps(config, sort_keys=True) without building an encoder per call
_ECHO_JSON = json.JSONEncoder(sort_keys=True).encode


def _csv_head(config, columns):
    return ["# " + _ECHO_JSON(config), ",".join(columns)]


def _write_csv(path, config, columns, rows):
    lines = _csv_head(config, columns)
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _lattice_csv(config, thetas, phis, values):
    """CSV text theta,phi,w of a (theta x phi) lattice in theta-major
    order, byte for byte what _write_csv writes, with each theta and phi
    formatted once."""
    lines = _csv_head(config, ("theta", "phi", "w"))
    middles = ["," + _fmt(phi) + "," for phi in phis.tolist()]
    for theta, row in zip(thetas.tolist(), values):
        head = _fmt(theta)
        lines.extend([f"{head}{mid}{w:.17g}" for mid, w in zip(middles, row.tolist())])
    return "\n".join(lines) + "\n"


def _json_row(row):
    # RFC 8259 has no NaN; an undefined witness cell is written as null
    return [None if math.isnan(x) else x for x in row]


def _write_json(path, payload):
    _write_text(path, json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n")


# Largest mixed entanglement --n: at n = 2000 a bracket point took
# 0.70-0.91 s (t = 0 .. 0.02, 2 vCPUs, one BLAS thread) and the default
# window left a width of 6.5e-10 in log2; n = 2200 took 0.76-1.03 s.
_MIXED_N_MAX = 2000


def run_entanglement_sweep(cfg):
    """Rows of log negativity over the time grid.

    In mixed mode each row is (t, lower, upper), the certified
    log_negativity_bracket of mixed_split_state(n, t, window=epsilon):
    a wider --epsilon window drops more sectors and widens the bracket.
    In conditional mode each row is (t, log negativity), the
    log_negativity_pure of the sector, taken untrimmed from its real
    entangler parts C and S, as a mixture's sector pair's.
    """
    if cfg.mode == "mixed" and cfg.n > _MIXED_N_MAX:
        raise UsageError(f"mixed-state negativity is limited to n <= {_MIXED_N_MAX}")
    if cfg.mode == "conditional":
        _check_sector(cfg.n, cfg.nl)

    def one(t):
        t = float(t)
        if cfg.mode == "mixed":
            return (t, *log_negativity_bracket(mixed_split_state(cfg.n, t, window=cfg.epsilon)))
        return t, log_negativity_pure(effective_evolution(cfg.nl, cfg.n - cfg.nl, t))

    return _parallel_map(one, cfg.time_grid(), cfg.threads)


def run_criteria_sweep(cfg):
    """Rows of every witness value over the time grid.

    In mixed mode the moments come from the split state before the
    number collapse: every witness reads moments of operators that
    conserve N_L, which the binomial mixture over N_L sectors shares
    exactly, so no mixture is built and --epsilon plays no part.  The
    split state is twisted_split(n, t) and the conditional sector
    effective_evolution(nl, n - nl, t); the moments of both are closed
    forms of the one-axis-twisted coherent state (Kitagawa & Ueda,
    PRA 47, 5138 (1993)), so each point costs O(1) at any N, no
    amplitude is built and no BLAS reduction enters: the bytes do not
    depend on the BLAS threads.
    """
    if cfg.n < 3:
        raise UsageError("criteria needs --n >= 3 for the squeezing angle")
    if cfg.n > _N_MAX:
        raise UsageError("criteria is limited to n <= 10^15")
    if cfg.mode == "conditional" and cfg.n > _CONDITIONAL_N_MAX:
        raise UsageError("conditional criteria is limited to n <= 10^9")

    def one(t):
        t = float(t)
        if cfg.mode == "mixed":
            state = twisted_split(cfg.n, t)
        else:
            state = effective_evolution(cfg.nl, cfg.n - cfg.nl, t)
        return _WITNESS_ROW(wit.witness_suite(moments(state), t))

    return _parallel_map(one, cfg.time_grid(), cfg.threads)


def run_wigner(n, nl, kind, k_r, t):
    """Wigner grid of the requested kind at one time point."""
    if n > 40:
        raise UsageError("Wigner reconstruction is limited to n <= 40")
    if nl is None:
        raise UsageError("wigner requires --nl")
    if not 0 <= nl <= n:
        raise UsageError("--nl must lie in [0, n]")
    if kind == "marginal":
        return marginal_wigner_closed(nl, n - nl, t)
    if kind != "conditional":
        raise UsageError("--kind must be 'marginal' or 'conditional'")
    if k_r is None:
        raise UsageError("conditional Wigner requires --kr")
    if not 0 <= k_r <= n - nl:
        raise UsageError("--kr must lie in [0, n - nl]")
    return conditional_wigner_closed(nl, n - nl, k_r, t)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the equivalence suite: each fast path against the
    independent route that pins it."""

    max_n: int
    t_values: tuple
    tolerance: float
    checks: int
    worst_residual: float
    worst_case: tuple
    sector_law_error: float
    moment_error: float
    mixture_moment_error: float
    sector_moment_error: float
    negativity_error: float
    bracket_excess: float
    threej_error: float
    passed: bool

    def lines(self):
        return [
            f"equivalence suite: N = 1..{self.max_n}, "
            f"{len(self.t_values)} squeezing times, {self.checks} sector checks",
            f"worst amplitude residual {self.worst_residual:.3e} "
            f"at (N, N_L, t) = {self.worst_case}",
            f"worst sector-probability error {self.sector_law_error:.3e}",
            f"worst closed-form split-moment error {self.moment_error:.3e}",
            f"worst sector-route mixture-moment error {self.mixture_moment_error:.3e}",
            f"worst closed-form sector-moment error {self.sector_moment_error:.3e}",
            f"worst dense-vs-C/S mixed negativity error {self.negativity_error:.3e}",
            f"worst dense negativity outside the bracket {self.bracket_excess:.3e}",
            f"worst Racah-vs-recursion 3j error {self.threej_error:.3e} "
            f"(2j = 0..{self.max_n})",
            f"tolerance {self.tolerance:.1e}: {'PASS' if self.passed else 'FAIL'}",
        ]


def _worse(worst, err):
    """The larger of two errors; a NaN error is inf, so it fails."""
    return math.inf if math.isnan(err) else max(worst, err)


def _moment_gap(got, want):
    """Largest entry of got - want (means, V, Omega) over max(1, max|V|)."""
    diff = np.concatenate(
        [got.means - want.means, (got.V - want.V).ravel(), (got.Omega - want.Omega).ravel()]
    )
    return float(np.abs(diff).max()) / max(1.0, float(np.abs(want.V).max()))


# Largest verify --n.  A whole `sqsplit verify --n` process (median of 5,
# 2 vCPUs, one BLAS thread) took 0.36 s at 12, 0.74 s at 16 and 1.36 s
# at 20; 16 keeps the suite under 2 s when the host runs 1.7x slower.
# The sector-moment check took --n 16 from 0.58 s to 0.66 s.
_VERIFY_N_MAX = 16


def run_equivalence_suite(
    max_n=10,
    t_values=(0.05, 0.3, 1.0, math.pi / 8.0),
    tolerance=1e-12,
    phase_error=0.0,
):
    """Certify each fast path against an independent route.

    For every N <= max_n, every left sector and every probe time, the
    projected sector of the beam-split twisted coherent state is
    compared elementwise with the closed-form conditional state, and
    its Gram moments with the closed-form moments of that state; sector
    probabilities are compared with the exact binomial law C(N, N_L) /
    2^N.  At every N and probe time the closed-form moments of
    twisted_split(N, t) are compared with the O(N) moments of the split
    amplitudes and with the Gram moments of mixed_split_state(N, t,
    window=0) summed sector by sector; every moment check is relative
    to the largest covariance entry.  The dense partial
    transpose of that mixture is compared with log_negativity_mixed and
    must lie inside log_negativity_bracket.  For every 2j <= max_n the
    recursive 3j table is compared entry by entry with the Racah sum.
    The independent routes come from sqsplit._oracles, which no other
    production code imports.
    phase_error is a self-test hook that corrupts the closed-form phases
    so the suite can demonstrate it actually fails on wrong states.
    """
    from . import _oracles
    from .wigner import _threej_table

    if not 1 <= max_n <= _VERIFY_N_MAX:
        raise UsageError(f"equivalence suite supports 1 <= max_n <= {_VERIFY_N_MAX}")
    worst = 0.0
    worst_case = None
    checks = 0
    errors = dict.fromkeys(
        ("sector_law_error", "moment_error", "mixture_moment_error", "sector_moment_error",
         "negativity_error", "bracket_excess", "threej_error"),
        0.0,
    )

    def note(name, err):
        errors[name] = _worse(errors[name], err)

    for n in range(1, max_n + 1):
        for t in t_values:
            state = one_axis_twist(spin_coherent(_INV_SQRT2, _INV_SQRT2, n), t)
            closed = moments(twisted_split(n, t))
            note("moment_error", _moment_gap(closed, _oracles.split_moments(state)))
            mixture = mixed_split_state(n, t, window=0.0)
            sectors = _oracles.mixture_moments(mixture.blocks)
            note("mixture_moment_error", _moment_gap(sectors, closed))
            dense = _oracles.log_negativity_dense(mixture, max_n=max_n)
            note("negativity_error", abs(dense - log_negativity_mixed(mixture)))
            low, high = log_negativity_bracket(mixture)
            outside = 0.0 if low <= dense <= high else max(low - dense, dense - high)
            note("bracket_excess", outside)
            for n_left in range(n + 1):
                prob, cond = _oracles.project_left_number(state, n_left)
                reference = effective_evolution(n_left, n - n_left, t)
                gram = _oracles.sector_moments(cond)
                note("sector_moment_error", _moment_gap(moments(reference), gram))
                psi = reference.psi
                if phase_error != 0.0:
                    psi = psi * np.exp(1j * phase_error * np.arange(n_left + 1)[:, None])
                # a NaN residual reads inf
                residual = _worse(0.0, float(np.abs(cond.psi - psi).max()))
                expected = math.comb(n, n_left) / 2**n
                note("sector_law_error", abs(prob - expected) / expected)
                checks += 1
                if residual > worst:
                    worst = residual
                    worst_case = (n, n_left, float(t))
    for two_j in range(max_n + 1):
        table = _threej_table(two_j)
        j = 0.5 * two_j
        for (k, i, ip), got in np.ndenumerate(table):
            m, mp = i - j, ip - j
            want = _oracles.wigner_3j(j, k, j, -m, m - mp, mp) if abs(i - ip) <= k else 0.0
            note("threej_error", abs(float(got) - want))
    return EquivalenceReport(
        max_n=max_n,
        t_values=tuple(float(t) for t in t_values),
        tolerance=tolerance,
        checks=checks,
        worst_residual=worst,
        worst_case=worst_case,
        **errors,
        passed=all(err <= tolerance for err in (worst, *errors.values())),
    )


# every long flag of the command line, by name (without the leading --)
_FLAGS = {
    "n": dict(
        type=int, help=f"total atom number (verify: largest, <= {_VERIFY_N_MAX}; default 10)"
    ),
    "nl": dict(type=int, help="left-well atom number"),
    "mode": dict(choices=["mixed", "conditional"], default="mixed"),
    "t-min": dict(type=float, default=0.0),
    "t-max": dict(type=float, default=0.02),
    "steps": dict(type=int, default=200),
    "epsilon": dict(
        type=float,
        default=1e-12,
        help="mixture truncation window; a wider one widens the printed bracket",
    ),
    "format": dict(choices=["csv", "json"], default="csv"),
    "kind": dict(choices=["marginal", "conditional"], default="marginal"),
    "kr": dict(type=int, help="right-well outcome"),
    "t": dict(type=float, default=0.0, help="squeezing time"),
    "out": dict(help="output path (stdout when omitted)"),
    "threads": dict(type=int, help="worker threads (env SQSPLIT_THREADS)"),
    "inject-phase-error": dict(type=float, default=0.0, help=argparse.SUPPRESS),
}

_SWEEP_FLAGS = ("n", "mode", "nl", "t-min", "t-max", "steps", "format", "out", "threads")

# command -> (help, the flags it reads besides --config)
_COMMANDS = {
    "state": ("dump one conditional state as JSON", ("n", "nl", "t", "out", "threads")),
    "entanglement": ("log-negativity sweep", _SWEEP_FLAGS + ("epsilon",)),
    "criteria": ("witness sweep (t, E_D, E_CM, E_G, ...)", _SWEEP_FLAGS),
    "steering": ("alias of criteria", _SWEEP_FLAGS),
    "wigner": (
        "Wigner function on the display lattice",
        ("n", "nl", "kind", "kr", "t", "out", "threads"),
    ),
    "verify": ("equivalence suite", ("n", "inject-phase-error")),
}


@functools.cache
def _build_parser():
    """The top-level parser and its dict of command parsers, built once
    per process: parse_args leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="sqsplit",
        description="Exact simulation of split spin-squeezed two-component ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON object whose keys are this command's flags")
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
    return parser, sub.choices


def _parse_argv(argv):
    """The Namespace of a command line, --config resolved.

    argv[0] names the command, and its own parser reads the rest once,
    giving the Namespace the top-level parser gives, which classifies
    every token a second time.  The top-level parser reads only an argv
    that names no command: it prints the help or the usage error and
    exits.  A config file's flags go ahead of the command line through
    the command's parser.
    """
    top, commands = _build_parser()
    if not argv or argv[0] not in commands:
        top.parse_args(argv)
    command, rest = argv[0], argv[1:]
    parser = commands[command]
    args = parser.parse_args(rest, argparse.Namespace(command=command))
    if args.config is not None:
        tokens = _config_flags(command, args.config) + rest
        args = parser.parse_args(tokens, argparse.Namespace(command=command))
    return args


def _config_flags(command, path):
    """The --flag=value tokens that the config file at path stands for."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    tokens = []
    for key, value in data.items():
        flag = key.replace("_", "-")
        if flag not in _COMMANDS[command][1]:
            raise UsageError(f"config file key {key!r} is not a flag of {command}")
        if value is not None:
            tokens.append(f"--{flag}={value}")
    return tokens


def _resolve_threads(value):
    if value is None:
        env = os.environ.get("SQSPLIT_THREADS")
        if not env:
            return 1
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"SQSPLIT_THREADS must be an integer, got {env!r}")
    if value < 1:
        raise UsageError("--threads must be positive")
    return value


def _cmd_state(args, echo):
    if args.nl is None:
        raise UsageError("state requires --nl")
    if not 0 <= args.nl <= args.n:
        raise UsageError("--nl must lie in [0, n]")
    _check_sector(args.n, args.nl)
    _check_time("--t", args.t, args.n)
    state = effective_evolution(args.nl, args.n - args.nl, args.t)
    payload = {
        "n_left": state.n_left,
        "n_right": state.n_right,
        "t": args.t,
        "amplitudes": [
            [float(z.real), float(z.imag)] for z in state.psi.ravel()
        ],
        "config": echo,
    }
    _write_json(args.out, payload)
    return 0


def _cmd_sweep(args, echo):
    cfg = SweepConfig(**{k: v for k, v in vars(args).items() if k not in ("command", "config")})
    if args.command == "entanglement":
        columns = ("t", "logneg_lo", "logneg_hi") if cfg.mode == "mixed" else ("t", "logneg")
        rows = run_entanglement_sweep(cfg)
    else:
        columns, rows = _CRITERIA_COLUMNS, run_criteria_sweep(cfg)
    if cfg.format == "json":
        payload = {"config": echo, "columns": list(columns), "rows": [_json_row(r) for r in rows]}
        _write_json(cfg.out, payload)
    else:
        _write_csv(cfg.out, echo, columns, rows)
    return 0


def _cmd_wigner(args, echo):
    _check_time("--t", args.t, args.n)
    grid = run_wigner(args.n, args.nl, args.kind, args.kr, args.t)
    thetas, phis, values = display_lattice(grid)
    _write_text(args.out, _lattice_csv(echo, thetas, phis, values))
    sidecar = {
        "j": grid.j,
        "t": args.t,
        "normalization": grid.norm_constant,
        "config": echo,
    }
    if args.kind == "conditional":
        sidecar["k_r"] = args.kr
    if args.out is not None:
        base = args.out[:-4] if args.out.endswith(".csv") else args.out
        try:
            _write_json(base + ".json", sidecar)
        except UsageError:
            # a lattice is never left behind without its sidecar
            os.remove(args.out)
            raise
    return 0


def _cmd_verify(args):
    report = run_equivalence_suite(
        max_n=10 if args.n is None else args.n, phase_error=args.inject_phase_error
    )
    for line in report.lines():
        print(line)
    return 0 if report.passed else 3


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_argv(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.n is None:
            raise UsageError("--n is required")
        args.threads = _resolve_threads(args.threads)
        # execution settings stay out so --threads and --out change no byte
        echo = {k: v for k, v in vars(args).items() if k not in ("config", "out", "threads")}
        if args.command == "state":
            return _cmd_state(args, echo)
        if args.command == "wigner":
            return _cmd_wigner(args, echo)
        return _cmd_sweep(args, echo)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
