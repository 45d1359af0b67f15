import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple

import numpy as np
import pytest

import sqsplit
from sqsplit.cli import (
    EquivalenceReport,
    SweepConfig,
    UsageError,
    _write_csv,
    main,
    run_criteria_sweep,
    run_entanglement_sweep,
    run_equivalence_suite,
)
from sqsplit.entangle import log_negativity_bracket, log_negativity_pure
from sqsplit.observables import moments
from sqsplit.statekit import effective_evolution, mixed_split_state, twisted_split
from sqsplit.wigner import (
    conditional_wigner_closed,
    display_lattice,
    marginal_wigner_closed,
)
from sqsplit.witness import witness_suite


def run_cli(argv, env_threads=None):
    """Invoke main() capturing stdout/stderr and the exit code."""
    old = os.environ.pop("SQSPLIT_THREADS", None)
    if env_threads is not None:
        os.environ["SQSPLIT_THREADS"] = env_threads
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag or its value
        code = exc.code
    finally:
        os.environ.pop("SQSPLIT_THREADS", None)
        if old is not None:
            os.environ["SQSPLIT_THREADS"] = old
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    config = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[2:]]
    return config, columns, rows


@pytest.mark.parametrize("module", ["sqsplit", "sqsplit.cli"])
def test_import_leaves_scipy_out(module):
    # scipy is a test dependency only; a fresh import must not pull it in
    src = os.path.dirname(os.path.dirname(os.path.abspath(sqsplit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys, {module}; sys.exit(int('scipy' in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_parser_is_built_once():
    assert sqsplit.cli._build_parser() is sqsplit.cli._build_parser()
    # the shared parser carries no flag from one call into the next
    argv = ["criteria", "--n", "4", "--steps", "1"]
    for extra, t_max in ((["--t-max", "0.01"], 0.01), ([], 0.02)):
        code, out, _ = run_cli(argv + extra)
        assert code == 0
        assert parse_csv(out)[0]["t_max"] == t_max


# per command: a command line setting each flag it reads, a config file
# (null leaves a flag unset) and a flag that overrides the file
_PARSE_CASES = {
    "state": (
        ["--n", "6", "--nl", "3", "--t", "0.25", "--out", "s.json", "--threads", "2"],
        {"n": 6, "nl": 3, "t": 0.25, "threads": None},
        ["--t", "0.5"],
    ),
    "entanglement": (
        ["--n", "6", "--mode", "conditional", "--nl", "2", "--t-min", "0.1", "--t-max=0.3",
         "--steps", "4", "--epsilon", "1e-6", "--format", "json"],
        {"n": 6, "mode": "conditional", "nl": 2, "t_min": 0.1, "epsilon": 1e-6},
        ["--epsilon", "1e-3"],
    ),
    "criteria": (
        ["--n", "500", "--t-min", "0.0123", "--t-max", "0.0123", "--steps", "1",
         "--threads", "1", "--out", "op.csv"],
        {"n": 500, "t_max": 0.0123, "steps": 1, "format": "json", "out": "op.csv"},
        ["--format", "csv"],
    ),
    "steering": (
        ["--n", "8", "--mode", "conditional", "--nl", "4", "--steps", "3"],
        {"n": 8, "mode": "conditional", "nl": None},
        ["--nl", "3"],
    ),
    "wigner": (
        ["--n", "4", "--nl", "2", "--kind", "conditional", "--kr", "1", "--t", "0.1"],
        {"n": 4, "nl": 2, "kind": "conditional", "kr": 1},
        ["--kind", "marginal"],
    ),
    "verify": (
        ["--n", "5", "--inject-phase-error", "0.01"],
        {"n": 5, "inject_phase_error": 0.01},
        ["--n", "3"],
    ),
}


def _two_pass(argv, config=None):
    """The Namespace as the top-level parser gives it, a config file
    re-parsed with its flags ahead of the command line."""
    parser = sqsplit.cli._build_parser()[0]
    args = parser.parse_args(argv)
    if config is not None:
        args = parser.parse_args(argv[:1] + sqsplit.cli._config_flags(argv[0], config) + argv[1:])
    return args


@pytest.mark.parametrize("command", sorted(_PARSE_CASES))
def test_command_parser_gives_the_top_level_namespace(tmp_path, command):
    flags, cfg, override = _PARSE_CASES[command]
    for argv in ([command], [command] + flags):
        assert vars(sqsplit.cli._parse_argv(argv)) == vars(_two_pass(argv))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    for tail in ([], override, flags):
        argv = [command, "--config", str(path)] + tail
        got = sqsplit.cli._parse_argv(argv)
        assert vars(got) == vars(_two_pass(argv, str(path)))
        assert got.command == command and got.config == str(path)


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        ([], 2, "err", "the following arguments are required: command"),
        (["bogus", "--n", "4"], 2, "err", "invalid choice: 'bogus'"),
        (["--n", "4", "criteria"], 2, "err", "invalid choice: '4'"),
        (["-h"], 0, "out", "usage: sqsplit [-h]"),
        (["--help", "criteria"], 0, "out", "usage: sqsplit [-h]"),
        (["criteria", "-h"], 0, "out", "usage: sqsplit criteria [-h]"),
        (["criteria", "--n", "4", "--bogus", "1"], 2, "err", "usage: sqsplit criteria [-h]"),
    ],
)
def test_parse_exit_codes(argv, code, stream, text):
    got, out, err = run_cli(argv)
    assert got == code
    assert text in (out if stream == "out" else err)


def test_import_leaves_the_thread_pool_out():
    # concurrent.futures pulls in logging; only --threads > 1 needs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(sqsplit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, sqsplit.cli; "
        "sqsplit.cli.main(['criteria', '--n', '4', '--steps', '2', '--threads', '1']); "
        "sys.exit(int('concurrent.futures' in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------- state


def test_state_json_payload():
    code, out, _ = run_cli(["state", "--n", "4", "--nl", "2", "--t", "0.1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n_left"] == 2
    assert payload["n_right"] == 2
    assert payload["t"] == 0.1
    # row-major (k_left, k_right) amplitudes as [re, im] pairs
    amps = payload["amplitudes"]
    assert len(amps) == 9
    psi = np.array([complex(re, im) for re, im in amps]).reshape(3, 3)
    want = effective_evolution(2, 2, 0.1).psi
    assert np.abs(psi - want).max() < 1e-15
    cfg = payload["config"]
    assert cfg["command"] == "state"
    assert cfg["nl"] == 2 and cfg["n"] == 4
    assert "threads" not in cfg and "out" not in cfg


def test_state_requires_nl():
    code, _, err = run_cli(["state", "--n", "4"])
    assert code == 2
    assert "nl" in err


def test_state_nl_out_of_range():
    code, _, err = run_cli(["state", "--n", "4", "--nl", "5"])
    assert code == 2


@pytest.mark.parametrize("t", ["inf", "nan"])
@pytest.mark.parametrize("command", ["state", "wigner"])
def test_non_finite_time_exits_2(command, t):
    code, out, err = run_cli([command, "--n", "4", "--nl", "2", "--t", t])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# --------------------------------------------------------- entanglement


def test_entanglement_sweep_endpoints():
    # a quarter-period sweep starts and ends separable
    code, out, _ = run_cli(
        ["entanglement", "--n", "6", "--steps", "5", "--t-max", str(math.pi / 4.0)]
    )
    assert code == 0
    config, columns, rows = parse_csv(out)
    assert columns == ["t", "logneg"]
    assert len(rows) == 5
    assert abs(rows[0][1]) < 1e-9
    assert abs(rows[-1][1]) < 1e-9
    assert rows[1][1] > 0.5
    assert config["mode"] == "mixed"
    assert config["steps"] == 5


def test_entanglement_single_step_is_t_min():
    code, out, _ = run_cli(["entanglement", "--n", "4", "--steps", "1"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0] == [0.0, pytest.approx(0.0, abs=1e-9)]


def test_entanglement_conditional_mode_matches_library():
    # the sweep decomposes the real entangler parts; the Schmidt route
    # on the complex amplitudes is the oracle
    for n, nl in ((10, 5), (11, 4), (400, 137)):
        code, out, _ = run_cli(
            [
                "entanglement",
                "--n", str(n), "--mode", "conditional", "--nl", str(nl),
                "--steps", "3", "--t-min", "0.1", "--t-max", "0.3",
            ]
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        for t, value in rows:
            want = log_negativity_pure(effective_evolution(nl, n - nl, t))
            assert abs(value - want) < 1e-12


def test_entanglement_conditional_sector_ordering():
    # the balanced sector carries more negativity than a lopsided one
    def sweep(nl):
        _, out, _ = run_cli(
            [
                "entanglement", "--n", "10", "--mode", "conditional",
                "--nl", str(nl), "--steps", "4",
                "--t-min", "0.05", "--t-max", "0.3",
            ]
        )
        _, _, rows = parse_csv(out)
        return np.array([r[1] for r in rows])

    assert np.all(sweep(5) >= sweep(3) - 1e-9)


def test_entanglement_mixed_size_cap():
    code, _, err = run_cli(["entanglement", "--n", "801"])
    assert code == 2
    assert "800" in err


def test_entanglement_mixed_rows_inside_bracket():
    # the default window drops sectors at n = 100; the rows still sit
    # inside the certified bracket of the same windowed mixture
    code, out, _ = run_cli(["entanglement", "--n", "100", "--steps", "3"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 3
    for t, logneg in rows:
        mixture = mixed_split_state(100, t)
        assert mixture.retained_mass < 1.0
        low, high = log_negativity_bracket(mixture)
        assert low <= logneg <= high, t


def test_entanglement_window_too_wide_is_usage_error():
    code, _, err = run_cli(["entanglement", "--n", "100", "--epsilon", "1e-6"])
    assert code == 2
    assert err.startswith("error: --epsilon") and len(err.splitlines()) == 1
    # a wide window that drops nothing is still fine
    code, _, _ = run_cli(["entanglement", "--n", "6", "--epsilon", "1e-3", "--steps", "2"])
    assert code == 0


def test_entanglement_json_format():
    code, out, _ = run_cli(
        ["entanglement", "--n", "4", "--steps", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["t", "logneg"]
    assert len(payload["rows"]) == 2
    assert payload["config"]["format"] == "json"


# ------------------------------------------------------------- criteria


CRITERIA_COLUMNS = ["t", "E_D", "E_CM", "E_G", "xi", "E_LR", "E_RL", "g_y", "g_z", "theta"]


def test_criteria_columns_and_t0_row():
    code, out, _ = run_cli(["criteria", "--n", "8", "--steps", "3", "--t-max", "0.05"])
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == CRITERIA_COLUMNS
    first = dict(zip(columns, rows[0]))
    assert first["t"] == 0.0
    # coherent state: every ratio-style witness sits at its boundary
    for key in ("E_D", "E_G", "xi", "E_LR", "E_RL"):
        assert abs(first[key] - 1.0) < 1e-9
    assert first["E_CM"] > -1e-9
    assert abs(first["g_y"]) < 1e-12 and abs(first["g_z"]) < 1e-12


def test_criteria_detects_at_short_times():
    code, out, _ = run_cli(
        ["criteria", "--n", "20", "--steps", "2", "--t-min", "0.0125", "--t-max", "0.0125"]
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    row = dict(zip(columns, rows[0]))
    assert row["E_D"] < 1.0
    assert row["E_CM"] < 0.0
    assert row["E_G"] < 1.0
    assert row["xi"] < 1.0
    assert row["E_LR"] < 1.0 and row["E_RL"] < 1.0


@pytest.mark.parametrize("t", [0.0, 1e-4, 4e-3, 1.57e-2])
def test_criteria_row_matches_sector_mixture_n500(t):
    # mixed-mode rows come from the split state's moments; the sector
    # route (truncated binomial mixture) must give the same row
    (row,) = run_criteria_sweep(SweepConfig(n=500, t_min=t, t_max=t, steps=1))
    want = astuple(witness_suite(moments(mixed_split_state(500, t)), t))
    for name, got, ref in zip(CRITERIA_COLUMNS, row, want):
        tol = 1e-8
        if name in ("g_y", "g_z") and t == 0.0:
            # the coherent product's objective is flat along
            # |g_y| = |g_z|, so its value does not pin the gains
            continue
        assert abs(got - ref) <= tol * max(1.0, abs(ref)), (name, got, ref)
    if t == 0.0:
        assert abs(row[CRITERIA_COLUMNS.index("E_CM")]) <= 1.3e-10


def test_criteria_n500_t0_row_is_exactly_the_product():
    # closed-form moments of the coherent product and a rotation that
    # keeps its isotropic (y, z) blocks exact: every witness sits on its
    # boundary bit for bit, and the tie rule gives gains 0
    code, out, err = run_cli(["criteria", "--n", "500"])
    assert code == 0, err
    assert out.splitlines()[2] == "0,1,0,1,1,1,1,0,0,0.78539816339744828"
    assert not witness_suite(moments(twisted_split(500, 0.0)), 0.0).entangled


def test_criteria_at_n100000_runs_in_a_second():
    # mixed mode builds no amplitude vector, so N costs nothing
    start = time.perf_counter()
    code, out, err = run_cli(["criteria", "--n", "100000", "--steps", "5", "--t-max", "0.002"])
    elapsed = time.perf_counter() - start
    assert code == 0, err
    _, columns, rows = parse_csv(out)
    assert len(rows) == 5 and all(len(row) == len(columns) for row in rows)
    assert all(math.isfinite(x) for row in rows for x in row)
    assert elapsed < 1.0


def _blas_thread_outputs(tmp_path, argv):
    """The --out bytes of one command line under one and two BLAS
    threads, each in a fresh process, since BLAS reads its thread count
    at load time."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sqsplit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.csv"
        env = dict(os.environ, PYTHONPATH=path)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "sqsplit.cli", *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    return blobs


def test_criteria_bytes_do_not_depend_on_blas_threads(tmp_path):
    blobs = _blas_thread_outputs(
        tmp_path, ["criteria", "--n", "20000", "--steps", "5", "--t-max", "0.002"]
    )
    assert blobs[0] == blobs[1]


def test_conditional_entanglement_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the sector's singular values come from its real entangler parts;
    # the complex amplitude matrix's moved in the last bits with the
    # BLAS thread count at this size
    blobs = _blas_thread_outputs(
        tmp_path,
        ["entanglement", "--n", "400", "--mode", "conditional", "--nl", "200",
         "--steps", "3", "--t-max", "0.01"],
    )
    assert blobs[0] == blobs[1]


def test_criteria_gain_refinement_converges_at_large_eg():
    # E_G is about 2.4e4 here, far above the detection threshold: the
    # gains and the (non-detecting) minimum are still finite
    t = "0.29310344827586204"
    code, out, _ = run_cli(
        ["criteria", "--n", "12", "--mode", "conditional", "--nl", "5",
         "--t-min", t, "--t-max", t, "--steps", "1"]
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    cells = dict(zip(columns, rows[0]))
    assert all(math.isfinite(cells[name]) for name in ("E_G", "g_y", "g_z"))
    assert cells["E_G"] >= 1.0


def test_criteria_json_is_strict(tmp_path):
    # an empty left well leaves E_RL undefined; RFC 8259 has no NaN, so
    # the cell is null and a strict parser accepts the file
    path = tmp_path / "crit.json"
    code, _, _ = run_cli(
        ["criteria", "--n", "10", "--mode", "conditional", "--nl", "0",
         "--steps", "2", "--format", "json", "--out", str(path)]
    )
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(path.read_text(), parse_constant=reject)
    rows = payload["rows"]
    e_rl = payload["columns"].index("E_RL")
    assert [row[e_rl] for row in rows] == [None, None]
    assert all(x is not None for row in rows for i, x in enumerate(row) if i != e_rl)


@pytest.mark.parametrize("n", ["0", "2"])
@pytest.mark.parametrize("command", ["criteria", "steering"])
def test_criteria_needs_three_atoms(command, n):
    code, out, err = run_cli([command, "--n", n, "--steps", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "times", [["--t-max", "nan"], ["--t-min", "inf", "--t-max", "inf"]]
)
def test_criteria_non_finite_times_exit_2(times):
    code, out, err = run_cli(["criteria", "--n", "10"] + times)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["criteria", "--n", "10", "--t-min", "1e308", "--t-max", "1e308", "--steps", "1"],
        ["steering", "--n", "10", "--t-max", "1e308"],
        ["criteria", "--n", "10", "--mode", "conditional", "--nl", "5",
         "--t-min", "1e308", "--t-max", "1e308", "--steps", "1"],
        ["criteria", "--n", "10", "--t-min=-1e308", "--t-max", "0", "--steps", "2"],
        ["entanglement", "--n", "10", "--t-min", "1e308", "--t-max", "1e308", "--steps", "1"],
        ["entanglement", "--n", "10", "--mode", "conditional", "--nl", "5",
         "--t-min", "1e308", "--t-max", "1e308", "--steps", "1"],
        ["state", "--n", "10", "--nl", "5", "--t", "1e308"],
        ["wigner", "--n", "10", "--nl", "5", "--t", "1e308"],
        ["wigner", "--n", "10", "--nl", "5", "--kind", "conditional", "--kr", "2",
         "--t=-1e308"],
    ],
)
def test_time_overflowing_the_twisting_phase_exits_2(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "twisting phase" in err


def test_time_bound_is_8_t_n_squared():
    # the largest |t| with 8 |t| n^2 finite still runs, at every n
    n = 10
    t = repr(sys.float_info.max / 8.0 / n**2)
    for argv in (
        ["criteria", "--n", str(n), "--t-min", t, "--t-max", t, "--steps", "1"],
        ["criteria", "--n", str(n), "--mode", "conditional", "--nl", "4",
         "--t-min", t, "--t-max", t, "--steps", "1"],
        ["state", "--n", str(n), "--nl", "4", "--t", t],
    ):
        code, _, err = run_cli(argv)
        assert code == 0, err
    with pytest.raises(UsageError, match="twisting phase"):
        SweepConfig(n=10**200, t_max=1e-300)
    # t = 0 has no phase at any n
    SweepConfig(n=10**400, t_max=0.0)


def test_steering_alias_matches_criteria():
    argv = ["--n", "8", "--steps", "3", "--t-max", "0.04"]
    code_a, out_a, _ = run_cli(["criteria"] + argv)
    code_b, out_b, _ = run_cli(["steering"] + argv)
    assert code_a == code_b == 0
    lines_a = out_a.splitlines()
    lines_b = out_b.splitlines()
    # identical columns and data; the echoed command differs
    assert lines_a[1:] == lines_b[1:]
    assert json.loads(lines_a[0][2:])["command"] == "criteria"
    assert json.loads(lines_b[0][2:])["command"] == "steering"


# -------------------------------------------------- output conventions


def test_csv_bytes_deterministic_across_threads(tmp_path):
    argv = ["criteria", "--n", "10", "--steps", "6", "--t-max", "0.04"]
    blobs = []
    for extra, env in ((["--threads", "1"], None), (["--threads", "4"], None), ([], "3")):
        path = tmp_path / f"run{len(blobs)}.csv"
        code, _, _ = run_cli(argv + ["--out", str(path)] + extra, env_threads=env)
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_csv_uses_lf_and_17_digits(tmp_path):
    path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["entanglement", "--n", "6", "--steps", "3", "--t-max", "0.3",
         "--out", str(path)]
    )
    assert code == 0
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    text = raw.decode()
    _, _, rows = parse_csv(text)
    # 17 significant digits round-trip exactly
    for line, row in zip(text.splitlines()[2:], rows):
        for printed, value in zip(line.split(","), row):
            assert float(printed) == value
    t_field = text.splitlines()[3].split(",")[0]
    assert t_field == "%.17g" % 0.15


def test_config_echo_is_sorted_json():
    _, out, _ = run_cli(["entanglement", "--n", "4", "--steps", "2"])
    header = out.splitlines()[0][2:]
    config = json.loads(header)
    assert list(config.keys()) == sorted(config.keys())
    assert header == json.dumps(config, sort_keys=True)


def test_bad_env_thread_count():
    code, _, err = run_cli(
        ["entanglement", "--n", "4", "--steps", "2"], env_threads="lots"
    )
    assert code == 2
    assert "SQSPLIT_THREADS" in err


def _assert_one_error_line(code, err):
    assert code == 2
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["criteria", "--n", "4", "--steps", "1"],
        ["entanglement", "--n", "4", "--steps", "1", "--format", "json"],
        ["state", "--n", "4", "--nl", "2"],
        ["wigner", "--n", "2", "--nl", "1"],
    ],
    ids=["csv", "json", "state", "wigner"],
)
def test_unwritable_out_exits_2(tmp_path, argv):
    code, out, err = run_cli(argv + ["--out", str(tmp_path / "missing" / "x.csv")])
    assert out == ""
    _assert_one_error_line(code, err)


def test_unwritable_wigner_sidecar_exits_2(tmp_path):
    (tmp_path / "w.json").mkdir()  # the sidecar path is taken by a directory
    code, _, err = run_cli(["wigner", "--n", "2", "--nl", "1", "--out", str(tmp_path / "w.csv")])
    _assert_one_error_line(code, err)
    assert "w.json" in err
    assert not (tmp_path / "w.csv").exists()


# ---------------------------------------------------------- config file


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 6, "steps": 4, "t_max": 0.3}))
    code, out, _ = run_cli(["entanglement", "--config", str(cfg)])
    assert code == 0
    config, _, rows = parse_csv(out)
    assert config["n"] == 6
    assert config["steps"] == 4
    assert len(rows) == 4
    assert rows[-1][0] == pytest.approx(0.3)


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 6, "steps": 4}))
    code, out, _ = run_cli(["entanglement", "--config", str(cfg), "--steps", "2"])
    assert code == 0
    config, _, rows = parse_csv(out)
    assert config["steps"] == 2
    assert len(rows) == 2


def test_config_file_errors(tmp_path):
    code, _, err = run_cli(["entanglement", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "config" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(["entanglement", "--config", str(bad)])
    assert code == 2

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    code, _, err = run_cli(["entanglement", "--config", str(arr)])
    assert code == 2
    assert "object" in err


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("entanglement", {"n": "abc"}, "--n"),
        ("entanglement", {"n": 4, "threads": "x"}, "--threads"),
        ("entanglement", {"n": 4, "steps": 2.5}, "--steps"),
        ("criteria", {"n": 4, "mode": "conditional", "nl": 2.7}, "--nl"),
        ("criteria", {"n": 4, "format": "yaml"}, "--format"),
        ("entanglement", {"n": 4, "bogus": 1}, "'bogus'"),
        ("criteria", {"n": 4, "epsilon": 1e-6}, "'epsilon'"),
        ("wigner", {"n": 4, "nl": 2, "order": 5}, "'order'"),
        ("state", {"n": 4, "nl": 2, "mode": "mixed"}, "'mode'"),
    ],
)
def test_config_keys_are_typed_flags(tmp_path, command, cfg, key):
    # a config key is the command's own long flag, parsed with its type
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli([command, "--config", str(path)])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].count("error:") == 1 and key in err.splitlines()[-1]


def test_config_null_means_absent(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n": 4, "steps": 2, "nl": None, "t_max": None}))
    code, out, _ = run_cli(["criteria", "--config", str(path)])
    assert code == 0
    config, _, rows = parse_csv(out)
    assert config["nl"] is None and config["t_max"] == 0.02
    assert len(rows) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["wigner", "--n", "4", "--nl", "2", "--order", "24"],
        ["wigner", "--n", "4", "--nl", "2", "--format", "json"],
        ["wigner", "--n", "4", "--nl", "2", "--epsilon", "0.5"],
        ["state", "--n", "4", "--nl", "2", "--mode", "conditional"],
        ["criteria", "--n", "4", "--epsilon", "1e-6"],
        ["entanglement", "--n", "4", "--order", "5"],
    ],
)
def test_flags_a_command_does_not_read_exit_2(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err


def test_echo_holds_the_commands_own_flags():
    echoes = {
        "state": json.loads(run_cli(["state", "--n", "4", "--nl", "2"])[1])["config"],
        "criteria": parse_csv(run_cli(["criteria", "--n", "4", "--steps", "1"])[1])[0],
        "wigner": parse_csv(run_cli(["wigner", "--n", "2", "--nl", "1"])[1])[0],
    }
    sweep = {"command", "n", "mode", "nl", "t_min", "t_max", "steps", "format"}
    assert set(echoes["state"]) == {"command", "n", "nl", "t"}
    assert set(echoes["criteria"]) == sweep
    assert set(echoes["wigner"]) == {"command", "n", "nl", "kind", "kr", "t"}


HUGE_N = str(10**200)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["criteria", "--n", HUGE_N, "--steps", "2", "--t-max", "0"], "n <= 10^15"),
        (["steering", "--n", str(10**15 + 1), "--steps", "2"], "n <= 10^15"),
        (["entanglement", "--n", HUGE_N, "--mode", "conditional", "--nl", "1",
          "--t-max", "0"], "conditional sector"),
        (["state", "--n", HUGE_N, "--nl", "1", "--t", "0"], "conditional sector"),
        (["state", "--n", "2047", "--nl", "1023"], "conditional sector"),
        (["criteria", "--n", "100000", "--mode", "conditional", "--nl", "50000",
          "--steps", "1", "--t-max", "0"], "conditional sector"),
        (["entanglement", "--n", "100000", "--mode", "conditional", "--nl", "20",
          "--steps", "1"], "conditional sector"),
    ],
)
def test_oversized_n_exits_2_before_allocating(argv, message):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_size_caps_sit_where_stated():
    # the largest criteria n and the largest sector are accepted; the
    # sector is checked on the settings alone, nothing is allocated
    assert SweepConfig(n=2046, mode="conditional", nl=1023).nl == 1023  # 1024^2 = 2^20
    with pytest.raises(UsageError, match="conditional sector"):
        SweepConfig(n=2047, mode="conditional", nl=1023)
    code, out, _ = run_cli(["criteria", "--n", str(10**15), "--steps", "2", "--t-max", "0"])
    assert code == 0 and out.count("\n") == 4


def test_usage_errors_exit_2():
    cases = [
        ["entanglement", "--steps", "3"],  # missing --n
        ["entanglement", "--n", "6", "--steps", "0"],
        ["entanglement", "--n", "6", "--t-min", "0.5", "--t-max", "0.1"],
        ["entanglement", "--n", "6", "--mode", "conditional"],  # missing --nl
        ["entanglement", "--n", "6", "--mode", "conditional", "--nl", "9"],
        ["entanglement", "--n", "6", "--threads", "0"],
        ["entanglement", "--n", "6", "--epsilon", "-1"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


# --------------------------------------------------------------- wigner


def test_wigner_lattice_csv_and_sidecar(tmp_path):
    out = tmp_path / "w.csv"
    code, _, _ = run_cli(
        ["wigner", "--n", "4", "--nl", "2", "--kind", "conditional",
         "--kr", "1", "--t", "0.1", "--out", str(out)]
    )
    assert code == 0
    config, columns, rows = parse_csv(out.read_text())
    assert columns == ["theta", "phi", "w"]
    assert len(rows) == 181 * 361
    # theta-major ordering over the display lattice
    assert rows[0][:2] == [0.0, 0.0]
    assert rows[360][:2] == pytest.approx([0.0, 2.0 * math.pi])
    assert rows[361][0] == pytest.approx(math.pi / 180.0)
    assert rows[-1][:2] == pytest.approx([math.pi, 2.0 * math.pi])
    # periodic seam: the phi = 0 and phi = 2 pi columns agree
    for i in (0, 90, 180):
        assert rows[361 * i][2] == pytest.approx(rows[361 * i + 360][2], abs=1e-12)

    sidecar = json.loads((tmp_path / "w.json").read_text())
    assert sidecar["j"] == 1.0
    assert sidecar["t"] == 0.1
    assert sidecar["k_r"] == 1
    # heralding probability of k_r = 1 out of 2 right atoms
    assert sidecar["normalization"] == pytest.approx(0.5)
    assert sidecar["config"] == config


def test_wigner_marginal_sidecar_has_no_kr(tmp_path):
    out = tmp_path / "m.csv"
    code, _, _ = run_cli(
        ["wigner", "--n", "4", "--nl", "2", "--kind", "marginal",
         "--t", "0.0", "--out", str(out)]
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "m.json").read_text())
    assert "k_r" not in sidecar
    assert sidecar["normalization"] == pytest.approx(1.0)
    # coherent-state marginal: peak on the equator at phi = 0
    _, _, rows = parse_csv(out.read_text())
    values = np.array([r[2] for r in rows]).reshape(181, 361)
    peak = np.unravel_index(np.argmax(values), values.shape)
    assert peak[0] == 90
    assert peak[1] in (0, 360)


def test_wigner_stdout_when_out_omitted():
    code, out, _ = run_cli(
        ["wigner", "--n", "2", "--nl", "1", "--kind", "marginal", "--t", "0.0"]
    )
    assert code == 0
    assert len(out.splitlines()) == 2 + 181 * 361


@pytest.mark.parametrize("kind", ["marginal", "conditional"])
def test_wigner_csv_matches_per_cell_writer(tmp_path, kind):
    # the lattice writer formats each theta and phi once; its text must be
    # what the per-cell row generator through _write_csv gave, to the byte
    argv = ["wigner", "--n", "40", "--nl", "36", "--kind", kind, "--t", "0.3"]
    argv += ["--kr", "2"] if kind == "conditional" else []
    out = tmp_path / "w.csv"
    assert run_cli(argv + ["--out", str(out)])[0] == 0
    got = out.read_bytes()

    if kind == "marginal":
        grid = marginal_wigner_closed(36, 4, 0.3)
    else:
        grid = conditional_wigner_closed(36, 4, 2, 0.3)
    thetas, phis, values = display_lattice(grid)
    rows = (
        (theta, phi, values[i, m])
        for i, theta in enumerate(thetas)
        for m, phi in enumerate(phis)
    )
    config = json.loads(got.split(b"\n", 1)[0][2:])
    oracle = tmp_path / "oracle.csv"
    _write_csv(str(oracle), config, ("theta", "phi", "w"), rows)
    assert got == oracle.read_bytes()

    code, text, _ = run_cli(argv)
    assert code == 0
    assert text.encode() == got


def test_wigner_usage_errors():
    cases = [
        ["wigner", "--n", "4", "--kind", "marginal"],  # missing --nl
        ["wigner", "--n", "4", "--nl", "2", "--kind", "conditional"],  # missing --kr
        ["wigner", "--n", "4", "--nl", "2", "--kind", "conditional", "--kr", "3"],
        ["wigner", "--n", "44", "--nl", "22", "--kind", "marginal"],  # size cap
    ]
    for argv in cases:
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


# --------------------------------------------------------------- verify


def test_verify_passes_and_reports():
    code, out, _ = run_cli(["verify", "--n", "6"])
    assert code == 0
    lines = out.splitlines()
    assert "PASS" in lines[-1]
    assert "sector" in out
    assert "split-moment" in out


def test_verify_negative_control():
    # corrupted phases must fail: proves the suite has teeth
    code, out, _ = run_cli(["verify", "--n", "6", "--inject-phase-error", "0.01"])
    assert code == 3
    assert "FAIL" in out


def test_verify_fails_on_a_closed_form_sign_flip(monkeypatch):
    # the closed-form split moments are checked against the O(N) route
    real = sqsplit.observables._twist_moments

    def flipped(n, t):
        m, c = real(n, t)
        c[1, 2] = c[2, 1] = -c[1, 2]
        return m, c

    monkeypatch.setattr(sqsplit.observables, "_twist_moments", flipped)
    code, out, _ = run_cli(["verify", "--n", "6"])
    assert code == 3
    assert "FAIL" in out
    assert not run_equivalence_suite(max_n=4).passed


def test_verify_size_cap():
    code, _, _ = run_cli(["verify", "--n", "13"])
    assert code == 2


def test_equivalence_report_counts():
    report = run_equivalence_suite(max_n=4)
    assert isinstance(report, EquivalenceReport)
    # sum over N of (N + 1) sectors, times 4 probe times
    assert report.checks == 4 * sum(n + 1 for n in range(1, 5))
    assert report.passed
    assert report.worst_residual <= 1e-12
    assert report.moment_error <= 1e-12
    assert report.sector_law_error <= 1e-12


# ----------------------------------------------------- library surface


def test_sweep_config_validation():
    with pytest.raises(UsageError):
        SweepConfig(n=-1)
    with pytest.raises(UsageError):
        SweepConfig(n=4, mode="both")
    with pytest.raises(UsageError):
        SweepConfig(n=4, format="yaml")
    for field in ("t_min", "t_max", "epsilon"):
        with pytest.raises(UsageError):
            SweepConfig(n=4, **{field: math.nan})
    with pytest.raises(UsageError):
        SweepConfig(n=4, t_min=-math.inf)
    cfg = SweepConfig(n=4, steps=3, t_max=1.0)
    grid = cfg.time_grid()
    assert grid.tolist() == [0.0, 0.5, 1.0]


def test_run_sweeps_accept_config_directly():
    cfg = SweepConfig(n=6, steps=3, t_max=0.1, threads=2)
    rows = run_entanglement_sweep(cfg)
    assert len(rows) == 3
    assert rows[0][1] == pytest.approx(0.0, abs=1e-9)
    crit = run_criteria_sweep(SweepConfig(n=6, steps=2, t_max=0.02))
    assert len(crit) == 2
    assert len(crit[0]) == len(CRITERIA_COLUMNS)


# ------------------------------------------------ benchmark argv shapes

# perfbench's tracer wraps these sqsplit.cli globals, so the CLI must
# call them through the module
_TRACED = (
    "mixed_split_state",
    "moments",
    "rotate_moments",
    "marginal_wigner_closed",
    "conditional_wigner_closed",
    "display_lattice",
)


@pytest.mark.parametrize(
    "argv, traced",
    [
        (
            ["criteria", "--n", "500", "--mode", "mixed", "--t-min", "0.0123",
             "--t-max", "0.0123", "--steps", "1"],
            {"moments"},
        ),
        (
            ["wigner", "--n", "40", "--nl", "36", "--kind", "marginal", "--t", "0.3"],
            {"marginal_wigner_closed", "display_lattice"},
        ),
        (
            ["wigner", "--n", "40", "--nl", "36", "--kind", "conditional", "--kr", "2",
             "--t", "0.3"],
            {"conditional_wigner_closed", "display_lattice"},
        ),
    ],
    ids=["criteria-n500", "wigner-cli-marginal", "wigner-cli-conditional"],
)
def test_benchmark_argv_runs_through_traced_globals(tmp_path, monkeypatch, argv, traced):
    calls = set()

    def traced_call(name, fn):
        def wrapper(*args, **kwargs):
            calls.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in _TRACED:
        monkeypatch.setattr(sqsplit.cli, name, traced_call(name, getattr(sqsplit.cli, name)))
    # the argv the benchmark workloads pass, ending in --threads 1 --out
    out = tmp_path / "op.csv"
    code, _, err = run_cli(argv + ["--threads", "1", "--out", str(out)])
    assert code == 0, err
    assert out.stat().st_size > 0
    assert calls == traced
