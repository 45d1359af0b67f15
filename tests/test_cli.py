import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple

import numpy as np
import pytest

from sqsplit import witness
from sqsplit.cli import (
    EquivalenceReport,
    SweepConfig,
    UsageError,
    main,
    run_criteria_sweep,
    run_entanglement_sweep,
    run_equivalence_suite,
)
from sqsplit.entangle import log_negativity_pure
from sqsplit.observables import moments
from sqsplit.statekit import effective_evolution, mixed_split_state
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
    code, out, _ = run_cli(
        [
            "entanglement",
            "--n", "10", "--mode", "conditional", "--nl", "5",
            "--steps", "3", "--t-min", "0.1", "--t-max", "0.3",
        ]
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    for t, value in rows:
        want = log_negativity_pure(effective_evolution(5, 5, t))
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
    code, _, err = run_cli(["entanglement", "--n", "30"])
    assert code == 2
    assert "24" in err


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
        if name in ("g_y", "g_z"):
            if t == 0.0:
                # the coherent product's objective is flat along
                # |g_y| = |g_z|, so its value does not pin the gains
                continue
            # Nelder-Mead resolves a smooth minimum's location only to
            # about sqrt(eps): on the sector route alone a 1-ulp change
            # of t moves g_y by 3.7e-8 at t = 1e-4
            tol = 1e-6
        assert abs(got - ref) <= tol * max(1.0, abs(ref)), (name, got, ref)
    if t == 0.0:
        assert abs(row[CRITERIA_COLUMNS.index("E_CM")]) <= 1.3e-10


def test_criteria_survives_gain_refinement_failure(monkeypatch):
    # a gain refinement that does not converge turns only the Giovannetti
    # cells NaN; the rest of the row is still written
    real_minimize = witness.optimize.minimize

    def not_converged(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        res.success = False
        return res

    monkeypatch.setattr(witness.optimize, "minimize", not_converged)
    code, out, _ = run_cli(
        ["criteria", "--n", "12", "--mode", "conditional", "--nl", "5", "--steps", "2"]
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    for row in rows:
        nan_cells = {name for name, x in zip(columns, row) if math.isnan(x)}
        assert nan_cells == {"E_G", "g_y", "g_z"}


def test_criteria_gain_refinement_converges_at_large_eg():
    # E_G is about 2.4e4 here, where an absolute fatol of 1e-13 is below
    # the value's ulp and Nelder-Mead used to run out of iterations; the
    # relative tolerance lets it stop at the (non-detecting) minimum
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


def test_wigner_usage_errors():
    cases = [
        ["wigner", "--n", "4", "--kind", "marginal"],  # missing --nl
        ["wigner", "--n", "4", "--nl", "2", "--kind", "conditional"],  # missing --kr
        ["wigner", "--n", "4", "--nl", "2", "--kind", "conditional", "--kr", "3"],
        ["wigner", "--n", "44", "--nl", "22", "--kind", "marginal"],  # size cap
        ["wigner", "--n", "4", "--nl", "2", "--order", "0"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_wigner_order_override_changes_nothing_visible(tmp_path):
    # a finer quadrature rule must reproduce the same display values
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["wigner", "--n", "4", "--nl", "2", "--kind", "marginal", "--t", "0.1"]
    assert run_cli(base + ["--out", str(a)])[0] == 0
    assert run_cli(base + ["--order", "24", "--out", str(b)])[0] == 0
    _, _, rows_a = parse_csv(a.read_text())
    _, _, rows_b = parse_csv(b.read_text())
    va = np.array([r[2] for r in rows_a])
    vb = np.array([r[2] for r in rows_b])
    assert np.abs(va - vb).max() < 1e-10


# --------------------------------------------------------------- verify


def test_verify_passes_and_reports():
    code, out, _ = run_cli(["verify", "--n", "6"])
    assert code == 0
    lines = out.splitlines()
    assert "PASS" in lines[-1]
    assert "sector" in out


def test_verify_negative_control():
    # corrupted phases must fail: proves the suite has teeth
    code, out, _ = run_cli(["verify", "--n", "6", "--inject-phase-error", "0.01"])
    assert code == 3
    assert "FAIL" in out


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
    echo = cfg.echo(command="x")
    assert echo["command"] == "x"
    assert "threads" not in echo


def test_run_sweeps_accept_config_directly():
    cfg = SweepConfig(n=6, steps=3, t_max=0.1, threads=2)
    rows = run_entanglement_sweep(cfg)
    assert len(rows) == 3
    assert rows[0][1] == pytest.approx(0.0, abs=1e-9)
    crit = run_criteria_sweep(SweepConfig(n=6, steps=2, t_max=0.02))
    assert len(crit) == 2
    assert len(crit[0]) == len(CRITERIA_COLUMNS)
