import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from groupoidreps import cli
from groupoidreps.cli import main, run_task
from groupoidreps.reporting import checks_payload, emit, exit_code, make_report, record, report_ok, skip

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_simples_json():
    code, out = run_cli(["simples", "--ell", "2", "--d", "2", "--out", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "groupoid-reps/2"
    assert rep["command"] == "simples"
    dims = next(c for c in rep["checks"] if c["name"] == "simples (2,2): wedderburn sum of squares")
    assert sorted(dims["details"]["dims"]) == [1, 1, 1, 1, 2]


def test_verify_iso_text():
    code, out = run_cli(["verify-iso", "--ell", "1", "--d", "3"])
    assert code == 0
    assert "PASS" in out


def jsonable(checks):
    return json.loads(json.dumps(checks))


def test_gkd_subcommand():
    code, out = run_cli(["gkd", "--ell", "2", "--k", "2", "--d", "2", "--out", "json"])
    assert code == 0
    rep = json.loads(out)
    _name, checks, _seconds = run_task(("gkd", {"ell": 2, "k": 2, "d": 2}))
    assert rep["checks"] == jsonable(checks)
    wedderburn = "gkd (2,2,2) quotient-simples: wedderburn sum of squares"
    dims = next(c["details"]["dims"] for c in rep["checks"] if c["name"] == wedderburn)
    assert len(dims) == 4  # one per (p,m) label


def test_objects_subcommand():
    code, out = run_cli(["objects", "--ell", "2", "--d", "2", "--out", "json"])
    assert code == 0
    rep = json.loads(out)
    _name, checks, _seconds = run_task(("objects", {"ell": 2, "d": 2}))
    assert rep["checks"] == jsonable(checks)
    assert checks == [{"name": "cardinalities (2,2)", "status": "pass", "details": {"total": 8}}]


def test_schur_weyl_subcommand():
    code, out = run_cli(["schur-weyl", "--ell", "2", "--d", "2", "--kvec", "1,1", "--out", "json"])
    assert code == 0


def test_rook_subcommand():
    code, out = run_cli(["rook-check", "--d", "3", "--out", "json"])
    assert code == 0


def test_gelfand_subcommand():
    code, out = run_cli(["gelfand", "--ell", "2", "--d", "2", "--out", "json"])
    assert code == 0


def test_branching_subcommand():
    code, out = run_cli(["branching", "--ell", "2", "--d", "2", "--out", "json"])
    assert code == 0


def test_shift_duality_flag():
    code, out = run_cli(
        ["schur-weyl", "--shift-duality", "--ell", "2", "--kk", "2", "--m", "1", "--d", "1", "--out", "json"]
    )
    assert code == 0


def test_shift_duality_reports_only_the_parameters_it_uses():
    # the tensor space is built from (m,) * ell, so no kvec is reported
    code, out = run_cli(
        ["schur-weyl", "--shift-duality", "--ell", "2", "--kk", "2", "--m", "1", "--d", "0", "--out", "json"]
    )
    assert code == 0
    assert json.loads(out)["parameters"] == {"ell": 2, "d": 0, "kk": 2, "m": 1}


def test_usage_error_exit_code():
    code, _ = run_cli(["not-a-command"])
    assert code == 2


def test_resource_cap_exit_code(capsys):
    code, _out = run_cli(["objects", "--ell", "10", "--d", "8", "--cap", "1000"])
    assert code == 3


def test_group_cap_exit_code(capsys):
    # 5^6 * 6! exceeds the default group cap of 10^6
    code, _out = run_cli(["verify-iso", "--ell", "5", "--d", "6"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: resource cap exceeded: group order 11250000 exceeds cap 1000000\n"


def test_verify_iso_honours_cap(capsys):
    code, _out = run_cli(["verify-iso", "--ell", "3", "--d", "4", "--cap", "10"])
    assert code == 3
    assert "group order 1944 exceeds cap 10" in capsys.readouterr().err


def test_retired_sampling_flags_are_usage_errors():
    assert run_cli(["verify-iso", "--sample", "10"])[0] == 2
    assert run_cli(["verify-iso", "--seed", "1"])[0] == 2
    assert run_cli(["all", "--seed", "1"])[0] == 2


def test_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ell": 1, "d": 3}))
    code, out = run_cli(["--config", str(cfg), "verify-iso", "--out", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["parameters"] == {"ell": 1, "d": 3}
    # explicit flags win over the config
    code, out = run_cli(["--config", str(cfg), "verify-iso", "--ell", "2", "--out", "json"])
    rep = json.loads(out)
    assert rep["parameters"]["ell"] == 2


@pytest.mark.parametrize(
    "config,command",
    [
        ([1, 2], "verify-iso"),
        ({"ell": "x"}, "verify-iso"),
        ({"jobs": None}, "verify-iso"),
        ({"kvec": 5}, "schur-weyl"),
        ({"out": "xml"}, "verify-iso"),
        ({"cap": 2.5}, "verify-iso"),
        ({"ell": True}, "verify-iso"),
    ],
)
def test_config_values_without_their_flag_type_are_usage_errors(tmp_path, capsys, config, command):
    # argparse types the flags; a config value must pass the same check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "config,command,message",
    [
        ({"max-d": -1}, "all", "--max-d must be >= 0"),
        ({"max_ell": 0}, "all", "--max-ell must be >= 1"),
        ({"cap": -5}, "verify-iso", "--cap must be >= 1"),
    ],
)
def test_out_of_range_config_values_are_usage_errors(tmp_path, capsys, config, command, message):
    # a config value passes the same range check as its flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), command]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("config", [{"ell": 1, "dd": 3}, {"max_ell": 2, "max-dd": 1}, {"": 1}])
def test_unknown_config_keys_are_usage_errors(tmp_path, capsys, config):
    # a misspelt key must not run silently with the default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "verify-iso"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = next(name for name in config if name not in ("ell", "max_ell"))
    assert captured.err == f"error: unknown config key {bad!r}\n"


def test_config_keys_in_either_spelling(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-ell": 1, "max_d": 1}))
    code, out = run_cli(["--config", str(cfg), "all", "--out", "json"])
    assert code == 0
    assert json.loads(out)["parameters"] == {"max_ell": 1, "max_d": 1}


@pytest.mark.parametrize(
    "config,message",
    [
        ({"max-d": 2, "max_d": 3}, "config key 'max_d' is given twice, as 'max_d' and 'max-d'"),
        ({"max-ell": 1, "max_ell": 1}, "config key 'max_ell' is given twice, as 'max_ell' and 'max-ell'"),
    ],
)
def test_config_keys_given_in_both_spellings_are_usage_errors(tmp_path, capsys, config, message):
    # one spelling would silently win over the other, even where both agree
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_a_config_default_does_not_leak_into_the_next_call(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 1}))
    code, out = run_cli(["--config", str(cfg), "verify-iso", "--ell", "2", "--out", "json"])
    assert code == 0 and json.loads(out)["parameters"] == {"ell": 2, "d": 1}
    code, out = run_cli(["verify-iso", "--ell", "2", "--out", "json"])
    assert code == 0
    # the config default of the first call is not kept by the process
    assert json.loads(out)["parameters"] == {"ell": 2, "d": 2}


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["gkd", "--help"], ["--config", "c.json", "-h"]])
def test_help_prints_the_usage_of_every_command(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: groupoid-reps [--config CONFIG] COMMAND")
    lines = {line.split()[0]: line for line in captured.out.splitlines()[1:]}
    assert list(lines) == [key for key in cli.SUITES if key != "shift-duality"] + ["all"]
    assert "[--k K]" in lines["gkd"] and "[--shift-duality]" in lines["schur-weyl"]
    assert "[--out {json,text}]" in lines["rook-check"] and "[--max-d MAX_D]" in lines["all"]


def test_a_flag_and_its_value_may_be_joined_by_an_equals_sign():
    joined = run_cli(["verify-iso", "--ell=2", "--d=3", "--out", "json"])
    spaced = run_cli(["verify-iso", "--ell", "2", "--d", "3", "--out", "json"])
    assert joined[0] == spaced[0] == 0
    reports = [json.loads(out) for _code, out in (joined, spaced)]
    assert checks_payload(reports[0]) == checks_payload(reports[1])
    assert reports[0]["parameters"] == reports[1]["parameters"] == {"ell": 2, "d": 3}


def test_a_cli_call_imports_no_argument_parser():
    # start-up cost: one call in a fresh interpreter builds no argparse parser
    script = (
        "import contextlib, io, sys\n"
        "from groupoidreps import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify-iso', '--ell', '2', '--d', '2'])\n"
        "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


# The checks payload of the default `all` grid.  A change that moves the
# payload on purpose updates this digest and the check count, and says so in
# CHANGES.md.
ALL_PAYLOAD_SHA256 = "080aabce25bbb5d8b8e98b362cd9af4ad3a06a1fd37f075f3d172679b3a5b28c"


def test_all_payload_is_pinned():
    code, out = run_cli(["all", "--out", "json"])
    rep = json.loads(out)
    assert code == 0 and len(rep["checks"]) == 814
    assert hashlib.sha256(checks_payload(rep).encode()).hexdigest() == ALL_PAYLOAD_SHA256


def test_all_payload_is_pinned_under_python_O():
    # invariants hold without assert statements: the same payload under -O
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "groupoidreps", "all", "--out", "json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert len(rep["checks"]) == 814
    assert hashlib.sha256(checks_payload(rep).encode()).hexdigest() == ALL_PAYLOAD_SHA256


# The checks payloads of subcommand reports at points the `all` grid does
# not reach, among them a skipped check (gkd (2,2,4)).  A subcommand reports
# its `all` task, so each pin is that task's payload.
SUBCOMMAND_PAYLOAD_SHA256 = {
    "objects --ell 2 --d 3": "5334d3dd0436b368f07fb678651e7156f74c9235fbd403a21a786dcd5a2643dc",
    "verify-iso --ell 2 --d 3": "cc0c0cd195377496637d4374ac98132f164c60c39a8dac0d94fe12ebb90e031b",
    # the largest verify-iso point of the all grid and of perfbench's iso workload
    "verify-iso --ell 2 --d 4": "85d897c5009481bfbb31abf75197bc1769bc4cf26471c970ffd200ccf04f2ce2",
    "simples --ell 2 --d 3": "1815886cf8e0c7b0a40a32f335619fe556e9d53d6120740c0e919699fcb5f771",
    "branching --ell 2 --d 3": "fae43986abf454508772a8d742566ea32680cc7c2af130a07152990a93edbcab",
    "gelfand --ell 2 --d 3": "1778eb45eee157ea51bd91b6ec937ba54bf2a0cb6c1245dd20f1d139dffbef11",
    "gkd --ell 2 --k 2 --d 4": "387228d2899136fd277cb94828dd70f8490487e8d196264c96bbb38faeff7cff",
    "schur-weyl --ell 2 --kvec 2,1 --d 2": "09fccd200d146595115f776647248eabf73986538e9e5f308da4a02da7dfc21f",
    "schur-weyl --shift-duality --ell 4 --kk 2 --m 1 --d 2":
        "bb8cac2d27b2d3fc870292dab42aa0f4c6cb9fadaeba075be2456ab9f947d30c",
    "rook-check --d 3": "4135d3bffca5e16e2ca892c7380d6714192fa513dda1386983fcd69177105e40",
    # two larger duality solves, off the all grid
    "schur-weyl --ell 2 --kvec 2,2 --d 3": "f64544f4af30a9068c0fdfbc739ca6a79293c3017e593ada2fb2f607330718ef",
    "schur-weyl --shift-duality --ell 2 --kk 2 --m 2 --d 3":
        "3b0ba179a6704ccd45951893f9bb22a42a43ef9b4852527cb06a4304c2bce044",
}


@pytest.mark.parametrize("command", SUBCOMMAND_PAYLOAD_SHA256)
def test_subcommand_payload_is_pinned(command):
    code, out = run_cli(command.split() + ["--out", "json"])
    rep = json.loads(out)
    assert code == 0
    assert hashlib.sha256(checks_payload(rep).encode()).hexdigest() == SUBCOMMAND_PAYLOAD_SHA256[command]
    if command.startswith("gkd"):
        statuses = [c["status"] for c in rep["checks"]]
        assert (len(statuses), statuses.count("skip")) == (44, 1)


def test_all_small_grid_deterministic():
    code1, out1 = run_cli(["all", "--max-ell", "2", "--max-d", "1", "--out", "json"])
    code2, out2 = run_cli(["all", "--max-ell", "2", "--max-d", "1", "--out", "json"])
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert checks_payload(r1) == checks_payload(r2)
    assert all(c["status"] == "pass" for c in r1["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ["rook-check", "--d", "0"],
        ["gkd", "--ell", "3", "--k", "2", "--d", "2"],
        ["schur-weyl", "--ell", "2", "--kvec", "1", "--d", "2"],
        ["objects", "--ell", "0", "--d", "1"],
        ["simples", "--ell", "2", "--d", "-1"],
        ["schur-weyl", "--shift-duality", "--kvec", "x"],
        ["all", "--max-d", "-1"],
        ["all", "--max-ell", "0"],
        ["objects", "--cap", "-5"],
        ["all", "--cap", "0"],
        # parse errors: no command, an unknown one, a bad or missing value, a
        # flag the command does not take, a --config after the command, an
        # abbreviated flag
        [],
        ["not-a-command"],
        ["verify-iso", "--ell", "x"],
        ["verify-iso", "--ell"],
        ["verify-iso", "--out", "xml"],
        ["gkd", "--kvec", "1"],
        ["verify-iso", "--seed", "1"],
        ["all", "--config", "c.json"],
        ["all", "--max-e", "1"],
    ],
)
def test_invalid_parameters_are_usage_errors(argv, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "case,message",
    [
        ("kk-not-a-divisor", "error: --kk must be a positive divisor of --ell (4)"),
        ("m-zero", "error: --m must be >= 1"),
        ("unreadable-config", "error: cannot read config: "),
        ("malformed-config", "error: cannot read config: "),
        ("jobs-zero", "error: --jobs must be >= 1"),
    ],
)
def test_shift_duality_config_and_jobs_errors_are_usage_errors(tmp_path, capsys, case, message):
    # each input ends with exit 2, one error line on stderr and nothing on stdout
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"ell": 2,')
    argv = {
        "kk-not-a-divisor": ["schur-weyl", "--shift-duality", "--ell", "4", "--kk", "3", "--m", "1", "--d", "2"],
        "m-zero": ["schur-weyl", "--shift-duality", "--ell", "4", "--kk", "2", "--m", "0", "--d", "2"],
        "unreadable-config": ["--config", str(tmp_path / "missing.json"), "verify-iso"],
        "malformed-config": ["--config", str(malformed), "verify-iso"],
        "jobs-zero": ["all", "--jobs", "0"],
    }[case]
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith(message) and "Traceback" not in err


def test_cap_is_checked_before_modules_are_built(capsys):
    t0 = time.perf_counter()
    code, _out = run_cli(["gelfand", "--ell", "5", "--d", "6"])
    assert code == 3
    assert time.perf_counter() - t0 < 1.0
    assert "group order 11250000 exceeds cap 1000000" in capsys.readouterr().err
    for command in ("gelfand", "simples", "branching"):
        assert run_cli([command, "--ell", "2", "--d", "3", "--cap", "10"])[0] == 3
    assert run_cli(["gkd", "--ell", "2", "--k", "2", "--d", "3", "--cap", "10"])[0] == 3


def test_all_honours_cap(capsys):
    assert run_cli(["all", "--max-ell", "2", "--max-d", "2", "--cap", "1"])[0] == 3
    assert "exceeds cap 1" in capsys.readouterr().err
    # a cap that no task reaches leaves the report as it is
    code, out = run_cli(["all", "--max-ell", "2", "--max-d", "1", "--cap", "48", "--out", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["parameters"] == {"max_ell": 2, "max_d": 1}
    assert checks_payload(rep) == checks_payload(json.loads(run_cli(["all", "--max-ell", "2", "--max-d", "1", "--out", "json"])[1]))


def test_objects_cap_bounds_the_hom_enumeration(capsys):
    # 3^6 = 729 objects fit the cap, but the 3^12 object pairs do not
    t0 = time.perf_counter()
    code, _out = run_cli(["objects", "--ell", "3", "--d", "6", "--cap", "1000"])
    assert code == 3
    assert time.perf_counter() - t0 < 1.0
    assert "hom-set enumeration 531441 exceeds cap 1000" in capsys.readouterr().err


def test_tensor_caps_bound_the_gl_generator_cells(capsys):
    # tensor dimension 5000 fits the cap, but the 5000^2 GL generators, each
    # over 5000^2 cells, do not: the cap counts (sum k_c^2)^(d+1) cells.  The
    # size is asserted first, so a cap that lets this input through fails here
    # instead of building the generators
    assert cli.SUITES["schur-weyl"].size({"ell": 1, "kvec": (5000,), "d": 1})[1] > cli.DEFAULT_CAP
    t0 = time.perf_counter()
    code, out = run_cli(["schur-weyl", "--ell", "1", "--d", "1", "--kvec", "5000"])
    assert code == 3 and out == ""
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == "error: resource cap exceeded: GL generator cells 625000000000000 exceeds cap 1000000\n"
    # the shift duality's l m^2 generators are dense over (l m)^(2d) cells:
    # 2 * 4^2 * 8^6 at (2,2,4,3), whose tensor dimension is 8^3 = 512
    assert cli.SUITES["shift-duality"].size({"ell": 2, "kk": 2, "m": 4, "d": 3})[1] > cli.DEFAULT_CAP
    code, out = run_cli(["schur-weyl", "--shift-duality", "--ell", "2", "--kk", "2", "--m", "4", "--d", "3"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == "error: resource cap exceeded: GL generator cells 8388608 exceeds cap 1000000\n"


def test_tensor_caps_admit_the_grids_and_the_d4_points():
    # the default grids and the larger points the ROADMAP lists stay under the default cap
    schur_weyl = cli.TENSOR_GRID + [
        (3, (1, 1, 1), 3), (2, (2, 2), 3), (2, (2, 1), 3), (1, (3,), 3), (2, (2, 2), 4), (1, (3,), 4),
    ]
    shift = cli.SHIFT_DUALITY_GRID + [(2, 2, 1, 3), (3, 3, 1, 3), (4, 2, 2, 2), (2, 2, 2, 3)]
    sizes = [cli.SUITES["schur-weyl"].size({"ell": ell, "kvec": kvec, "d": d})[1] for ell, kvec, d in schur_weyl]
    sizes += [cli.SUITES["shift-duality"].size({"ell": ell, "kk": kk, "m": m, "d": d})[1] for ell, kk, m, d in shift]
    assert max(sizes) == 65536 < cli.DEFAULT_CAP
    assert cli.SUITES["shift-duality"].size({"ell": 4, "kk": 2, "m": 2, "d": 2}) == ("GL generator cells", 65536)


def test_all_payload_and_timings_do_not_depend_on_jobs():
    reports = [
        json.loads(run_cli(["all", "--max-ell", "2", "--max-d", "2", "--jobs", jobs, "--out", "json"])[1])
        for jobs in ("1", "2")
    ]
    assert checks_payload(reports[0]) == checks_payload(reports[1])
    assert reports[0]["timings"].keys() == reports[1]["timings"].keys()
    assert len(reports[1]["timings"]) == 36  # 35 tasks and the total


# one task of each suite and the subcommand that runs it
SUBCOMMAND_TASKS = [
    (("objects", {"ell": 2, "d": 2}), "cardinalities (2,2)", ["objects", "--ell", "2", "--d", "2"]),
    (("verify-iso", {"ell": 2, "d": 2}), "verify-iso (2,2)", ["verify-iso", "--ell", "2", "--d", "2"]),
    (("simples", {"ell": 2, "d": 2}), "simples (2,2)", ["simples", "--ell", "2", "--d", "2"]),
    (("branching", {"ell": 2, "d": 2}), "branching (2,2)", ["branching", "--ell", "2", "--d", "2"]),
    (("gelfand", {"ell": 2, "d": 2}), "gelfand (2,2)", ["gelfand", "--ell", "2", "--d", "2"]),
    (("gkd", {"ell": 2, "k": 2, "d": 2}), "gkd (2,2,2)", ["gkd", "--ell", "2", "--k", "2", "--d", "2"]),
    (
        ("schur-weyl", {"ell": 2, "kvec": (1, 1), "d": 2}),
        "schur-weyl (2,(1, 1),2)",
        ["schur-weyl", "--ell", "2", "--kvec", "1,1", "--d", "2"],
    ),
    (
        ("shift-duality", {"ell": 2, "kk": 2, "m": 1, "d": 1}),
        "shift-duality (2,2,1,1)",
        ["schur-weyl", "--shift-duality", "--ell", "2", "--kk", "2", "--m", "1", "--d", "1"],
    ),
    (("rook-check", {"d": 2}), "rook d=2", ["rook-check", "--d", "2"]),
]


def test_every_suite_has_a_subcommand_task():
    assert sorted(task[0] for task, _name, _argv in SUBCOMMAND_TASKS) == sorted(cli.SUITES)


@pytest.mark.parametrize("task, name, argv", SUBCOMMAND_TASKS)
def test_all_task_reports_its_subcommand_checks(task, name, argv):
    task_name, checks, seconds = run_task(task)
    assert task_name == name and seconds >= 0
    code, out = run_cli([*argv, "--out", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"] == jsonable(checks)
    assert rep["timings"].keys() == {name, "total"}


def test_a_skipped_check_is_not_a_failure(capsys):
    checks = [{"name": "a", "status": "pass"}, {"name": "b", "status": "skip", "details": {"reason": "r"}}]
    report = make_report("x", {}, checks)
    assert report_ok(report) and exit_code(report) == 0
    emit(report, "text")
    assert capsys.readouterr().out.splitlines()[-1] == "-- 2 checks: 1 passed, 1 skipped, 0 failed"
    report = make_report("x", {}, checks + [{"name": "c", "status": "fail"}])
    assert not report_ok(report) and exit_code(report) == 1
    emit(report, "text")
    assert capsys.readouterr().out.splitlines()[-2:] == ["[FAIL] c", "-- 3 checks: 1 passed, 1 skipped, 1 failed"]


@pytest.mark.parametrize("ok", [None, 1, [1], 0])
def test_record_takes_only_a_bool(ok):
    # a truthy non-answer (a count, a list, a matrix) must not pass a check
    with pytest.raises(TypeError, match="ok must be a bool"):
        record("c", ok)


def test_record_keeps_details_only_when_given():
    assert record("c", True) == {"name": "c", "status": "pass"}
    assert record("c", False, None) == {"name": "c", "status": "fail"}
    assert record("c", True, {}) == {"name": "c", "status": "pass", "details": {}}
    assert record("c", False, [1]) == {"name": "c", "status": "fail", "details": [1]}


def test_skip_needs_a_reason():
    assert skip("c", "r") == {"name": "c", "status": "skip", "details": {"reason": "r"}}
    with pytest.raises(ValueError, match="needs a reason"):
        skip("c", "")


def test_gkd_with_a_skipped_rotation_check_exits_zero():
    # G(2,2,4) has a label whose p is not stabilizer-invariant
    code, out = run_cli(["gkd", "--ell", "2", "--k", "2", "--d", "4"])
    assert code == 0
    # the text report gives the reason on the check's line
    skipped = "gkd (2,2,4) rotation-eigenspaces: rotation eigenspaces for p=[[1, 1], [2]]"
    assert f"[SKIP] {skipped} (p not stabilizer-invariant)\n" in out
    assert out.splitlines()[-1] == "-- 44 checks: 43 passed, 1 skipped, 0 failed"
