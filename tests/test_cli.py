"""Command-line surface: output formats, determinism, error channeling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edcycles import verify
from edcycles.cli import main
from edcycles.crg import crg_to_json, k_rs
from edcycles.embed import gray_cycle_crg
from edcycles.errors import ParameterDomainError
from edcycles.graphs import graph_to_json, power_cycle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_argument_error(capsys, *argv):
    """An argument error exits 2 with one JSON object on stderr."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParameterDomainError"


def test_curve_row_count(capsys, tmp_path):
    code, out, err = run(
        capsys, "curve", "--h", "8", "--t", "1", "--samples", "101", "--no-search"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,gamma_closed,ed_closed,branch,covered"
    assert len(lines) == 102  # header plus exactly the requested samples


def test_curve_default_grid_includes_special_points(capsys):
    code, out, _ = run(
        capsys, "curve", "--h", "8", "--t", "1", "--no-search", "--format", "json"
    )
    assert code == 0
    ps = [row["p"] for row in json.loads(out)]
    assert "1/3" in ps  # p0 sits off the uniform grid but must be sampled
    assert len(ps) >= 202


def test_curve_explicit_point(capsys):
    code, out, _ = run(
        capsys, "curve", "--h", "5", "--t", "1", "--p", "1/2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["gamma"] == "1/4"


def test_curve_search_column_matches_closed_form(capsys):
    code, out, _ = run(
        capsys, "curve", "--h", "8", "--t", "1", "--samples", "5", "--format", "json"
    )
    assert code == 0
    for row in json.loads(out):
        assert row["gamma_search"] == row["gamma"]


def test_curve_range_error(capsys):
    code, out, err = run(capsys, "curve", "--h", "3", "--t", "1")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ParameterDomainError"
    assert "4" in payload["message"]


def test_curve_zero_samples_exits_2(capsys):
    code, out, err = run(capsys, "curve", "--h", "8", "--t", "1", "--samples", "0")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParameterDomainError"


@pytest.mark.parametrize("flags", [
    ["--p", "1/2", "--samples", "5"],  # an explicit grid and a uniform one
    ["--samples", "5", "--p", "1/2", "--p", "1/3"],
    ["--p", "1/4", "--p-min", "1/2"],  # range filters no longer exist
    ["--samples", "5", "--p-min", "1", "--p-max", "1/2"],
])
def test_curve_grid_flags_conflict_exits_2(capsys, flags):
    assert_argument_error(capsys, "curve", "--h", "8", "--t", "1", *flags)


def test_curve_byte_stable(capsys):
    _, first, _ = run(capsys, "curve", "--h", "9", "--t", "1", "--samples", "31")
    _, second, _ = run(capsys, "curve", "--h", "9", "--t", "1", "--samples", "31")
    assert first == second


def test_spectrum_power_cycle(capsys):
    code, out, _ = run(capsys, "spectrum", "--h", "5", "--t", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["extreme"] == [[0, 2], [1, 1], [2, 0]]
    assert set(blob) == {"pairs", "extreme"}


def test_spectrum_from_graph_file(capsys, tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(json.dumps(graph_to_json(power_cycle(5, 1))))
    code, out, _ = run(capsys, "spectrum", "--graph", str(path))
    assert code == 0
    assert json.loads(out)["extreme"] == [[0, 2], [1, 1], [2, 0]]


def test_spectrum_malformed_graph_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 2]]}))
    code, out, err = run(capsys, "spectrum", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParameterDomainError"


UNREADABLE_JSON = {
    "not-utf8": b"\xff{}",
    "nested-too-deep": b"[" * 200_000,
    "integer-past-digit-limit": b'{"n": ' + b"9" * 5000 + b', "edges": []}',
}
FILE_COMMANDS = {
    "g": ["g", "--p", "1/3", "--crg"],
    "spectrum": ["spectrum", "--graph"],
    "embed": ["embed", "--h", "8", "--t", "1", "--crg"],
}


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
@pytest.mark.parametrize("content", sorted(UNREADABLE_JSON))
def test_unreadable_json_file_exits_2(capsys, tmp_path, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(UNREADABLE_JSON[content])
    code, out, err = run(capsys, *FILE_COMMANDS[command], str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParameterDomainError"


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_json_syntax_error_exits_2(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3,')
    code, out, err = run(capsys, *FILE_COMMANDS[command], str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "JSONDecodeError"


def test_g_exact_from_crg_file(capsys, tmp_path):
    path = tmp_path / "k11.json"
    path.write_text(json.dumps(crg_to_json(k_rs(1, 1))))
    code, out, _ = run(capsys, "g", "--crg", str(path), "--p", "1/3")
    assert code == 0
    blob = json.loads(out)
    assert blob["g"] == "2/9"
    assert blob["mode"] == "exact"


def test_g_crg_file_without_vertices_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"edges": {"default": "gray", "overrides": []}}))
    code, out, err = run(capsys, "g", "--crg", str(path), "--p", "1/3")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParameterDomainError"


@pytest.mark.parametrize("crg", [
    {"vertices": ["white", "black"], "edges": {"overrides": [[0, 1, "black"], [1, 0, "white"]]}},
    {"vertices": ["white"], "edges": {"default": "purple"}},
    {"vertices": ["white", "black", "black"],
     "edges": {"default": "white", "overrides": [[1, 2, "gray"], [2, 1, "gray"]]}},
], ids=["pair-twice", "bad-default-one-vertex", "same-pair-same-color"])
def test_g_conflicting_crg_file_exits_2(capsys, tmp_path, crg):
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(crg))
    assert_argument_error(capsys, "g", "--crg", str(path), "--p", "1/3")


@pytest.mark.parametrize("flags", [["--p", "1/2"], ["--p", "0"], ["--p", "1"]])
def test_g_empty_crg_exits_2(capsys, tmp_path, flags):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": []}))
    code, out, err = run(capsys, "g", "--crg", str(path), *flags)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "ParameterDomainError", "message": "a CRG needs at least one vertex"
    }


def test_g_krs_shortcut_is_exact(capsys):
    code, out, _ = run(capsys, "g", "--krs", "1", "1", "--p", "1/3")
    assert code == 0
    blob = json.loads(out)
    assert blob["mode"] == "exact"
    assert blob["g"] == "2/9"


def test_g_needs_exactly_one_crg_input(capsys, tmp_path):
    path = tmp_path / "k11.json"
    path.write_text(json.dumps(crg_to_json(k_rs(1, 1))))
    crg, krs = ["--crg", str(path)], ["--krs", "2", "3"]
    for inputs in (crg + krs, krs + crg, []):
        assert_argument_error(capsys, "g", *inputs, "--p", "1/3")


@pytest.mark.parametrize("command", ["spectrum", "embed"])
@pytest.mark.parametrize("flags", [["--h", "5", "--t", "1"], ["--h", "5"], ["--t", "1"]],
                         ids=["h-and-t", "h", "t"])
def test_graph_file_with_cycle_flags_exits_2(capsys, tmp_path, command, flags):
    graph = tmp_path / "c5.json"
    graph.write_text(json.dumps(graph_to_json(power_cycle(5, 1))))
    crg = tmp_path / "k11.json"
    crg.write_text(json.dumps(crg_to_json(k_rs(1, 1))))
    extra = ["--crg", str(crg)] if command == "embed" else []
    assert_argument_error(capsys, command, "--graph", str(graph), *flags, *extra)


@pytest.mark.parametrize("flag", ["--mode", "--exact", "--numeric"])
def test_g_has_no_mode_flags(capsys, flag):
    assert_argument_error(capsys, "g", "--krs", "1", "1", "--p", "1/3", flag)


@pytest.mark.parametrize(
    "command", [["curve", "--h", "9", "--t", "1"], ["g", "--krs", "1", "1"]], ids=["curve", "g"]
)
def test_negative_ratio_p_gets_the_range_refusal(capsys, command):
    # -1/2 is a value, not an option: the space form refuses it as --p=-1/2 does
    code, out, err = run(capsys, *command, "--p", "-1/2")
    assert (code, out, err) == run(capsys, *command, "--p=-1/2")
    assert code == 2
    assert json.loads(err)["error"] == "ParameterDomainError"


def test_curve_has_no_search_flag(capsys):
    # the search column is on whenever h allows it; only --no-search remains
    assert_argument_error(capsys, "curve", "--h", "8", "--t", "1", "--search")


def test_g_endpoint(capsys):
    code, out, _ = run(capsys, "g", "--krs", "0", "3", "--p", "0")
    assert code == 0
    blob = json.loads(out)
    assert blob["g"] == "1/3"
    assert blob["mode"] == "endpoint"


@pytest.mark.parametrize("flag", ["--r-max", "--s-max"])
def test_spectrum_negative_bound_exits_2(capsys, flag):
    # spectra are always complete, so the bound flags no longer exist
    assert_argument_error(capsys, "spectrum", "--h", "8", "--t", "1", flag, "-1")


def test_embed_false_with_triangle(capsys, tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(crg_to_json(gray_cycle_crg(0, 3))))
    code, out, _ = run(capsys, "embed", "--h", "8", "--t", "1", "--crg", str(path))
    assert code == 0
    assert json.loads(out) == {"embeds": False}


@pytest.mark.parametrize("timeout", ["nan", "0", "-1"])
def test_embed_timeout_must_be_positive(capsys, tmp_path, timeout):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(crg_to_json(gray_cycle_crg(0, 3))))
    argv = ("embed", "--h", "8", "--t", "1", "--crg", str(path), "--timeout", timeout)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParameterDomainError"


def test_embed_true_carries_witness(capsys, tmp_path):
    path = tmp_path / "sq.json"
    path.write_text(json.dumps(crg_to_json(gray_cycle_crg(0, 4))))
    code, out, _ = run(capsys, "embed", "--h", "8", "--t", "1", "--crg", str(path))
    assert code == 0
    blob = json.loads(out)
    assert blob["embeds"] is True
    assert len(blob["phi"]) == 8


def test_maxpoint(capsys):
    code, out, _ = run(capsys, "maxpoint", "--h", "7", "--t", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["p_star"] == pytest.approx(0.41421356, abs=1e-6)


def _maxpoint_json(p_star, d_star):
    return f'{{\n  "p_star": {p_star},\n  "d_star": {d_star},\n  "method": "closed-form"\n}}\n'


@pytest.mark.parametrize(
    "h,t,expected",
    [
        # 3 - 2 sqrt(2) at the vertex sqrt(2) - 1, rounded correctly
        ("7", "1", _maxpoint_json("0.41421356237309503", "0.1715728752538099")),
        # the crossing 1/3, where gamma is 1/9
        ("13", "1", _maxpoint_json("0.3333333333333333", "0.1111111111111111")),
        ("25", "3", _maxpoint_json("0.5", "0.08333333333333333")),
    ],
    ids=["h7-t1", "h13-t1", "h25-t3"],
)
def test_maxpoint_golden_stdout(capsys, h, t, expected):
    assert run(capsys, "maxpoint", "--h", h, "--t", t) == (0, expected, "")


def test_curve_golden_stdout(capsys):
    expected = (
        "p,gamma_closed,ed_closed,branch,covered,gamma_search\n"
        "0.3333333333333333,0.1111111111111111,0.1111111111111111,a=2,True,0.1111111111111111\n"
        "0.36633663366336633,0.11606705224977944,0.11606705224977944,a=2,True,0.11606705224977944\n"
    )
    argv = ("curve", "--h", "13", "--t", "2", "--p", "1/3", "--p", "37/101")
    assert run(capsys, *argv) == (0, expected, "")


def test_verify_facts_suite_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "facts")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_weights_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "weights")
    assert code == 0
    blob = json.loads(out)
    assert blob["weights"]["asserted"] >= 10


@pytest.mark.parametrize(
    "suite,flag,value",
    [
        ("components", "--count", "0"),
        ("components", "--count", "-1"),
        ("weights", "--count", "0"),
        ("facts", "--h-max", "0"),
        ("facts", "--t-max", "0"),
        ("facts", "--xy-max", "0"),
        ("facts", "--p-denominator", "0"),
    ],
)
def test_verify_empty_sweep_exits_2(capsys, suite, flag, value):
    # the sweeps are fixed, so no flag can shrink one, let alone empty it
    assert_argument_error(capsys, "verify", "--suite", suite, flag, value)


@pytest.mark.parametrize("names", [[], ["bogus"], ["facts", "bogus"]])
def test_run_suites_refuses_empty_or_unknown_names(names):
    with pytest.raises(ParameterDomainError):
        verify.run_suites(names)


def test_suite_table_alone_names_and_orders_the_suites(capsys, monkeypatch):
    # a suite is one entry of verify.SUITES: the CLI accepts it and
    # run_suites reports the sections in table order, not request order
    monkeypatch.setattr(verify, "SUITES", {
        "second_fake": lambda: {"ok": True, "order": 2},
        "first_fake": lambda: {"ok": True, "order": 1},
    })
    code, out, _ = run(capsys, "verify", "--suite", "first-fake")
    assert code == 0
    assert json.loads(out)["first_fake"]["order"] == 1
    report = verify.run_suites(["first_fake", "second_fake"])
    assert list(report) == ["second_fake", "first_fake", "ok"]
    assert_argument_error(capsys, "verify", "--suite", "facts")


def test_verify_gamma_cross_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gamma-cross")
    assert code == 0
    section = json.loads(out)["gamma_cross"]
    assert section["ok"] is True
    assert len(section["pairs"]) == 27
    assert 3 in {pair["t"] for pair in section["pairs"]}


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "gamma_cross", lambda: {"ok": False})
    code, out, _ = run(capsys, "verify", "--suite", "gamma-cross")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_verify_facts_unreached_by_sweep_fail(capsys, monkeypatch):
    # a fact whose sweep never reaches a case must fail the verify run
    monkeypatch.setattr(verify, "FACT_CHECKS", {"unreached": lambda fact: None})
    code, out, _ = run(capsys, "verify", "--suite", "facts")
    assert code == 1
    fact = json.loads(out)["facts"]["facts"]["unreached"]
    assert fact["checked"] == 0
    assert fact["passed"] is False


@pytest.mark.parametrize("command", [
    ["maxpoint", "--h", "7", "--t", "1"],
    ["spectrum", "--h", "5", "--t", "1"],
    ["verify", "--suite", "facts"],
])
def test_format_flag_only_on_curve(capsys, command):
    assert_argument_error(capsys, *command, "--format", "csv")


@pytest.mark.parametrize("argv", [
    ["g", "--krs", "1", "1", "--p", "1/0"],
    ["g", "--krs", "1", "1", "--p", "nan"],
    ["curve", "--h", "x", "--t", "1"],
    ["curve", "--t", "1"],
    ["maxpoint", "--h", "7", "--t", "1", "--bogus"],
    ["verify", "--suite", "bogus"],
    [],
])
def test_argument_errors_are_json(capsys, argv):
    assert_argument_error(capsys, *argv)


@pytest.mark.parametrize("argv,error", [
    # the answer outgrows the int-to-string digit limit, though p does not
    (["g", "--krs", "1", "1", "--p", "1e-3000"], "SizeExceededError"),
    (["curve", "--h", "8", "--t", "1", "--no-search", "--format", "json", "--p", "1e-3000"],
     "SizeExceededError"),
    # p itself would pass the limit: refused from its exponent
    (["g", "--krs", "1", "1", "--p", "1e-999999"], "ParameterDomainError"),
    (["g", "--krs", "1", "1", "--p", "1e-9999999"], "ParameterDomainError"),
], ids=["g-answer", "curve-answer", "g-p-1e-999999", "g-p-1e-9999999"])
def test_numbers_past_the_digit_limit_exit_2(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("command", ["spectrum", "embed"])
def test_huge_cycle_power_is_refused_for_its_size(capsys, tmp_path, command):
    # C_100000 is built distance by distance, so the size refusal is reached
    # without a build over all pairs
    argv = [command, "--h", "100000", "--t", "1"]
    if command == "embed":
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(crg_to_json(gray_cycle_crg(0, 3))))
        argv += ["--crg", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "SizeExceededError"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["g", "--help"])
    assert exc.value.code == 0
    assert "--krs" in capsys.readouterr().out


def test_output_file(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    code, out, _ = run(
        capsys, "curve", "--h", "8", "--t", "1", "--samples", "11",
        "--no-search", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("p,gamma_closed")


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "edcycles", "maxpoint", "--h", "7", "--t", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["p_star"] == pytest.approx(0.41421356, abs=1e-6)
