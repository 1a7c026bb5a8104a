"""Command-line surface: output formats, determinism, error channeling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edcycles.cli import main
from edcycles.crg import crg_to_json, k_rs
from edcycles.embed import gray_cycle_crg
from edcycles.graphs import graph_to_json, power_cycle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_curve_empty_p_range_exits_2(capsys):
    code, out, err = run(
        capsys, "curve", "--h", "8", "--t", "1", "--samples", "1",
        "--p-min", "3/5", "--no-search",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParameterDomainError"


def test_curve_byte_stable(capsys):
    _, first, _ = run(capsys, "curve", "--h", "9", "--t", "1", "--samples", "31")
    _, second, _ = run(capsys, "curve", "--h", "9", "--t", "1", "--samples", "31")
    assert first == second


def test_spectrum_power_cycle(capsys):
    code, out, _ = run(capsys, "spectrum", "--h", "5", "--t", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["extreme"] == [[0, 2], [1, 1], [2, 0]]
    assert blob["truncated"] is False


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


def test_g_exact_from_crg_file(capsys, tmp_path):
    path = tmp_path / "k11.json"
    path.write_text(json.dumps(crg_to_json(k_rs(1, 1))))
    code, out, _ = run(capsys, "g", "--crg", str(path), "--p", "1/3", "--mode", "exact")
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


@pytest.mark.parametrize("flags", [["--p", "1/2"], ["--p", "0"], ["--p", "1/2", "--numeric"]])
def test_g_empty_crg_exits_2(capsys, tmp_path, flags):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": []}))
    code, out, err = run(capsys, "g", "--crg", str(path), *flags)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "ParameterDomainError", "message": "a CRG needs at least one vertex"
    }


def test_g_krs_shortcut_and_numeric(capsys):
    code, out, _ = run(capsys, "g", "--krs", "1", "1", "--p", "1/3", "--numeric")
    assert code == 0
    blob = json.loads(out)
    assert blob["mode"] == "numeric"
    assert abs(blob["g"] - 2 / 9) < 1e-9


def test_g_endpoint(capsys):
    code, out, _ = run(capsys, "g", "--krs", "0", "3", "--p", "0")
    assert code == 0
    blob = json.loads(out)
    assert blob["g"] == "1/3"
    assert blob["mode"] == "endpoint"


@pytest.mark.parametrize("flag", ["--r-max", "--s-max"])
def test_spectrum_negative_bound_exits_2(capsys, flag):
    code, out, err = run(capsys, "spectrum", "--h", "8", "--t", "1", flag, "-1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParameterDomainError"


def test_embed_false_with_triangle(capsys, tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(crg_to_json(gray_cycle_crg(0, 3))))
    code, out, _ = run(capsys, "embed", "--h", "8", "--t", "1", "--crg", str(path))
    assert code == 0
    assert json.loads(out) == {"embeds": False}


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


def test_verify_facts_suite_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "facts",
        "--h-max", "60", "--t-max", "3", "--xy-max", "15", "--p-denominator", "50",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_weights_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "weights", "--count", "40")
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
    code, out, err = run(capsys, "verify", "--suite", suite, flag, value)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParameterDomainError"


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(
        "edcycles.cli.verify.gamma_cross_suite", lambda *a, **k: {"ok": False}
    )
    code, out, _ = run(capsys, "verify", "--suite", "gamma-cross")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_verify_facts_unreached_by_sweep_fail(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "facts", "--h-max", "1")
    assert code == 1
    facts = json.loads(out)["facts"]["facts"]
    unreached = {name for name, fact in facts.items() if fact["checked"] == 0}
    assert unreached == {
        "ceiling_floor_bound", "late_linearity", "early_linearity", "three_term_reduction"
    }
    assert all(facts[name]["passed"] is False for name in unreached)


@pytest.mark.parametrize("command", [
    ["maxpoint", "--h", "7", "--t", "1"],
    ["spectrum", "--h", "5", "--t", "1"],
    ["verify", "--suite", "facts"],
])
def test_format_flag_only_on_curve(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--format", "csv"])
    assert exc.value.code == 2


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
