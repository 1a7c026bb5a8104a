"""Exact stdout of small CLI commands, pinned to text kept in tests/golden.

Each file holds the stdout of one command as the package printed it when
the file was written, so a change that moves any printed digit, key, label
or row fails here, not only a change between two runs of the same code.
verify prints its wall-clock elapsed_s, which is masked on both sides.
miss_crg.json is an input: a 10-vertex CRG whose pairs include tied ones
(A_ii + A_jj = 2 A_ij) at both p its g commands are run at.
"""

import re
from pathlib import Path

import pytest

from edcycles.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ELAPSED = re.compile(r'"elapsed_s": [0-9.e+-]+')

COMMANDS = {
    "maxpoint_h41_t4.json": ["maxpoint", "--h", "41", "--t", "4"],
    "spectrum_h13_t2.json": ["spectrum", "--h", "13", "--t", "2"],
    "g_krs_2_3_p_1-3.json": ["g", "--krs", "2", "3", "--p", "1/3"],
    "g_miss_crg_p_1-4.json": ["g", "--crg", str(GOLDEN / "miss_crg.json"), "--p", "1/4"],
    "g_miss_crg_p_1-2.json": ["g", "--crg", str(GOLDEN / "miss_crg.json"), "--p", "1/2"],
    "curve_h9_t1_samples11.csv": ["curve", "--h", "9", "--t", "1", "--samples", "11"],
    "curve_h15_t2_p_1-7_3-10.json": [
        "curve", "--h", "15", "--t", "2", "--p", "1/7", "--p", "3/10", "--format", "json",
    ],
    "verify_facts.json": ["verify", "--suite", "facts"],
    "verify_all.json": ["verify", "--suite", "all"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_matches_golden(capsys, name):
    code = main(COMMANDS[name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    out = ELAPSED.sub('"elapsed_s": null', captured.out)
    assert out == (GOLDEN / name).read_text()
