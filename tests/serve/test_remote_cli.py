"""``--remote`` client mode: the CLI against a live in-process daemon.

The remote path must agree with the local path — same numbers, same
table shape — because the daemon runs the very same model code.
"""

from __future__ import annotations

import re

from repro.cli import main


def test_remote_report_matches_local_numbers(harness_factory, capsys):
    harness = harness_factory(jobs=1)
    url = harness.url
    assert main(["report", "--point", "32,2,2,2"]) == 0
    local_out = capsys.readouterr().out
    assert main(["report", "--point", "32,2,2,2", "--remote", url]) == 0
    remote_out = capsys.readouterr().out
    assert "(remote)" in remote_out
    # The headline numbers are identical, to the printed precision.
    pattern = r"([\d.]+) peak TOPS, ([\d.]+) mm\^2, ([\d.]+) W TDP"
    local = re.search(pattern, local_out)
    remote = re.search(pattern, remote_out)
    assert local is not None and remote is not None
    assert remote.groups() == local.groups()


def test_remote_dse_renders_the_table(harness_factory, capsys):
    harness = harness_factory(jobs=2)
    argv = ["dse", "--point", "32,2,2,2", "--point", "64,2,2,4",
            "--batch", "1"]
    code = main(argv + ["--remote", harness.url])
    out = capsys.readouterr().out
    assert code == 0
    assert "(X,N,Tx,Ty)" in out
    assert "(32,2,2,2)" in out
    assert "(64,2,2,4)" in out
    # One renderer: the local table is the remote one, byte for byte.
    assert main(argv) == 0
    assert capsys.readouterr().out == out
