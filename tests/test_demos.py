"""The committed demo outputs match what the demos write today."""

from __future__ import annotations

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).parent.parent / "demos"


def load_demo(name: str):
    spec = importlib.util.spec_from_file_location(f"demo_{Path(name).stem}", DEMOS / name)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def test_construction_output_matches_the_committed_text(capsys):
    load_demo("01_minimal_max_robust_graphs.py").main()
    expected = (DEMOS / "out" / "01_minimal_max_robust_graphs.txt").read_bytes()
    assert capsys.readouterr().out.encode() == expected


def test_certificates_output_matches_the_committed_text(capsys):
    # one line times the two checks, so it differs from run to run
    load_demo("02_certificates.py").main()
    lines = capsys.readouterr().out.splitlines(keepends=True)
    expected = (DEMOS / "out" / "02_certificates.txt").read_text().splitlines(keepends=True)
    timed = [i for i, line in enumerate(expected) if line.startswith("complement check: ")]
    assert len(timed) == 1 and len(lines) == len(expected)
    assert lines[timed[0]].startswith("complement check: ")
    del lines[timed[0]], expected[timed[0]]
    assert lines == expected


def test_minimality_output_matches_the_committed_text(capsys):
    load_demo("03_minimality.py").main()
    expected = (DEMOS / "out" / "03_minimality.txt").read_bytes()
    assert capsys.readouterr().out.encode() == expected


def test_resilient_consensus_outputs_match_the_committed_csvs(tmp_path, capsys):
    demo = load_demo("04_resilient_consensus.py")
    demo.OUT = tmp_path
    demo.main()
    expected = (DEMOS / "out" / "04_resilient_consensus.txt").read_bytes()
    assert capsys.readouterr().out.encode() == expected
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(p.name for p in (DEMOS / "out").glob("*.csv"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (DEMOS / "out" / name).read_bytes(), name
