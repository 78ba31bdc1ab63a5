"""The committed demo outputs match what the demos write today."""

from __future__ import annotations

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).parent.parent / "demos"


def test_resilient_consensus_outputs_match_the_committed_csvs(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "resilient_consensus_demo", DEMOS / "04_resilient_consensus.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.OUT = tmp_path
    demo.main()
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(p.name for p in (DEMOS / "out").glob("*.csv"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (DEMOS / "out" / name).read_bytes(), name
