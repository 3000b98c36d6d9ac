"""The IR printer, pinned by golden text.

IR is printed (``c4cam --dump-ir``), never parsed back, so the printer
is checked byte for byte against the default kernel's dump at each
lowering stage.  The cam stage covers nested regions, block arguments,
multi-result ops and two-region ``scf.if``.  Regenerate a file only when
a change to the printer or to a pass is meant to move it::

    python -m repro.cli --dump-ir <stage> > tests/golden/<stage>.mlir
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("stage", ["torch", "cim", "cam"])
def test_dump_ir_matches_golden(stage, capsys):
    assert main(["--dump-ir", stage]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{stage}.mlir").read_bytes()


def test_golden_cam_has_two_region_if():
    text = (GOLDEN / "cam.mlir").read_text()
    assert '"scf.if"' in text and "}, {" in text
