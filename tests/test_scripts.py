"""The scripts under scripts/ run end to end."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_scale_probe_prints_every_step_at_level6():
    # Level 5 gives too few dyadic scales for the box count and exits 1.
    out = subprocess.run([sys.executable, str(SCRIPTS / "scale_probe.py"), "6"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert all(line.startswith("L6 ") for line in lines), lines
    # Each line is "L6 ", the step left-aligned in 14 columns, then its figures.
    assert [line[3:17].strip() for line in lines] == [
        "generate", "curve file", "d_hat", "energy", "SegmentIndex", "visible_set", "render_scene",
        "grid median"]
