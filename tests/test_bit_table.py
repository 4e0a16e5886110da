"""`tools/bit_table.py` runs, and prints the bits that this process computes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bit_table.py"


def test_bit_table_runs_on_one_catalog_entry():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(TOOL), "sphere2_r3"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["sphere2_r3", "gauss_bonnet"], ["sphere2_r3", "gauss_bonnet_quadrature"],
        ["sphere2_r3", "frames_at"], ["sphere2_r3", "jets_at_3"], ["sphere2_r3", "egregium_report"],
        ["tube", "sphere2_r3"], ["tube_point", "sphere2_r3"]]
    integral = float.fromhex(lines[0].split()[2].removeprefix("integral="))
    assert abs(integral - 4 * np.pi) < 1e-12  # 2 pi chi
    spec = importlib.util.spec_from_file_location("bit_table", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert lines == list(tool.rows(["sphere2_r3"]))  # the same bits in another process
