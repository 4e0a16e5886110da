"""`tools/bit_table.py` runs, prints the bits that this process computes, and its scalar rows move by
roundoff only against `tests/data/bit_table_scalars.txt`."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import curvlab as cl

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bit_table.py"
SCALARS = ROOT / "tests" / "data" / "bit_table_scalars.txt"
EXACT_FIELDS = ("eps", "grid_shape", "grid_shapes")


def _load_tool():
    spec = importlib.util.spec_from_file_location("bit_table", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bit_table_runs_on_one_catalog_entry():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(TOOL), "sphere2_r3"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["sphere2_r3", "gauss_bonnet"], ["sphere2_r3", "gauss_bonnet_quadrature"], ["sphere2_r3", "integrate_scalar"],
        ["sphere2_r3", "gauss_bonnet_13"], ["sphere2_r3", "frames_at"], ["sphere2_r3", "frames_at_window"],
        ["sphere2_r3", "jets_at_3"],
        ["sphere2_r3", "egregium_report"], ["tube", "sphere2_r3"], ["tube_8", "sphere2_r3"], ["tube_point", "sphere2_r3"]]
    integral = float.fromhex(lines[0].split()[2].removeprefix("integral="))
    assert abs(integral - 4 * np.pi) < 1e-12  # 2 pi chi
    area = float.fromhex(lines[2].split()[2].removeprefix("area="))
    assert abs(area - 4 * np.pi) < 1e-12
    tool = _load_tool()
    assert lines == list(tool.rows(["sphere2_r3"]))  # the same bits in another process
    # a tube whose sheets span several chunks has its fixed-resolution row only; the rotated chart follows
    assert [line.split()[:2] for line in tool.rows(["product_s2s2_r6"])][-4:] == [
        ["product_s2s2_r6", "egregium_report"], ["tube_8", "product_s2s2_r6"],
        ["product_s2s2_r6_rotated", "gauss_bonnet_13"], ["product_s2s2_r6_rotated", "frames_at_window"]]


def _fields(line):
    """A row's label, its first two words, and its fields as a dict of name to text."""
    label, *fields = re.split(r" (?=\w+=)", line)
    return label, dict(field.split("=", 1) for field in fields)


def _values(text):
    """The numbers of a field: one `float.hex` or a tuple of them; None stays None."""
    return [None if v == "None" else float.fromhex(v) for v in text.strip("()").split(", ")]


def _scale(label):
    """The quantum of a row's integrals, totals and estimates; None where a value is its own scale."""
    first, *rest = label.split()  # "name kind", "tube name", or "name" alone before the reach; "<name>_rotated kind"
    if first in ("tube", "tube_8", "tube_10"):
        return cl.sphere_volume(cl.catalog_get(rest[0]).k - 1)
    if rest and rest[0].startswith("gauss_bonnet"):
        imm = cl.catalog_get(first.removesuffix("_rotated"))
        return cl.sphere_volume(imm.k - 1) / cl.sphere_volume(imm.n - 1)
    return None


def test_scalar_rows_move_by_roundoff_only():
    # every scalar row, recomputed: the same rows and fields, grid shapes and radii exactly, and every value
    # within 1e-14 of its scale (the quantum, or the value's own size for an area and the reach)
    committed = [_fields(line) for line in SCALARS.read_text().splitlines()]
    rows = [_fields(line) for line in _load_tool().rows(cl.catalog_names(), digests=False)]
    assert [(label, fields.keys()) for label, fields in rows] == [(label, fields.keys()) for label, fields in committed]
    for (label, fields), (_, want) in zip(rows, committed):
        scale = _scale(label)
        for key, text in want.items():
            if key in EXACT_FIELDS:
                assert fields[key] == text, (label, key)
                continue
            for got, value in zip(_values(fields[key]), _values(text), strict=True):
                assert (got is None) == (value is None), (label, key)
                if value is not None:
                    assert abs(got - value) <= 1e-14 * (abs(value) if scale is None else scale), (label, key, got)
