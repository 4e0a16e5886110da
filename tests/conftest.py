"""Shared catalog name lists and surface files for the test suite."""

import json
import math

import numpy as np
import pytest

import curvlab as cl

# every built-in surface, in catalog order
ALL_NAMES = [
    "circle_r2",
    "circle_r3",
    "sphere2_r3",
    "sphere2_r4",
    "torus_rev_r3",
    "clifford_torus_r4",
    "sphere4_r5",
    "product_s2s2_r6",
    "graph_poly",
]

EVEN_M_NAMES = [n for n in ALL_NAMES if n not in ("circle_r2", "circle_r3")]
ODD_M_NAMES = ["circle_r2", "circle_r3"]

# closed surfaces with a declared Euler characteristic
CHI_NAMES = [n for n in ALL_NAMES if n != "graph_poly"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def get(name):
    return cl.catalog_get(name)


def unit_circle_file(tmp_path, **fields):
    """A surface file for the unit circle in R^2; `fields` override."""
    doc = {
        "name": "unit_circle",
        "m": 1,
        "k": 2,
        "euler_char": 0,
        "reach": 0.5,
        "domain": [{"lo": 0.0, "hi": 2 * math.pi, "periodic": True}],
        "coordinates": [
            [{"coeff": 1.0, "factors": [{"axis": 0, "kind": "cos", "freq": 1}]}],
            [{"coeff": 1.0, "factors": [{"axis": 0, "kind": "sin", "freq": 1}]}],
        ],
        **fields,
    }
    path = tmp_path / "unit_circle.json"
    path.write_text(json.dumps(doc))
    return str(path)


def circle_r3_file(tmp_path):
    """The unit circle in the xy-plane of R^3 as a surface file: codimension 2."""
    xy = [[{"coeff": 1.0, "factors": [_factor(0, trig)]}] for trig in ("cos", "sin")]
    return unit_circle_file(tmp_path, name="circle_file_r3", k=3, coordinates=xy + [[]])


def clifford_torus_file(tmp_path, k=4):
    """The Clifford torus (cos t, sin t, cos p, sin p)/sqrt(2) in R^4 as a surface file: codimension 2; padded
    with k - 4 zero coordinates, in R^k."""
    c = 1.0 / math.sqrt(2.0)
    doc = {
        "name": f"clifford_file_r{k}",
        "m": 2,
        "k": k,
        "euler_char": 0,
        "domain": [{"lo": 0.0, "hi": 2 * math.pi, "periodic": True}] * 2,
        "coordinates": [[{"coeff": c, "factors": [_factor(axis, trig)]}]
                        for axis in (0, 1) for trig in ("cos", "sin")] + [[]] * (k - 4),
    }
    path = tmp_path / f"clifford_file_r{k}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def clifford_torus_r6_file(tmp_path):
    """The Clifford torus padded into R^6: codimension 4."""
    return clifford_torus_file(tmp_path, k=6)


def _torus_file(tmp_path, name, terms_xy, terms_z):
    """A surface file for a torus, both axes periodic, with the given coordinate terms."""
    doc = {
        "name": name,
        "m": 2,
        "k": 3,
        "euler_char": 0,
        "domain": [{"lo": 0.0, "hi": 2 * math.pi, "periodic": True}] * 2,
        "coordinates": [terms_xy(trig) for trig in ("cos", "sin")] + [terms_z],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _factor(axis, kind, freq=1):
    return {"axis": axis, "kind": kind, "freq": freq}


def wiggly_torus_file(tmp_path, freq, R=2.0, r=0.5, a=0.002):
    """Torus (R + r cos v + a cos(freq u)) (cos u, sin u), r sin v.

    Its curvature is periodic in u with period 2 pi / freq: every harmonic
    in u is a multiple of freq.
    """
    return _torus_file(
        tmp_path, f"wiggly_torus_{freq}",
        lambda trig: [
            {"coeff": R, "factors": [_factor(0, trig)]},
            {"coeff": r, "factors": [_factor(1, "cos"), _factor(0, trig)]},
            {"coeff": a, "factors": [_factor(0, "cos", freq), _factor(0, trig)]},
        ],
        [{"coeff": r, "factors": [_factor(1, "sin")]}],
    )


def elliptic_torus_file(tmp_path, R=2.0, p=0.5, q=0.05):
    """Torus of revolution (R + p cos v) (cos u, sin u), q sin v: an ellipse profile."""
    return _torus_file(
        tmp_path, "elliptic_torus",
        lambda trig: [
            {"coeff": R, "factors": [_factor(0, trig)]},
            {"coeff": p, "factors": [_factor(1, "cos"), _factor(0, trig)]},
        ],
        [{"coeff": q, "factors": [_factor(1, "sin")]}],
    )
