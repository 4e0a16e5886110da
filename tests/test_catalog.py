"""Built-in surface catalog, parameter parsing, and the surface-file loader."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab as cl
from curvlab.errors import ImmersionFileError, UnknownImmersionError

from conftest import ALL_NAMES, get

# (name, m, k, chi) for every required entry
_EXPECTED = {
    "circle_r2": (1, 2, 0),
    "circle_r3": (1, 3, 0),
    "sphere2_r3": (2, 3, 2),
    "sphere2_r4": (2, 4, 2),
    "torus_rev_r3": (2, 3, 0),
    "clifford_torus_r4": (2, 4, 0),
    "sphere4_r5": (4, 5, 2),
    "product_s2s2_r6": (4, 6, 4),
    "graph_poly": (2, 4, None),
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_entry_dimensions(name):
    imm = get(name)
    m, k, chi = _EXPECTED[name]
    assert (imm.m, imm.k, imm.euler_char) == (m, k, chi)
    assert imm.n == k - m
    assert imm.reach is not None and imm.reach > 0


def test_catalog_names_and_entries():
    names = cl.catalog_names()
    assert set(names) == set(ALL_NAMES)
    entries = {e["name"]: e for e in cl.catalog_entries()}
    assert entries["sphere2_r4"]["m"] == 2
    assert entries["sphere2_r4"]["k"] == 4
    assert entries["sphere2_r4"]["chi"] == 2
    assert entries["product_s2s2_r6"]["n"] == 2


def test_parametrized_catalog_entries():
    big = cl.catalog_get("sphere2_r3(R=2)")
    p = big.points(np.array([[1.0, 1.0]]))[0]
    assert_allclose(np.linalg.norm(p), 2.0, rtol=1e-14)
    assert big.reach == pytest.approx(1.0)  # R/2
    t = cl.catalog_get("torus_rev_r3(R=3,r=0.25)")
    assert t.reach == pytest.approx(0.125)  # min(r, R - r)/2
    # surface area 4 pi^2 R r fixes both radii
    area = cl.integrate_scalar(t, lambda U: np.ones(len(U)), cl.default_grid(t))
    assert_allclose(area, 4 * np.pi**2 * 3 * 0.25, rtol=1e-10)


def test_catalog_get_errors():
    with pytest.raises(UnknownImmersionError) as err:
        cl.catalog_get("nope")
    assert "sphere2_r4" in str(err.value)  # lists the known names
    with pytest.raises(UnknownImmersionError):
        cl.catalog_get("sphere2_r3(R=abc)")
    with pytest.raises(UnknownImmersionError):
        cl.catalog_get("sphere2_r3(bogus=1)")


def test_graph_poly_custom_terms():
    # X(x, y) = (x, y, 0.5 x^2, x y)
    imm = cl.graph_poly(2, 2, [[(0.5, (2, 0))], [(1.0, (1, 1))]], box=2.0)
    point, _, d2 = cl.jets_at(imm, imm.wrap([0.3, -0.4])[None], order=2)
    assert_allclose(point[0], [0.3, -0.4, 0.5 * 0.09, -0.12], atol=1e-15)
    assert_allclose(d2[0, 2, 0, 0], 1.0, atol=1e-15)
    assert_allclose(d2[0, 3, 0, 1], 1.0, atol=1e-15)
    assert imm.euler_char is None
    assert imm.domain[0].lo == -2.0 and imm.domain[0].hi == 2.0


def test_graph_poly_validation():
    with pytest.raises(ValueError):
        cl.graph_poly(2, 1, [[(1.0, (2,))]])  # exponent arity != m
    with pytest.raises(ValueError):
        cl.graph_poly(2, 1, [[(1.0, (-1, 0))]])  # negative exponent
    with pytest.raises(ValueError):
        cl.graph_poly(2, 2, [[(1.0, (2, 0))]])  # one term list for n = 2


def test_random_graph_poly_reproducible():
    a = cl.random_graph_poly(np.random.default_rng(5), m=2, n=2, degree=3)
    b = cl.random_graph_poly(np.random.default_rng(5), m=2, n=2, degree=3)
    U = np.array([[0.2, -0.6]])
    assert_allclose(a.points(U), b.points(U), rtol=0, atol=0)
    c = cl.random_graph_poly(np.random.default_rng(6), m=2, n=3, degree=2)
    assert (c.m, c.k, c.n) == (2, 5, 3)


# -- surface files ----------------------------------------------------------


def _flat_torus_doc():
    two_pi = 2 * np.pi
    return {
        "name": "flat_torus_file",
        "m": 2,
        "k": 4,
        "euler_char": 0,
        "domain": [
            {"lo": 0.0, "hi": two_pi, "periodic": True},
            {"lo": 0.0, "hi": two_pi, "periodic": True},
        ],
        "coordinates": [
            [{"coeff": 1.0, "factors": [{"axis": 0, "kind": "cos", "freq": 1}]}],
            [{"coeff": 1.0, "factors": [{"axis": 0, "kind": "sin", "freq": 1}]}],
            [{"coeff": 1.0, "factors": [{"axis": 1, "kind": "cos", "freq": 1}]}],
            [{"coeff": 1.0, "factors": [{"axis": 1, "kind": "sin", "freq": 1}]}],
        ],
    }


def _write(tmp_path, doc):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_flat_torus_file(tmp_path):
    imm = cl.load_immersion(_write(tmp_path, _flat_torus_doc()))
    assert (imm.name, imm.m, imm.k, imm.euler_char) == ("flat_torus_file", 2, 4, 0)
    fd = cl.frame_data_at(imm, [0.7, 2.1])
    assert_allclose(fd.metric, np.eye(2), atol=1e-14)
    assert cl.generalized_curvature_moments(fd) == pytest.approx(0.0, abs=1e-14)
    assert imm.reach is not None and 0 < imm.reach < 1.0  # sampled curvature bound


def test_load_polynomial_graph_file(tmp_path):
    doc = {
        "m": 2,
        "k": 3,
        "domain": [
            {"lo": -1.0, "hi": 1.0},
            {"lo": -1.0, "hi": 1.0},
        ],
        "coordinates": [
            [{"coeff": 1.0, "factors": [{"axis": 0, "kind": "pow", "exponent": 1}]}],
            [{"coeff": 1.0, "factors": [{"axis": 1, "kind": "pow", "exponent": 1}]}],
            [
                {"coeff": 1.0, "factors": [{"axis": 0, "kind": "pow", "exponent": 2}]},
                {"coeff": 1.0, "factors": [{"axis": 1, "kind": "pow", "exponent": 2}]},
            ],
        ],
    }
    imm = cl.load_immersion(_write(tmp_path, doc))
    fd = cl.frame_data_at(imm, [0.0, 0.0])
    assert_allclose(fd.metric, np.eye(2), atol=1e-15)
    # same surface as graph_poly(x^2 + y^2): R_1221 = 4 at the origin
    tensor = cl.gauss_equation_tensor(fd)
    assert_allclose(tensor.R[0, 1, 1, 0], 4.0, rtol=1e-13)


def test_load_accepts_integral_float_frequencies(tmp_path):
    doc = _flat_torus_doc()
    doc["coordinates"][0][0]["factors"][0]["freq"] = 1.0
    imm = cl.load_immersion(_write(tmp_path, doc))
    assert imm.k == 4


def test_flat_graph_reach_is_unbounded(tmp_path):
    doc = {
        "m": 1,
        "k": 2,
        "domain": [{"lo": -1.0, "hi": 1.0}],
        "coordinates": [
            [{"coeff": 1.0, "factors": [{"axis": 0, "kind": "pow", "exponent": 1}]}],
            [{"coeff": 2.0, "factors": [{"axis": 0, "kind": "pow", "exponent": 1}]}],
        ],
    }
    imm = cl.load_immersion(_write(tmp_path, doc))
    assert imm.reach == np.inf  # straight line: no curvature anywhere


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("m"), "m"),
        (lambda d: d.pop("coordinates"), "coordinates"),
        (lambda d: d.update(m=True), "m"),
        (lambda d: d.update(m=0), "m"),
        (lambda d: d.update(k=2), "k"),
        (lambda d: d.update(domain=[d["domain"][0]]), "domain"),
        (lambda d: d["domain"][1].update(hi=-1.0), "domain[1]"),
        (lambda d: d["domain"][0].update(lo="x"), "domain[0].lo"),
        (lambda d: d["domain"][0].update(periodic="yes"), "domain[0].periodic"),
        (lambda d: d.update(coordinates=d["coordinates"][:3]), "coordinates"),
        (lambda d: d["coordinates"][2].append(7), "coordinates[2][1]"),
        (lambda d: d["coordinates"][1][0].update(coeff=None), "coordinates[1][0].coeff"),
        (lambda d: d["coordinates"][1][0].update(factors=3), "coordinates[1][0].factors"),
        (
            lambda d: d["coordinates"][0][0]["factors"][0].update(kind="tan"),
            "coordinates[0][0].factors[0].kind",
        ),
        (
            lambda d: d["coordinates"][0][0]["factors"][0].update(axis=5),
            "coordinates[0][0].factors[0].axis",
        ),
        (
            lambda d: d["coordinates"][0][0]["factors"][0].update(freq=1.5),
            "coordinates[0][0].factors[0].freq",
        ),
        (lambda d: d.update(euler_char=1.5), "euler_char"),
        (lambda d: d.update(reach=-2.0), "reach"),
        (lambda d: d.update(name=7), "name"),
    ],
)
def test_file_errors_name_the_offending_field(tmp_path, mutate, field):
    doc = _flat_torus_doc()
    mutate(doc)
    with pytest.raises(ImmersionFileError) as err:
        cl.load_immersion(_write(tmp_path, doc))
    assert field in str(err.value)


def test_file_error_on_bad_paths(tmp_path):
    with pytest.raises(ImmersionFileError):
        cl.load_immersion(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ImmersionFileError):
        cl.load_immersion(str(bad))
    top = tmp_path / "top.json"
    top.write_text("[1, 2]")
    with pytest.raises(ImmersionFileError):
        cl.load_immersion(str(top))


def test_pow_exponent_validation(tmp_path):
    doc = _flat_torus_doc()
    doc["coordinates"][0][0]["factors"][0] = {"axis": 0, "kind": "pow", "exponent": -2}
    with pytest.raises(ImmersionFileError) as err:
        cl.load_immersion(_write(tmp_path, doc))
    assert "exponent" in str(err.value)


def _phase_circle_doc(key="phase"):
    wave = [{"axis": 0, "kind": kind, "freq": 1, key: 1.0} for kind in ("cos", "sin")]
    return {
        "m": 1,
        "k": 2,
        "domain": [{"lo": 0.0, "hi": 2 * np.pi, "periodic": True}],
        "coordinates": [[{"coeff": 1.0, "factors": [w]}] for w in wave],
    }


def test_file_factor_phase_is_honoured(tmp_path):
    imm = cl.load_immersion(_write(tmp_path, _phase_circle_doc()))
    point, d1 = cl.jets_at(imm, np.array([[0.0], [0.5]]), order=1)
    assert_allclose(point, [[np.cos(1.0), np.sin(1.0)], [np.cos(1.5), np.sin(1.5)]], atol=1e-15)
    assert_allclose(d1[:, :, 0], [[-np.sin(1.0), np.cos(1.0)], [-np.sin(1.5), np.cos(1.5)]], atol=1e-15)


def test_file_rejects_unknown_factor_fields(tmp_path):
    with pytest.raises(ImmersionFileError) as err:
        cl.load_immersion(_write(tmp_path, _phase_circle_doc(key="phse")))
    assert "coordinates[0][0].factors[0].phse" in str(err.value)
    doc = _flat_torus_doc()
    doc["coordinates"][0][0]["factors"][0] = {"axis": 0, "kind": "pow", "exponent": 1, "phase": 0.5}
    with pytest.raises(ImmersionFileError) as err:
        cl.load_immersion(_write(tmp_path, doc))
    assert "coordinates[0][0].factors[0].phase" in str(err.value)
    doc = _phase_circle_doc()
    doc["coordinates"][1][0]["factors"][0]["phase"] = "late"
    with pytest.raises(ImmersionFileError) as err:
        cl.load_immersion(_write(tmp_path, doc))
    assert "coordinates[1][0].factors[0].phase" in str(err.value)
