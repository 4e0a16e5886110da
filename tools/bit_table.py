"""Print the exact bits of curvlab's headline numbers, to compare two versions of the code.

    PYTHONPATH=src python tools/bit_table.py [--scalars] [NAME ...]

For each catalog name (all of them by default) it prints:
- `gauss_bonnet_check`'s integral and error estimate by `float.hex`, and its grid shape;
- the integral of `gauss_bonnet_check(imm, route="quadrature")` by `float.hex`;
- the area, `integrate_scalar` of f = 1 on `default_grid(imm, 13)`, by `float.hex`;
- the integral of `gauss_bonnet_check(imm, default_grid(imm, 13))` by both routes, by `float.hex`;
- the sha256 of the bytes of `frames_at` and of `jets_at(..., 3)` at the 300 points
  `sample_domain(imm, 300, default_rng(0))`;
- the sha256 of the bytes of `frames_at` over the grid window `default_grid(imm, 8)._window(0, 0, 8)`,
  whose jets broadcast over its axes;
- at m in {2, 4}, the sha256 of the fields of `egregium_report` at the first 20 of those points,
  one point at a time;
- for `graph_poly`, its reach by `float.hex`: the catalog estimates it on a sample grid;
- for each criterion-8 tube case whose base is named, `per_sheet` and `error_estimate` of
  `tube_total_curvature` by `float.hex`, and its `grid_shapes`;
- for the same cases, and for `product_s2s2_r6` at half its reach, `per_sheet` of
  `tube_total_curvature(cfg, resolution=8)` by `float.hex`: that product's sheets hold 32,768 points,
  so their reductions span several chunks; and the same at `resolution=10` for `sphere4_r5` at
  eps = 0.125, in codimension 1, whose two sheets of 10,000 points are the two rows of each chunk;
- for the same cases, the sha256 of `tube_point`, `tube_identity_check` and `tube_spectrum_check`
  at 20 points `sample_domain(base, 20, default_rng(0))`, one point at a time, with directions
  drawn from the same generator; `tube_point` by the fields in `TUBE_POINT_FIELDS`;
- for `product_s2s2_r6`, its `gauss_bonnet_13` and `frames_at_window` rows once more, as
  `product_s2s2_r6_rotated`, the chart carried through a seeded rotation of R^6: every coordinate
  then depends on every variable, so its frames run on dense tangents, with no structural zero.

Run it against two source trees (set PYTHONPATH to each) and diff the outputs: equal output
means equal bits.  The values themselves are not portable, since sin and cos may round
differently on another CPU or numpy build, so compare runs on one machine only.

With `--scalars` it leaves out the sha256 rows.  What remains is portable to roundoff, and
`tests/data/bit_table_scalars.txt` holds it for every catalog name: `tests/test_bit_table.py`
recomputes those rows and holds each value to 1e-14 of its scale.  A change that moves a value
past that rewrites the file with `PYTHONPATH=src python tools/bit_table.py --scalars`.
"""

import argparse
import dataclasses
import hashlib

import numpy as np

import curvlab as cl
from curvlab.jets import dot

TUBE_CASES = (("sphere2_r4", 0.05), ("sphere2_r3", 0.1), ("circle_r3", 0.1))  # criterion 8
MULTI_CHUNK_TUBES = (("product_s2s2_r6", 0.25, 8), ("sphere4_r5", 0.125, 10))  # at that resolution only
ROTATED = "product_s2s2_r6"  # also through a seeded rotation, for dense tangents
TUBE_POINT_FIELDS = ("u", "point", "gauss_normal", "classical_k", "normal_jacobian", "sheet_index",
                     "sheet_param", "shape_operator")  # with nu_hat's coefficients and both FrameData


def _hex(x):
    return "None" if x is None else float(x).hex()


def _sha256(arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _rotated(imm):
    """imm carried through the orthogonal factor of a QR of a seeded Gaussian matrix, named `<name>_rotated`."""
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((imm.k, imm.k)))[0]

    def chart(xs):
        X = imm.chart(xs)
        return [dot(X, q.tolist()) for q in Q]

    return dataclasses.replace(imm, name=f"{imm.name}_rotated", chart=chart)


def _fixed_grid_row(imm):
    fixed = [cl.gauss_bonnet_check(imm, cl.default_grid(imm, 13), route) for route in ("moments", "quadrature")]
    return f"{imm.name} gauss_bonnet_13 moments={_hex(fixed[0].integral)} quadrature={_hex(fixed[1].integral)}"


def _window_row(imm):
    window = cl.default_grid(imm, 8)._window(0, 0, 8)[0]
    return f"{imm.name} frames_at_window sha256={_sha256(cl.frames_at(imm, window))}"


def rows(names, digests=True):
    """The table's lines for the catalog `names`, in order; without `digests`, no sha256 line."""
    for name in names:
        imm = cl.catalog_get(name)
        gb = cl.gauss_bonnet_check(imm)
        yield (f"{name} gauss_bonnet integral={_hex(gb.integral)} error_estimate={_hex(gb.error_estimate)} "
               f"grid_shape={tuple(gb.grid_shape)}")
        quadrature = cl.gauss_bonnet_check(imm, route="quadrature")
        yield f"{name} gauss_bonnet_quadrature integral={_hex(quadrature.integral)}"
        area = cl.integrate_scalar(imm, lambda U: np.ones(len(U)), cl.default_grid(imm, 13))
        yield f"{name} integrate_scalar area={_hex(area)}"
        yield _fixed_grid_row(imm)
        if digests:
            U = cl.sample_domain(imm, 300, np.random.default_rng(0))
            yield f"{name} frames_at sha256={_sha256(cl.frames_at(imm, U))}"
            yield _window_row(imm)
            yield f"{name} jets_at_3 sha256={_sha256(cl.jets_at(imm, U, 3))}"
            if imm.m in (2, 4):
                reports = (dataclasses.astuple(cl.egregium_report(imm, u)) for u in U[:20])
                yield f"{name} egregium_report sha256={_sha256(v for rep in reports for v in rep)}"
        if name == "graph_poly":
            yield f"{name} reach={_hex(imm.reach)}"
    for name, eps in TUBE_CASES:
        if name in names:
            cfg = cl.TubeConfig(cl.catalog_get(name), eps)
            res = cl.tube_total_curvature(cfg)
            yield (f"tube {name} eps={eps} per_sheet=({', '.join(map(_hex, res.per_sheet))}) "
                   f"grid_shapes={tuple(map(tuple, res.grid_shapes))} "
                   f"error_estimate={_hex(res.error_estimate)}")
            yield _tube_fixed(name, cfg, 8)
            if digests:
                yield f"tube_point {name} eps={eps} sha256={_sha256(_tube_point_values(cfg))}"
    for name, eps, resolution in MULTI_CHUNK_TUBES:
        if name in names:
            yield _tube_fixed(name, cl.TubeConfig(cl.catalog_get(name), eps), resolution)
    if ROTATED in names:
        imm = _rotated(cl.catalog_get(ROTATED))
        yield _fixed_grid_row(imm)
        if digests:
            yield _window_row(imm)


def _tube_fixed(name, cfg, resolution):
    fixed = cl.tube_total_curvature(cfg, resolution=resolution)
    return f"tube_{resolution} {name} eps={cfg.eps} per_sheet=({', '.join(map(_hex, fixed.per_sheet))})"


def _tube_point_values(cfg):
    """The arrays `tube_point` and both checks give at 20 seeded points, one point at a time."""
    rng = np.random.default_rng(0)
    for u in cl.sample_domain(cfg.base, 20, rng):
        nu = cl.NormalDirection.unit(rng.standard_normal(cfg.base.n))
        tp = cl.tube_point(cfg, u, nu)
        yield from (getattr(tp, f) for f in TUBE_POINT_FIELDS)
        yield tp.nu_hat.coeffs
        for fd in (tp.base_frame, tp.sheet_frame):
            yield from (fd.metric, fd.second_form, fd.normal_frame)
        yield from dataclasses.astuple(cl.tube_identity_check(cfg, u, nu))
        yield from dataclasses.astuple(cl.tube_spectrum_check(cfg, u, nu))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scalars", action="store_true", help="leave out the sha256 rows")
    parser.add_argument("names", nargs="*", help="catalog names (default: every entry)")
    args = parser.parse_args(argv)
    for line in rows(args.names or cl.catalog_names(), digests=not args.scalars):
        print(line)


if __name__ == "__main__":
    main()
