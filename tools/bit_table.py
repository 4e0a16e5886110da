"""Print the exact bits of curvlab's headline numbers, to compare two versions of the code.

    PYTHONPATH=src python tools/bit_table.py [NAME ...]

For each catalog name (all of them by default) it prints:
- `gauss_bonnet_check`'s integral and error estimate by `float.hex`, and its grid shape;
- the integral of `gauss_bonnet_check(imm, route="quadrature")` by `float.hex`;
- the sha256 of the bytes of `frames_at` and of `jets_at(..., 3)` at the 300 points
  `sample_domain(imm, 300, default_rng(0))`;
- at m in {2, 4}, the sha256 of the fields of `egregium_report` at the first 20 of those points,
  one point at a time;
- for each criterion-8 tube case whose base is named, `per_sheet` and `error_estimate` of
  `tube_total_curvature` by `float.hex`, and its `grid_shapes`;
- for the same cases, the sha256 of `tube_point`, `tube_identity_check` and `tube_spectrum_check`
  at 20 points `sample_domain(base, 20, default_rng(0))`, one point at a time, with directions
  drawn from the same generator; `tube_point` by the fields in `TUBE_POINT_FIELDS`.

Run it against two source trees (set PYTHONPATH to each) and diff the outputs: equal output
means equal bits.  The values themselves are not portable, since sin and cos may round
differently on another CPU or numpy build, so compare runs on one machine only.
"""

import argparse
import dataclasses
import hashlib

import numpy as np

import curvlab as cl

TUBE_CASES = (("sphere2_r4", 0.05), ("sphere2_r3", 0.1), ("circle_r3", 0.1))  # criterion 8
TUBE_POINT_FIELDS = ("u", "point", "gauss_normal", "classical_k", "normal_jacobian", "sheet_index",
                     "sheet_param", "shape_operator")  # with nu_hat's coefficients and both FrameData


def _hex(x):
    return "None" if x is None else float(x).hex()


def _sha256(arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def rows(names):
    """The table's lines for the catalog `names`, in order."""
    for name in names:
        imm = cl.catalog_get(name)
        gb = cl.gauss_bonnet_check(imm)
        yield (f"{name} gauss_bonnet integral={_hex(gb.integral)} error_estimate={_hex(gb.error_estimate)} "
               f"grid_shape={tuple(gb.grid_shape)}")
        quadrature = cl.gauss_bonnet_check(imm, route="quadrature")
        yield f"{name} gauss_bonnet_quadrature integral={_hex(quadrature.integral)}"
        U = cl.sample_domain(imm, 300, np.random.default_rng(0))
        yield f"{name} frames_at sha256={_sha256(cl.frames_at(imm, U))}"
        yield f"{name} jets_at_3 sha256={_sha256(cl.jets_at(imm, U, 3))}"
        if imm.m in (2, 4):
            reports = (dataclasses.astuple(cl.egregium_report(imm, u)) for u in U[:20])
            yield f"{name} egregium_report sha256={_sha256(v for rep in reports for v in rep)}"
    for name, eps in TUBE_CASES:
        if name in names:
            cfg = cl.TubeConfig(cl.catalog_get(name), eps)
            res = cl.tube_total_curvature(cfg)
            yield (f"tube {name} eps={eps} per_sheet=({', '.join(map(_hex, res.per_sheet))}) "
                   f"grid_shapes={tuple(map(tuple, res.grid_shapes))} "
                   f"error_estimate={_hex(res.error_estimate)}")
            yield f"tube_point {name} eps={eps} sha256={_sha256(_tube_point_values(cfg))}"


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
    parser.add_argument("names", nargs="*", help="catalog names (default: every entry)")
    names = parser.parse_args(argv).names or cl.catalog_names()
    for line in rows(names):
        print(line)


if __name__ == "__main__":
    main()
