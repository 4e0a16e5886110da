"""Print the exact bits of curvlab's headline numbers, to compare two versions of the code.

    PYTHONPATH=src python tools/bit_table.py [NAME ...]

For each catalog name (all of them by default) it prints:
- `gauss_bonnet_check`'s integral and error estimate by `float.hex`, and its grid shape;
- the integral of `gauss_bonnet_check(imm, route="quadrature")` by `float.hex`;
- the sha256 of the bytes of `frames_at` and of `jets_at(..., 3)` at the 300 points
  `sample_domain(imm, 300, default_rng(0))`;
- for each criterion-8 tube case whose base is named, `per_sheet` and `error_estimate` of
  `tube_total_curvature` by `float.hex`, and its `grid_shapes`.

Run it against two source trees (set PYTHONPATH to each) and diff the outputs: equal output
means equal bits.  The values themselves are not portable, since sin and cos may round
differently on another CPU or numpy build, so compare runs on one machine only.
"""

import argparse
import hashlib

import numpy as np

import curvlab as cl

TUBE_CASES = (("sphere2_r4", 0.05), ("sphere2_r3", 0.1), ("circle_r3", 0.1))  # criterion 8


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
    for name, eps in TUBE_CASES:
        if name in names:
            res = cl.tube_total_curvature(cl.TubeConfig(cl.catalog_get(name), eps))
            yield (f"tube {name} eps={eps} per_sheet=({', '.join(map(_hex, res.per_sheet))}) "
                   f"grid_shapes={tuple(map(tuple, res.grid_shapes))} "
                   f"error_estimate={_hex(res.error_estimate)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="catalog names (default: every entry)")
    names = parser.parse_args(argv).names or cl.catalog_names()
    for line in rows(names):
        print(line)


if __name__ == "__main__":
    main()
