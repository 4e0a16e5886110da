"""Built-in immersions and the custom surface-file loader.

Entries cover every codimension the library exercises: plane and space
circles, round spheres in codimension 1 and 2, flat and curved tori,
a 4-sphere, a product of 2-spheres, and polynomial graphs.  Each entry
carries its Euler characteristic (when defined), a conservative reach
bound for tube construction (whose normal frame comes from the tangents),
and a closed-form curvature reference when known.

Reach bounds are declared at half the true reach so tube determinants
stay uniformly away from zero.  For graphs and file-loaded surfaces the
bound comes from a sampled estimate of the largest principal curvature;
that estimate ignores global self-proximity, which cannot occur for
graphs but is the caller's responsibility for custom closed surfaces.
"""

from __future__ import annotations

import json
import re
import sys

import numpy as np

from .curvature import whiten_second_form
from .errors import ImmersionFileError, UnknownImmersionError
from .immersion import Axis, GridBatch, Immersion, frames_at
from .jets import cos, sin

__all__ = [
    "catalog_get",
    "catalog_names",
    "catalog_entries",
    "graph_poly",
    "random_graph_poly",
    "load_immersion",
]

TWO_PI = 2.0 * np.pi


def _periodic(n_axes: int) -> tuple[Axis, ...]:
    return tuple(Axis(0.0, TWO_PI, periodic=True) for _ in range(n_axes))


def _polar() -> Axis:
    return Axis(0.0, np.pi, periodic=False)


# -- catalog charts --------------------------------------------------------


def _circle_r2() -> Immersion:
    return Immersion(
        name="circle_r2",
        k=2,
        domain=_periodic(1),
        chart=lambda xs: [cos(xs[0]), sin(xs[0])],
        euler_char=0,
        reach=0.5,
        reference_curvature=lambda U: np.zeros(len(U)),
    )


def _circle_r3() -> Immersion:
    return Immersion(
        name="circle_r3",
        k=3,
        domain=_periodic(1),
        chart=lambda xs: [cos(xs[0]), sin(xs[0]), 0.0],
        euler_char=0,
        reach=0.5,
        reference_curvature=lambda U: np.zeros(len(U)),
    )


def _sphere2_r3(R: float = 1.0) -> Immersion:
    R = float(R)
    if R <= 0:
        raise UnknownImmersionError(f"sphere2_r3: radius R = {R} must be positive")

    def chart(xs):
        t, p = xs
        return [R * sin(t) * cos(p), R * sin(t) * sin(p), R * cos(t)]

    return Immersion(
        name="sphere2_r3",
        k=3,
        domain=(_polar(), Axis(0.0, TWO_PI, periodic=True)),
        chart=chart,
        euler_char=2,
        reach=0.5 * R,
        reference_curvature=lambda U: np.full(len(U), 1.0 / R**2),
    )


def _sphere2_r4() -> Immersion:
    def chart(xs):
        t, p = xs
        return [sin(t) * cos(p), sin(t) * sin(p), cos(t), 0.0]

    return Immersion(
        name="sphere2_r4",
        k=4,
        domain=(_polar(), Axis(0.0, TWO_PI, periodic=True)),
        chart=chart,
        euler_char=2,
        reach=0.5,
        reference_curvature=lambda U: np.full(len(U), 0.5),
    )


def _torus_rev_r3(R: float = 2.0, r: float = 0.5) -> Immersion:
    R, r = float(R), float(r)
    if not 0 < r < R:
        raise UnknownImmersionError(f"torus_rev_r3: need 0 < r < R, got R = {R}, r = {r}")

    def chart(xs):
        u, v = xs
        w = R + r * cos(v)
        return [w * cos(u), w * sin(u), r * sin(v)]

    def ref(U):
        v = U[:, 1]
        return np.cos(v) / (r * (R + r * np.cos(v)))

    return Immersion(
        name="torus_rev_r3",
        k=3,
        domain=_periodic(2),
        chart=chart,
        euler_char=0,
        reach=0.5 * min(r, R - r),
        reference_curvature=ref,
    )


def _clifford_torus_r4() -> Immersion:
    c = 1.0 / np.sqrt(2.0)

    def chart(xs):
        t, p = xs
        return [c * cos(t), c * sin(t), c * cos(p), c * sin(p)]

    return Immersion(
        name="clifford_torus_r4",
        k=4,
        domain=_periodic(2),
        chart=chart,
        euler_char=0,
        reach=1.0 / (2.0 * np.sqrt(2.0)),
        reference_curvature=lambda U: np.zeros(len(U)),
    )


def _sphere4_r5() -> Immersion:
    def chart(xs):
        t1, t2, t3, p = xs
        s1, s2, s3 = sin(t1), sin(t2), sin(t3)
        return [
            cos(t1),
            s1 * cos(t2),
            s1 * s2 * cos(t3),
            s1 * s2 * s3 * cos(p),
            s1 * s2 * s3 * sin(p),
        ]

    return Immersion(
        name="sphere4_r5",
        k=5,
        domain=(_polar(), _polar(), _polar(), Axis(0.0, TWO_PI, periodic=True)),
        chart=chart,
        euler_char=2,
        reach=0.5,
        reference_curvature=lambda U: np.ones(len(U)),
    )


def _product_s2s2_r6() -> Immersion:
    def chart(xs):
        t1, p1, t2, p2 = xs
        return [
            sin(t1) * cos(p1),
            sin(t1) * sin(p1),
            cos(t1),
            sin(t2) * cos(p2),
            sin(t2) * sin(p2),
            cos(t2),
        ]

    return Immersion(
        name="product_s2s2_r6",
        k=6,
        domain=(
            _polar(),
            Axis(0.0, TWO_PI, periodic=True),
            _polar(),
            Axis(0.0, TWO_PI, periodic=True),
        ),
        chart=chart,
        euler_char=4,
        reach=0.5,
        reference_curvature=lambda U: np.full(len(U), 0.125),
    )


# -- polynomial graphs -----------------------------------------------------


def _estimate_reach(imm: Immersion) -> float:
    """Half the reciprocal of a sampled upper bound on principal curvature."""
    per_axis = 9 if imm.m <= 2 else 5
    axes = []
    for ax in imm.domain:
        if ax.periodic:
            axes.append(np.linspace(ax.lo, ax.hi, per_axis, endpoint=False))
        else:
            pad = 0.02 * ax.length
            axes.append(np.linspace(ax.lo + pad, ax.hi - pad, per_axis))
    columns = tuple(a.reshape((1,) * i + (-1,) + (1,) * (imm.m - 1 - i)) for i, a in enumerate(axes))
    metric, second, _ = frames_at(imm, GridBatch(columns, (per_axis,) * imm.m))
    A = whiten_second_form(metric, second)
    # |eigs of sum(nu_s A_s)| <= sqrt(sum_s ||A_s||_F^2) for unit nu
    bound = float(np.sqrt(np.sum(A**2, axis=(1, 2, 3))).max())
    if bound < 1e-12:
        return np.inf
    return 1.0 / (2.0 * bound)


def _validate_graph_terms(m: int, n: int, terms) -> list[list[tuple[float, tuple]]]:
    """The terms as surface-file terms: (coeff, pow factors of the nonzero exponents)."""
    if len(terms) != n:
        raise ValueError(f"graph_poly: expected {n} term lists, got {len(terms)}")
    compiled = []
    for s, tl in enumerate(terms):
        row = []
        for coeff, exps in tl:
            exps = tuple(int(e) for e in exps)
            if len(exps) != m or any(e < 0 for e in exps):
                raise ValueError(f"graph_poly: bad exponent tuple {exps} in output {s}")
            row.append((float(coeff), tuple(("pow", i, e, 0.0) for i, e in enumerate(exps) if e)))
        compiled.append(row)
    return compiled


def graph_poly(m: int, n: int, terms) -> Immersion:
    """Graph of a polynomial map R^m -> R^n over the box [-1, 1]^m.

    `terms[s]` is a list of (coefficient, exponent-tuple) pairs for output
    coordinate s.  The Euler characteristic is declared unknown (graphs
    over a box are not closed); reach is estimated by sampling.
    """
    heights = _compile_file_chart(_validate_graph_terms(m, n, terms))
    imm = Immersion(
        name="graph_poly",
        k=m + n,
        domain=(Axis(-1.0, 1.0),) * m,
        chart=lambda xs: [*xs, *heights(xs)],
        euler_char=None,
        reach=None,
    )
    imm.reach = _estimate_reach(imm)
    return imm


def random_graph_poly(rng: np.random.Generator, m: int = 2, n: int = 2, degree: int = 3,
                      scale: float = 0.3) -> Immersion:
    """Random polynomial graph with moderate coefficients (keeps frames well conditioned)."""
    exps = [e for e in np.ndindex(*([degree + 1] * m)) if 1 <= sum(e) <= degree]
    terms = []
    for _ in range(n):
        coeffs = rng.uniform(-scale, scale, size=len(exps)) / len(exps)
        terms.append(list(zip(coeffs, exps)))
    return graph_poly(m, n, terms)


def _graph_poly_default() -> Immersion:
    terms = [
        [(0.3, (2, 0)), (0.2, (1, 1)), (-0.1, (0, 2))],
        [(0.15, (2, 0)), (0.1, (1, 1)), (-0.25, (0, 2))],
    ]
    return graph_poly(2, 2, terms)


# -- registry --------------------------------------------------------------

_CATALOG = {
    "circle_r2": _circle_r2,
    "circle_r3": _circle_r3,
    "sphere2_r3": _sphere2_r3,
    "sphere2_r4": _sphere2_r4,
    "torus_rev_r3": _torus_rev_r3,
    "clifford_torus_r4": _clifford_torus_r4,
    "sphere4_r5": _sphere4_r5,
    "product_s2s2_r6": _product_s2s2_r6,
    "graph_poly": _graph_poly_default,
}

_NAME_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def catalog_names() -> list[str]:
    return list(_CATALOG)


def catalog_get(name: str) -> Immersion:
    """Look up a catalog immersion, e.g. "sphere2_r3" or "torus_rev_r3(R=2,r=0.5)"."""
    match = _NAME_RE.match(name)
    if not match:
        raise UnknownImmersionError(f"cannot parse surface name {name!r}")
    base, arglist = match.groups()
    if base not in _CATALOG:
        raise UnknownImmersionError(
            f"unknown surface {base!r}; known surfaces: {', '.join(sorted(_CATALOG))}"
        )
    params = {}
    if arglist and arglist.strip():
        for piece in arglist.split(","):
            if "=" not in piece:
                raise UnknownImmersionError(
                    f"{base}: parameters must be key=value pairs, got {piece.strip()!r}"
                )
            key, _, value = piece.partition("=")
            if key.strip() in params:
                raise UnknownImmersionError(f"{base}: parameter {key.strip()!r} given twice")
            try:
                number = float(value)
            except ValueError:
                raise UnknownImmersionError(f"{base}: non-numeric value for {key.strip()!r}")
            if not abs(number) <= sys.float_info.max:
                raise UnknownImmersionError(f"{base}: {key.strip()!r} = {number} is not a finite number")
            params[key.strip()] = number
    try:
        return _CATALOG[base](**params)
    except TypeError:
        raise UnknownImmersionError(
            f"{base}: unsupported parameter(s) {sorted(params)}; "
            f"custom coefficients need graph_poly(...) or a surface file"
        )


def catalog_entries() -> list[dict]:
    """Name/dimension/Euler-characteristic summary of every catalog entry."""
    out = []
    for name in _CATALOG:
        imm = _CATALOG[name]()
        out.append({"name": name, "m": imm.m, "k": imm.k, "n": imm.n, "chi": imm.euler_char})
    return out


# -- custom surface files --------------------------------------------------

_WAVE_KEYS = ("axis", "kind", "freq", "phase")
_FACTOR_KEYS = {"pow": ("axis", "kind", "exponent"), "cos": _WAVE_KEYS, "sin": _WAVE_KEYS}


def _file_error(field: str, message: str):
    raise ImmersionFileError(f"{field}: {message}")


def _reject_unknown(raw: dict, allowed: tuple, field: str, what: str):
    for key in raw:
        if key not in allowed:
            _file_error(f"{field}.{key}" if field else key, f"unknown field; {what} takes {allowed}")


def _check_number(value, field: str) -> float:
    # NaN, +-inf and integers past the float range all fail the comparison
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        _file_error(field, f"expected a finite number, got {value!r}")
    return float(value)


def _check_int(value, field: str) -> int:
    # JSON writers routinely emit 1.0 for 1; accept integral floats.
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        _file_error(field, f"expected an integer, got {value!r}")
    return value


def _parse_factor(raw, m: int, field: str):
    if not isinstance(raw, dict):
        _file_error(field, "expected an object with axis/kind fields")
    axis = _check_int(raw.get("axis"), f"{field}.axis")
    if not 0 <= axis < m:
        _file_error(f"{field}.axis", f"axis {axis} out of range for m = {m}")
    kind = raw.get("kind")
    if kind not in _FACTOR_KEYS:
        _file_error(f"{field}.kind", f"expected one of {tuple(_FACTOR_KEYS)}, got {kind!r}")
    _reject_unknown(raw, _FACTOR_KEYS[kind], field, f"a {kind} factor")
    if kind == "pow":
        expo = _check_int(raw.get("exponent"), f"{field}.exponent")
        if expo < 0:
            _file_error(f"{field}.exponent", f"exponent {expo} must be nonnegative")
        return ("pow", axis, expo, 0.0)
    freq = _check_int(raw.get("freq"), f"{field}.freq")
    phase = _check_number(raw.get("phase", 0.0), f"{field}.phase")
    return (kind, axis, freq, phase)


def _parse_term(raw, m: int, field: str):
    if not isinstance(raw, dict):
        _file_error(field, "expected an object with coeff/factors fields")
    _reject_unknown(raw, ("coeff", "factors"), field, "a term")
    coeff = _check_number(raw.get("coeff"), f"{field}.coeff")
    factors_raw = raw.get("factors", [])
    if not isinstance(factors_raw, list):
        _file_error(f"{field}.factors", "expected a list of factor objects")
    factors = [
        _parse_factor(f, m, f"{field}.factors[{j}]") for j, f in enumerate(factors_raw)
    ]
    return (coeff, tuple(factors))


def _compile_file_chart(coords):
    def chart(xs):
        out = []
        for terms in coords:
            acc = 0.0
            for coeff, factors in terms:
                term = coeff
                for kind, axis, arg, phase in factors:
                    if kind == "pow":
                        if arg:
                            term = term * xs[axis] ** arg
                    elif kind == "cos":
                        term = term * cos(xs[axis] * float(arg) + phase)
                    else:
                        term = term * sin(xs[axis] * float(arg) + phase)
                acc = acc + term
            out.append(acc)
        return out

    return chart


def load_immersion(path: str) -> Immersion:
    """Load a custom immersion from a JSON surface file.

    Required fields: m, k, domain (list of {lo, hi, periodic}), coordinates
    (k lists of {coeff, factors} terms; factors are monomial powers or
    cos/sin(freq * x + phase) in one axis, integer freq, optional phase).
    Optional: name, euler_char, reach.  Any other field is rejected.  Errors
    name the offending field.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ImmersionFileError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ImmersionFileError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        _file_error("(top level)", "expected a JSON object")
    _reject_unknown(data, ("name", "m", "k", "domain", "coordinates", "euler_char", "reach"), "",
                    "a surface file")

    for required in ("m", "k", "domain", "coordinates"):
        if required not in data:
            _file_error(required, "missing required field")
    m = _check_int(data["m"], "m")
    k = _check_int(data["k"], "k")
    if m < 1:
        _file_error("m", f"dimension {m} must be >= 1")
    if k <= m:
        _file_error("k", f"ambient dimension {k} must exceed m = {m}")

    domain_raw = data["domain"]
    if not isinstance(domain_raw, list) or len(domain_raw) != m:
        _file_error("domain", f"expected a list of {m} axis objects")
    axes = []
    for i, ax in enumerate(domain_raw):
        if not isinstance(ax, dict):
            _file_error(f"domain[{i}]", "expected an object with lo/hi/periodic")
        _reject_unknown(ax, ("lo", "hi", "periodic"), f"domain[{i}]", "an axis")
        lo = _check_number(ax.get("lo"), f"domain[{i}].lo")
        hi = _check_number(ax.get("hi"), f"domain[{i}].hi")
        if not hi > lo:
            _file_error(f"domain[{i}]", f"need lo < hi, got [{lo}, {hi}]")
        periodic = ax.get("periodic", False)
        if not isinstance(periodic, bool):
            _file_error(f"domain[{i}].periodic", f"expected true/false, got {periodic!r}")
        axes.append(Axis(lo, hi, periodic))

    coords_raw = data["coordinates"]
    if not isinstance(coords_raw, list) or len(coords_raw) != k:
        _file_error("coordinates", f"expected a list of {k} term lists")
    coords = []
    for a, terms_raw in enumerate(coords_raw):
        if not isinstance(terms_raw, list):
            _file_error(f"coordinates[{a}]", "expected a list of term objects")
        coords.append(
            [_parse_term(t, m, f"coordinates[{a}][{j}]") for j, t in enumerate(terms_raw)]
        )

    euler_char = data.get("euler_char")
    if euler_char is not None:
        euler_char = _check_int(euler_char, "euler_char")
    reach = data.get("reach")
    if reach is not None:
        reach = _check_number(reach, "reach")
        if reach <= 0:
            _file_error("reach", f"reach {reach} must be positive")

    name = data.get("name", "custom")
    if not isinstance(name, str):
        _file_error("name", f"expected a string, got {name!r}")

    imm = Immersion(
        name=name,
        k=k,
        domain=tuple(axes),
        chart=_compile_file_chart(coords),
        euler_char=euler_char,
        reach=reach,
    )
    if imm.reach is None:
        imm.reach = _estimate_reach(imm)
    return imm
