"""Parametric immersions into the unit sphere.

A chart is a map phi: U in R^m -> S^n in R^{n+1} given componentwise by
expression trees.  The built-in catalog covers the canonical proper
biharmonic families (small hyperspheres, products of spheres, the flat-torus
and Veronese parallel surfaces) plus products of equatorial spheres in
higher codimension; user charts come from a small JSON document format.

Catalog builders write each component once, as a template string with
named values where the numbers go (``r * sin(u1) * cos(u2)``, ``c`` for a
constant last component), and pass the member's values as the chart's
``params``.  ``expr.parse`` is memoized, so every member of a family holds
the same parsed trees and differs from the others only in ``params``; a
``Param`` leaf evaluates to the jet its value gives as a literal, so the
chart evaluates bit for bit as the literal string with ``repr(value)`` in
place of each name.  Computing the constant last component sqrt(1 - r^2)
as a value keeps the equator case r = 1 evaluable (its 0 never reaches
the jet sqrt, whose domain is positive reals), and every catalog chart is a
plain expression chart, so the jet path and the finite-difference oracle
path share exactly one description of the map.

Coordinate singularities (spherical-coordinate poles) are handled by inset
sampling rather than atlas switching: all verification is pointwise, and
interior samples suffice.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from . import expr, jets

SINGULAR_MARGIN = 0.05
MAX_DOMAIN_DIM = 6
MAX_AMBIENT_DIM = 8

_TWO_PI = 2.0 * math.pi


class ChartError(ValueError):
    """Chart validation or evaluation failure."""


class UnreadParamError(ChartError):
    """A parameter was given that the chart does not read."""


class ChartEvalError(ChartError):
    """Evaluation failed at a specific sample point."""

    def __init__(self, message: str, point):
        self.point = tuple(float(x) for x in point)
        super().__init__(f"{message} at point {self.point}")


class ChartSpec:
    """A validated parametric immersion.  Immutable after construction."""

    def __init__(
        self,
        name: str,
        m: int,
        n: int,
        components,
        domain,
        params: dict | None = None,
        normalize: bool = False,
        catalog: dict | None = None,
    ):
        self.name = str(name)
        self.m = int(m)
        self.n = int(n)
        components = tuple(components)
        self.components = tuple(
            expr.parse(c) if isinstance(c, str) else c for c in components
        )
        self.domain = tuple((float(lo), float(hi)) for lo, hi in domain)
        self.params = {str(k): float(v) for k, v in (params or {}).items()}
        self.normalize = bool(normalize)
        self.catalog = catalog
        _validate(self, map(expr.facts, components))

    def __repr__(self) -> str:
        return f"ChartSpec({self.name!r}, m={self.m}, n={self.n})"

    def describe(self) -> dict:
        d = {"name": self.name, "m": self.m, "n": self.n,
             "normalize": self.normalize}
        if self.catalog:
            d["catalog"] = self.catalog
        elif self.params:
            d["params"] = self.params
        return d


def _validate(spec: ChartSpec, facts):
    """Check ``spec``; ``facts`` yields ``expr.facts`` of each component."""
    if not 1 <= spec.m <= MAX_DOMAIN_DIM:
        raise ChartError(f"domain_dim m must be in 1..{MAX_DOMAIN_DIM}, got {spec.m}")
    if not spec.m < spec.n <= MAX_AMBIENT_DIM:
        raise ChartError(
            f"ambient_dim n must satisfy m < n <= {MAX_AMBIENT_DIM}, got n={spec.n}"
        )
    want = spec.n + 1
    if len(spec.components) != want:
        raise ChartError(
            f"expected {want} components, got {len(spec.components)}"
        )
    if len(spec.domain) != spec.m:
        raise ChartError(
            f"expected {spec.m} domain intervals, got {len(spec.domain)}"
        )
    for lo, hi in spec.domain:
        if not lo < hi:
            raise ChartError(f"empty domain interval [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ChartError(f"domain interval [{lo}, {hi}] is wider than the largest float")
        if hi - lo <= 2 * SINGULAR_MARGIN:
            raise ChartError(
                f"domain interval [{lo}, {hi}] narrower than twice the "
                f"singular margin {SINGULAR_MARGIN}"
            )
    for k, names in facts:
        if k >= spec.m:
            raise ChartError(
                f"expression uses u{k + 1} but the chart has {spec.m} variables"
            )
        unknown = names - set(spec.params)
        if unknown:
            raise ChartError(f"unknown parameter {sorted(unknown)[0]!r}")


# ---------------------------------------------------------------------------
# chart documents (JSON)
# ---------------------------------------------------------------------------


def _catalog_reference(doc) -> dict | None:
    """The ``catalog`` object of a document, or None for an expression chart."""
    if not isinstance(doc, dict):
        raise ChartError("chart document must be a JSON object")
    if "catalog" not in doc:
        return None
    cat = doc["catalog"]
    if not isinstance(cat, dict) or not isinstance(cat.get("tag"), str):
        raise ChartError('"catalog" must be an object with a "tag" field')
    return cat


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    # json.load reads NaN, Infinity and integers beyond the float range
    return abs(v) <= sys.float_info.max


def _params(holder: dict, overrides: dict | None) -> dict:
    params = holder.get("params", {})
    if not (isinstance(params, dict) and all(map(_is_number, params.values()))):
        raise ChartError('"params" must be an object of numbers')
    params = {**params, **(overrides or {})}
    for name, v in params.items():
        if not _is_finite(v):
            raise ChartError(f"parameter {name!r} must be a finite number")
    return params


def _check_fields(doc: dict):
    """Reject wrongly typed fields of an expression chart document."""
    if not isinstance(doc["name"], str):
        raise ChartError('"name" must be a string')
    for field in ("m", "n"):
        v = doc[field]
        if not (_is_number(v) and _is_finite(v) and float(v).is_integer()):
            raise ChartError(f'"{field}" must be a finite integer')
    exprs, domain = doc["expressions"], doc["domain"]
    if not (isinstance(exprs, list) and all(isinstance(s, str) for s in exprs)):
        raise ChartError('"expressions" must be an array of strings')
    if not (isinstance(domain, list) and all(
            isinstance(iv, list) and len(iv) == 2
            and all(_is_number(v) and _is_finite(v) for v in iv) for iv in domain)):
        raise ChartError('"domain" must be an array of [lo, hi] finite number pairs')
    if not isinstance(doc.get("normalize", False), bool):
        raise ChartError('"normalize" must be true or false')


def parse_chart(doc: dict, overrides: dict | None = None) -> ChartSpec:
    """Build a ChartSpec from a chart document (already JSON-decoded);
    ``overrides`` replace or add to its ``params`` (a catalog reference's
    own, or an expression chart's top-level ones).  An override that no
    component reads raises UnreadParamError."""
    cat = _catalog_reference(doc)
    if cat is not None:
        return catalog_chart(cat["tag"], _params(cat, overrides))
    for field in ("name", "m", "n", "expressions", "domain"):
        if field not in doc:
            raise ChartError(f"chart document missing field {field!r}")
    _check_fields(doc)
    exprs = doc["expressions"]
    try:
        facts = [expr.facts(s) for s in exprs]
    except expr.ExprSyntaxError as e:
        raise ChartError(f"syntax error: {e}") from e
    read = set().union(*(names for _, names in facts))
    unread = sorted(set(overrides or {}) - read)
    if unread:
        raise UnreadParamError(f"no expression of chart {doc['name']!r} reads "
                               f"parameter {unread[0]!r}")
    return ChartSpec(
        name=doc["name"],
        m=doc["m"],
        n=doc["n"],
        components=exprs,
        domain=doc["domain"],
        params=_params(doc, overrides),
        normalize=doc.get("normalize", False),
    )


def chart_document(tag: str | None = None, path: str | None = None) -> dict:
    """The document naming catalog ``tag``, or the JSON document in ``path``."""
    if path is None:
        return {"catalog": {"tag": tag}}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ChartError(f"cannot read chart file {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ChartError(f"chart file {path!r} is not valid JSON: {e}") from e


def family_chart(doc: dict, param_name: str, value: float, fixed: dict) -> ChartSpec:
    """The member at ``value`` of the 1-parameter family a document spans;
    a catalog reference links parameters as ``family_params`` does."""
    cat = _catalog_reference(doc)
    tag = None if cat is None else cat["tag"]
    return parse_chart(doc, family_params(tag, param_name, value, fixed))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _sphere_comps(m: int, offset: int) -> list[str]:
    """Unit-sphere S^m components in spherical coordinates u{offset+1}.."""
    v = f"u{offset + 1}"
    if m == 1:
        return [f"cos({v})", f"sin({v})"]
    inner = _sphere_comps(m - 1, offset + 1)
    return [f"sin({v}) * {c}" for c in inner] + [f"cos({v})"]


def _sphere_domain(m: int) -> list[tuple[float, float]]:
    # last angle is azimuthal, the others are polar
    return [(0.0, math.pi)] * (m - 1) + [(0.0, _TWO_PI)]


def _scaled(scale: str, comps: list[str]) -> list[str]:
    return [f"{scale} * {c}" for c in comps]


def _int_param(params: dict, name: str, default: int | None = None):
    if name not in params:
        if default is not None:
            return default
        raise ChartError(f"missing catalog parameter {name!r}")
    v = _float_param(params, name)
    k = int(round(v))
    if abs(v - k) > 1e-9:
        raise ChartError(f"parameter {name!r} must be an integer, got {v}")
    return k


def _float_param(params: dict, name: str):
    if name not in params:
        raise ChartError(f"missing catalog parameter {name!r}")
    v = float(params[name])
    if not math.isfinite(v):
        raise ChartError(f"parameter {name!r} must be a finite number, got {v}")
    return v


def _build_small_hypersphere(params: dict) -> ChartSpec:
    m = _int_param(params, "m", default=2)
    r = _float_param(params, "r")
    if not 1 <= m <= MAX_DOMAIN_DIM:
        raise ChartError(f"small-hypersphere needs 1 <= m <= {MAX_DOMAIN_DIM}")
    if not 0.0 < r <= 1.0:
        raise ChartError(f"small-hypersphere radius must be in (0, 1], got {r}")
    return ChartSpec(
        name=f"small-hypersphere(m={m}, r={r:.10g})",
        m=m,
        n=m + 1,
        components=_scaled("r", _sphere_comps(m, 0)) + ["c"],
        domain=_sphere_domain(m),
        params={"r": r, "c": math.sqrt(max(1.0 - r * r, 0.0))},
        catalog={"tag": "small-hypersphere", "params": {"m": m, "r": r}},
    )


def _build_product_spheres(params: dict, tag: str = "product-spheres") -> ChartSpec:
    m1 = _int_param(params, "m1")
    m2 = _int_param(params, "m2")
    r1 = _float_param(params, "r1")
    r2 = _float_param(params, "r2")
    if m1 < 1 or m2 < 1 or m1 + m2 > MAX_DOMAIN_DIM:
        raise ChartError(
            f"factor dimensions must be >= 1 with m1 + m2 <= {MAX_DOMAIN_DIM}"
        )
    if not (0.0 < r1 < 1.0 and 0.0 < r2 < 1.0):
        raise ChartError("factor radii must lie in (0, 1)")
    if abs(r1 * r1 + r2 * r2 - 1.0) > 1e-9:
        raise ChartError(
            f"radii must satisfy r1^2 + r2^2 = 1 to land on the unit sphere, "
            f"got {r1 * r1 + r2 * r2:.12g}"
        )
    m = m1 + m2
    return ChartSpec(
        name=f"{tag}(m1={m1}, m2={m2}, r1={r1:.10g}, r2={r2:.10g})",
        m=m,
        n=m + 1,
        components=_scaled("r1", _sphere_comps(m1, 0)) + _scaled("r2", _sphere_comps(m2, m1)),
        domain=_sphere_domain(m1) + _sphere_domain(m2),
        params={"r1": r1, "r2": r2},
        catalog={"tag": tag, "params": {"m1": m1, "m2": m2, "r1": r1, "r2": r2}},
    )


def _build_clifford_torus_b3(params: dict) -> ChartSpec:
    a = _float_param(params, "a")
    b = _float_param(params, "b")
    if a <= 0 or b <= 0:
        raise ChartError("torus radii must be positive")
    if a * a + b * b > 1.0 + 1e-12:
        raise ChartError(f"torus radii must satisfy a^2 + b^2 <= 1, got {a*a+b*b:.12g}")
    return ChartSpec(
        name=f"clifford-torus-b3(a={a:.10g}, b={b:.10g})",
        m=2,
        n=4,
        components=["a * cos(u1)", "a * sin(u1)", "b * cos(u2)", "b * sin(u2)", "c"],
        domain=[(0.0, _TWO_PI), (0.0, _TWO_PI)],
        params={"a": a, "b": b, "c": math.sqrt(max(1.0 - a * a - b * b, 0.0))},
        catalog={"tag": "clifford-torus-b3", "params": {"a": a, "b": b}},
    )


def _build_veronese(params: dict) -> ChartSpec:
    r = _float_param(params, "r")
    if not 0.0 < r <= 1.0:
        raise ChartError(f"veronese radius must be in (0, 1], got {r}")
    # spherical coordinates on the radius-sqrt(3) sphere:
    #   u = sqrt(3) sin(u1) cos(u2),  v = sqrt(3) sin(u1) sin(u2),
    #   w = sqrt(3) cos(u1),          u^2 + v^2 + w^2 = 3
    s3 = math.sqrt(3.0)
    return ChartSpec(
        name=f"veronese(r={r:.10g})",
        m=2,
        n=5,
        components=[
            "k1 * sin(u1) * sin(u2) * cos(u1)",           # v w / sqrt(3)
            "k1 * sin(u1) * cos(u2) * cos(u1)",           # u w / sqrt(3)
            "k1 * sin(u1)^2 * cos(u2) * sin(u2)",         # u v / sqrt(3)
            "k2 * sin(u1)^2 * (cos(u2)^2 - sin(u2)^2)",
            "k3 * (sin(u1)^2 - 2 * cos(u1)^2)",
            "c",
        ],
        domain=[(0.0, math.pi), (0.0, _TWO_PI)],
        params={"k1": r * s3, "k2": r * s3 / 2.0, "k3": r / 2.0,
                "c": math.sqrt(max(1.0 - r * r, 0.0))},
        catalog={"tag": "veronese", "params": {"r": r}},
    )


# "takes" names the parameters a tag reads; "params" describes them
_CATALOG = {
    "small-hypersphere": {
        "build": _build_small_hypersphere,
        "takes": ("m", "r"),
        "params": "m (integer dimension, default 2), r in (0, 1]",
        "family_param": "r",
        "describe": "small hypersphere S^m(r) in S^{m+1}; proper biharmonic "
                    "at r = 1/sqrt(2), minimal equator at r = 1",
    },
    "product-spheres": {
        "build": _build_product_spheres,
        "takes": ("m1", "m2", "r1", "r2"),
        "params": "m1, m2 (integer dimensions), r1, r2 with r1^2 + r2^2 = 1",
        "family_param": "r",
        "describe": "S^{m1}(r1) x S^{m2}(r2) in S^{m1+m2+1}; proper biharmonic "
                    "at r1 = r2 = 1/sqrt(2) when m1 != m2",
    },
    "generalized-clifford": {
        "build": lambda p: _build_product_spheres(p, tag="generalized-clifford"),
        "takes": ("m1", "m2", "r1", "r2"),
        "params": "m1, m2 (integer dimensions), r1, r2 with r1^2 + r2^2 = 1",
        "family_param": "r",
        "describe": "product of equatorial spheres S^{m1}(r1) x S^{m2}(r2); "
                    "parallel mean curvature, |H| = |m1 - m2|/m at equal radii",
    },
    "clifford-torus-b3": {
        "build": _build_clifford_torus_b3,
        "takes": ("a", "b"),
        "params": "a, b > 0 with a^2 + b^2 <= 1",
        "family_param": "t",
        "describe": "flat torus (a cos u1, a sin u1, b cos u2, b sin u2, "
                    "sqrt(1 - a^2 - b^2)) in S^4; proper biharmonic only at "
                    "a = b = 1/2, the minimal Clifford torus of S^3(1/sqrt(2))",
    },
    "veronese": {
        "build": _build_veronese,
        "takes": ("r",),
        "params": "r in (0, 1]",
        "family_param": "r",
        "describe": "constant-curvature surface r * (vw, uw, uv, ...)/sqrt(3) "
                    "in S^5; proper biharmonic at r = 1/sqrt(2), minimal at r = 1",
    },
}


def catalog_entries() -> list[dict]:
    return [
        {"tag": tag, "params": meta["params"], "describe": meta["describe"],
         "family_param": meta["family_param"]}
        for tag, meta in _CATALOG.items()
    ]


def catalog_chart(tag: str, params: dict) -> ChartSpec:
    meta = _CATALOG.get(tag)
    if meta is None:
        raise ChartError(
            f"unknown catalog tag {tag!r}; available: {', '.join(_CATALOG)}"
        )
    unread = sorted(set(params) - set(meta["takes"]))
    if unread:
        raise UnreadParamError(f"catalog chart {tag!r} takes no parameter "
                               f"{unread[0]!r} (it takes {', '.join(meta['takes'])})")
    return meta["build"](dict(params))


# the parameters that sweeping a catalog family's linked parameter sets
_FAMILY_LINKS = {("product-spheres", "r"): ("r1", "r2"),
                 ("generalized-clifford", "r"): ("r1", "r2"),
                 ("clifford-torus-b3", "t"): ("a", "b")}


def family_params(tag: str | None, param_name: str, value: float, fixed: dict) -> dict:
    """Parameter map for one member of a 1-parameter catalog family.

    Linked parameters keep the chart on the unit sphere: for the sphere
    products, sweeping ``r`` binds r1 = r and r2 = sqrt(1 - r^2); for the
    torus, sweeping ``t`` binds a = b = t.  Any other tag, or None for an
    expression chart, sets ``param_name`` alone.  A ``fixed`` parameter
    that the sweep sets would never be read: it raises UnreadParamError.
    """
    sets = _FAMILY_LINKS.get((tag, param_name), (param_name,))
    for name in sets:
        if name in fixed:
            raise UnreadParamError(f"fixed parameter {name!r} is never read: sweeping "
                                   f"{param_name!r} sets it")
    if sets == ("r1", "r2"):
        if not 0.0 < value < 1.0:
            raise ChartError(f"family parameter r must be in (0, 1), got {value}")
        values = (value, math.sqrt(1.0 - value * value))
    else:
        values = (value,) * len(sets)
    return {**fixed, **dict(zip(sets, values))}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_jet_stack(spec: ChartSpec, points,
                   params: dict | None = None) -> tuple[np.ndarray, jets.JetSpace, list]:
    """Order-4 jets of all ambient components at each point of a (P, m)
    block, stacked as a (P, n+1, L) array from one expression pass, and each
    point's error: None, or the ``ChartEvalError`` of its one-point block.
    A block that is not (P, m) raises ``ChartError``.  ``params`` replaces
    ``spec.params``; a value may be an array of one value per point (the
    members of a family stacked on the point axis).

    Every healthy point's jets are bit-identical to those of its own
    one-point block, with its own scalar values.
    """
    if params is None:
        params = spec.params
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != spec.m:
        raise ChartError(f"expected a point with {spec.m} coordinates")
    errors = [None] * len(points)
    slack = 1e-12
    lo, hi = np.array(spec.domain).T
    # "not inside" rather than "below or above": a NaN coordinate is outside
    outside = ~((points >= lo + SINGULAR_MARGIN - slack)
                & (points <= hi - SINGULAR_MARGIN + slack)).all(axis=1)
    jets.fail(errors, outside, lambda p: ChartEvalError(
        f"point outside the safe region (margin {SINGULAR_MARGIN})", points[p]))
    sp = jets.space(spec.m)
    var_jets = [jets.seed_variable(i, points[:, i], spec.m) for i in range(spec.m)]
    memo: dict = {}
    domain = [None] * len(points)
    try:
        rows = [expr.eval_jet(comp, sp, var_jets, params, domain, memo)
                for comp in spec.components]
    except expr.ExprEvalError as e:             # a parameter no point can read
        domain = [d or e for d in domain]
        rows = [np.nan] * len(spec.components)
    jets.fail(errors, [d is not None for d in domain], lambda p: ChartEvalError(
        f"chart evaluation failed: {domain[p]}", points[p]))
    stack = np.empty((len(points), len(rows), sp.size))
    for c, row in enumerate(rows):
        stack[:, c] = row                       # a constant row broadcasts
    if spec.normalize:
        norm2 = sp.dot(stack, stack)
        small = norm2[:, 0] < 1e-12
        if small.any():
            jets.fail(errors, small, lambda p: ChartEvalError(
                f"cannot normalize near-zero vector "
                f"(|phi| = {math.sqrt(max(norm2[p, 0], 0)):.3e})", points[p]))
            norm2 = np.where(small[:, None], sp.constant(1.0), norm2)
        scale = jets.elementary(sp, "recip", jets.elementary(sp, "sqrt", norm2))
        stack = sp.mul(stack, scale[:, None])
    return stack, sp, errors


_LATTICE_ALPHAS = np.array(
    [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13)], dtype=np.float64
)


def sample_points(spec: ChartSpec, count: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy points, inset from the box faces.

    A Kronecker lattice (irrational rotations by sqrt-prime fractions) with a
    seeded random offset: equidistributed, reproducible, and cheap.
    """
    if count <= 0:
        raise ChartError(f"sample count must be positive, got {count}")
    if seed < 0:
        raise ChartError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    offset = rng.random(spec.m)
    k = np.arange(count, dtype=np.float64)[:, None]
    frac = (offset[None, :] + k * _LATTICE_ALPHAS[None, : spec.m]) % 1.0
    pts = np.empty((count, spec.m))
    for i, (lo, hi) in enumerate(spec.domain):
        a = lo + SINGULAR_MARGIN
        b = hi - SINGULAR_MARGIN
        pts[:, i] = a + frac[:, i] * (b - a)
    return pts


# ---------------------------------------------------------------------------
# seeded perturbations (test harness charts)
# ---------------------------------------------------------------------------


def perturbed_chart(seed: int, base: str = "sphere", amplitude: float = 0.04) -> ChartSpec:
    """A random smooth perturbation of a catalog chart, radially renormalized.

    ``base='sphere'`` perturbs a small hypersphere S^2(r) in S^3 (a generic
    hypersurface); ``base='torus'`` perturbs the flat torus chart in S^4 (a
    generic codimension-2 immersion).  The perturbation is a low-frequency
    trigonometric polynomial, small enough to keep the immersion check
    comfortable on the inset domain.
    """
    rng = np.random.default_rng(seed)
    if base == "sphere":
        r = 0.6 + 0.3 * rng.random()
        comps = _scaled(repr(r), _sphere_comps(2, 0)) + [repr(math.sqrt(1.0 - r * r))]
        domain = [(0.45, math.pi - 0.45), (0.3, _TWO_PI - 0.3)]
    elif base == "torus":
        a = 0.4 + 0.2 * rng.random()
        c = math.sqrt(1.0 - 2 * a * a)
        comps = [
            f"{a!r} * cos(u1)", f"{a!r} * sin(u1)",
            f"{a!r} * cos(u2)", f"{a!r} * sin(u2)", repr(c),
        ]
        domain = [(0.3, _TWO_PI - 0.3), (0.3, _TWO_PI - 0.3)]
    else:
        raise ChartError(f"unknown perturbation base {base!r}")

    def noise() -> str:
        terms = []
        for _ in range(2):
            c = amplitude * (0.3 + 0.7 * rng.random()) * (1 if rng.random() < 0.5 else -1)
            p = int(rng.integers(1, 3))
            q = int(rng.integers(1, 3))
            phase = _TWO_PI * rng.random()
            terms.append(
                f"{c!r} * sin({float(p)!r} * u1 + {float(q)!r} * u2 + {phase!r})"
            )
        return " + ".join(terms)

    comps = [f"{c} + {noise()}" for c in comps]
    return ChartSpec(
        name=f"perturbed-{base}-{seed}",
        m=2,
        n=len(comps) - 1,
        components=comps,
        domain=domain,
        normalize=True,
    )
