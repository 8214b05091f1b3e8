"""Finite-difference oracles for cross-validating the jet pipeline.

Everything here derives from plain numeric evaluations of the chart map
(``eval_real`` on expression trees, ``eval_chart`` on charts):
central differences with one Richardson extrapolation level, default step
1e-4.  No jet arithmetic is imported, so agreement between the two paths
validates both.

The second fundamental form is obtained as the normal projection of the
coordinate Hessian of phi: the Gauss-formula terms g_ij phi and
Gamma^k_ij dphi_k are tangent to the sphere / the submanifold and die under
the projection, so the oracle needs no Christoffel symbols.

The nested stencils (Delta f, grad A: finite differences of quantities that
are themselves finite differences of phi) run in mpmath extended precision;
in float64 the inner rounding noise of order 1e-8 would be amplified by the
outer 1/h^2 past any useful tolerance.  Step size and Richardson depth stay
the same in both precisions.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf

from bitension.chart import ChartEvalError
from bitension.expr import (
    Binary, Const, Expr, ExprEvalError, Param, Pi, Power, Unary, Var,
)

DEFAULT_STEP = 1e-4


# ---------------------------------------------------------------------------
# plain numeric evaluation (no jet machinery)
# ---------------------------------------------------------------------------


def eval_real(e: Expr, point, params: dict, lib=math):
    """Plain numeric evaluation; ``lib`` may be ``math`` or ``mpmath.mp``-like.

    Kept free of any jet machinery so finite-difference oracles built on it
    are an independent derivative path.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Pi):
        return lib.pi
    if isinstance(e, Var):
        return point[e.index]
    if isinstance(e, Param):
        try:
            return params[e.name]
        except KeyError:
            raise ExprEvalError(f"unknown parameter {e.name!r}") from None
    if isinstance(e, Unary):
        a = eval_real(e.arg, point, params, lib)
        if e.op == "neg":
            return -a
        if e.op == "sqrt" and a < 0:
            raise ExprEvalError(f"sqrt of negative value {a!r}")
        return getattr(lib, e.op)(a)
    if isinstance(e, Binary):
        a = eval_real(e.left, point, params, lib)
        b = eval_real(e.right, point, params, lib)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0:
            raise ExprEvalError("division by zero")
        return a / b
    if isinstance(e, Power):
        return eval_real(e.base, point, params, lib) ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")


def eval_chart(spec, point, lib=math) -> list:
    """Plain numeric evaluation of phi; no jet machinery involved.

    Enforces only the domain box (finite-difference stencils may step closer
    to a face than the sampling margin).
    """
    slack = 1e-12
    for x, (lo, hi) in zip(point, spec.domain):
        if not lo - slack <= x <= hi + slack:
            raise ChartEvalError("point outside the domain box", point)
    try:
        vals = [eval_real(c, point, spec.params, lib) for c in spec.components]
    except (ExprEvalError, ValueError, ZeroDivisionError) as e:
        raise ChartEvalError(f"chart evaluation failed: {e}", point) from e
    if spec.normalize:
        norm = lib.sqrt(sum(v * v for v in vals))
        if norm < 1e-6:
            raise ChartEvalError("cannot normalize near-zero vector", point)
        vals = [v / norm for v in vals]
    return vals


# ---------------------------------------------------------------------------
# small generic linear algebra (works for float and mpf entries)
# ---------------------------------------------------------------------------


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _sub(u, v):
    return [x - y for x, y in zip(u, v)]


def _scale(u, s):
    return [x * s for x in u]


def _norm(u, lib):
    return lib.sqrt(_dot(u, u))


def _mat_inv(g):
    """Inverse by Gauss-Jordan elimination with partial pivoting, any size."""
    m = len(g)
    rows = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(g)]
    for c in range(m):
        p = max(range(c, m), key=lambda r: abs(rows[r][c]))
        if rows[p][c] == 0:
            raise ValueError("oracle metric is singular")
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = _scale(rows[c], 1 / rows[c][c])
        for r in range(m):
            if r != c:
                rows[r] = _sub(rows[r], _scale(rows[c], rows[r][c]))
    return [r[m:] for r in rows]


def _orthonormalize(rows, lib, tol=1e-12):
    """Pivoted modified Gram-Schmidt over generic scalars."""
    work = [list(r) for r in rows]
    out = []
    remaining = list(range(len(work)))
    while remaining:
        norms = [_norm(work[i], lib) for i in remaining]
        pick = max(range(len(remaining)), key=lambda k: norms[k])
        if norms[pick] < tol:
            break
        i = remaining.pop(pick)
        e = _scale(work[i], 1 / _norm(work[i], lib))
        out.append(e)
        for j in remaining:
            work[j] = _sub(work[j], _scale(e, _dot(work[j], e)))
    return out


# ---------------------------------------------------------------------------
# derivative stencils (central + one Richardson level)
# ---------------------------------------------------------------------------


def _shift(point, i, d):
    q = list(point)
    q[i] = q[i] + d
    return q


def _rich1(values_h, values_h2, h):
    """First derivative from (f(x+h)-f(x-h)) pairs at steps h and h/2."""
    d_h = _scale(_sub(values_h[0], values_h[1]), 1 / (2 * h))
    d_h2 = _scale(_sub(values_h2[0], values_h2[1]), 1 / h)
    return [(4 * a - b) / 3 for a, b in zip(d_h2, d_h)]


def fd_first_derivatives(spec, point, h=DEFAULT_STEP, lib=math):
    """d_i phi for all i; list of m ambient vectors."""
    ev = lambda u: eval_chart(spec, u, lib)
    out = []
    for i in range(spec.m):
        vh = (ev(_shift(point, i, h)), ev(_shift(point, i, -h)))
        vh2 = (ev(_shift(point, i, h / 2)), ev(_shift(point, i, -h / 2)))
        out.append(_rich1(vh, vh2, h))
    return out


def _second_diag(ev, point, i, h):
    c = ev(point)
    def d2(step):
        p = ev(_shift(point, i, step))
        q = ev(_shift(point, i, -step))
        return [(a - 2 * b + c_) / (step * step) for a, b, c_ in zip(p, c, q)]
    a = d2(h)
    b = d2(h / 2)
    return [(4 * y - x) / 3 for x, y in zip(a, b)]


def _second_cross(ev, point, i, j, h):
    def d2(step):
        pp = ev(_shift(_shift(point, i, step), j, step))
        mm = ev(_shift(_shift(point, i, -step), j, -step))
        pm = ev(_shift(_shift(point, i, step), j, -step))
        mp_ = ev(_shift(_shift(point, i, -step), j, step))
        return [(a + b - c - d) / (4 * step * step) for a, b, c, d in zip(pp, mm, pm, mp_)]
    a = d2(h)
    b = d2(h / 2)
    return [(4 * y - x) / 3 for x, y in zip(a, b)]


def fd_second_derivatives(spec, point, h=DEFAULT_STEP, lib=math):
    ev = lambda u: eval_chart(spec, u, lib)
    m = spec.m
    hess = [[None] * m for _ in range(m)]
    for i in range(m):
        hess[i][i] = _second_diag(ev, point, i, h)
        for j in range(i + 1, m):
            hess[i][j] = hess[j][i] = _second_cross(ev, point, i, j, h)
    return hess


# ---------------------------------------------------------------------------
# pointwise geometry from stencils
# ---------------------------------------------------------------------------


class FDGeometry:
    """Value-level extrinsic data from finite differences only."""

    def __init__(self, spec, point, h=DEFAULT_STEP, lib=math):
        self.spec = spec
        self.m = spec.m
        self.n = spec.n
        self.lib = lib
        self.phi = eval_chart(spec, point, lib)
        self.jac = fd_first_derivatives(spec, point, h, lib)
        self.g = [[_dot(a, b) for b in self.jac] for a in self.jac]
        self.ginv = _mat_inv(self.g)
        self.tangent = _orthonormalize(self.jac, lib)
        hess = fd_second_derivatives(spec, point, h, lib)
        self.B = [[self._project_normal(hess[i][j]) for j in range(self.m)]
                  for i in range(self.m)]
        H = [0] * (self.n + 1)
        for i in range(self.m):
            for j in range(self.m):
                H = [x + self.ginv[i][j] * y for x, y in zip(H, self.B[i][j])]
        self.H = [x / self.m for x in H]

    def _project_normal(self, v):
        out = _sub(v, _scale(self.phi, _dot(v, self.phi)))
        for t in self.tangent:
            out = _sub(out, _scale(t, _dot(out, t)))
        return out

    def unit_normal(self, eta_ref=None):
        """Hypersurface unit normal; sign aligned to ``eta_ref`` if given."""
        if self.n != self.m + 1:
            raise ValueError("unit_normal requires a hypersurface chart")
        best = None
        for c in range(self.n + 1):
            e = [0] * (self.n + 1)
            e[c] = 1
            v = self._project_normal(e)
            nv = _norm(v, self.lib)
            if best is None or nv > best[0]:
                best = (nv, v)
        eta = _scale(best[1], 1 / best[0])
        if eta_ref is not None and _dot(eta, eta_ref) < 0:
            eta = _scale(eta, -1)
        return eta

    def f(self, eta_ref=None):
        return _dot(self.H, self.unit_normal(eta_ref))


def fd_mean_curvature(spec, point, h=DEFAULT_STEP) -> np.ndarray:
    return np.array(FDGeometry(spec, point, h).H, dtype=np.float64)


def fd_second_fundamental_form(spec, point, h=DEFAULT_STEP) -> np.ndarray:
    g = FDGeometry(spec, point, h)
    return np.array(g.B, dtype=np.float64)


def fd_nabla_perp_H(spec, point, h=1e-3) -> np.ndarray:
    """P_N(d_j H) by differencing the mean curvature field (float64).

    A first-level nesting: H itself comes from second differences, so the
    usable accuracy is a few 1e-4 at this step; enough to tell parallel from
    non-parallel mean curvature at the 1e-3 scale, not for tight agreement.
    """
    center = FDGeometry(spec, point, h=DEFAULT_STEP)
    out = []
    for j in range(spec.m):
        Hp = FDGeometry(spec, _shift(point, j, h), h=DEFAULT_STEP).H
        Hm = FDGeometry(spec, _shift(point, j, -h), h=DEFAULT_STEP).H
        Hp2 = FDGeometry(spec, _shift(point, j, h / 2), h=DEFAULT_STEP).H
        Hm2 = FDGeometry(spec, _shift(point, j, -h / 2), h=DEFAULT_STEP).H
        dH = _rich1((Hp, Hm), (Hp2, Hm2), h)
        out.append(center._project_normal(dH))
    return np.array(out, dtype=np.float64)


# ---------------------------------------------------------------------------
# nested oracles in extended precision
# ---------------------------------------------------------------------------


def _fd_metric_derivatives(spec, point, h, lib):
    """d_a g_ij by differencing the first-difference metric."""
    m = spec.m

    def metric(u):
        jac = fd_first_derivatives(spec, u, h, lib)
        return [[_dot(a, b) for b in jac] for a in jac]

    dg = []
    for a in range(m):
        gp = metric(_shift(point, a, h))
        gm = metric(_shift(point, a, -h))
        gp2 = metric(_shift(point, a, h / 2))
        gm2 = metric(_shift(point, a, -h / 2))
        rows = []
        for i in range(m):
            rows.append(_rich1((gp[i], gm[i]), (gp2[i], gm2[i]), h))
        dg.append(rows)
    return dg


def _fd_christoffel(spec, point, h, lib):
    m = spec.m
    g = FDGeometry(spec, point, h, lib)
    dg = _fd_metric_derivatives(spec, point, h, lib)
    Gam = [[[0] * m for _ in range(m)] for _ in range(m)]
    for k in range(m):
        for i in range(m):
            for j in range(m):
                s = 0
                for l in range(m):
                    s += g.ginv[k][l] * (dg[i][l][j] + dg[j][l][i] - dg[l][i][j])
                Gam[k][i][j] = s / 2
    return g, Gam


def fd_delta_f(spec, point, h=DEFAULT_STEP, dps=30, eta_ref=None) -> float:
    """Delta f = -g^ij (d2_ij f - Gamma^k_ij d_k f) with f = <H, eta> by FD."""
    if spec.n != spec.m + 1:
        raise ValueError("fd_delta_f requires a hypersurface chart")
    m = spec.m
    with mp.workdps(dps):
        pt = [mpf(repr(float(x))) for x in point]
        hh = mpf(repr(float(h)))
        center, Gam = _fd_christoffel(spec, pt, hh, mp)
        eta0 = center.unit_normal(eta_ref)

        def f(u):
            return FDGeometry(spec, u, hh, mp).f(eta_ref=eta0)

        fc = f(pt)
        grad = []
        hessf = [[None] * m for _ in range(m)]
        for i in range(m):
            fp, fm = f(_shift(pt, i, hh)), f(_shift(pt, i, -hh))
            fp2, fm2 = f(_shift(pt, i, hh / 2)), f(_shift(pt, i, -hh / 2))
            grad.append(_rich1(([fp], [fm]), ([fp2], [fm2]), hh)[0])

            def d2(step):
                a = f(_shift(pt, i, step))
                b = f(_shift(pt, i, -step))
                return (a - 2 * fc + b) / (step * step)

            hessf[i][i] = (4 * d2(hh / 2) - d2(hh)) / 3
        for i in range(m):
            for j in range(i + 1, m):
                def d2c(step):
                    pp = f(_shift(_shift(pt, i, step), j, step))
                    mm = f(_shift(_shift(pt, i, -step), j, -step))
                    pm = f(_shift(_shift(pt, i, step), j, -step))
                    mp_ = f(_shift(_shift(pt, i, -step), j, step))
                    return (pp + mm - pm - mp_) / (4 * step * step)
                hessf[i][j] = hessf[j][i] = (4 * d2c(hh / 2) - d2c(hh)) / 3
        out = 0
        for i in range(m):
            for j in range(m):
                corr = sum(Gam[k][i][j] * grad[k] for k in range(m))
                out += center.ginv[i][j] * (hessf[i][j] - corr)
        return float(-out)


def fd_nabla_A(spec, point, h=DEFAULT_STEP, dps=25, eta_ref=None,
               frame=None) -> np.ndarray:
    """<(grad A)(e_a, e_b), e_c> by finite differences (extended precision).

    ``frame`` rows are the orthonormal tangent vectors to express the result
    in (defaults to the oracle's own Gram-Schmidt frame).
    """
    if spec.n != spec.m + 1:
        raise ValueError("fd_nabla_A requires a hypersurface chart")
    m = spec.m
    with mp.workdps(dps):
        pt = [mpf(repr(float(x))) for x in point]
        hh = mpf(repr(float(h)))
        center, Gam = _fd_christoffel(spec, pt, hh, mp)
        eta0 = center.unit_normal(eta_ref)

        def shape_op(u):
            g = FDGeometry(spec, u, hh, mp)
            eta = g.unit_normal(eta_ref=eta0)
            P = [[_dot(g.B[l][j], eta) for j in range(m)] for l in range(m)]
            return [[sum(g.ginv[k][l] * P[l][j] for l in range(m))
                     for j in range(m)] for k in range(m)]

        A0 = shape_op(pt)
        dA = []
        for i in range(m):
            Ap, Am = shape_op(_shift(pt, i, hh)), shape_op(_shift(pt, i, -hh))
            Ap2, Am2 = shape_op(_shift(pt, i, hh / 2)), shape_op(_shift(pt, i, -hh / 2))
            rows = []
            for k in range(m):
                rows.append(_rich1((Ap[k], Am[k]), (Ap2[k], Am2[k]), hh))
            dA.append(rows)

        nablaA = np.empty((m, m, m))
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    v = dA[i][k][j]
                    v += sum(Gam[k][i][l] * A0[l][j] for l in range(m))
                    v -= sum(Gam[l][i][j] * A0[k][l] for l in range(m))
                    nablaA[k, i, j] = float(v)
        g0 = np.array([[float(x) for x in row] for row in center.g])
        if frame is None:
            frame_rows = np.array(
                [[float(x) for x in row] for row in center.tangent]
            )
            jacT = np.array([[float(x) for x in row] for row in center.jac]).T
            E = (frame_rows @ jacT) @ np.linalg.inv(g0)
        else:
            jacT = np.array([[float(x) for x in row] for row in center.jac]).T
            E = (np.asarray(frame) @ jacT) @ np.linalg.inv(g0)
        return np.einsum("ai,bj,kij,kw,cw->abc", E, E, nablaA, g0, E)
