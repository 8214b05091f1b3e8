"""Extrinsic geometry of a chart at a point, from order-4 jets.

Everything is realized as ambient-vector arithmetic on jets.  The sphere
connection of the unit sphere is the Euclidean derivative plus a radial
correction, nabla^S_X Y = D_X Y + <X,Y> phi, so covariant derivatives in the
pull-back bundle and in the normal bundle reduce to jet differentiation plus
projections; no intrinsic index bookkeeping ever touches the normal bundle.

Sign conventions: Laplacians are Delta = -trace nabla^2, and curvature is
R(X,Y) = [nabla_X, nabla_Y] - nabla_{[X,Y]}, under which the unit sphere has
R(X,Y)Z = <Y,Z>X - <X,Z>Y and positive Ricci.  The reported Riemann array
uses the index convention with R[i,j,i,j] equal to the sectional curvature
of the (e_i, e_j) plane.

The second fundamental form in coordinates is

    B_ij = d2phi_ij + g_ij phi - Gamma^k_ij dphi_k ,

an ambient vector automatically orthogonal to phi and to the tangent space;
H = (1/m) g^ij B_ij.

Truncation orders.  The chart jets are order 4, and each jet stage runs only
to the Taylor degree its readers use and stores only the coefficients of
that order (the orders are literals at the call sites; ``JetSpace.cut``
trims a deeper operand, so every ``mul`` and ``dot`` gets two operands of
the call's order).  The stages marked * form the tau2 stage (``_tau2_stage``): with
the chart, sphere and rank checks they give H, |H| and Delta H, all that
tau2 reads, and ``geometry_block`` runs the others after them.

    stage                          order  its readers
  * dPhi, gJ                       3      d g for Christoffel (2), d2 for B (2)
  * ginvJ (``_jet_mat_inv``)       2      Christoffel (2), H (2), eta (2), U (1)
  * GamJ                           2      B (2), christoffel_grad (degree 1)
  * BJ                             2      H (2)
  * HJ                             2      f (2), dH, H2J and hdp (1)
    NJ, nn, eta                    2      f (2)
    fJ                             2      grad f (1), Delta f (2)
  * H2J                            1      |H| (degree 0), grad_H2 (degree <= 1)
  * hdp, WJ                        1      Delta H (degree <= 1)
    UJ                             1      Delta-perp H (degree <= 1)

Jets of B and H to order 2 support the two extra covariant derivatives
needed for Delta H, Delta-perp H and Delta f.  A trimmed stage stores the
coefficients of degree <= its order, the graded prefix of a deeper run's,
each bit-identical to it: the order-k multiplication table is the order-4
table filtered in the same (i, j) order, and ``np.bincount`` adds each
coefficient's pair products in table order.

Each tensor expression is one stacked ``JetSpace`` call over all its
indices; the terms of an index sum are then added one at a time in a fixed
index order, not with ``.sum()``, so the rounding (and every report byte)
does not depend on numpy's reduction order.  Likewise each frame curvature
entry <R(e_a, e_b) e_c, e_d> is a sequential sum over (i, j, k, w) in C
order (``_frame_riemann``), so the reported scalar curvature can be formed
from the m^2 entries it needs without the full tensor.

Point blocks.  ``geometry_block`` evaluates a (P, m) block of sample points
at once, and a lone point is the block P = 1 (``compute_geometry``): every
array carries exactly one leading point axis, from the chart jets
(P, n+1, L) through the Christoffel, B and H jets to each value-level field,
so each kernel call and each contraction serves all P points (Taylor
arithmetic in vector mode).  The result is one ``GeometryBlock``: every
field of ``FIELDS`` as one value over the point axis, and each point's
error.  Each point's values stay bit-identical to those of its one-point
block, because every value step is the numpy primitive a lone point would
call, on the same strided views: an ``einsum`` gains a ``p`` index,
``np.dot`` of two jet rows becomes a stacked ``@`` (``_dot``; a contiguous
copy would sum in another order) and ``np.sum`` a per-row sum.  The
pivoted Gram-Schmidt frames run over the point axis too, each point with
its own pivots (``_block_frames``), and the finiteness of every field is
tested once per block.  Only the two full reductions of Delta f stay per
point: their ``einsum`` with a point axis sums in another order, which
moves last bits.
``block_size`` fixes P from m alone: 64 for m <= 2, 32 for m = 3, 8 for
m = 4, 5 and 4 for m = 6.  A larger block shares the per-call dispatch that
dominates at small m, but its stacked temporaries grow with P and cost more
memory than they save time once the kernels' arithmetic dominates (the
measurements are in CHANGES.md).
``chart_blocks`` is the one chart pass and block loop: one
``eval_jet_stack`` pass per ``CHART_RUN`` points, a multiple of every block
size, gives each point the jets of its one-point block; ``sample_blocks``
runs the full package on its blocks, and ``scan`` the tau2 stage on the
blocks of a family's stacked members, one parameter value per point.
No check raises: a failed check records the point's error (``jets.fail``;
a point keeps its first), and every row goes on, as rows never mix, so one
pass gives each point the outcome of its one-point block.  A failed point
passes neutral rows (the identity, the constant-1 jet) to the calls that
raise for a whole stack: LAPACK's ``eigvalsh`` and ``cholesky``, and the
jet ``sqrt`` and ``recip``.

A ``GeometryBlock`` copies each field once, into a C-contiguous array of
its own, so it pins none of the jets.  The residuals read whole blocks,
failed points included, and keep the good points' values: the scalar
curvature (``_coord_riemann``, ``_frame_riemann``), the hypersurface
residuals, the record norms and the PMC frame completion (``_block_mgs``)
run once per block with the same rule: each contraction keeps the kernel a
lone point calls (a matrix-vector ``@`` stays one ``gemv`` per point, a row
norm ``sqrt(<v, v>)``, an ``einsum`` gains a ``p`` index, and the frame
entries accumulate along the last axis), so no residual stays per point.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import chart as chart_mod
from . import jets

RANK_TOL = 1e-8     # eig_min <= RANK_TOL * eig_max: a rank-deficient metric


class GeometryError(ValueError):
    """Geometric computation failed at a sample point."""


# ---------------------------------------------------------------------------
# jet-matrix helpers
# ---------------------------------------------------------------------------


def _jet_matmul(sp: jets.JetSpace, A: np.ndarray, B: np.ndarray, order: int) -> np.ndarray:
    """(..., m, m, L) jet-ring matrix product over any leading point axes,
    of order ``order``."""
    A, B = sp.cut(A, order), sp.cut(B, order)
    return sp.dot(A[..., :, None, :, :], B.swapaxes(-3, -2)[..., None, :, :, :], order)


def _jet_mat_inv(sp: jets.JetSpace, gJ: np.ndarray, g0inv: np.ndarray, order: int) -> np.ndarray:
    """Inverse of a jet-valued matrix (..., m, m, L) by Newton iteration from
    the value inverse (..., m, m).

    The residual I - X g starts at degree >= 1 and each iteration doubles
    that degree, so two iterations are exact through degree 3, past the
    order 2 that ``geometry_block`` asks for; the third polishes the float
    value part (dropping it moves report bytes).
    """
    m = gJ.shape[-2]
    X = sp.constant(g0inv, order)
    eye2 = 2.0 * np.eye(m)
    for _ in range(3):
        T = -_jet_matmul(sp, gJ, X, order)
        T[..., 0] += eye2
        X = _jet_matmul(sp, X, T, order)
    return X


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


# The fields of a full geometry block, in the order ``_check_finite`` tests
# them.  Each holds one value per point along a leading point axis.  Per
# point, with n1 = n + 1 and k = n - m:
#   point (m,); phi, H, delta_H, delta_perp_H, grad_H2, trace_B_AH,
#     trace_A_nablaH (n1,)
#   jac (m, n1): rows dphi_i; nabla_perp_H (m, n1): rows P_N(d_i H)
#   metric, metric_inv (m, m)
#   christoffel (m, m, m): [k, i, j] = Gamma^k_ij
#   christoffel_grad (m, m, m, m): [a, k, i, j] = d_a Gamma^k_ij
#   tangent_frame (m, n1), normal_frame (k, n1): orthonormal rows
#   frame_coeff (m, m): e_a = sum_i frame_coeff[a, i] dphi_i
#   B_coord (m, m, n1): the ambient-valued B(d_i, d_j)
#   B_frame (k, m, m): <B(e_a, e_b), xi_x>
#   A_H (m, m): <B(e_a, e_b), H>
#   H_norm, H2, B2, AH2, nabla_perp_H_norm: floats
#   hypersurfaces (k = 1) only: f, A2, delta_f (floats), eta = normal_frame[0]
#     and grad_f (n1,), and the shape operator A = B_frame[0] (m, m)
FIELDS = (
    "point", "phi", "jac", "metric", "metric_inv", "christoffel", "christoffel_grad",
    "tangent_frame", "frame_coeff", "normal_frame", "B_coord", "B_frame", "A_H", "H",
    "H_norm", "H2", "B2", "AH2", "delta_H", "delta_perp_H", "nabla_perp_H",
    "nabla_perp_H_norm", "grad_H2", "trace_B_AH", "trace_A_nablaH",
    "f", "eta", "A", "A2", "grad_f", "delta_f",
)


class GeometryBlock:
    """The geometry of a block of sample points of one chart: each field of
    ``FIELDS`` it computed, read as an attribute holding one value per point
    along a leading point axis, and ``errors``: None for a good point, else
    the error of its one-point block.  A failed point's values mean nothing.

    Each field is the block's own C-contiguous float64 copy: a view would
    keep the jets alive, and the residuals' einsums sum in a layout-dependent
    order.  ``B_frame`` and ``A`` are read-only.
    """

    def __init__(self, m: int, n: int, values: dict, errors: list):
        self.m, self.n, self.errors = m, n, errors
        self.codim = n - m
        self.hypersurface = self.codim == 1
        for k, v in values.items():
            v = self.__dict__[k] = np.array(v, dtype=np.float64, order="C")
            v.flags.writeable = k not in ("B_frame", "A")

    def __len__(self) -> int:
        return len(self.errors)


@dataclass
class IntrinsicCurvature:
    riemann: np.ndarray    # (P, m, m, m, m), R[p,i,j,i,j] = K(e_i, e_j)
    ricci: np.ndarray      # (P, m, m)
    scalar: np.ndarray     # (P,)
    sectional: np.ndarray  # (P, m, m), zero diagonal


# ---------------------------------------------------------------------------
# main computation
# ---------------------------------------------------------------------------


def _project_normal_jets(sp: jets.JetSpace, Phi: np.ndarray, dPhi: np.ndarray,
                         ginvJ: np.ndarray, V: np.ndarray, order: int) -> np.ndarray:
    """Jets of the normal-bundle projection of the ambient field(s) V:
    V - <V, phi> phi - g^kl <V, dphi_k> dphi_l.

    Phi (P, n+1, L), dPhi (P, m, n+1, L) and ginvJ (P, m, m, L) share the
    point axis; V is (P, F.., n+1, L) with any field axes F.. after it, and
    so is the result, of order ``order``."""
    lift = (1,) * (V.ndim - Phi.ndim)               # unit field axes after the point axis
    Phi, dPhi, ginvJ = (sp.cut(x.reshape(x.shape[:1] + lift + x.shape[1:]), order)
                        for x in (Phi, dPhi, ginvJ))
    V = sp.cut(V, order)
    m = dPhi.shape[-3]
    out = V - sp.mul(sp.dot(V, Phi, order)[..., None, :], Phi, order)
    c = sp.dot(V[..., None, :, :], dPhi, order)                    # [..., k]
    gc = sp.mul(ginvJ, c[..., :, None, :], order)                  # [..., k, l]
    T = sp.mul(gc[..., None, :], dPhi[..., None, :, :, :], order)  # [..., k, l, c]
    for k in range(m):
        for l in range(m):
            out = out - T[..., k, l, :, :]
    return out


CHART_RUN = 64      # sample points per chart-jet pass: a multiple of every block size


def block_size(m: int) -> int:
    """Sample points per ``geometry_block`` call for an m-dimensional chart
    (the rule and why are in the module docstring)."""
    return 64 if m <= 2 else 32 if m == 3 else 8 if m <= 5 else 4


def chart_blocks(spec: chart_mod.ChartSpec, points, params: dict | None = None) -> Iterator[tuple]:
    """Yield (points, chart_jets) for each run of ``block_size(spec.m)``
    consecutive points: the block's rows and errors of one
    ``chart.eval_jet_stack`` pass per ``CHART_RUN`` points, as
    ``tau2_block`` reads them.  ``params``, if given, holds each parameter
    as an array of one value per point, and each pass reads its rows."""
    size = block_size(spec.m)
    for start in range(0, len(points), CHART_RUN):
        stop = start + CHART_RUN
        run = points[start:stop]
        cut = None if params is None else {k: v[start:stop] for k, v in params.items()}
        with np.errstate(all="ignore"):     # a decorator would not cover a generator's body
            Phi, sp, errors = chart_mod.eval_jet_stack(spec, run, cut)
        for b in range(0, len(run), size):
            rows = slice(b, b + size)
            yield run[rows], (Phi[rows], sp, errors[rows])


def sample_blocks(spec: chart_mod.ChartSpec, points) -> Iterator[GeometryBlock]:
    """Yield ``geometry_block`` of each block of ``chart_blocks``,
    evaluated when the caller asks for it."""
    for block, chart_jets in chart_blocks(spec, points):
        yield _geometry_rest(spec, _tau2_stage(spec, block, chart_jets))


def compute_geometry(spec: chart_mod.ChartSpec, point) -> GeometryBlock:
    """Full extrinsic package at one point (m,): ``geometry_block`` of the
    one-point block, whose error it raises.  Floating-point overflow does
    not warn: a sample whose jets or outputs are not finite raises
    ``GeometryError``.
    """
    block = geometry_block(spec, [point])
    if block.errors[0] is not None:
        raise block.errors[0]
    return block


def tau2_block(spec: chart_mod.ChartSpec, points, chart_jets=None) -> GeometryBlock:
    """H, |H| and Delta H at each point of a (P, m) block, as a
    ``GeometryBlock`` of these three fields: the tau2 stage of
    ``geometry_block`` alone, each value bit-identical to that field of the
    full package.  A point fails only the checks these values depend on:
    the chart and its jets, the sphere, the rank, and the finiteness of the
    fields the stage computes (in ``FIELDS`` order); the frame checks and
    the finiteness of the other fields are ``geometry_block``'s alone.  A
    failed point's values mean nothing.  ``chart_jets`` is as for
    ``_tau2_stage``.
    """
    *_, errors, values = _tau2_stage(spec, points, chart_jets)
    _check_finite(values, errors)
    return GeometryBlock(spec.m, spec.n, {k: values[k] for k in ("H", "H_norm", "delta_H")},
                         errors)


@np.errstate(all="ignore")
def _tau2_stage(spec: chart_mod.ChartSpec, points, chart_jets=None):
    """The jet stages through H and Delta H over a (P, m) block, with the
    chart, sphere and rank checks: the jets it builds (the rest of
    ``geometry_block`` reads all but BJ, whose values are ``B_coord``), each
    point's error, and a dict of the ``FIELDS`` computed here.
    ``chart_jets`` is the block's rows of an ``eval_jet_stack`` pass over
    more points (``chart_blocks``), for one chart or for several members of
    a family (``scan._profiles``); by default the stage makes its own."""
    Phi, sp, errors = chart_jets or chart_mod.eval_jet_stack(spec, points)  # (P, n+1, L)
    points = np.asarray(points, dtype=np.float64)
    if not np.isfinite(Phi).all():
        _fail(errors, ~np.isfinite(Phi).all(axis=(1, 2)), "non-finite chart jets")
    m, n = spec.m, spec.n
    P = len(points)

    phi0 = Phi[..., 0]
    rows = np.ascontiguousarray(phi0)       # np.linalg.norm's sum: np.dot of a contiguous row
    norm = np.sqrt(_dot(rows, rows))
    _fail(errors, np.abs(norm - 1.0) > 1e-8,
          "chart does not land on the unit sphere (|phi| = {:.6g})", norm)

    dPhi = np.stack([sp.deriv(Phi, i) for i in range(m)], axis=1)  # order 3, as gJ
    jac = dPhi[..., 0]

    iu, ju = np.triu_indices(m)                                    # pairs i <= j
    gJ = sp.zeros(P, m, m, order=3)                                # dgJ at 2
    gJ[:, iu, ju] = gJ[:, ju, iu] = sp.dot(dPhi[:, iu], dPhi[:, ju], 3)
    g0 = gJ[..., 0]

    # LAPACK raises for a whole stack: a failed point passes the identity
    eig = np.linalg.eigvalsh(_neutral(errors, g0, np.eye(m)))[:, [0, -1]]
    _fail(errors, eig[:, 0] <= RANK_TOL * eig[:, 1],
          "rank-deficient differential (metric eigenvalues {:.3e}..{:.3e})", *eig.T)
    cho = np.linalg.cholesky(_neutral(errors, g0, np.eye(m)))
    g0inv = np.linalg.inv(cho.swapaxes(-1, -2)) @ np.linalg.inv(cho)
    ginvJ = _jet_mat_inv(sp, gJ, g0inv, 2)
    ginv0 = ginvJ[..., 0]

    # Christoffel symbols Gamma^k_ij, jets to order 2
    dgJ = np.stack([sp.deriv(gJ, a) for a in range(m)], axis=1)   # dg[p, a, b, c]
    C = ((dgJ[:, iu, :, ju] + dgJ[:, ju, :, iu]).swapaxes(0, 1)
         - dgJ[:, :, iu, ju].swapaxes(1, 2))                       # [p, pair, l]
    GamJ = sp.zeros(P, m, m, m, order=2)
    GamJ[:, :, iu, ju] = GamJ[:, :, ju, iu] = 0.5 * sp.dot(ginvJ[:, :, None], C[:, None], 2)
    Gam0 = GamJ[..., 0]

    # second fundamental form, ambient-valued, jets to order 2
    d2 = np.stack([sp.deriv(dPhi, j) for j in range(m)], axis=1)  # [p, j, i]
    val = d2[:, ju, iu] + sp.mul(sp.cut(gJ, 2)[:, iu, ju, None], sp.cut(Phi, 2)[:, None], 2)
    T = sp.mul(GamJ[:, :, iu, ju, None], sp.cut(dPhi, 2)[:, :, None], 2)  # [p, k, pair]
    for k in range(m):
        val = val - T[:, k]
    BJ = sp.zeros(P, m, m, n + 1, order=2)
    BJ[:, iu, ju] = BJ[:, ju, iu] = val

    T = sp.mul(ginvJ[..., None, :], BJ, 2)
    HJ = sp.zeros(P, n + 1, order=2)
    for i in range(m):
        for j in range(m):
            HJ += T[:, i, j]
    HJ /= m
    H0 = HJ[..., 0]
    H1 = sp.cut(HJ, 1)
    H2J = sp.mul(H1, H1, 1).sum(axis=-2)

    # the rough Laplacian of H from W_j = nabla_j H = d_j H + <H, dphi_j> phi
    # and nabla_i W_j = d_i W_j + <W_j, dphi_i> phi; second derivatives
    # [p, i, j, c] in C order like a lone point's (``_lap``)
    dHJ = np.stack([sp.deriv(HJ, j) for j in range(m)], axis=1)   # order 1
    hdp = sp.dot(H1[:, None], sp.cut(dPhi, 1), 1)                  # <H, dphi_j>
    WJ = dHJ + sp.mul(hdp[..., None, :], sp.cut(Phi, 1)[:, None], 1)
    W0 = WJ[..., 0]
    phi = phi0[:, None, None]
    ddH = np.ascontiguousarray(_first_partials(sp, WJ)
                               + _dot(W0[:, None], jac[:, :, None])[..., None] * phi)

    H2 = H2J[:, 0].tolist()
    values = dict(
        point=points, phi=phi0, jac=jac, metric=g0, metric_inv=ginv0, christoffel=Gam0,
        B_coord=BJ[..., 0], H=H0, H_norm=[math.sqrt(max(x, 0.0)) for x in H2], H2=H2,
        delta_H=_lap(ginv0, Gam0, ddH, W0),
    )
    return sp, Phi, dPhi, ginvJ, GamJ, BJ, HJ, H2J, dHJ, rows / norm[:, None], errors, values


def geometry_block(spec: chart_mod.ChartSpec, points) -> GeometryBlock:
    """Full extrinsic package at each point of a (P, m) block: the tau2
    stage (``_tau2_stage``), then the normal part of nabla H, the frames,
    the hypersurface jets and the remaining value fields (``_geometry_rest``).

    Every jet stage is one kernel call, and every value-level field one
    array operation, over the whole block; only the Delta f reductions run
    per point.  Each point's error is the ``GeometryError``/``ChartError``
    of its one-point block (its first failed check), and each field's row
    of a good point equals that of its one-point block.
    """
    return _geometry_rest(spec, _tau2_stage(spec, points))


@np.errstate(all="ignore")
def _geometry_rest(spec: chart_mod.ChartSpec, stage) -> GeometryBlock:
    """``geometry_block`` after its tau2 stage, whose output is ``stage``."""
    sp, Phi, dPhi, ginvJ, GamJ, _, HJ, H2J, dHJ, phi_unit, errors, values = stage
    m, n = spec.m, spec.n
    P = len(phi_unit)
    phi0, jac, ginv0, Gam0, B0, H0 = (
        values[k] for k in ("phi", "jac", "metric_inv", "christoffel", "B_coord", "H"))
    # d_a Gamma^k_ij, C order per point like every other field
    dGam0 = np.ascontiguousarray(np.moveaxis(GamJ[..., sp.var_pos], -1, 1))

    # the normal part of nabla H, U_j = P_N(d_j H), and the second
    # derivatives P_N(d_i U_j) of the normal Laplacian, in C order
    UJ = _project_normal_jets(sp, Phi, dPhi, ginvJ, dHJ, 1)        # order 1
    U0 = UJ[..., 0]

    # value stage: each field once over the point axis, with the numpy
    # primitive a lone point uses, on the same strided views (module docstring)
    codim = n - m
    tangent, E, normal = _block_frames(phi_unit, jac, ginv0, codim, errors)

    phi, J = phi0[:, None, None], jac[:, None, None]
    dU = _first_partials(sp, UJ)
    coeffs = ginv0[:, None, None] @ (J @ dU[..., None])
    ddU = np.ascontiguousarray(dU - _dot(dU, phi)[..., None] * phi
                               - (coeffs.swapaxes(-1, -2) @ J)[..., 0, :])

    BH = np.einsum("pilc,pc->pil", B0, H0)
    # |B|^2 comes from the value-level normal frame (the jet normal agrees
    # only to rounding); for a hypersurface that frame otherwise only picks
    # the constant direction whose normal projection gives the jet normal
    B_frame = np.einsum("pai,pbj,pijc,pxc->pxab", E, E, B0, normal)
    B2 = _sumsq(B_frame)
    if codim == 1:
        c_star = np.argmax(np.abs(normal[:, 0]), axis=-1)
        etaJ, fJ = _hypersurface_jets(sp, Phi, dPhi, ginvJ, HJ, c_star, errors)
        normal = etaJ[:, None, :, 0].copy()
        B_frame = np.einsum("pai,pbj,pijc,pxc->pxab", E, E, B0, normal)
    hyper: dict = {}
    if codim == 1:
        # f, grad f and Delta f from the jets of f; C order: the einsums
        # below sum in a layout-dependent order
        hess = np.stack([sp.deriv(fJ, i)[:, sp.var_pos] for i in range(m)], axis=1).copy()
        df = fJ[:, sp.var_pos]
        hyper = dict(
            f=fJ[:, 0], eta=normal[:, 0], A=B_frame[:, 0], A2=_sumsq(B_frame[:, 0]),
            grad_f=((ginv0 @ df[..., None]).swapaxes(-1, -2) @ jac)[:, 0],
            # full reductions: with a point axis they sum in another order
            delta_f=[float(-np.einsum("ij,ij->", ginv0[p], hess[p])
                           + np.einsum("ij,kij,k->", ginv0[p], Gam0[p], df[p]))
                     for p in range(P)],
        )
    A_H = np.einsum("pai,pbj,pijc,pc->pab", E, E, B0, H0)

    perp2 = np.einsum("pij,pic,pjc->p", ginv0, U0, U0).tolist()
    out = dict(
        values, christoffel_grad=dGam0, tangent_frame=tangent, frame_coeff=E,
        normal_frame=normal, B_frame=B_frame, A_H=A_H, B2=B2, AH2=_sumsq(A_H),
        delta_perp_H=_lap(ginv0, Gam0, ddU, U0), nabla_perp_H=U0,
        nabla_perp_H_norm=[math.sqrt(max(x, 0.0)) for x in perp2],
        grad_H2=np.einsum("pij,pi,pjc->pc", ginv0, H2J[:, sp.var_pos], jac),
        trace_B_AH=np.einsum("pij,pkl,pil,pjkc->pc", ginv0, ginv0, BH, B0),
        trace_A_nablaH=np.einsum("pij,pkl,pjlc,pic,pkd->pd", ginv0, ginv0, B0, U0, jac),
        **hyper,
    )
    _check_finite(out, errors)
    return GeometryBlock(m, n, out, errors)


def _fail(errors: list, bad, message: str, *values) -> None:
    """``jets.fail`` with a ``GeometryError``: ``message`` formatted with the
    point's entries of ``values``."""
    jets.fail(errors, bad, lambda p: GeometryError(message.format(*(v[p] for v in values))))


def _neutral(errors: list, x: np.ndarray, row) -> np.ndarray:
    """``x`` with ``row`` in place of each failed point's row."""
    failed = np.array([e is not None for e in errors])
    return np.where(failed.reshape((-1,) + (1,) * (x.ndim - 1)), row, x) if failed.any() else x


def _check_finite(values: dict, errors: list) -> None:
    """Fail each point at its first non-finite field of ``values``, in
    ``FIELDS`` order; absent fields are skipped."""
    for name in FIELDS:
        v = values.get(name)
        if v is not None and not np.isfinite(v).all():
            bad = ~np.isfinite(np.reshape(v, (len(errors), -1))).all(axis=1)
            _fail(errors, bad, f"non-finite {name} at the sample point")


def _first_partials(sp: jets.JetSpace, X: np.ndarray) -> np.ndarray:
    """The first partials of jets X (P, F.., L) as (P, m, F..): the degree-1
    coefficients, adjacent in graded order, moved after the point axis."""
    return np.moveaxis(X[..., sp.var_pos[0]:sp.var_pos[-1] + 1], -1, 1)


def _lap(ginv0: np.ndarray, Gam0: np.ndarray, dd: np.ndarray, V: np.ndarray) -> np.ndarray:
    """-g^ij dd_ij + g^ij Gamma^k_ij V_k over a block: a Laplacian from the
    second derivatives dd [p, i, j, c] (C order: the einsums sum in a
    layout-dependent order) and the first ones V [p, k, c]."""
    return (-np.einsum("pij,pijc->pc", ginv0, dd)
            + np.einsum("pij,pkij,pkc->pc", ginv0, Gam0, V))


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u, v> over the last axis, broadcast over the others: a stacked
    ``@`` sums in the same order as ``np.dot`` on each pair of rows."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _sumsq(X: np.ndarray) -> np.ndarray:
    """``np.sum(X[p] * X[p])`` for each point p of a (P, ...) block."""
    return (X * X).reshape(len(X), -1).sum(-1)


def _block_mgs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt on the k rows of each point of a (P, k, n)
    block, largest remaining row first: the (P, k, n) frames and the (P, k)
    norm each step divided by.  A one-point pass stops at its first step
    whose norm is below 1e-13; here every step runs, and the caller drops
    (or fails) the steps from there on.

    Each point pivots on its own: the rows are a contiguous copy, a row norm
    is ``sqrt(<v, v>)`` (``np.linalg.norm`` of a contiguous row), and the
    pivot is the ``argmax`` with the point's picked rows at -inf, so ties and
    NaN go to the lowest remaining index.  Every row is updated each step.
    """
    V = np.array(rows)
    P, k, _ = V.shape
    at = np.arange(P)
    frame = np.empty_like(V)
    tops = np.empty((P, k))
    picked = np.zeros((P, k), dtype=bool)
    for a in range(k):
        norms = np.sqrt(_dot(V, V))
        norms[picked] = -np.inf
        pick = np.argmax(norms, axis=-1)
        top = tops[:, a] = norms[at, pick]
        e = frame[:, a] = V[at, pick] / top[:, None]
        picked[at, pick] = True
        V -= _dot(V, e[:, None])[..., None] * e[:, None]
    return frame, tops


def _block_frames(phi_unit, jac, ginv0, codim, errors):
    """Orthonormal tangent frames (``_block_mgs`` of the rows of ``jac``),
    their coefficients E (e_a = E[a,i] dphi_i) and value-level orthonormal
    normal frames of a (P, ...) block; a point whose frame degenerates fails
    (``errors``)."""
    tangent, tops = _block_mgs(jac)
    _fail(errors, (tops < 1e-13).any(axis=-1), "tangent frame construction failed")
    E = (tangent @ jac.swapaxes(-1, -2)) @ ginv0
    P, _, n1 = tangent.shape
    at = np.arange(P)

    span = np.concatenate([phi_unit[:, None], tangent], axis=1)
    eye = np.eye(n1)
    work = eye - span.swapaxes(-1, -2) @ (span @ eye)
    normal = np.empty((P, codim, n1))
    for x in range(codim):
        v = work[at, np.argmax(np.linalg.norm(work, axis=-1), axis=-1)]
        nv = np.sqrt(_dot(v, v))
        _fail(errors, nv < 1e-10, "normal frame construction failed (degenerate complement)")
        e = normal[:, x] = v / nv[:, None]
        work = work - (work @ e[..., None]) * e[:, None]
    return tangent, E, normal


def _hypersurface_jets(sp, Phi, dPhi, ginvJ, HJ, c_star, errors):
    """Jets of the hypersurface unit normal eta and f = <H, eta>, to order 2
    (the Hessian of f reads degree 2).

    At each point eta is the normalized normal projection of the constant
    direction e_{c_star[p]}.  It points along H where H does not vanish, so
    f is nonnegative and comparable across samples; the paper fixes no
    orientation, and every implemented check is covariant under negating eta
    (the test suite asserts this).
    """
    P, n1 = Phi.shape[:2]
    E_c = sp.zeros(P, n1, order=2)
    E_c[np.arange(P), c_star, 0] = 1.0
    NJ = _project_normal_jets(sp, Phi, dPhi, ginvJ, E_c, 2)
    nn = sp.mul(NJ, NJ, 2).sum(axis=-2)
    small = nn[:, 0] < 1e-16
    if small.any():                 # a failed point composes the constant 1
        _fail(errors, small, "normal frame construction failed (degenerate complement)")
        nn = np.where(small[:, None], sp.constant(1.0, 2), nn)
    scale = jets.elementary(sp, "recip", jets.elementary(sp, "sqrt", nn, 2), 2)
    etaJ = sp.mul(NJ, scale[:, None], 2)
    fJ = sp.mul(HJ, etaJ, 2).sum(axis=-2)                          # order 2
    flip = fJ[:, 0] < -1e-12
    return (np.where(flip[:, None, None], -etaJ, etaJ),
            np.where(flip[:, None], -fJ, fJ))


# ---------------------------------------------------------------------------
# intrinsic curvature
# ---------------------------------------------------------------------------


def _coord_riemann(g: GeometryBlock) -> np.ndarray:
    """Rm[p,i,j,k,w] = <R(d_i, d_j) d_k, d_w> at each point p, from the
    Christoffel symbols."""
    Gam0 = g.christoffel
    # R(d_i, d_j) d_k = opR[i,j,k,l] d_l, with
    # opR[i,j,k,l] = d_i Gamma^l_jk - d_j Gamma^l_ik
    #                + Gamma^s_jk Gamma^l_is - Gamma^s_ik Gamma^l_js
    dGam = g.christoffel_grad.transpose(0, 1, 3, 4, 2)            # [p, i, j, k, l]
    GG = np.einsum("psjk,plis->pijkl", Gam0, Gam0)
    opR = dGam - dGam.swapaxes(1, 2) + GG - GG.swapaxes(1, 2)
    return np.einsum("pijkl,plw->pijkw", opR, g.metric)


def _frame_riemann(g: GeometryBlock, a, b, c, d) -> np.ndarray:
    """Frame curvature entries R4f[p,a,b,c,d] = <R(e_a, e_b) e_c, e_d> at
    each point p.

    ``a, b, c, d`` are index arrays of one number of dimensions (broadcast
    together); the result is the point axis followed by their broadcast
    shape.  Each entry is the sum over
    (i, j, k, w) in C order of ((((E[a,i] E[b,j]) E[c,k]) E[d,w]) Rm[i,j,k,w]),
    added one term at a time along the last axis, with a final ``+ 0.0`` so
    that it is never -0.0.  This order is part of the report-byte contract:
    another one moves the last bits of the reported scalar curvature.
    """
    E = g.frame_coeff
    Rm = _coord_riemann(g)
    Rm = Rm.reshape(Rm.shape[:1] + (1,) * np.ndim(a) + Rm.shape[1:])
    t = (E[:, a][..., :, None, None, None] * E[:, b][..., None, :, None, None]
         * E[:, c][..., None, None, :, None] * E[:, d][..., None, None, None, :] * Rm)
    t = t.reshape(t.shape[:-4] + (-1,))
    return np.add.accumulate(t, axis=-1)[..., -1] + 0.0


def scalar_curvature(geom: GeometryBlock) -> np.ndarray:
    """Scalar curvature at each point of a block, from the m^2 frame
    entries R4f[c,a,a,c] only; a failed point's value means nothing.

    Bit-identical to ``intrinsic_curvature(geom).scalar``: the Ricci
    diagonal is summed over c from zero, then its trace is taken.
    """
    i = np.arange(geom.m)
    R = _frame_riemann(geom, i[:, None], i[None], i[None], i[:, None])   # [p, c, a]
    ricci_diag = np.zeros((len(geom), geom.m))
    for c in range(geom.m):
        ricci_diag += R[:, c]
    return ricci_diag.sum(axis=-1)


def intrinsic_curvature(geom: GeometryBlock) -> IntrinsicCurvature:
    """Riemann, Ricci, scalar and sectional curvature in the tangent frame at
    each point of a block, each with a leading point axis; a failed point's
    values mean nothing."""
    R4f = _frame_riemann(geom, *np.indices((geom.m,) * 4))
    riemann = R4f.transpose(0, 1, 2, 4, 3)                         # R[p,a,b,a,b] = K_ab
    ricci = np.einsum("pcabc->pab", R4f)
    sectional = np.einsum("pabba->pab", R4f).copy()
    sectional[:, np.arange(geom.m), np.arange(geom.m)] = 0.0
    return IntrinsicCurvature(riemann=riemann, ricci=ricci,
                              scalar=np.trace(ricci, axis1=1, axis2=2), sectional=sectional)
