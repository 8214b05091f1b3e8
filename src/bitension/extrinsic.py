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
to the Taylor degree its readers use (the orders are literals at the call
sites):

    stage                          order  its readers
    dPhi, gJ                       3      d g for Christoffel (2), d2 for B (2)
    ginvJ (``_jet_mat_inv``)       2      Christoffel (2), H (2), eta (2), U (1)
    GamJ                           2      B (2), christoffel_grad (degree 1)
    BJ                             2      H (2), A (1)
    HJ                             2      f (2), dH, H2J and hdp (1)
    NJ, nn, eta                    2      f (2), A (1)
    fJ                             2      grad f (1), Delta f (2)
    AJ                             1      nabla_A (degree <= 1)
    H2J                            1      grad_H2 (degree <= 1)
    hdp, WJ, UJ                    1      Delta H, Delta-perp H (degree <= 1)

Jets of B and H to order 2 support the two extra covariant derivatives
needed for Delta H, Delta-perp H and Delta f.  Trimming a stage keeps every
coefficient it returns of degree <= its order bit-identical to a deeper run
(and leaves the higher ones zero): the order-k multiplication table is the
order-4 table filtered in the same (i, j) order, and ``np.bincount`` adds
each coefficient's pair products in table order.

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
arithmetic in vector mode).  Each point's ``PointGeometry`` stays
bit-identical to that of its one-point block, because every value
step is the numpy primitive a lone point would call, on the same strided
views: an ``einsum`` gains a ``p`` index, ``np.dot`` of two jet rows becomes
a stacked ``@`` (``_dot``; a contiguous copy would sum in another order) and
``np.sum`` a per-row sum.  The pivoted Gram-Schmidt frames run over the
point axis too, each point with its own pivots (``_block_frames``), and the
finiteness of every field is checked once per block.  Only the two full
reductions of Delta f stay per point: their ``einsum`` with a point axis
sums in another order (it moved the last bit of 12 of 640 probed values).
``block_size`` fixes P from m alone: 32 for m <= 3, where a point's cost is
mostly per-call dispatch, and 1 for m >= 4, where the kernels' own
arithmetic takes over.  On a 2-core Xeon VM, before the order trim above,
one block of 8 cost 0.30-0.47 of eight one-point calls at m = 2, 3.  At
m <= 3, blocks of 32 instead of 8 (and the block frames) took 64-sample
verify calls from 920 to 1550 samples/s at a peak of 55 MB instead of 50
(16 points: 51 MB, 64: 63 MB).  With the trim, on the same VM (small
hypersphere, best of three, a noisy host), one block of 8 ran 2.5x the rate
of eight one-point calls at m = 4, 1.0-2.2x at m = 5 and 0.8x at m = 6, and
raised the peak memory above the interpreter's from 2 to 8 MB at m = 4, 4 to
24 MB at m = 5 and 9 to 65 MB at m = 6 (stacked temporaries grow with P).
P stays 1 at m >= 4 until a benchmark workload at m = 4, and repeated runs
at m = 5, show that gain end to end.  A block raises on the first failed
check of any point; ``sample_geometries`` then evaluates that block (up to
32 points) again point by point, so every failure carries its own point's
message.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields

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
    """(..., m, m, L) jet-ring matrix product over any leading point axes."""
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
    X = sp.zeros(*gJ.shape[:-1])
    X[..., 0] = g0inv
    eye2 = 2.0 * np.eye(m)
    for _ in range(3):
        T = -_jet_matmul(sp, gJ, X, order)
        T[..., 0] += eye2
        X = _jet_matmul(sp, X, T, order)
    return X


def _mgs(rows: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on the rows, largest remaining row first (one
    point; ``_block_frames`` is the same over a point axis)."""
    V = rows.astype(np.float64).copy()
    frame = []
    remaining = list(range(V.shape[0]))
    while remaining:
        norms = [np.linalg.norm(V[i]) for i in remaining]
        pick = int(np.argmax(norms))
        if norms[pick] < 1e-13:
            break
        i = remaining.pop(pick)
        e = V[i] / np.linalg.norm(V[i])
        frame.append(e)
        for j in remaining:
            V[j] = V[j] - np.dot(V[j], e) * e
    return np.array(frame)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointGeometry:
    """All extrinsic data of one chart at one sample point.

    Immutable value: every field is computed once by ``geometry_block``,
    its only constructor, and is finite: ``geometry_block`` checks each
    field over its block and raises ``GeometryError`` naming the first
    non-finite one in field order.
    """

    point: np.ndarray
    m: int
    n: int
    phi: np.ndarray                 # (n+1,)
    jac: np.ndarray                 # (m, n+1) rows dphi_i
    metric: np.ndarray              # (m, m)
    metric_inv: np.ndarray
    christoffel: np.ndarray         # (m, m, m): [k, i, j] = Gamma^k_ij
    christoffel_grad: np.ndarray    # (m, m, m, m): [a, k, i, j] = d_a Gamma^k_ij
    tangent_frame: np.ndarray       # (m, n+1) orthonormal rows
    frame_coeff: np.ndarray         # (m, m): e_a = sum_i frame_coeff[a, i] dphi_i
    normal_frame: np.ndarray        # (n - m, n+1) orthonormal rows
    B_coord: np.ndarray             # (m, m, n+1) ambient-valued B(d_i, d_j)
    B_frame: np.ndarray             # (n - m, m, m) <B(e_a, e_b), xi_x>, read-only
    A_H: np.ndarray                 # (m, m) <B(e_a, e_b), H>
    H: np.ndarray                   # (n+1,)
    H_norm: float
    H2: float
    B2: float
    AH2: float
    delta_H: np.ndarray             # (n+1,)
    delta_perp_H: np.ndarray        # (n+1,)
    nabla_perp_H: np.ndarray        # (m, n+1): P_N(d_j H)
    nabla_perp_H_norm: float
    grad_H2: np.ndarray             # (n+1,)
    trace_B_AH: np.ndarray          # (n+1,)
    trace_A_nablaH: np.ndarray      # (n+1,)
    # hypersurface-only fields (None when codimension > 1)
    f: float | None = None
    eta: np.ndarray | None = None   # normal_frame[0]
    A: np.ndarray | None = None     # (m, m) shape operator, B_frame[0]
    A2: float | None = None
    grad_f: np.ndarray | None = None          # (n+1,)
    delta_f: float | None = None
    nabla_A: np.ndarray | None = None         # (m, m, m): <(grad A)(e_a,e_b), e_c>
    trace_nabla_A: np.ndarray | None = None   # (n+1,) ambient vector

    @property
    def codim(self) -> int:
        return self.n - self.m

    @property
    def hypersurface(self) -> bool:
        return self.codim == 1


@dataclass
class IntrinsicCurvature:
    riemann: np.ndarray    # (m, m, m, m), R[i,j,i,j] = K(e_i, e_j)
    ricci: np.ndarray      # (m, m)
    scalar: float
    sectional: np.ndarray  # (m, m), zero diagonal


# ---------------------------------------------------------------------------
# main computation
# ---------------------------------------------------------------------------


def _project_normal_jets(sp: jets.JetSpace, Phi: np.ndarray, dPhi: np.ndarray,
                         ginvJ: np.ndarray, V: np.ndarray, order: int) -> np.ndarray:
    """Jets of the normal-bundle projection of the ambient field(s) V:
    V - <V, phi> phi - g^kl <V, dphi_k> dphi_l.

    Phi (P, n+1, L), dPhi (P, m, n+1, L) and ginvJ (P, m, m, L) share the
    point axis; V is (P, F.., n+1, L) with any field axes F.. after it, and
    so is the result."""
    lift = (1,) * (V.ndim - Phi.ndim)               # unit field axes after the point axis
    Phi, dPhi, ginvJ = (x.reshape(x.shape[:1] + lift + x.shape[1:])
                        for x in (Phi, dPhi, ginvJ))
    m = dPhi.shape[-3]
    out = V - sp.mul(sp.dot(V, Phi, order)[..., None, :], Phi, order)
    c = sp.dot(V[..., None, :, :], dPhi, order)                    # [..., k]
    gc = sp.mul(ginvJ, c[..., :, None, :], order)                  # [..., k, l]
    T = sp.mul(gc[..., None, :], dPhi[..., None, :, :, :], order)  # [..., k, l, c]
    for k in range(m):
        for l in range(m):
            out = out - T[..., k, l, :, :]
    return out


def block_size(m: int) -> int:
    """Sample points per ``geometry_block`` call for an m-dimensional chart
    (the rule and its measurements are in the module docstring)."""
    return 32 if m <= 3 else 1


def sample_geometries(spec: chart_mod.ChartSpec, points) -> Iterator[PointGeometry | ValueError]:
    """Yield the geometry at each point, in order: a ``PointGeometry``, or
    the ``GeometryError``/``ChartError`` that point fails with.

    The points are walked in blocks of ``block_size(spec.m)``.  A block that
    raises is evaluated again one point at a time, so each failure carries
    its own point's message, exactly as a lone ``compute_geometry`` call.
    Points are evaluated as the caller asks for them, so a caller that stops
    at the first failure leaves the later blocks unevaluated.
    """
    size = block_size(spec.m)
    for start in range(0, len(points), size):
        block = points[start:start + size]
        if len(block) > 1:
            try:
                geoms = geometry_block(spec, block)
            except (GeometryError, chart_mod.ChartError):
                pass                        # re-run point by point below
            else:
                yield from geoms
                continue
        for point in block:
            try:
                geom = compute_geometry(spec, point)
            except (GeometryError, chart_mod.ChartError) as e:
                geom = e
            yield geom


def compute_geometry(spec: chart_mod.ChartSpec, point) -> PointGeometry:
    """Full extrinsic package at one point (m,): ``geometry_block`` of the
    one-point block.  Floating-point overflow does not warn: a sample whose
    jets or outputs are not finite raises ``GeometryError``.
    """
    return geometry_block(spec, [point])[0]


@np.errstate(all="ignore")
def geometry_block(spec: chart_mod.ChartSpec, points) -> list[PointGeometry]:
    """Full extrinsic package at each point of a (P, m) block.

    Every jet stage is one kernel call, and every value-level field one
    array operation, over the whole block; only the Delta f reductions and
    the ``PointGeometry`` construction run per point.  Raises on the first
    failed check of any point, so a caller that needs per-point outcomes
    re-runs a failed block point by point (``sample_geometries``).
    """
    points = np.asarray(points, dtype=np.float64)
    Phi, sp = chart_mod.eval_jet_stack(spec, points)               # (P, n+1, L)
    if not np.all(np.isfinite(Phi)):
        raise GeometryError("non-finite chart jets")
    m, n = spec.m, spec.n
    P = len(points)

    phi0 = Phi[..., 0]
    rows = np.ascontiguousarray(phi0)       # np.linalg.norm's sum: np.dot of a contiguous row
    norm = np.sqrt(_dot(rows, rows))
    off_sphere = np.abs(norm - 1.0) > 1e-8
    if off_sphere.any():
        raise GeometryError(
            f"chart does not land on the unit sphere (|phi| = {norm[np.argmax(off_sphere)]:.6g})"
        )

    dPhi = np.stack([sp.deriv(Phi, i) for i in range(m)], axis=1)  # order 3, as gJ
    jac = dPhi[..., 0]

    iu, ju = np.triu_indices(m)                                    # pairs i <= j
    gJ = sp.zeros(P, m, m)                                         # order 3: dgJ at 2
    gJ[:, iu, ju] = gJ[:, ju, iu] = sp.dot(dPhi[:, iu], dPhi[:, ju], 3)
    g0 = gJ[..., 0]

    eig = np.linalg.eigvalsh(g0)[:, [0, -1]]
    rank_deficient = eig[:, 0] <= RANK_TOL * eig[:, 1]
    if rank_deficient.any():
        lo, hi = eig[np.argmax(rank_deficient)]
        raise GeometryError(
            f"rank-deficient differential (metric eigenvalues {lo:.3e}..{hi:.3e})"
        )
    cho = np.linalg.cholesky(g0)
    g0inv = np.linalg.inv(cho.swapaxes(-1, -2)) @ np.linalg.inv(cho)
    ginvJ = _jet_mat_inv(sp, gJ, g0inv, 2)
    ginv0 = ginvJ[..., 0]

    # Christoffel symbols Gamma^k_ij, jets to order 2
    dgJ = np.stack([sp.deriv(gJ, a) for a in range(m)], axis=1)   # dg[p, a, b, c]
    C = ((dgJ[:, iu, :, ju] + dgJ[:, ju, :, iu]).swapaxes(0, 1)
         - dgJ[:, :, iu, ju].swapaxes(1, 2))                       # [p, pair, l]
    GamJ = sp.zeros(P, m, m, m)
    GamJ[:, :, iu, ju] = GamJ[:, :, ju, iu] = 0.5 * sp.dot(ginvJ[:, :, None], C[:, None], 2)
    Gam0 = GamJ[..., 0]
    # d_a Gamma^k_ij, C order per point like every other field
    dGam0 = np.ascontiguousarray(np.moveaxis(GamJ[..., sp.var_pos], -1, 1))

    # second fundamental form, ambient-valued, jets to order 2
    d2 = np.stack([sp.deriv(dPhi, j) for j in range(m)], axis=1)  # [p, j, i]
    val = d2[:, ju, iu] + sp.mul(gJ[:, iu, ju, None], Phi[:, None], 2)
    T = sp.mul(GamJ[:, :, iu, ju, None], dPhi[:, :, None], 2)      # [p, k, pair]
    for k in range(m):
        val = val - T[:, k]
    BJ = sp.zeros(P, m, m, n + 1)
    BJ[:, iu, ju] = BJ[:, ju, iu] = val
    B0 = BJ[..., 0]

    T = sp.mul(ginvJ[..., None, :], BJ, 2)
    HJ = sp.zeros(P, n + 1)                                        # order 2
    for i in range(m):
        for j in range(m):
            HJ += T[:, i, j]
    HJ /= m
    H0 = HJ[..., 0]
    H2J = sp.mul(HJ, HJ, 1).sum(axis=-2)

    # covariant derivatives of H in the pull-back bundle: W_j = nabla_j H,
    # and its normal part U_j = P_N(d_j H)
    dHJ = np.stack([sp.deriv(HJ, j) for j in range(m)], axis=1)   # order 1
    hdp = sp.dot(HJ[:, None], dPhi, 1)                             # <H, dphi_j>
    WJ = dHJ + sp.mul(hdp[..., None, :], Phi[:, None], 1)
    W0 = WJ[..., 0]
    UJ = _project_normal_jets(sp, Phi, dPhi, ginvJ, dHJ, 1)        # order 1
    U0 = UJ[..., 0]

    # value stage: each field once over the point axis, with the numpy
    # primitive a lone point uses, on the same strided views (module docstring)
    codim = n - m
    tangent, E, normal = _block_frames(rows / norm[:, None], jac, ginv0, codim)
    d1 = slice(sp.var_pos[0], sp.var_pos[-1] + 1)  # first partials, adjacent in graded order

    def lap(dd, V):
        """-g^ij dd_ij + g^ij Gamma^k_ij V_k"""
        return (-np.einsum("pij,pijc->pc", ginv0, dd)
                + np.einsum("pij,pkij,pkc->pc", ginv0, Gam0, V))

    # second derivatives [p, i, j, c], in C order like a lone point's (the
    # einsums in ``lap`` sum in a layout-dependent order): the rough
    # Laplacian's nabla_i W_j = d_i W_j + <W_j, dphi_i> phi, and the normal
    # one's P_N(d_i U_j)
    phi, J = phi0[:, None, None], jac[:, None, None]
    dW, dU = (np.moveaxis(X[..., d1], -1, 1) for X in (WJ, UJ))
    ddH = np.ascontiguousarray(dW + _dot(W0[:, None], jac[:, :, None])[..., None] * phi)
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
        etaJ, fJ, AJ = _hypersurface_jets(sp, Phi, dPhi, ginvJ, HJ, BJ, c_star)
        normal = etaJ[:, None, :, 0].copy()
        B_frame = np.einsum("pai,pbj,pijc,pxc->pxab", E, E, B0, normal)
    B_frame.setflags(write=False)
    hyper: dict = {}
    if codim == 1:
        # f, grad f, Delta f and the cubic form grad A, from the jets of f
        # and A^k_j; C order: the einsums below sum in a layout-dependent order
        hess = np.stack([sp.deriv(fJ, i)[:, sp.var_pos] for i in range(m)], axis=1).copy()
        df = fJ[:, sp.var_pos]
        nablaA = AJ[..., sp.var_pos].transpose(0, 1, 3, 2).copy()  # [p, k, i, j]
        nablaA += np.einsum("pkil,plj->pkij", Gam0, AJ[..., 0])
        nablaA -= np.einsum("plij,pkl->pkij", Gam0, AJ[..., 0])
        hyper = dict(
            f=fJ[:, 0].tolist(), eta=normal[:, 0], A=B_frame[:, 0],
            A2=_sumsq(B_frame[:, 0]).tolist(),
            grad_f=((ginv0 @ df[..., None]).swapaxes(-1, -2) @ jac)[:, 0],
            # full reductions: with a point axis they sum in another order
            delta_f=[float(-np.einsum("ij,ij->", ginv0[p], hess[p])
                           + np.einsum("ij,kij,k->", ginv0[p], Gam0[p], df[p]))
                     for p in range(P)],
            nabla_A=np.einsum("pai,pbj,pkij,pkw,pcw->pabc", E, E, nablaA, g0, E),
            trace_nabla_A=np.einsum("pij,pkij,pkc->pc", ginv0, nablaA, jac),
        )
    A_H = np.einsum("pai,pbj,pijc,pc->pab", E, E, B0, H0)

    H2 = H2J[:, 0].tolist()
    perp2 = np.einsum("pij,pic,pjc->p", ginv0, U0, U0).tolist()
    block = dict(
        point=points, phi=phi0, jac=jac, metric=g0, metric_inv=ginv0, christoffel=Gam0,
        christoffel_grad=dGam0, tangent_frame=tangent, frame_coeff=E,
        normal_frame=normal, B_coord=B0, B_frame=B_frame, A_H=A_H, H=H0,
        H_norm=[math.sqrt(max(x, 0.0)) for x in H2], H2=H2, B2=B2.tolist(),
        AH2=_sumsq(A_H).tolist(), delta_H=lap(ddH, W0), delta_perp_H=lap(ddU, U0), nabla_perp_H=U0,
        nabla_perp_H_norm=[math.sqrt(max(x, 0.0)) for x in perp2],
        grad_H2=np.einsum("pij,pi,pjc->pc", ginv0, H2J[:, sp.var_pos], jac),
        trace_B_AH=np.einsum("pij,pkl,pil,pjkc->pc", ginv0, ginv0, BH, B0),
        trace_A_nablaH=np.einsum("pij,pkl,pjlc,pic,pkd->pd", ginv0, ginv0, B0, U0, jac),
        **hyper,
    )
    for f in fields(PointGeometry):     # the first non-finite field, in field order
        v = block.get(f.name)
        if v is not None and not np.isfinite(v).all():
            raise GeometryError(f"non-finite {f.name} at the sample point")
    return [PointGeometry(m=m, n=n, **{k: v[p] for k, v in block.items()})
            for p in range(P)]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u, v> over the last axis, broadcast over the others: a stacked
    ``@`` sums in the same order as ``np.dot`` on each pair of rows."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _sumsq(X: np.ndarray) -> np.ndarray:
    """``np.sum(X[p] * X[p])`` for each point p of a (P, ...) block."""
    return (X * X).reshape(len(X), -1).sum(-1)


def _block_frames(phi_unit, jac, ginv0, codim):
    """Orthonormal tangent frames, their coefficients E (e_a = E[a,i] dphi_i)
    and value-level orthonormal normal frames of a (P, ...) block; raises if
    any point's frame degenerates.

    Each tangent frame is bit-identical to ``_mgs(jac[p])``: the rows are a
    contiguous copy, a row norm is ``sqrt(<v, v>)`` (``np.linalg.norm`` of a
    contiguous row), and each point's pivot is the ``argmax`` with its picked
    rows at -inf, so ties and NaN go to the lowest remaining index.
    """
    V = np.array(jac)
    P, m, n1 = V.shape
    at = np.arange(P)
    tangent = np.empty_like(V)
    picked = np.zeros((P, m), dtype=bool)
    for a in range(m):
        norms = np.sqrt(_dot(V, V))
        norms[picked] = -np.inf
        pick = np.argmax(norms, axis=-1)
        top = norms[at, pick]
        if np.any(top < 1e-13):
            raise GeometryError("tangent frame construction failed")
        e = tangent[:, a] = V[at, pick] / top[:, None]
        picked[at, pick] = True
        V -= _dot(V, e[:, None])[..., None] * e[:, None]
    E = (tangent @ jac.swapaxes(-1, -2)) @ ginv0

    span = np.concatenate([phi_unit[:, None], tangent], axis=1)
    eye = np.eye(n1)
    work = eye - span.swapaxes(-1, -2) @ (span @ eye)
    normal = np.empty((P, codim, n1))
    for x in range(codim):
        v = work[at, np.argmax(np.linalg.norm(work, axis=-1), axis=-1)]
        nv = np.sqrt(_dot(v, v))
        if np.any(nv < 1e-10):
            raise GeometryError("normal frame construction failed (degenerate complement)")
        e = normal[:, x] = v / nv[:, None]
        work = work - (work @ e[..., None]) * e[:, None]
    return tangent, E, normal


def _hypersurface_jets(sp, Phi, dPhi, ginvJ, HJ, BJ, c_star):
    """Jets of the hypersurface unit normal eta and f = <H, eta> (order 2),
    and of the shape operator as a (1,1)-tensor field A^k_j = g^kl <B_lj, eta>
    (order 1: ``nabla_A`` reads it at degree <= 1).

    At each point eta is the normalized normal projection of the constant
    direction e_{c_star[p]}.  It points along H where H does not vanish, so
    f is nonnegative and comparable across samples; the paper fixes no
    orientation, and every implemented check is covariant under negating eta
    (the test suite asserts this).
    """
    P, n1 = Phi.shape[:2]
    m = dPhi.shape[1]
    E_c = sp.zeros(P, n1)
    E_c[np.arange(P), c_star, 0] = 1.0
    NJ = _project_normal_jets(sp, Phi, dPhi, ginvJ, E_c, 2)
    nn = sp.mul(NJ, NJ, 2).sum(axis=-2)
    if np.any(nn[:, 0] < 1e-16):
        raise GeometryError("normal frame construction failed (degenerate complement)")
    scale = jets.elementary(sp, "recip", jets.elementary(sp, "sqrt", nn, 2), 2)
    etaJ = sp.mul(NJ, scale[:, None], 2)
    fJ = sp.mul(HJ, etaJ, 2).sum(axis=-2)                          # order 2
    flip = fJ[:, 0] < -1e-12
    etaJ = np.where(flip[:, None, None], -etaJ, etaJ)
    fJ = np.where(flip[:, None], -fJ, fJ)

    p = sp.mul(BJ, etaJ[:, None, None], 1).sum(axis=-2)            # [p, l, j]
    T = sp.mul(ginvJ[..., None, :], p[:, None], 1)                 # [p, k, l, j]
    AJ = sp.zeros(P, m, m)                                         # order 1
    for l in range(m):
        AJ += T[:, :, l]
    return etaJ, fJ, AJ


# ---------------------------------------------------------------------------
# intrinsic curvature and the identity checks
# ---------------------------------------------------------------------------


def _coord_riemann(geom: PointGeometry) -> np.ndarray:
    """Rm[i,j,k,w] = <R(d_i, d_j) d_k, d_w> from the Christoffel symbols."""
    Gam0 = geom.christoffel
    # R(d_i, d_j) d_k = opR[i,j,k,l] d_l, with
    # opR[i,j,k,l] = d_i Gamma^l_jk - d_j Gamma^l_ik
    #                + Gamma^s_jk Gamma^l_is - Gamma^s_ik Gamma^l_js
    dGam = geom.christoffel_grad.transpose(0, 2, 3, 1)            # [i, j, k, l]
    GG = np.einsum("sjk,lis->ijkl", Gam0, Gam0)
    opR = dGam - dGam.transpose(1, 0, 2, 3) + GG - GG.transpose(1, 0, 2, 3)
    return np.einsum("ijkl,lw->ijkw", opR, geom.metric)


def _frame_riemann(geom: PointGeometry, a, b, c, d) -> np.ndarray:
    """Frame curvature entries R4f[a,b,c,d] = <R(e_a, e_b) e_c, e_d>.

    ``a, b, c, d`` are index arrays (broadcast together); the result has
    their broadcast shape.  Each entry is the sum over (i, j, k, w) in C
    order of ((((E[a,i] E[b,j]) E[c,k]) E[d,w]) Rm[i,j,k,w]), added one term
    at a time, with a final ``+ 0.0`` so that it is never -0.0.  This order
    is part of the report-byte contract: another one moves the last bits of
    the reported scalar curvature.
    """
    E = geom.frame_coeff
    Rm = _coord_riemann(geom)
    t = (E[a][..., :, None, None, None] * E[b][..., None, :, None, None]
         * E[c][..., None, None, :, None] * E[d][..., None, None, None, :] * Rm)
    t = t.reshape(t.shape[:-4] + (-1,))
    return np.add.accumulate(t, axis=-1)[..., -1] + 0.0


def scalar_curvature(geom: PointGeometry) -> float:
    """Scalar curvature, from the m^2 frame entries R4f[c,a,a,c] only.

    Bit-identical to ``intrinsic_curvature(geom).scalar``: the Ricci
    diagonal is summed over c from zero, then its trace is taken.
    """
    i = np.arange(geom.m)
    ricci_diag = np.zeros(geom.m)
    for row in _frame_riemann(geom, i[:, None], i, i, i[:, None]):  # [c, a]
        ricci_diag += row
    return float(np.sum(ricci_diag))


def intrinsic_curvature(geom: PointGeometry) -> IntrinsicCurvature:
    """Riemann, Ricci, scalar and sectional curvature in the tangent frame."""
    R4f = _frame_riemann(geom, *np.indices((geom.m,) * 4))
    riemann = R4f.transpose(0, 1, 3, 2)                            # R[a,b,a,b] = K_ab
    ricci = np.einsum("cabc->ab", R4f)
    scalar = float(np.trace(ricci))
    sectional = np.einsum("abba->ab", R4f).copy()
    np.fill_diagonal(sectional, 0.0)
    return IntrinsicCurvature(riemann=riemann, ricci=ricci, scalar=scalar,
                              sectional=sectional)


def gauss_ricci_check(geom: PointGeometry) -> float:
    """Residual of the Gauss-equation Ricci identity for hypersurfaces:

    ricci(X,Y) = (m-1)<X,Y> + <A(X),Y> trace A - <A(X), A(Y)>.
    """
    if not geom.hypersurface:
        raise GeometryError("gauss_ricci_check requires a hypersurface (n = m + 1)")
    curv = intrinsic_curvature(geom)
    A = geom.A
    predicted = (
        (geom.m - 1) * np.eye(geom.m) + A * np.trace(A) - A @ A
    )
    return float(np.max(np.abs(curv.ricci - predicted)))


def nabla_A_symmetry_check(geom: PointGeometry) -> tuple[float, float]:
    """Total symmetry of <(grad A)(.,.),.> and trace(grad A) = m grad f."""
    if not geom.hypersurface:
        raise GeometryError("nabla_A_symmetry_check requires a hypersurface")
    S = geom.nabla_A
    sym = 0.0
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        sym = max(sym, float(np.max(np.abs(S - S.transpose(perm)))))
    trace_res = float(
        np.linalg.norm(geom.trace_nabla_A - geom.m * geom.grad_f)
    )
    return sym, trace_res
