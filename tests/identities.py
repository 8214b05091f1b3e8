"""Identities that hold for every immersion, as residuals over the points
of a geometry block: independent checks of the jet pipeline, used by the
tests only; and the tests' ways to read a block (``rows_of``, ``take``,
``point_of``).

* Gauss equation for a hypersurface: ricci(X,Y) = (m-1)<X,Y>
  + <A(X),Y> trace A - <A(X), A(Y)>;
* Codazzi: <(grad A)(.,.),.> is totally symmetric, and its trace is
  m grad f.

No report reads the cubic form grad A, so the program does not compute it:
``nabla_A`` builds it here from the program's own jet stages.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from bitension import extrinsic
from bitension.extrinsic import GeometryError


def rows_of(spec, points) -> extrinsic.GeometryBlock:
    """``geometry_block(spec, points)``; raises the error of the first point
    that fails."""
    block = extrinsic.geometry_block(spec, points)
    for error in block.errors:
        if error is not None:
            raise error
    return block


def take(block: extrinsic.GeometryBlock, index) -> extrinsic.GeometryBlock:
    """The block of the points of ``index``: every field ``np.take`` along
    the point axis, and their errors."""
    return extrinsic.GeometryBlock(
        block.m, block.n, {k: np.take(getattr(block, k), index, axis=0)
                           for k in extrinsic.FIELDS if hasattr(block, k)},
        [block.errors[p] for p in index])


def point_of(block: extrinsic.GeometryBlock, p: int = 0):
    """Point p of a geometry block: its error, or a namespace of m, n,
    ``hypersurface`` and each of ``extrinsic.FIELDS`` as the row view
    ``v[p]`` of the block's field, a Python float for a scalar field (None
    where the block lacks it), on which the per-point references of the
    tests read one point's values."""
    if block.errors[p] is not None:
        return block.errors[p]
    values = {k: getattr(block, k)[p] if hasattr(block, k) else None for k in extrinsic.FIELDS}
    return SimpleNamespace(m=block.m, n=block.n, hypersurface=block.hypersurface, **{
        k: v.item() if isinstance(v, np.generic) else v for k, v in values.items()})


def points_of(block: extrinsic.GeometryBlock) -> list:
    """``point_of`` each point of a geometry block, in order."""
    return [point_of(block, p) for p in range(len(block))]


def gauss_ricci_check(g: extrinsic.GeometryBlock) -> np.ndarray:
    """Max |ricci - Gauss prediction| over the frame entries, per point."""
    if not g.hypersurface:
        raise GeometryError("gauss_ricci_check requires a hypersurface (n = m + 1)")
    ricci = extrinsic.intrinsic_curvature(g).ricci
    A = g.A
    trace = np.trace(A, axis1=1, axis2=2)[:, None, None]
    predicted = (g.m - 1) * np.eye(g.m) + A * trace - A @ A
    return np.abs(ricci - predicted).max(axis=(1, 2))


@np.errstate(all="ignore")
def nabla_A(spec, points) -> tuple[np.ndarray, np.ndarray]:
    """The cubic form <(grad A)(e_a, e_b), e_c> (P, m, m, m) and its trace
    (P, n+1), an ambient vector, at each point of a hypersurface chart, in
    the tangent frame and normal orientation of ``geometry_block(spec,
    points)``; raises the error of the first point that fails.

    grad A is the covariant derivative of the shape operator as a (1,1)-tensor
    field, A^k_j = g^kl <B_lj, eta>, whose jets to order 1 come from the
    tau2 stage's B and the hypersurface normal's jets.
    """
    if spec.n != spec.m + 1:
        raise GeometryError("nabla_A requires a hypersurface (n = m + 1)")
    m = spec.m
    stage = extrinsic._tau2_stage(spec, points)
    sp, Phi, dPhi, ginvJ, _, BJ, HJ, *_, phi_unit, errors, values = stage
    jac, g0, ginv0, Gam0 = (values[k] for k in ("jac", "metric", "metric_inv", "christoffel"))
    _, E, normal = extrinsic._block_frames(phi_unit, jac, ginv0, 1, errors)
    c_star = np.argmax(np.abs(normal[:, 0]), axis=-1)
    etaJ, _ = extrinsic._hypersurface_jets(sp, Phi, dPhi, ginvJ, HJ, c_star, errors)
    for error in errors:
        if error is not None:
            raise error

    B1, eta1, ginv1 = (sp.cut(x, 1) for x in (BJ, etaJ, ginvJ))
    p = sp.mul(B1, eta1[:, None, None], 1).sum(axis=-2)            # [p, l, j]
    T = sp.mul(ginv1[..., None, :], p[:, None], 1)                 # [p, k, l, j]
    AJ = sp.zeros(len(phi_unit), m, m, order=1)
    for l in range(m):
        AJ += T[:, :, l]
    # C order: the einsums below sum in a layout-dependent order
    nablaA = AJ[..., sp.var_pos].transpose(0, 1, 3, 2).copy()      # [p, k, i, j]
    nablaA += np.einsum("pkil,plj->pkij", Gam0, AJ[..., 0])
    nablaA -= np.einsum("plij,pkl->pkij", Gam0, AJ[..., 0])
    return (np.einsum("pai,pbj,pkij,pkw,pcw->pabc", E, E, nablaA, g0, E),
            np.einsum("pij,pkij,pkc->pc", ginv0, nablaA, jac))


def nabla_A_symmetry_check(g: extrinsic.GeometryBlock,
                           grad_A: tuple[np.ndarray, np.ndarray]
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Per point: the largest asymmetry of <(grad A)(.,.),.> under a
    permutation of its arguments, and ||trace(grad A) - m grad f||, where
    ``grad_A`` is ``nabla_A`` of the points whose rows ``g`` holds."""
    S, trace_nabla_A = grad_A
    sym = np.zeros(len(g))
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        T = S.transpose(0, *(1 + np.array(perm)))
        sym = np.maximum(sym, np.abs(S - T).max(axis=(1, 2, 3)))
    trace_res = np.linalg.norm(trace_nabla_A - g.m * g.grad_f, axis=-1)
    return sym, trace_res
