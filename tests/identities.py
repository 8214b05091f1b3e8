"""Identities that hold for every immersion, as residuals over the ``rows``
of a geometry block: independent checks of the jet pipeline, used by the
tests only.

* Gauss equation for a hypersurface: ricci(X,Y) = (m-1)<X,Y>
  + <A(X),Y> trace A - <A(X), A(Y)>;
* Codazzi: <(grad A)(.,.),.> is totally symmetric, and its trace is
  m grad f.
"""

from __future__ import annotations

import numpy as np

from bitension import extrinsic
from bitension.extrinsic import GeometryError


def rows_of(spec, points) -> extrinsic.GeometryBlock:
    """The ``rows`` of every point of ``geometry_block(spec, points)``;
    raises the error of the first point that fails."""
    block = extrinsic.geometry_block(spec, points)
    for error in block.errors:
        if error is not None:
            raise error
    return block.rows(range(len(block)))


def gauss_ricci_check(g: extrinsic.GeometryBlock) -> np.ndarray:
    """Max |ricci - Gauss prediction| over the frame entries, per point."""
    if not g.hypersurface:
        raise GeometryError("gauss_ricci_check requires a hypersurface (n = m + 1)")
    ricci = extrinsic.intrinsic_curvature(g).ricci
    A = g.A
    trace = np.trace(A, axis1=1, axis2=2)[:, None, None]
    predicted = (g.m - 1) * np.eye(g.m) + A * trace - A @ A
    return np.abs(ricci - predicted).max(axis=(1, 2))


def nabla_A_symmetry_check(g: extrinsic.GeometryBlock) -> tuple[np.ndarray, np.ndarray]:
    """Per point: the largest asymmetry of <(grad A)(.,.),.> under a
    permutation of its arguments, and ||trace(grad A) - m grad f||."""
    if not g.hypersurface:
        raise GeometryError("nabla_A_symmetry_check requires a hypersurface")
    S = g.nabla_A
    sym = np.zeros(len(g))
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        T = S.transpose(0, *(1 + np.array(perm)))
        sym = np.maximum(sym, np.abs(S - T).max(axis=(1, 2, 3)))
    trace_res = np.linalg.norm(g.trace_nabla_A - g.m * g.grad_f, axis=-1)
    return sym, trace_res
