"""Dense truncated Taylor-jet arithmetic in up to six variables.

A jet stores the normalized partial derivatives (d^a f)/a! of a scalar
function at a point, for every multi-index a with |a| <= 4.  Order 4 is the
deepest derivative the geometry pipeline takes: a Laplacian applied to a
quantity that is itself built from second derivatives of the chart map.

Coefficients live in a dense float64 vector over the graded lexicographic
monomial basis: ascending total degree, and within one degree descending
lexicographic exponent order, so for two variables the order is
(0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...  The kernels sum pair
products in this order, so changing it would move result bits.

Storing d^a f / a! instead of raw partials keeps the composition formulas
free of factorial blow-up: multiplication is plain coefficient convolution.

A jet is a plain float64 array whose last axis holds its coefficients;
leading axes stack jets (ambient components, tensor indices, the sample
points of a block; a lone point is a block of one), and a constant is a
one-row jet that broadcasts against them.  An order-k jet stores
C(m+k, m) coefficients (``JetSpace.sizes[k]``), its graded prefix: the
basis ascends in degree, so the prefix is exactly the degree <= k part, and
``JetSpace.cut`` trims a deeper jet to it as a view.  The ``JetSpace``
kernels and ``elementary`` take the truncation order as an argument and
return an order-``order`` jet; ``mul`` and ``dot`` read only the first
``sizes[order]`` coefficients of their operands, and ``deriv`` of an
order-k jet is an order k - 1 jet.  Each returned coefficient is the one a
full order-4 call computes, bit for bit.  Every leading row is computed
independently, and ``elementary`` takes the series of each row separately,
so every point of a block gets the bits it would get alone.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

ORDER = 4
MAX_VARS = 6


class JetError(ValueError):
    """Invalid jet construction or arithmetic."""


class JetDomainError(JetError):
    """An elementary function was applied outside its domain at degree 0."""

    def __init__(self, fn: str, value: float):
        self.fn = fn
        self.value = value
        super().__init__(f"{fn} applied to jet with degree-0 value {value!r}")


def fail(errors: list, bad, error) -> None:
    """Set ``errors[p] = error(p)`` at each row p that ``bad`` flags and that
    has no error yet, so a point keeps the first check it fails."""
    for p in np.flatnonzero(bad):
        if errors[p] is None:
            errors[p] = error(p)


# mul gathers its two operands into these workspaces, shared by every
# JetSpace (the package runs on one thread) and grown to the largest gather
# so far.  With fresh gathers per call the C heap could shrink and regrow
# between calls, and whether a verify round re-faulted megabytes of pages
# then depended on the heap's layout.  float64, like every jet.
_WORK = [np.empty(0), np.empty(0)]


def _workspace(slot: int, shape: tuple) -> np.ndarray:
    if _WORK[slot].size < math.prod(shape):
        _WORK[slot] = np.empty(math.prod(shape))
    return _WORK[slot][:math.prod(shape)].reshape(shape)


def _pairwise_sum(w: np.ndarray) -> np.ndarray:
    """Sum ``w`` over axis 0 in place, in the order numpy's pairwise
    summation takes over a run of up to 128 entries: the sum lands in
    ``w[0]``, which is returned, and the other slices are overwritten.
    Below 8 entries the order is left to right; from 8 on, eight interleaved
    accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    entries past the last multiple of 8.  (``dot`` contracts at most
    n + 1 = 9 entries; numpy splits a run longer than 128 in halves.)"""
    n = len(w)
    total, rest = w[0], w[1:]
    if n >= 8:
        r = w[:8]
        for i in range(8, n - n % 8, 8):
            r += w[i:i + 8]
        r[0::2] += r[1::2]
        r[0::4] += r[2::4]
        total += r[4]
        rest = w[n - n % 8:]
    for x in rest:
        total += x
    return total


@lru_cache(maxsize=None)
def space(num_vars: int) -> "JetSpace":
    return JetSpace(num_vars)


class JetSpace:
    """Shared tables for all jets in a fixed number of variables.

    Holds the monomial enumeration, the sparse multiplication tables (one per
    truncation order, built lazily) and the differentiation index maps.
    ``sizes[k]`` = C(m+k, m) is the number of coefficients an order-k jet
    stores, and ``cut(x, k)`` is the view of the jets ``x`` trimmed to order
    k; ``zeros`` and ``constant`` build jets of a given order, and ``mul``,
    ``dot``, ``compose`` and ``elementary`` return jets of their ``order``.
    Every table index of order k is below ``sizes[k]``, so ``mul`` and
    ``dot`` read the same coefficients of an operand of any deeper order.

    All of them are read off one integer array, ``exponents`` (L, m).  A
    monomial's code is its exponents as base-(ORDER + 1) digits, u1's
    highest, and ``_pos`` maps a code to its position.  The codes of two
    monomials whose degrees sum to at most ORDER add without a carry, to the
    code of their product, so ``mul_table`` caps its order at ORDER and
    looks each pair (i, j), in C order, up by that sum; ``deriv_table``
    subtracts u_var's unit code, and ``var_pos`` looks the unit codes up.

    The ndarray kernels accept stacked operands with arbitrary leading axes
    that broadcast against each other, so the geometry layer makes one call
    per tensor expression (over ambient components and tensor indices alike)
    instead of one per slice.  Every leading row is convolved independently
    and each output coefficient sums its pair products in table order, so a
    stacked call is bit-identical to the per-slice calls it replaces.

    ``mul`` gathers its operands' coefficients with ``np.take``, so its pair
    products come out C-contiguous and ``_scatter`` ravels them without a
    copy (``x[..., I]`` puts the pair axis outermost in memory); the ravel's
    C order, and so every sum, is the same either way.  ``dot`` pads its
    operands to one ndim, moves the contracted axis -2 to the front and
    gathers each with ``np.take`` into a fresh C-contiguous (c, ..., pairs)
    array, so each of the c product slices is contiguous.  It adds them in
    the order numpy's pairwise summation takes over an axis innermost in
    memory, the order of ``(a[..., I] * b[..., J]).sum(axis=-2)``: left to
    right below 8 entries, eight interleaved accumulators from 8 on
    (``_pairwise_sum``).  The two can differ only in the sign of an
    all-zero sum, as numpy's reductions start from -0.0 or +0.0, and the
    ``bincount`` in ``_scatter`` starts each coefficient at +0.0, which
    erases that sign, so the results have that reduction's bits.  That
    reduction sums sequentially when the c axis of a broadcast product is
    not innermost; ``dot`` gives the same bits whatever its operands'
    layout, as ``mul`` does.  The flattened scatter index is cached once per
    ``order``, grown to the most rows seen so far; a product with fewer rows
    reads its prefix, which holds the values its own index would, so the
    cache stays one array per order.
    """

    def __init__(self, num_vars: int):
        if not 1 <= num_vars <= MAX_VARS:
            raise JetError(f"num_vars must be in 1..{MAX_VARS}, got {num_vars}")
        self.num_vars = num_vars
        base = ORDER + 1
        # a code is its tuple's position in the full grid of exponents 0..ORDER
        self._unit = base ** np.arange(num_vars - 1, -1, -1)
        grid = np.indices((base,) * num_vars, dtype=np.int64).reshape(num_vars, -1).T
        degree = grid.sum(axis=1)
        code = np.flatnonzero(degree <= ORDER)
        self._code = code = code[np.lexsort((-code, degree[code]))]    # graded, descending lex
        self.exponents, self.degree, self.size = grid[code], degree[code], len(code)
        self.monomials: tuple[tuple[int, ...], ...] = tuple(map(tuple, self.exponents.tolist()))
        self.index = {a: i for i, a in enumerate(self.monomials)}
        self._pos = np.full(len(grid), -1, dtype=np.int64)
        self._pos[code] = np.arange(self.size)
        self.sizes = tuple(math.comb(num_vars + k, k) for k in range(ORDER + 1))
        # position of the degree-1 monomial e_i, i.e. where first partials sit
        self.var_pos = self._pos[self._unit]
        self._mul_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._deriv_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._deriv_gathers: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._scatter_index: dict[int, np.ndarray] = {}

    # -- tables ----------------------------------------------------------

    def mul_table(self, order: int):
        order = min(order, ORDER)
        tab = self._mul_tables.get(order)
        if tab is None:
            I, J = np.nonzero(self.degree[:, None] + self.degree <= order)
            tab = self._mul_tables[order] = (I, J, self._pos[self._code[I] + self._code[J]])
        return tab

    def deriv_table(self, var: int):
        tab = self._deriv_tables.get(var)
        if tab is None:
            e = self.exponents[:, var]
            src = np.flatnonzero(e)
            tab = self._deriv_tables[var] = (
                src, self._pos[self._code[src] - self._unit[var]], e[src].astype(np.float64))
        return tab

    # -- ndarray kernels (leading batch axes allowed) ---------------------

    def zeros(self, *lead: int, order: int = ORDER) -> np.ndarray:
        return np.zeros(lead + (self.sizes[order],))

    def constant(self, value, order: int = ORDER) -> np.ndarray:
        """The order-``order`` constant jet of ``value``: one row for one
        value, (P, sizes[order]) for an array of P values, one per row."""
        c = self.zeros(*np.shape(value), order=order)
        c[..., 0] = value
        return c

    def cut(self, x: np.ndarray, order: int) -> np.ndarray:
        """The jets ``x`` trimmed to order ``order``: a view of their first
        ``sizes[order]`` coefficients."""
        return x[..., :self.sizes[order]]

    def _scatter(self, w: np.ndarray, K: np.ndarray, order: int) -> np.ndarray:
        """Sum pair products ``w`` (..., pairs) into order-``order`` jets at
        the table's result positions ``K``, in ``w``'s C order; both kernels
        hand it a C-contiguous ``w``, which ravels as a view."""
        L = self.sizes[min(order, ORDER)]
        lead = w.shape[:-1]
        rows = math.prod(lead)
        pairs = rows * len(K)
        kk = self._scatter_index.get(order)
        if kk is None or len(kk) < pairs:
            kk = (K[None, :] + (np.arange(rows) * L)[:, None]).ravel()
            self._scatter_index[order] = kk
        out = np.bincount(kk[:pairs], weights=w.ravel(), minlength=rows * L)
        return out.reshape(lead + (L,))

    def mul(self, a: np.ndarray, b: np.ndarray, order: int = ORDER) -> np.ndarray:
        I, J, K = self.mul_table(order)
        # mode="clip" writes straight into out ("raise" buffers it); every
        # table index is in range, so the values are the same
        ta = np.take(a, I, axis=-1, out=_workspace(0, a.shape[:-1] + I.shape), mode="clip")
        tb = np.take(b, J, axis=-1, out=_workspace(1, b.shape[:-1] + J.shape), mode="clip")
        return self._scatter(ta * tb, K, order)

    def dot(self, a: np.ndarray, b: np.ndarray, order: int = ORDER) -> np.ndarray:
        """Sum_c a[c]*b[c] over axis -2, in one convolution pass."""
        I, J, K = self.mul_table(order)
        nd = max(a.ndim, b.ndim)
        c_first = (nd - 2, *range(nd - 2), nd - 1)
        # every table index is in range, so mode="clip" moves no value and
        # skips the checks "raise" makes on each index
        ta, tb = (np.take(x.reshape((1,) * (nd - x.ndim) + x.shape).transpose(c_first),
                          T, axis=-1, mode="clip") for x, T in ((a, I), (b, J)))
        return self._scatter(_pairwise_sum(ta * tb), K, order)

    def deriv(self, a: np.ndarray, var: int) -> np.ndarray:
        """d/du_var of the order-k jets ``a``: order k - 1 jets.  Taking u_var
        off a monomial keeps the graded order, so the table's sources of
        degree <= k give the result's coefficients in order, and ``deriv``
        gathers them (cached per (var, k)) and scales each by its exponent."""
        key = (var, a.shape[-1])
        tab = self._deriv_gathers.get(key)
        if tab is None:
            src, _, fac = self.deriv_table(var)
            keep = src < a.shape[-1]
            tab = self._deriv_gathers[key] = (src[keep], fac[keep])
        src, fac = tab
        out = np.take(a, src, axis=-1)
        out *= fac
        return out

    def compose(self, series, h: np.ndarray, order: int = ORDER) -> np.ndarray:
        """Evaluate sum_k series[k] * h^k by Horner; h must have zero value part.
        Each ``series[k]`` is a number or has h's leading axes (one per row).
        A term past degree ``order`` has no coefficient of degree <= order, so
        Horner starts at ``series[order]``: one ``mul`` per degree kept."""
        h = self.cut(h, order)
        out = self.zeros(*h.shape[:-1], order=order)
        out[..., 0] = series[order]
        for k in range(order - 1, -1, -1):
            out = self.mul(out, h, order)
            out[..., 0] += series[k]
        return out


def _series_coefficients(fn: str, c0: float):
    """Normalized derivative coefficients f^(k)(c0)/k! for k = 0..4; one
    beyond float range comes back as a signed infinity."""
    if fn in ("sin", "cos") and not math.isfinite(c0):
        return (math.nan,) * (ORDER + 1)    # math.sin(inf) raises ValueError
    if fn == "sin":
        s, c = math.sin(c0), math.cos(c0)
        return (s, c, -s / 2, -c / 6, s / 24)
    if fn == "cos":
        s, c = math.sin(c0), math.cos(c0)
        return (c, -s, -c / 2, s / 6, c / 24)
    if fn == "sqrt":
        if c0 <= 0.0:
            raise JetDomainError("sqrt", c0)
        r = math.sqrt(c0)
        try:
            d4 = 128.0 * c0 ** 3 * r
        except OverflowError:               # c0 > ~5.6e102: |c4| < 1e-350
            d4 = math.inf
        # a denominator that underflows to 0 (c0 below ~1e-92 for c4, ~1e-130
        # for c3, ~1e-216 for c2) means the coefficient is beyond float range
        return (r, 0.5 / r) + tuple(
            s / d if d else s * math.inf
            for s, d in ((-1.0, 8.0 * c0 * r), (1.0, 16.0 * c0 * c0 * r), (-5.0, d4))
        )
    if fn == "recip":
        if c0 == 0.0:
            raise JetDomainError("recip", c0)
        u = 1.0 / c0
        return (u, -u * u, _power(u, 3), -_power(u, 4), _power(u, 5))
    raise JetError(f"unknown elementary function {fn!r}")


def _power(u: float, k: int) -> float:
    """u ** k, or the signed infinity it overflows to (a float ``**`` raises)."""
    try:
        return u ** k
    except OverflowError:
        return math.copysign(math.inf, u) if k % 2 else math.inf


def seed_variable(index: int, value, num_vars: int) -> np.ndarray:
    """Jet of the coordinate function u_index at a point with u_index = value:
    ``JetSpace.constant(value)`` with a unit first partial in u_index, so an
    array of values (one per point of a block) gives a (P, L) jet."""
    sp = space(num_vars)
    if not 0 <= index < num_vars:
        raise JetError(f"variable index {index} out of range for {num_vars} vars")
    c = sp.constant(value)
    c[..., sp.var_pos[index]] = 1.0
    return c


# the series of sqrt and recip at one: sqrt(1 + x) = sum_k binom(1/2, k) x^k
# and 1 / (1 + x) = sum_k (-x)^k, for the rescaled rows in ``elementary``
_AT_ONE = {"sqrt": (1.0, 0.5, -0.125, 0.0625, -0.0390625),
           "recip": (1.0, -1.0, 1.0, -1.0, 1.0)}


def elementary(sp: JetSpace, fn: str, x: np.ndarray, order: int = ORDER,
               exponent: int | None = None) -> np.ndarray:
    """Apply an elementary function to the jets ``x`` by truncated Taylor
    composition: order-``order`` jets."""
    x = sp.cut(x, order)
    if fn == "neg":
        return -x
    if fn == "pow_int":
        if exponent is None:
            raise JetError("pow_int requires an exponent")
        p = int(exponent)
        if p < 0:
            return elementary(sp, "pow_int", elementary(sp, "recip", x, order),
                              order, -p)
        result = sp.constant(1.0, order)
        base = x
        while p > 0:
            if p & 1:
                result = sp.mul(result, base, order)
            p >>= 1
            if p:
                base = sp.mul(base, base, order)
        return result
    lead, size = x.shape[:-1], x.shape[-1]
    x = x.reshape(-1, size)
    c0 = x[:, 0]
    series = np.array([_series_coefficients(fn, v) for v in c0.tolist()]).T  # [k, row]
    h = x.copy()
    h[:, 0] = 0.0
    # a finite value whose higher coefficients are beyond float range (sqrt
    # or recip of a tiny value): an infinite coefficient times the zero value
    # part of h would make the whole row NaN, so such a row composes
    # f(c0) * f(1 + h / c0), with f's series at one, instead
    rows = np.isfinite(series[0]) & ~np.isfinite(series).all(axis=0)
    if rows.any():
        scale = series[0, rows, None]
        series[:, rows] = np.array(_AT_ONE[fn])[:, None]
        h[rows] /= c0[rows, None]
        out = sp.compose(series, h, order)
        out[rows] *= scale
    else:
        out = sp.compose(series, h, order)
    return out.reshape(lead + (size,))
