"""Dense truncated Taylor-jet arithmetic in up to six variables.

A jet stores the normalized partial derivatives (d^a f)/a! of a scalar
function at a point, for every multi-index a with |a| <= 4.  Order 4 is the
deepest derivative the geometry pipeline takes: a Laplacian applied to a
quantity that is itself built from second derivatives of the chart map.

Coefficients live in a dense float64 vector over the graded lexicographic
monomial basis: ascending total degree, and within one degree descending
lexicographic exponent order, so for two variables the order is
(0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...  This enumeration is part of
the debugging-dump format and must not change.

Storing d^a f / a! instead of raw partials keeps the composition formulas
free of factorial blow-up: multiplication is plain coefficient convolution.

Each jet also carries a validity ``order``: differentiating drops it by one
(the top-degree coefficients of a derivative would need order-5 data of the
source, which was truncated away), and arithmetic propagates the minimum.
Reading ``value`` or any coefficient of degree <= order is always exact.

A ``Jet`` may carry leading point axes, coefficients of shape (P, L): one
jet per sample point of a block, evaluated by the same calls.  Arithmetic
broadcasts a single jet (a constant) against a block, and ``elementary``
takes the series of each point separately, so every point of a block gets
the bits it would get alone.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

ORDER = 4
MAX_VARS = 6

ELEMENTARY_TAGS = ("sin", "cos", "sqrt", "exp", "pow_int", "neg", "recip")


class JetError(ValueError):
    """Invalid jet construction or arithmetic."""


class JetDomainError(JetError):
    """An elementary function was applied outside its domain at degree 0."""

    def __init__(self, fn: str, value: float):
        self.fn = fn
        self.value = value
        super().__init__(f"{fn} applied to jet with degree-0 value {value!r}")


@lru_cache(maxsize=None)
def space(num_vars: int) -> "JetSpace":
    return JetSpace(num_vars)


class JetSpace:
    """Shared tables for all jets in a fixed number of variables.

    Holds the monomial enumeration, the sparse multiplication tables (one per
    truncation order, built lazily) and the differentiation index maps.  The
    ndarray kernels accept stacked operands with arbitrary leading axes that
    broadcast against each other, so the geometry layer makes one call per
    tensor expression (over ambient components and tensor indices alike)
    instead of one per slice.  Every leading row is convolved independently
    and each output coefficient sums its pair products in table order, so a
    stacked call is bit-identical to the per-slice calls it replaces.  The
    flattened scatter index is cached once per ``order``, grown to the most
    rows seen so far; a product with fewer rows reads its prefix, which holds
    the values its own index would, so the cache stays one array per order.
    """

    def __init__(self, num_vars: int):
        if not 1 <= num_vars <= MAX_VARS:
            raise JetError(f"num_vars must be in 1..{MAX_VARS}, got {num_vars}")
        self.num_vars = num_vars
        self.order = ORDER
        monos = [
            a
            for a in itertools.product(range(ORDER + 1), repeat=num_vars)
            if sum(a) <= ORDER
        ]
        monos.sort(key=lambda a: (sum(a), tuple(-x for x in a)))
        self.monomials: tuple[tuple[int, ...], ...] = tuple(monos)
        self.size = len(monos)
        self.index = {a: i for i, a in enumerate(monos)}
        self.degree = np.array([sum(a) for a in monos], dtype=np.int64)
        # position of the degree-1 monomial e_i, i.e. where first partials sit
        self.var_pos = np.array(
            [self.index[tuple(int(j == i) for j in range(num_vars))]
             for i in range(num_vars)],
            dtype=np.int64,
        )
        self._mul_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._deriv_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._scatter_index: dict[int, np.ndarray] = {}

    # -- tables ----------------------------------------------------------

    def mul_table(self, order: int):
        order = min(order, ORDER)
        tab = self._mul_tables.get(order)
        if tab is None:
            I, J, K = [], [], []
            for i, a in enumerate(self.monomials):
                da = sum(a)
                if da > order:
                    continue
                for j, b in enumerate(self.monomials):
                    if da + sum(b) > order:
                        continue
                    I.append(i)
                    J.append(j)
                    K.append(self.index[tuple(x + y for x, y in zip(a, b))])
            tab = (
                np.array(I, dtype=np.int64),
                np.array(J, dtype=np.int64),
                np.array(K, dtype=np.int64),
            )
            self._mul_tables[order] = tab
        return tab

    def deriv_table(self, var: int):
        tab = self._deriv_tables.get(var)
        if tab is None:
            src, dst, fac = [], [], []
            for i, a in enumerate(self.monomials):
                if a[var] == 0:
                    continue
                b = tuple(x - int(j == var) for j, x in enumerate(a))
                src.append(i)
                dst.append(self.index[b])
                fac.append(a[var])
            tab = (
                np.array(src, dtype=np.int64),
                np.array(dst, dtype=np.int64),
                np.array(fac, dtype=np.float64),
            )
            self._deriv_tables[var] = tab
        return tab

    # -- ndarray kernels (leading batch axes allowed) ---------------------

    def zeros(self, *lead: int) -> np.ndarray:
        return np.zeros(lead + (self.size,))

    def constant(self, value: float) -> np.ndarray:
        c = np.zeros(self.size)
        c[0] = value
        return c

    def _scatter(self, w: np.ndarray, K: np.ndarray, order: int) -> np.ndarray:
        """Sum pair products ``w`` (..., pairs) into jet coefficients (..., L)
        at the table's result positions ``K``."""
        L = self.size
        if w.ndim == 1:
            return np.bincount(K, weights=w, minlength=L)
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
        return self._scatter(a[..., I] * b[..., J], K, order)

    def dot(self, a: np.ndarray, b: np.ndarray, order: int = ORDER) -> np.ndarray:
        """Sum_c a[c]*b[c] over axis -2, in one convolution pass."""
        I, J, K = self.mul_table(order)
        return self._scatter((a[..., I] * b[..., J]).sum(axis=-2), K, order)

    def deriv(self, a: np.ndarray, var: int) -> np.ndarray:
        src, dst, fac = self.deriv_table(var)
        out = np.zeros(a.shape)
        out[..., dst] = a[..., src] * fac
        return out

    def compose(self, series, h: np.ndarray, order: int = ORDER) -> np.ndarray:
        """Evaluate sum_k series[k] * h^k by Horner; h must have zero value part.
        Each ``series[k]`` is a number or has h's leading axes (one per row)."""
        out = self.zeros(*h.shape[:-1])
        out[..., 0] = series[ORDER]
        for k in range(ORDER - 1, -1, -1):
            out = self.mul(out, h, order)
            out[..., 0] += series[k]
        return out


def _series(fn: str, c0: float):
    """Normalized derivative coefficients f^(k)(c0)/k! for k = 0..4.

    Coefficients that overflow a float (``exp`` of a large value, a power of
    a huge or tiny one) come back as NaN instead of raising
    ``OverflowError``, just as jet arithmetic gives inf/NaN on overflow.
    """
    try:
        return _series_coefficients(fn, c0)
    except OverflowError:
        return (math.nan,) * (ORDER + 1)


def _series_coefficients(fn: str, c0: float):
    if fn in ("sin", "cos") and not math.isfinite(c0):
        return (math.nan,) * (ORDER + 1)    # math.sin(inf) raises ValueError
    if fn == "sin":
        s, c = math.sin(c0), math.cos(c0)
        return (s, c, -s / 2, -c / 6, s / 24)
    if fn == "cos":
        s, c = math.sin(c0), math.cos(c0)
        return (c, -s, -c / 2, s / 6, c / 24)
    if fn == "exp":
        e = math.exp(c0)
        return (e, e, e / 2, e / 6, e / 24)
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
        return (u, -u * u, u ** 3, -u ** 4, u ** 5)
    raise JetError(f"unknown elementary function {fn!r}")


class Jet:
    """Immutable order-4 truncated Taylor expansion of a scalar."""

    __slots__ = ("space", "coeffs", "order")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, order: int = ORDER):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        if self.coeffs.shape[-1:] != (space.size,):
            raise JetError(
                f"expected {space.size} coefficients, got {self.coeffs.shape}"
            )
        self.order = order

    # -- construction ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, num_vars: int) -> "Jet":
        sp = space(num_vars)
        return cls(sp, sp.constant(float(value)))

    # -- access ------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.space.num_vars

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def coeff(self, alpha) -> float:
        alpha = tuple(int(x) for x in alpha)
        if alpha not in self.space.index:
            raise JetError(f"multi-index {alpha} out of range")
        return float(self.coeffs[self.space.index[alpha]])

    def gradient(self) -> np.ndarray:
        """First partials (exact; degree-1 normalized coefficients)."""
        return self.coeffs[self.space.var_pos].copy()

    def to_dict(self) -> dict:
        """Coefficients keyed by multi-index, in graded-lex enumeration order."""
        return {a: float(c) for a, c in zip(self.space.monomials, self.coeffs)}

    def __repr__(self) -> str:
        return f"Jet(num_vars={self.num_vars}, value={self.value!r})"

    # -- ring arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise JetError("jets from different spaces")
            return other
        if isinstance(other, (int, float)):
            return Jet(self.space, self.space.constant(float(other)))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.space, self.coeffs + o.coeffs, min(self.order, o.order))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.space, self.coeffs - o.coeffs, min(self.order, o.order))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.space, o.coeffs - self.coeffs, min(self.order, o.order))

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.space, self.coeffs * float(other), self.order)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        return Jet(self.space, self.space.mul(self.coeffs, o.coeffs, order), order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.space, self.coeffs / float(other), self.order)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * elementary("recip", o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * elementary("recip", self)

    def __pow__(self, p):
        if not isinstance(p, int):
            return NotImplemented
        return elementary("pow_int", self, exponent=p)

    def derivative(self, var: int) -> "Jet":
        if not 0 <= var < self.num_vars:
            raise JetError(f"variable index {var} out of range")
        if self.order <= 0:
            raise JetError("cannot differentiate an order-0 jet")
        return Jet(self.space, self.space.deriv(self.coeffs, var), self.order - 1)


def seed_variable(index: int, value, num_vars: int) -> Jet:
    """Jet of the coordinate function u_index at a point with u_index = value;
    an array of values (one per point of a block) gives a (P, L) jet."""
    sp = space(num_vars)
    if not 0 <= index < num_vars:
        raise JetError(f"variable index {index} out of range for {num_vars} vars")
    c = sp.zeros(*np.shape(value))
    c[..., 0] = value
    c[..., sp.var_pos[index]] = 1.0
    return Jet(sp, c)


def variables(point, num_vars: int | None = None) -> list[Jet]:
    """Seed one jet per coordinate of ``point``."""
    point = np.asarray(point, dtype=np.float64)
    if num_vars is None:
        num_vars = point.shape[0]
    return [seed_variable(i, point[i], num_vars) for i in range(num_vars)]


def elementary(fn: str, x: Jet, exponent: int | None = None) -> Jet:
    """Apply an elementary function to a jet by truncated Taylor composition."""
    if fn == "neg":
        return -x
    if fn == "pow_int":
        if exponent is None:
            raise JetError("pow_int requires an exponent")
        p = int(exponent)
        if p < 0:
            return elementary("pow_int", elementary("recip", x), exponent=-p)
        result = Jet(x.space, x.space.constant(1.0), x.order)
        base = x
        while p > 0:
            if p & 1:
                result = result * base
            p >>= 1
            if p:
                base = base * base
        return result
    values = x.coeffs[..., 0]
    series = np.array([_series(fn, c0) for c0 in values.ravel().tolist()])
    series = series.T.reshape((ORDER + 1,) + values.shape)       # [k, ...]
    h = x.coeffs.copy()
    h[..., 0] = 0.0
    return Jet(x.space, x.space.compose(series, h, x.order), x.order)
