"""Jet arithmetic: seeded variables, elementary functions, ring axioms, and
chain-rule exactness against symbolic and finite-difference oracles."""

import itertools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bitension import expr, jets
from bitension.jets import JetDomainError, JetError, elementary, seed_variable

SP1, SP2 = jets.space(1), jets.space(2)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def fd_derivative(f, x, order, h=1e-3):
    """Central finite differences with one Richardson level, orders 1..3."""

    def d1(g, step):
        return (g(x + step) - g(x - step)) / (2 * step)

    if order == 1:
        return (4 * d1(f, h / 2) - d1(f, h)) / 3
    if order == 2:
        def d2(step):
            return (f(x + step) - 2 * f(x) + f(x - step)) / step**2
        return (4 * d2(h / 2) - d2(h)) / 3
    if order == 3:
        def d3(step):
            return (f(x + 2 * step) - 2 * f(x + step) + 2 * f(x - step)
                    - f(x - 2 * step)) / (2 * step**3)
        return (4 * d3(h / 2) - d3(h)) / 3
    raise ValueError("finite differences are only trustworthy up to order 3")


def sympy_jet_coefficients(expr, symbols, point, num_vars):
    """All normalized partials d^a f / a! with |a| <= 4, via sympy."""
    subs = {s: sympy.Float(repr(float(v)), 30) for s, v in zip(symbols, point)}
    out = {}
    for alpha in itertools.product(range(5), repeat=num_vars):
        if sum(alpha) > 4:
            continue
        d = expr
        fact = 1
        for s, k in zip(symbols, alpha):
            if k:
                d = sympy.diff(d, s, k)
                fact *= math.factorial(k)
        out[alpha] = float(d.subs(subs).evalf(30)) / fact
    return out


# ---------------------------------------------------------------------------
# seeded variables and elementary functions (spec examples)
# ---------------------------------------------------------------------------


def test_seed_variable_basic():
    j = seed_variable(0, 2.0, 2)
    assert j[SP2.index[(0, 0)]] == 2.0
    assert j[SP2.index[(1, 0)]] == 1.0
    assert j[SP2.index[(0, 1)]] == 0.0
    assert j[SP2.index[(2, 0)]] == 0.0


def test_seed_product_leibniz():
    u = seed_variable(0, 2.0, 2)
    v = seed_variable(1, 3.0, 2)
    p = SP2.mul(u, v)
    assert p[SP2.index[(0, 0)]] == 6.0
    assert p[SP2.index[(1, 1)]] == 1.0
    assert p[SP2.index[(1, 0)]] == 3.0
    assert p[SP2.index[(0, 1)]] == 2.0


def test_sin_series_at_zero():
    s = elementary(SP1, "sin", seed_variable(0, 0.0, 1))
    np.testing.assert_allclose(s, [0.0, 1.0, 0.0, -1 / 6, 0.0], atol=1e-16)


def test_cos_series_at_zero():
    c = elementary(SP1, "cos", seed_variable(0, 0.0, 1))
    np.testing.assert_allclose(c, [1.0, 0.0, -0.5, 0.0, 1 / 24], atol=1e-16)


def test_sqrt_of_constant():
    q = elementary(SP2, "sqrt", SP2.constant(4.0))
    assert q[0] == 2.0
    assert np.all(q[1:] == 0.0)


def test_recip_series_against_fd_oracle():
    # 1/(1+u) at u = 0: expansion coefficients (1, -1, 1, -1, 1)
    r = elementary(SP1, "recip", SP1.constant(1.0) + seed_variable(0, 0.0, 1))
    f = lambda x: 1.0 / (1.0 + x)
    # rounding noise grows as eps/h^order; the usable FD accuracy drops with order
    for order, tol in ((1, 1e-10), (2, 1e-8), (3, 1e-6)):
        oracle = fd_derivative(f, 0.0, order) / math.factorial(order)
        assert abs(r[order] - oracle) < tol
    np.testing.assert_allclose(r, [1, -1, 1, -1, 1], atol=1e-14)


def test_degree0_matches_plain_evaluation():
    x = 0.37
    j = seed_variable(0, x, 2)
    for tag, ref in [("sin", math.sin(x)), ("cos", math.cos(x)), ("sqrt", math.sqrt(x)),
                     ("recip", 1 / x), ("neg", -x)]:
        assert abs(elementary(SP2, tag, j)[0] - ref) < 1e-15
    assert abs(elementary(SP2, "pow_int", j, exponent=3)[0] - x**3) < 1e-15


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 7))
def test_coefficient_count(d):
    assert jets.space(d).size == math.comb(d + 4, 4)


def test_graded_lex_enumeration():
    monos = jets.space(2).monomials
    assert monos[:6] == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    degs = [sum(a) for a in monos]
    assert degs == sorted(degs)


def test_num_vars_bounds():
    with pytest.raises(JetError):
        jets.space(0)
    with pytest.raises(JetError):
        jets.space(7)
    with pytest.raises(JetError):
        seed_variable(3, 0.0, 3)


def test_domain_errors():
    with pytest.raises(JetDomainError):
        elementary(SP1, "sqrt", SP1.constant(-1.0))
    with pytest.raises(JetDomainError):
        elementary(SP1, "sqrt", SP1.constant(0.0))
    with pytest.raises(JetDomainError):
        elementary(SP1, "recip", SP1.constant(0.0))
    with pytest.raises(JetError):
        elementary(SP1, "pow_int", SP1.constant(1.0))
    with pytest.raises(JetError):
        elementary(SP1, "tanh", SP1.constant(1.0))


def test_repeated_derivative_values():
    # the value of the k-th derivative jet is f^(k); the caller tracks that
    # it is exact only through degree 4 - k
    j = elementary(SP1, "sin", seed_variable(0, 0.4, 1))
    d = SP1.deriv(j, 0)
    assert abs(d[0] - math.cos(0.4)) < 1e-15
    d4 = SP1.deriv(SP1.deriv(SP1.deriv(d, 0), 0), 0)
    assert abs(d4[0] - math.sin(0.4)) < 1e-15
    assert np.all(d4[1:] == 0.0)


def test_pow_int_negative_and_zero():
    x = seed_variable(0, 0.7, 1)
    inv2 = elementary(SP1, "pow_int", x, exponent=-2)
    ref = elementary(SP1, "recip", SP1.mul(x, x))
    np.testing.assert_allclose(inv2, ref, atol=1e-13)
    one = elementary(SP1, "pow_int", x, exponent=0)
    assert one[0] == 1.0 and np.all(one[1:] == 0.0)


def test_division():
    x = seed_variable(0, 0.3, 2)
    y = seed_variable(1, 1.7, 2)
    q = expr.eval_jet(expr.parse("(u1 * u2 + 2.0) / u2"), SP2, [x, y], {}, [None])
    ref = x + elementary(SP2, "recip", y) * 2.0
    np.testing.assert_allclose(q, ref, atol=1e-13)


def test_overflow_gives_non_finite_coefficients():
    # a jet whose exact coefficients overflow a float comes back with
    # non-finite coefficients, not an exception: 1e200 squared, and the
    # degree-4 coefficient 1e400 of 1 / (1e-80 + u2)
    with np.errstate(all="ignore"):
        big = elementary(SP2, "pow_int", seed_variable(0, 1e200, 2), exponent=2)
        tiny = elementary(SP2, "recip", seed_variable(1, 1e-80, 2))
    assert not np.isfinite(big).any()
    assert not np.isfinite(tiny).all()
    assert np.isfinite(elementary(SP2, "pow_int", seed_variable(0, 1e150, 2), exponent=2)).all()


@pytest.mark.parametrize("c0", [1e-70, -1e-70, 1e-100])
def test_recip_of_tiny_value_is_finite(c0):
    # the series at c0 overflows at degree 3 or 4, yet every exact coefficient
    # of 1 / (c0 u1) at u1 = 1 is finite: (1/c0) (1, -1, 1, -1, 1) along u1;
    # it is composed as (1/c0) recip(1 + h/c0), with no warning
    x = seed_variable(0, 1.0, 2) * c0
    assert not all(map(math.isfinite, jets._series_coefficients("recip", c0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = elementary(SP2, "recip", x)
    ref = np.zeros(SP2.size)
    ref[[SP2.index[(k, 0)] for k in range(5)]] = [1.0, -1.0, 1.0, -1.0, 1.0]
    np.testing.assert_allclose(r, ref / c0, rtol=1e-15, atol=0.0)


def test_sqrt_of_huge_value_is_finite():
    # the degree-4 sqrt coefficient of 1e120 underflows; computing it must
    # not overflow c0 ** 3 and poison the whole series
    root = elementary(SP2, "sqrt", seed_variable(0, 1e120, 2))
    assert np.isfinite(root).all()
    assert root[0] == 1e60


@pytest.mark.parametrize("c0", [1e-100, 1e-200, 5e-324])
def test_sqrt_series_of_tiny_value(c0):
    # the denominators of the higher sqrt coefficients underflow to zero; a
    # coefficient beyond float range comes back as a signed infinity instead
    # of raising ZeroDivisionError, and the representable ones stay accurate
    series = jets._series_coefficients("sqrt", c0)
    for k, c in enumerate(series):
        ref = mpmath.binomial(0.5, k) * mpmath.mpf(c0) ** (mpmath.mpf(0.5) - k)
        if abs(ref) > sys.float_info.max:
            assert c == math.copysign(math.inf, ref)
        else:
            assert c == pytest.approx(float(ref), rel=1e-14)
    with np.errstate(all="ignore"):     # overflow and inf * 0 in the composition
        root = elementary(SP2, "sqrt", seed_variable(0, c0, 2))
    assert not np.isfinite(root).all()


# ---------------------------------------------------------------------------
# stacked kernel calls: bit-identical to the per-slice calls they replace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", range(1, jets.MAX_VARS + 1))
def test_stacked_mul_dot_equal_per_slice_calls(d):
    sp = jets.space(d)
    rng = np.random.default_rng(300 + d)
    for order in range(1, jets.ORDER + 1):
        a = rng.standard_normal(sp.size)
        B = rng.standard_normal((3, sp.size))
        assert np.array_equal(sp.mul(a, B, order), np.array([sp.mul(a, b, order) for b in B]))
        assert np.array_equal(sp.mul(B, a, order), np.array([sp.mul(b, a, order) for b in B]))
        assert np.array_equal(sp.dot(a, B, order), sp.dot(np.tile(a, (3, 1)), B, order))

        X = rng.standard_normal((2, 1, 3, sp.size))
        Y = rng.standard_normal((1, 4, 3, sp.size))
        mul_ref = np.array([[[sp.mul(X[k, 0, r], Y[0, l, r], order) for r in range(3)]
                             for l in range(4)] for k in range(2)])
        assert np.array_equal(sp.mul(X, Y, order), mul_ref)
        dot_ref = np.array([[sp.dot(X[k, 0], Y[0, l], order) for l in range(4)]
                            for k in range(2)])
        assert np.array_equal(sp.dot(X, Y, order), dot_ref)


@pytest.mark.parametrize("d", range(1, jets.MAX_VARS + 1))
def test_mul_independent_of_operand_layout(d, monkeypatch):
    # mul's pair products are C-contiguous whatever the operands' strides,
    # and each coefficient sums them in table order, so the layout of an
    # operand never moves a bit
    sp = jets.JetSpace(d)
    rng = np.random.default_rng(800 + d)
    a = rng.standard_normal((3, 4, sp.size))
    b = rng.standard_normal((4, 3, sp.size)).swapaxes(0, 1)          # transposed view
    c = np.moveaxis(rng.standard_normal((sp.size, 4)), 0, -1)        # strided coefficients
    wide = np.broadcast_to(rng.standard_normal(sp.size), a.shape)   # stride-0 broadcast
    contiguous = []
    scatter = sp._scatter

    def recording(w, K, order):
        contiguous.append(w.flags.c_contiguous)
        return scatter(w, K, order)

    monkeypatch.setattr(sp, "_scatter", recording)
    for order in range(1, jets.ORDER + 1):
        for x, y in ((a, b), (b, c), (wide, a), (c, wide), (wide[0, 0], b)):
            for u, v in ((x, y), (y, x)):
                ref = sp.mul(np.ascontiguousarray(u), np.ascontiguousarray(v), order)
                assert np.array_equal(sp.mul(u, v, order), ref)
    assert all(contiguous)


@pytest.mark.parametrize("m", range(1, jets.MAX_VARS + 1))
def test_dot_independent_of_operand_layout(m):
    # dot gathers c-first into fresh C-contiguous arrays and adds their
    # slices in one fixed order, so no operand layout moves a bit: not a
    # transposed view (axis -2 apart from the coefficients in memory), a
    # Fortran-ordered copy, a strided coefficient axis or a stride-0
    # broadcast; a reduction over x[..., I] gathers summed such operands
    # sequentially from c = 8 on
    sp = jets.JetSpace(m)
    rng = np.random.default_rng(950 + m)

    def layouts(x, full):
        yield np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -2, 0)), 0, -2)
        yield np.asfortranarray(x)
        wide = np.zeros(x.shape[:-1] + (2 * sp.size,))
        wide[..., ::2] = x
        yield wide[..., ::2]
        yield np.broadcast_to(x, full)

    for c in range(1, 10):
        for order in range(1, jets.ORDER + 1):
            for sa, sb in (((8, 3, 1), (8, 1, 4)), ((1, 6, 1), (1, 1, 5))):
                a = rng.standard_normal(sa + (c, sp.size))
                b = rng.standard_normal(sb + (c, sp.size))
                full = np.broadcast_shapes(sa, sb) + (c, sp.size)
                ref = sp.dot(a, b, order)
                for u in layouts(a, full):
                    assert np.array_equal(sp.dot(u, b, order), ref)
                for v in layouts(b, full):
                    assert np.array_equal(sp.dot(a, v, order), ref)


@pytest.mark.parametrize("n", range(1, 10))
def test_dot_sums_over_its_gathered_axis(n):
    # dot adds its n product slices (n + 1 = 9 ambient components at most)
    # in the order numpy's pairwise summation takes over an axis innermost
    # in memory, as in (a[..., I] * b[..., J]).sum(axis=-2): left to right
    # below 8 entries, eight interleaved accumulators from 8 on; a
    # sequential sum differs there
    sp = jets.space(6)
    rng = np.random.default_rng(900 + n)
    a = rng.standard_normal((5, n, sp.size))
    b = rng.standard_normal((5, n, sp.size))

    def scatter(sums, K):
        return np.array([np.bincount(K, weights=w, minlength=sp.size) for w in sums])

    for order in range(1, jets.ORDER + 1):
        I, J, K = sp.mul_table(order)
        p = [a[:, c, I] * b[:, c, J] for c in range(n)]
        sequential = p[0]
        for x in p[1:]:
            sequential = sequential + x
        if n < 8:
            pairwise = sequential
        else:
            pairwise = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
            for x in p[8:]:
                pairwise = pairwise + x
        ref = scatter(pairwise, K)
        assert np.array_equal(sp.dot(a, b, order), ref)
        assert np.array_equal(scatter((a[..., I] * b[..., J]).sum(axis=-2), K), ref)
        if n >= 8:
            assert not np.array_equal(scatter(sequential, K), ref)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 128])
def test_pairwise_sum_is_numpys_order(n):
    # the helper reproduces numpy's pairwise summation of a run of up to
    # 128 entries (left to right, accumulators over blocks, remainder)
    rng = np.random.default_rng(970 + n)
    x = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 9, (n, 3))
    expect = [x[:, k].sum() for k in range(3)]
    assert jets._pairwise_sum(x.copy()).tolist() == expect


@pytest.mark.parametrize("d", range(1, jets.MAX_VARS + 1))
def test_trimmed_mul_dot_equal_order4_through_their_degree(d):
    # the order-k table is the order-4 table filtered in the same (i, j)
    # order, so each coefficient of degree <= k is the same sum, bit for bit
    # (the geometry stages rely on this); the higher ones are left zero
    sp = jets.space(d)
    rng = np.random.default_rng(500 + d)
    a = rng.standard_normal((2, 1, 3, sp.size))
    b = rng.standard_normal((1, 4, 3, sp.size))
    full_mul, full_dot = sp.mul(a, b, jets.ORDER), sp.dot(a, b, jets.ORDER)
    for k in (1, 2, 3):
        low, high = sp.degree <= k, sp.degree > k
        for got, full in ((sp.mul(a, b, k), full_mul), (sp.dot(a, b, k), full_dot)):
            assert got.shape == full.shape
            assert np.array_equal(got[..., low], full[..., low])
            assert not got[..., high].any()


@pytest.mark.parametrize("d", range(1, jets.MAX_VARS + 1))
@pytest.mark.parametrize("fn", ["sqrt", "recip"])
def test_trimmed_elementary_equals_order4_through_its_degree(d, fn):
    # rows with leading axes, the last one a tiny value whose series
    # overflows, so it takes the rescued f(c0) f(1 + h/c0) branch
    sp = jets.space(d)
    rng = np.random.default_rng(600 + d)
    x = rng.standard_normal((2, 3, sp.size))
    x[..., 0] = rng.uniform(0.5, 2.0, (2, 3))
    x[1, 2] *= 1e-100
    assert not all(map(math.isfinite, jets._series_coefficients(fn, float(x[1, 2, 0]))))
    full = elementary(sp, fn, x, jets.ORDER)
    assert np.isfinite(full).all()
    for k in (1, 2, 3):
        got = elementary(sp, fn, x, k)
        assert np.array_equal(got[..., sp.degree <= k], full[..., sp.degree <= k])
        assert not got[..., sp.degree > k].any()


def full_horner(sp, series, h, order):
    """``compose`` as it was: Horner from series[ORDER] at every order."""
    out = sp.zeros(*h.shape[:-1])
    out[..., 0] = series[jets.ORDER]
    for k in range(jets.ORDER - 1, -1, -1):
        out = sp.mul(out, h, order)
        out[..., 0] += series[k]
    return out


@pytest.mark.parametrize("d", range(1, jets.MAX_VARS + 1))
def test_compose_equals_full_horner(d):
    # the terms past degree k that the full loop builds first never reach a
    # coefficient of degree <= k, so starting at series[k] keeps every bit
    sp = jets.space(d)
    rng = np.random.default_rng(700 + d)
    h = rng.standard_normal((2, 3, sp.size))
    h[..., 0] = 0.0
    series = rng.standard_normal((jets.ORDER + 1, 2, 3))
    for k in range(1, jets.ORDER + 1):
        assert np.array_equal(sp.compose(series, h, k), full_horner(sp, series, h, k))


def test_compose_makes_one_mul_per_degree(monkeypatch):
    sp = jets.JetSpace(2)
    orders = []
    mul = sp.mul

    def counted(a, b, order=jets.ORDER):
        orders.append(order)
        return mul(a, b, order)

    monkeypatch.setattr(sp, "mul", counted)
    h = seed_variable(0, 0.0, 2)
    sp.compose(jets._series_coefficients("sqrt", 2.0), h, 2)
    assert orders == [2, 2]


def test_scatter_index_prefix_after_larger_call():
    # one cached index per order, grown to the most rows seen: a small
    # product after a large one reads a prefix and equals a fresh space's
    sp = jets.JetSpace(3)
    rng = np.random.default_rng(350)
    big = rng.standard_normal((2, 40, sp.size))
    small = rng.standard_normal((2, 3, 2, sp.size))       # mul: 6 rows, dot: 3
    for order in range(1, jets.ORDER + 1):
        sp.mul(big[0], big[1], order)
        fresh = jets.JetSpace(3)
        assert np.array_equal(sp.mul(small[0], small[1], order),
                              fresh.mul(small[0], small[1], order))
        assert np.array_equal(sp.dot(small[0], small[1], order),
                              fresh.dot(small[0], small[1], order))
        assert len(fresh._scatter_index[order]) < len(sp._scatter_index[order])
    assert sorted(sp._scatter_index) == list(range(1, jets.ORDER + 1))


def test_mul_workspaces_leave_results_alone():
    # mul gathers into shared workspaces: a larger call grows them, a
    # smaller one reuses their prefix, and no result shares their memory
    sp = jets.JetSpace(3)
    rng = np.random.default_rng(360)
    small = rng.standard_normal((2, 3, sp.size))
    big = rng.standard_normal((2, 40, 2, sp.size))
    first = sp.mul(small[0], small[1])
    kept = first.copy()
    sp.mul(big[0], big[1])
    sizes = [w.size for w in jets._WORK]
    again = sp.mul(small[0], small[1])
    assert np.array_equal(first, kept) and np.array_equal(again, kept)
    assert np.array_equal(again, jets.JetSpace(3).mul(small[0], small[1]))
    assert [w.size for w in jets._WORK] == sizes
    assert not any(np.shares_memory(r, w) for r in (first, again) for w in jets._WORK)


@pytest.mark.parametrize("d", range(1, jets.MAX_VARS + 1))
def test_first_partial_value_is_degree_one_coefficient(d):
    sp = jets.space(d)
    X = np.random.default_rng(400 + d).standard_normal((2, 3, sp.size))
    for i in range(d):
        assert np.array_equal(sp.deriv(X, i)[..., 0], X[..., sp.var_pos[i]])


# ---------------------------------------------------------------------------
# ring axioms (property-based)
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_ring_axioms(seed, d):
    rng = np.random.default_rng(seed)
    sp = jets.space(d)
    a, b, c = rng.uniform(-1.0, 1.0, (3, sp.size))
    lhs = sp.mul(a + b, c)
    rhs = sp.mul(a, c) + sp.mul(b, c)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    np.testing.assert_allclose(sp.mul(a, b), sp.mul(b, a), atol=1e-13)
    np.testing.assert_allclose(sp.mul(sp.mul(a, b), c), sp.mul(a, sp.mul(b, c)),
                               atol=1e-13)


# ---------------------------------------------------------------------------
# chain-rule exactness against sympy (all coefficients through order 4)
# ---------------------------------------------------------------------------


def _random_composition(rng, depth, num_vars):
    """A random expression from the safe template family, as (jet_fn, sympy)."""
    syms = sympy.symbols(f"u0:{num_vars}")
    sp = jets.space(num_vars)

    def build(level):
        if level == 0:
            k = int(rng.integers(0, num_vars + 1))
            if k == num_vars:
                c = float(np.round(rng.uniform(-1.5, 1.5), 3))
                return (lambda v: sp.constant(c)), sympy.Float(repr(c), 30)
            return (lambda v: v[k]), syms[k]
        pick = int(rng.integers(0, 7))
        fa, sa = build(level - 1)
        if pick == 0:
            return (lambda v: elementary(sp, "sin", fa(v))), sympy.sin(sa)
        if pick == 1:
            return (lambda v: elementary(sp, "cos", fa(v))), sympy.cos(sa)
        if pick == 2:
            fb, sb = build(level - 1)
            return (lambda v: fa(v) + fb(v)), sa + sb
        if pick == 3:
            fb, sb = build(level - 1)
            return (lambda v: sp.mul(fa(v), fb(v))), sa * sb
        if pick == 4:
            p = int(rng.integers(2, 4))
            return (lambda v: elementary(sp, "pow_int", fa(v), exponent=p)), sa**p
        if pick == 5:
            # sqrt over a strictly positive combination
            return (
                lambda v: elementary(sp, "sqrt", elementary(sp, "sin", fa(v)) + sp.constant(2.5))
            ), sympy.sqrt(sympy.sin(sa) + sympy.Rational(5, 2))
        # bounded denominator keeps recip safe
        return (
            lambda v: elementary(sp, "recip", elementary(sp, "cos", fa(v)) + sp.constant(2.2))
        ), 1 / (sympy.cos(sa) + sympy.Float("2.2", 30))

    return build(depth), syms


@pytest.mark.parametrize("seed", range(8))
def test_chain_rule_matches_sympy(seed):
    rng = np.random.default_rng(seed)
    num_vars = int(rng.integers(1, 4))
    depth = int(rng.integers(2, 4))
    (jet_fn, sym_expr), syms = _random_composition(rng, depth, num_vars)
    point = rng.uniform(-0.8, 0.8, num_vars)
    varjets = [seed_variable(i, point[i], num_vars) for i in range(num_vars)]
    j = jet_fn(varjets)
    expected = sympy_jet_coefficients(sym_expr, syms, point, num_vars)
    for alpha, ref in expected.items():
        got = j[jets.space(num_vars).index[alpha]]
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), (
            f"coefficient {alpha}: jet {got!r} vs sympy {ref!r}"
        )


def test_chain_rule_against_finite_differences():
    # univariate composition, derivative orders 1..3 (FD reliability limit)
    f = lambda x: math.sin(x * x + 0.3) / (math.cos(x) + 2.2)
    x0 = 0.41
    u = seed_variable(0, x0, 1)
    j = SP1.mul(
        elementary(SP1, "sin", SP1.mul(u, u) + SP1.constant(0.3)),
        elementary(SP1, "recip", elementary(SP1, "cos", u) + SP1.constant(2.2)),
    )
    for order in (1, 2, 3):
        oracle = fd_derivative(f, x0, order) / math.factorial(order)
        assert abs(j[order] - oracle) < 1e-7 * max(1.0, abs(oracle))
