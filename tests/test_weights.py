import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anncap.errors import InputError
from anncap.weights import (
    BuckleyEta,
    Constant,
    HalfLineCatalog,
    HalfLineKind,
    PowerAlpha,
    SummedBuckley,
    Tabulated,
)


def test_constant_evaluate():
    w = Constant()
    assert w.evaluate([0.1, 2.0]).tolist() == [1.0, 1.0]
    assert w.singularities() == ()


def test_power_alpha():
    w = PowerAlpha(-0.5)
    assert w.evaluate(4.0) == pytest.approx(0.5)
    assert w.singularities() == (0.0,)
    assert PowerAlpha(2.0).singularities() == ()


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_power_alpha_needs_a_finite_exponent(alpha):
    with pytest.raises(InputError, match="^PowerAlpha needs a finite exponent$"):
        PowerAlpha(alpha)


def test_buckley_exact_form():
    w = BuckleyEta(0.5)
    # max{1, |rho - 1|^(eta-1)} exactly
    assert w.evaluate(0.75) == pytest.approx(2.0)  # |.25|^{-1/2} = 2
    assert w.evaluate(3.0) == pytest.approx(1.0)   # |2|^{-1/2} < 1
    assert w.singularities() == (1.0, 2.0)


def test_pole_is_inf_and_its_regular_part_is_finite():
    # a float takes the array code, where a pole is inf
    assert BuckleyEta(0.5).evaluate(1.0) == math.inf
    summed = SummedBuckley(0.5, ((1.0, 1.0), (2.0, 0.5)))
    assert summed.evaluate(0.5) == math.inf
    # w(p + d) |d|^(1 - eta) in closed form: the product where it is exact,
    # and finite where p + d rounds to p or d underflows
    assert BuckleyEta(0.5).poles == ((1.0, -0.5),)
    assert summed.poles == ((0.5, -0.5), (1.0, -0.5))
    d = np.array([-0.25, 4.0, 1e-20, -5e-324, 0.0])
    assert BuckleyEta(0.5).regular(1.0, d).tolist() == [2.0 * 0.5, 1.0 * 2.0, 1.0, 1.0, 1.0]
    for p in (0.5, 1.0):
        expect = summed.evaluate(p + d[:2]) * np.abs(d[:2]) ** 0.5
        assert summed.regular(p, d[:2]) == pytest.approx(expect, rel=1e-15)
    # at d = 0 only the term singular there is left: a q^(eta - 1)
    assert summed.regular(0.5, np.zeros(1))[0] == 0.5 * 2.0**-0.5
    assert summed.regular(1.0, np.zeros(1))[0] == 1.0


def test_buckley_eta_range():
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(InputError, match="^BuckleyEta needs eta in"):
            BuckleyEta(bad)


def test_buckley_is_the_one_term_summed_buckley():
    w = BuckleyEta(0.5)
    assert repr(w) == "BuckleyEta(eta=0.5)"
    with pytest.raises(TypeError):
        BuckleyEta(0.5, ((2.0, 1.0),))
    # with q = a = 1 every step of the sum is exact: max{1, |rho - 1|^(eta - 1)}
    for eta in (0.05, 0.5, 0.95):
        rho = np.array([0.0, 0.25, 1.0 - 1e-17, 1.0, 1.0 + 2e-16, 1.7, 2.0, 3.0, 1e300])
        with np.errstate(divide="ignore"):
            expect = np.maximum(1.0, np.abs(rho - 1.0) ** (eta - 1.0))
        assert BuckleyEta(eta).evaluate(rho).tolist() == expect.tolist()
        d = np.array([-0.25, 4.0, 1e-20, -5e-324, 0.0])
        expect = np.maximum(np.abs(d) ** (1.0 - eta), 1.0)
        assert BuckleyEta(eta).regular(1.0, d).tolist() == expect.tolist()


def test_summed_buckley():
    w = SummedBuckley(0.5, ((1.0, 1.0), (2.0, 0.5)))
    rho = 0.75
    expect = max(1.0, abs(rho - 1.0) ** -0.5) + 0.5 * max(1.0, abs(2 * rho - 1.0) ** -0.5)
    assert w.evaluate(rho) == pytest.approx(expect)
    assert w.singularities() == (0.5, 1.0, 2.0)


def test_summed_buckley_validation():
    with pytest.raises(InputError):
        SummedBuckley(0.5, ())
    with pytest.raises(InputError):
        SummedBuckley(0.5, ((1.0, -1.0),))


def test_halfline_catalog_values():
    m1x = HalfLineCatalog(HalfLineKind.MIN_ONE_OVER_X)
    assert m1x.evaluate(0.5) == pytest.approx(1.0)
    assert m1x.evaluate(4.0) == pytest.approx(0.25)
    exp = HalfLineCatalog(HalfLineKind.EXP_DECAY)
    assert exp.evaluate(2.0) == pytest.approx(math.exp(-2.0))
    inv = HalfLineCatalog(HalfLineKind.EXP_INV_OVER_X_SQ)
    assert inv.evaluate(0.25) == pytest.approx(math.exp(-4.0) * 16.0)
    assert inv.evaluate(1.0) == pytest.approx(4.0 * math.exp(-2.0))
    # continuous at the branch point
    assert inv.evaluate(0.5) == pytest.approx(4.0 * math.exp(-2.0))
    # exp(-1/x) is 0 below x ~ 1.3e-3 and x * x is 0 below ~ 1.5e-154: the
    # weight is 0 there, for a float as for an array, not 0/0
    xs = [1e-3, 1e-100, 1e-160, 1e-170, 5e-324]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [inv.evaluate(x) for x in xs] == [0.0] * len(xs)
        assert inv.evaluate(np.array(xs)).tolist() == [0.0] * len(xs)
        assert float(inv.evaluate(np.float64(1e-170))) == 0.0


def test_halfline_catalog_takes_a_kind_or_its_value():
    # a value once fell through to the exp(-1/x)/x^2 branch: 0.5413 at x = 2
    for kind in HalfLineKind:
        assert HalfLineCatalog(kind.value) == HalfLineCatalog(kind)
        assert HalfLineCatalog(kind.value).kind is kind
    m1x = HalfLineCatalog("min-one-over-x")
    assert m1x.evaluate(2.0) == 0.5
    assert m1x.singularities() == (1.0,)
    for bad in ("bogus", "MIN_ONE_OVER_X", None, 1.5):
        with pytest.raises(InputError, match="^unknown half-line kind"):
            HalfLineCatalog(bad)


def test_tabulated_interpolation():
    w = Tabulated(grid=(1.0, 2.0, 4.0), values=(1.0, 3.0, 3.0))
    assert w.evaluate(1.5) == pytest.approx(2.0)
    assert w.evaluate(0.5) == pytest.approx(1.0)  # clamped
    with pytest.raises(InputError):
        Tabulated(grid=(1.0,), values=(1.0,))
    with pytest.raises(InputError):
        Tabulated(grid=(2.0, 1.0), values=(1.0, 1.0))
    with pytest.raises(InputError):
        Tabulated(grid=(1.0, 2.0), values=(1.0, 0.0))
    # NaN passes both comparisons above; inf is no grid point or value either
    for grid, values in [((0.0, math.nan, 2.0), (1.0, 2.0, 3.0)),
                         ((0.0, 1.0, 2.0), (1.0, math.nan, 3.0)),
                         ((0.0, 1.0, math.inf), (1.0, 2.0, 3.0)),
                         ((0.0, 1.0, 2.0), (1.0, 2.0, math.inf))]:
        with pytest.raises(InputError, match="finite"):
            Tabulated(grid=grid, values=values)



def _summed_buckley_sum(w, rho):
    """SummedBuckley.evaluate as it stood before its terms were evaluated in
    place: a plain sum over the terms of full-size temporaries."""
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore"):
        return sum(a * np.maximum(1.0, np.abs(q * rho - 1.0) ** (w.eta - 1.0))
                   for q, a in w.terms)


_positive = st.floats(1e-3, 1e3)
_terms = st.lists(st.tuples(st.one_of(st.just(1.0), _positive), st.one_of(st.just(1.0), _positive)),
                  min_size=1, max_size=4)
_buckley_weights = st.one_of(
    st.builds(BuckleyEta, st.floats(1e-3, 0.999)),
    st.builds(SummedBuckley, st.floats(1e-3, 0.999), _terms.map(tuple)))


@st.composite
def _radii(draw, w):
    """rho as a Python float, a list, or an array of 0 to 2 dimensions, at
    the poles 1/q, the kinks |q rho - 1| = 1 (rho = 2/q and rho = 0), near
    them, and anywhere in +-1e300, NaN and +-inf included."""
    marks = [x for q, _ in w.terms for x in (1.0 / q, 2.0 / q)] + [0.0, -0.0]
    near = st.sampled_from(marks).flatmap(
        lambda x: st.floats(-1e-6, 1e-6).map(lambda d: x * (1.0 + d)))
    anywhere = st.floats(-1e300, 1e300)
    special = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 5e-324])
    element = st.one_of(st.sampled_from(marks), near, anywhere, special)
    # or a cluster on one side of every pole, where a term may be constant
    far = st.floats(-1e6, 1e6).flatmap(lambda c: st.floats(-1e-3, 1e-3).map(lambda d: c * (1.0 + d)))
    shape = draw(st.sampled_from(["float", "list", (), (0,), (7,), (3, 5)]))
    elements = draw(st.sampled_from([element, far]))
    if shape == "float":
        return draw(elements)
    if shape == "list":
        return draw(st.lists(elements, max_size=6))
    size = math.prod(shape)
    return np.array(draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)


@settings(deadline=None, max_examples=400)
@given(data=st.data(), w=_buckley_weights)
def test_buckley_evaluate_is_the_plain_sum_bit_for_bit(data, w):
    rho = data.draw(_radii(w))
    got, want = w.evaluate(rho), _summed_buckley_sum(w, rho)
    # a 0-d input gives the numpy scalar it always gave, an array an array
    assert type(got) is type(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()
