import math

import numpy as np
import pytest

from conftest import oracle_piecewise_simpson, oracle_simpson
from relperf import (
    ExponentialDiscount,
    HyperbolicDiscount,
    TabulatedDiscount,
    ValidationError,
    discount_from_dict,
)


def make_tabulated(fn, T=3.0, knots=241):
    ts = np.linspace(0.0, T, knots)
    return TabulatedDiscount(ts, fn(ts))


def quasi_exponential(t):
    # positive, equals 1 at t=0, non-exponential shape
    return (1.0 + 0.3 * t) * np.exp(-0.25 * t)


ALL = [
    ExponentialDiscount(0.1),
    HyperbolicDiscount(0.1, 1.0),
    HyperbolicDiscount(0.4, 0.2),
    make_tabulated(quasi_exponential),
]


@pytest.mark.parametrize("d", ALL)
def test_value_at_zero_is_one(d):
    assert float(d.value(0.0)) == pytest.approx(1.0, abs=1e-12)
    # exact for the parametric families
    if not isinstance(d, TabulatedDiscount):
        assert float(d.value(0.0)) == 1.0


def test_exponential_values():
    d = ExponentialDiscount(0.1)
    assert float(d.value(2.0)) == pytest.approx(math.exp(-0.2), abs=0)


def test_hyperbolic_at_zero_and_positive():
    d = HyperbolicDiscount(0.1, 1.0)
    assert float(d.value(0.0)) == 1.0
    assert float(d.value(2.0)) == pytest.approx((1 + 2.0) ** -0.1, rel=1e-15)


def test_hyperbolic_small_beta_approaches_exponential():
    d = HyperbolicDiscount(0.1, 1e-8)
    assert float(d.value(2.0)) == pytest.approx(math.exp(-0.2), abs=1e-6)


def test_hyperbolic_to_exponential_sup_error_decreases():
    ts = np.linspace(0.0, 3.0, 500)
    target = np.exp(-0.1 * ts)
    sups = [
        np.abs(HyperbolicDiscount(0.1, b).value(ts) - target).max()
        for b in (1e-2, 1e-4, 1e-6)
    ]
    assert sups[0] > sups[1] > sups[2]


def test_exponential_log_integral_closed_form():
    d = ExponentialDiscount(0.1)
    assert float(d.log_integral(0.0, 2.0)) == pytest.approx(-0.2, abs=1e-15)


@pytest.mark.parametrize("d", ALL)
def test_log_integral_vanishes_at_t_equal_T(d):
    assert float(d.log_integral(2.0, 2.0)) == 0.0


def _log_kinks(d, t, T):
    """Kink locations of s -> ln lam(T-s): images of the tabulated knots."""
    if isinstance(d, TabulatedDiscount):
        return [T - u for u in d.times if 0.0 < u < T - t]
    return []


@pytest.mark.parametrize("d", ALL)
def test_log_integral_matches_simpson_oracle(d):
    T = 2.0
    for t in (0.0, 0.3, 1.7):
        kinks = _log_kinks(d, t, T)
        if kinks:
            want = oracle_piecewise_simpson(
                lambda s: float(d.log_value(T - s)), t, T, kinks, per_segment=8)
        else:
            want = oracle_simpson(lambda s: float(d.log_value(T - s)), t, T, n=4000)
        assert float(d.log_integral(t, T)) == pytest.approx(want, abs=1e-10)


def test_hyperbolic_log_integral_series_branch():
    # tiny beta exercises the series; compare against the exponential limit
    d = HyperbolicDiscount(0.3, 1e-9)
    assert float(d.log_integral(0.0, 2.0)) == pytest.approx(-0.3 * 2.0**2 / 2, rel=1e-7)


@pytest.mark.parametrize("d", ALL)
def test_log_integral_additive_split(d):
    T = 2.0
    for t, m in [(0.0, 0.77), (0.25, 1.5), (0.0, 1.0)]:
        whole = float(d.log_integral(t, T))
        kinks = [k for k in _log_kinks(d, t, T) if t < k < m]
        if kinks:
            left = oracle_piecewise_simpson(
                lambda s: float(d.log_value(T - s)), t, m, kinks, per_segment=8)
        else:
            left = oracle_simpson(lambda s: float(d.log_value(T - s)), t, m, n=4000)
        right = float(d.log_integral(m, T))
        assert whole == pytest.approx(left + right, abs=1e-10)


def test_log_integral_vectorized_over_t():
    d = HyperbolicDiscount(0.1, 1.0)
    ts = np.linspace(0.0, 2.0, 11)
    vec = d.log_integral(ts, 2.0)
    for t, v in zip(ts, vec):
        assert v == pytest.approx(float(d.log_integral(float(t), 2.0)), abs=0)


def test_log_integral_rejects_t_above_T():
    with pytest.raises(ValueError):
        ExponentialDiscount(0.1).log_integral(2.5, 2.0)


def test_tabulated_range_errors():
    d = make_tabulated(quasi_exponential, T=2.0)
    with pytest.raises(ValueError, match="outside"):
        d.value(2.5)
    with pytest.raises(ValueError, match="outside"):
        d.log_integral(0.0, 2.5)


def test_tabulated_interpolates_log_linearly():
    ts = np.array([0.0, 1.0, 2.0])
    vals = np.array([1.0, 0.5, 0.1])
    d = TabulatedDiscount(ts, vals)
    # halfway in log space, not in value space
    assert float(d.value(0.5)) == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert float(d.value(1.5)) == pytest.approx(math.sqrt(0.5 * 0.1), rel=1e-14)
    assert np.all(d.value(np.linspace(0, 2, 101)) > 0)


def test_tabulated_requires_unit_start():
    with pytest.raises(ValidationError, match="lam\\(0\\)"):
        TabulatedDiscount([0.0, 1.0], [0.9, 0.5])
    with pytest.raises(ValidationError, match="start"):
        TabulatedDiscount([0.5, 1.0], [1.0, 0.5])
    with pytest.raises(ValidationError, match="increasing"):
        TabulatedDiscount([0.0, 0.0, 1.0], [1.0, 0.9, 0.5])
    with pytest.raises(ValidationError, match="> 0"):
        TabulatedDiscount([0.0, 1.0], [1.0, -0.5])


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        ExponentialDiscount(0.1).value(-0.5)
    with pytest.raises(ValueError):
        make_tabulated(quasi_exponential).value(-0.5)


def test_from_dict_roundtrip_and_errors():
    for d in ALL:
        again = discount_from_dict(d.to_dict())
        ts = np.linspace(0.0, 2.0, 7)
        assert np.allclose(again.value(ts), d.value(ts), rtol=0, atol=0)
    with pytest.raises(ValidationError, match="variant"):
        discount_from_dict({"rho": 0.1})
    with pytest.raises(ValidationError, match="unknown"):
        discount_from_dict({"variant": "nope"})
    with pytest.raises(ValidationError, match="beta"):
        discount_from_dict({"variant": "hyperbolic", "rho": 0.1})


def test_parameter_validation():
    with pytest.raises(ValidationError):
        ExponentialDiscount(-0.1)
    with pytest.raises(ValidationError):
        HyperbolicDiscount(0.0, 1.0)
    with pytest.raises(ValidationError):
        HyperbolicDiscount(0.1, 0.0)
