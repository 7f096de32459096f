"""Discount functions: exponential, hyperbolic, and tabulated families.

A discount function is a continuous, strictly positive weight ``lam(t)`` on
future utility with ``lam(0) = 1``.  Exponential discounting is the
time-consistent special case; any other shape makes the planner's problem
time-inconsistent.  Besides pointwise evaluation, every family supplies

    log_integral(t, T) = integral over s in [t, T] of ln lam(T - s) ds,

the quantity through which the discount shape enters the equilibrium
consumption intercepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import ValidationError, _json_float, _json_floats, _json_section

__all__ = [
    "DiscountFunction",
    "ExponentialDiscount",
    "HyperbolicDiscount",
    "TabulatedDiscount",
    "discount_from_dict",
]

# Negative arguments below this magnitude are treated as rounding noise.
_T_SLACK = 1e-12


def _as_nonnegative(t, context: str):
    t = np.asarray(t, dtype=float)
    if np.any(t < -_T_SLACK):
        raise ValueError(f"{context}: time argument must be >= 0")
    return np.clip(t, 0.0, None)


class DiscountFunction:
    """Common interface of all discount families."""

    def log_value(self, t):
        """ln lam(t); vectorized over ``t``."""
        raise NotImplementedError

    def value(self, t):
        """lam(t); vectorized over ``t``."""
        return np.exp(self.log_value(t))

    def __call__(self, t):
        return self.value(t)

    def log_integral(self, t, T):
        """Integral of ln lam(T - s) for s in [t, T]; vectorized over ``t``."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _tau(self, t, T):
        t = np.asarray(t, dtype=float)
        if np.any(t > T + _T_SLACK):
            raise ValueError("log_integral requires t <= T")
        return np.clip(T - t, 0.0, None)


@dataclass(frozen=True)
class ExponentialDiscount(DiscountFunction):
    """lam(t) = exp(-rho t) with rho >= 0."""

    rho: float

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho >= 0):
            raise ValidationError("exponential discount requires rho >= 0")

    def log_value(self, t):
        t = _as_nonnegative(t, "exponential discount")
        return -self.rho * t

    def log_integral(self, t, T):
        tau = self._tau(t, T)
        return -0.5 * self.rho * tau**2

    def to_dict(self) -> dict:
        return {"variant": "exponential", "rho": self.rho}


@dataclass(frozen=True)
class HyperbolicDiscount(DiscountFunction):
    """lam(t) = (1 + beta t)^(-rho/beta) with rho > 0, beta > 0.

    As beta -> 0 this family converges to exp(-rho t).
    """

    rho: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValidationError("hyperbolic discount requires rho > 0")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValidationError("hyperbolic discount requires beta > 0")

    def log_value(self, t):
        t = _as_nonnegative(t, "hyperbolic discount")
        return -(self.rho / self.beta) * np.log1p(self.beta * t)

    def log_integral(self, t, T):
        # Antiderivative of ln(1+beta u) gives
        #   integral = -(rho/beta^2) * [(1+x) (ln(1+x) - 1) + 1],  x = beta tau.
        # The bracket is (1+x) ln(1+x) - x; a short series avoids the
        # catastrophic cancellation for x near 0.
        tau = self._tau(t, T)
        x = self.beta * tau
        with np.errstate(invalid="ignore"):
            direct = (1.0 + x) * np.log1p(x) - x
        series = x**2 / 2.0 - x**3 / 6.0 + x**4 / 12.0
        bracket = np.where(x < 1e-4, series, direct)
        return -(self.rho / self.beta**2) * bracket

    def to_dict(self) -> dict:
        return {"variant": "hyperbolic", "rho": self.rho, "beta": self.beta}


class TabulatedDiscount(DiscountFunction):
    """Discount given by samples (t_k, lam_k); ln lam interpolates linearly.

    Interpolating the logarithm rather than lam itself keeps the function
    strictly positive between knots.  The knot grid must start at 0 with
    lam(0) = 1 and is the valid evaluation range; arguments outside it raise.
    ``log_integral`` integrates the piecewise-linear log-discount with a
    knot-aligned composite rule, which is exact for this interpolant.
    """

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValidationError("tabulated discount needs matching 1-d grids of length >= 2")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValidationError("tabulated discount grids must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("tabulated times must be strictly increasing")
        if abs(times[0]) > _T_SLACK:
            raise ValidationError("tabulated grid must start at t = 0")
        if np.any(values <= 0):
            raise ValidationError("tabulated discount values must be > 0")
        if abs(values[0] - 1.0) > 1e-12:
            raise ValidationError("tabulated discount must have lam(0) = 1")
        self._times = times.copy()
        self._times[0] = 0.0
        self._logs = np.log(values)
        self._logs[0] = 0.0
        self._times.flags.writeable = False
        self._logs.flags.writeable = False

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def values(self) -> np.ndarray:
        return np.exp(self._logs)

    @cached_property
    def _cum_logint(self) -> np.ndarray:
        # Exact running integral of the piecewise-linear ln lam at each knot.
        seg = np.diff(self._times) * (self._logs[:-1] + self._logs[1:]) / 2.0
        out = np.concatenate(([0.0], np.cumsum(seg)))
        out.flags.writeable = False
        return out

    def _check_range(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -_T_SLACK) or np.any(t > self._times[-1] + _T_SLACK):
            raise ValueError(
                f"tabulated discount evaluated outside its grid "
                f"[0, {self._times[-1]:g}]"
            )
        return np.clip(t, 0.0, self._times[-1])

    def log_value(self, t):
        t = self._check_range(t)
        return np.interp(t, self._times, self._logs)

    def _primitive(self, tau):
        """Exact integral of ln lam over [0, tau]."""
        tau = self._check_range(tau)
        idx = np.clip(np.searchsorted(self._times, tau, side="right") - 1, 0,
                      self._times.size - 2)
        left_t = self._times[idx]
        left_v = self._logs[idx]
        here_v = np.interp(tau, self._times, self._logs)
        return self._cum_logint[idx] + (tau - left_t) * (left_v + here_v) / 2.0

    def log_integral(self, t, T):
        # Substituting u = T - s turns the integral into the primitive at T-t.
        tau = self._tau(t, T)
        return self._primitive(tau)

    def to_dict(self) -> dict:
        return {
            "variant": "tabulated",
            "times": self._times.tolist(),
            "values": np.exp(self._logs).tolist(),
        }

    def __repr__(self) -> str:
        return (f"TabulatedDiscount({self._times.size} knots on "
                f"[0, {self._times[-1]:g}])")


def discount_from_dict(data: Mapping) -> DiscountFunction:
    """Build a discount function from its JSON form (see ``to_dict``)."""
    with _json_section("discount"):
        variant = data["variant"]
    section = f"{variant} discount"
    with _json_section(section):
        if variant == "exponential":
            return ExponentialDiscount(rho=_json_float(data["rho"], section, "rho"))
        if variant == "hyperbolic":
            return HyperbolicDiscount(rho=_json_float(data["rho"], section, "rho"),
                                      beta=_json_float(data["beta"], section, "beta"))
        if variant == "tabulated":
            return TabulatedDiscount(_json_floats(data["times"], section, "times"),
                                     _json_floats(data["values"], section, "values"))
    raise ValidationError(f"unknown discount variant {variant!r}")
