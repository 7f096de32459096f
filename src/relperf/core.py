"""Agent parameters, uniform time grids, and discrete type distributions.

Everything here is an immutable value type, and all operations on them are
pure functions, so objects can be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "AgentType",
    "TimeGrid",
    "TypeDistribution",
    "ValidationError",
    "agent_violations",
    "validate_agent",
]

# Tolerance for the "weights sum to one" check on type distributions.
WEIGHT_TOL = 1e-12


class ValidationError(ValueError):
    """A domain object violates one of its parameter constraints."""


@contextmanager
def _json_section(name: str):
    """Report a missing field, or a JSON value of the wrong type or size, in
    the config section ``name`` as a :class:`ValidationError` naming it."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{name} is missing field {exc.args[0]!r}") from None
    except (TypeError, OverflowError) as exc:
        raise ValidationError(f"{name} has a value of the wrong JSON type ({exc})") from None


def _json_int(value, section: str, name: str) -> int:
    """Config field ``name`` of ``section``: a JSON integer or an integral number."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ValidationError(f"{section} field {name!r} must be an integer (got {value!r})")
    return int(value)


def _json_float(value, section: str, name: str) -> float:
    """Config field ``name`` of ``section``: a finite JSON number, not a bool,
    a string or null."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValidationError(f"{section} field {name!r} must be a finite number "
                              f"(got {value!r})")
    return float(value)


def _json_floats(values, section: str, name: str) -> list[float]:
    """Config field ``name`` of ``section``: a list of finite JSON numbers."""
    return [_json_float(x, section, f"{name}[{k}]") for k, x in enumerate(values)]


def _real(value, name: str) -> float:
    """``value`` as a float; a ValidationError names ``name`` and the value
    unless it is a real number (a bool or a numeric string is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number (got {value!r})")
    return float(value)


def _check_times(times, t0: float, horizon: float) -> np.ndarray:
    """``times`` as a float array; a ValidationError names the range unless
    every time lies in [t0, horizon], to within 1e-12."""
    times = np.asarray(times, dtype=float)
    # Written so that NaN fails it.
    if not (np.all(times >= t0 - 1e-12) and np.all(times <= horizon + 1e-12)):
        raise ValidationError(f"query times must lie in [t0, horizon] = [{t0!r}, {horizon!r}]")
    return times


@dataclass(frozen=True)
class AgentType:
    """Parameter vector of a single agent (or of one type in the mean-field game).

    Attributes
    ----------
    delta : float
        Risk tolerance of the exponential utility, > 0.
    theta : float
        Competition weight on the population average, in [0, 1).
    mu : float
        Drift of the agent's stock, > 0 (units 1/time).
    nu : float
        Idiosyncratic volatility, >= 0 (units 1/sqrt(time)).
    sigma : float
        Common-noise volatility, >= 0 (units 1/sqrt(time)).

    A valid agent additionally satisfies sigma + nu > 0 (the stock price is
    not deterministic).
    """

    delta: float
    theta: float
    mu: float
    nu: float
    sigma: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "AgentType":
        return cls._from_json(data, "agent")

    @classmethod
    def _from_json(cls, data: Mapping, name: str) -> "AgentType":
        """Validated agent from the JSON object ``data`` of config item ``name``."""
        with _json_section(name):
            agent = cls(**{k: _json_float(data[k], name, k) for k in _FIELDS})
        validate_agent(agent)
        return agent


# The parameter names of an agent, in the order of its fields.
_FIELDS = ("delta", "theta", "mu", "nu", "sigma")
_values = attrgetter(*_FIELDS)


def _agent_params(agents: Sequence[AgentType]) -> dict[str, np.ndarray]:
    """Read-only per-agent arrays of each parameter, keyed by field name,
    all read from one table."""
    cols = np.array([_values(a) for a in agents]).T.astype(float, order="C")
    cols.flags.writeable = False
    return dict(zip(_FIELDS, cols))


def agent_violations(agent: AgentType) -> list[str]:
    """Return one message per violated parameter constraint (empty if valid)."""
    out = []
    vals = _values(agent)
    if not all(map(math.isfinite, vals)):
        out.append("all parameters must be finite")
        return out
    if not agent.delta > 0:
        out.append("delta must be > 0")
    if not (0.0 <= agent.theta < 1.0):
        out.append("theta must lie in [0,1)")
    if not agent.mu > 0:
        out.append("mu must be > 0")
    if agent.nu < 0:
        out.append("nu must be >= 0")
    if agent.sigma < 0:
        out.append("sigma must be >= 0")
    if agent.sigma >= 0 and agent.nu >= 0 and not agent.sigma + agent.nu > 0:
        out.append("sigma+nu must be > 0")
    return out


def validate_agent(agent: AgentType) -> None:
    """Raise :class:`ValidationError` listing every violated constraint."""
    problems = agent_violations(agent)
    if problems:
        raise ValidationError("; ".join(problems))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``n_points`` nodes on [t0, T], endpoints included."""

    t0: float
    T: float
    n_points: int

    def __post_init__(self):
        for name in ("t0", "T"):
            _real(getattr(self, name), f"grid field {name!r}")
        if not (np.isfinite(self.t0) and np.isfinite(self.T)):
            raise ValidationError("grid endpoints must be finite")
        if self.t0 < 0:
            raise ValidationError("t0 must be >= 0")
        if not self.T > self.t0:
            raise ValidationError("T must exceed t0")
        if not (isinstance(self.n_points, numbers.Integral) and self.n_points >= 2):
            raise ValidationError(f"grid field 'n_points' must be an integer >= 2 "
                                  f"(got {self.n_points!r})")

    @cached_property
    def times(self) -> np.ndarray:
        t = np.linspace(self.t0, self.T, self.n_points)
        t.flags.writeable = False
        return t

    @property
    def step(self) -> float:
        return (self.T - self.t0) / (self.n_points - 1)

    def to_dict(self) -> dict:
        return {"t0": self.t0, "T": self.T, "n_points": self.n_points}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TimeGrid":
        with _json_section("grid"):
            n_points = _json_int(data["n_points"], "grid", "n_points")
            return cls(_json_float(data["t0"], "grid", "t0"),
                       _json_float(data["T"], "grid", "T"), n_points)


@dataclass(frozen=True)
class TypeDistribution:
    """Finite discrete law over agent types.

    ``atoms`` is a sequence of (AgentType, weight) pairs; weights are strictly
    positive and sum to one (within 1e-12).  Every expectation over the type
    is an exact weighted sum, ``weights @`` per-atom values.
    """

    atoms: tuple[tuple[AgentType, float], ...]

    def __init__(self, atoms: Iterable[tuple[AgentType, float]]):
        object.__setattr__(self, "atoms", tuple((a, float(w)) for a, w in atoms))
        if not self.atoms:
            raise ValidationError("type distribution needs at least one atom")
        weights = np.array([w for _, w in self.atoms])
        if np.any(weights <= 0):
            raise ValidationError("atom weights must be > 0")
        if abs(weights.sum() - 1.0) > WEIGHT_TOL:
            raise ValidationError(
                f"atom weights must sum to 1 (got {weights.sum():.17g})"
            )
        for agent, _ in self.atoms:
            validate_agent(agent)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.array([w for _, w in self.atoms])
        w.flags.writeable = False
        return w

    @cached_property
    def types(self) -> tuple[AgentType, ...]:
        return tuple(a for a, _ in self.atoms)

    @cached_property
    def _params(self) -> dict[str, np.ndarray]:
        return _agent_params(self.types)

    def field(self, name: str) -> np.ndarray:
        """Per-atom array of one agent parameter ('delta', 'theta', ...)."""
        return np.array([getattr(a, name) for a, _ in self.atoms])

    def to_dict(self) -> dict:
        return {
            "atoms": [{"type": a.to_dict(), "weight": w} for a, w in self.atoms]
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TypeDistribution":
        with _json_section("type_distribution"):
            atoms = [
                (AgentType._from_json(item["type"], f"type_distribution atom {k}"),
                 _json_float(item["weight"], f"type_distribution atom {k}", "weight"))
                for k, item in enumerate(data["atoms"])
            ]
        return cls(atoms)
