"""Arrival-process generation, length-of-stay sampling, replication statistics.

Patient arrivals follow a nonhomogeneous Poisson process whose intensity
is piecewise constant over the three daily 8-hour staffing slots and
repeats every day.  Gaps are generated by cumulative-intensity inversion,
which is exact for piecewise-constant rates and consumes exactly one
Exp(1) draw per arrival.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaincinv, ndtri
from scipy.stats import t as student_t

SLOT_MINUTES = 480.0
SLOTS_PER_DAY = 3
DAY_MINUTES = 1440.0

LOS_FAMILIES = ("exponential", "lognormal", "gamma", "weibull", "empirical")


def rate_from_annual_count(count):
    """Per-minute arrival rate of a slot from its annual arrival count."""
    return count / (365.0 * SLOT_MINUTES)


class ArrivalProcess:
    """Day-periodic piecewise-constant-rate Poisson arrivals for one (ED, tag).

    `slot_rates` holds one per-minute rate per 8-hour slot.  If every
    rate is zero the process never produces an arrival and arrival_times
    returns an empty array.
    """

    def __init__(self, slot_rates):
        rates = [float(r) for r in slot_rates]
        if len(rates) != SLOTS_PER_DAY:
            raise ValueError(f"expected {SLOTS_PER_DAY} slot rates, got {len(rates)}")
        if any(r < 0 for r in rates):
            raise ValueError(f"arrival rates must be non-negative, got {rates}")
        self.slot_rates = rates
        # cumulative intensity at the end of each slot, from day start
        self._cum = np.cumsum([r * SLOT_MINUTES for r in rates])
        self.day_intensity = float(self._cum[-1])

    def cumulative_intensity(self, t):
        """Integral of the intensity over [0, t]."""
        days, rem = divmod(t, DAY_MINUTES)
        slot = min(int(rem // SLOT_MINUTES), SLOTS_PER_DAY - 1)
        before = self._cum[slot - 1] if slot > 0 else 0.0
        return (
            days * self.day_intensity
            + before
            + self.slot_rates[slot] * (rem - slot * SLOT_MINUTES)
        )

    def _invert(self, u):
        """Inverse of the cumulative intensity (vectorized)."""
        days, rem = np.divmod(u, self.day_intensity)
        slot = np.searchsorted(self._cum, rem, side="right")
        slot = np.minimum(slot, SLOTS_PER_DAY - 1)
        before = np.where(slot > 0, self._cum[slot - 1], 0.0)
        rates = np.asarray(self.slot_rates)[slot]
        return days * DAY_MINUTES + slot * SLOT_MINUTES + (rem - before) / rates

    def arrival_times(self, horizon, rng):
        """All arrival times in [0, horizon), strictly increasing.

        The k-th arrival is the inverse cumulative intensity at the k-th
        partial sum of Exp(1) draws.  This equals drawing one Exp(1) gap
        at a time and spending it across slot boundaries: both consume the
        random stream identically and agree up to floating-point rounding
        (tests/test_distributions.py keeps that sequential sampler as the
        reference).
        """
        if self.day_intensity == 0.0 or horizon <= 0.0:
            return np.empty(0)
        target = self.cumulative_intensity(horizon)
        n0 = int(target + 8.0 * math.sqrt(target + 1.0) + 16.0)
        acc = 0.0
        out = []
        done = False
        n = max(64, n0)
        while not done:
            draws = rng.exponential(size=n)
            draws[0] += acc
            cum = np.cumsum(draws)
            acc = cum[-1]
            times = self._invert(cum)
            if times[-1] >= horizon:
                times = times[times < horizon]
                done = True
            out.append(times)
            n = max(64, n // 4)
        return np.concatenate(out) if len(out) > 1 else out[0]


def finite_number(value, name):
    """value as a float, or a ValueError naming `name` unless it is a finite number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name}: expected a finite number, got {value!r}")
    return float(value)


@dataclass
class LosDistribution:
    """Length-of-stay distribution for one delay code (ED, slot, tag).

    Parameters are canonicalized at construction:

    - exponential: mean
    - lognormal:   mu/sigma of the underlying normal, or mean/cv
    - gamma:       shape/scale, or mean/cv
    - weibull:     shape/scale
    - empirical:   values (sampled uniformly)
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in LOS_FAMILIES:
            raise ValueError(
                f"unknown LOS family {self.family!r}; expected one of {LOS_FAMILIES}"
            )
        p = {}
        for key, value in self.params.items():
            if key == "values" and isinstance(value, (list, tuple)):
                p[key] = [finite_number(v, f"{key}[{k}]") for k, v in enumerate(value)]
            else:
                p[key] = finite_number(value, key)
        if self.family == "exponential":
            mean = p.get("mean")
            if mean is None or mean <= 0:
                raise ValueError(f"exponential LOS needs a positive mean, got {p}")
            p = {"mean": mean}
        elif self.family == "lognormal":
            if "mean" in p and "cv" in p:
                mean, cv = p["mean"], p["cv"]
                if mean <= 0 or cv <= 0:
                    raise ValueError(f"lognormal mean/cv must be positive, got {p}")
                sigma2 = math.log(1.0 + cv * cv)
                p = {"mu": math.log(mean) - sigma2 / 2.0, "sigma": math.sqrt(sigma2)}
            elif "mu" in p and "sigma" in p:
                if p["sigma"] <= 0:
                    raise ValueError(f"lognormal sigma must be positive, got {p}")
                p = {"mu": p["mu"], "sigma": p["sigma"]}
            else:
                raise ValueError(f"lognormal LOS needs mean/cv or mu/sigma, got {p}")
        elif self.family == "gamma":
            if "mean" in p and "cv" in p:
                mean, cv = p["mean"], p["cv"]
                if mean <= 0 or cv <= 0:
                    raise ValueError(f"gamma mean/cv must be positive, got {p}")
                p = {"shape": 1.0 / (cv * cv), "scale": mean * cv * cv}
            elif "shape" in p and "scale" in p:
                if p["shape"] <= 0 or p["scale"] <= 0:
                    raise ValueError(f"gamma shape/scale must be positive, got {p}")
                p = {"shape": p["shape"], "scale": p["scale"]}
            else:
                raise ValueError(f"gamma LOS needs mean/cv or shape/scale, got {p}")
        elif self.family == "weibull":
            if "shape" not in p or "scale" not in p:
                raise ValueError(f"weibull LOS needs shape/scale, got {p}")
            if p["shape"] <= 0 or p["scale"] <= 0:
                raise ValueError(f"weibull shape/scale must be positive, got {p}")
            p = {"shape": p["shape"], "scale": p["scale"]}
        else:  # empirical
            values = p.get("values")
            if not isinstance(values, list) or not values:
                raise ValueError("empirical LOS needs a non-empty list of values")
            if any(v <= 0 for v in values):
                raise ValueError("empirical LOS values must be positive")
            p = {"values": values}
        self.params = p

    def quantile(self, u):
        """Inverse CDF at u in [0, 1); one uniform per sample."""
        p = self.params
        if self.family == "exponential":
            x = -p["mean"] * math.log(1.0 - u)
        elif self.family == "lognormal":
            x = math.exp(p["mu"] + p["sigma"] * ndtri(u)) if u > 0.0 else 0.0
        elif self.family == "gamma":
            x = float(gammaincinv(p["shape"], u)) * p["scale"]
        elif self.family == "weibull":
            x = p["scale"] * (-math.log(1.0 - u)) ** (1.0 / p["shape"])
        else:
            values = p["values"]
            return values[min(int(u * len(values)), len(values) - 1)]
        # u == 0 maps to the distribution's lower endpoint; keep samples positive
        return x if x > 0.0 else 1e-12

    def sample(self, rng):
        return self.quantile(rng.random())


@dataclass
class MeanCI:
    """Sample mean with the half-width of its 95% Student-t interval."""

    mean: float
    half_width: float
    n: int


@lru_cache(maxsize=None)
def t_critical(df):
    """Two-sided 95% Student-t critical value (one-sided level 0.975)."""
    return float(student_t.ppf(0.975, df))


def summarize(values):
    """Mean and 95% confidence half-width over per-replication values."""
    values = list(values)
    n = len(values)
    if n < 2:
        raise ValueError(f"need at least 2 replication values, got {n}")
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half_width = t_critical(n - 1) * math.sqrt(var / n)
    return MeanCI(mean=mean, half_width=half_width, n=n)
