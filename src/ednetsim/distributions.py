"""Arrival-process generation, length-of-stay sampling, replication statistics.

Patient arrivals follow a nonhomogeneous Poisson process whose intensity
is piecewise constant over the three daily 8-hour staffing slots and
repeats every day.  Gaps are generated by cumulative-intensity inversion,
which is exact for piecewise-constant rates and consumes exactly one
Exp(1) draw per arrival.
"""

import math
import numbers
from array import array
from dataclasses import dataclass, field

import numpy as np

SLOT_MINUTES = 480.0
SLOTS_PER_DAY = 3
DAY_MINUTES = 1440.0

# The parameter names of each LOS family, one tuple per way of giving them.
LOS_PARAMS = {
    "exponential": (("mean",),),
    "lognormal": (("mean", "cv"), ("mu", "sigma")),
    "gamma": (("mean", "cv"), ("shape", "scale")),
    "weibull": (("shape", "scale"),),
    "empirical": (("values",),),
}
LOS_FAMILIES = tuple(LOS_PARAMS)

# Uniforms drawn per numpy call by `LosStore`.
UNIFORM_BLOCK = 1024
_UNSET_BLOCK = array("d", [math.nan]) * UNIFORM_BLOCK


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
        rates = [finite_number(r, f"slot_rates[{k}]") for k, r in enumerate(slot_rates)]
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
        # under a near-zero intensity (below about 1e-305 per day) u maps past
        # the largest float: that arrival lies at +inf, after every horizon
        with np.errstate(over="ignore", invalid="ignore"):
            days, rem = np.divmod(u, self.day_intensity)
            days = days * DAY_MINUTES
        slot = np.searchsorted(self._cum, rem, side="right")
        slot = np.minimum(slot, SLOTS_PER_DAY - 1)
        before = np.where(slot > 0, self._cum[slot - 1], 0.0)
        rates = np.asarray(self.slot_rates)[slot]
        return days + slot * SLOT_MINUTES + (rem - before) / rates

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

    Any other name, or both ways of giving one family's parameters, is a
    ValueError.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in LOS_FAMILIES:
            raise ValueError(
                f"unknown LOS family {self.family!r}; expected one of {LOS_FAMILIES}"
            )
        spellings = LOS_PARAMS[self.family]
        expected = " or ".join("/".join(names) for names in spellings)
        for key in self.params:
            if not any(key in names for names in spellings):
                raise ValueError(f"{key}: unknown {self.family} LOS parameter; expected {expected}")
        if sum(any(key in self.params for key in names) for names in spellings) > 1:
            raise ValueError(f"{self.family} LOS takes {expected}, not both")
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
        if self.family in ("lognormal", "gamma"):
            # scipy takes about 0.3 s to import, so only the families that need it load it
            from scipy import special

            self._inverse = special.ndtri if self.family == "lognormal" else special.gammaincinv

    def quantile(self, u):
        """Inverse CDF at u in [0, 1); one uniform per sample."""
        p = self.params
        if self.family == "exponential":
            x = -p["mean"] * math.log(1.0 - u)
        elif self.family == "lognormal":
            x = math.exp(p["mu"] + p["sigma"] * self._inverse(u)) if u > 0.0 else 0.0
        elif self.family == "gamma":
            x = float(self._inverse(p["shape"], u)) * p["scale"]
        elif self.family == "weibull":
            x = p["scale"] * (-math.log(1.0 - u)) ** (1.0 / p["shape"])
        else:
            values = p["values"]
            return values[min(int(u * len(values)), len(values) - 1)]
        # u == 0 maps to the distribution's lower endpoint; keep samples positive
        return x if x > 0.0 else 1e-12

    def sample(self, uniforms, k):
        """The draw at the k-th uniform of a stream: quantile(uniforms[k])."""
        return self.quantile(uniforms[k])


class LosStore:
    """The LOS values one ED's visit-time stream gives under one replication seed.

    The k-th service start at the ED takes the k-th uniform of the stream,
    so its LOS under a distribution is dist.sample(uniforms, k), whatever
    the plan.  The store draws the uniforms UNIFORM_BLOCK at a time (PCG64
    fills an array with the same doubles as successive scalar calls, and
    the stream has no other reader) and keeps one row of values per
    distinct distribution of the ED, NaN until the first replication that
    needs that (distribution, k) computes it.

    rng: the ED's visit-time stream for the seed.
    los: the ED's [tag][slot] table of LosDistribution.
    cells: the same table of (distribution, its row of values); equal
        distributions share a row.
    """

    def __init__(self, rng, los):
        self._rng = rng
        self.uniforms = array("d")
        distinct, self.rows = [], []
        for dist in (d for slots in los for d in slots):
            if dist not in distinct:
                distinct.append(dist)
                self.rows.append(array("d"))
        self.cells = [[(d, self.rows[distinct.index(d)]) for d in slots] for slots in los]

    def value(self, tag, slot, k):
        """The LOS of the k-th service start under the (tag, slot) distribution."""
        dist, values = self.cells[tag][slot]
        while k >= len(values):
            self.uniforms.frombytes(self._rng.random(UNIFORM_BLOCK).tobytes())
            for row in self.rows:
                row.extend(_UNSET_BLOCK)
        x = values[k]
        if x != x:
            x = values[k] = dist.sample(self.uniforms, k)
        return x


def t_critical(df):
    """Two-sided 95% Student-t critical value (one-sided level 0.975)."""
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.975))


def summarize(values):
    """(mean, 95% Student-t confidence half-width) of per-replication values."""
    values = list(values)
    n = len(values)
    if n < 2:
        raise ValueError(f"need at least 2 replication values, got {n}")
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half_width = t_critical(n - 1) * math.sqrt(var / n)
    return mean, half_width
