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
from functools import lru_cache
from types import MappingProxyType

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


@dataclass(frozen=True)
class ArrivalProcess:
    """Day-periodic piecewise-constant-rate Poisson arrivals for one (ED, tag).

    `slot_rates` is a tuple of one per-minute rate per 8-hour slot.  If every
    rate is zero the process never produces an arrival and arrival_times
    returns an empty array.
    """

    slot_rates: tuple

    def __post_init__(self):
        rates = [finite_number(r, f"slot_rates[{k}]") for k, r in enumerate(self.slot_rates)]
        if len(rates) != SLOTS_PER_DAY:
            raise ValueError(f"expected {SLOTS_PER_DAY} slot rates, got {len(rates)}")
        if any(r < 0 for r in rates):
            raise ValueError(f"arrival rates must be non-negative, got {rates}")
        object.__setattr__(self, "slot_rates", tuple(rates))
        # cumulative intensity at the end of each slot, from day start
        object.__setattr__(self, "_cum", np.cumsum([r * SLOT_MINUTES for r in rates]))
        object.__setattr__(self, "day_intensity", float(self._cum[-1]))

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
        cum = np.cumsum(rng.exponential(size=max(64, n0)))
        # np.cumsum adds in sequence, so more draws with the running sum added
        # to the first of them extend the same cumulative sum; the stream has
        # no other reader, so how many more does not change the times
        while self._invert(cum[-1:])[0] < horizon:
            more = rng.exponential(size=len(cum))
            more[0] += cum[-1]
            cum = np.concatenate((cum, np.cumsum(more)))
        times = self._invert(cum)
        return times[times < horizon]


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


@dataclass(frozen=True)
class LosDistribution:
    """Length-of-stay distribution for one delay code (ED, slot, tag).

    Parameters are canonicalized at construction, into a read-only mapping:

    - exponential: mean
    - lognormal:   mu/sigma of the underlying normal, or mean/cv
    - gamma:       shape/scale, or mean/cv
    - weibull:     shape/scale
    - empirical:   values (sampled uniformly)

    Each family takes one complete spelling of LOS_PARAMS.  Every parameter
    must be finite and positive, except a lognormal's mu, and empirical
    values a non-empty list; anything else is a ValueError.
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
        given = [names for names in spellings if any(key in self.params for key in names)]
        if len(given) > 1:
            raise ValueError(f"{self.family} LOS takes {expected}, not both")
        p = {}
        for key, value in self.params.items():
            if key != "values":
                p[key] = finite_number(value, key)
            elif isinstance(value, (list, tuple)) and value:
                p[key] = tuple(finite_number(v, f"{key}[{k}]") for k, v in enumerate(value))
            else:
                raise ValueError(f"{key}: expected a non-empty list, got {value!r}")
        if not given or len(p) < len(given[0]):
            raise ValueError(f"{self.family} LOS needs {expected}, got {p}")
        if any(min(v) <= 0 if key == "values" else v <= 0 for key, v in p.items() if key != "mu"):
            raise ValueError(f"{self.family} LOS parameters but mu must be positive, got {p}")
        cv = p.get("cv")
        if cv is None:
            p = {key: p[key] for key in given[0]}
        else:
            if self.family == "lognormal":
                sigma2 = math.log(1.0 + cv * cv)
                p = {"mu": math.log(p["mean"]) - sigma2 / 2.0, "sigma": math.sqrt(sigma2)}
            else:  # gamma; cv * cv may round to 0
                cv2 = cv * cv
                p = {"shape": 1.0 / cv2 if cv2 else math.inf, "scale": p["mean"] * cv * cv}
            # a cv near 0 or past the float range rounds to a degenerate distribution
            if not all(math.isfinite(v) and (v > 0.0 or key == "mu") for key, v in p.items()):
                raise ValueError(f"{self.family} LOS mean/cv give degenerate parameters {p}")
        # params is read-only; quantile reads the same values from a plain dict
        object.__setattr__(self, "_p", p)
        object.__setattr__(self, "params", MappingProxyType(p))
        # scipy takes about 0.25 s to import, so only gamma visit times load it,
        # and only lognormal ones load statistics
        if self.family == "gamma":
            from scipy.special import gammaincinv

            object.__setattr__(self, "_inverse", gammaincinv)
        elif self.family == "lognormal":
            from statistics import NormalDist

            object.__setattr__(self, "_inverse", NormalDist().inv_cdf)

    @property
    def mean(self):
        """The distribution's mean in minutes, in closed form; inf past the largest float."""
        p = self.params
        try:
            if self.family == "exponential":
                return p["mean"]
            if self.family == "lognormal":
                return math.exp(p["mu"] + p["sigma"] ** 2 / 2.0)
            if self.family == "gamma":
                return p["shape"] * p["scale"]
            if self.family == "weibull":
                return p["scale"] * math.gamma(1.0 + 1.0 / p["shape"])
            return sum(p["values"]) / len(p["values"])
        except OverflowError:
            return math.inf

    def __reduce__(self):
        # a mappingproxy does not pickle: rebuild from the canonical parameters
        return LosDistribution, (self.family, self._p)

    def quantile(self, u):
        """Inverse CDF at u in [0, 1); one uniform per sample."""
        p = self._p
        if self.family == "exponential":
            x = -p["mean"] * math.log(1.0 - u)
        elif self.family == "lognormal":
            # inv_cdf rejects 0, whose quantile is 0
            x = math.exp(p["mu"] + p["sigma"] * self._inverse(u)) if u else 0.0
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
    the plan.  The store draws the uniforms UNIFORM_BLOCK at a time, the
    first block when it is made (PCG64 fills an array with the same doubles
    as successive scalar calls, and the stream has no other reader), and
    keeps one row of values per distinct distribution of the ED, NaN until
    the first replication that needs that (distribution, k) computes it.
    Every row reaches at least one index past the highest k computed, so
    the event loops read the next start's value as table[tag][slot][k].

    rng: the ED's visit-time stream for the seed.
    los: the ED's [tag][slot] table of LosDistribution.
    cells: the same table of (distribution, its row of values); equal
        distributions share a row.
    table: the same table of rows alone.
    """

    def __init__(self, rng, los):
        self._rng = rng
        self.uniforms = array("d", rng.random(UNIFORM_BLOCK).tobytes())
        distinct, self.rows = [], []
        for dist in (d for slots in los for d in slots):
            if dist not in distinct:
                distinct.append(dist)
                self.rows.append(array("d", _UNSET_BLOCK))
        self.cells = [[(d, self.rows[distinct.index(d)]) for d in slots] for slots in los]
        self.table = [[row for _, row in slots] for slots in self.cells]

    def value(self, tag, slot, k):
        """The LOS of the k-th service start under the (tag, slot) distribution."""
        dist, values = self.cells[tag][slot]
        while k + 1 >= len(values):
            self.uniforms.frombytes(self._rng.random(UNIFORM_BLOCK).tobytes())
            for row in self.rows:
                row.extend(_UNSET_BLOCK)
        x = values[k]
        if x != x:
            x = values[k] = dist.sample(self.uniforms, k)
        return x


@lru_cache(maxsize=None)
def t_critical(df):
    """Two-sided 95% Student-t critical value (one-sided level 0.975) for integer df >= 1.

    Newton's method on P(|T| <= t) = 0.95, in its closed form for integer
    df (Abramowitz & Stegun 26.7.3-4: atan for odd df, then a series in
    cos^2).  That probability is concave in t > 0, so the iterates rise from
    the normal quantile to the root.
    """
    odd = df % 2
    # the density at t is density * c2 ** ((df + 1) / 2)
    density = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(math.pi * df)
    t = 1.959963984540054
    while True:
        c2 = df / (df + t * t)  # cos^2 of atan(t / sqrt(df))
        term = total = 1.0
        for k in range(1, df // 2):
            term *= c2 * (2 * k - 1 + odd) / (2 * k + odd)
            total += term
        sin = t / math.sqrt(df + t * t)
        if odd:
            theta = math.atan(t / math.sqrt(df))
            prob = 2.0 / math.pi * (theta + (sin * math.sqrt(c2) * total if df > 1 else 0.0))
        else:
            prob = sin * total
        step = (0.95 - prob) / (2.0 * density * c2 ** ((df + 1) / 2))
        if t + step <= t:
            return t
        t += step


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
