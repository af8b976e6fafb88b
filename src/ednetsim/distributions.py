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


class ArrivalProcess:
    """Day-periodic piecewise-constant-rate Poisson arrivals for one (ED, tag).

    `slot_rates` is a tuple of one per-minute rate per 8-hour slot.  If every
    rate is zero the process never produces an arrival and arrival_times
    returns an empty array.
    """

    def __init__(self, slot_rates):
        rates = [finite_number(r, f"slot_rates[{k}]") for k, r in enumerate(slot_rates)]
        if len(rates) != SLOTS_PER_DAY:
            raise ValueError(f"expected {SLOTS_PER_DAY} slot rates, got {len(rates)}")
        if any(r < 0 for r in rates):
            raise ValueError(f"arrival rates must be non-negative, got {rates}")
        self.slot_rates = tuple(rates)
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


# Cephes ndtri (S. L. Moshier), the inverse normal CDF that scipy.special.ndtri
# runs: the same coefficients, region split and Horner order give the same
# doubles.  P0/Q0 cover exp(-2) < y < 1 - exp(-2); P1/Q1 and P2/Q2 the tails,
# split at x = sqrt(-2 log y) = 8.  Q* omit their leading coefficient 1.
_EXPM2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def ndtri(y):
    """Inverse of the standard normal CDF; -inf at 0, +inf at 1, NaN outside [0, 1]."""
    if not 0.0 < y < 1.0:
        return -math.inf if y == 0.0 else math.inf if y == 1.0 else math.nan
    upper = y > 1.0 - _EXPM2
    if upper:
        y = 1.0 - y
    if y > _EXPM2:
        y -= 0.5
        y2 = y * y
        p, q = _P0, _Q0
        num = (((p[0] * y2 + p[1]) * y2 + p[2]) * y2 + p[3]) * y2 + p[4]
        den = (((((((y2 + q[0]) * y2 + q[1]) * y2 + q[2]) * y2 + q[3]) * y2 + q[4]) * y2
                 + q[5]) * y2 + q[6]) * y2 + q[7]
        return (y + y * (y2 * num / den)) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    num = (((((((p[0] * z + p[1]) * z + p[2]) * z + p[3]) * z + p[4]) * z + p[5]) * z
             + p[6]) * z + p[7]) * z + p[8]
    den = (((((((z + q[0]) * z + q[1]) * z + q[2]) * z + q[3]) * z + q[4]) * z + q[5]) * z
           + q[6]) * z + q[7]
    x = x - math.log(x) / x - z * num / den
    return x if upper else -x


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
        self._p = p
        self.params = MappingProxyType(p)
        if self.family == "gamma":
            # scipy takes about 0.25 s to import, so only gamma visit times load it
            from scipy.special import gammaincinv

            self._inverse = gammaincinv

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
            x = math.exp(p["mu"] + p["sigma"] * ndtri(u))
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
