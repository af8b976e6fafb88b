"""Arrival-process, visit-time, and statistics tests."""

import importlib.util
import math
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ednetsim
from ednetsim.distributions import (
    LOS_PARAMS,
    SLOT_MINUTES,
    SLOTS_PER_DAY,
    UNIFORM_BLOCK,
    ArrivalProcess,
    LosDistribution,
    LosStore,
    rate_from_annual_count,
    summarize,
    t_critical,
)
from ednetsim.engine import RandomStreams


def test_rate_from_annual_count():
    assert rate_from_annual_count(2688) == pytest.approx(0.015342, abs=1e-6)
    assert rate_from_annual_count(0) == 0.0


def test_arrival_process_validation():
    with pytest.raises(ValueError):
        ArrivalProcess([0.1, 0.1])
    with pytest.raises(ValueError):
        ArrivalProcess([0.1, -0.1, 0.1])
    # every rate is a finite number, named by its index
    for bad, message in (
        (math.nan, "expected a finite number"),
        (math.inf, "expected a finite number"),
        (-math.inf, "expected a finite number"),
        (True, "expected a number"),
        ("0.1", "expected a number"),
    ):
        with pytest.raises(ValueError, match=rf"^slot_rates\[1\]: {message}"):
            ArrivalProcess([0.1, bad, 0.1])


def test_cumulative_intensity_piecewise():
    proc = ArrivalProcess([0.1, 0.0, 0.2])
    assert proc.cumulative_intensity(0.0) == 0.0
    assert proc.cumulative_intensity(480.0) == pytest.approx(48.0)
    assert proc.cumulative_intensity(960.0) == pytest.approx(48.0)  # dead slot
    assert proc.cumulative_intensity(1440.0) == pytest.approx(144.0)
    # mid-slot and next-day points
    assert proc.cumulative_intensity(240.0) == pytest.approx(24.0)
    assert proc.cumulative_intensity(1440.0 + 10.0) == pytest.approx(145.0)


def test_inversion_round_trip():
    proc = ArrivalProcess([0.05, 0.0, 0.2])
    rng = np.random.default_rng(3)
    u = np.sort(rng.uniform(0.0, 5 * proc.day_intensity, size=200))
    t = proc._invert(u)
    back = np.array([proc.cumulative_intensity(v) for v in t])
    assert np.allclose(back, u, atol=1e-9)
    # inverted times never land inside the zero-rate slot
    rem = t % 1440.0
    assert not np.any((rem >= 480.0) & (rem < 960.0))


def sample_interarrival(proc, clock, rng):
    """Gap from `clock` to the next arrival of `proc`, or None if all rates are zero.

    The sequential reference for ArrivalProcess.arrival_times: draws
    E ~ Exp(1) and consumes intensity across slot boundaries until E is
    exhausted.
    """
    if proc.day_intensity == 0.0:
        return None
    e = rng.exponential()
    t = clock
    while True:
        slot = int(t // SLOT_MINUTES) % SLOTS_PER_DAY
        slot_end = (math.floor(t / SLOT_MINUTES) + 1) * SLOT_MINUTES
        lam = proc.slot_rates[slot]
        if lam > 0.0:
            capacity = lam * (slot_end - t)
            if e <= capacity:
                return t + e / lam - clock
            e -= capacity
        t = slot_end


def test_block_generation_matches_sequential():
    proc = ArrivalProcess([0.004, 0.0, 0.013])
    horizon = 60 * 1440.0
    block = proc.arrival_times(horizon, RandomStreams(11).get(0, "arrival-yellow"))

    rng = RandomStreams(11).get(0, "arrival-yellow")
    seq, t = [], 0.0
    while True:
        t += sample_interarrival(proc, t, rng)
        if t >= horizon:
            break
        seq.append(t)
    assert len(block) == len(seq)
    assert np.allclose(block, np.array(seq), atol=1e-8)


def test_arrival_times_sorted_and_in_range():
    proc = ArrivalProcess([0.02, 0.05, 0.01])
    times = proc.arrival_times(90 * 1440.0, np.random.default_rng(5))
    assert np.all(np.diff(times) > 0)
    assert times[0] >= 0.0 and times[-1] < 90 * 1440.0


def test_zero_rate_process():
    proc = ArrivalProcess([0.0, 0.0, 0.0])
    assert proc.day_intensity == 0.0
    assert sample_interarrival(proc, 0.0, np.random.default_rng(1)) is None
    assert len(proc.arrival_times(1440.0, np.random.default_rng(1))) == 0


@pytest.mark.parametrize("rate", [5e-324, 1e-310])
def test_near_zero_rate_process_has_no_arrivals(rate):
    # the inverse intensity overflows to +inf, past the horizon, without a
    # RuntimeWarning (the suite turns those into errors)
    proc = ArrivalProcess([rate, 0.0, rate])
    assert len(proc.arrival_times(3 * 1440.0, np.random.default_rng(1))) == 0


def test_nhpp_slot_counts_match_rates():
    # 1000 days of the three-slot profile; each slot's count within 2%
    counts = [875, 2688, 2279]
    proc = ArrivalProcess([rate_from_annual_count(c) for c in counts])
    days = 1000
    times = proc.arrival_times(days * 1440.0, RandomStreams(13).get(0, "arrival-yellow"))
    slots = ((times % 1440.0) // SLOT_MINUTES).astype(int)
    observed = np.bincount(slots, minlength=3)
    expected = np.array([rate_from_annual_count(c) * SLOT_MINUTES * days for c in counts])
    assert np.all(np.abs(observed - expected) / expected < 0.02)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
def test_block_uniforms_equal_scalar_draws(seed):
    # two and a half blocks: the sequence runs on across block boundaries.
    # The loops read a start's value as table[tag][slot][k] with no bounds
    # check: a fresh store's rows hold NaN at 0, and after value(k) every
    # row, including the red one that is never read here, reaches past k + 1
    n = 2 * UNIFORM_BLOCK + UNIFORM_BLOCK // 2
    scalar = np.random.Generator(np.random.PCG64(seed))
    dist = LosDistribution("exponential", {"mean": 30.0})
    red = [LosDistribution("exponential", {"mean": 60.0})] * SLOTS_PER_DAY
    store = LosStore(np.random.Generator(np.random.PCG64(seed)), [[dist] * SLOTS_PER_DAY, red])
    assert len(store.rows) == 2
    assert all(math.isnan(row[0]) for slots in store.table for row in slots)
    values = []
    for k in range(n):
        values.append(store.value(0, 0, k))
        assert min(map(len, store.rows)) > k + 1
    draws = [scalar.random() for _ in range(n)]
    assert store.uniforms.tolist()[:n] == draws
    assert values == [dist.quantile(u) for u in draws]


def test_exponential_los():
    dist = LosDistribution("exponential", {"mean": 30.0})
    assert dist.quantile(0.0) == pytest.approx(1e-12)
    assert dist.quantile(1.0 - math.exp(-1.0)) == pytest.approx(30.0)
    u = np.random.default_rng(8).random(20000).tolist()
    draws = [dist.sample(u, k) for k in range(20000)]
    assert np.mean(draws) == pytest.approx(30.0, rel=0.03)


def test_lognormal_parameterizations_agree():
    by_moments = LosDistribution("lognormal", {"mean": 100.0, "cv": 0.8})
    mu, sigma = by_moments.params["mu"], by_moments.params["sigma"]
    direct = LosDistribution("lognormal", {"mu": mu, "sigma": sigma})
    for u in (0.1, 0.5, 0.9):
        assert by_moments.quantile(u) == pytest.approx(direct.quantile(u))
    # moments recovered by sampling
    u = np.random.default_rng(2).random(40000).tolist()
    draws = np.array([by_moments.sample(u, k) for k in range(40000)])
    assert draws.mean() == pytest.approx(100.0, rel=0.03)
    assert draws.std() / draws.mean() == pytest.approx(0.8, rel=0.05)


def test_gamma_mean_cv():
    dist = LosDistribution("gamma", {"mean": 60.0, "cv": 0.5})
    assert dist.params["shape"] == pytest.approx(4.0)
    assert dist.params["scale"] == pytest.approx(15.0)
    u = np.random.default_rng(4).random(30000).tolist()
    draws = np.array([dist.sample(u, k) for k in range(30000)])
    assert draws.mean() == pytest.approx(60.0, rel=0.03)


def test_weibull_quantile():
    dist = LosDistribution("weibull", {"shape": 2.0, "scale": 10.0})
    # median of Weibull(k, lam) is lam * ln(2)^(1/k)
    assert dist.quantile(0.5) == pytest.approx(10.0 * math.log(2.0) ** 0.5)


def test_empirical_los():
    dist = LosDistribution("empirical", {"values": [5.0, 10.0, 20.0]})
    assert dist.quantile(0.0) == 5.0
    assert dist.quantile(0.5) == 10.0
    assert dist.quantile(0.999) == 20.0


LOS_CASES = [
    ("exponential", {"mean": 30.0}),
    ("lognormal", {"mean": 100.0, "cv": 0.8}),
    ("lognormal", {"mu": 3.0, "sigma": 0.5}),
    ("gamma", {"mean": 45.0, "cv": 0.7}),
    ("gamma", {"shape": 2.0, "scale": 12.0}),
    ("weibull", {"shape": 1.5, "scale": 25.0}),
    ("empirical", {"values": [5.0, 10.0, 20.0, 7.5]}),
]


@pytest.mark.parametrize("family, params", LOS_CASES)
def test_los_mean_is_the_integral_of_the_quantile(family, params):
    # the mean is the integral of the quantile over (0, 1): the midpoint rule
    dist = LosDistribution(family, params)
    n = 10**5
    midpoints = sum(dist.quantile((j + 0.5) / n) for j in range(n)) / n
    assert dist.mean == pytest.approx(midpoints, rel=1e-3)
    if "cv" in params:
        assert dist.mean == pytest.approx(params["mean"], rel=1e-12)


@pytest.mark.parametrize("family, params", LOS_CASES)
def test_los_parameters_are_read_only_and_pickle(family, params):
    dist = LosDistribution(family, params)
    with pytest.raises(TypeError):
        dist.params["scale"] = 1.0
    copy = pickle.loads(pickle.dumps(dist))
    assert copy == dist and copy.params == dist.params
    assert [copy.quantile(u) for u in (0.0, 0.3, 0.99)] == [dist.quantile(u) for u in (0.0, 0.3, 0.99)]
    # equal distributions, however made, share one row of a LosStore
    slots = [dist, LosDistribution(family, params), copy]
    store = LosStore(np.random.Generator(np.random.PCG64(1)), [slots, slots])
    assert len(store.rows) == 1


def test_los_mean_past_the_largest_float_is_inf():
    assert LosDistribution("lognormal", {"mu": 0.0, "sigma": 40.0}).mean == math.inf
    assert LosDistribution("weibull", {"shape": 0.001, "scale": 1.0}).mean == math.inf


def test_quantile_monotone_in_u():
    for family, params in [
        ("exponential", {"mean": 30.0}),
        ("lognormal", {"mean": 100.0, "cv": 1.2}),
        ("gamma", {"mean": 45.0, "cv": 0.7}),
        ("weibull", {"shape": 1.5, "scale": 25.0}),
    ]:
        dist = LosDistribution(family, params)
        qs = [dist.quantile(u) for u in np.linspace(0.01, 0.99, 25)]
        assert all(a < b for a, b in zip(qs, qs[1:]))


def test_los_validation_errors():
    with pytest.raises(ValueError):
        LosDistribution("normal", {"mean": 1.0})
    with pytest.raises(ValueError):
        LosDistribution("exponential", {"mean": -3.0})
    with pytest.raises(ValueError):
        LosDistribution("lognormal", {"mean": 100.0})
    with pytest.raises(ValueError):
        LosDistribution("gamma", {"shape": 2.0})
    with pytest.raises(ValueError):
        LosDistribution("weibull", {"shape": 0.0, "scale": 1.0})
    with pytest.raises(ValueError):
        LosDistribution("empirical", {"values": []})
    with pytest.raises(ValueError):
        LosDistribution("empirical", {"values": [3.0, -1.0]})
    # non-numeric, boolean and non-finite parameters
    with pytest.raises(ValueError, match="expected a number"):
        LosDistribution("exponential", {"mean": "abc"})
    with pytest.raises(ValueError, match="expected a number"):
        LosDistribution("exponential", {"mean": True})
    with pytest.raises(ValueError, match="expected a finite number"):
        LosDistribution("exponential", {"mean": math.inf})
    with pytest.raises(ValueError, match="expected a finite number"):
        LosDistribution("lognormal", {"mean": 30.0, "cv": math.nan})
    with pytest.raises(ValueError, match="expected a finite number"):
        LosDistribution("gamma", {"shape": 2.0, "scale": 10**400})
    with pytest.raises(ValueError, match="expected a finite number"):
        LosDistribution("empirical", {"values": [1, math.inf]})
    with pytest.raises(ValueError, match="expected a number"):
        LosDistribution("empirical", {"values": [1, None]})
    with pytest.raises(ValueError, match="non-empty list"):
        LosDistribution("empirical", {"values": 5})
    # a name the family does not take, or both ways of giving its parameters
    with pytest.raises(ValueError, match="^meen: unknown exponential LOS parameter"):
        LosDistribution("exponential", {"mean": 30.0, "meen": 40.0})
    with pytest.raises(ValueError, match="^mu: unknown weibull LOS parameter; expected shape/scale$"):
        LosDistribution("weibull", {"shape": 1.5, "scale": 25.0, "mu": 1.0})
    with pytest.raises(ValueError, match="^values: unknown gamma LOS parameter"):
        LosDistribution("gamma", {"shape": 2.0, "scale": 10.0, "values": [1.0]})
    with pytest.raises(ValueError, match="takes mean/cv or mu/sigma, not both"):
        LosDistribution("lognormal", {"mean": 30.0, "cv": 0.5, "mu": 3.0, "sigma": 0.5})
    with pytest.raises(ValueError, match="takes mean/cv or shape/scale, not both"):
        LosDistribution("gamma", {"mean": 30.0, "cv": 0.5, "shape": 4.0})


PARAM_NAMES = sorted({key for spellings in LOS_PARAMS.values() for key in sum(spellings, ())})
# visit times in minutes and coefficients of variation; a mean/cv pair far
# outside this range (cv beyond about 1e+-150) gives non-finite or zero
# canonical parameters, which test_degenerate_mean_cv_rejected covers
_positive = st.floats(1e-6, 1e6)
_number = st.one_of(
    _positive,
    _positive,
    _positive,
    _positive.map(lambda x: -x),
    st.sampled_from([0, 0.0, -0.0, 7, math.inf, -math.inf, math.nan, 10**400, -(10**400)]),
)
_value = st.one_of(_number, _number, _number, st.sampled_from(["30", True, None]), st.lists(_number))


@st.composite
def _los_dicts(draw):
    """A family and a parameter dict: mostly one full spelling, else part of it; maybe one more name."""
    family = draw(st.sampled_from(sorted(LOS_PARAMS)))
    spelling = draw(st.sampled_from(LOS_PARAMS[family]))
    keys = set(spelling) if draw(st.integers(0, 3)) else draw(st.sets(st.sampled_from(spelling)))
    if not draw(st.integers(0, 3)):
        keys.add(draw(st.sampled_from(PARAM_NAMES)))
    values = st.one_of(st.lists(_number, max_size=3), st.lists(_positive, min_size=1), _value)
    return family, {key: draw(values if key == "values" else _value) for key in sorted(keys)}


def _is_valid(key, value):
    """The rule for one parameter: finite and positive (any finite mu), values a non-empty list."""
    if key == "values" and not (isinstance(value, list) and value):
        return False
    return all(
        not isinstance(v, bool)
        and isinstance(v, (int, float))
        and -sys.float_info.max <= v <= sys.float_info.max
        and (key == "mu" or v > 0)
        for v in (value if key == "values" else [value])
    )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_los_dicts())
def test_los_parameter_rule(case):
    family, params = case
    complete = any(set(params) == set(names) for names in LOS_PARAMS[family])
    if not (complete and all(_is_valid(key, value) for key, value in params.items())):
        with pytest.raises(ValueError):
            LosDistribution(family, params)
        return
    dist = LosDistribution(family, params)
    if "cv" not in params:
        assert dist.params == {key: float(value) if key != "values" else tuple(map(float, value))
                               for key, value in params.items()}
        return
    # the closed forms, as the bundled scenarios' CSVs were made with them
    mean, cv = params["mean"], params["cv"]
    if family == "lognormal":
        sigma2 = math.log(1.0 + cv * cv)
        assert dist.params == {"mu": math.log(mean) - sigma2 / 2.0, "sigma": math.sqrt(sigma2)}
    else:
        assert dist.params == {"shape": 1.0 / (cv * cv), "scale": mean * cv * cv}
    assert dist.mean == pytest.approx(mean, rel=1e-9)


@pytest.mark.parametrize(
    "family, cv",
    [("gamma", 1e-200), ("gamma", 1e-160), ("gamma", 1e200), ("lognormal", 1e-200),
     ("lognormal", 1e200)],
)
def test_degenerate_mean_cv_rejected(family, cv):
    # cv * cv rounds to 0, to a subnormal or to inf, so the closed forms give
    # a zero, infinite or NaN parameter: a ValueError, which a scenario file
    # reports with its key path
    with pytest.raises(ValueError, match=f"^{family} LOS mean/cv give degenerate parameters"):
        LosDistribution(family, {"mean": 1.0, "cv": cv})


def test_importing_the_cli_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats takes longer to import than all of ednetsim's other imports,
    # and scipy.special, which only gamma visit times need, about 0.25 s
    src = str(Path(ednetsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"

    def exit_code(code):
        return subprocess.run([sys.executable, "-c", code], env=env).returncode

    assert exit_code("import sys, ednetsim.cli; sys.exit('scipy.stats' in sys.modules)") == 0
    scipy = "any(name == 'scipy' or name.startswith('scipy.') for name in sys.modules)"
    # exponential visit times, and calibration reports no confidence interval:
    # neither scipy nor statistics is loaded
    argv = ["calibrate", "--scenario", str(scenarios / "calibration_demo.yaml"),
            "--replications", "1", "--bounds", "2", "3", "--out", str(tmp_path)]
    code = (f"import sys; from ednetsim.cli import main; "
            f"sys.exit(main({argv!r}) or {scipy} or 'statistics' in sys.modules)")
    assert exit_code(code) == 0
    assert (tmp_path / "calibrated_plan.csv").exists()
    # lognormal visit times load statistics (its inverse normal CDF), and
    # they and confidence intervals (t_critical) load no scipy module at all
    lazio = scenarios / "lazio_synthetic.yaml"
    argv = ["optimize", "--scenario", str(lazio), "--budget", "2", "--replications", "2",
            "--out", str(tmp_path / "lazio")]
    code = (f"import sys; from ednetsim.cli import main; "
            f"sys.exit(main({argv!r}) or {scipy} or 'statistics' not in sys.modules)")
    assert exit_code(code) == 0
    assert (tmp_path / "lazio" / "optimal_plan_P1.csv").exists()
    # gamma visit times load scipy.special as the scenario is parsed
    gamma = tmp_path / "gamma.yaml"
    gamma.write_text(lazio.read_text().replace("family: lognormal", "family: gamma"))
    code = (f"import sys; from ednetsim import parse_scenario; parse_scenario({str(gamma)!r}); "
            "sys.exit('scipy.special' not in sys.modules)")
    assert exit_code(code) == 0


def test_t_critical_values():
    assert t_critical(2) == pytest.approx(4.3027, abs=2e-4)
    assert t_critical(9) == pytest.approx(2.2622, abs=2e-4)
    assert t_critical(29) == pytest.approx(2.0452, abs=2e-4)
    assert t_critical(1) == pytest.approx(12.7062, abs=2e-4)


def test_t_critical_matches_scipy():
    from scipy.special import stdtrit

    for df in [*range(1, 201), 1000]:
        assert t_critical(df) == pytest.approx(float(stdtrit(df, 0.975)), rel=1e-12, abs=0.0)


def _normal_quantile_points():
    """Uniforms, both tails down to 1e-300, and the region edges of Cephes and AS241."""
    rng = np.random.default_rng(20240611)
    uniforms = rng.random(200_000)
    tails = 10.0 ** rng.uniform(-300.0, 0.0, 20_000)
    edges = []
    # Cephes splits at exp(-2) and 1 - exp(-2), AS241 at 0.5 +- 0.425 and at
    # the p whose sqrt(-log p) is 5
    for e in (0.13533528323661269189, math.exp(-2.0), 0.075, math.exp(-25.0)):
        for y in (e, 1.0 - e):
            edges += [y, math.nextafter(y, 0.0), math.nextafter(y, 1.0)]
    edges += [5e-324, 0.5]
    points = [*uniforms.tolist(), *tails.tolist(), *(1.0 - tails).tolist(), *edges]
    return [u for u in points if 0.0 < u < 1.0]


def test_lognormal_quantile_matches_scipy_ndtri():
    from scipy.special import ndtri

    points = _normal_quantile_points()
    for params in ({"mean": 146.9, "cv": 0.8}, {"mu": 4.0, "sigma": 1.3}):
        dist = LosDistribution("lognormal", params)
        mu, sigma = dist.params["mu"], dist.params["sigma"]
        want = np.exp(mu + sigma * ndtri(np.array(points)))
        assert want.min() > 0.0
        for u, x in zip(points, want.tolist()):
            assert math.isclose(dist.quantile(u), x, rel_tol=1e-13, abs_tol=0.0), u
        # u = 0 maps to the lower endpoint 0, floored to keep samples positive
        assert dist.quantile(0.0) == 1e-12


@pytest.mark.skipif(importlib.util.find_spec("_statistics") is None,
                    reason="statistics has no C inverse normal CDF here")
def test_lognormal_quantile_same_in_c_and_python(monkeypatch):
    # statistics takes its inverse normal CDF from the C module _statistics
    # when it is there: both versions must give the same doubles, so that the
    # CSVs do not depend on which one the interpreter has
    params = {"mean": 146.9, "cv": 0.8}
    with_c = LosDistribution("lognormal", params)
    monkeypatch.setitem(sys.modules, "_statistics", None)
    monkeypatch.delitem(sys.modules, "statistics")
    importlib.import_module("statistics")
    without_c = LosDistribution("lognormal", params)

    def backend(dist):
        return dist._inverse.__func__.__globals__["_normal_dist_inv_cdf"]

    assert isinstance(backend(without_c), types.FunctionType)
    assert not isinstance(backend(with_c), types.FunctionType)
    for u in _normal_quantile_points():
        assert without_c.quantile(u) == with_c.quantile(u), u


def test_summarize_hand_value():
    mean, half_width = summarize([10.0, 12.0, 14.0])
    assert mean == pytest.approx(12.0)
    assert half_width == pytest.approx(4.3027 * 2.0 / math.sqrt(3.0), abs=1e-3)


def test_summarize_requires_two_values():
    with pytest.raises(ValueError):
        summarize([1.0])


def test_summarize_zero_variance():
    assert summarize([7.0, 7.0, 7.0, 7.0]) == (7.0, 0.0)
