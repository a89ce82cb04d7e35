"""Known-answer tests of the benchmark's oracles, span recorder and tail.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
Every expected value here comes from a definition or a hand
calculation, never from the program under test.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_pwm_recovers_a_known_gumbel():
    rng = np.random.default_rng(20140601)
    sample = rng.gumbel(loc=1000.0, scale=50.0, size=200_000)
    location, scale = oracles.gumbel_pwm(sample)
    assert location == pytest.approx(1000.0, rel=2e-3)
    assert scale == pytest.approx(50.0, rel=2e-2)


def test_pwcet_inverts_the_block_maximum_survival_function():
    rng = np.random.default_rng(7)
    sample = rng.gumbel(loc=500.0, scale=20.0, size=2000)
    block, p = 25, 1e-15
    location, scale = oracles.gumbel_pwm(oracles.block_maxima(sample, block))
    block_p = 1.0 - (1.0 - p) ** block  # ~ block * p
    assert block_p == pytest.approx(block * p, rel=1e-6)
    want = stats.gumbel_r.isf(block * p, loc=location, scale=scale)
    got = oracles.gumbel_pwm_pwcet(sample, p, block)
    assert got == pytest.approx(want, rel=1e-6)
    assert got > sample.max()


def test_pwcet_of_a_constant_sample_is_the_constant():
    assert oracles.gumbel_pwm_pwcet([42.0] * 100, 1e-15, 10) == 42.0


def test_block_maxima_drop_the_partial_block():
    assert list(oracles.block_maxima([1, 5, 2, 3, 9, 4, 100], 3)) == [5, 9]
    with pytest.raises(ValueError):
        oracles.block_maxima([1, 2, 3], 2)


def test_runs_z_by_hand():
    # Median 5.5: five below then five above, so 2 runs; null mean 6,
    # variance 2*25*(50-10)/(100*9).
    z = oracles.runs_z(list(range(1, 11)))
    assert z == pytest.approx((2 - 6) / math.sqrt(2000 / 900), rel=1e-12)
    # Strict alternation: 10 runs, the largest possible.
    alternating = [1, 10, 2, 9, 3, 8, 4, 7, 5, 6]
    assert oracles.runs_z(alternating) == pytest.approx(
        (10 - 6) / math.sqrt(2000 / 900), rel=1e-12)


def test_runs_z_drops_ties_with_the_median():
    assert oracles.runs_z([3, 3, 3, 3, 3]) == 0.0
    assert oracles.runs_z([1, 5, 5, 5, 9, 1, 9]) == oracles.runs_z([1, 9, 1, 9])


def test_ks_halves_extremes():
    d, p = oracles.ks_halves([1, 2, 3, 4, 1, 2, 3, 4])
    assert (d, p) == (0.0, 1.0)
    d, p = oracles.ks_halves(list(range(50)) + list(range(100, 150)))
    assert d == 1.0
    assert p < 1e-10


def _stephens_p(d: float, n1: int, n2: int) -> float:
    """Numerical Recipes' Q_KS with the Stephens small-sample factor."""
    ne = n1 * n2 / (n1 + n2)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    if lam <= 0:
        return 1.0
    total = sum(2 * (-1) ** (j - 1) * math.exp(-2 * j * j * lam * lam)
                for j in range(1, 101))
    return min(max(total, 0.0), 1.0)


@pytest.mark.parametrize("runs", [240, 1000])
def test_ks_p_tolerance_covers_every_attainable_statistic(runs):
    """The check tolerance bounds the Stephens-vs-SciPy gap at every D."""
    half = runs // 2
    en = half * half / runs
    gap = max(
        abs(_stephens_p(k / half, half, half)
            - float(stats.kstwo.sf(k / half, round(en))))
        for k in range(1, half + 1)
    )
    assert gap <= oracles.KS_P_ATOL


def test_best_partition_by_hand():
    instructions = {"A": 100, "B": 100}
    # A gains a lot from a second way, B nothing: (2, 1) is best on 3
    # ways, and (2, 2) ties it on 4 ways, where the first maximum wins.
    pwcet = {("A", 1): 400.0, ("A", 2): 200.0,
             ("B", 1): 100.0, ("B", 2): 100.0}
    assert oracles.best_partition(["A", "B"], instructions, pwcet, 3, (1, 2)) \
        == ((2, 1), pytest.approx(0.5 + 1.0))
    best, value = oracles.best_partition(["A", "B"], instructions, pwcet, 4,
                                         (1, 2))
    assert best == (2, 1) and value == pytest.approx(1.5)
    assert oracles.partitions(2, 3, (1, 2)) == [(1, 1), (1, 2), (2, 1)]


def test_tail_is_the_last_percentile_with_ten_beyond():
    values = list(range(1, 601))
    assert workloads.tail(values) == pytest.approx(
        np.percentile(values, 98, method="weibull"))
    assert workloads.tail(list(range(1, 1201))) == pytest.approx(
        np.percentile(list(range(1, 1201)), 99, method="weibull"))


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    tracer.add("root", "unattributed", 0.0, 10.0)
    tracer.add("a", "kernels", 1.0, 4.0, parent=0)
    tracer.add("b", "pta", 3.0, 6.0, parent=0)
    tracer.add("c", "kernels", 2.0, 3.0, parent=1)
    times = tracer.self_times(0)
    assert times["unattributed"] == pytest.approx(10.0 - 5.0)
    assert times["kernels"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert times["pta"] == pytest.approx(3.0)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x", "kernels"):
        pass
    assert tracer.spans == [] and tracer.wrap_worker(len, "y", "z") is len
