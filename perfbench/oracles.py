"""Independent oracles for the benchmark's output checks.

Each oracle is written from the textbook definition with NumPy and
SciPy only.  Nothing here imports ``repro``: a check that compared the
program with its own code would pass whatever that code did.

* :func:`gumbel_pwm_pwcet` — block-maxima Gumbel fit by probability
  weighted moments, inverted at a per-run exceedance probability;
* :func:`runs_z` — the Wald-Wolfowitz runs statistic about the median;
* :func:`ks_halves` — the two-sample Kolmogorov-Smirnov test of the
  first against the second half of a sample (SciPy's asymptotic form);
* :func:`best_partition` — brute-force search of the cache-partition
  assignments by guaranteed workload IPC (sum of instructions / pWCET).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import stats

EULER_GAMMA = 0.5772156649015329

#: Largest gap between a Stephens-corrected asymptotic KS p-value and
#: SciPy's over every attainable statistic at the sample sizes the
#: benchmark checks (held by tests/test_oracles.py).
KS_P_ATOL = 0.03


def block_maxima(sample, block_size: int) -> np.ndarray:
    """Maxima of consecutive whole blocks; a trailing partial block is dropped."""
    arr = np.asarray(sample, dtype=float)
    blocks = arr.size // block_size
    if blocks < 2:
        raise ValueError(f"{arr.size} observations give fewer than 2 blocks")
    return arr[: blocks * block_size].reshape(blocks, block_size).max(axis=1)


def gumbel_pwm(maxima) -> tuple:
    """``(location, scale)`` of a Gumbel fitted by probability weighted moments.

    ``b0`` is the mean and ``b1`` the unbiased estimate of E[X F(X)]
    from the order statistics; then ``scale = (2 b1 - b0) / ln 2`` and
    ``location = b0 - gamma * scale`` (Hosking, Wallis and Wood 1985).
    """
    x = np.sort(np.asarray(maxima, dtype=float))
    n = x.size
    b0 = x.mean()
    b1 = float(np.sum(np.arange(n) / (n - 1) * x) / n)
    scale = max((2.0 * b1 - b0) / math.log(2.0), 0.0)
    return b0 - EULER_GAMMA * scale, scale


def gumbel_pwm_pwcet(sample, exceedance: float, block_size: int) -> float:
    """pWCET at per-run ``exceedance``, never below the sample maximum.

    The fit describes block maxima, so the per-run probability ``p``
    becomes the block probability ``1 - (1 - p) ** block_size`` before
    the Gumbel survival function is inverted.
    """
    location, scale = gumbel_pwm(block_maxima(sample, block_size))
    block_p = -math.expm1(block_size * math.log1p(-exceedance))
    quantile = location + scale * -math.log(-math.log1p(-block_p))
    return max(quantile, float(np.max(sample)))


def runs_z(sample) -> float:
    """Wald-Wolfowitz runs z about the median, ties with the median dropped."""
    arr = np.asarray(sample, dtype=float)
    median = np.median(arr)
    above = arr[arr != median] > median
    n1 = int(above.sum())
    n0 = above.size - n1
    if n1 == 0 or n0 == 0:
        return 0.0
    runs = 1 + int(np.count_nonzero(above[1:] != above[:-1]))
    n = n0 + n1
    mean = 2.0 * n0 * n1 / n + 1.0
    var = 2.0 * n0 * n1 * (2.0 * n0 * n1 - n) / (n * n * (n - 1.0))
    return (runs - mean) / math.sqrt(var)


def ks_halves(sample) -> tuple:
    """``(D, p)`` of the KS test of the sample's first half against its second."""
    arr = np.asarray(sample, dtype=float)
    half = arr.size // 2
    result = stats.ks_2samp(arr[:half], arr[half:], method="asymp")
    return float(result.statistic), float(result.pvalue)


def partitions(tasks: int, total_ways: int, options) -> list:
    """Every per-task way assignment from ``options`` whose sum fits the LLC."""
    return [combo for combo in itertools.product(sorted(options), repeat=tasks)
            if sum(combo) <= total_ways]


def guaranteed_ipc(workload, instructions: dict, pwcet: dict, allocation) -> float:
    """wgIPC: the sum over tasks of instructions / pWCET under the allocation."""
    return sum(instructions[bench] / pwcet[bench, alloc]
               for bench, alloc in zip(workload, allocation))


def best_partition(workload, instructions: dict, pwcet: dict,
                   total_ways: int, options) -> tuple:
    """``(allocation, wgIPC)`` maximising wgIPC over every fitting partition."""
    return max(
        ((combo, guaranteed_ipc(workload, instructions, pwcet, combo))
         for combo in partitions(len(workload), total_ways, options)),
        key=lambda item: item[1],
    )
