"""Statistics rules of the moqo benchmark.

moqo_bench records raw measurements; every reported number is derived here
so the rules are stated once and unit-tested (test_benchstats.py):

* percentiles are nearest-rank, and a percentile is reported only when at
  least MIN_BEYOND samples lie beyond it;
* alpha errors are summarized by a geometric mean after clipping at
  ALPHA_CLIP (an empty frontier has alpha = infinity);
* two sets of runs are compared per metric by median, quartiles and the
  share of pairs won, with a verdict that says "unresolved" rather than
  "unchanged" when the runs spread wider than the metric's bound, but
  still says "worse" when the change is clearly beyond the base's spread.
"""

import math
import statistics

MIN_BEYOND = 10
ALPHA_CLIP = 1e10


def finite_or_inf(value):
    """JSON null stands for +infinity in moqo_bench records."""
    return math.inf if value is None else float(value)


def nearest_rank(n, q):
    """1-based rank of the q-th percentile among n samples (n >= 1)."""
    # Rounding first keeps 0.999 * 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values, q):
    """Nearest-rank q-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(finite_or_inf(v) for v in values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - nearest_rank(n, q) if n else 0


def percentile_supported(n, q):
    """True if the q-th percentile of n samples has MIN_BEYOND beyond it."""
    return samples_beyond(n, q) >= MIN_BEYOND


def clipped_gmean(values, clip=ALPHA_CLIP):
    """Geometric mean after clipping every value at `clip` (0 if empty)."""
    if not values:
        return 0.0
    logs = [math.log(min(finite_or_inf(v), clip)) for v in values]
    return math.exp(sum(logs) / len(logs))


def median(values):
    return statistics.median(finite_or_inf(v) for v in values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def compare(base, change, better, bound, pairs=None):
    """Verdict on one metric between two sets of runs.

    `base` and `change` are the metric's values in each set; `pairs` are
    (base, change) value pairs (default: zip of both lists). Returns a dict
    with medians, quartiles, the share of pairs the change won (ties count
    for neither) and a verdict:

    * "worse": the change's median is worse by more than `bound` (a share
      of the base median) and lies beyond the base's worse quartile, so a
      clear regression is caught however wide the runs spread (within the
      bound the base's quartile always lies inside it);
    * "unresolved": either set spreads wider than `bound`, unless every
      change run beats every base run;
    * "better": the change wins at least 9 in 10 pairs and the medians
      differ by more than the base's interquartile distance;
    * "unchanged": otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    if pairs is None:
        pairs = list(zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (bmed - cmed) / abs(bmed) if bmed else 0.0
    worse_quartile = bq1 if better == "higher" else bq3
    beyond_base = sign * (worse_quartile - cmed) > 0
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if worse_by > bound and beyond_base:
        verdict = "worse"
    elif max(spread(base), spread(change)) > bound and not all_better:
        verdict = "unresolved"
    elif (win_share >= 0.9 and sign * (cmed - bmed) > 0
          and abs(cmed - bmed) > bq3 - bq1):
        verdict = "better"
    else:
        verdict = "unchanged"
    return {
        "base": (bq1, bmed, bq3),
        "change": (cq1, cmed, cq3),
        "wins": win_share,
        "verdict": verdict,
    }
