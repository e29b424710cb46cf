"""Statistics of the repository benchmark.

Every number the benchmark reports is computed here from the harness's raw
samples, and perfbench/tests/test_stats.py checks these rules:

* percentiles are nearest-rank; a tail is only reported at a percentile that
  leaves at least ten samples beyond it (``tail``);
* quartiles are those Python's ``statistics.quantiles(values, n=4)`` gives;
* open-loop latency is measured from each request's due time, so a stall
  also charges the requests queued behind it;
* a gain is claimed only from paired runs, by the pair-win rule.
"""

import math
import statistics

# Fixed for the lifetime of the benchmark: the p99 limit that max_rate_rps
# is judged against, and the backlog growth that marks a ladder step as
# unsustainable.  perfbench/METRICS.md records both with the open-loop rates
# and the ladder (BENCHMARK.json has no field for them); do not change either.
P99_LIMIT_US = 10_000.0
BACKLOG_LIMIT_US = 1_000.0

# A generator whose p99 send lag exceeds the latency limit itself cannot
# judge that limit: the run is flagged.
LAG_FLAG_US = P99_LIMIT_US

TAIL_QUANTILES = (0.99, 0.95, 0.9, 0.75, 0.5)


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share q
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n, q):
    """Samples strictly above the nearest-rank q-percentile of n samples."""
    return n - max(1, math.ceil(q * n))


def tail(values, wanted=0.99):
    """The highest percentile, at most `wanted`, that has at least ten
    samples beyond it, as (quantile, value).  With too few samples for any
    listed percentile the median stands in."""
    n = len(values)
    for q in TAIL_QUANTILES:
        if q <= wanted and beyond(n, q) >= 10:
            return q, percentile(values, q)
    return 0.5, percentile(values, 0.5)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def due_latencies_us(due_ns, done_ns):
    """Open-loop latency of every answered request, from its due time.
    done == 0 marks a failed request, which has no latency."""
    return [(done - due) / 1e3 for due, done in zip(due_ns, done_ns) if done > 0]


def send_lag_us(due_ns, sent_ns):
    """How late the generator sent each request."""
    return [(sent - due) / 1e3 for due, sent in zip(due_ns, sent_ns)]


def backlog_growth_us(due_ns, done_ns):
    """Median latency of the last quarter of a step (by due time) minus that
    of the first quarter: positive and large when a queue keeps growing."""
    rows = sorted((due, (done - due) / 1e3)
                  for due, done in zip(due_ns, done_ns) if done > 0)
    if len(rows) < 8:
        return 0.0
    quarter = len(rows) // 4
    first = statistics.median(lat for _, lat in rows[:quarter])
    last = statistics.median(lat for _, lat in rows[-quarter:])
    return last - first


def step_verdict(step, limit_us=P99_LIMIT_US, backlog_us=BACKLOG_LIMIT_US):
    """(passes, p99_us) of one ladder step.  A failed request misses every
    limit, so any failure fails the step."""
    lat = due_latencies_us(step["due_ns"], step["done_ns"])
    if not lat or step.get("failed", 0) > 0 or len(lat) < len(step["due_ns"]):
        return False, math.inf
    p99 = percentile(lat, 0.99)
    growing = backlog_growth_us(step["due_ns"], step["done_ns"]) > backlog_us
    return (p99 <= limit_us and not growing), p99


def max_rate(steps, limit_us=P99_LIMIT_US, backlog_us=BACKLOG_LIMIT_US):
    """Highest offered rate that meets the p99 limit with no growing backlog.

    The ladder's highest passing step is taken (a noisy failure below it does
    not count), then interpolated towards the next step up by where the p99
    crosses the limit on a log scale, so the estimate is continuous rather
    than one of the ladder's rates."""
    verdicts = [(s["rate"],) + step_verdict(s, limit_us, backlog_us)
                for s in sorted(steps, key=lambda s: s["rate"])]
    passing = [i for i, (_, ok, _) in enumerate(verdicts) if ok]
    if not passing:
        return 0.0
    i = passing[-1]
    rate, _, p99 = verdicts[i]
    if i + 1 == len(verdicts):
        return rate
    next_rate, _, next_p99 = verdicts[i + 1]
    if not math.isfinite(next_p99) or next_p99 <= limit_us:
        share = 0.5  # failed on backlog or errors, not on the p99
    else:
        share = (math.log(limit_us) - math.log(max(p99, 1.0))) / (
            math.log(next_p99) - math.log(max(p99, 1.0)))
        share = min(1.0, max(0.0, share))
    return rate + (next_rate - rate) * share


def overhead_pct(pairs):
    """Tracing overhead from (untraced_s, traced_s) pairs: the median of the
    paired ratios minus one, in percent, with the ratios' interquartile range
    in percent as its spread.  Not clamped: a cost shows as positive."""
    ratios = [traced / untraced for untraced, traced in pairs if untraced > 0]
    q1, q2, q3 = quartiles(ratios)
    return (q2 - 1.0) * 100.0, (q3 - q1) * 100.0


def pair_wins(parent, change, better="higher"):
    """Share of paired runs (parent[i], change[i]) that the change wins.
    Ties count for neither side but stay in the denominator."""
    if len(parent) != len(change) or not parent:
        raise ValueError("pair_wins needs equally many paired runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return wins / len(parent)


def claims_gain(parent, change, better="higher"):
    """The guide's rule for a gain: the change wins at least nine tenths of
    the pairs, and the medians differ by more than the parent's own
    interquartile range."""
    q1, _, q3 = quartiles(parent)
    sign = 1.0 if better == "higher" else -1.0
    moved = sign * (statistics.median(change) - statistics.median(parent))
    return pair_wins(parent, change, better) >= 0.9 and moved > (q3 - q1)
