"""Arithmetic of the repository benchmark, kept apart from the process
plumbing in run.py so test_benchlib.py can pin it down.

Everything here is pure: percentiles with their sample counts, open-loop
latency measured from each request's due time, generator lag, backlog,
the max-rate rule, span self time, the seeded Zipf key sampler and the
request-mix schedule.
"""

import bisect
import itertools
import math
import random
import statistics

# --- percentiles ------------------------------------------------------------

TAIL_CANDIDATES = (0.5, 0.9, 0.99, 0.999, 0.9999)
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def supports(n, q):
    """True when n samples leave at least MIN_BEYOND samples beyond q."""
    return n * (1.0 - q) >= MIN_BEYOND - 1e-9


def tail_percentile(values):
    """The highest candidate percentile with at least ten samples beyond
    it: returns (q, value, sample_count).  Raises when even the median is
    not supported."""
    n = len(values)
    best = None
    for q in TAIL_CANDIDATES:
        if supports(n, q):
            best = q
    if best is None:
        raise ValueError(f"{n} samples support no reported percentile")
    return best, percentile(values, best), n


def supported_percentile(values, q):
    """percentile(values, q), refusing a percentile the sample cannot
    support (fewer than ten samples beyond it)."""
    if not supports(len(values), q):
        raise ValueError(
            f"p{q * 100:g} needs {math.ceil(MIN_BEYOND / (1 - q))} samples,"
            f" got {len(values)}")
    return percentile(values, q)


# --- open-loop records --------------------------------------------------------

OK, MISMATCH, ERROR, BUSY, UNANSWERED = range(5)
OUTCOME_NAMES = ("ok", "mismatch", "error", "busy", "unanswered")


class Request:
    """One scheduled request: times in ns from the phase start; done is
    None when no response arrived before the run ended."""

    __slots__ = ("due", "sent", "done", "outcome")

    def __init__(self, due, sent, done, outcome):
        self.due = due
        self.sent = sent
        self.done = done
        self.outcome = outcome


def latencies_us(requests):
    """Latency of each answered, successful request, timed from its due
    time (not its send time), so a stall in the generator or the server
    charges every request it delayed.  Failed requests are excluded here
    and counted as misses by the callers that apply a limit."""
    return [(r.done - r.due) / 1e3 for r in requests
            if r.outcome == OK and r.done is not None]


def lags_us(requests):
    """How late the generator sent each request relative to its schedule."""
    return [(r.sent - r.due) / 1e3 for r in requests if r.sent is not None]


def miss_latencies_us(requests):
    """Latencies with every failed request counted as an infinite miss —
    the sample the max-rate rule applies its limit to."""
    return [(r.done - r.due) / 1e3 if r.outcome == OK and r.done is not None
            else math.inf for r in requests]


def windows(requests, window_ns):
    """Requests grouped into consecutive windows of due time."""
    groups = {}
    for r in requests:
        groups.setdefault(r.due // window_ns, []).append(r)
    return [groups[k] for k in sorted(groups)]


def windowed_percentile(requests, window_ns, q, misses=False):
    """Median over due-time windows of each window's q-percentile latency
    (misses=True counts failed requests as infinite).  A stall of the host
    spoils the windows it falls in, not the whole phase.  Windows too small
    to support q (fewer than ten samples beyond it) are skipped; returns
    (value, number of windows used)."""
    sample = miss_latencies_us if misses else latencies_us
    values = [supported_percentile(sample(group), q)
              for group in windows(requests, window_ns)
              if supports(len(sample(group)), q)]
    if not values:
        raise ValueError("no window supports the percentile")
    return statistics.median(values), len(values)


def backlog_series(requests):
    """Outstanding requests (due, not yet answered) at each due time, in
    due order.  Unanswered requests stay outstanding to the end."""
    ordered = sorted(requests, key=lambda r: r.due)
    finishes = sorted(r.done if r.done is not None else math.inf
                      for r in ordered)
    series = []
    for i, r in enumerate(ordered):
        finished = bisect.bisect_right(finishes, r.due)
        series.append(i + 1 - finished)
    return series


def backlog_grows(series, slack=8):
    """True when the mean backlog over the last quarter of a phase is more
    than twice (plus slack) its mean over the first quarter."""
    if len(series) < 8:
        return False
    quarter = len(series) // 4
    first = statistics.fmean(series[:quarter])
    last = statistics.fmean(series[-quarter:])
    return last > 2.0 * first + slack


def rung_passes(requests, p99_limit_us, window_ns):
    """A rate-ladder rung passes when its windowed p99 (failed requests
    counting as misses) is within the limit and its backlog does not
    grow."""
    p99, _ = windowed_percentile(requests, window_ns, 0.99, misses=True)
    return (p99 <= p99_limit_us
            and not backlog_grows(backlog_series(requests)))


def max_passing_rate(rungs):
    """Highest rate among passing rungs; rungs is [(rate, passed)].
    Returns 0.0 when none passed."""
    return max((rate for rate, passed in rungs if passed), default=0.0)


def ladder(base, step, lo_steps, hi_steps):
    """The fixed rate ladder: base * step**k for k in [-lo_steps, hi_steps],
    ascending."""
    return [base * step ** k for k in range(-lo_steps, hi_steps + 1)]


def walk_ladder(rates, start_index, run_rung):
    """Visits the ladder from start_index: upward while rungs pass,
    downward while they fail, stopping at the first change.  run_rung(rate)
    returns True when the rung passes.  Returns [(rate, passed)] in visit
    order."""
    visited = []
    index = start_index
    first = run_rung(rates[index])
    visited.append((rates[index], first))
    direction = 1 if first else -1
    index += direction
    while 0 <= index < len(rates):
        passed = run_rung(rates[index])
        visited.append((rates[index], passed))
        if passed != first:
            break
        index += direction
    return visited


# --- spans ------------------------------------------------------------------

def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    its child spans cover (overlapping children are merged, and children
    are clipped to the parent).  spans: dicts with id, parent, ts, dur.
    Returns {id: self_time} in the spans' own time unit."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        begin = span["ts"]
        end = begin + span["dur"]
        covered = 0.0
        cursor = begin
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["ts"]):
            lo = max(child["ts"], cursor)
            hi = min(child["ts"] + child["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = span["dur"] - covered
    return result


# --- keys and the request mix -----------------------------------------------

class ZipfSampler:
    """Zipf(s)-skewed keys over range(n): rank r is drawn with probability
    proportional to 1/(r+1)**s, and ranks map to keys through a permutation
    drawn from the seed, so the hot keys differ per seed but repeat exactly
    for one seed."""

    def __init__(self, n, s, seed):
        self.keys = list(range(n))
        random.Random(f"zipf-perm-{seed}").shuffle(self.keys)
        self.cdf = list(itertools.accumulate(1.0 / (r + 1) ** s
                                             for r in range(n)))
        self.rng = random.Random(f"zipf-draw-{seed}")

    def draw(self):
        x = self.rng.random() * self.cdf[-1]
        return self.keys[min(bisect.bisect_right(self.cdf, x),
                             len(self.keys) - 1)]

    def hot(self, count):
        """The count most probable keys, hottest first."""
        return self.keys[:count]


TOP_HUBS_N = (5, 10, 20)
KCORE_PAIRS = 32


class RequestMix:
    """Request lines for one seed, with kinds weighted by `weights`
    ({kind: share}, the mix_weights of workloads.json).  Vertex operands of the point lookups,
    cliques-containing and induced-subgraph come from the Zipf sampler, so
    the result cache both hits and inserts.  The expensive whole-graph
    kinds take operands from small fixed sets that are primed before
    timing (as a long-running server would hold them): top-hubs N,
    paraclique-expand from seed cliques of the graph, and
    kcore-membership over KCORE_PAIRS (K, V) pairs drawn from the seed.
    Uncached, each costs 0.2-60 ms; left to chance, the 1% they would
    make up lands p99 on the cliff between cheap and expensive requests."""

    def __init__(self, sampler, rng, seeds, weights):
        self.sampler = sampler
        self.weights = dict(weights)
        self.seeds = seeds
        self.kcore = [(rng.randint(2, 6), sampler.draw())
                      for _ in range(KCORE_PAIRS)]

    def priming_lines(self):
        return ([f"top-hubs {n}" for n in TOP_HUBS_N]
                + [self._paraclique(seed) for seed in self.seeds]
                + [f"kcore-membership {k} {v}" for k, v in self.kcore])

    @staticmethod
    def _paraclique(seed):
        return "paraclique-expand 1 " + " ".join(str(v) for v in seed)

    def line(self, kind, rng):
        draw = self.sampler.draw
        if kind in ("neighbors", "degree", "cliques-containing"):
            return f"{kind} {draw()}"
        if kind == "common-neighbors":
            u, v = draw(), draw()
            while v == u:
                v = draw()
            return f"{kind} {u} {v}"
        if kind == "induced-subgraph":
            members = set()
            while len(members) < 2:
                members |= {draw() for _ in range(rng.randint(3, 8))}
            return f"{kind} " + " ".join(str(v) for v in sorted(members))
        if kind == "kcore-membership":
            k, v = self.kcore[rng.randrange(len(self.kcore))]
            return f"{kind} {k} {v}"
        if kind == "top-hubs":
            return f"{kind} {rng.choice(TOP_HUBS_N)}"
        if kind == "paraclique-expand":
            return self._paraclique(self.seeds[rng.randrange(len(self.seeds))])
        raise ValueError(kind)


def schedule(rate, seconds, mix, rng):
    """Open-loop arrivals: Poisson at `rate` requests/s for `seconds`,
    kinds weighted by mix.weights, all drawn from rng; returns
    [(due_us, line)] in due order."""
    kinds = list(mix.weights)
    weights = list(mix.weights.values())
    out = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        kind = rng.choices(kinds, weights)[0]
        out.append((int(t * 1e6), mix.line(kind, rng)))
