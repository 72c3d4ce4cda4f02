"""Summary statistics and metric-name rules shared by the benchmark."""

from __future__ import annotations

import math
import re
import statistics

#: A metric name: starts with a letter or digit, then letters, digits,
#: ``_``, ``.`` and ``-``; at most 64 characters.
_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """Is ``name`` a legal metric name?"""
    return isinstance(name, str) and _METRIC_NAME.fullmatch(name) is not None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``.

    Raises:
        ValueError: ``values`` is empty or ``q`` is out of range.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in 0..100, got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``
    percentile."""
    rank = max(1, math.ceil(q / 100.0 * count))
    return count - min(rank, count)


def tail_percentile(values, q: float) -> float:
    """The nearest-rank ``q`` percentile, refusing a tail too thin to
    report: at least :data:`MIN_BEYOND` samples must lie beyond it.

    Raises:
        ValueError: fewer than :data:`MIN_BEYOND` samples beyond ``q``.
    """
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return percentile(values, q)


def median(values) -> float:
    """The median of a non-empty sample."""
    return statistics.median(values)


def geomean(values) -> float:
    """Geometric mean of the positive ``values``.

    Raises:
        ValueError: no positive value.
    """
    logs = [math.log(v) for v in values if v > 0]
    if not logs:
        raise ValueError("geometric mean of no positive values")
    return math.exp(sum(logs) / len(logs))
