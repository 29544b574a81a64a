"""Release-cadence model: smoothed release intervals, expected next release,
halted/alive libraries and outdated/up-to-date instances.

The model weights recent inter-release intervals most: with smoothing factor
``a``, the interval that ended ``i`` releases ago contributes with weight
``a * (1 - a) ** i``. The weights over ``n`` intervals sum to
``1 - (1 - a) ** n`` and are deliberately not renormalized, which biases the
estimate low — a conservative choice when deciding whether a library still
receives updates. Libraries with too few releases to smooth fall back to a
fixed default interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Mapping

from depscope.errors import UnknownVersion
from depscope.ingest import csv_text, json_text
from depscope.model import Ga, Gav, InstanceStatus, LibraryStatus, ReleaseHistory


@dataclass(frozen=True)
class SmoothingConfig:
    alpha: float = 0.6
    default_interval_days: int = 90
    min_releases: int = 3

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.default_interval_days <= 0:
            raise ValueError("default_interval_days must be positive")
        if self.min_releases <= 0:
            raise ValueError("min_releases must be positive")


def release_intervals(history: ReleaseHistory) -> list[int]:
    """Days between consecutive releases, oldest first; empty for one release."""
    dates = [r.released for r in history.releases]
    return [(b - a).days for a, b in zip(dates, dates[1:])]


def last_release_interval(history: ReleaseHistory, cfg: SmoothingConfig) -> float:
    """Smoothed estimate of the next inter-release interval, in days.

    Histories shorter than ``cfg.min_releases`` releases return
    ``cfg.default_interval_days`` instead of the smoothed sum.
    """
    if len(history.releases) < cfg.min_releases:
        return float(cfg.default_interval_days)
    total = 0.0
    for age, days in enumerate(reversed(release_intervals(history))):
        total += cfg.alpha * (1.0 - cfg.alpha) ** age * days
    return total


def expected_release_date(history: ReleaseHistory, cfg: SmoothingConfig) -> date:
    """Last release date plus the smoothed interval, rounded half-up to days."""
    interval = last_release_interval(history, cfg)
    return history.last_release.released + timedelta(days=math.floor(interval + 0.5))


def library_status(history: ReleaseHistory, time: date, cfg: SmoothingConfig) -> LibraryStatus:
    """Halted when the expected next release date lies strictly before ``time``."""
    if expected_release_date(history, cfg) < time:
        return LibraryStatus.HALTED
    return LibraryStatus.ALIVE


def instance_status(gav: Gav, history: ReleaseHistory, time: date) -> InstanceStatus:
    """Outdated when a strictly newer release exists and is visible at ``time``.

    Releases dated after ``time`` are invisible: an instance is judged
    against what had been published by the analysis date.
    """
    own_date = history.release_date_of(gav.version)
    if own_date is None:
        raise UnknownVersion(gav)
    for release in history.releases:
        if own_date < release.released <= time:
            return InstanceStatus.OUTDATED
    return InstanceStatus.UP_TO_DATE


_STATUS_HEADER = ["library", "releases", "last_release", "interval_days", "expected_release", "status"]


def render_status(
    histories: Mapping[Ga, ReleaseHistory], time: date, cfg: SmoothingConfig, format: str = "text"
) -> str:
    """The cadence verdict of every library at ``time``, in sorted order."""
    rows = [
        [
            str(ga),
            len(history.releases),
            history.last_release.released.isoformat(),
            round(last_release_interval(history, cfg), 3),
            expected_release_date(history, cfg).isoformat(),
            library_status(history, time, cfg).value,
        ]
        for ga, history in sorted(histories.items())
    ]
    if format == "json":
        libraries = [dict(zip(_STATUS_HEADER, row)) for row in rows]
        return json_text({"time": time.isoformat(), "libraries": libraries})
    if format == "csv":
        return csv_text(_STATUS_HEADER, rows)
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    lines = [f"status at {time.isoformat()}"]
    for library, releases, last, _, expected, status in rows:
        lines.append(f"  {library}: {status} (releases {releases}, last {last}, expected next {expected})")
    return "\n".join(lines) + "\n"
