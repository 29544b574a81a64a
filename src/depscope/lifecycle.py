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
import sys
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Mapping, NamedTuple

from depscope.errors import UnknownVersion
from depscope.ingest import csv_text, json_text
from depscope.model import (
    Ga,
    Gav,
    InstanceStatus,
    LibraryStatus,
    ReleaseHistories,
    ReleaseHistory,
)


@dataclass(frozen=True)
class SmoothingConfig:
    alpha: float = 0.6
    default_interval_days: int = 90
    min_releases: int = 3

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 < self.default_interval_days <= sys.float_info.max:  # so float() of it works
            raise ValueError("default_interval_days must be positive and within the float range")
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
    """Last release date plus the smoothed interval, rounded half-up to days;
    ``date.max`` when that lies past it, so such a library is alive at every
    date there is."""
    return _expected_date(history.last_release.released, last_release_interval(history, cfg))


def _expected_date(last: date, interval: float) -> date:
    days = math.floor(interval + 0.5)
    return last + timedelta(days=days) if days <= (date.max - last).days else date.max


class LibraryVerdict(NamedTuple):
    """What the cadence model says of one library at one analysis time and
    smoothing config."""

    status: LibraryStatus
    interval: float  # the smoothed interval, in days
    expected: date  # the expected next release
    statuses: Mapping[str, InstanceStatus]  # version -> the status of its instance

    def instance_status(self, gav: Gav) -> InstanceStatus:
        """``gav``'s status, read from ``statuses``; raises
        :class:`UnknownVersion` for a version the history lacks."""
        status = self.statuses.get(gav.version)
        if status is None:
            raise UnknownVersion(gav)
        return status


def library_verdict(history: ReleaseHistory, time: date, cfg: SmoothingConfig) -> LibraryVerdict:
    """The verdict on ``history``'s library at ``time`` under ``cfg``.

    The library is halted when its expected next release date lies strictly
    before ``time``. Releases dated after ``time`` are invisible: an
    instance is judged against what had been published by then: it is
    outdated when a release newer than its own was visible at ``time``,
    i.e. when its own date precedes the last visible one."""
    interval = last_release_interval(history, cfg)
    expected = _expected_date(history.last_release.released, interval)
    dates = [release.released for release in history.releases]
    visible = bisect_right(dates, time)  # the releases are sorted by date
    last_visible = dates[visible - 1] if visible else date.min
    return LibraryVerdict(
        status=LibraryStatus.HALTED if expected < time else LibraryStatus.ALIVE,
        interval=interval,
        expected=expected,
        statuses={release.version: InstanceStatus.OUTDATED if release.released < last_visible
                  else InstanceStatus.UP_TO_DATE for release in history.releases},
    )


def library_status(history: ReleaseHistory, time: date, cfg: SmoothingConfig) -> LibraryStatus:
    """Halted when the expected next release date lies strictly before ``time``."""
    return library_verdict(history, time, cfg).status


class VerdictTable(dict):
    """``Ga -> LibraryVerdict`` over one mapping of histories at one time and
    config, ``None`` for a library without history. A library's verdict is
    made on its first lookup."""

    def __init__(self, histories: Mapping[Ga, ReleaseHistory], time: date, cfg: SmoothingConfig):
        super().__init__()
        self.histories, self.time, self.cfg = histories, time, cfg

    def __missing__(self, ga: Ga) -> LibraryVerdict | None:
        history = self.histories.get(ga)
        verdict = self[ga] = None if history is None else library_verdict(history, self.time, self.cfg)
        return verdict


def verdict_table(
    histories: Mapping[Ga, ReleaseHistory], time: date, cfg: SmoothingConfig
) -> VerdictTable:
    """The verdict table of ``histories`` at ``(time, cfg)``.

    A loaded :class:`ReleaseHistories` keeps a table per ``(time, cfg)``, so
    the trees of a run that share a date read one table in any order; any
    other mapping gets a fresh table over it, without a copy.
    """
    if not isinstance(histories, ReleaseHistories):
        return VerdictTable(histories, time, cfg)
    tables = histories.verdicts
    if (time, cfg) not in tables:  # over the plain dict, which holds no table, so no cycle forms
        tables[time, cfg] = VerdictTable(histories._histories, time, cfg)
    return tables[time, cfg]


_STATUS_HEADER = ["library", "releases", "last_release", "interval_days", "expected_release", "status"]


def render_status(
    histories: Mapping[Ga, ReleaseHistory], time: date, cfg: SmoothingConfig, format: str = "text"
) -> str:
    """The cadence verdict of every library at ``time``, in sorted order."""
    verdicts = verdict_table(histories, time, cfg)
    rows = []
    for ga, history in sorted(histories.items()):
        verdict = verdicts[ga]
        rows.append([
            str(ga),
            len(history.releases),
            history.last_release.released.isoformat(),
            round(verdict.interval, 3),
            verdict.expected.isoformat(),
            verdict.status.value,
        ])
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
