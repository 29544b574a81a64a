from __future__ import annotations

from datetime import date, timedelta

import pytest
from hypothesis import given, strategies as st

from depscope.errors import MissingHistory, UnknownVersion
from depscope.lifecycle import (
    SmoothingConfig,
    expected_release_date,
    instance_status,
    last_release_interval,
    library_status,
    release_intervals,
)
from depscope.model import (
    Ga,
    Gav,
    InstanceStatus,
    LibraryStatus,
    Release,
    ReleaseHistory,
)
from depscope.report import scan

from conftest import stalled_history

CFG = SmoothingConfig()


def history_from_dates(dates, ga=Ga("g", "a")) -> ReleaseHistory:
    return ReleaseHistory(ga, tuple(Release(str(i), d) for i, d in enumerate(dates)))


def history_from_intervals(intervals, start=date(2000, 1, 1)) -> ReleaseHistory:
    dates = [start]
    for days in intervals:
        dates.append(dates[-1] + timedelta(days=days))
    return history_from_dates(dates)


# --- intervals --------------------------------------------------------------------


def test_release_intervals_annual():
    history = history_from_dates([date(2005, 11, 26), date(2006, 11, 26), date(2007, 11, 26)])
    assert release_intervals(history) == [365, 365]


def test_release_intervals_single_release():
    assert release_intervals(history_from_dates([date(2020, 1, 1)])) == []


def test_release_intervals_same_day():
    assert release_intervals(history_from_dates([date(2020, 1, 1), date(2020, 1, 1)])) == [0]


# --- smoothed interval ----------------------------------------------------------------


def test_smoothed_interval_weights_recent_most():
    history = history_from_intervals([100, 50, 50])
    assert last_release_interval(history, CFG) == pytest.approx(51.6, abs=1e-9)


def test_smoothed_interval_short_history_default():
    history = history_from_dates([date(2024, 1, 1)])
    assert last_release_interval(history, CFG) == 90.0


def test_smoothed_interval_two_releases_default():
    history = history_from_intervals([10])
    assert last_release_interval(history, CFG) == 90.0


def test_smoothed_interval_constant_cadence_closed_form():
    history = history_from_intervals([30] * 5)
    assert last_release_interval(history, CFG) == pytest.approx(30 * (1 - 0.4**5), abs=1e-9)


@given(
    intervals=st.lists(st.integers(min_value=0, max_value=2000), min_size=2, max_size=20)
)
def test_smoothed_interval_bounded_by_extremes(intervals):
    cfg = SmoothingConfig(min_releases=2)
    history = history_from_intervals(intervals)
    value = last_release_interval(history, cfg)
    n = len(intervals)
    weight_sum = 1 - 0.4**n
    assert min(intervals) * weight_sum - 1e-9 <= value <= max(intervals) + 1e-9


@given(
    intervals=st.lists(st.integers(min_value=0, max_value=2000), min_size=2, max_size=20)
)
def test_smoothed_interval_recency_dominance(intervals):
    # moving the largest interval to the most recent slot never lowers the estimate
    cfg = SmoothingConfig(min_releases=2)
    largest = max(intervals)
    rearranged = [d for i, d in enumerate(intervals) if i != intervals.index(largest)]
    rearranged.append(largest)
    before = last_release_interval(history_from_intervals(intervals), cfg)
    after = last_release_interval(history_from_intervals(rearranged), cfg)
    assert after >= before - 1e-9


# --- expected release date -----------------------------------------------------------


def test_expected_date_rounds_half_up():
    history = history_from_intervals([100, 50, 50], start=date(2024, 1, 1) - timedelta(days=200))
    assert history.last_release.released == date(2024, 1, 1)
    assert expected_release_date(history, CFG) == date(2024, 1, 1) + timedelta(days=52)


def test_expected_date_default_interval():
    history = history_from_dates([date(2024, 1, 1)])
    assert expected_release_date(history, CFG) == date(2024, 3, 31)


def test_expected_date_annual_cadence():
    history = history_from_dates([date(2005, 11, 26), date(2006, 11, 26), date(2007, 11, 26)])
    assert expected_release_date(history, CFG) == date(2008, 9, 28)


# --- library status --------------------------------------------------------------------


def test_stalled_cadence_is_halted_years_later():
    history = stalled_history(Ga("commons-logging", "commons-logging"))
    assert library_status(history, date(2012, 11, 26), CFG) is LibraryStatus.HALTED


def test_boundary_time_equal_expected_is_alive():
    history = stalled_history(Ga("g", "a"))
    boundary = expected_release_date(history, CFG)
    assert library_status(history, boundary, CFG) is LibraryStatus.ALIVE
    assert library_status(history, boundary + timedelta(days=1), CFG) is LibraryStatus.HALTED


def test_time_before_last_release_is_alive():
    history = stalled_history(Ga("g", "a"))
    assert library_status(history, date(2006, 1, 1), CFG) is LibraryStatus.ALIVE


def test_halting_is_monotone_in_time():
    history = stalled_history(Ga("g", "a"))
    first_halted = expected_release_date(history, CFG) + timedelta(days=1)
    for offset in (0, 1, 30, 365, 4000):
        assert library_status(history, first_halted + timedelta(days=offset), CFG) is LibraryStatus.HALTED


# --- instance status --------------------------------------------------------------------


def test_latest_release_up_to_date():
    history = history_from_dates([date(2020, 1, 1), date(2021, 1, 1)])
    latest = Gav("g", "a", "1")
    assert instance_status(latest, history, date(2024, 1, 1)) is InstanceStatus.UP_TO_DATE


def test_superseded_release_outdated():
    history = ReleaseHistory(
        Ga("commons-logging", "commons-logging"),
        (Release("1.1.1", date(2007, 11, 26)), Release("1.1.2", date(2013, 3, 16))),
    )
    gav = Gav("commons-logging", "commons-logging", "1.1.1")
    assert instance_status(gav, history, date(2014, 1, 1)) is InstanceStatus.OUTDATED


def test_future_releases_invisible():
    history = ReleaseHistory(
        Ga("commons-logging", "commons-logging"),
        (Release("1.1.1", date(2007, 11, 26)), Release("1.1.2", date(2013, 3, 16))),
    )
    gav = Gav("commons-logging", "commons-logging", "1.1.1")
    assert instance_status(gav, history, date(2012, 1, 1)) is InstanceStatus.UP_TO_DATE


def test_unknown_version_raises():
    history = history_from_dates([date(2020, 1, 1)])
    with pytest.raises(UnknownVersion):
        instance_status(Gav("g", "a", "nope"), history, date(2024, 1, 1))


@given(
    dates=st.lists(
        st.dates(min_value=date(2000, 1, 1), max_value=date(2030, 1, 1)),
        min_size=1,
        max_size=10,
    ),
    probe=st.dates(min_value=date(2000, 1, 1), max_value=date(2031, 1, 1)),
)
def test_last_visible_release_always_up_to_date(dates, probe):
    ordered = sorted(dates)
    history = history_from_dates(ordered)
    visible = [r for r in history.releases if r.released <= probe]
    if not visible:
        return
    assert instance_status(Gav("g", "a", visible[-1].version), history, probe) is InstanceStatus.UP_TO_DATE


# --- reached through a halted direct dependency ---------------------------------------------


def _via_halted(tree, histories, *, lenient=False) -> set[Gav]:
    result = scan(tree, [], histories, time=date(2018, 6, 1), cfg=CFG, lenient=lenient)
    return {row.gav for row in result.census if row.via_halted}


def test_via_halted_collects_subtree(halted_fixture):
    assert _via_halted(*halted_fixture) == {
        Gav("org.tinyio", "io-buffers", "0.9"),
        Gav("org.tinyio2", "io-extras", "0.2"),
    }


def test_via_halted_empty_when_all_alive(sample_tree, sample_histories):
    assert _via_halted(sample_tree, sample_histories) == set()


def test_via_halted_ignores_deep_halted_nodes():
    from depscope.ingest import parse_tree_text
    from conftest import alive_history

    tree = parse_tree_text(
        "com.acme:m:1.0\n"
        "+- org.mid:level1:jar:1:compile\n"
        "|  \\- org.legacy:old-parser:jar:3.0:compile\n"
        "|     \\- org.leaf:deep:jar:1:compile\n"
    )
    histories = {gav.ga: alive_history(gav) for gav in tree.gavs()}
    legacy = Ga("org.legacy", "old-parser")
    histories[legacy] = stalled_history(legacy, versions=("1.0", "2.0", "3.0"))
    # the halted library sits at depth 2; the rule keys on direct dependencies only
    assert _via_halted(tree, histories) == set()


def test_via_halted_missing_history_strict_vs_lenient(halted_fixture):
    tree, histories = halted_fixture
    histories = dict(histories)
    del histories[Ga("org.fresh", "web-core")]
    with pytest.raises(MissingHistory):
        _via_halted(tree, histories)
    reached = _via_halted(tree, histories, lenient=True)
    assert Gav("org.tinyio", "io-buffers", "0.9") in reached
