from __future__ import annotations

import copy
import math
import operator
import pickle
import sys
from datetime import date, timedelta

import pytest
from hypothesis import given, strategies as st

import depscope.lifecycle
from depscope.errors import MissingHistory, UnknownVersion
from depscope.ingest import load_release_history
from depscope.lifecycle import (
    SmoothingConfig,
    expected_release_date,
    last_release_interval,
    library_status,
    library_verdict,
    release_intervals,
    render_status,
    verdict_table,
)
from depscope.model import (
    Ga,
    Gav,
    InstanceStatus,
    LibraryStatus,
    Release,
    ReleaseHistories,
    ReleaseHistory,
)
from depscope.report import scan

from conftest import ANALYSIS_TIME, alive_history, halted_direct_tree, history_csv, stalled_history

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
    assert library_verdict(history, date(2024, 1, 1), CFG).instance_status(latest) is InstanceStatus.UP_TO_DATE


def test_superseded_release_outdated():
    history = ReleaseHistory(
        Ga("commons-logging", "commons-logging"),
        (Release("1.1.1", date(2007, 11, 26)), Release("1.1.2", date(2013, 3, 16))),
    )
    gav = Gav("commons-logging", "commons-logging", "1.1.1")
    assert library_verdict(history, date(2014, 1, 1), CFG).instance_status(gav) is InstanceStatus.OUTDATED


def test_future_releases_invisible():
    history = ReleaseHistory(
        Ga("commons-logging", "commons-logging"),
        (Release("1.1.1", date(2007, 11, 26)), Release("1.1.2", date(2013, 3, 16))),
    )
    gav = Gav("commons-logging", "commons-logging", "1.1.1")
    assert library_verdict(history, date(2012, 1, 1), CFG).instance_status(gav) is InstanceStatus.UP_TO_DATE


def test_unknown_version_raises():
    history = history_from_dates([date(2020, 1, 1)])
    with pytest.raises(UnknownVersion):
        library_verdict(history, date(2024, 1, 1), CFG).instance_status(Gav("g", "a", "nope"))


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
    latest_visible = Gav("g", "a", visible[-1].version)
    assert library_verdict(history, probe, CFG).instance_status(latest_visible) is InstanceStatus.UP_TO_DATE


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


# --- the verdict table ------------------------------------------------------------------

# the definitions the table replaced, one loop each, kept as its reference


def _reference_interval(history: ReleaseHistory, cfg: SmoothingConfig) -> float:
    if len(history.releases) < cfg.min_releases:
        return float(cfg.default_interval_days)
    dates = [r.released for r in history.releases]
    days = [(b - a).days for a, b in zip(dates, dates[1:])]
    total = 0.0
    for age, interval in enumerate(reversed(days)):
        total += cfg.alpha * (1.0 - cfg.alpha) ** age * interval
    return total


def _reference_expected(history: ReleaseHistory, cfg: SmoothingConfig) -> date:
    interval = _reference_interval(history, cfg)
    return history.releases[-1].released + timedelta(days=math.floor(interval + 0.5))


def _reference_instance_status(version: str, history: ReleaseHistory, time: date) -> InstanceStatus:
    own = None
    for release in history.releases:
        if release.version == version:
            own = release.released
    if own is None:
        raise UnknownVersion(Gav(history.library.group_id, history.library.artifact_id, version))
    for release in history.releases:
        if own < release.released <= time:
            return InstanceStatus.OUTDATED
    return InstanceStatus.UP_TO_DATE


def _check_verdict_against_reference(dates, time, cfg) -> None:
    history = history_from_dates(sorted(dates))
    verdict = verdict_table(ReleaseHistories({history.library: history}), time, cfg)[history.library]
    expected = _reference_expected(history, cfg)
    assert verdict.interval == _reference_interval(history, cfg)
    assert verdict.expected == expected
    assert verdict.status is (LibraryStatus.HALTED if expected < time else LibraryStatus.ALIVE)
    for release in history.releases:
        gav = Gav("g", "a", release.version)
        assert verdict.instance_status(gav) is _reference_instance_status(release.version, history, time)
    with pytest.raises(UnknownVersion):
        verdict.instance_status(Gav("g", "a", "not-released"))


_CONFIGS = st.builds(
    SmoothingConfig,
    alpha=st.floats(0.01, 0.99),
    default_interval_days=st.integers(1, 400),
    min_releases=st.integers(1, 5),
)


@given(
    # a narrow range, so equal release dates are common
    dates=st.lists(st.dates(date(2010, 1, 1), date(2010, 3, 1)), min_size=1, max_size=8),
    cfg=_CONFIGS,
    data=st.data(),
)
def test_verdict_table_equals_reference_loops(dates, cfg, data):
    history = history_from_dates(sorted(dates))
    on_expected = _reference_expected(history, cfg)
    time = data.draw(st.sampled_from([on_expected, on_expected + timedelta(days=1)])
                     | st.dates(date(2009, 12, 1), date(2011, 12, 1)))
    _check_verdict_against_reference(dates, time, cfg)


@pytest.mark.parametrize(
    "dates, time",
    [
        ([date(2010, 1, 1), date(2010, 1, 1), date(2010, 1, 1)], date(2010, 6, 1)),  # equal dates
        ([date(2010, 1, 1), date(2010, 5, 1), date(2010, 9, 1)], date(2010, 6, 1)),  # own after time
        ([date(2010, 1, 1)], date(2010, 6, 1)),  # a single release
        ([date(2010, 1, 1), date(2010, 2, 1)], date(2009, 6, 1)),  # nothing visible yet
        # on the expected date: 0.6 * 28 + 0.24 * 31 days after the last release, rounded
        ([date(2010, 1, 1), date(2010, 2, 1), date(2010, 3, 1)], date(2010, 3, 25)),
    ],
)
def test_verdict_table_named_cases(dates, time):
    _check_verdict_against_reference(dates, time, CFG)


@pytest.mark.parametrize("days, expected", [
    (9, date.max - timedelta(days=1)),
    (10, date.max),
    (11, date.max),  # past the calendar: saturates
    (10**30, date.max),  # past what a timedelta holds
])
def test_expected_release_date_saturates_at_date_max(days, expected):
    history = history_from_dates([date.max - timedelta(days=10)])
    cfg = SmoothingConfig(default_interval_days=days)
    assert expected_release_date(history, cfg) == expected
    halted = expected < date.max
    assert library_status(history, date.max, cfg) is (LibraryStatus.HALTED if halted else LibraryStatus.ALIVE)


@pytest.mark.parametrize("days", [10**400, 2**1024], ids=["1e400", "2**1024"])
def test_default_interval_past_the_float_range_is_rejected(days):
    # float(days) would raise OverflowError in the smoothing
    with pytest.raises(ValueError, match="default_interval_days must be positive and within the float range"):
        SmoothingConfig(default_interval_days=days)
    largest = SmoothingConfig(default_interval_days=int(sys.float_info.max))
    assert last_release_interval(history_from_dates([date(2010, 1, 1)]), largest) == sys.float_info.max


@pytest.mark.parametrize("field, value, reason", [
    ("alpha", 0.0, "alpha must be in (0, 1)"),
    ("alpha", 1.0, "alpha must be in (0, 1)"),
    ("alpha", -0.5, "alpha must be in (0, 1)"),
    ("min_releases", 0, "min_releases must be positive"),
    ("min_releases", -3, "min_releases must be positive"),
])
def test_smoothing_config_rejects_out_of_range_settings(field, value, reason):
    with pytest.raises(ValueError) as exc:
        SmoothingConfig(**{field: value})
    assert str(exc.value) == reason


def test_render_status_rejects_an_unknown_format():
    histories = {Ga("g", "a"): history_from_dates([date(2010, 1, 1)])}
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        render_status(histories, date(2011, 1, 1), CFG, "xml")


@pytest.mark.parametrize("dates", [[date(2010, 1, 1)],  # the default interval
                                   [date(2010, 1, 1), date(2010, 2, 9), date(2010, 3, 1)]])
def test_library_verdict_smooths_once(monkeypatch, dates):
    history = history_from_dates(dates)
    calls = []

    def counted(history, cfg):
        calls.append(history)
        return last_release_interval(history, cfg)

    monkeypatch.setattr(depscope.lifecycle, "last_release_interval", counted)
    verdict = library_verdict(history, ANALYSIS_TIME, CFG)
    assert calls == [history]
    assert (verdict.interval, verdict.expected) == (
        last_release_interval(history, CFG), expected_release_date(history, CFG))


_LEGACY = Ga("org.legacy", "old-parser")  # the halted direct dependency of the fixture
_FRESH_LEGACY = alive_history(Gav("org.legacy", "old-parser", "3.0"))


def _loaded_halted_fixture() -> ReleaseHistories:
    tree = halted_direct_tree()
    histories = [alive_history(gav) for gav in tree.gavs() if gav.ga != _LEGACY]
    return load_release_history(history_csv(histories + [stalled_history(_LEGACY)]))


def _scan_rows(histories, time=ANALYSIS_TIME, cfg=CFG, lenient=False):
    result = scan(halted_direct_tree(), [], histories, time=time, cfg=cfg, lenient=lenient)
    return [(row.gav, row.library_status, row.instance_status, row.via_halted, row.unknown_history)
            for row in result.census]


def test_loaded_histories_keep_one_table_per_time_and_config():
    histories = _loaded_halted_fixture()
    _scan_rows(histories)
    table = histories.verdicts[ANALYSIS_TIME, CFG]
    _scan_rows(histories, cfg=SmoothingConfig())  # an equal config reads the same table
    assert list(histories.verdicts.values()) == [table]
    slow = SmoothingConfig(alpha=0.1, default_interval_days=5000, min_releases=9)
    for time, cfg in [(date(2007, 12, 1), CFG), (ANALYSIS_TIME, slow)]:
        assert _scan_rows(histories, time, cfg) == _scan_rows(_loaded_halted_fixture(), time, cfg)
        kept = histories.verdicts[time, cfg]
        assert kept.time == time and kept.cfg == cfg
    assert _scan_rows(histories) == _scan_rows(_loaded_halted_fixture())
    # the first table is kept and read again, not rebuilt
    assert len(histories.verdicts) == 3 and histories.verdicts[ANALYSIS_TIME, CFG] is table


@pytest.mark.parametrize(
    "change",
    [
        lambda h: operator.setitem(h, _LEGACY, _FRESH_LEGACY),
        lambda h: operator.delitem(h, _LEGACY),
        lambda h: operator.ior(h, {_LEGACY: _FRESH_LEGACY}),
        # dict's own methods, which skip whatever a dict subclass overrides
        lambda h: dict.update(h, {_LEGACY: _FRESH_LEGACY}),
        lambda h: dict.__setitem__(h, _LEGACY, _FRESH_LEGACY),
    ],
    ids=["setitem", "delitem", "ior", "dict.update", "dict.setitem"],
)
def test_loaded_histories_are_read_only(change):
    histories = _loaded_halted_fixture()
    halted = _scan_rows(histories)
    with pytest.raises(TypeError):
        change(histories)
    assert histories[_LEGACY] == stalled_history(_LEGACY)
    assert _scan_rows(histories) == halted


def test_loaded_histories_have_no_mutators():
    histories = _loaded_halted_fixture()
    for name in ("clear", "pop", "popitem", "setdefault", "update"):
        assert not hasattr(histories, name), name


def test_loaded_histories_equal_their_dict_and_copies():
    histories = _loaded_halted_fixture()
    halted = _scan_rows(histories)
    assert histories == dict(histories) and dict(histories) == histories
    assert repr(histories) == repr(dict(histories))
    for copied in (pickle.loads(pickle.dumps(histories)), copy.deepcopy(histories)):
        assert isinstance(copied, ReleaseHistories)
        assert copied == histories
        assert _scan_rows(copied) == halted


def test_new_mapping_over_loaded_histories_gets_new_verdicts():
    histories = _loaded_halted_fixture()
    halted = _scan_rows(histories)
    table = histories.verdicts[ANALYSIS_TIME, CFG]
    changed = ReleaseHistories({**histories, _LEGACY: _FRESH_LEGACY})
    assert verdict_table(changed, ANALYSIS_TIME, CFG)[_LEGACY].status is LibraryStatus.ALIVE
    assert _scan_rows(changed) != halted
    # the loaded mapping keeps its histories and its table
    assert _scan_rows(histories) == halted
    assert histories.verdicts[ANALYSIS_TIME, CFG] is table
    assert table[_LEGACY].status is LibraryStatus.HALTED


def test_plain_mapping_gets_a_fresh_table_each_scan(halted_fixture):
    tree, histories = halted_fixture
    assert verdict_table(histories, ANALYSIS_TIME, CFG) is not verdict_table(histories, ANALYSIS_TIME, CFG)
    halted = _scan_rows(histories)
    histories[_LEGACY] = _FRESH_LEGACY
    assert _scan_rows(histories) != halted
