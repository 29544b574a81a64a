from __future__ import annotations

import codecs
import json
import tracemalloc
from datetime import date

import pytest

from depscope.cli import main
from depscope.ingest import render_tree_json
from depscope.report import CensusRow, ScanResult, aggregate, render, scan

from conftest import (
    ANALYSIS_TIME,
    SAMPLE_KB_JSON,
    SAMPLE_TREE_JSON,
    SAMPLE_TREE_TEXT,
    alive_history,
    halted_direct_tree,
    history_csv,
    stalled_history,
)
from depscope import lifecycle
from depscope.model import (
    DependencyNode,
    DependencyTree,
    Ga,
    Gav,
    InstanceStatus,
    LibraryStatus,
    Responsibility,
    Scope,
)


@pytest.fixture
def workspace(tmp_path, sample_histories):
    tree_file = tmp_path / "app-core.txt"
    tree_file.write_text(SAMPLE_TREE_TEXT)
    kb_file = tmp_path / "kb.json"
    kb_file.write_text(SAMPLE_KB_JSON)
    history_file = tmp_path / "releases.csv"
    history_file.write_text(history_csv(sample_histories.values()))
    return tmp_path


def _scan_args(ws, *extra):
    return [
        "scan",
        "--tree", str(ws / "app-core.txt"),
        "--history", str(ws / "releases.csv"),
        "--kb", str(ws / "kb.json"),
        "--time", "2018-06-01",
        *extra,
    ]


def test_scan_finds_paths_and_exits_2(workspace, capsys):
    code = main(_scan_args(workspace))
    out = capsys.readouterr().out
    assert code == 2
    assert "VULN-0001" in out
    assert "VULN-0002" in out
    assert "vulnerable paths: 2" in out


def test_scan_clean_tree_exits_0(workspace, capsys):
    (workspace / "kb.json").write_text("[]")
    code = main(_scan_args(workspace))
    assert code == 0
    assert "vulnerable paths: 0" in capsys.readouterr().out


def test_scan_missing_kb_exits_1(workspace, capsys):
    args = _scan_args(workspace)
    args[args.index("--kb") + 1] = str(workspace / "nope.json")
    code = main(args)
    err = capsys.readouterr().err
    assert code == 1
    assert "nope.json" in err


def test_scan_malformed_tree_names_file_and_line(workspace, capsys):
    bad = workspace / "bad.txt"
    bad.write_text("com.acme:m:1.0\n|  +- g:a:jar:1:compile\n")
    args = _scan_args(workspace)
    args[args.index("--tree") + 1] = str(bad)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "bad.txt" in err and "line 2" in err


def test_scan_json_output_parses(workspace, capsys):
    code = main(_scan_args(workspace, "--format", "json"))
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert data["root"] == "com.acme:app-core:1.0"
    assert [p["responsibility"] for p in data["paths"]] == ["direct", "transitive"]


def test_scan_directory_sorted_by_root(workspace, capsys, sample_histories):
    corpus = workspace / "corpus"
    corpus.mkdir()
    # written in non-sorted name order on purpose
    (corpus / "zz.txt").write_text("aa.group:early:1.0\n")
    (corpus / "aa.txt").write_text("zz.group:late:1.0\n")
    histories = dict(sample_histories)
    from depscope.model import Gav

    for gav in (Gav("aa.group", "early", "1.0"), Gav("zz.group", "late", "1.0")):
        histories[gav.ga] = alive_history(gav)
    (workspace / "releases.csv").write_text(history_csv(histories.values()))
    args = _scan_args(workspace)
    args[args.index("--tree") + 1] = str(corpus)
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.index("aa.group:early") < out.index("zz.group:late")


def test_scan_json_reingested_by_report(workspace, capsys, sample_tree, sample_kb, sample_histories):
    code = main(_scan_args(workspace, "--format", "json"))
    scan_json = capsys.readouterr().out
    assert code == 2
    results_dir = workspace / "results"
    results_dir.mkdir()
    (results_dir / "app-core.json").write_text(scan_json)
    assert main(["report", "--input", str(results_dir), "--format", "json"]) == 0
    report_json = capsys.readouterr().out

    direct = aggregate([scan(sample_tree, sample_kb, sample_histories, time=ANALYSIS_TIME)])
    assert report_json == render(direct, "json")


def test_report_text_output(workspace, capsys):
    main(_scan_args(workspace, "--format", "json"))
    scan_json = capsys.readouterr().out
    results_dir = workspace / "results"
    results_dir.mkdir()
    (results_dir / "r.json").write_text(scan_json)
    assert main(["report", "--input", str(results_dir)]) == 0
    out = capsys.readouterr().out
    assert "aggregate report over 1 tree(s)" in out
    assert "project grouping" in out


def test_status_reports_halted(tmp_path, capsys):
    ga = Ga("commons-logging", "commons-logging")
    (tmp_path / "history.csv").write_text(history_csv([stalled_history(ga)]))
    code = main(
        ["status", "--history", str(tmp_path / "history.csv"), "--time", "2012-11-26"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "commons-logging:commons-logging: halted" in out


def test_status_alive_before_expected(tmp_path, capsys):
    ga = Ga("commons-logging", "commons-logging")
    (tmp_path / "history.csv").write_text(history_csv([stalled_history(ga)]))
    main(["status", "--history", str(tmp_path / "history.csv"), "--time", "2008-09-28"])
    assert "halted" not in capsys.readouterr().out.replace("status at", "")


def test_status_json_and_csv(tmp_path, capsys):
    ga = Ga("commons-logging", "commons-logging")
    (tmp_path / "history.csv").write_text(history_csv([stalled_history(ga)]))
    main(["status", "--history", str(tmp_path / "history.csv"),
          "--time", "2012-11-26", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data["libraries"][0]["status"] == "halted"
    assert data["libraries"][0]["expected_release"] == "2008-09-28"
    main(["status", "--history", str(tmp_path / "history.csv"),
          "--time", "2012-11-26", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("library,releases")
    assert len(lines) == 2


_HISTORY_HEADER = "group_id,artifact_id,version,release_date\n"
# expected next releases past 9999-12-31: a smoothed one, and a default interval
# past the calendar (3e6 days) or past what a timedelta holds (1e30 days)
_PAST_DATE_MAX = [
    ("g,a,1,2020-01-01\ng,a,2,9990-01-01\ng,a,3,9999-12-01\n", ()),
    ("g,a,1,2020-01-01\n", ("--default-interval-days", "3000000")),
    ("g,a,1,2020-01-01\n", ("--default-interval-days", str(10**30))),
]


@pytest.mark.parametrize("rows, flags", _PAST_DATE_MAX, ids=["smoothed", "default", "huge-default"])
def test_status_expected_release_past_date_max_is_alive(tmp_path, capsys, rows, flags):
    (tmp_path / "history.csv").write_text(_HISTORY_HEADER + rows)
    code = main(["status", "--history", str(tmp_path / "history.csv"), "--time", "2020-06-01", *flags])
    out = capsys.readouterr().out
    assert code == 0
    assert "g:a: alive" in out and "expected next 9999-12-31" in out


@pytest.mark.parametrize("rows, flags", _PAST_DATE_MAX, ids=["smoothed", "default", "huge-default"])
def test_scan_expected_release_past_date_max_is_alive(tmp_path, capsys, rows, flags):
    (tmp_path / "tree.txt").write_text("org.app:root:1\n+- g:a:jar:1:compile\n|  \\- h:b:jar:1:compile\n")
    (tmp_path / "history.csv").write_text(_HISTORY_HEADER + rows + "h,b,1,2020-01-01\n")
    (tmp_path / "kb.json").write_text("[]")
    code = main(["scan", "--tree", str(tmp_path / "tree.txt"), "--history", str(tmp_path / "history.csv"),
                 "--kb", str(tmp_path / "kb.json"), "--time", "2020-06-01", "--format", "json", *flags])
    census = json.loads(capsys.readouterr().out)["census"]
    assert code == 0
    assert [(row["gav"], row["library_status"], row["via_halted"]) for row in census] == [
        ("g:a:1", "alive", False),
        ("h:b:1", "alive" if flags else "halted", False),
    ]


def test_status_rejects_a_version_no_coordinate_can_have(tmp_path, capsys):
    (tmp_path / "history.csv").write_text(_HISTORY_HEADER + "g,a,1.0,2018-01-01\ng,a,1:0,2018-01-01\n")
    code = main(["status", "--history", str(tmp_path / "history.csv"), "--time", "2020-06-01"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "history.csv: malformed CSV row at line 3: version must not contain ':'" in captured.err


def test_default_interval_past_the_float_range_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "history.csv").write_text(_HISTORY_HEADER + "g,a,1,2020-01-01\n")
    code = main(["status", "--history", str(tmp_path / "history.csv"),
                 "--default-interval-days", "1" + "0" * 400])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("depscope: error: default_interval_days must be positive "
                            "and within the float range\n")


def test_duplicates_name_their_line(tmp_path, capsys):
    (tmp_path / "tree.txt").write_text("g:root:1\n+- g:a:jar:1:compile\n+- g:a:jar:2:compile\n")
    (tmp_path / "history.csv").write_text(_HISTORY_HEADER + "g,a,1.0,2020-01-01\ng,a,1.0,2020-02-01\n")
    (tmp_path / "kb.json").write_text("[]")
    args = ["scan", "--tree", str(tmp_path / "tree.txt"), "--history", str(tmp_path / "history.csv"),
            "--kb", str(tmp_path / "kb.json"), "--time", "2020-06-01"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "history.csv: duplicate release g:a:1.0 in history at line 3" in err
    (tmp_path / "history.csv").write_text(_HISTORY_HEADER + "g,a,1,2020-01-01\ng,a,2,2020-02-01\n")
    assert main(args) == 1
    assert "tree.txt: library g:a appears more than once in the tree, again at line 3" in capsys.readouterr().err


def test_simulate_cli_deterministic(tmp_path, capsys):
    from conftest import build_synthetic_pool

    pool = build_synthetic_pool(20)
    trees_dir = tmp_path / "trees"
    trees_dir.mkdir()
    for tree in pool.trees:
        gav = tree.root.gav
        name = f"{gav.group_id}__{gav.artifact_id}__{gav.version}.json"
        (trees_dir / name).write_text(render_tree_json(tree))
    (tmp_path / "releases.csv").write_text(history_csv(pool.histories.values()))
    kb_payload = [
        {
            "id": record.vuln_id,
            "affected": [
                {"group": g.group_id, "artifact": g.artifact_id, "versions": [g.version]}
                for g in sorted(record.affected)
            ],
        }
        for record in pool.kb
    ]
    (tmp_path / "kb.json").write_text(json.dumps(kb_payload))

    args = [
        "simulate",
        "--trees", str(trees_dir),
        "--history", str(tmp_path / "releases.csv"),
        "--kb", str(tmp_path / "kb.json"),
        "--projects", "25",
        "--deps", "6",
        "--seed", "99",
        "--time", "2018-06-01",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    header, *rows = first.splitlines()
    assert header.startswith("project,root,")
    assert len(rows) == 25


def test_include_non_deployed_flag(workspace, capsys, sample_histories):
    tree_file = workspace / "app-core.txt"
    tree_file.write_text(
        "com.acme:app-core:jar:1.0\n"
        "\\- org.ziplib:compress:jar:1.4:test\n"
    )
    (workspace / "kb.json").write_text(
        json.dumps(
            [{"id": "V1", "affected": [{"group": "org.ziplib", "artifact": "compress", "versions": ["1.4"]}]}]
        )
    )
    assert main(_scan_args(workspace)) == 0
    assert "vulnerable paths: 0" in capsys.readouterr().out
    # the finding is non-deployed, so even in include mode the exit stays 0
    assert main(_scan_args(workspace, "--include-non-deployed")) == 0
    assert "vulnerable paths: 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "lenient, error",
    [
        ((), "no release history for library org.none:unknown"),
        (("--lenient-history",),
         "version of org.webkit:http-client:8.8 does not appear in its release history"),
    ],
    ids=["strict", "lenient"],
)
def test_unknown_version_fails_in_both_history_modes(workspace, capsys, lenient, error):
    # lenient mode covers only libraries with no history at all; a version
    # missing from a history that exists fails at its first node in preorder,
    # deployed or not
    (workspace / "app-core.txt").write_text(
        "com.acme:app-core:jar:1.0\n"
        "+- org.none:unknown:jar:1.0:compile\n"
        "\\- org.webkit:http-client:jar:8.8:test\n"
        "   \\- com.acme:app-util:jar:9.9:compile\n"
    )
    assert main(_scan_args(workspace, *lenient)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"depscope: error: {error}\n"


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--tree", "x"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_scan_text_chain_deeper_than_recursion_limit(tmp_path, capsys):
    depth = 1500
    chain = [f"org.deep:lib{i}:1.0" for i in range(1, depth + 1)]
    lines = ["com.app:app:1.0"]
    for i, gav in enumerate(chain):
        g, a, v = gav.split(":")
        lines.append("   " * i + f"\\- {g}:{a}:jar:{v}:compile")
    (tmp_path / "chain.txt").write_text("\n".join(lines) + "\n")
    (tmp_path / "releases.csv").write_text(
        "group_id,artifact_id,version,release_date\n"
        + "".join(f"org.deep,lib{i},1.0,2018-05-01\n" for i in range(1, depth + 1))
    )
    (tmp_path / "kb.json").write_text(json.dumps(
        [{"id": "V-DEEP", "affected": [{"group": "org.deep", "artifact": f"lib{depth}", "versions": ["1.0"]}]}]
    ))
    code = main([
        "scan", "--tree", str(tmp_path / "chain.txt"), "--history", str(tmp_path / "releases.csv"),
        "--kb", str(tmp_path / "kb.json"), "--time", "2018-06-01", "--format", "json",
    ])
    assert code == 2
    (path,) = json.loads(capsys.readouterr().out)["paths"]
    assert path["raw_path"] == chain[::-1] + ["com.app:app:1.0"]
    # one project along the whole chain: grouping leaves the deepest member and the root
    assert path["grouped_path"] == [chain[-1], "com.app:app:1.0"]
    assert path["responsibility"] == "direct"


def test_scan_rejects_colon_in_kb_field(workspace, capsys):
    (workspace / "kb.json").write_text(json.dumps(
        [{"id": "V1", "affected": [{"group": "org:webkit", "artifact": "http-client", "versions": ["2.3"]}]}]
    ))
    assert main(_scan_args(workspace)) == 1
    err = capsys.readouterr().err
    assert "kb.json" in err and "/0/affected/0/group" in err


def test_scan_rejects_colon_in_history_field(workspace, capsys):
    (workspace / "releases.csv").write_text(
        "group_id,artifact_id,version,release_date\norg.webkit,http:client,2.3,2018-01-01\n"
    )
    assert main(_scan_args(workspace)) == 1
    err = capsys.readouterr().err
    assert "releases.csv" in err and "line 2" in err


def test_scan_directory_rejects_duplicate_roots(workspace, capsys):
    corpus = workspace / "corpus"
    corpus.mkdir()
    (corpus / "first.txt").write_text(SAMPLE_TREE_TEXT)
    (corpus / "second.txt").write_text(SAMPLE_TREE_TEXT)
    args = _scan_args(workspace)
    args[args.index("--tree") + 1] = str(corpus)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "first.txt" in err and "second.txt" in err


def _break_path_without_raw_path(data):
    del data["paths"][0]["raw_path"]
    return "/paths/0"


def _break_paths_not_array(data):
    data["paths"] = 5
    return "/paths"


def _break_census_entry_not_object(data):
    data["census"][0] = 1
    return "/census/0"


def _break_empty_raw_path(data):
    data["paths"][0]["raw_path"] = []
    return "/paths/0"


@pytest.mark.parametrize("corrupt", [
    _break_path_without_raw_path,
    _break_paths_not_array,
    _break_census_entry_not_object,
    _break_empty_raw_path,
])
def test_report_malformed_result_names_file_and_pointer(workspace, capsys, corrupt):
    main(_scan_args(workspace, "--format", "json"))
    data = json.loads(capsys.readouterr().out)
    pointer = corrupt(data)
    results_dir = workspace / "results"
    results_dir.mkdir()
    (results_dir / "broken.json").write_text(json.dumps(data))
    assert main(["report", "--input", str(results_dir)]) == 1
    err = capsys.readouterr().err
    assert "broken.json" in err and f"schema violation at {pointer}:" in err


@pytest.mark.parametrize("text", ["20180601", "2018-W22-5"])
def test_time_flag_takes_only_yyyy_mm_dd(tmp_path, capsys, text):
    (tmp_path / "history.csv").write_text(history_csv([stalled_history(Ga("org.legacy", "old"))]))
    with pytest.raises(SystemExit) as exc:
        main(["status", "--history", str(tmp_path / "history.csv"), "--time", text])
    assert exc.value.code == 1
    assert f"not a YYYY-MM-DD date: {text!r}" in capsys.readouterr().err


def _json_chain(depth: int) -> str:
    """A JSON tree whose root sits on a chain ``depth`` dependencies deep."""
    opened = "".join(
        f'{{"gav": "org.deep{i}:lib{i}:1.0", "scope": "compile", "children": ['
        for i in range(depth)
    )
    leaf = '{"gav": "org.leaf:leaf:1.0", "scope": "compile", "children": []}'
    return '{"root": ' + opened + leaf + "]}" * depth + "}"


@pytest.mark.parametrize("depth", [520, 5000])
def test_scan_json_tree_deeper_than_decoder_is_schema_violation(workspace, capsys, depth):
    (workspace / "deep.json").write_text(_json_chain(depth))
    args = _scan_args(workspace)
    args[args.index("--tree") + 1] = str(workspace / "deep.json")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "deep.json" in err and "schema violation at <document>" in err


def test_scan_deeply_nested_kb_is_schema_violation(workspace, capsys):
    (workspace / "kb.json").write_text("[" * 3000 + "]" * 3000)
    assert main(_scan_args(workspace)) == 1
    err = capsys.readouterr().err
    assert "kb.json" in err and "schema violation at <document>" in err


def test_report_deeply_nested_result_is_schema_violation(tmp_path, capsys):
    (tmp_path / "deep.json").write_text("[" * 3000 + "]" * 3000)
    assert main(["report", "--input", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "deep.json" in err and "schema violation at <document>" in err


_HUGE_INT = "1" * 5000  # longer than the decoder converts to an int


@pytest.mark.parametrize("kind", ["tree", "kb", "result"])
def test_json_integer_over_digit_limit_names_file(workspace, capsys, kind):
    doc = "[" + _HUGE_INT + "]" if kind == "kb" else '{"root": ' + _HUGE_INT + "}"
    if kind == "result":
        (workspace / "results").mkdir()
        (workspace / "results" / "huge.json").write_text(doc)
        args = ["report", "--input", str(workspace / "results")]
    else:
        (workspace / "huge.json").write_text(doc)
        args = _scan_args(workspace)
        args[args.index(f"--{kind}") + 1] = str(workspace / "huge.json")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "huge.json" in err and "schema violation at <document>" in err
    assert "Traceback" not in err


def test_history_field_over_csv_limit_names_file_and_line(workspace, capsys):
    (workspace / "releases.csv").write_text(
        "group_id,artifact_id,version,release_date\n"
        "g,a,1.0,2020-01-01\n"
        "g," + "x" * 131073 + ",1.0,2020-01-01\n"
    )
    assert main(_scan_args(workspace)) == 1
    err = capsys.readouterr().err
    assert "releases.csv" in err and "line 3" in err and "field limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--history", "--kb", "--tree"])
def test_input_not_utf8_names_file(workspace, capsys, flag):
    (workspace / "latin1.txt").write_bytes(b"caf\xe9\n")
    args = _scan_args(workspace)
    args[args.index(flag) + 1] = str(workspace / "latin1.txt")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "latin1.txt" in err and "can't decode" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["text tree", "json tree", "history", "kb", "result"])
def test_byte_order_mark_changes_no_output(workspace, capsys, kind):
    (workspace / "app-core.json").write_text(SAMPLE_TREE_JSON)
    (workspace / "results").mkdir()
    main(_scan_args(workspace, "--format", "json"))
    (workspace / "results" / "r.json").write_text(capsys.readouterr().out)
    args = _scan_args(workspace, "--format", "json")
    if kind == "json tree":
        args[args.index("--tree") + 1] = str(workspace / "app-core.json")
    if kind == "result":
        args = ["report", "--input", str(workspace / "results"), "--format", "json"]
    file = workspace / {"text tree": "app-core.txt", "json tree": "app-core.json",
                        "history": "releases.csv", "kb": "kb.json", "result": "results/r.json"}[kind]

    def run():
        code = main(args)
        return (code, *capsys.readouterr())

    plain = run()
    assert plain[0] == (0 if kind == "result" else 2) and not plain[2]
    file.write_bytes(codecs.BOM_UTF8 + file.read_bytes())
    assert run() == plain


def test_report_rejects_unknown_result_key(workspace, capsys):
    main(_scan_args(workspace, "--format", "json"))
    data = json.loads(capsys.readouterr().out)
    data["census"][0]["extra"] = 1
    (workspace / "results").mkdir()
    (workspace / "results" / "extra.json").write_text(json.dumps(data))
    assert main(["report", "--input", str(workspace / "results")]) == 1
    err = capsys.readouterr().err
    assert "extra.json" in err and "schema violation at /census/0: unexpected key 'extra'" in err


# --- one result at a time ---------------------------------------------------------


def _tree_with_child(gav_json: str) -> str:
    child = f'{{"gav": "{gav_json}", "scope": "compile", "children": []}}'
    return f'{{"root": {{"gav": "com.acme:app-core:1.0", "scope": "compile", "children": [{child}]}}}}'


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("kind", ["tree", "kb", "result"])
def test_lone_surrogate_names_file_and_pointer(workspace, capsys, kind, fmt):
    if kind == "tree":
        (workspace / "odd.json").write_text(_tree_with_child("g:a:\\ud800"))
        args = _scan_args(workspace, "--format", fmt, "--lenient-history")
        args[args.index("--tree") + 1] = str(workspace / "odd.json")
        pointer = "/root/children/0/gav"
    elif kind == "kb":
        kb = json.loads(SAMPLE_KB_JSON)
        kb[1]["id"] = "VULN-\udc00"
        (workspace / "odd.json").write_text(json.dumps(kb))
        args = _scan_args(workspace, "--format", fmt)
        args[args.index("--kb") + 1] = str(workspace / "odd.json")
        pointer = "/1/id"
    else:
        main(_scan_args(workspace, "--format", "json"))
        data = json.loads(capsys.readouterr().out)
        data["census"][0]["vuln_ids"] = ["\ud800"]
        (workspace / "results").mkdir()
        (workspace / "results" / "odd.json").write_text(json.dumps(data))
        args = ["report", "--input", str(workspace / "results"), "--format", fmt]
        pointer = "/census/0/vuln_ids/0"
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "odd.json" in captured.err
    assert f"schema violation at {pointer}: unpaired surrogate" in captured.err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_scan_directory_writes_nothing_when_last_tree_lacks_history(workspace, capsys, fmt):
    corpus = workspace / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text(SAMPLE_TREE_TEXT)
    (corpus / "b.txt").write_text("zz.group:late:1.0\n+- zz.none:unknown:jar:1.0:compile\n")
    args = _scan_args(workspace, "--format", fmt)
    args[args.index("--tree") + 1] = str(corpus)
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no release history for library zz.none:unknown" in captured.err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_report_writes_nothing_when_last_file_is_malformed(workspace, capsys, fmt):
    main(_scan_args(workspace, "--format", "json"))
    scan_json = capsys.readouterr().out
    results = workspace / "results"
    results.mkdir()
    for k in range(3):
        (results / f"r{k}.json").write_text(scan_json)
    (results / "z.json").write_text('{"root": "com.acme:app-core:1.0"}')
    assert main(["report", "--input", str(results), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "z.json" in captured.err and "schema violation at <document>: missing key" in captured.err


def _report_peak_bytes(directory, files: int, text: str, capsys) -> int:
    directory.mkdir()
    for k in range(files):
        (directory / f"r{k:04d}.json").write_text(text)
    tracemalloc.start()
    try:
        assert main(["report", "--input", str(directory), "--format", "json"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["cells"]["trees"] == files


def test_report_memory_does_not_grow_with_file_count(tmp_path, capsys):
    """``report`` holds one saved result at a time, so ten times the files
    must not mean ten times the peak."""
    rows = tuple(
        CensusRow(Gav(f"org.g{i}", f"a{i}", "1.0"), 1 + i % 3, True, ("V-1",) * (i % 7 == 0),
                  Responsibility.TRANSITIVE, LibraryStatus.ALIVE, InstanceStatus.UP_TO_DATE,
                  False, False)
        for i in range(50)
    )
    text = render(ScanResult(Gav("com.app", "app", "1.0"), date(2018, 6, 1), False, (), rows), "json")
    small = _report_peak_bytes(tmp_path / "small", 40, text, capsys)
    large = _report_peak_bytes(tmp_path / "large", 400, text, capsys)
    assert large < 1.5 * small


def test_scan_directory_of_alternating_dates_fills_each_library_once_per_date(
        tmp_path, capsys, monkeypatch):
    # the trees are scanned in file-name order, so their dates alternate;
    # each (library, date) verdict is still made once
    template = halted_direct_tree()
    libraries = sorted(template.gavs() - {template.root.gav})
    times = [date(2018, 6, 1), date(2017, 6, 1)]
    (tmp_path / "trees").mkdir()
    for k in range(6):
        root = DependencyNode(Gav("com.acme", f"app-{k}", "1.0"), Scope.COMPILE, template.root.children)
        tree = DependencyTree(root, times[k % 2])
        (tmp_path / "trees" / f"app-{k}.json").write_text(render_tree_json(tree))
    (tmp_path / "releases.csv").write_text(history_csv([alive_history(g) for g in libraries]))
    (tmp_path / "kb.json").write_text("[]")
    made = []
    verdict = lifecycle.library_verdict
    monkeypatch.setattr(lifecycle, "library_verdict",
                        lambda history, time, cfg: made.append((history.library, time))
                        or verdict(history, time, cfg))
    args = ["scan", "--tree", str(tmp_path / "trees"), "--history", str(tmp_path / "releases.csv"),
            "--kb", str(tmp_path / "kb.json")]
    assert main(args) == 0
    assert sorted(made) == sorted((gav.ga, time) for gav in libraries for time in times)
