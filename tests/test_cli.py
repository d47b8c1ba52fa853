import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import wisebe
from wisebe import cli
from wisebe.cli import main
from wisebe.report import DocumentError, EvaluationReport, evaluate_agreement, render_report
from strategies import TEXT_CONTENTS, corpus_trees, run_cli, write_files, write_tree


def test_eval_table(demo_corpus, tmp_path):
    code, data, err = run_cli(["eval", str(demo_corpus)], tmp_path / "out")
    assert code == 0
    assert b"windowed scores" in data
    assert err == ""


def test_eval_json_schema(demo_corpus, tmp_path):
    code, data, _ = run_cli(["eval", str(demo_corpus), "--format", "json"], tmp_path / "out")
    assert code == 0
    records = json.loads(data)
    assert {r["system"] for r in records} == {"S1", "S2"}


def test_eval_with_baselines_and_threshold(demo_corpus, tmp_path):
    code, data, _ = run_cli(
        ["eval", str(demo_corpus), "--baselines", "--threshold", "2", "--format", "json"],
        tmp_path / "out",
    )
    assert code == 0
    assert "consensus_f1" in json.loads(data)[0]


def test_eval_window_limit_changes_scores(demo_corpus, tmp_path):
    _, narrow, _ = run_cli(["eval", str(demo_corpus), "--window-limit", "0", "--format", "json"],
                           tmp_path / "out")
    _, wide, _ = run_cli(["eval", str(demo_corpus), "--window-limit", "9", "--format", "json"],
                         tmp_path / "out")
    assert narrow != wide


def test_environment_does_not_change_the_report(demo_corpus, tmp_path, monkeypatch):
    _, default, _ = run_cli(["eval", str(demo_corpus), "--format", "json"], tmp_path / "out")
    monkeypatch.setenv("WISEBE_WINDOW_LIMIT", "5")
    _, with_env, _ = run_cli(["eval", str(demo_corpus), "--format", "json"], tmp_path / "out")
    assert with_env == default


# The options are checked before the corpus is read, so a missing root
# still gives the option's error.
@pytest.mark.parametrize("option, value, kind, message, root", [
    ("--window-limit", "-1", "ValueError", "window limit must be >= 0, got -1", None),
    # No document can accept it, so it fails once, not once per document.
    ("--threshold", "0", "BadThreshold", "threshold must be >= 1, got 0", None),
    ("--window-limit", "-1", "ValueError", "window limit must be >= 0, got -1", "missing"),
    ("--threshold", "0", "BadThreshold", "threshold must be >= 1, got 0", "missing"),
], ids=["window-limit", "threshold", "window-limit-missing-root", "threshold-missing-root"])
def test_option_out_of_range_exits_two(demo_corpus, tmp_path, option, value, kind, message, root):
    root = tmp_path / root if root else demo_corpus
    code, _, err = run_cli(["eval", str(root), option, value], tmp_path / "out")
    assert code == 2
    [error] = json.loads(err)["errors"]
    assert error == {"doc_id": None, "kind": kind, "message": message}


# Command lines that argparse rejects; `--output=PATH` is appended to each,
# in one word, so the bare `wisebe` case still lacks its subcommand.
BAD_COMMAND_LINES = {
    "no subcommand": [],
    "eval without root": ["eval"],
    "window limit not an int": ["eval", "{root}", "--window-limit", "x"],
    "unknown format": ["eval", "{root}", "--format", "xml"],
    "threshold without value": ["eval", "{root}", "--threshold"],
    "unknown option": ["eval", "{root}", "--bogus"],
    "score without --ref": ["score"],
}


@pytest.mark.parametrize("argv", BAD_COMMAND_LINES.values(), ids=BAD_COMMAND_LINES.keys())
def test_bad_command_line_exits_two_with_one_json_line(demo_corpus, tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main([*(word.format(root=demo_corpus) for word in argv), f"--output={out}"])
    captured = capsys.readouterr()
    assert (code, captured.out, out.exists()) == (2, "", False)
    [line] = captured.err.splitlines()
    [error] = json.loads(line)["errors"]
    assert (error["doc_id"], error["kind"]) == (None, "ValueError")
    assert error["message"].startswith("wisebe")


def test_bad_command_line_from_the_shell_is_json():
    proc = subprocess.run([sys.executable, "-m", "wisebe", "eval"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [json.dumps({"errors": [{
        "doc_id": None, "kind": "ValueError",
        "message": "wisebe eval: the following arguments are required: root"}]})]


def test_help_still_prints_on_stdout(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "-h"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 0
    assert captured.out.startswith("usage: wisebe eval") and captured.err == ""


def test_missing_root_exits_two(tmp_path):
    code, _, err = run_cli(["eval", str(tmp_path / "nope")], tmp_path / "out")
    assert code == 2
    payload = json.loads(err)
    assert payload["errors"][0]["kind"] == "FileNotFoundError"


def test_document_failure_exits_one_with_error_json(tmp_path):
    root = write_files(tmp_path / "corpus", {
        "good/ref_1.txt": "go on.", "good/ref_2.txt": "go on.",
        "bad/ref_1.txt": "yes sir.", "bad/ref_2.txt": "no sir."})
    code, data, err = run_cli(["eval", str(root), "--format", "json"], tmp_path / "out")
    assert code == 1
    assert {r["doc_id"] for r in json.loads(data)} == set()  # no systems anywhere
    payload = json.loads(err)
    assert payload["errors"][0]["doc_id"] == "bad"
    assert payload["errors"][0]["kind"] == "AlignmentError"


def test_stray_files_warn_on_stderr(tmp_path):
    root = write_files(tmp_path / "corpus", {"junk.bin": b"\x00", "a/ref_1.txt": "go on.",
                                             "a/ref_2.txt": "go on."})
    code, _, err = run_cli(["eval", str(root)], tmp_path / "out")
    assert code == 0
    [line] = err.splitlines()
    assert json.loads(line) == {"warnings": [
        f"{root / 'junk.bin'}: not a document directory or structured document, ignored"]}


@pytest.mark.parametrize("files, doc_id, bad, offset", [
    ({"c/ref_1.txt": b"go on.", "c/ref_2.txt": b"go \xff on."}, "c", "c/ref_2.txt", 3),
    ({"a.json": b"\xff{}"}, "a", "a.json", 0),
    # The offset counts the byte order mark: 0xff is byte 6 of the file.
    # Document a still loads, so c fails alone.
    ({"a/ref_1.txt": b"go on.", "a/ref_2.txt": b"go. on.",
      "c/ref_1.txt": b"go on.", "c/ref_2.txt": b"\xef\xbb\xbfgo \xff on."}, "c", "c/ref_2.txt", 6),
])
def test_non_utf8_input_names_the_file(tmp_path, files, doc_id, bad, offset):
    root = write_files(tmp_path / "corpus", files)
    code, _, err = run_cli(["eval", str(root), "--format", "json"], tmp_path / "out")
    assert code == 1
    [error] = json.loads(err)["errors"]
    assert error == {"doc_id": doc_id, "kind": "ValueError", "message":
                     f"{root / bad}: 'utf-8' codec can't decode byte 0xff "
                     f"in position {offset}: invalid start byte"}


@pytest.mark.parametrize("command", ["eval", "agreement"])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_non_utf8_document_id_round_trips(tmp_path, command, fmt):
    """A document directory named by a byte that is not UTF-8 is reported
    under that byte in table and csv, and as its escaped surrogate in json."""
    doc = os.fsdecode(b"\xff")
    root = write_files(tmp_path / "corpus", {f"{doc}/ref_1.txt": "go on. yes",
                                             f"{doc}/ref_2.txt": "go. on yes",
                                             f"{doc}/sys_S.txt": "go on. yes"})
    code, data, err = run_cli([command, str(root), "--format", fmt], tmp_path / "out")
    assert code == 0
    assert err == ""
    if fmt == "json":
        assert b'"\\udcff"' in data
    else:
        assert b"\xff" in data


def test_agreement_subcommand(demo_corpus, tmp_path):
    code, data, _ = run_cli(["agreement", str(demo_corpus), "--format", "json"], tmp_path / "out")
    assert code == 0
    payload = json.loads(data)
    assert payload["pcc"] == pytest.approx(0.947, abs=0.001)


def test_identical_documents_leave_pearson_uncomputed(tmp_path):
    # two documents with the same (agreement ratio, kappa) give a constant sequence
    root = write_files(tmp_path / "corpus", {f"{doc}/{name}.txt": text for doc in ("a", "b")
                                             for name, text in (("ref_1", "go on. stop."),
                                                                ("ref_2", "go on stop."))})
    code, table, _ = run_cli(["agreement", str(root)], tmp_path / "out")
    assert code == 0
    assert b"pearson r: not computed (needs two varying documents)" in table
    _, data, _ = run_cli(["agreement", str(root), "--format", "json"], tmp_path / "out")
    payload = json.loads(data)
    assert all(d["kappa"] is not None for d in payload["documents"])
    assert (payload["pcc"], payload["sample_count"]) == (None, 0)


def test_agreement_lowers_by_the_unicode_database_of_the_oldest_supported_python(tmp_path):
    """U+2C2F lowers to U+2C5F from Unicode 14.0 (Python 3.11) on, and to
    itself in Python 3.10's Unicode 13.0, where these references do not
    align.  pyproject.toml requires 3.11 so that every supported Python
    gives this report; a Unicode-database change fails here."""
    root = write_files(tmp_path / "corpus", {"d/ref_1.txt": "a \u2c2f b. c.",
                                             "d/ref_2.txt": "a \u2c5f b c."})
    code, data, err = run_cli(["agreement", str(root), "--format", "json"], tmp_path / "out")
    assert (code, err) == (0, "")
    [document] = json.loads(data)["documents"]
    assert (document["agreement_ratio"], document["kappa"]) == (0.5, 0.467)


def _both_layouts(tmp_path, docs, tokens=("go", "on", "now")):
    """`docs` ({doc id: {file stem: marked positions}}) written as text
    directories under tmp_path/text and as `.json` documents under
    tmp_path/json; returns the two roots."""
    files = {}
    for doc_id, marks in docs.items():
        for name, positions in marks.items():
            text = " ".join(word + "." * (j in positions) for j, word in enumerate(tokens))
            files[f"text/{doc_id}/{name}.txt"] = text
        files[f"json/{doc_id}.json"] = json.dumps({
            "tokens": tokens,
            "references": {name: marks[name] for name in marks if name.startswith("ref_")},
            "systems": {name[4:]: marks[name] for name in marks if name.startswith("sys_")},
        })
    write_files(tmp_path, files)
    return tmp_path / "text", tmp_path / "json"


def test_text_and_json_layouts_read_references_in_label_order(tmp_path):
    # "ref_1-b.txt" sorts before "ref_1.txt", but the label "ref_1" before "ref_1-b"
    roots = _both_layouts(tmp_path, {"a": {"ref_1": [0, 3], "ref_1-b": [1, 2, 3],
                                           "sys_S1": [2, 3]}},
                          tokens=("one", "two", "three", "four"))
    code, text_layout, _ = run_cli(["eval", str(roots[0])], tmp_path / "out")
    assert code == 0
    code, json_layout, _ = run_cli(["eval", str(roots[1])], tmp_path / "out")
    assert code == 0
    assert text_layout == json_layout


def test_a_one_reference_document_fails_alone_in_both_layouts(tmp_path):
    roots = _both_layouts(tmp_path, {"a": {"ref_1": [1], "ref_2": [0, 1], "sys_S1": [1]},
                                     "b": {"ref_1": [1], "sys_S1": [0, 1]}}, tokens=("go", "on"))
    outcomes = [run_cli(["eval", str(root), "--format", "json"], tmp_path / "out")
                for root in roots]
    assert outcomes[0] == outcomes[1]
    code, data, err = outcomes[0]
    assert code == 1
    assert "a" in {row["doc_id"] for row in json.loads(data)}
    assert json.loads(err) == {"errors": [{
        "doc_id": "b", "kind": "MissingReferences",
        "message": "document 'b' has 1 reference(s), need at least 2"}]}


@pytest.mark.parametrize("argv", [["eval"], ["eval", "--baselines", "--threshold", "2"],
                                  ["agreement"]], ids=["eval", "baselines", "agreement"])
def test_a_document_without_reference_boundaries_fails_alone(tmp_path, argv):
    roots = _both_layouts(tmp_path, {"a": {"ref_1": [0, 2], "ref_2": [2], "sys_S": [2]},
                                     "b": {"ref_1": [], "ref_2": [], "sys_S": [1]}})
    outcomes = [run_cli([*argv, str(root), "--format", "json"], tmp_path / "out")
                for root in roots]
    assert outcomes[0] == outcomes[1]
    code, data, err = outcomes[0]
    assert code == 1
    report = json.loads(data)
    scored = {row["doc_id"] for row in (report["documents"] if argv[0] == "agreement" else report)}
    assert "a" in scored and "b" not in scored
    assert json.loads(err) == {"errors": [{
        "doc_id": "b", "kind": "NoBoundaries",
        "message": "no reference marks any boundary in 'b'"}]}


def test_a_document_named_mean_fails_alone_in_eval_only(tmp_path):
    marks = {"ref_1": [0, 2], "ref_2": [2], "sys_S": [2]}
    for root in _both_layouts(tmp_path, {"mean": marks, "v3": marks}):
        code, data, err = run_cli(["eval", str(root), "--format", "json"], tmp_path / "out")
        assert code == 1
        assert [(row["doc_id"], row["system"]) for row in json.loads(data)] == [
            ("v3", "S"), ("mean", "S")]
        assert json.loads(err) == {"errors": [{
            "doc_id": "mean", "kind": "ValueError",
            "message": "document 'mean': 'mean' names the mean rows"}]}
        # The agreement report has no mean rows, so the name is free there.
        code, data, _ = run_cli(["agreement", str(root), "--format", "json"], tmp_path / "out")
        assert code == 0
        assert [d["doc_id"] for d in json.loads(data)["documents"]] == ["mean", "v3"]


def test_a_reference_named_mean_fails_its_document(tmp_path):
    root = write_files(tmp_path / "corpus", {f"{doc_id}.json": json.dumps({
        "tokens": ["go", "on"], "references": {"ref_1": [1], label: [0, 1]},
        "systems": {"S": [1]}}) for doc_id, label in (("a", "mean"), ("b", "ref_2"))})
    code, data, err = run_cli(["eval", str(root), "--format", "json"], tmp_path / "out")
    assert code == 1
    assert [row["doc_id"] for row in json.loads(data)] == ["b", "mean"]
    assert json.loads(err) == {"errors": [{
        "doc_id": "a", "kind": "ValueError",
        "message": "document 'a': 'mean' names the mean rows"}]}


def _error_table(error):
    """The table report of a run whose one document failed with `error`."""
    return render_report(EvaluationReport((), (), (), None, (DocumentError(**error),)))


@pytest.mark.parametrize("stem, doc_id", [("ref_2", "mean"), ("mean", "doc")])
def test_score_rejects_the_mean_row_name(tmp_path, stem, doc_id):
    write_files(tmp_path, {"ref_1.txt": "go on.", f"{stem}.txt": "go. on.", "sys_S.txt": "go on."})
    code, data, err = run_cli(
        ["score", "--ref", str(tmp_path / "ref_1.txt"), "--ref", str(tmp_path / f"{stem}.txt"),
         "--sys", str(tmp_path / "sys_S.txt"), "--doc-id", doc_id], tmp_path / "out")
    error = {"doc_id": doc_id, "kind": "ValueError",
             "message": f"document {doc_id!r}: 'mean' names the mean rows"}
    assert (code, data) == (1, _error_table(error))
    assert json.loads(err) == {"errors": [error]}


def test_score_subcommand(demo_corpus, tmp_path):
    v1 = demo_corpus / "v1"
    code, data, _ = run_cli([
        "score",
        "--ref", str(v1 / "ref_1.txt"), "--ref", str(v1 / "ref_2.txt"),
        "--ref", str(v1 / "ref_3.txt"), "--sys", str(v1 / "sys_S1.txt"),
        "--doc-id", "v1", "--format", "json",
    ], tmp_path / "out")
    assert code == 0
    records = json.loads(data)
    assert records[0]["doc_id"] == "v1"
    assert records[0]["system"] == "S1"


def test_score_needs_two_references(demo_corpus, tmp_path):
    code, data, err = run_cli(
        ["score", "--ref", str(demo_corpus / "v1" / "ref_1.txt")], tmp_path / "out")
    assert code == 1
    payload = json.loads(err)
    assert payload["errors"][0]["kind"] == "MissingReferences"
    assert data == _error_table(payload["errors"][0])


def test_score_rejects_duplicate_system_labels(tmp_path):
    write_files(tmp_path, {"a/sys_S1.txt": "go on. stop.", "b/sys_S1.txt": "go. on stop.",
                           "ref_1.txt": "go on. stop.", "ref_2.txt": "go on stop."})
    code, data, err = run_cli(
        ["score", "--ref", str(tmp_path / "ref_1.txt"), "--ref", str(tmp_path / "ref_2.txt"),
         "--sys", str(tmp_path / "a" / "sys_S1.txt"), "--sys", str(tmp_path / "b" / "sys_S1.txt")],
        tmp_path / "out")
    [error] = json.loads(err)["errors"]
    assert (code, data) == (1, _error_table(error))
    assert error["doc_id"] == "doc"
    assert error["kind"] == "DuplicateLabel"
    assert "'S1'" in error["message"]


def test_score_rejects_duplicate_reference_labels(tmp_path):
    # The files do not exist: the labels are checked before anything is read.
    code, data, err = run_cli(
        ["score", "--ref", str(tmp_path / "a" / "ref_1.txt"),
         "--ref", str(tmp_path / "b" / "ref_1.txt"), "--sys", str(tmp_path / "sys_S.txt"),
         "--baselines"],
        tmp_path / "out")
    [error] = json.loads(err)["errors"]
    assert (code, data) == (1, _error_table(error))
    assert error["doc_id"] == "doc"
    assert error["kind"] == "DuplicateLabel"
    assert "reference label 'ref_1'" in error["message"]


@pytest.mark.parametrize("name, kind, message", [
    ("refs", "IsADirectoryError", "[Errno 21] Is a directory"),
    ("ref_2.txt", "FileNotFoundError", "[Errno 2] No such file or directory"),
])
def test_score_names_an_unreadable_reference(tmp_path, name, kind, message):
    """A --ref that is a directory or does not exist fails the document
    with the error and the text that `open` gives it."""
    write_files(tmp_path, {"ref_1.txt": "go on.", "refs/ref_2.txt": "go on."})
    bad = tmp_path / name
    code, data, err = run_cli(["score", "--ref", str(tmp_path / "ref_1.txt"), "--ref", str(bad)],
                              tmp_path / "out")
    [error] = json.loads(err)["errors"]
    assert (code, data) == (1, _error_table(error))
    assert error == {"doc_id": "doc", "kind": kind, "message": f"{message}: {str(bad)!r}"}


def test_bad_threshold_is_a_document_error(demo_corpus, tmp_path):
    code, _, err = run_cli(["eval", str(demo_corpus), "--threshold", "9"], tmp_path / "out")
    assert code == 1
    payload = json.loads(err)
    assert all(e["kind"] == "BadThreshold" for e in payload["errors"])


def test_cli_runs_as_module(demo_corpus):
    proc = subprocess.run(
        [sys.executable, "-m", "wisebe", "eval", str(demo_corpus), "--format", "csv"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"doc_id,system,")


def test_undefined_kappa_keeps_the_document(tmp_path):
    # every reference marks the only token: Fleiss' kappa divides by zero
    root = write_files(tmp_path / "corpus", {"a/ref_1.txt": "hello.", "a/ref_2.txt": "hello!",
                                             "a/sys_S.txt": "hello."})
    code, data, err = run_cli(["eval", str(root), "--format", "json"], tmp_path / "out")
    assert code == 0
    row = json.loads(data)[0]
    assert (row["doc_id"], row["wisebe"], row["kappa"]) == ("a", 1.0, None)
    assert err == ""
    code, data, err = run_cli(["agreement", str(root), "--format", "csv"], tmp_path / "out")
    assert code == 0
    assert data.decode().splitlines()[1] == "a,1.000,"
    assert err == ""


def test_reference_without_boundaries_blanks_mean_ser(tmp_path):
    # ref_2 has no slots, so its slot error rate is undefined
    root = write_files(tmp_path / "corpus", {"a/ref_1.txt": "a b. c d.", "a/ref_2.txt": "a b c d",
                                             "a/sys_S.txt": "a b. c d"})
    code, data, err = run_cli(["eval", str(root), "--baselines", "--format", "csv"],
                              tmp_path / "out")
    assert code == 0
    header, row, mean = data.decode().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["doc_id"] == "a"
    assert cells["mean_ser"] == ""
    assert cells["lenient_f1"] == "1.000"
    assert mean.startswith("mean,S,")
    assert err == ""


def test_deeply_nested_json_is_a_document_error(tmp_path):
    root = write_files(tmp_path / "corpus", {"deep.json": "[" * 100_000})
    env = {**os.environ, "PYTHONPATH": str(Path(wisebe.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "wisebe", "eval", str(root)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [error] = json.loads(proc.stderr.splitlines()[-1])["errors"]
    assert (error["doc_id"], error["kind"]) == ("deep", "ValueError")
    assert "deep.json" in error["message"]


def test_repeated_json_key_is_a_document_error(tmp_path):
    root = write_files(tmp_path / "corpus", {
        "a.json": '{"tokens": ["go", "on"], "references": {"r": [0], "r": [1], "q": [1]}}'})
    code, _, err = run_cli(["eval", str(root), "--format", "json"], tmp_path / "out")
    assert code == 1
    [error] = json.loads(err)["errors"]
    assert (error["doc_id"], error["kind"]) == ("a", "DuplicateLabel")
    assert "a.json" in error["message"] and "key 'r'" in error["message"]


@pytest.mark.parametrize("section", ["references", "systems"])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_lone_surrogate_label_is_a_document_error(tmp_path, section, fmt):
    """A label that cannot be written as UTF-8 fails its own document only."""
    labels = {"references": {"r1": [0], "r2": [1, 2]}, "systems": {"S": [2]}}
    good = json.dumps({"tokens": ["a", "b", "c"], **labels})
    first = next(iter(labels[section]))
    labels[section]["\ud800"] = labels[section].pop(first)
    root = write_files(tmp_path / "corpus", {
        "good.json": good, "bad.json": json.dumps({"tokens": ["a", "b", "c"], **labels})})
    code, data, err = run_cli(["eval", str(root), "--format", fmt], tmp_path / "out")
    assert code == 1
    [error] = json.loads(err)["errors"]
    assert (error["doc_id"], error["kind"]) == ("bad", "ValueError")
    assert error["message"] == f"{root / 'bad.json'}: key '\\ud800' is not valid UTF-8"
    if fmt == "json":
        assert {r["doc_id"] for r in json.loads(data)} == {"good", "mean"}
    else:
        sep = "," if fmt == "csv" else None
        assert any(line.split(sep)[:2] == ["good", "S"] for line in data.decode().splitlines())


@pytest.mark.parametrize("section", ["references", "systems"])
def test_empty_label_is_a_document_error(tmp_path, section):
    """An empty name would give a blank system cell, like the mean row's."""
    labels = {"references": {"r1": [1, 3], "r2": [3]}, "systems": {"S": [1]}}
    labels[section][""] = labels[section].pop(next(iter(labels[section])))
    root = write_files(tmp_path / "corpus",
                       {"a.json": json.dumps({"tokens": ["a", "b", "c", "d"], **labels})})
    code, _, err = run_cli(["eval", str(root), "--format", "csv"], tmp_path / "out")
    assert code == 1
    [error] = json.loads(err)["errors"]
    assert (error["doc_id"], error["kind"]) == ("a", "ValueError")
    assert error["message"] == f"{root / 'a.json'}: empty key in {section!r}"


@pytest.mark.parametrize("member", [1, 1.5, True, None, ["go"], {"go": 1}],
                         ids=["int", "float", "bool", "null", "list", "object"])
@pytest.mark.parametrize("before, after", [
    ([], ["on", "now"]), (["go"], ["now"]), (["go", "on"], []), (["go", ""], []),
], ids=["first", "middle", "last", "after-empty-token"])
def test_a_token_that_is_not_a_string_is_a_document_error(tmp_path, member, before, after):
    tokens = [*before, member, *after]
    root = write_files(tmp_path / "corpus", {"a.json": json.dumps(
        {"tokens": tokens, "references": {"r1": [2], "r2": [1, 2]}})})
    code, _, err = run_cli(["eval", str(root)], tmp_path / "out")
    assert code == 1
    [error] = json.loads(err)["errors"]
    assert error == {"doc_id": "a", "kind": "ValueError",
                     "message": f"{root / 'a.json'}: 'tokens' must be a list of strings"}


@pytest.fixture
def collector():
    """Gives the cyclic collector back to the rest of the session as it was."""
    collecting = gc.isenabled()
    yield
    (gc.enable if collecting else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["collecting", "paused"])
@pytest.mark.parametrize("case", ["exit-0", "exit-1", "exit-2", "raises"])
def test_main_pauses_the_collector_and_restores_the_callers_state(
        demo_corpus, tmp_path, monkeypatch, collector, collecting, case):
    root = {"exit-0": demo_corpus, "raises": demo_corpus, "exit-2": tmp_path / "none",
            "exit-1": write_files(tmp_path / "corpus", {"a/ref_1.txt": "yes sir.",
                                                        "a/ref_2.txt": "no sir."})}[case]
    seen = []

    def evaluate(layout):
        seen.append(gc.isenabled())
        if case == "raises":
            raise RuntimeError("not a user error")
        return evaluate_agreement(layout)

    monkeypatch.setattr(cli, "evaluate_agreement", evaluate)
    (gc.enable if collecting else gc.disable)()
    argv = ["agreement", str(root), "--output", str(tmp_path / "out")]
    if case == "raises":
        with pytest.raises(RuntimeError, match="^not a user error$"):
            main(argv)
    else:
        with redirect_stderr(io.StringIO()):
            assert main(argv) == int(case[-1])
    assert gc.isenabled() is collecting
    assert seen == ([] if case == "exit-2" else [False])


@pytest.mark.parametrize("command", [
    ["agreement"], ["eval", "--baselines", "--threshold", "2", "--format", "json"],
    ["eval", "--format", "table"],
])
def test_a_paused_run_leaves_as_much_cyclic_garbage_for_any_corpus_size(tmp_path, collector,
                                                                        command):
    """What the pause holds back until the run ends does not grow with the
    corpus: reference counting frees every record of every document."""
    def garbage(docs):
        files = {}
        for i in range(docs):
            if i % 2:
                files.update({f"d{i}/ref_1.txt": "go on. stop here.",
                              f"d{i}/ref_2.txt": "go on stop. here.",
                              f"d{i}/sys_S.txt": "go. on stop here."})
            else:
                files[f"d{i}.json"] = json.dumps({"tokens": ["go", "on", "stop", "here"],
                                                  "references": {"r1": [1, 3], "r2": [2, 3]},
                                                  "systems": {"S": [0, 3]}})
        root = write_files(tmp_path / str(docs), files)
        gc.collect()
        code, _, err = run_cli([command[0], str(root), *command[1:]], tmp_path / "out")
        assert (code, err) == (0, "")
        return gc.collect()

    gc.disable()
    assert garbage(3) == garbage(30) > 0


# Run in a fresh interpreter: prints the probed modules loaded before
# wisebe.cli is imported and after it ran each command line.
IMPORT_PROBE = """
import json, sys
probed = json.loads(sys.argv[1])
before = [name for name in probed if name in sys.modules]
import wisebe.cli
for argv in json.loads(sys.argv[2]):
    assert wisebe.cli.main(argv) == 0, argv
print(json.dumps([before, [name for name in probed if name in sys.modules]]))
"""


def test_cli_imports_nothing_heavy(demo_corpus, tmp_path):
    """The import cost is gone, not deferred into the commands."""
    probed = ["dataclasses", "inspect", "statistics", "fractions", "decimal"]
    argvs = [["eval", "--baselines", "--threshold", "2", "--format", "csv",
              "--output", str(tmp_path / "eval.csv"), str(demo_corpus)],
             ["agreement", "--format", "json", "--output", str(tmp_path / "agreement.json"),
              str(demo_corpus)]]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(probed),
                           json.dumps(argvs)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    assert after == before
    assert (tmp_path / "eval.csv").stat().st_size and (tmp_path / "agreement.json").stat().st_size


def _assert_structured_stderr(code, err):
    assert code in (0, 1, 2)
    payloads = [json.loads(line) for line in err.splitlines()]
    assert all(isinstance(payload, dict) for payload in payloads)
    if code:
        assert "errors" in payloads[-1]


CORPUS_COMMANDS = st.sampled_from([
    ["eval", "--format", "json"], ["eval", "--baselines", "--threshold", "2"],
    ["eval", "--window-limit", "0", "--format", "csv"], ["agreement"],
])


@settings(max_examples=60)
@given(corpus_trees(), CORPUS_COMMANDS)
def test_cli_survives_random_corpora(tree, command):
    """Odd names, mistyped entries, broken symlinks, binary and
    non-UTF-8 files, and malformed, nested or repeated-key JSON end in
    exit 0, 1 or 2 with only JSON lines on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "corpus"
        write_tree(root, tree)
        code, _, err = run_cli([command[0], str(root), *command[1:]], Path(tmp) / "out")
    _assert_structured_stderr(code, err)


SCORE_FILES = st.one_of(
    st.tuples(st.just("file"), st.sampled_from(TEXT_CONTENTS)),
    st.tuples(st.sampled_from(("dir", "dangling", "loop")), st.none()),
)


@settings(max_examples=30)
@given(st.lists(SCORE_FILES, min_size=2, max_size=4), st.integers(0, 2))
def test_score_survives_random_files(files, systems):
    """`wisebe score` reads each file through the same reader."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["score"]
        for i, (kind, payload) in enumerate(files):
            path = Path(tmp) / f"ref_{i}.txt"
            if kind == "file":
                path.write_bytes(payload)
            elif kind == "dir":
                path.mkdir()
            else:
                path.symlink_to("missing" if kind == "dangling" else path.name)
            argv += ["--sys" if 0 < i <= systems else "--ref", str(path)]
        code, _, err = run_cli(argv, Path(tmp) / "out")
    _assert_structured_stderr(code, err)


# Words of a command line: every subcommand and option but `-h` and
# `--output` (each drawn argv ends in its own), good and bad values, and
# paths in and out of the demo corpus.
ARGV_WORDS = st.sampled_from([
    "eval", "agreement", "score", "--format", "--window-limit", "--baselines", "--threshold",
    "--ref", "--sys", "--doc-id", "--bogus", "x", "-1", "0", "2", "xml", "json", "csv",
    "{root}", "{root}/v1", "{root}/v1/ref_1.txt", "{root}/v1/ref_2.txt",
    "{root}/v1/sys_S1.txt", "{root}/v2.json", "{root}/missing",
])


@settings(max_examples=100)
@given(words=st.lists(ARGV_WORDS, max_size=8))
def test_cli_survives_random_command_lines(demo_corpus, words):
    """Any command line, parsed or not, ends in exit 0, 1 or 2 with only
    JSON lines on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [word.format(root=demo_corpus) for word in words]
        code, _, err = run_cli(argv, Path(tmp) / "out")
    _assert_structured_stderr(code, err)
