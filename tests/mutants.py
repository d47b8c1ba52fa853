"""Hand-made mutants of src/wisebe, each with the tests that must kill it.

    python3 tests/mutants.py

Each mutant replaces one piece of text in one file of a temporary copy of
the repository and runs only its named tests there; it is killed when
every one of them fails.  The tests run under the `mutants` Hypothesis
profile of `tests/conftest.py`, which does not shrink a failing example:
only the failure counts here.  The named tests first run on the unmutated
copy, where they must all pass.  One line is printed per mutant, and the
exit code is 1 if any mutant survives.  `tests/test_mutants.py` checks,
without running a mutant, that each old text occurs exactly once in its
file and that each named test is defined.

Five mutants are left out because no input tells them from the code:
`harmonic_f1` testing `precision == 0` (recall 0 gives F1 0 anyway),
`build_window_reference` capping the limit at `general.n - 1` or looping
to `limit + 1` (the extra step adds only voted positions),
`BoundaryVector._make` testing `len(flags) > n` (`mask_flags` never gives
fewer than n flags), and `BoundaryVector.__reduce__` rebuilding through
`tuple.__new__` rather than `_make` (a copy of a valid vector is equal to
it either way).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "data", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str               # relative to the repository root
    old: str                # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # `file::function`, each of which must fail


MUTANTS = (
    Mutant("capital sigma lowered with the whole string", "src/wisebe/model.py",
           'text = text.replace("Σ", "σ").lower()', "text = text.lower()",
           ("tests/test_model.py::test_parse_lowers_capital_sigma_without_final_form",
            "tests/test_model.py::test_scan_matches_character_oracle_on_tricky_characters",
            "tests/test_model.py::test_scan_matches_oracles_on_text_beyond_latin1")),
    Mutant("units split at ASCII whitespace only", "src/wisebe/model.py",
           "tokens += unit.split()", "tokens += [t.decode() for t in unit.encode().split()]",
           ("tests/test_model.py::test_scan_matches_character_oracle_on_tricky_characters",
            "tests/test_model.py::test_scan_matches_oracles_on_text_beyond_latin1")),
    Mutant("byte table leaves U+00A0 unmapped", "src/wisebe/model.py",
           r'_WIDE_SPACE = "\x1c\x1d\x1e\x1f\x85\xa0"', r'_WIDE_SPACE = "\x1c\x1d\x1e\x1f\x85"',
           ("tests/test_model.py::test_latin1_table_is_the_per_character_lowering",)),
    Mutant("byte table lowers ASCII only", "src/wisebe/model.py",
           'bytes(range(256)).decode("latin-1").lower()',
           'bytes(range(256)).lower().decode("latin-1")',
           ("tests/test_model.py::test_scan_matches_oracles_on_latin1_text",
            "tests/test_model.py::test_latin1_table_is_the_per_character_lowering")),
    Mutant("one-pass path keeps colons", "src/wisebe/model.py",
           '_DELETE = "".join(INTERNAL_MARKS).encode("latin-1")', '_DELETE = b","',
           ("tests/test_model.py::test_scan_matches_oracles_on_latin1_text",
            "tests/test_model.py::test_latin1_table_is_the_per_character_lowering")),
    Mutant("byte table keeps semicolons", "src/wisebe/model.py",
           'dict.fromkeys(SU_DELIMITERS, ".")', 'dict.fromkeys(SU_DELIMITERS - {";"}, ".")',
           ("tests/test_model.py::test_scan_matches_oracles_on_latin1_text",
            "tests/test_model.py::test_latin1_table_is_the_per_character_lowering")),
    Mutant("general path keeps semicolons", "src/wisebe/model.py",
           "        for mark in SU_DELIMITERS:\n",
           '        for mark in SU_DELIMITERS - {";"}:\n',
           ("tests/test_model.py::test_scan_matches_oracles_on_text_beyond_latin1",)),
    Mutant("a leading run of marks also closes the first token", "src/wisebe/model.py",
           "del flags[len(tokens) + 1:], flags[0]",
           "flags[1] |= flags[0]\n    del flags[len(tokens) + 1:], flags[0]",
           ("tests/test_model.py::test_parse_unit_edge_cases",)),
    Mutant("token check skips unit-final marks", "src/wisebe/model.py",
           "if not all(tokens) or any(map(joined.__contains__, SU_DELIMITERS)):",
           "if not all(tokens):",
           ("tests/test_model.py::test_transcript_rejects_delimiter_inside_token",
            "tests/test_model.py::test_transcript_validation_matches_the_token_loop")),
    Mutant("empty-token test skips the first token", "src/wisebe/model.py",
           "if not all(tokens) or", "if not all(tokens[1:]) or",
           ("tests/test_model.py::test_transcript_rejects_what_the_substring_check_rejected",
            "tests/test_model.py::test_transcript_validation_matches_the_token_loop")),
    Mutant("ReferenceSet reads the origin of a member that is not a vector",
           "src/wisebe/model.py",
           "            if not isinstance(ref, BoundaryVector):\n"
           "                raise ValueError(f\"reference {j} of document {doc_id!r} is not a "
           "BoundaryVector\")\n", "",
           ("tests/test_records.py::test_reference_set_rejects_a_member_that_is_not_a_vector",)),
    Mutant("transcript accepts no tokens", "src/wisebe/model.py",
           "        if not tokens:\n"
           "            raise EmptyTranscript(f\"transcript {doc_id!r} has no tokens\")\n", "",
           ("tests/test_model.py::test_parse_rejects_effectively_empty_input",
            "tests/test_records.py::test_replace_and_make_run_the_constructor_checks")),
    Mutant("bit check accepts 2", "src/wisebe/model.py",
           '_TO_DIGITS = b"01".ljust(256, b"2")', '_TO_DIGITS = b"011".ljust(256, b"2")',
           ("tests/test_model.py::test_boundary_vector_validates_bits",)),
    Mutant("parser builds its transcript with tuple.__new__", "src/wisebe/model.py",
           "base = Transcript(doc_id, tokens)",
           "base = tuple.__new__(Transcript, (doc_id, tuple(tokens)))",
           ("tests/test_model.py::test_parse_builds_its_transcript_through_the_constructor",)),
    Mutant("shared path accepts a file on its token count alone", "src/wisebe/model.py",
           'if len(tokens) == len(shared) and b" ".join(tokens).decode("latin-1") == canon:',
           "if len(tokens) == len(shared):",
           ("tests/test_model.py::test_parse_against_a_base_matches_the_plain_parse",
            "tests/test_corpus.py::test_a_later_file_that_does_not_align_fails_as_before",
            "tests/test_corpus.py::test_load_document_matches_the_per_file_loader")),
    Mutant("shared path returns the base without comparing", "src/wisebe/model.py",
           'tokens, flags = _units(data, b".")',
           'tokens, flags = _units(data, b".")\n            return shared, flags',
           ("tests/test_model.py::test_parse_against_a_base_matches_the_plain_parse",
            "tests/test_corpus.py::test_a_later_file_that_does_not_align_fails_as_before",
            "tests/test_corpus.py::test_load_document_matches_the_per_file_loader")),
    Mutant("text references read in file-name order", "src/wisebe/corpus.py",
           "for label, path in sorted(entries):", "for label, path in entries:",
           ("tests/test_cli.py::test_text_and_json_layouts_read_references_in_label_order",
            "tests/test_end_to_end.py::"
            "test_reports_are_invariant_under_layout_order_labels_and_other_systems")),
    Mutant("each later file joins the tokens again", "src/wisebe/corpus.py",
           "_shared=shared", '_shared=shared and (shared[0], " ".join(shared[0].tokens))',
           ("tests/test_corpus.py::test_later_files_get_the_join_of_the_first_built_once",)),
    Mutant("each file gets the join of the file before it", "src/wisebe/corpus.py",
           "            if origin == REFERENCE:\n",
           '            shared = transcript, " ".join(transcript.tokens)\n'
           "            if origin == REFERENCE:\n",
           ("tests/test_corpus.py::test_later_files_get_the_join_of_the_first_built_once",)),
    Mutant("shared transcript read before the reference set", "src/wisebe/corpus.py",
           "    references = ReferenceSet(files.doc_id, tuple(refs))\n"
           "    return Document(shared[0], references, tuple(cands))",
           "    return Document(shared[0], ReferenceSet(files.doc_id, tuple(refs)), tuple(cands))",
           ("tests/test_corpus.py::test_load_corpus_requires_two_references_per_directory",)),
    Mutant("no later file aligned", "src/wisebe/corpus.py",
           "elif transcript is not shared[0]:", "elif False:",
           ("tests/test_corpus.py::test_a_later_file_that_does_not_align_fails_as_before",
            "tests/test_corpus.py::test_load_document_matches_the_per_file_loader")),
    Mutant("every later file aligned", "src/wisebe/corpus.py",
           "elif transcript is not shared[0]:", "else:",
           ("tests/test_corpus.py::test_a_later_file_sharing_the_transcript_is_not_aligned",)),
    Mutant("references never checked against the transcript", "src/wisebe/corpus.py",
           '        check_aligned(references, transcript, "references of document {!r}", '
           "doc_id)\n", "",
           ("tests/test_report.py::test_references_must_cover_the_transcript",
            "tests/test_records.py::test_replace_and_make_run_the_constructor_checks")),
    Mutant("Document accepts a reference-origin candidate", "src/wisebe/corpus.py",
           "if not isinstance(cand, BoundaryVector) or cand.origin != CANDIDATE:",
           "if not isinstance(cand, BoundaryVector):",
           ("tests/test_records.py::test_document_checks_each_candidate",
            "tests/test_records.py::test_replace_and_make_run_the_constructor_checks")),
    Mutant("Document unpacks a candidate of any shape", "src/wisebe/corpus.py",
           "            if not isinstance(pair, tuple) or len(pair) != 2:\n"
           "                raise ValueError(\n"
           "                    f\"candidate {j} of document {doc_id!r} is not a (name, vector) "
           "pair\")\n", "",
           ("tests/test_records.py::test_document_checks_each_candidate",)),
    Mutant("Document accepts a system name that is not a str", "src/wisebe/corpus.py",
           "if not isinstance(name, str) or not name:", "if not name:",
           ("tests/test_records.py::test_document_checks_each_candidate",)),
    Mutant("Document accepts an empty system name", "src/wisebe/corpus.py",
           "if not isinstance(name, str) or not name:", "if not isinstance(name, str):",
           ("tests/test_records.py::test_document_checks_each_candidate",)),
    Mutant("listing paths joined through pathlib again", "src/wisebe/corpus.py",
           "path = name if here else entry.path", "path = str(Path(directory) / name)",
           ("tests/test_corpus.py::test_loading_builds_paths_for_the_root_alone",)),
    Mutant("listing paths under the root '.' keep their './'", "src/wisebe/corpus.py",
           "path = name if here else entry.path", "path = entry.path",
           ("tests/test_corpus.py::test_load_corpus_matches_the_pathlib_walk",
            "tests/test_corpus.py::test_read_time_messages_print_paths_as_pathlib_does")),
    Mutant("Document skips the candidate alignment check", "src/wisebe/corpus.py",
           '            check_aligned(cand, transcript, "system {!r} of document {!r}", '
           "name, doc_id)\n", "",
           ("tests/test_records.py::test_document_checks_each_candidate",
            "tests/test_records.py::test_replace_and_make_run_the_constructor_checks")),
    Mutant("an empty doc id matches any other", "src/wisebe/model.py",
           "if left.doc_id != right.doc_id:",
           "if left.doc_id != right.doc_id and left.doc_id and right.doc_id:",
           ("tests/test_model.py::test_alignment_check_compares_lengths_then_doc_ids",
            "tests/test_model.py::test_to_segmented_text_requires_alignment_and_real_delimiter",
            "tests/test_records.py::test_document_checks_each_candidate")),
    Mutant("reference message arguments swapped", "src/wisebe/model.py",
           '"reference {!r} of document {!r}", ref.label, doc_id)',
           '"reference {!r} of document {!r}", doc_id, ref.label)',
           ("tests/test_corpus.py::test_failure_messages_keep_braces_in_names",)),
    Mutant("reference message formatted before the check", "src/wisebe/model.py",
           '"reference {!r} of document {!r}", ref.label, doc_id)',
           'f"reference {ref.label!r} of document {doc_id!r}")',
           ("tests/test_corpus.py::test_failure_messages_keep_braces_in_names",)),
    Mutant("a token that is not a string raises a bare TypeError", "src/wisebe/corpus.py",
           "    try:\n        transcript = Transcript(doc_id, tokens)\n"
           "    except TypeError:    # its join takes str members only\n"
           "        raise ValueError(f\"{path}: 'tokens' must be a list of strings\") from None\n",
           "    transcript = Transcript(doc_id, tokens)\n",
           ("tests/test_cli.py::test_a_token_that_is_not_a_string_is_a_document_error",)),
    Mutant("Document._make skips the constructor", "src/wisebe/corpus.py",
           "_make = classmethod(lambda cls, fields: cls(*fields))",
           "_make = classmethod(lambda cls, fields: tuple.__new__(cls, fields))",
           ("tests/test_records.py::test_replace_and_make_run_the_constructor_checks",)),
    Mutant("mean SER averaged over the first document only", "src/wisebe/report.py",
           "[r.mean_ser for r in group]", "[r.mean_ser for r in group[:1]]",
           ("tests/test_report.py::test_mean_rows_average_the_baselines_of_every_document",
            "tests/test_end_to_end.py::test_report_values_equal_exact_fractions")),
    Mutant("mean rows in the order systems are first seen", "src/wisebe/report.py",
           "for system, group in sorted(by_system.items())",
           "for system, group in by_system.items()",
           ("tests/test_end_to_end.py::test_document_order_changes_no_value",)),
    Mutant("display rounding to two decimals", "src/wisebe/report.py",
           "return round(x, 3) if isinstance(x, float) else x",
           "return round(x, 2) if isinstance(x, float) else x",
           ("tests/test_end_to_end.py::test_report_values_equal_exact_fractions",)),
    Mutant("Pearson's r needs three samples", "src/wisebe/agreement.py",
           "if len(xs) < 2:", "if len(xs) < 3:",
           ("tests/test_end_to_end.py::test_report_values_equal_exact_fractions",)),
    Mutant("windows joined across one more unvoted token", "src/wisebe/aggregation.py",
           "limit = min(separation_limit, general.n)",
           "limit = min(separation_limit + 1, general.n)",
           ("tests/test_kernel.py::test_kernel_matches_oracles_across_digits",)),
    Mutant("vote profile counted upward", "src/wisebe/aggregation.py",
           "for d in range(m, 0, -1):", "for d in range(1, m + 1):",
           ("tests/test_aggregation.py::test_general_reference_counts_votes",
            "tests/test_agreement.py::test_kappa_hand_computed_value")),
    Mutant("span fill one step short", "src/wisebe/aggregation.py",
           "span |= (voted << (limit + 1 - b)) & after", "span |= (voted << (limit - b)) & after",
           ("tests/test_aggregation.py::test_windows_match_regex_oracle",
            "tests/test_kernel.py::test_kernel_matches_oracles_across_digits")),
    Mutant("window carry ignores the candidate", "src/wisebe/scoring.py",
           "missed = ((span & ~cand.mask) + starts) & ~span", "missed = (span + starts) & ~span",
           ("tests/test_scoring.py::test_exact_hit_in_both_windows",
            "tests/test_scoring.py::test_miss_one_window")),
    Mutant("pb counts at_least[2] once", "src/wisebe/aggregation.py",
           "return sum(sizes) + sum(sizes[:1])", "return sum(sizes)",
           ("tests/test_aggregation.py::test_agreement_ratio_matches_counting_oracle",)),
    Mutant("kappa's squared votes weighted by d, not 2d - 1",
           "src/wisebe/aggregation.py", "s2 += (2 * d - 1) * c", "s2 += d * c",
           ("tests/test_agreement.py::test_kappa_hand_computed_value",
            "tests/test_agreement.py::test_kappa_matches_textbook_oracle",
            "tests/test_aggregation.py::test_kappa_from_popcounts_equals_the_histogram_kappa")),
    Mutant("lenient drops unanimous boundaries", "src/wisebe/baselines.py",
           "general.at_least[-1] | cand.mask & general.at_least[1]",
           "cand.mask & general.at_least[1]",
           ("tests/test_baselines.py::test_lenient_prf_misses_only_unanimous_boundaries",
            "tests/test_kernel.py::test_lenient_prf_matches_set_oracle")),
    Mutant("consensus one vote short", "src/wisebe/aggregation.py",
           "return general.at_least[threshold]", "return general.at_least[threshold - 1]",
           ("tests/test_aggregation.py::test_consensus_thresholds",
            "tests/test_kernel.py::test_consensus_matches_counting_oracle")),
    Mutant(".json references and systems read in key order", "src/wisebe/corpus.py",
           "for name in sorted(section):", "for name in section:",
           ("tests/test_corpus.py::test_load_structured_rejects_malformed_payloads",
            "tests/test_end_to_end.py::"
            "test_reports_are_invariant_under_layout_order_labels_and_other_systems")),
    Mutant("positions may repeat", "src/wisebe/model.py",
           "if not all(map(lt, positions, positions[1:])):",
           "if not all(map(lambda a, b: a <= b, positions, positions[1:])):",
           ("tests/test_model.py::test_from_positions_rejects_what_the_loader_rejected",
            "tests/test_model.py::test_from_positions_matches_the_three_walk_loader_rule",
            "tests/test_corpus.py::test_load_structured_rejects_malformed_payloads")),
    Mutant("positions range checks one end only", "src/wisebe/model.py",
           "if positions and not 0 <= positions[0] <= positions[-1] < n:",
           "if positions and not positions[-1] < n:",
           ("tests/test_model.py::test_from_positions_round_trips",
            "tests/test_model.py::test_from_positions_matches_the_three_walk_loader_rule",
            "tests/test_corpus.py::test_load_structured_rejects_malformed_payloads")),
    Mutant("bool positions accepted", "src/wisebe/model.py",
           "if not set(map(type, positions)) <= {int}:",
           "if not all(isinstance(p, int) for p in positions):",
           ("tests/test_model.py::test_from_positions_rejects_what_the_loader_rejected",
            "tests/test_model.py::test_from_positions_matches_the_three_walk_loader_rule",
            "tests/test_corpus.py::test_load_structured_rejects_malformed_payloads")),
    Mutant("Document keeps its candidates as given", "src/wisebe/corpus.py",
           "doc_id, candidates = transcript.doc_id, tuple(candidates)",
           "doc_id = transcript.doc_id",
           ("tests/test_records.py::test_document_keeps_its_candidates_as_a_tuple",)),
    Mutant("corpus read before the options are checked", "src/wisebe/cli.py",
           'if args.command == "agreement":',
           "layout = (named_files(args.doc_id, args.ref_files, args.system_files or ())\n"
           '                  if args.command == "score" else load_corpus(args.root))\n'
           '        if args.command == "agreement":',
           ("tests/test_cli.py::test_option_out_of_range_exits_two",)),
    Mutant("collector left paused after a run", "src/wisebe/cli.py",
           "        if collecting:\n            gc.enable()\n", "        pass\n",
           ("tests/test_cli.py::test_main_pauses_the_collector_and_restores_the_callers_state",)),
    Mutant("window limit -1 accepted", "src/wisebe/report.py",
           "if window_limit < 0:", "if window_limit < -1:",
           ("tests/test_cli.py::test_option_out_of_range_exits_two",
            "tests/test_report.py::test_out_of_range_options_fail_before_any_document")),
    Mutant("EvalConfig accepts a float window limit", "src/wisebe/report.py",
           "if type(window_limit) is not int:", "if type(window_limit) not in (int, float):",
           ("tests/test_report.py::test_out_of_range_options_fail_before_any_document",
            "tests/test_records.py::test_replace_and_make_run_the_constructor_checks")),
    Mutant("EvalConfig accepts a float threshold", "src/wisebe/report.py",
           "if type(consensus_threshold) is not int:",
           "if type(consensus_threshold) not in (int, float):",
           ("tests/test_report.py::test_out_of_range_options_fail_before_any_document",
            "tests/test_records.py::test_replace_and_make_run_the_constructor_checks")),
    Mutant("threshold 0 accepted", "src/wisebe/report.py",
           "consensus_threshold < 1:", "consensus_threshold < 0:",
           ("tests/test_cli.py::test_option_out_of_range_exits_two",
            "tests/test_report.py::test_out_of_range_options_fail_before_any_document")),
    Mutant("any origin accepted", "src/wisebe/model.py",
           "if origin not in _ORIGINS:", 'if origin not in (*_ORIGINS, "guess"):',
           ("tests/test_model.py::test_boundary_vector_validates_bits",
            "tests/test_records.py::test_replace_and_make_run_the_constructor_checks")),
    Mutant("read stops after the first chunk", "src/wisebe/corpus.py",
           "while chunk := os.read(fd, READ_CHUNK):", "if chunk := os.read(fd, READ_CHUNK):",
           ("tests/test_corpus.py::test_read_text_matches_read_bytes_across_chunk_sizes",)),
    Mutant("arithmetic_mean sums with plain sum", "src/wisebe/scoring.py",
           "return fsum(values) / len(values)", "return sum(values) / len(values)",
           ("tests/test_scoring.py::test_arithmetic_mean_equals_fmean",)),
)


def _run_tests(copy: Path, tests) -> tuple[int, list[str]]:
    """pytest's exit code on the named tests in `copy`, and those of them
    that neither failed nor errored."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           "--hypothesis-profile=mutants", *tests],
                          cwd=copy, env=env, capture_output=True, text=True)
    # "FAILED file::test[params] - message", or "ERROR file - message" when
    # the file did not import.
    red = {line.split()[1].split("[")[0] for line in proc.stdout.splitlines()
           if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, [test for test in tests
                             if test not in red and test.split("::")[0] not in red]


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        for name in COPIED:
            source = REPO_ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        named = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if _run_tests(copy, named) != (0, named):
            print("the named tests do not all pass on the unmutated code", file=sys.stderr)
            return 2
        survivors = 0
        for mutant in MUTANTS:
            path = copy / mutant.path
            original = path.read_text(encoding="utf-8")
            assert original.count(mutant.old) == 1, mutant.name
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            begun = time.perf_counter()
            _, passing = _run_tests(copy, list(mutant.tests))
            path.write_text(original, encoding="utf-8")
            survivors += bool(passing)
            verdict = f"SURVIVED ({', '.join(passing)} passed)" if passing else "killed"
            print(f"{time.perf_counter() - begun:6.1f} s  {mutant.name}: {verdict}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
