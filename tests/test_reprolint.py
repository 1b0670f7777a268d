"""Fixture-based self-tests for the reprolint invariant linter.

Every rule R001-R010 (R006 was retired with the exceptions it guarded)
is exercised against a positive fixture (code that must be flagged, with
pinned line numbers) and a negative fixture (the compliant counterpart,
which must be clean); the scoped rules (R003, R008) additionally prove the same code is *not* flagged outside
their packages.  The hygiene fixtures pin the disable-comment grammar: a
reasoned disable suppresses exactly its target, while bare, unknown-id,
and malformed disables are themselves errors (R000).  Finally, the
linter must run green over the real ``src/``, ``benchmarks/``, and
``tools/`` trees — the repo-wide invariant gate CI enforces.
"""

import subprocess
import sys
import unittest
from pathlib import Path

from tools.reprolint import (
    ALL_RULES,
    RULES_BY_ID,
    lint_file,
    lint_paths,
)
from tools.reprolint.engine import iter_python_files, parse_suppressions

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "reprolint"
FIXTURE_SRC = FIXTURES / "src"


def lint_fixture(relpath):
    """Lint one fixture file with the fixture tree as the src root."""
    return lint_file(FIXTURES / relpath, src_root=FIXTURE_SRC)


def lines_of(violations, rule_id):
    return [v.line for v in violations if v.rule_id == rule_id]


class TestRuleCatalog(unittest.TestCase):
    def test_all_rules_registered_in_order(self):
        self.assertEqual(
            [rule.id for rule in ALL_RULES],
            ["R001", "R002", "R003", "R004", "R005", "R007", "R008",
             "R009", "R010"],
        )

    def test_every_rule_has_title_and_docstring(self):
        for rule in ALL_RULES:
            self.assertTrue(rule.title, rule.id)
            self.assertTrue((rule.__doc__ or "").strip(), rule.id)

    def test_lookup_by_id(self):
        self.assertIs(RULES_BY_ID["R010"], ALL_RULES[-1])


class TestR001WallClock(unittest.TestCase):
    def test_positive(self):
        violations = lint_fixture("src/repro/service/r001_pos.py")
        self.assertEqual(lines_of(violations, "R001"), [5, 9, 10, 14])
        self.assertEqual(len(violations), 4)

    def test_negative_seam_usage_is_clean(self):
        self.assertEqual(lint_fixture("src/repro/service/r001_neg.py"), [])

    def test_negative_clock_seam_module_is_exempt(self):
        self.assertEqual(lint_fixture("src/repro/exec/context.py"), [])


class TestR002UnseededRandom(unittest.TestCase):
    def test_positive(self):
        violations = lint_fixture("src/repro/core/r002_pos.py")
        self.assertEqual(lines_of(violations, "R002"), [4, 6, 10, 11])

    def test_negative_explicit_rng_is_clean(self):
        self.assertEqual(lint_fixture("src/repro/core/r002_neg.py"), [])


class TestR003UnorderedIteration(unittest.TestCase):
    def test_positive(self):
        violations = lint_fixture("src/repro/core/r003_pos.py")
        self.assertEqual(
            lines_of(violations, "R003"), [6, 10, 14, 19, 49, 57]
        )

    def test_positive_order_inherited_from_a_set(self):
        """A set iterated into a dict/list, through a second function's
        return value, into a float accumulation (``build_edges`` before
        its ``matched.sort()``) — and the comprehension form of the same."""
        messages = {
            v.line: v.message
            for v in lint_fixture("src/repro/core/r003_pos.py")
        }
        self.assertIn("filled in a set's iteration order", messages[49])
        self.assertIn("filled in a set's iteration order", messages[57])

    def test_negative_ordered_iteration_is_clean(self):
        self.assertEqual(lint_fixture("src/repro/core/r003_neg.py"), [])

    def test_negative_out_of_scope_package(self):
        self.assertEqual(
            lint_fixture("src/other/pkg/r003_out_of_scope.py"), []
        )


class TestR004UnboundedCache(unittest.TestCase):
    def test_positive(self):
        violations = lint_fixture("src/repro/core/r004_pos.py")
        self.assertEqual(lines_of(violations, "R004"), [6, 10, 13, 14, 15])

    def test_negative_bounded_and_local_caches_are_clean(self):
        self.assertEqual(lint_fixture("src/repro/core/r004_neg.py"), [])


class TestR005LockDiscipline(unittest.TestCase):
    def test_positive(self):
        violations = lint_fixture("src/repro/core/r005_pos.py")
        self.assertEqual(lines_of(violations, "R005"), [18, 19])

    def test_negative_helpers_called_under_lock_are_clean(self):
        self.assertEqual(lint_fixture("src/repro/core/r005_neg.py"), [])


class TestR007MutableDefault(unittest.TestCase):
    def test_positive(self):
        violations = lint_fixture("src/repro/core/r007_pos.py")
        self.assertEqual(lines_of(violations, "R007"), [6, 11, 16, 21])

    def test_negative_none_sentinels_are_clean(self):
        self.assertEqual(lint_fixture("src/repro/core/r007_neg.py"), [])


class TestR008UnrecordedRecovery(unittest.TestCase):
    def test_positive(self):
        violations = lint_fixture("src/repro/index/r008_pos.py")
        self.assertEqual(lines_of(violations, "R008"), [7, 16, 24])

    def test_negative_recording_handlers_are_clean(self):
        self.assertEqual(lint_fixture("src/repro/index/r008_neg.py"), [])

    def test_negative_out_of_scope_package(self):
        self.assertEqual(
            lint_fixture("src/other/pkg/r008_out_of_scope.py"), []
        )


class TestR009TableImmutability(unittest.TestCase):
    def test_positive(self):
        violations = lint_fixture("src/repro/core/r009_pos.py")
        self.assertEqual(
            lines_of(violations, "R009"), [5, 6, 7, 8, 13, 14, 15, 16]
        )
        self.assertEqual(len(violations), 8)

    def test_negative_reads_copies_and_own_attributes_are_clean(self):
        self.assertEqual(lint_fixture("src/repro/core/r009_neg.py"), [])

    def test_negative_constructor_module_is_exempt(self):
        self.assertEqual(lint_fixture("src/repro/tables/table.py"), [])


class TestR010AnnotationNames(unittest.TestCase):
    def test_positive(self):
        violations = lint_fixture("src/repro/core/r010_pos.py")
        self.assertEqual(
            [(v.line, v.message.split("`")[1]) for v in violations],
            [(8, "Problem"), (8, "Result"), (12, "Tuple"), (12, "Optional"),
             (17, "Deque"), (19, "Job")],
        )

    def test_negative_imports_defs_and_type_checking_block_bind(self):
        self.assertEqual(lint_fixture("src/repro/core/r010_neg.py"), [])


class TestDisableHygiene(unittest.TestCase):
    def test_bare_disable_is_an_error_and_suppresses_nothing(self):
        violations = lint_fixture("hygiene/bare_disable.py")
        self.assertEqual(
            [(v.rule_id, v.line) for v in violations],
            [("R000", 4), ("R007", 4)],
        )

    def test_unknown_rule_id_is_an_error(self):
        violations = lint_fixture("hygiene/unknown_rule.py")
        self.assertEqual([v.rule_id for v in violations], ["R000"])
        self.assertIn("R999", violations[0].message)

    def test_malformed_directive_is_an_error(self):
        violations = lint_fixture("hygiene/malformed.py")
        self.assertEqual([v.rule_id for v in violations], ["R000"])
        self.assertIn("malformed", violations[0].message)

    def test_reasoned_line_disable_suppresses(self):
        self.assertEqual(lint_fixture("hygiene/good_disable.py"), [])

    def test_reasoned_file_disable_suppresses_whole_file(self):
        self.assertEqual(lint_fixture("hygiene/good_disable_file.py"), [])

    def test_syntax_error_is_reported_not_skipped(self):
        violations = lint_fixture("hygiene/syntax_error.py")
        self.assertEqual([v.rule_id for v in violations], ["R000"])
        self.assertIn("does not parse", violations[0].message)

    def test_line_disable_does_not_leak_to_other_lines(self):
        suppressions = parse_suppressions(
            Path("x.py"),
            "a = 1  # reprolint: disable=R007 -- pinned to this line\nb = 2\n",
        )
        self.assertEqual(suppressions.errors, [])
        self.assertEqual(suppressions.by_line, {1: {"R007"}})
        self.assertEqual(suppressions.file_wide, set())


class TestEngine(unittest.TestCase):
    def test_iter_python_files_recurses_and_sorts(self):
        files = iter_python_files([FIXTURES])
        self.assertEqual(files, sorted(files))
        self.assertIn(FIXTURES / "hygiene" / "bare_disable.py", files)
        self.assertIn(
            FIXTURES / "src" / "repro" / "core" / "r003_pos.py", files
        )

    def test_violations_sorted_by_position(self):
        violations = lint_fixture("src/repro/core/r004_pos.py")
        keys = [(v.line, v.col) for v in violations]
        self.assertEqual(keys, sorted(keys))

    def test_rule_filter(self):
        violations = lint_file(
            FIXTURES / "src" / "repro" / "service" / "r001_pos.py",
            src_root=FIXTURE_SRC,
            rules=[RULES_BY_ID["R007"]],
        )
        self.assertEqual(violations, [])

    def test_format_is_path_line_col_rule_message(self):
        violation = lint_fixture("src/repro/core/r007_pos.py")[0]
        formatted = violation.format()
        self.assertIn("r007_pos.py:6:", formatted)
        self.assertIn("R007", formatted)


class TestRepoIsClean(unittest.TestCase):
    """The gate itself: the real tree must be reprolint-green."""

    def test_src_benchmarks_tools_are_clean(self):
        violations = lint_paths(
            [REPO / "src", REPO / "benchmarks", REPO / "tools"],
            src_root=REPO / "src",
        )
        self.assertEqual(
            [v.format() for v in violations], [],
            "reprolint must stay green; fix or add a reasoned disable",
        )


class TestCli(unittest.TestCase):
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint", *args],
            cwd=REPO, capture_output=True, text=True,
        )

    def test_exit_zero_on_clean_path(self):
        proc = self.run_cli("tools/reprolint/base.py")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("clean", proc.stdout)

    def test_exit_one_on_violations(self):
        proc = self.run_cli(
            "--src-root", "tests/fixtures/reprolint/src",
            "tests/fixtures/reprolint/src/repro/core/r007_pos.py",
        )
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("R007", proc.stdout)

    def test_exit_two_on_unknown_rule(self):
        proc = self.run_cli("--rule", "R999")
        self.assertEqual(proc.returncode, 2)

    def test_list_rules_prints_catalog(self):
        proc = self.run_cli("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in ALL_RULES:
            self.assertIn(rule.id, proc.stdout)


if __name__ == "__main__":
    unittest.main()
