#!/usr/bin/env python3
"""Unit tests for tools/lint/concurrency_lint.py.

Runs the linter over the fixtures in testdata/ and checks the findings, the
allow-comment escape hatch, comment/string immunity, and the JSON schema.
Registered with ctest as `concurrency_lint_test`.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import concurrency_lint  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
TESTDATA = os.path.join(HERE, "testdata")
REPO_ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))


def lint(*names):
    linter = concurrency_lint.Linter(REPO_ROOT)
    linter.run([os.path.join(TESTDATA, n) for n in names])
    return linter.findings


class RawMutexRule(unittest.TestCase):
    def test_flags_raw_std_mutex(self):
        findings = lint("raw_mutex_bad.cc")
        rules = [f.rule for f in findings]
        self.assertIn("raw-mutex", rules)
        # Both the lock_guard use and the member declaration fire.
        self.assertEqual(rules.count("raw-mutex"), 2)

    def test_allow_comment_suppresses(self):
        self.assertEqual(lint("raw_mutex_allowed.cc"), [])

    def test_src_util_is_exempt(self):
        linter = concurrency_lint.Linter(REPO_ROOT)
        linter.run([os.path.join(REPO_ROOT, "src", "util", "mutex.h")])
        self.assertEqual([f for f in linter.findings if f.rule == "raw-mutex"], [])


class LivenessGuardRule(unittest.TestCase):
    def test_flags_unguarded_this_capture(self):
        findings = [f for f in lint("liveness_bad.cc") if f.rule == "liveness-guard"]
        self.assertEqual(len(findings), 2)  # Post and ScheduleAfterMs

    def test_guarded_and_this_free_posts_pass(self):
        self.assertEqual(lint("liveness_guarded.cc"), [])


class LoopAffinityRule(unittest.TestCase):
    def test_flags_shard_touch_without_assert(self):
        findings = [f for f in lint("loop_affinity_bad.cc") if f.rule == "loop-affinity"]
        self.assertEqual(len(findings), 1)
        self.assertIn("BreakAffinity", findings[0].message)

    def test_assert_before_touch_passes(self):
        self.assertEqual(lint("loop_affinity_good.cc"), [])


class BlockingCallRule(unittest.TestCase):
    def test_flags_blocking_recv(self):
        findings = [f for f in lint("blocking_bad.cc") if f.rule == "blocking-call"]
        self.assertEqual(len(findings), 2)


class CommentAndStringImmunity(unittest.TestCase):
    def test_patterns_in_comments_and_strings_do_not_fire(self):
        self.assertEqual(lint("comments_and_strings.cc"), [])


class AllowComments(unittest.TestCase):
    def test_wrong_rule_name_does_not_suppress(self):
        lines = [
            "// lard-lint: allow(blocking-call) wrong rule on purpose",
            "std::mutex mutex_;",
        ]
        self.assertEqual(
            concurrency_lint.allowed_rules_for_line(lines, 2), {"blocking-call"}
        )

    def test_same_line_and_block_above(self):
        lines = [
            "// lard-lint: allow(raw-mutex) reason one",
            "// continuation of the comment block",
            "std::mutex a;  // lard-lint: allow(blocking-call)",
        ]
        self.assertEqual(
            concurrency_lint.allowed_rules_for_line(lines, 3),
            {"raw-mutex", "blocking-call"},
        )

    def test_non_comment_line_breaks_the_block(self):
        lines = [
            "// lard-lint: allow(raw-mutex)",
            "int unrelated;",
            "std::mutex a;",
        ]
        self.assertEqual(concurrency_lint.allowed_rules_for_line(lines, 3), set())


class JsonOutput(unittest.TestCase):
    def test_schema_and_exit_status(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "findings.json")
            status = concurrency_lint.main(
                ["--root", REPO_ROOT, "--json", out,
                 os.path.join(TESTDATA, "raw_mutex_bad.cc")]
            )
            self.assertEqual(status, 1)
            with open(out, encoding="utf-8") as f:
                payload = json.load(f)
        self.assertEqual(payload["version"], 1)
        self.assertEqual(payload["files_scanned"], 1)
        self.assertEqual(sorted(payload["counts"]), sorted(concurrency_lint.RULES))
        self.assertEqual(payload["counts"]["raw-mutex"], 2)
        for finding in payload["findings"]:
            self.assertEqual(
                sorted(finding), ["file", "line", "message", "rule"]
            )

    def test_clean_file_exits_zero(self):
        status = concurrency_lint.main(
            ["--root", REPO_ROOT, os.path.join(TESTDATA, "liveness_guarded.cc")]
        )
        self.assertEqual(status, 0)


class TreeIsClean(unittest.TestCase):
    def test_src_tree_has_no_findings(self):
        linter = concurrency_lint.Linter(REPO_ROOT)
        files = concurrency_lint.collect_tree(REPO_ROOT)
        self.assertGreater(len(files), 50)
        findings = linter.run(files)
        self.assertEqual(
            findings, [], "\n".join(f"{f.file}:{f.line}: [{f.rule}]" for f in findings)
        )


if __name__ == "__main__":
    unittest.main()
