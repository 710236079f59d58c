#!/usr/bin/env python3
"""Fixture-driven tests for imc-analyze, run as one ctest entry.

For every rule the corpus carries a must-flag and a must-pass snippet;
each must-flag case is also re-run with the rule disabled to prove the
assertion would fail if the rule stopped firing. On top of the per-rule
corpus: suppression-comment round-trip (honoured as written, findings
reappear when the comments are defused), baseline write/read round-trip
(baselined findings gate to exit 0, a new violation still fails), and a
SARIF export smoke check.

Fixtures are staged into a scratch `src/` tree before analysis because
several rules are path-scoped (raw-exit-in-library only applies under
src/, discarded-result skips tests/) and the corpus itself lives under
tests/analyze/, which repo-wide runs deliberately exclude.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(TESTS_DIR))
FIXTURES = os.path.join(TESTS_DIR, "fixtures")
ANALYZE = [sys.executable, os.path.join(REPO, "scripts", "imc-analyze")]

# rule id -> list of (fixture stem, minimum findings expected in the bad
# snippet).
CORPUS = {
    "unordered-iteration": [("unordered_iteration", 2)],
    "wall-clock": [("wall_clock", 4)],
    "global-rng": [("global_rng", 4)],
    "scoped-binding": [("scoped_binding", 4)],
    "adhoc-retry": [("adhoc_retry", 1)],
    "env-without-or-die": [("env_without_or_die", 2)],
    "raw-exit-in-library": [("raw_exit_in_library", 2)],
    "co-await-under-lock": [("co_await_under_lock", 2)],
    "co-await-in-conditional": [("co_await_in_conditional", 3)],
    "detached-coroutine-lifetime": [("detached_coroutine_lifetime", 2)],
    "discarded-result": [("discarded_result", 2)],
}


def corpus_pairs():
    for rule, entries in CORPUS.items():
        for stem, expected in entries:
            yield rule, stem, expected


def run(args, cwd=None):
    return subprocess.run(ANALYZE + args, capture_output=True, text=True,
                          cwd=cwd)


def rule_counts(stdout):
    counts = {}
    for line in stdout.splitlines():
        if "] " in line and ": [" in line:
            rule = line.split(": [", 1)[1].split("]", 1)[0]
            counts[rule] = counts.get(rule, 0) + 1
    return counts


class AnalyzeFixtureTests(unittest.TestCase):
    maxDiff = None

    def setUp(self):
        self.scratch = tempfile.mkdtemp(prefix="imc-analyze-test-")
        self.src = os.path.join(self.scratch, "src")
        os.makedirs(self.src)

    def tearDown(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def stage(self, fixture_name, content=None, subdir=""):
        dst_dir = os.path.join(self.src, subdir) if subdir else self.src
        os.makedirs(dst_dir, exist_ok=True)
        dst = os.path.join(dst_dir, fixture_name)
        if content is None:
            shutil.copy(os.path.join(FIXTURES, fixture_name), dst)
        else:
            with open(dst, "w", encoding="utf-8") as f:
                f.write(content)
        return dst

    def test_each_rule_flags_its_bad_fixture(self):
        for rule, stem, expected in corpus_pairs():
            with self.subTest(rule=rule, stem=stem):
                path = self.stage(f"{stem}_bad.cpp")
                proc = run([path])
                self.assertEqual(proc.returncode, 1,
                                 f"{rule}: expected findings\n{proc.stdout}"
                                 f"\n{proc.stderr}")
                counts = rule_counts(proc.stdout)
                self.assertGreaterEqual(
                    counts.get(rule, 0), expected,
                    f"{rule}: wanted >= {expected} finding(s), got "
                    f"{counts}\n{proc.stdout}")

    def test_each_rule_passes_its_good_fixture(self):
        for rule, stem, _ in corpus_pairs():
            with self.subTest(rule=rule, stem=stem):
                path = self.stage(f"{stem}_good.cpp")
                proc = run([path])
                self.assertEqual(
                    proc.returncode, 0,
                    f"{rule}: good fixture must be clean\n{proc.stdout}")

    def test_disabling_a_rule_silences_its_findings(self):
        # The inverse of the must-flag test: if a rule were disabled (or
        # silently broken), the must-flag assertion above is what fails.
        for rule, stem, _ in corpus_pairs():
            with self.subTest(rule=rule, stem=stem):
                path = self.stage(f"{stem}_bad.cpp")
                proc = run([path, "--disable", rule])
                counts = rule_counts(proc.stdout)
                self.assertEqual(
                    counts.get(rule, 0), 0,
                    f"{rule}: --disable must silence it\n{proc.stdout}")

    def test_only_rule_selection(self):
        path = self.stage("wall_clock_bad.cpp")
        proc = run([path, "--rule", "global-rng"])
        self.assertEqual(proc.returncode, 0,
                         "--rule global-rng must ignore wall-clock findings")

    def test_wall_clock_rule_is_path_scoped_out_of_prof(self):
        # The same bytes must flag anywhere in src/ but pass under
        # src/prof/ — the one library directory where steady_clock is
        # legitimate (the prof layer measures the harness itself and is
        # strictly digest-excluded).
        elsewhere = self.stage("wall_clock_prof_scope.cpp")
        proc = run([elsewhere])
        self.assertEqual(proc.returncode, 1,
                         f"must flag outside src/prof/\n{proc.stdout}")
        counts = rule_counts(proc.stdout)
        self.assertGreaterEqual(counts.get("wall-clock", 0), 2,
                                f"wanted wall-clock findings\n{proc.stdout}")

        in_prof = self.stage("wall_clock_prof_scope.cpp", subdir="prof")
        proc = run([in_prof])
        self.assertEqual(proc.returncode, 0,
                         f"src/prof/ must be exempt\n{proc.stdout}")

    def test_suppression_comments_round_trip(self):
        path = self.stage("suppression.cpp")
        proc = run([path])
        self.assertEqual(proc.returncode, 0,
                         f"suppressions must be honoured\n{proc.stdout}")
        # Defuse the allow comments: the findings they covered come back.
        with open(path, encoding="utf-8") as f:
            text = f.read()
        self.stage("suppression.cpp",
                   text.replace("imc-analyze:", "imc-analyze-disabled:"))
        proc = run([path])
        self.assertEqual(proc.returncode, 1)
        counts = rule_counts(proc.stdout)
        self.assertEqual(counts.get("raw-exit-in-library", 0), 1)
        self.assertEqual(counts.get("wall-clock", 0), 1)

    def test_unknown_rule_in_allow_is_inert(self):
        self.stage("noop.cpp",
                   "// imc-analyze: allow(no-such-rule)\n"
                   "int answer() { return 42; }\n")
        proc = run([os.path.join(self.src, "noop.cpp")])
        self.assertEqual(proc.returncode, 0)

    def test_baseline_round_trip(self):
        path = self.stage("wall_clock_bad.cpp")
        bl = os.path.join(self.scratch, "baseline.json")
        proc = run([path, "--write-baseline", bl])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(bl, encoding="utf-8") as f:
            data = json.load(f)
        self.assertGreaterEqual(len(data["findings"]), 4)

        # Baselined findings gate to success...
        proc = run([path, "--baseline", bl])
        self.assertEqual(proc.returncode, 0,
                         f"baselined findings must pass\n{proc.stdout}")
        self.assertIn("baselined", proc.stdout)

        # ...but a brand-new violation still fails, and only it is listed.
        fresh = self.stage("fresh_violation.cpp",
                           "#include <cstdlib>\n"
                           "int noise() { return rand(); }\n")
        proc = run([path, fresh, "--baseline", bl])
        self.assertEqual(proc.returncode, 1)
        counts = rule_counts(proc.stdout)
        self.assertEqual(counts, {"global-rng": 1},
                         f"only the new finding may surface\n{proc.stdout}")

    def test_baseline_is_line_move_tolerant(self):
        path = self.stage("wall_clock_bad.cpp")
        bl = os.path.join(self.scratch, "baseline.json")
        run([path, "--write-baseline", bl])
        # Prepend comments: every finding moves lines but none are new.
        with open(path, encoding="utf-8") as f:
            text = f.read()
        self.stage("wall_clock_bad.cpp", "// moved\n// down\n" + text)
        proc = run([path, "--baseline", bl])
        self.assertEqual(proc.returncode, 0,
                         f"line moves must not break the baseline\n"
                         f"{proc.stdout}")

    def test_sarif_export(self):
        path = self.stage("global_rng_bad.cpp")
        out = os.path.join(self.scratch, "report.sarif")
        proc = run([path, "--sarif", out])
        self.assertEqual(proc.returncode, 1)
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertEqual(doc["version"], "2.1.0")
        driver = doc["runs"][0]["tool"]["driver"]
        self.assertEqual(driver["name"], "imc-analyze")
        self.assertEqual(len(driver["rules"]), len(CORPUS))
        results = doc["runs"][0]["results"]
        self.assertGreaterEqual(len(results), 4)
        for result in results:
            self.assertEqual(result["ruleId"], "global-rng")
            region = result["locations"][0]["physicalLocation"]["region"]
            self.assertGreater(region["startLine"], 0)

    def test_repo_is_clean_under_committed_baseline(self):
        # The acceptance gate, as a test: zero non-baselined findings over
        # the real tree with the committed (empty) baseline.
        proc = run(["--baseline", os.path.join(REPO,
                                               "analyze-baseline.json"),
                    os.path.join(REPO, "src"), os.path.join(REPO, "bench"),
                    os.path.join(REPO, "tests"),
                    os.path.join(REPO, "examples")])
        self.assertEqual(proc.returncode, 0,
                         f"repo has non-baselined findings:\n{proc.stdout}")

    def test_fixture_corpus_is_excluded_from_tree_walks(self):
        proc = run([os.path.join(REPO, "tests")])
        self.assertEqual(
            proc.returncode, 0,
            f"tests/analyze fixtures leaked into a tree walk\n{proc.stdout}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
