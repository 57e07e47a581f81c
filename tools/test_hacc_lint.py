#!/usr/bin/env python3
"""Self-tests for tools/hacc_lint.py (stdlib unittest; pytest-compatible).

Run with either:
  python3 tools/test_hacc_lint.py
  python3 -m pytest tools/test_hacc_lint.py
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hacc_lint  # noqa: E402


def lint_source(name: str, text: str) -> list[str]:
    """Lint a single in-memory file; return `[rule, ...]` of its findings."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        findings = hacc_lint.lint_file(path, Path(tmp))
        return [f.rule for f in findings]


class NondeterminismRule(unittest.TestCase):
    def test_rand_flagged(self):
        self.assertIn("nondeterminism", lint_source("a.cpp", "int x = rand();\n"))

    def test_srand_and_time_flagged(self):
        rules = lint_source("a.cpp", "srand(time(nullptr));\n")
        self.assertEqual(rules.count("nondeterminism"), 2)

    def test_random_device_flagged(self):
        self.assertIn("nondeterminism",
                      lint_source("a.cpp", "std::random_device rd;\n"))

    def test_wtime_not_flagged(self):
        # `wtime(` must not trip the `time(` pattern.
        self.assertEqual(lint_source("a.cpp", "double t = wtime();\n"), [])

    def test_steady_clock_not_flagged(self):
        self.assertEqual(
            lint_source("a.cpp", "auto t = std::chrono::steady_clock::now();\n"), [])

    def test_rand_in_comment_ignored(self):
        self.assertEqual(lint_source("a.cpp", "// uses rand() upstream\n"), [])

    def test_rand_in_string_ignored(self):
        self.assertEqual(lint_source("a.cpp", 'auto s = "rand()";\n'), [])


class NoCoutRule(unittest.TestCase):
    def test_cout_flagged(self):
        self.assertIn("no-cout", lint_source("a.cpp", 'std::cout << "hi";\n'))

    def test_std_printf_flagged(self):
        self.assertIn("no-cout", lint_source("a.cpp", 'std::printf("x");\n'))

    def test_bare_printf_flagged(self):
        self.assertIn("no-cout", lint_source("a.cpp", 'printf("x");\n'))

    def test_fprintf_flagged(self):
        self.assertIn("no-cout",
                      lint_source("a.cpp", 'fprintf(stderr, "x");\n'))

    def test_snprintf_not_flagged(self):
        # Formatting into a buffer writes no output.
        self.assertEqual(
            lint_source("a.cpp", "std::snprintf(buf, sizeof(buf), \"%d\", i);\n"), [])

    def test_ostringstream_not_flagged(self):
        self.assertEqual(lint_source("a.cpp", "std::ostringstream os; os << x;\n"), [])


class SharedCommentRule(unittest.TestCase):
    def test_uncommented_parallel_for_flagged(self):
        self.assertIn("shared-comment",
                      lint_source("a.cpp", "pool.parallel_for(n, body);\n"))

    def test_commented_parallel_for_clean(self):
        src = "// shared: hits[i], disjoint per index\npool.parallel_for(n, body);\n"
        self.assertEqual(lint_source("a.cpp", src), [])

    def test_comment_within_window_clean(self):
        src = "// shared: acc, per-chunk private then merged\n" + "\n" * 8 + \
              "pool->parallel_for_chunks(n, c, body);\n"
        self.assertEqual(lint_source("a.cpp", src), [])

    def test_comment_outside_window_flagged(self):
        src = "// shared: too far away\n" + "\n" * 30 + "pool.parallel_for(n, b);\n"
        self.assertIn("shared-comment", lint_source("a.cpp", src))

    def test_declaration_not_flagged(self):
        # Member declarations / qualified definitions are not launch sites.
        src = ("void parallel_for(std::int64_t n, F f);\n"
               "void ThreadPool::parallel_for(std::int64_t n, F f) {}\n")
        self.assertEqual(lint_source("a.cpp", src), [])


class NolintRule(unittest.TestCase):
    def test_bare_nolint_flagged(self):
        self.assertIn("nolint-justified",
                      lint_source("a.cpp", "foo();  // NOLINT\n"))

    def test_check_without_reason_flagged(self):
        self.assertIn("nolint-justified",
                      lint_source("a.cpp", "foo();  // NOLINT(bugprone-foo)\n"))

    def test_justified_nolint_clean(self):
        src = "foo();  // NOLINT(bugprone-foo): third-party API shape\n"
        self.assertEqual(lint_source("a.cpp", src), [])

    def test_justified_nolintnextline_clean(self):
        src = "// NOLINTNEXTLINE(google-explicit-constructor): view type\nA(B b);\n"
        self.assertEqual(lint_source("a.cpp", src), [])

    def test_prose_mention_not_flagged(self):
        # "// NOLINT below: ..." is commentary, not an active suppression.
        self.assertEqual(
            lint_source("a.cpp", "// NOLINT below: justified at the call.\n"), [])


class SpanNameRule(unittest.TestCase):
    def test_dotted_span_name_clean(self):
        self.assertEqual(
            lint_source("a.cpp", 'const obs::TraceSpan span("pm.deposit");\n'), [])

    def test_subphase_span_name_clean(self):
        self.assertEqual(
            lint_source("a.cpp", 'const obs::TraceSpan span("fft.r2c_z");\n'), [])

    def test_undotted_span_name_flagged(self):
        self.assertIn("span-name",
                      lint_source("a.cpp", 'obs::TraceSpan span("deposit");\n'))

    def test_uppercase_span_name_flagged(self):
        self.assertIn("span-name",
                      lint_source("a.cpp", 'obs::TraceSpan span("PM.Deposit");\n'))

    def test_tracer_record_literal_checked(self):
        src = 'obs::Tracer::global().record("bad name", t0, t1);\n'
        self.assertIn("span-name", lint_source("a.cpp", src))

    def test_tracer_record_good_literal_clean(self):
        src = 'obs::Tracer::global().record("pm.forward", t0, t1);\n'
        self.assertEqual(lint_source("a.cpp", src), [])

    def test_tracer_intern_literal_checked(self):
        self.assertIn("span-name",
                      lint_source("a.cpp", 'tracer.intern("Kernel");\n'))

    def test_run_stage_literal_checked(self):
        self.assertIn("span-name",
                      lint_source("a.cpp", 'run_stage("pm", [&] {});\n'))

    def test_run_stage_good_literal_clean(self):
        self.assertEqual(
            lint_source("a.cpp", 'run_stage("sched.pm", [&] {});\n'), [])

    def test_dynamic_name_not_flagged(self):
        # Runtime-built names are out of a text lint's reach by design.
        src = 'tracer.intern("xsycl." + kernel_name);\n'
        self.assertEqual(lint_source("a.cpp", src), [])

    def test_commented_span_ignored(self):
        self.assertEqual(
            lint_source("a.cpp", '// e.g. obs::TraceSpan span("Bad Name");\n'), [])

    def test_null_span_not_flagged(self):
        self.assertEqual(
            lint_source("a.cpp", "const obs::TraceSpan span(nullptr);\n"), [])


class HeaderHygieneRule(unittest.TestCase):
    def test_missing_pragma_once_flagged(self):
        self.assertIn("header-hygiene", lint_source("a.hpp", "int f();\n"))

    def test_pragma_once_clean(self):
        self.assertEqual(lint_source("a.hpp", "#pragma once\nint f();\n"), [])

    def test_using_namespace_in_header_flagged(self):
        src = "#pragma once\nusing namespace std;\n"
        self.assertIn("header-hygiene", lint_source("a.hpp", src))

    def test_using_namespace_in_cpp_allowed(self):
        self.assertEqual(lint_source("a.cpp", "using namespace std;\n"), [])

    def test_using_declaration_allowed(self):
        # `using std::swap;` is fine; only `using namespace` leaks wholesale.
        self.assertEqual(
            lint_source("a.hpp", "#pragma once\nusing std::swap;\n"), [])


class NumberParseRule(unittest.TestCase):
    def test_std_stoi_flagged_under_src(self):
        self.assertIn("number-parse",
                      lint_source("src/run/a.cpp", "int n = std::stoi(s);\n"))

    def test_c_calls_flagged_under_src(self):
        text = "long a = strtol(p, &e, 10);\ndouble b = std::strtod(p, &e);\nint c = atoi(p);\n"
        self.assertEqual(lint_source("src/core/a.cpp", text).count("number-parse"), 3)

    def test_from_chars_flagged_under_src(self):
        self.assertIn("number-parse",
                      lint_source("src/io/a.cpp", "std::from_chars(b, e, v);\n"))

    def test_util_is_the_home(self):
        self.assertEqual(
            lint_source("src/util/a.cpp", "long v = std::strtol(p, &e, 10);\n"), [])

    def test_outside_src_not_flagged(self):
        self.assertEqual(lint_source("bench/a.cpp", "double v = std::atof(p);\n"), [])

    def test_longer_names_and_comments_not_flagged(self):
        text = "restore(x);\nobj.stoi(s);\n// std::stoi(s) would throw\n"
        self.assertEqual(lint_source("src/run/a.cpp", text), [])


class AllowlistBehavior(unittest.TestCase):
    def run_lint(self, files: dict[str, str], allowlist: str) -> tuple[int, str]:
        import contextlib
        import io
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "tools").mkdir()
            (root / "tools" / "lint_allowlist.txt").write_text(allowlist)
            src = root / "src"
            for name, text in files.items():
                p = src / name
                p.parent.mkdir(parents=True, exist_ok=True)
                p.write_text(text)
            out = io.StringIO()
            real_root = hacc_lint.Path(hacc_lint.__file__).resolve().parent.parent
            # Point the linter at the sandbox root via explicit arguments.
            entries, findings = hacc_lint.load_allowlist(
                root / "tools" / "lint_allowlist.txt", root)
            for f in hacc_lint.collect_files([src]):
                findings.extend(hacc_lint.lint_file(f, root))
            findings = hacc_lint.apply_allowlist(
                findings, entries, "tools/lint_allowlist.txt")
            with contextlib.redirect_stdout(out):
                for f in findings:
                    print(f)
            del real_root
            return len(findings), out.getvalue()

    def test_allowlisted_finding_suppressed(self):
        n, _ = self.run_lint(
            {"writer.cpp": 'std::cout << "report";\n'},
            "src/writer.cpp | no-cout | designated writer\n")
        self.assertEqual(n, 0)

    def test_stale_entry_is_an_error(self):
        n, out = self.run_lint(
            {"clean.cpp": "int x = 1;\n"},
            "src/clean.cpp | no-cout | nothing matches this anymore\n")
        self.assertEqual(n, 1)
        self.assertIn("stale entry", out)

    def test_missing_justification_is_an_error(self):
        n, out = self.run_lint(
            {"writer.cpp": 'std::cout << "x";\n'},
            "src/writer.cpp | no-cout |\n")
        self.assertEqual(n, 2)  # malformed entry + the unsuppressed finding
        self.assertIn("malformed entry", out)

    def test_wrong_rule_does_not_suppress(self):
        n, _ = self.run_lint(
            {"writer.cpp": 'std::cout << "x";\n'},
            "src/writer.cpp | nondeterminism | wrong rule on purpose\n")
        self.assertEqual(n, 2)  # the finding survives + the entry goes stale


class ModuleTableRule(unittest.TestCase):
    CMAKE = "add_subdirectory(util)\nadd_subdirectory(core)\n"
    ARCH = ("# Architecture\n\n## Module map\n\n| Module | Contents |\n"
            "|---|---|\n| `util` | basics |\n| `core` | solver |\n\n"
            "## Other\n\n| `extra` | a row outside the map |\n")
    README = "`src/` holds 2 modules, each a static library.\n"

    def check(self, cmake=CMAKE, arch=ARCH, readme=README) -> list[str]:
        return [f.message for f in hacc_lint.check_module_table(cmake, arch, readme)]

    def test_matching_docs_clean(self):
        # `extra` sits in another section's table, not in the module map.
        self.assertEqual(self.check(), [])

    def test_module_without_row_flagged(self):
        msgs = self.check(cmake=self.CMAKE + "add_subdirectory(fmm)\n",
                          readme="`src/` holds 3 modules\n")
        self.assertEqual(len(msgs), 1)
        self.assertIn("`fmm`", msgs[0])

    def test_row_without_module_flagged(self):
        msgs = self.check(cmake="add_subdirectory(util)\n",
                          readme="`src/` holds 1 modules\n")
        self.assertEqual(len(msgs), 1)
        self.assertIn("row `core`", msgs[0])

    def test_readme_count_flagged(self):
        msgs = self.check(readme="`src/` holds 15 modules\n")
        self.assertEqual(len(msgs), 1)
        self.assertIn("holds 15 modules", msgs[0])

    def test_missing_readme_sentence_flagged(self):
        self.assertEqual(len(self.check(readme="no count here\n")), 1)


class ConfigTableRule(unittest.TestCase):
    SIM = ('  visit({"np", kPhysics, at_least(2)}, c.np_side);\n'
           '  visit({nullptr, kPhysics}, c.r_norm);\n')
    RUN = '  visit({"run.mode", kRun}, r.stepping.mode);\n'
    DOC = ("| Field type | Accepted text |\n|---|---|\n| `double` | a number |\n\n"
           "| Key | Default | Meaning |\n|---|---|---|\n| `scenario` | x | preset |\n"
           "| `np` | 12 | particles |\n\n| Key | Default |\n|---|---|\n"
           "| `run.mode` | `fixed` |\n| `threads` | 0 |\n")

    def check(self, sim=SIM, run=RUN, doc=DOC) -> list[str]:
        return [f.message for f in hacc_lint.check_config_table([sim, run], doc)]

    def test_matching_docs_clean(self):
        # `double` sits in a table that is not a `| Key |` table.
        self.assertEqual(self.check(), [])

    def test_key_without_row_flagged(self):
        msgs = self.check(run=self.RUN + '  visit({"run.log", kRun}, r.log_path);\n')
        self.assertEqual(len(msgs), 1)
        self.assertIn("`run.log`", msgs[0])

    def test_row_without_key_flagged(self):
        msgs = self.check(doc=self.DOC + "| `run.stpes` | 1 |\n")
        self.assertEqual(len(msgs), 1)
        self.assertIn("row `run.stpes`", msgs[0])

    def test_cli_key_without_row_flagged(self):
        msgs = self.check(doc=self.DOC.replace("| `threads` | 0 |\n", ""))
        self.assertEqual(len(msgs), 1)
        self.assertIn("`threads`", msgs[0])

    def test_key_declared_twice_flagged(self):
        msgs = self.check(run=self.RUN + '  visit({"np", kRun}, r.max_steps);\n')
        self.assertEqual(len(msgs), 1)
        self.assertIn("more than one row", msgs[0])


class CommentStripping(unittest.TestCase):
    def test_block_comment_spanning_lines(self):
        src = "/* rand() in a\n   block comment */\nint x;\n"
        self.assertEqual(lint_source("a.cpp", src), [])

    def test_code_after_block_comment_end_still_scanned(self):
        src = "/* comment */ int x = rand();\n"
        self.assertIn("nondeterminism", lint_source("a.cpp", src))

    def test_escaped_quote_in_string(self):
        src = 'auto s = "he said \\"rand()\\" loudly";\n'
        self.assertEqual(lint_source("a.cpp", src), [])


if __name__ == "__main__":
    unittest.main()
