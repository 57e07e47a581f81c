#!/usr/bin/env python3
"""Self-tests for tools/dead_code_audit.py on canned `nm` text (no build).

Run with either:
  python3 tools/test_dead_code_audit.py
  python3 -m pytest tools/test_dead_code_audit.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dead_code_audit as audit  # noqa: E402

# `nm --defined-only libhacc_demo.a`: two members, one of each symbol kind
# the audit must keep or skip.
LIBRARY_NM = """
a.cpp.o:
0000000000000000 T _ZN4hacc4demo4usedEv
0000000000000000 T _ZN4hacc4demo6unusedEv
0000000000000000 W _ZNK4hacc4demo3Box4sizeEv
0000000000000000 t _ZN4hacc4demo12_GLOBAL__N_16helperEv
0000000000000000 W _ZNSt6vectorIN4hacc4demo3BoxESaIS2_EE9push_backERKS2_
0000000000000000 W _ZN9__gnu_cxx13new_allocatorIiE8allocateEm
0000000000000000 V _ZTVN4hacc4demo3BoxE
0000000000000000 B _ZN4hacc4demo7counterE

b.cpp.o:
0000000000000000 T main_helper
"""

# `nm --defined-only` of the one binary: it reached `used` only.
BINARY_NM = """
0000000000001000 T _ZN4hacc4demo4usedEv
0000000000002000 T main
"""


class ParseNm(unittest.TestCase):
    def test_member_headers_and_blanks_skipped(self):
        names = audit.parse_nm(LIBRARY_NM)
        self.assertIn("_ZN4hacc4demo4usedEv", names)
        self.assertNotIn("a.cpp.o:", names)

    def test_type_filter(self):
        self.assertEqual(audit.parse_nm(BINARY_NM, {"W"}), set())


class LibraryFunctions(unittest.TestCase):
    def test_keeps_hacc_text_and_weak_only(self):
        self.assertEqual(
            audit.library_functions(LIBRARY_NM),
            {"_ZN4hacc4demo4usedEv", "_ZN4hacc4demo6unusedEv",
             "_ZNK4hacc4demo3Box4sizeEv"})

    def test_std_and_gnu_cxx_instantiations_skipped(self):
        funcs = audit.library_functions(LIBRARY_NM)
        self.assertFalse(any(s.startswith(("_ZNSt", "_ZN9__gnu_cxx")) for s in funcs))

    def test_local_and_data_symbols_skipped(self):
        funcs = audit.library_functions(LIBRARY_NM)
        self.assertNotIn("_ZN4hacc4demo12_GLOBAL__N_16helperEv", funcs)  # t
        self.assertNotIn("_ZTVN4hacc4demo3BoxE", funcs)                   # vtable
        self.assertNotIn("_ZN4hacc4demo7counterE", funcs)                 # B


class Unreached(unittest.TestCase):
    def test_reached_functions_drop_out(self):
        self.assertEqual(audit.unreached([LIBRARY_NM], [BINARY_NM]),
                         {"_ZN4hacc4demo6unusedEv", "_ZNK4hacc4demo3Box4sizeEv"})

    def test_any_binary_reaches(self):
        other = "0000000000001000 W _ZNK4hacc4demo3Box4sizeEv\n"
        self.assertEqual(audit.unreached([LIBRARY_NM], [BINARY_NM, other]),
                         {"_ZN4hacc4demo6unusedEv"})


@unittest.skipUnless(shutil.which("c++filt"), "c++filt not installed")
class Demangle(unittest.TestCase):
    def test_names_in_order(self):
        self.assertEqual(
            audit.demangle(["_ZN4hacc4demo6unusedEv", "_ZNK4hacc4demo3Box4sizeEv"]),
            ["hacc::demo::unused()", "hacc::demo::Box::size() const"])


class Allowlist(unittest.TestCase):
    def load(self, text: str):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "allow.txt"
            path.write_text(text, encoding="utf-8")
            return audit.load_allowlist(path)

    def test_entries_and_comments(self):
        entries, problems = self.load(
            "# comment\n\nhacc::demo::unused() | kept as a test oracle\n")
        self.assertEqual(entries, [("hacc::demo::unused()", 3)])
        self.assertEqual(problems, [])

    def test_missing_reason_is_malformed(self):
        entries, problems = self.load("hacc::demo::unused() |\n")
        self.assertEqual(entries, [])
        self.assertIn("malformed entry", problems[0])

    def test_allowed_function_passes(self):
        self.assertEqual(audit.check(["hacc::demo::unused()"],
                                     [("hacc::demo::unused()", 1)]), [])

    def test_unlisted_function_is_a_finding(self):
        findings = audit.check(["hacc::demo::unused()"], [])
        self.assertEqual(findings, ["unreached: hacc::demo::unused()"])

    def test_glob_covers_several(self):
        dead = ["double hacc::sph::w<double>(double)", "hacc::sph::S<double>::S()"]
        self.assertEqual(audit.check(dead, [("*hacc::sph::*<double>*", 1)]), [])

    def test_stale_entry_is_a_finding(self):
        findings = audit.check([], [("hacc::demo::gone()", 4)], "allow.txt")
        self.assertEqual(len(findings), 1)
        self.assertIn("allow.txt:4: stale entry", findings[0])

    def test_ctor_variants_reported_once(self):
        # C1 and C2 of one constructor demangle to the same name.
        findings = audit.check(["hacc::demo::Box::Box()"] * 2, [])
        self.assertEqual(findings, ["unreached: hacc::demo::Box::Box()"])


# A header with one function of each kind the header pass must find or
# skip, and the sources that call some of them.
HEADER = """#pragma once
#include <string>  // { an include is no scope

namespace stdx = std;

namespace hacc::demo {

// unused_in_comment() { is not code
inline int used(int x) { return x + 1; }
inline int unused() { return 0; }
template <typename T>
constexpr T twice(T x) { return x + x; }
inline const char* braces() { return "}{"; }
template <typename T>
concept Small = requires(T t) { { t.size() } -> std::same_as<int>; };
struct Box {
  int size() const { return 1; }
  int area() const;
};
inline int Box::area() const { return 2; }
inline constexpr int kTable[] = {1, 2};
inline auto lambda = [](int x) { return x; };
enum class Mode { kA, kB };
bool declared_only(int);

namespace {
inline int hidden() { return 3; }
}  // namespace

}  // namespace hacc::demo
"""

CALLER = """#include "demo.hpp"
// unused(); twice(1); a comment names them, it does not call them
int main() { const char* s = "hidden() braces()"; return hacc::demo::used(1) + braces()[0]; }
"""


class HeaderPass(unittest.TestCase):
    def test_finds_namespace_scope_functions(self):
        self.assertEqual(audit.header_functions(HEADER),
                         ["hacc::demo::used", "hacc::demo::unused", "hacc::demo::twice",
                          "hacc::demo::braces", "hacc::demo::(anonymous)::hidden"])

    def test_unreferenced_needs_a_use_beyond_the_definition(self):
        self.assertEqual(audit.unreferenced([HEADER], [HEADER, CALLER]),
                         ["hacc::demo::(anonymous)::hidden", "hacc::demo::twice",
                          "hacc::demo::unused"])

    def test_an_overload_needs_a_use_beyond_both_definitions(self):
        header = "namespace hacc {\ninline int f(int) { return 0; }\n" \
                 "inline int f(double) { return 1; }\n}\n"
        self.assertEqual(audit.unreferenced([header], [header]),
                         ["hacc::f"])
        caller = "int g() { return f(1); }"
        self.assertEqual(audit.unreferenced([header], [header, caller]), [])

    def test_header_names_take_allowlist_entries(self):
        findings = audit.check(["hacc::demo::twice"], [("hacc::demo::twice", 1)])
        self.assertEqual(findings, [])


if __name__ == "__main__":
    unittest.main()
