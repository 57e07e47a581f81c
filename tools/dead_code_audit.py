#!/usr/bin/env python3
"""Dead-code audit: library functions that no non-test binary contains.

Configures and builds `build-audit/` with the tests and the docs target off,
at

  -O0 -fno-inline -ffunction-sections -fdata-sections  (compile)
  -Wl,--gc-sections                                    (link)

so every function keeps its own symbol and the linker drops each one that no
binary reaches.  The io fault-injection hooks stay at their default (on), the
build that CI tests: compiled out, the injector they call would have no
caller by design.  It then lists every external (`T`) or weak (`W`) `hacc::`
function defined in a `libhacc_*.a` that is in none of the build's
executables (`hacc_run`, `hacc_crash_sweep`, the benches and the examples).
Instantiations of `std::`/`__gnu_cxx` templates are skipped: their mangled
names do not start in `hacc::`.

`nm` cannot see a template or inline function that no library translation
unit instantiates: it emits no symbol at all.  A second pass, on the source
text, covers those.  Every function a header under `src/` defines at
namespace scope (an inline, constexpr or template function; a member
defined out of its class is skipped) must be named somewhere in `src/`,
`bench/`, `examples/` or `perfbench/` beyond its own definitions, with
comments and string literals stripped.  The pass matches names, not
overloads: a same-named function elsewhere hides an unreferenced one, so it
finds fewer than it might, never a false positive.  A class template that
only tests instantiate still needs a grep for its callers.

Each listed function must match an entry of tools/dead_code_allowlist.txt,
`<glob on the name> | <reason>`, where the name is demangled for the `nm`
pass (`hacc::io::File::File(hacc::io::File&&)`) and namespace-qualified for
the header pass (`hacc::fmm::p2m`); a public physics output, a test oracle
or an accessor that only tests observe is allowed with its reason.  Like
hacc_lint's allowlist, an entry that matches no listed function is stale
and an error, so an entry cannot outlive its cause.

Usage:
  python3 tools/dead_code_audit.py

Exit status: 0 when every listed function is allowlisted and no entry is
stale, 1 otherwise, 2 when the build cannot run or builds no bench.
"""

from __future__ import annotations

import fnmatch
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

COMPILE_FLAGS = "-O0 -fno-inline -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"

REPO_ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = REPO_ROOT / "build-audit"
ALLOWLIST = REPO_ROOT / "tools" / "dead_code_allowlist.txt"

# Mangled names inside namespace hacc: `_ZN4hacc...`, with cv/ref qualifiers
# of a member function (`_ZNK4hacc...`) between the N and the name.
HACC_SYMBOL = re.compile(r"^_ZN[rVKRO]*4hacc")
# nm types of functions with external linkage: text and weak text.
FUNCTION_TYPES = {"T", "W"}


def parse_nm(text: str, types: set[str] | None = None) -> set[str]:
    """Mangled names of `nm --defined-only` lines whose type is in `types`.

    Archive member headers (`foo.o:`) and blank lines are skipped; each
    symbol line is `<address> <type> <name>`.
    """
    names: set[str] = set()
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 3:
            continue
        _addr, kind, name = parts
        if types is None or kind in types:
            names.add(name)
    return names


def library_functions(nm_text: str) -> set[str]:
    """The `hacc::` T/W functions an archive's `nm` listing defines."""
    return {s for s in parse_nm(nm_text, FUNCTION_TYPES) if HACC_SYMBOL.match(s)}


def unreached(library_nm: list[str], binary_nm: list[str]) -> set[str]:
    """Library functions defined in no binary (mangled names)."""
    defined: set[str] = set()
    for text in library_nm:
        defined |= library_functions(text)
    reached: set[str] = set()
    for text in binary_nm:
        reached |= parse_nm(text)
    return defined - reached


# Directories whose C++ sources count as callers of a header function.
CALLER_DIRS = ("src", "bench", "examples", "perfbench")
CXX_SUFFIXES = {".hpp", ".cpp", ".h", ".cc", ".inc"}
# A comment, a string literal or a character literal (stripped), and the
# identifiers of the text that is left.
COMMENT_OR_LITERAL = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'", re.S)
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
# Words that make a braced declaration something other than a function.
NOT_A_FUNCTION = {"class", "struct", "union", "enum", "concept", "namespace", "operator"}


def strip_code(text: str) -> str:
    """`text` without comments, literals and preprocessor lines.

    A comment becomes a space; a literal keeps its quotes, empty.
    """
    def blank(m: re.Match[str]) -> str:
        tok = m.group(0)
        return tok[0] * 2 if tok[0] in "\"'" else " "
    code = COMMENT_OR_LITERAL.sub(blank, text)
    return "\n".join("" if line.lstrip().startswith("#") else line
                     for line in code.splitlines())


def skip_template_headers(decl: str) -> str:
    """`decl` after its leading `template <...>` headers."""
    decl = decl.lstrip()
    while decl.startswith("template"):
        open_at = decl.find("<")
        depth = 0
        for i in range(open_at, len(decl)):
            depth += {"<": 1, ">": -1}.get(decl[i], 0)
            if depth == 0:
                decl = decl[i + 1:].lstrip()
                break
        else:
            return ""
    return decl


def function_name(decl: str) -> str | None:
    """The name a namespace-scope definition `decl` (the text before its
    `{`) defines, or None when it is not a free function."""
    decl = skip_template_headers(decl)
    paren = decl.find("(")
    if paren <= 0:
        return None
    head = decl[:paren]
    if "=" in head or NOT_A_FUNCTION & set(IDENTIFIER.findall(head)):
        return None
    m = re.search(r"([\w:~]+)\s*$", head)
    if m is None or "::" in m.group(1):
        return None  # a member defined out of its class, or no name
    return m.group(1)


def header_functions(text: str) -> list[str]:
    """Namespace-qualified names of the functions a header defines at
    namespace scope (the text outside every namespace included)."""
    code = strip_code(text)
    names: list[str] = []
    scopes: list[str | None] = []  # a namespace's name, or None for any other brace
    start = 0  # where the current namespace-scope declaration began
    for i, ch in enumerate(code):
        if ch not in "{};":
            continue
        at_namespace_scope = all(s is not None for s in scopes)
        decl = code[start:i]
        if ch == "{":
            ns = re.fullmatch(r"\s*(?:inline\s+)?namespace\s*([\w:]*)\s*", decl)
            if at_namespace_scope and ns is not None:
                scopes.append(ns.group(1) or "(anonymous)")
            else:
                if at_namespace_scope:
                    name = function_name(decl)
                    if name is not None:
                        names.append("::".join([s for s in scopes if s] + [name]))
                scopes.append(None)
        elif ch == "}" and scopes:
            scopes.pop()
        if all(s is not None for s in scopes):
            start = i + 1
    return names


def unreferenced(headers: list[str], callers: list[str]) -> list[str]:
    """Functions the `headers` define whose name occurs in `callers`
    (comments and literals stripped) no more often than the headers define
    it."""
    defined = [q for text in headers for q in header_functions(text)]
    definitions = Counter(q.rsplit("::", 1)[-1] for q in defined)
    uses = Counter(w for text in callers for w in IDENTIFIER.findall(strip_code(text)))
    return sorted({q for q in defined
                   if uses[q.rsplit("::", 1)[-1]] <= definitions[q.rsplit("::", 1)[-1]]})


def header_pass() -> list[str]:
    """unreferenced() over the `src/` headers and the callers' sources."""
    callers = [p for d in CALLER_DIRS for p in sorted((REPO_ROOT / d).rglob("*"))
               if p.suffix in CXX_SUFFIXES and p.is_file()]
    return unreferenced(
        [p.read_text(encoding="utf-8") for p in sorted((REPO_ROOT / "src").rglob("*.hpp"))],
        [p.read_text(encoding="utf-8") for p in callers])


def demangle(names: list[str]) -> list[str]:
    """Demangles `names` in one `c++filt` call, order kept."""
    if not names:
        return []
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()


def load_allowlist(path: Path) -> tuple[list[tuple[str, int]], list[str]]:
    """Parses `glob | reason` lines: (entries, problems)."""
    entries: list[tuple[str, int]] = []
    problems: list[str] = []
    if not path.exists():
        return entries, problems
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(" | ")]
        if len(parts) != 2 or not all(parts):
            problems.append(f"{path.name}:{lineno}: malformed entry; expected "
                            f"`<glob> | <reason>` with both fields non-empty")
            continue
        entries.append((parts[0], lineno))
    return entries, problems


def check(dead: list[str], entries: list[tuple[str, int]],
          allowlist_name: str = "dead_code_allowlist.txt") -> list[str]:
    """Findings: each dead function no entry allows, and each stale entry.

    `dead` holds demangled names; the complete/base-object variants of one
    constructor or destructor demangle alike and are reported once.
    """
    used = [False] * len(entries)
    findings: list[str] = []
    for name in sorted(set(dead)):
        allowed = False
        for idx, (glob, _lineno) in enumerate(entries):
            if fnmatch.fnmatchcase(name, glob):
                used[idx] = True
                allowed = True
        if not allowed:
            findings.append(f"unreached: {name}")
    for idx, (glob, lineno) in enumerate(entries):
        if not used[idx]:
            findings.append(f"{allowlist_name}:{lineno}: stale entry `{glob}`: "
                            f"no unreached function matches; remove it")
    return findings


def is_executable(path: Path) -> bool:
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with path.open("rb") as f:
        return f.read(4) == b"\x7fELF"


def build() -> None:
    subprocess.run(
        ["cmake", "-S", str(REPO_ROOT), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Audit",
         f"-DCMAKE_CXX_FLAGS_AUDIT={COMPILE_FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS_AUDIT={LINK_FLAGS}",
         "-DHACC_BUILD_TESTS=OFF", "-DHACC_BUILD_DOCS=OFF",
         "-DHACC_BUILD_BENCH=ON", "-DHACC_BUILD_EXAMPLES=ON",
         "-DHACC_FAULT_INJECTION=ON"],
        check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=subprocess.DEVNULL)


def nm(path: Path) -> str:
    return subprocess.run(["nm", "--defined-only", str(path)],
                          capture_output=True, text=True, check=True).stdout


def main() -> int:
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"dead_code_audit: build failed: {e}", file=sys.stderr)
        return 2
    files = [p for p in sorted(BUILD_DIR.rglob("*"))
             if "CMakeFiles" not in p.parts]
    libraries = [p for p in files if re.fullmatch(r"libhacc_\w+\.a", p.name)]
    binaries = [p for p in files if is_executable(p)]
    if not any(p.name.startswith("bench_") for p in binaries):
        print("dead_code_audit: no bench binary was built (google-benchmark "
              "missing?); the benches are callers the audit must see",
              file=sys.stderr)
        return 2

    dead = unreached([nm(p) for p in libraries], [nm(p) for p in binaries])
    unnamed = header_pass()
    entries, findings = load_allowlist(ALLOWLIST)
    findings += check(demangle(sorted(dead)) + unnamed, entries, ALLOWLIST.name)
    for f in findings:
        print(f)
    print(f"dead_code_audit: {len(binaries)} binaries, {len(libraries)} libraries, "
          f"{len(dead)} unreached function(s), {len(unnamed)} unreferenced header "
          f"function(s), {len(entries)} allowlist entries, {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
