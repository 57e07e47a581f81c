#!/usr/bin/env python3
"""Project lint for the HACC reproduction sources.

Checks that clang-tidy cannot express (or cannot express cheaply), focused on
the determinism and concurrency conventions documented in docs/CONCURRENCY.md:

  nondeterminism   No rand()/srand()/time()/clock()/std::random_device in
                   physics sources.  All randomness must flow through the
                   counter-based RNG (src/util/rng.hpp) so runs are
                   reproducible for any thread count.
  no-cout          Library code under src/ must not write to stdout/stderr
                   (std::cout/cerr/clog, printf/fprintf/puts).  Output is the
                   responsibility of the allowlisted writers (the hacc_run
                   front end and the runner's report path).
  header-hygiene   Every header starts with `#pragma once` and contains no
                   file-scope `using namespace`.
  number-parse     Outside src/util/, no source under src/ turns text into a
                   number itself (strtol/strtod/std::sto*/atoi/atof/
                   from_chars): config keys, thread counts and file names
                   go through util::parse_number or util::Config::read, so
                   malformed input has one strict reader and one error.
  shared-comment   Every parallel_for / parallel_for_chunks call site must
                   carry a `// shared:` comment within the preceding lines
                   naming the captured-by-reference state the lambda writes
                   and why that is race-free.
  nolint-justified Every NOLINT marker must name the suppressed check(s) and
                   carry a `: <reason>` justification.  Bare NOLINT is an
                   error.
  span-name        Every string literal handed to obs::TraceSpan, to
                   Tracer::record()/intern(), or to the solver's
                   run_stage() (which opens its span) must follow the `module.phase`
                   naming convention from docs/OBSERVABILITY.md
                   (lowercase, dotted, e.g. `pm.deposit`, `core.step`), so
                   traces group cleanly by subsystem.
  module-table     The modules src/CMakeLists.txt adds (`add_subdirectory`)
                   are exactly the backticked first column of the module map
                   in docs/ARCHITECTURE.md, and README.md's "`src/` holds N
                   modules" counts them, so a module cannot come or go
                   without its docs.
  config-table     The backticked key column of docs/CONFIG.md's `| Key |`
                   tables is exactly the keys of the two config field tables
                   (core::for_each_sim_field in src/core/solver.hpp,
                   run::for_each_run_field in src/run/scenario.hpp) plus the
                   CLI keys `scenario` and `threads`, so a key cannot come or
                   go without its docs.
  allowlist        Every allowlist entry must carry a justification, and must
                   match at least one current finding (stale entries are
                   errors, so suppressions cannot outlive their cause).

Usage:
  python3 tools/hacc_lint.py [--allowlist tools/lint_allowlist.txt] [paths...]

Paths default to src/; module-table and config-table always check the
repository's files.
Exit status is 0 when clean, 1 when findings remain.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

HEADER_SUFFIXES = {".hpp", ".h"}
SOURCE_SUFFIXES = {".cpp", ".cc", ".cxx"} | HEADER_SUFFIXES

# How many lines above a parallel_for call site may hold its `// shared:`
# comment.  Large enough for a short comment block, small enough that the
# comment stays adjacent to the lambda it documents.
SHARED_COMMENT_WINDOW = 10

NONDETERMINISM_PATTERNS = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\btime\s*\("), "time()"),
    (re.compile(r"\bclock\s*\("), "clock()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
]

OUTPUT_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*cout\b"), "std::cout"),
    (re.compile(r"\bstd\s*::\s*cerr\b"), "std::cerr"),
    (re.compile(r"\bstd\s*::\s*clog\b"), "std::clog"),
    # Lookbehind admits `std::printf` but not `snprintf`/`obj.printf`.
    (re.compile(r"(?<![\w.>])printf\s*\("), "printf()"),
    (re.compile(r"\bfprintf\s*\("), "fprintf()"),
    (re.compile(r"(?<![\w.>])puts\s*\("), "puts()"),
]

# Member invocations only (`pool.parallel_for`, `pool_->parallel_for_chunks`);
# declarations and qualified definitions spell `ThreadPool::parallel_for` or a
# bare name and are not launch sites.
PARALLEL_FOR_CALL = re.compile(r"(?:->|\.)\s*parallel_for(?:_chunks)?\s*(?:<[^>]*>\s*)?\(")
SHARED_COMMENT = re.compile(r"//\s*shared:")

# `NOLINT(check): reason`, `NOLINTNEXTLINE(check,check2): reason`.  The check
# list and the justification are both mandatory.
NOLINT_ANY = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?\b")
NOLINT_JUSTIFIED = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?\([\w.,\-* ]+\)\s*:\s*\S")
# Prose mentions of the marker ("// NOLINT below: ...") are commentary, not
# suppressions; clang-tidy only honors the marker followed by `(` or
# end-of-comment, so only flag those.
NOLINT_ACTIVE = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?(?:\(|\s*$|\s*\*/)")

# The C and C++ text-to-number calls; `std::` optional, member calls
# (`obj.stoi(`) and longer names (`restore(`) excluded.
NUMBER_PARSE = re.compile(
    r"(?<![\w.>])(?:std\s*::\s*)?"
    r"(strto(?:l|ll|ul|ull|f|d|ld|imax|umax)|sto(?:i|l|ll|ul|ull|f|d|ld)"
    r"|ato(?:i|l|ll|f)|from_chars)\s*\(")
# The one module allowed to call them.
NUMBER_PARSE_HOME = "src/util/"

USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b")
PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b")

# Literal span names: `TraceSpan("...")` constructions, literals handed
# straight to a Tracer's record()/intern() on the same line, and the first
# argument of Solver::run_stage(), which opens that span.  Dynamic names
# (strings built at runtime, e.g. the queue's "xsycl." + kernel) are out of
# reach of a text lint and are covered by convention in docs/OBSERVABILITY.md.
SPAN_LITERAL_PATTERNS = [
    re.compile(r"\bTraceSpan\s*\w*\s*\(\s*\"([^\"]*)\""),
    re.compile(r"\b[Tt]racer\w*\b[^;\"]*\b(?:record|intern)\s*\(\s*\"([^\"]*)\""),
    re.compile(r"\brun_stage\s*\(\s*\"([^\"]*)\""),
]
# `module.phase`: lowercase module segment, then at least one phase segment;
# further dots allow sub-phases (`fft.r2c_z`).  Phase segments keep their own
# capitalization so dynamic kernel names (`xsycl.upBarAcF`) fit the same
# convention checked by tools/check_events.py on exported traces.
SPAN_NAME = re.compile(r"^[a-z][a-z0-9_]*\.[A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*$")

# module-table: the build's module list and the two documents that name it.
ADD_SUBDIRECTORY = re.compile(r"^\s*add_subdirectory\(\s*([\w-]+)\s*\)", re.M)
MODULE_MAP_HEADING = "## Module map"
MODULE_ROW = re.compile(r"^\|\s*`([\w-]+)`\s*\|")
MODULE_COUNT = re.compile(r"`src/` holds (\d+) modules")

# config-table: the field tables' keyed rows and CONFIG.md's key column.
CONFIG_TABLE_SOURCES = ("src/core/solver.hpp", "src/run/scenario.hpp")
TABLE_KEY = re.compile(r'visit\(\{"([\w.]+)"')
CLI_KEYS = ("scenario", "threads")
KEY_TABLE_HEADER = re.compile(r"^\|\s*Key\s*\|")
KEY_ROW = re.compile(r"^\|\s*`([\w.-]+)`\s*\|")


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out comments and string/char literals, preserving line structure.

    A line-oriented scanner with block-comment state; raw strings are treated
    as plain strings, which is fine for the patterns this lint hunts.
    """
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        n = len(line)
        quote = None  # current string/char delimiter, or None
        while i < n:
            c = line[i]
            if in_block:
                if c == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block = False
                    i += 2
                    continue
                i += 1
                continue
            if quote is not None:
                if c == "\\":
                    i += 2
                    continue
                if c == quote:
                    quote = None
                i += 1
                continue
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                break  # rest of line is a comment
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                result.append(c)
                i += 1
                continue
            result.append(c)
            i += 1
        out.append("".join(result))
    return out


def lint_file(path: Path, repo_root: Path) -> list[Finding]:
    rel = path.relative_to(repo_root).as_posix()
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        return [Finding(rel, 0, "io", f"unreadable: {e}")]
    lines = text.splitlines()
    code = strip_comments_and_strings(lines)
    findings: list[Finding] = []

    for lineno, stripped in enumerate(code, start=1):
        for pattern, label in NONDETERMINISM_PATTERNS:
            if pattern.search(stripped):
                findings.append(Finding(
                    rel, lineno, "nondeterminism",
                    f"{label} breaks reproducibility; use util::CounterRng "
                    f"(src/util/rng.hpp) or util::wtime"))
        for pattern, label in OUTPUT_PATTERNS:
            if pattern.search(stripped):
                findings.append(Finding(
                    rel, lineno, "no-cout",
                    f"{label} in library code; return data or route through "
                    f"an allowlisted writer"))
        if rel.startswith("src/") and not rel.startswith(NUMBER_PARSE_HOME):
            m = NUMBER_PARSE.search(stripped)
            if m:
                findings.append(Finding(
                    rel, lineno, "number-parse",
                    f"{m.group(1)}() outside src/util/; parse through "
                    f"util::parse_number or util::Config::read"))
        if PARALLEL_FOR_CALL.search(stripped):
            lo = max(0, lineno - 1 - SHARED_COMMENT_WINDOW)
            window = lines[lo:lineno]
            if not any(SHARED_COMMENT.search(w) for w in window):
                findings.append(Finding(
                    rel, lineno, "shared-comment",
                    "parallel_for call site lacks a `// shared:` comment "
                    f"within {SHARED_COMMENT_WINDOW} lines naming the "
                    "captured state the lambda writes"))

    for lineno, raw in enumerate(lines, start=1):
        if NOLINT_ANY.search(raw) and NOLINT_ACTIVE.search(raw):
            if not NOLINT_JUSTIFIED.search(raw):
                findings.append(Finding(
                    rel, lineno, "nolint-justified",
                    "NOLINT must name the suppressed check(s) and give a "
                    "reason: `NOLINT(check-name): why`"))

    # Span names live inside string literals, which the stripped view blanks
    # out, so this rule scans raw lines and skips matches behind a `//`.
    for lineno, raw in enumerate(lines, start=1):
        for pattern in SPAN_LITERAL_PATTERNS:
            for m in pattern.finditer(raw):
                if "//" in raw[:m.start()]:
                    continue
                # A literal followed by `+` is a prefix for a runtime-built
                # name (e.g. intern("xsycl." + kernel)); convention covers
                # the full name, not the fragment.
                if raw[m.end():].lstrip().startswith("+"):
                    continue
                name = m.group(1)
                if not SPAN_NAME.match(name):
                    findings.append(Finding(
                        rel, lineno, "span-name",
                        f'span name "{name}" must follow the `module.phase` '
                        f"convention (lowercase dotted, e.g. pm.deposit; "
                        f"docs/OBSERVABILITY.md)"))

    if path.suffix in HEADER_SUFFIXES:
        if not any(PRAGMA_ONCE.match(line) for line in lines[:5]):
            findings.append(Finding(
                rel, 1, "header-hygiene",
                "header must start with `#pragma once`"))
        for lineno, stripped in enumerate(code, start=1):
            if USING_NAMESPACE.match(stripped):
                findings.append(Finding(
                    rel, lineno, "header-hygiene",
                    "`using namespace` in a header leaks into every includer"))

    return findings


def check_module_table(cmake_text: str, architecture_text: str,
                       readme_text: str) -> list[Finding]:
    """module-table: src/CMakeLists.txt, ARCHITECTURE's map, README's count."""
    modules = ADD_SUBDIRECTORY.findall(cmake_text)
    table: dict[str, int] = {}
    in_map = False
    for lineno, line in enumerate(architecture_text.splitlines(), start=1):
        if line.startswith("## "):
            in_map = line.strip() == MODULE_MAP_HEADING
            continue
        m = MODULE_ROW.match(line) if in_map else None
        if m:
            table[m.group(1)] = lineno
    findings: list[Finding] = []
    arch = "docs/ARCHITECTURE.md"
    for name in modules:
        if name not in table:
            findings.append(Finding(
                arch, 0, "module-table",
                f"module `{name}` (src/CMakeLists.txt) has no row in the module map"))
    for name, lineno in table.items():
        if name not in modules:
            findings.append(Finding(
                arch, lineno, "module-table",
                f"module map row `{name}` is not a module of src/CMakeLists.txt"))
    counts = [(lineno, int(m.group(1)))
              for lineno, line in enumerate(readme_text.splitlines(), start=1)
              for m in MODULE_COUNT.finditer(line)]
    if not counts:
        findings.append(Finding(
            "README.md", 0, "module-table",
            "no \"`src/` holds N modules\" sentence to check"))
    for lineno, n in counts:
        if n != len(modules):
            findings.append(Finding(
                "README.md", lineno, "module-table",
                f"says `src/` holds {n} modules; src/CMakeLists.txt adds {len(modules)}"))
    return findings


def read_repo_file(repo_root: Path, rel: str) -> str:
    try:
        return (repo_root / rel).read_text(encoding="utf-8")
    except OSError:
        return ""


def lint_module_table(repo_root: Path) -> list[Finding]:
    def read(rel: str) -> str:
        return read_repo_file(repo_root, rel)
    return check_module_table(read("src/CMakeLists.txt"),
                              read("docs/ARCHITECTURE.md"), read("README.md"))


def check_config_table(sources: list[str], config_text: str) -> list[Finding]:
    """config-table: the field tables' keys (+ CLI keys) = CONFIG.md's."""
    keys = [k for text in sources for k in TABLE_KEY.findall(text)] + list(CLI_KEYS)
    rows: dict[str, int] = {}
    in_key_table = False
    for lineno, line in enumerate(config_text.splitlines(), start=1):
        if KEY_TABLE_HEADER.match(line):
            in_key_table = True
        elif not line.startswith("|"):
            in_key_table = False
        elif in_key_table and (m := KEY_ROW.match(line)):
            rows[m.group(1)] = lineno
    findings: list[Finding] = []
    doc = "docs/CONFIG.md"
    for key in sorted({k for k in keys if keys.count(k) > 1}):
        findings.append(Finding(
            doc, 0, "config-table", f"key `{key}` is declared by more than one row"))
    for key in keys:
        if key not in rows:
            findings.append(Finding(
                doc, 0, "config-table", f"key `{key}` has no row in a `| Key |` table"))
    for key, lineno in rows.items():
        if key not in keys:
            findings.append(Finding(
                doc, lineno, "config-table",
                f"row `{key}` is neither a field-table key nor a CLI key"))
    return findings


def lint_config_table(repo_root: Path) -> list[Finding]:
    return check_config_table(
        [read_repo_file(repo_root, rel) for rel in CONFIG_TABLE_SOURCES],
        read_repo_file(repo_root, "docs/CONFIG.md"))


def load_allowlist(path: Path, repo_root: Path) -> tuple[list[tuple[str, str, str, int]], list[Finding]]:
    """Parse `path | rule | justification` lines.

    Returns (entries, findings-about-the-allowlist-itself).  Each entry is
    (file-glob, rule, justification, lineno).
    """
    entries: list[tuple[str, str, str, int]] = []
    problems: list[Finding] = []
    if not path.exists():
        return entries, problems
    rel = path.relative_to(repo_root).as_posix()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3 or not all(parts):
            problems.append(Finding(
                rel, lineno, "allowlist",
                "malformed entry; expected `path | rule | justification` "
                "with all three fields non-empty"))
            continue
        entries.append((parts[0], parts[1], parts[2], lineno))
    return entries, problems


def apply_allowlist(findings: list[Finding],
                    entries: list[tuple[str, str, str, int]],
                    allowlist_rel: str) -> list[Finding]:
    used = [False] * len(entries)
    kept: list[Finding] = []
    for f in findings:
        suppressed = False
        for idx, (glob, rule, _just, _lineno) in enumerate(entries):
            if rule == f.rule and Path(f.path).match(glob):
                used[idx] = True
                suppressed = True
        if not suppressed:
            kept.append(f)
    for idx, (glob, rule, _just, lineno) in enumerate(entries):
        if not used[idx]:
            kept.append(Finding(
                allowlist_rel, lineno, "allowlist",
                f"stale entry `{glob} | {rule}`: no current finding matches; "
                f"remove it"))
    return kept


def collect_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*") if q.suffix in SOURCE_SUFFIXES))
        elif p.suffix in SOURCE_SUFFIXES:
            files.append(p)
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint (default: src/)")
    parser.add_argument("--allowlist", type=Path, default=None,
                        help="allowlist file (default: tools/lint_allowlist.txt)")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    paths = args.paths or [repo_root / "src"]
    allowlist_path = args.allowlist or repo_root / "tools" / "lint_allowlist.txt"

    entries, findings = load_allowlist(allowlist_path, repo_root)
    for f in collect_files(paths):
        findings.extend(lint_file(f.resolve(), repo_root))
    findings.extend(lint_module_table(repo_root))
    findings.extend(lint_config_table(repo_root))

    try:
        allowlist_rel = allowlist_path.resolve().relative_to(repo_root).as_posix()
    except ValueError:
        allowlist_rel = str(allowlist_path)
    findings = apply_allowlist(findings, entries, allowlist_rel)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"hacc_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
