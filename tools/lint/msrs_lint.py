#!/usr/bin/env python3
"""msrs_lint: the project-invariant linter (regex/AST-lite, no compiler).

Enforces the source-level rules the repo's contracts imply but no compiler
checks (docs/static_analysis.md has the full rationale):

  unordered-iteration  Range-for over a std::unordered_map/unordered_set
                       declared in the same file needs an
                       `// order-insensitive:` justification — hash-order
                       iteration feeding a response or dump would break
                       the byte-determinism contract.
  naked-clock          steady_clock::now()/system_clock outside the
                       allowlisted timing seams (trace, timeseries, perf
                       runner, transports, util/sync.hpp). Response bytes
                       must be a pure function of request bytes; clocks
                       belong in telemetry and transport timing only.
  raw-random           rand()/std::random_device outside util/rng.hpp.
                       All randomness flows through seeded util::Rng so
                       every run is reproducible.
  relaxed-comment      Every `memory_order_relaxed` carries a
                       `// relaxed:` justification on the same line or
                       within the preceding comment block.
  stdout-library       std::cout/printf in library code. Wire bytes go
                       through OrderedWriter; stderr (fprintf) is fine
                       for diagnostics; only the CLI surfaces
                       (serve/driver.cpp, perf/cli.cpp) own stdout.

Usage:
  msrs_lint.py [PATH...]          lint files/directories (default: src/)
  msrs_lint.py --self-test [PATH...]
                                  run the fixture self-test first, then
                                  lint PATHs when given

Exit status: 0 clean, 1 findings or fixture failure, 2 usage error.
"""

import os
import re
import sys

# Path suffixes (POSIX-style) allowed to call clocks directly: telemetry
# stamps, the perf runner's measurements, transport deadlines/idle timers,
# and the one sanctioned deadline-arithmetic seam. engine/corpus.cpp
# prints a generation-timing report (stderr, not response bytes).
CLOCK_ALLOWLIST = (
    "util/sync.hpp",
    "obs/trace.hpp",
    "obs/timeseries.hpp",
    "obs/timeseries.cpp",
    "obs/flight_recorder.hpp",
    "obs/flight_recorder.cpp",
    "perf/runner.hpp",
    "perf/runner.cpp",
    "serve/tcp.cpp",
    "serve/driver.cpp",
    "serve/transport.cpp",
    "serve/event_loop.hpp",
    "serve/event_loop.cpp",
    "engine/corpus.cpp",
)

RANDOM_ALLOWLIST = (
    "util/rng.hpp",
)

STDOUT_ALLOWLIST = (
    "serve/driver.cpp",
    "perf/cli.cpp",
)

# How far above the flagged line a justification comment may sit.
JUSTIFY_WINDOW = 4

RE_LINE_COMMENT = re.compile(r"//.*$")
RE_CLOCK = re.compile(r"steady_clock\s*::\s*now\s*\(|system_clock")
RE_RANDOM = re.compile(r"\brand\s*\(\s*\)|\brandom_device\b")
RE_RELAXED = re.compile(r"\bmemory_order_relaxed\b")
RE_STDOUT = re.compile(r"std\s*::\s*cout|(?<![\w:])printf\s*\(")
RE_UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*?>\s*(\w+)\s*"
    r"(?:MSRS_GUARDED_BY\s*\([^)]*\)\s*)?(?:[;={]|$)")
RE_RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*:\s*([^)]+)\)")


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line_no, self.rule,
                                   self.message)


def strip_comment(line):
    """The code part of a line (line comments removed, naively)."""
    return RE_LINE_COMMENT.sub("", line)


def has_justification(lines, index, marker):
    """True when `marker` appears in a comment on lines[index] or within
    the JUSTIFY_WINDOW comment lines above it."""
    if marker in lines[index]:
        return True
    for back in range(1, JUSTIFY_WINDOW + 1):
        j = index - back
        if j < 0:
            break
        if marker in lines[j]:
            return True
    return False


def allowlisted(path, suffixes):
    posix = path.replace(os.sep, "/")
    return any(posix.endswith(suffix) for suffix in suffixes)


def block_comment_mask(lines):
    """Per-line flag: line is entirely inside a /* */ block comment."""
    mask = [False] * len(lines)
    inside = False
    for i, line in enumerate(lines):
        if inside:
            mask[i] = True
            if "*/" in line:
                inside = False
        else:
            stripped = strip_comment(line)
            if "/*" in stripped and "*/" not in stripped:
                inside = True
    return mask


def lint_file(path):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        return [Finding(path, 0, "io", str(err))]

    findings = []
    in_block = block_comment_mask(lines)

    # Pass 1: names of unordered containers declared in this file.
    unordered_names = set()
    for i, line in enumerate(lines):
        if in_block[i]:
            continue
        code = strip_comment(line)
        for match in RE_UNORDERED_DECL.finditer(code):
            unordered_names.add(match.group(1))

    check_clock = not allowlisted(path, CLOCK_ALLOWLIST)
    check_random = not allowlisted(path, RANDOM_ALLOWLIST)
    check_stdout = not allowlisted(path, STDOUT_ALLOWLIST)

    for i, line in enumerate(lines):
        if in_block[i]:
            continue
        code = strip_comment(line)
        n = i + 1

        if check_clock and RE_CLOCK.search(code):
            findings.append(Finding(
                path, n, "naked-clock",
                "direct clock use outside the timing allowlist; route "
                "through obs::TraceClock stamps or util::deadline_after()"))

        if check_random and RE_RANDOM.search(code):
            findings.append(Finding(
                path, n, "raw-random",
                "unseeded randomness; use the seeded util::Rng"))

        if RE_RELAXED.search(code) and not has_justification(
                lines, i, "relaxed:"):
            findings.append(Finding(
                path, n, "relaxed-comment",
                "memory_order_relaxed without a `// relaxed:` "
                "justification comment"))

        if check_stdout and RE_STDOUT.search(code):
            findings.append(Finding(
                path, n, "stdout-library",
                "stdout in library code; wire bytes go through "
                "OrderedWriter, diagnostics through stderr"))

        if unordered_names:
            match = RE_RANGE_FOR.search(code)
            if match:
                container = match.group(1).strip()
                # The container expression's leading identifier
                # (handles `name`, `name.foo()`, `*name`). A subscript
                # (`map[key]`) iterates the mapped value, not the map —
                # that's ordinary ordered iteration, skip it.
                head = re.match(r"[*&\s]*(\w+)", container)
                if head and head.group(1) in unordered_names and \
                        "[" not in container and \
                        not has_justification(lines, i,
                                              "order-insensitive:"):
                    findings.append(Finding(
                        path, n, "unordered-iteration",
                        "range-for over unordered container '%s' without "
                        "an `// order-insensitive:` justification (hash "
                        "order must not reach rendered bytes)"
                        % head.group(1)))
    return findings


def collect_sources(paths):
    sources = []
    for path in paths:
        if os.path.isfile(path):
            sources.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                    sources.append(os.path.join(root, name))
    return sources


def lint(paths):
    findings = []
    for path in collect_sources(paths):
        findings.extend(lint_file(path))
    return findings


# --- fixture self-test -------------------------------------------------------

# Every rule must trip on its positive fixture and stay silent on the
# negative one; see tools/lint/fixtures/.
EXPECTED_FIXTURES = {
    "bad_unordered_iter.cpp": {"unordered-iteration"},
    "bad_clock.cpp": {"naked-clock"},
    "bad_random.cpp": {"raw-random"},
    "bad_relaxed.cpp": {"relaxed-comment"},
    "bad_stdout.cpp": {"stdout-library"},
    "good_clean.cpp": set(),
}


def self_test():
    fixtures_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "fixtures")
    failures = []
    for name, expected_rules in sorted(EXPECTED_FIXTURES.items()):
        path = os.path.join(fixtures_dir, name)
        if not os.path.isfile(path):
            failures.append("missing fixture: %s" % path)
            continue
        rules = {finding.rule for finding in lint_file(path)}
        if rules != expected_rules:
            failures.append(
                "%s: expected rules %s, got %s" %
                (name, sorted(expected_rules) or "none",
                 sorted(rules) or "none"))
    for failure in failures:
        print("self-test FAIL: %s" % failure, file=sys.stderr)
    if not failures:
        print("self-test: %d fixtures OK" % len(EXPECTED_FIXTURES))
    return not failures


def main(argv):
    args = argv[1:]
    run_self_test = False
    if "--self-test" in args:
        run_self_test = True
        args = [a for a in args if a != "--self-test"]
    for arg in args:
        if arg.startswith("-"):
            print(__doc__, file=sys.stderr)
            return 2

    ok = True
    if run_self_test:
        ok = self_test()

    paths = args
    if not paths and not run_self_test:
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))), "src")
        paths = [repo_src]
    if paths:
        findings = lint(paths)
        for finding in findings:
            print(finding)
        if findings:
            print("%d finding(s)" % len(findings), file=sys.stderr)
            ok = False
        else:
            print("lint: clean (%d files)" % len(collect_sources(paths)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
