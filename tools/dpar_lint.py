#!/usr/bin/env python3
"""dpar-lint — determinism-contract static analysis for the DualPar tree.

The whole reproduction rests on one invariant: every figure/table bench is
byte-identical across runs, machines, and DPAR_JOBS settings. This linter
enforces the constructs that contract bans (see DESIGN.md "Determinism
contract"):

  wall-clock      Wall-clock time sources: std::chrono::system_clock,
                  time(NULL)/std::time, gettimeofday, clock_gettime,
                  localtime/gmtime. Simulated time comes from sim::Engine;
                  *monotonic* steady_clock is permitted because it only feeds
                  the perf-accounting side channel, never simulator state.
  raw-random      rand()/srand(), std::random_device, std::mt19937 and
                  friends. All randomness must come from sim::Rng
                  (xoshiro256**, seeded, byte-stable across platforms).
  unordered-iter  Iteration over std::unordered_{map,set,multimap,multiset}.
                  Hash-table walk order is an implementation detail that can
                  silently leak into metrics/bench/CSV emission. Point
                  lookups (find/count/[]/erase-by-key) are fine; walks must
                  be proven order-independent and annotated, or replaced by
                  sort-before-emit / flat sorted vectors.
  pointer-key     std::map/std::set keyed on raw pointers (and pointer-keyed
                  unordered maps that are later iterated). Pointer order is
                  allocator order — different every run under ASLR.
  uninit-config   Scalar POD members of *Config/*Params structs without an
                  initializer. An uninitialized parameter silently picks up
                  stack garbage and changes results run to run.
  event-queue     std::priority_queue / make_heap / push_heap / pop_heap in
                  src/. Hand-rolled timer queues bypass the engine's tiered
                  event queue (sim::EventQueue): cancels degrade to O(n) and
                  the (time, seq) total order the byte-identical-output
                  contract rests on is easy to get subtly wrong. Schedule
                  through sim::Engine; the engine's own queue files are
                  exempt. (bench/ is out of scope — the frozen LegacyEngine
                  baseline in bench_micro keeps its priority_queue.)

  stale-allow     A `dpar-lint: allow(<rule>)` comment that suppresses no
                  finding. Allows rot: the offending line gets refactored
                  away and the suppression lingers, silently masking the
                  next real violation at that site. Every allow must still
                  be load-bearing; remove it (or re-justify it against the
                  line it now covers) when the code it excused is gone.
                  Allows naming rules this linter does not own are skipped,
                  not flagged: the comment namespace is shared across tools.

Escape hatch: a finding is suppressed by `dpar-lint: allow(<rule>)` in a
comment on the offending line or in the contiguous //-comment block directly
above it. Every allow is expected to carry a justification.

Modes:
  dpar_lint.py [paths...]      lint files/directories (default: src bench
                               tests examples, relative to --root)
  dpar_lint.py --self-test     run the golden fixture corpus under
                               tools/lint_fixtures/ (bad.cpp must produce
                               exactly its `// expect(rule)` findings,
                               good.cpp must produce none)
  dpar_lint.py --use-libclang  additionally resolve range-for loops through
                               libclang for exact types (optional: falls
                               back to the regex engine with a note when
                               python clang bindings are not installed)

Exit status: 0 clean, 1 findings, 2 usage/self-test harness error.
"""

import argparse
import os
import re
import sys

RULES = {
    "wall-clock": "wall-clock time source (use sim::Engine::now(); "
                  "steady_clock is allowed for perf accounting only)",
    "raw-random": "raw randomness outside sim::rng (use sim::Rng)",
    "unordered-iter": "iteration over a std::unordered_* container "
                      "(hash order can leak into deterministic output)",
    "pointer-key": "pointer-keyed ordered container (pointer order is "
                   "allocator order, different every run)",
    "uninit-config": "uninitialized POD member in a *Config/*Params struct",
    "event-queue": "hand-rolled heap/priority-queue in src/ "
                   "(schedule through sim::Engine / sim::EventQueue)",
    "stale-allow": "dpar-lint: allow() comment that suppresses no finding "
                   "(remove it or re-justify it)",
}

# Files exempt from a rule (relative to the repo root, forward slashes).
RULE_EXEMPT_FILES = {
    "raw-random": {"src/sim/rng.hpp"},
    # The engine's own queue layer is the one sanctioned home for heap
    # primitives: the tiered queue's front heap and the frozen differential
    # oracle.
    "event-queue": {
        "src/sim/event_queue.hpp",
        "src/sim/event_queue.cpp",
        "src/sim/queue_reference.cpp",
    },
}

# Files where a rule applies at all (relative to the repo root). Entries
# ending in "/" are directory prefixes; the rest are exact paths. Rules not
# listed here apply everywhere. The fixtures are listed so the self-test
# corpus exercises each scoped rule.
RULE_ONLY_FILES = {
    # event-queue only polices the simulator tree: bench/ keeps its frozen
    # LegacyEngine priority_queue baseline, and tests may build ad-hoc heaps
    # as oracles.
    "event-queue": {
        "src/",
        "tools/lint_fixtures/bad.cpp",
        "tools/lint_fixtures/good.cpp",
    },
}


def rule_in_scope(rule, rel):
    """True when `rule` applies to file `rel`: not scoped at all, listed
    exactly, or under a listed directory prefix (entries ending in '/')."""
    if rule not in RULE_ONLY_FILES:
        return True
    scope = RULE_ONLY_FILES[rule]
    return rel in scope or any(
        rel.startswith(p) for p in scope if p.endswith("/"))

SOURCE_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")
DEFAULT_SCAN_DIRS = ("src", "bench", "tests", "examples")

ALLOW_RE = re.compile(r"dpar-lint:\s*allow\(\s*([\w-]+)\s*\)")
EXPECT_RE = re.compile(r"//\s*expect\(\s*([\w-]+)\s*\)")
LINE_COMMENT_RE = re.compile(r"^\s*//")

WALL_CLOCK_PATTERNS = [
    re.compile(r"std\s*::\s*chrono\s*::\s*system_clock"),
    re.compile(r"\bgettimeofday\s*\("),
    re.compile(r"\bclock_gettime\s*\("),
    re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0|&)"),
    re.compile(r"\bstd\s*::\s*time\s*\("),
    re.compile(r"\b(?:localtime|gmtime|mktime)(?:_r)?\s*\("),
]

RAW_RANDOM_PATTERNS = [
    re.compile(r"(?<![\w:])s?rand\s*\(\s*\)"),
    re.compile(r"(?<![\w:])srand\s*\("),
    re.compile(r"\brandom_device\b"),
    re.compile(r"\bmt19937(?:_64)?\b"),
    re.compile(r"\bminstd_rand0?\b"),
    re.compile(r"\branlux(?:24|48)\b"),
    re.compile(r"\barc4random\b"),
    re.compile(r"\bdefault_random_engine\b"),
]

# Declaration of a std::unordered_* variable/member. The template argument
# list may span lines; [^;{}()] keeps the match inside one declaration and
# rejects function signatures. Captures the declared name.
UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s*"
    r"(\w+)\s*[;={]",
    re.DOTALL,
)

# Pointer-keyed ordered containers: std::map<T*, ...> / std::set<T*>.
# A custom comparator does not rescue the ordering (it still usually compares
# the pointers), so any pointer key needs an explicit allow + justification.
POINTER_KEY_RE = re.compile(
    r"std\s*::\s*(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+"
    r"(?:\s*<[^<>]*>)?\s*\*",
)

# Scalar member without an initializer inside a Config/Params struct, e.g.
# `std::uint64_t chunk_bytes;`. Arrays, references, functions are excluded by
# requiring `name;` directly after the type.
POD_TYPES = (
    r"(?:std\s*::\s*)?(?:u?int(?:8|16|32|64)?_t|size_t|ptrdiff_t|uint_fast\d+_t)"
    r"|double|float|bool|(?:unsigned\s+)?(?:int|long|short|char)(?:\s+long)?"
    r"|sim\s*::\s*Time|net\s*::\s*NodeId|pfs\s*::\s*FileId"
)
UNINIT_MEMBER_RE = re.compile(
    r"^\s*(?:" + POD_TYPES + r")\s+(\w+)\s*;\s*(?://.*)?$"
)
CONFIG_STRUCT_RE = re.compile(r"\bstruct\s+(\w*(?:Config|Params))\b")

# Heap primitives outside the engine's queue layer: the container adapter and
# the <algorithm> heap family (std-qualified or ADL-bare with iterator args).
EVENT_QUEUE_PATTERNS = [
    re.compile(r"\bstd\s*::\s*priority_queue\b"),
    re.compile(r"(?:\bstd\s*::\s*|(?<![\w:]))(?:make|push|pop|sort)_heap\s*\("),
]


class Finding:
    def __init__(self, path, line, rule, detail):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.detail}"


def strip_strings_and_comments(line):
    """Blank out string/char literals and // comments so patterns never match
    inside them. Keeps column positions stable."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            out.append(" " * (n - i))
            break
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(" ")
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def allowed(lines, idx, rule):
    """0-based line index of the `dpar-lint: allow(rule)` comment covering
    line idx — the line itself or the contiguous //-comment block directly
    above it — or None when the finding is not suppressed. (Truthiness is a
    trap here: index 0 is a valid answer. Compare against None.)"""
    m = ALLOW_RE.search(lines[idx])
    if m and m.group(1) == rule:
        return idx
    j = idx - 1
    while j >= 0 and LINE_COMMENT_RE.match(lines[j]):
        m = ALLOW_RE.search(lines[j])
        if m and m.group(1) == rule:
            return j
        j -= 1
    return None


def collect_unordered_names(text):
    """Names declared with a std::unordered_* type anywhere in `text`."""
    return {m.group(1) for m in UNORDERED_DECL_RE.finditer(text)}


def iteration_patterns(name):
    """Compile the iteration forms over container `name` the linter flags:
    range-for, explicit iterator walks, and iterator-pair algorithms."""
    escaped = re.escape(name)
    return [
        # for (auto& kv : name)
        re.compile(r"for\s*\([^;()]*:\s*(?:\w+(?:\.|->))?" + escaped + r"\s*\)"),
        # name.begin() / name.cbegin() / name.end() as an iteration anchor
        re.compile(r"\b" + escaped + r"\s*\.\s*c?begin\s*\("),
    ]


def lint_file(path, rel, text, project_unordered, use_libclang=False):
    findings = []
    lines = text.split("\n")
    clean = [strip_strings_and_comments(l) for l in lines]
    # (allow_line_idx, rule) pairs whose allow() suppressed a finding this
    # pass — everything else carrying a known rule name is stale.
    used_allows = set()

    def emit(idx, rule, detail):
        if rel in RULE_EXEMPT_FILES.get(rule, ()):
            return
        if not rule_in_scope(rule, rel):
            return
        a = allowed(lines, idx, rule)
        if a is not None:
            used_allows.add((a, rule))
            return
        findings.append(Finding(rel, idx + 1, rule, detail))

    # wall-clock + raw-random + event-queue: line-local patterns.
    for idx, line in enumerate(clean):
        for pat in WALL_CLOCK_PATTERNS:
            if pat.search(line):
                emit(idx, "wall-clock", RULES["wall-clock"])
                break
        for pat in RAW_RANDOM_PATTERNS:
            if pat.search(line):
                emit(idx, "raw-random", RULES["raw-random"])
                break
        for pat in EVENT_QUEUE_PATTERNS:
            if pat.search(line):
                emit(idx, "event-queue", RULES["event-queue"])
                break

    # pointer-key: declarations may span lines; report at the declaration's
    # first line.
    clean_text = "\n".join(clean)
    for m in POINTER_KEY_RE.finditer(clean_text):
        idx = clean_text.count("\n", 0, m.start())
        emit(idx, "pointer-key", RULES["pointer-key"])

    # unordered-iter: iteration over any name declared unordered in this file
    # or anywhere else in the project (members declared in headers are walked
    # from .cpp files).
    local = collect_unordered_names(clean_text)
    names = local | project_unordered
    hazard_patterns = [(n, p) for n in sorted(names) for p in iteration_patterns(n)]
    for idx, line in enumerate(clean):
        seen = set()
        for name, pat in hazard_patterns:
            if name in seen:
                continue
            if pat.search(line):
                seen.add(name)
                emit(idx, "unordered-iter",
                     f"iteration over std::unordered_* container '{name}' "
                     "(hash order can leak into deterministic output)")

    # Range-for directly over an unordered-typed temporary/expression is
    # caught by the libclang pass when available.
    if use_libclang:
        findings.extend(libclang_range_for_findings(path, rel, lines,
                                                    used_allows))

    # uninit-config: walk struct blocks named *Config/*Params.
    depth = 0
    in_struct_depth = None
    for idx, line in enumerate(clean):
        if in_struct_depth is None and CONFIG_STRUCT_RE.search(line):
            # Struct body may open on this line or a later one.
            in_struct_depth = depth + 1 if "{" in line else -1
        if in_struct_depth == -1 and "{" in line:
            in_struct_depth = depth + 1
        depth += line.count("{") - line.count("}")
        if in_struct_depth is not None and in_struct_depth != -1:
            if depth < in_struct_depth:
                in_struct_depth = None
                continue
            if depth == in_struct_depth:
                m = UNINIT_MEMBER_RE.match(clean[idx])
                if m and "operator" not in line and "(" not in line:
                    emit(idx, "uninit-config",
                         f"member '{m.group(1)}' of a Config/Params struct "
                         "has no initializer")

    # stale-allow: runs last, once every other rule has recorded which
    # allow() comments it actually leaned on. Rule names this linter does not
    # own (dpar_analyze's families share the comment namespace) and rules out
    # of scope / exempt for this file are skipped, never flagged.
    for idx, line in enumerate(lines):
        for m in ALLOW_RE.finditer(line):
            rule = m.group(1)
            if rule not in RULES or rule == "stale-allow":
                continue
            if rel in RULE_EXEMPT_FILES.get(rule, ()):
                continue
            if not rule_in_scope(rule, rel):
                continue
            if (idx, rule) not in used_allows:
                emit(idx, "stale-allow",
                     f"allow({rule}) suppresses no [{rule}] finding "
                     "(remove it, or move it back onto the offending line)")
    return findings


def libclang_range_for_findings(path, rel, lines, used_allows=None):
    """AST pass: flag range-for statements whose range expression has an
    unordered container type. Requires python clang bindings + libclang;
    silently skipped (with a note once) when unavailable. Allows that
    suppress an AST finding are recorded in `used_allows` so the stale-allow
    pass does not flag them."""
    cursor_kind, index = _libclang_handle()
    if index is None:
        return []
    try:
        tu = index.parse(path, args=["-std=c++20", "-I", "src"])
    except Exception:
        return []
    found = []
    def walk(node):
        if node.kind == cursor_kind.CXX_FOR_RANGE_STMT:
            children = list(node.get_children())
            if children:
                t = children[0].type.get_canonical().spelling
                if "unordered_" in t and node.location.file and \
                        os.path.samefile(node.location.file.name, path):
                    idx = node.location.line - 1
                    if 0 <= idx < len(lines):
                        a = allowed(lines, idx, "unordered-iter")
                        if a is not None:
                            if used_allows is not None:
                                used_allows.add((a, "unordered-iter"))
                        else:
                            found.append(Finding(
                                rel, node.location.line, "unordered-iter",
                                f"range-for over unordered type '{t}' "
                                "(libclang)"))
        for c in node.get_children():
            walk(c)
    walk(tu.cursor)
    return found


_LIBCLANG = None


def _libclang_handle():
    global _LIBCLANG
    if _LIBCLANG is None:
        try:
            from clang.cindex import CursorKind, Index  # type: ignore
            _LIBCLANG = (CursorKind, Index.create())
        except Exception as e:  # ImportError or missing libclang.so
            print(f"note: libclang unavailable ({e.__class__.__name__}); "
                  "regex engine only", file=sys.stderr)
            _LIBCLANG = (None, None)
    return _LIBCLANG


def gather_files(root, paths):
    files = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isdir(full):
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(dirpath, fn))
        elif os.path.isfile(full):
            files.append(full)
        else:
            raise SystemExit(f"dpar-lint: no such file or directory: {p}")
    return files


def run_lint(root, paths, use_libclang):
    files = gather_files(root, paths)
    texts = {}
    project_unordered = set()
    for f in files:
        with open(f, encoding="utf-8", errors="replace") as fh:
            texts[f] = fh.read()
        project_unordered |= collect_unordered_names(
            "\n".join(strip_strings_and_comments(l)
                      for l in texts[f].split("\n")))
    findings = []
    for f in files:
        rel = os.path.relpath(f, root).replace(os.sep, "/")
        findings.extend(lint_file(f, rel, texts[f], project_unordered,
                                  use_libclang))
    return findings


def self_test(root, use_libclang):
    """Golden corpus: bad.cpp's findings must match its `// expect(rule)`
    annotations exactly (same line, same rule); good.cpp must be clean."""
    fixtures = os.path.join(root, "tools", "lint_fixtures")
    bad = os.path.join(fixtures, "bad.cpp")
    good = os.path.join(fixtures, "good.cpp")
    for f in (bad, good):
        if not os.path.isfile(f):
            print(f"self-test: missing fixture {f}", file=sys.stderr)
            return 2
    ok = True

    with open(bad, encoding="utf-8") as fh:
        bad_lines = fh.read().split("\n")
    expected = set()
    for idx, line in enumerate(bad_lines):
        for m in EXPECT_RE.finditer(line):
            expected.add((idx + 1, m.group(1)))
    if not expected:
        print("self-test: bad.cpp has no expect() annotations", file=sys.stderr)
        return 2
    got = {(f.line, f.rule)
           for f in run_lint(root, [os.path.relpath(bad, root)], use_libclang)}
    for miss in sorted(expected - got):
        print(f"self-test: bad.cpp:{miss[0]} expected [{miss[1]}] "
              "but the linter stayed silent", file=sys.stderr)
        ok = False
    for extra in sorted(got - expected):
        print(f"self-test: bad.cpp:{extra[0]} unexpected [{extra[1]}]",
              file=sys.stderr)
        ok = False

    good_findings = run_lint(root, [os.path.relpath(good, root)], use_libclang)
    for f in good_findings:
        print(f"self-test: good.cpp should be clean, got: {f}", file=sys.stderr)
        ok = False

    print("self-test: " + ("PASS" if ok else "FAIL")
          + f" ({len(expected)} seeded violations, "
            f"{len(good_findings)} false positives)")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description="determinism-contract linter (see module docstring)")
    ap.add_argument("paths", nargs="*",
                    help=f"files/dirs to lint (default: {' '.join(DEFAULT_SCAN_DIRS)})")
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repo root (default: parent of this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the golden fixture corpus")
    ap.add_argument("--use-libclang", action="store_true",
                    help="enable the libclang AST pass when available")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:<15} {desc}")
        return 0
    if args.self_test:
        return self_test(args.root, args.use_libclang)

    paths = args.paths or [d for d in DEFAULT_SCAN_DIRS
                           if os.path.isdir(os.path.join(args.root, d))]
    findings = run_lint(args.root, paths, args.use_libclang)
    for f in findings:
        print(f)
    n_files = len(gather_files(args.root, paths))
    if findings:
        print(f"dpar-lint: {len(findings)} finding(s) in {n_files} file(s)",
              file=sys.stderr)
        return 1
    print(f"dpar-lint: clean ({n_files} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
