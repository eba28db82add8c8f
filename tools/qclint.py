#!/usr/bin/env python3
"""qclint: enforce the repo's determinism & durability invariants.

The sweep/hoard stack promises byte-identical output across thread
counts, store re-runs, and several processes sharing one store, and
crash-safe store/claim files. Those guarantees are easy to
break with one innocent-looking line — a wall-clock read in a result
path, an unordered-container iteration feeding serialized output, a
plain ofstream onto a durable path. This linter scans `src/` and
`tools/` for the known footguns.

Rules (each waivable, see below):

  wall-clock    rand()/srand()/time()/gettimeofday/system_clock
                outside the clock seam (src/common/Clock.*). All
                randomness goes through qc::Rng (seeded, counted)
                and all wall-clock reads through qc::WallClock so
                tests can install a fake clock. steady_clock is
                fine: it measures intervals, not wall time.

  unordered-iteration
                Range-for over a std::unordered_map/unordered_set
                declared in the same file. Unordered iteration
                order varies across libstdc++ versions and hash
                seeds; anything it feeds into serialized output
                breaks byte-identity. Iterate a sorted view or use
                qc::Json's insertion-ordered objects instead.

  raw-io        ofstream / fopen / rename / open() in src/sweep or
                src/hoard outside DurableFile, the lease primitive
                (src/hoard/Lease.cc) and the hoard commit path
                (src/hoard/HoardStore.cc, whose renames are the
                quarantine moves the durable publish pattern
                requires). Document, claim and hoard-object files
                must be written through writeFileDurable / Lease
                so a kill cannot leave a torn file.

  raw-exit      _exit/_Exit outside src/hoard/FaultInjector.cc.
                Process death is the fault injector's job; anywhere
                else it skips destructors, flushes and the drain
                protocol.

  locale-float  stod / strtod / atof / setprecision / .precision(
                in the Json number paths (src/api/Json.*). Number
                emit/parse must use std::to_chars/from_chars so a
                host locale with ',' decimal points cannot change
                serialized bytes.

  simd-seam     intrinsics headers (immintrin.h / x86intrin.h /
                arm_neon.h) or __builtin_cpu_supports outside the
                dispatch seam (src/common/simd/SimdDispatch.cc).
                Engine code widens through the portable SimdOps
                vector-extension types; CPU-feature queries live in
                the one TU whose ISA requirements CMake keeps in
                sync with the per-width engine files, so a forced
                width can fail loudly instead of hitting SIGILL.

  module-layering
                `#include "<module>/..."` edges must follow the
                DAG declared in tools/layers.json: each module
                lists the modules it may include, transitively.
                The declared graph is cycle-checked on load (a
                cyclic layers.json is a config error, exit 2).

  parse-robustness
                .at( / asInt( in src/hoard. The fromJson-style
                entry points on the claim (lease) and hoard
                commit/fetch paths parse bytes other processes
                wrote; they must use the bounds-checked accessors
                (Json::find, asIndex, kind checks) that reject
                malformed input as "ignore this file".
                at()/asInt() throw, and an exception escaping a
                reject-whole parser turns a corrupt file into a
                crashed sweep.

Waivers: a finding is suppressed by a comment on the same line or
the line directly above it:

    // qclint: allow(<rule>): <justification>

The justification is mandatory — a waiver without one is itself a
finding (`bad-waiver`), so every exception in the tree documents
why it is safe.

Self-test: `qclint.py --self-test` runs the rules over the fixture
files in tests/lint_fixtures/. Each fixture declares the virtual
repo path to lint it as and the findings it expects:

    // qclint-fixture: path=src/hoard/Example.cc
    // qclint-fixture: expect=raw-io:9, wall-clock:12   (or: clean)

Exit codes: 0 clean / self-test passed, 1 findings / self-test
failed, 2 usage or I/O error.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------
# Rule table.
# --------------------------------------------------------------

# Matches "// qclint: allow(rule): justification". Group 1 = rule,
# group 2 = justification (possibly empty -> bad-waiver).
WAIVER_RE = re.compile(
    r"//\s*qclint:\s*allow\(([a-z-]+)\)\s*(?::\s*(.*?))?\s*$"
)

FIXTURE_RE = re.compile(r"//\s*qclint-fixture:\s*(\w+)=(.*?)\s*$")

# Strings are stripped before matching so `"time(0)"` in a message
# or a path literal cannot fire a rule; comments are kept so
# fixtures can't accidentally hide patterns, but every pattern
# below only matches code-shaped text.
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


class Rule:
    def __init__(self, name, pattern, dirs, whitelist, why):
        self.name = name
        self.pattern = (
            re.compile(pattern) if pattern is not None else None
        )
        # Path prefixes (relative, '/'-separated) the rule applies
        # to; None means the whole scanned tree.
        self.dirs = dirs
        # Exact relative paths exempt from the rule (the blessed
        # implementation seam the rule funnels everyone through).
        self.whitelist = set(whitelist)
        self.why = why

    def applies_to(self, path):
        if path in self.whitelist:
            return False
        if self.dirs is None:
            return True
        return any(path.startswith(d) for d in self.dirs)


RULES = [
    Rule(
        "wall-clock",
        r"(?:\bsrand\s*\(|\brand\s*\(\s*\)|\bgettimeofday\b"
        r"|system_clock\b|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\))",
        None,
        ["src/common/Clock.cc", "src/common/Clock.hh"],
        "wall-clock/ambient randomness outside the qc::WallClock / "
        "qc::Rng seams breaks reproducibility and fake-clock tests",
    ),
    Rule(
        "unordered-iteration",
        None,  # handled specially: needs the declaration pass
        None,
        [],
        "unordered container iteration order is not stable across "
        "hosts; it must not feed serialized output",
    ),
    Rule(
        "raw-io",
        r"(?:\bofstream\b|\bfopen\s*\(|\brename\s*\(|\bopen\s*\(\s*\w"
        r"|\bcreat\s*\()",
        ["src/sweep/", "src/hoard/"],
        ["src/hoard/Lease.cc", "src/hoard/HoardStore.cc"],
        "document/claim/hoard-object files must go through "
        "writeFileDurable, the Lease primitive or the hoard commit "
        "path so a crash cannot leave a torn file",
    ),
    Rule(
        "raw-exit",
        r"(?:\b_exit\s*\(|\b_Exit\s*\()",
        None,
        ["src/hoard/FaultInjector.cc"],
        "abrupt process death outside the fault injector skips "
        "flushes and the drain protocol",
    ),
    Rule(
        "locale-float",
        r"(?:\bstod\s*\(|\bstrtod\s*\(|\batof\s*\(|\bsetprecision\b"
        r"|\.precision\s*\()",
        ["src/api/Json"],
        [],
        "locale-dependent float formatting changes serialized "
        "bytes; use std::to_chars/std::from_chars",
    ),
    Rule(
        "simd-seam",
        r"(?:\bimmintrin\.h\b|\bx86intrin\.h\b|\barm_neon\.h\b"
        r"|\b__builtin_cpu_supports\b)",
        None,
        ["src/common/simd/SimdDispatch.cc"],
        "intrinsics headers and CPU-feature queries belong to the "
        "SIMD dispatch seam (src/common/simd/SimdDispatch.cc); "
        "engine code uses the portable SimdOps types so every "
        "width stays bit-identical and buildable everywhere",
    ),
    Rule(
        "module-layering",
        None,  # handled specially: needs tools/layers.json
        None,
        [],
        "cross-module includes must follow the DAG declared in "
        "tools/layers.json",
    ),
    Rule(
        "parse-robustness",
        r"(?:\.at\s*\(|\basInt\s*\()",
        ["src/hoard/"],
        [],
        "commit/fetch-path parsers read bytes other processes "
        "wrote; use the bounds-checked Json::find/asIndex "
        "accessors — at()/asInt() throw, which escapes the "
        "reject-whole fromJson contract",
    ),
]

# Matched against the raw line (not the string-stripped form the
# pattern rules see — stripping would eat the include path itself).
MODULE_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([a-z]+)/')

# Loaded from tools/layers.json by load_layers(); None until then
# (and in that state the module-layering rule is inert, which keeps
# unit-style callers of lint_lines working without a repo root).
LAYERS = None


def path_module(path):
    """Map a scanned relative path to its module name, or None."""
    if path.startswith("tools/"):
        return "tools"
    parts = path.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def load_layers(root):
    """Parse tools/layers.json into the LAYERS global.

    Validates the declared module graph: every edge target must be
    a declared module and the graph must be acyclic. Any violation
    is a configuration error (exit 2) — the layering contract
    itself must never be in a broken state.
    """
    global LAYERS
    path = os.path.join(root, "tools", "layers.json")

    def die(message):
        print("qclint: %s: %s" % (path, message), file=sys.stderr)
        sys.exit(2)

    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot load: %s" % e)
    modules = data.get("modules")
    if not isinstance(modules, dict) or not modules:
        die("missing or empty `modules` table")
    for mod, deps in modules.items():
        for dep in deps:
            if dep not in modules:
                die("module `%s` allows unknown module `%s`"
                    % (mod, dep))

    # Depth-first cycle check + transitive closure in one walk.
    closure = {}

    def close(mod, trail):
        if mod in closure:
            return closure[mod]
        if mod in trail:
            cycle = trail[trail.index(mod):] + [mod]
            die("declared layering contains a cycle: %s"
                % " -> ".join(cycle))
        reach = set()
        for dep in modules[mod]:
            reach.add(dep)
            reach |= close(dep, trail + [mod])
        closure[mod] = reach
        return reach

    for mod in sorted(modules):
        close(mod, [])

    LAYERS = {"modules": modules, "closure": closure}


UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+"
    r"(\w+)\s*[;{(=]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*?:\s*(\w+)\s*\)")


class Finding:
    def __init__(self, path, line, rule, text):
        self.path = path
        self.line = line
        self.rule = rule
        self.text = text

    def __str__(self):
        return "%s:%d: [%s] %s" % (
            self.path,
            self.line,
            self.rule,
            self.text.strip(),
        )


def parse_waivers(lines):
    """Map line number -> (rule, justification-or-None)."""
    waivers = {}
    for i, line in enumerate(lines, start=1):
        m = WAIVER_RE.search(line)
        if m:
            waivers[i] = (m.group(1), m.group(2) or "")
    return waivers


def lint_lines(path, lines):
    """Run every applicable rule over one file's lines."""
    findings = []
    waivers = parse_waivers(lines)
    used = set()

    def waived(lineno, rule):
        for at in (lineno, lineno - 1):
            w = waivers.get(at)
            if w and w[0] == rule:
                used.add(at)
                if not w[1]:
                    findings.append(
                        Finding(
                            path,
                            at,
                            "bad-waiver",
                            "waiver for '%s' has no justification "
                            "(write `// qclint: allow(%s): <why>`)"
                            % (rule, rule),
                        )
                    )
                return True
        return False

    # Pass 1: collect names of unordered containers declared in
    # this file, for the iteration rule.
    unordered_rule = next(
        r for r in RULES if r.name == "unordered-iteration"
    )
    unordered_names = set()
    if unordered_rule.applies_to(path):
        for line in lines:
            code = STRING_RE.sub('""', line)
            for m in UNORDERED_DECL_RE.finditer(code):
                unordered_names.add(m.group(1))

    # Layering context for this file (None disables the rule: no
    # layers.json loaded, or the path is outside any module).
    file_module = path_module(path)
    layer_reach = None
    if LAYERS is not None and file_module in LAYERS["closure"]:
        layer_reach = LAYERS["closure"][file_module]

    def layering_finding(i, line):
        m = MODULE_INCLUDE_RE.match(line)
        if not m:
            return None
        target = m.group(1)
        if (
            target == file_module
            or target not in LAYERS["modules"]
            or target in layer_reach
        ):
            return None
        if waived(i, "module-layering"):
            return None
        return Finding(
            path,
            i,
            "module-layering",
            "module `%s` may not include `%s/` (allowed: %s); add "
            "the edge to tools/layers.json"
            % (
                file_module,
                target,
                ", ".join(sorted(layer_reach)) or "nothing",
            ),
        )

    # Pass 2: per-line pattern rules.
    for i, line in enumerate(lines, start=1):
        if layer_reach is not None:
            f = layering_finding(i, line)
            if f:
                findings.append(f)
        code = STRING_RE.sub('""', line)
        stripped = code.lstrip()
        if stripped.startswith("//") or stripped.startswith("*"):
            continue
        for rule in RULES:
            if rule.pattern is None or not rule.applies_to(path):
                continue
            m = rule.pattern.search(code)
            if m and not waived(i, rule.name):
                findings.append(
                    Finding(
                        path,
                        i,
                        rule.name,
                        "`%s`: %s" % (m.group(0).strip(), rule.why),
                    )
                )
        if unordered_names and unordered_rule.applies_to(path):
            m = RANGE_FOR_RE.search(code)
            if (
                m
                and m.group(1) in unordered_names
                and not waived(i, "unordered-iteration")
            ):
                findings.append(
                    Finding(
                        path,
                        i,
                        "unordered-iteration",
                        "range-for over unordered container `%s`: %s"
                        % (m.group(1), unordered_rule.why),
                    )
                )

    # Unused waivers rot: they advertise an exception that no
    # longer exists and mask the rule if the pattern comes back in
    # a different spot.
    for at, (rule, _) in sorted(waivers.items()):
        if at not in used:
            findings.append(
                Finding(
                    path,
                    at,
                    "bad-waiver",
                    "waiver for '%s' matches no finding on this or "
                    "the next line; delete it" % rule,
                )
            )
    return findings


def lint_file(root, relpath):
    try:
        with open(
            os.path.join(root, relpath), encoding="utf-8"
        ) as f:
            lines = f.read().splitlines()
    except OSError as e:
        print("qclint: cannot read %s: %s" % (relpath, e), file=sys.stderr)
        sys.exit(2)
    return lint_lines(relpath.replace(os.sep, "/"), lines)


def scanned_files(root):
    for top in ("src", "tools"):
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith((".cc", ".hh", ".cpp", ".hpp")):
                    yield os.path.relpath(
                        os.path.join(dirpath, name), root
                    )


# --------------------------------------------------------------
# Self-test over tests/lint_fixtures/.
# --------------------------------------------------------------


def parse_fixture(lines):
    """Return (virtual_path, expected set of 'rule:line')."""
    path, expect = None, None
    for line in lines:
        m = FIXTURE_RE.search(line)
        if not m:
            continue
        key, value = m.group(1), m.group(2)
        if key == "path":
            path = value
        elif key == "expect":
            expect = set()
            if value.strip() != "clean":
                for token in re.split(r"[,\s]+", value.strip()):
                    if token:
                        expect.add(token)
    return path, expect


def self_test(root):
    fixtures_dir = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixtures_dir):
        print("qclint: missing %s" % fixtures_dir, file=sys.stderr)
        return 2
    names = sorted(
        n for n in os.listdir(fixtures_dir) if n.endswith(".cc")
    )
    if not names:
        print("qclint: no fixtures found", file=sys.stderr)
        return 2
    failures = 0
    for name in names:
        with open(
            os.path.join(fixtures_dir, name), encoding="utf-8"
        ) as f:
            lines = f.read().splitlines()
        vpath, expect = parse_fixture(lines)
        if vpath is None or expect is None:
            print(
                "FAIL %s: missing `// qclint-fixture: path=` or "
                "`expect=` header" % name
            )
            failures += 1
            continue
        got = {
            "%s:%d" % (f.rule, f.line)
            for f in lint_lines(vpath, lines)
        }
        if got == expect:
            print("ok   %s (%d findings)" % (name, len(got)))
        else:
            failures += 1
            print("FAIL %s (as %s)" % (name, vpath))
            for item in sorted(expect - got):
                print("  missing expected %s" % item)
            for item in sorted(got - expect):
                print("  unexpected       %s" % item)
    print(
        "qclint self-test: %d/%d fixtures passed"
        % (len(names) - failures, len(names))
    )
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Lint src/ and tools/ for determinism and "
        "durability invariant violations."
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ),
        help="repository root (default: the parent of tools/)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the rules over tests/lint_fixtures/ and check "
        "each fixture's expected findings",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print("%-20s %s" % (rule.name, rule.why))
            for path in sorted(rule.whitelist):
                print("%-20s   whitelisted: %s" % ("", path))
        return 0

    load_layers(args.root)

    if args.self_test:
        return self_test(args.root)

    findings = []
    count = 0
    for relpath in scanned_files(args.root):
        count += 1
        findings.extend(lint_file(args.root, relpath))
    for finding in findings:
        print(finding)
    if findings:
        print(
            "qclint: %d finding(s) in %d files scanned"
            % (len(findings), count)
        )
        return 1
    print("qclint: clean (%d files scanned)" % count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
