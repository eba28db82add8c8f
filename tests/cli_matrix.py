#!/usr/bin/env python3
"""Table-driven audit of qcarch's command-line contract.

Every bad invocation — unknown command, unknown subcommand, unknown
flag, missing option value, malformed numeric value, wrong
positional count — must exit 2 and print a one-line usage pointer
on stderr. Well-formed commands whose *input* is bad (unreadable
file, a hoard DIR that holds no store) keep exit 1; this is the
boundary the CLI's header documents and the sweep wrappers in CI
rely on to tell "retry with a fixed file" from "fix the script".
Every case runs in an empty directory, which must stay empty: a
failed command leaves nothing behind.

Usage: cli_matrix.py <path-to-qcarch>
"""

import os
import subprocess
import sys
import tempfile

USAGE_LINE = "usage: qcarch"

# (description, argv-after-binary, expected-exit, expect-usage-line
#  [, text stderr must contain])
CASES = [
    ("no command at all", [], 2, True),
    ("unknown command", ["frobnicate"], 2, True),
    ("unknown command resembling a flag", ["--threads"], 2, True),
    ("run with no config", ["run"], 2, True),
    ("run with two configs", ["run", "a.json", "b.json"], 2, True),
    ("run with unknown flag", ["run", "a.json", "--format", "csv"],
     2, True),
    ("sweep with no spec", ["sweep"], 2, True),
    ("sweep with misspelled flag",
     ["sweep", "spec.json", "--thread", "4"], 2, True),
    ("sweep --threads missing value",
     ["sweep", "spec.json", "--threads"], 2, True),
    ("sweep --threads non-numeric",
     ["sweep", "spec.json", "--threads", "four"], 2, True),
    ("sweep --threads trailing junk",
     ["sweep", "spec.json", "--threads", "4x"], 2, True),
    ("sweep --threads negative",
     ["sweep", "spec.json", "--threads", "-2"], 2, True),
    # Removed flags are unknown flags now: resuming means re-running
    # against the result store, which has no knob.
    ("sweep --resume (removed)",
     ["sweep", "spec.json", "--resume", "prev.json"], 2, True),
    ("sweep --checkpoint-seconds (removed)",
     ["sweep", "spec.json", "--checkpoint-seconds", "0"], 2, True),
    ("sweep bad --fault spec",
     ["sweep", "spec.json", "--fault", "bogus"], 2, True),
    # Removed commands are unknown commands now: copies of `qcarch
    # sweep` sharing one --hoard DIR split a sweep between them.
    ("serve (removed)",
     ["serve", "spec.json", "--out", "o.json"], 2, True),
    ("work (removed)", ["work", "--coordinator", "d"], 2, True),
    ("hoard with no subcommand", ["hoard"], 2, True),
    ("hoard unknown subcommand", ["hoard", "prune", "d"], 2, True),
    ("hoard warm (removed)",
     ["hoard", "warm", "spec.json", "--hoard", "d"], 2, True),
    ("hoard gc bad --max-bytes",
     ["hoard", "gc", "d", "--max-bytes", "lots"], 2, True),
    ("hoard gc negative --max-age-days",
     ["hoard", "gc", "d", "--max-age-days", "-3"], 2, True),
    ("hoard ingest (removed)",
     ["hoard", "ingest", "d", "--serve", "s"], 2, True),
    ("hoard stat with extra positional", ["hoard", "stat", "a", "b"],
     2, True),
    ("list with no subcommand", ["list"], 2, True),
    ("list unknown subcommand", ["list", "gadgets"], 2, True),
    ("list with unknown flag", ["list", "runners", "--json"], 2,
     True),
    # The exit-1 side of the boundary: the invocation is fine, the
    # input is not.
    ("run on a missing file", ["run", "/nonexistent/c.json"], 1,
     False),
    ("sweep on a missing file", ["sweep", "/nonexistent/s.json"], 1,
     False),
    # Inspecting a store that is not there names it instead of
    # creating an empty one.
    ("hoard stat on a missing store", ["hoard", "stat", "typo_dir"],
     1, False, "typo_dir"),
    ("hoard verify on a missing store",
     ["hoard", "verify", "typo_dir"], 1, False, "typo_dir"),
    ("hoard gc on a missing store", ["hoard", "gc", "typo_dir"], 1,
     False, "typo_dir"),
    # And exit 0: help is not an error.
    ("help", ["help"], 0, False),
    ("--help", ["--help"], 0, False),
]

# `qcarch run` on configs its field table rejects: exit 1, naming the
# field. (description, config text, text stderr must contain)
BAD_CONFIGS = [
    ("run with a negative latency", '{"tech": {"t1q_ns": -5}}',
     '"tech.t1q_ns"'),
    ("run with fractional bits", '{"workload": "qrca", "bits": 4.5}',
     '"bits"'),
    ("run with misspelled keys",
     '{"workload": "qrca", "bitz": 4, "tech": {"t1q": 5}}', '"bitz"'),
]


def main():
    if len(sys.argv) != 2:
        print("usage: cli_matrix.py <qcarch>", file=sys.stderr)
        return 2
    qcarch = os.path.abspath(sys.argv[1])
    configs = tempfile.TemporaryDirectory()
    cases = list(CASES)
    for i, (description, text, mention) in enumerate(BAD_CONFIGS):
        path = os.path.join(configs.name, "c%d.json" % i)
        with open(path, "w") as f:
            f.write(text)
        cases.append((description, ["run", path], 1, False, mention))
    failures = []
    for description, argv, want_exit, want_usage, *mention in cases:
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run([qcarch] + argv, capture_output=True,
                                  text=True, timeout=60, cwd=cwd)
            left = sorted(os.listdir(cwd))
        problems = []
        if left:
            problems.append("left %r behind in its directory" % left)
        if mention and mention[0] not in proc.stderr:
            problems.append("stderr does not name %r: %r"
                            % (mention[0], proc.stderr))
        if proc.returncode != want_exit:
            problems.append("exit %d, want %d"
                            % (proc.returncode, want_exit))
        if want_usage:
            lines = [l for l in proc.stderr.splitlines() if l]
            if not any(l.startswith(USAGE_LINE) for l in lines):
                problems.append("stderr lacks a %r line: %r"
                                % (USAGE_LINE, proc.stderr))
            # "one-line usage": the pointer plus one diagnostic,
            # not the full multi-line help dump.
            if len(lines) > 2:
                problems.append("stderr is %d lines, want <= 2: %r"
                                % (len(lines), proc.stderr))
        if proc.returncode != 0 and not proc.stderr:
            problems.append("non-zero exit with silent stderr")
        if problems:
            failures.append((description, argv, problems))
    for description, argv, problems in failures:
        print("FAIL %s (qcarch %s):" % (description, " ".join(argv)),
              file=sys.stderr)
        for problem in problems:
            print("  " + problem, file=sys.stderr)
    configs.cleanup()
    print("cli_matrix: %d/%d cases pass"
          % (len(cases) - len(failures), len(cases)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
