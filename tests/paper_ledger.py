#!/usr/bin/env python3
"""Paper-fidelity check over the `paper` sweep runner's ledger.

Runs `qcarch sweep specs/paper.json` to stdout, with QCARCH_HOARD
and QCARCH_FAULT cleared, so no result store can serve a stale row
and no injected fault applies. It compares each row with the value
the paper prints:

* a row matches when its measured value rounds to the printed value
  (to the printed number's last digit);
* a Monte Carlo row (one with ci_lo and ci_hi) matches when the
  printed value lies inside its 95% interval;
* a row without a paper value is an extension and is not compared.

Every row that does not match must be listed, with its cause, in the
deviation table of docs/PAPER_MAP.md. The check fails on a deviation
that is not listed, and on a listed row that matches again or has no
paper value to deviate from.

Usage: paper_ledger.py <path-to-qcarch>
"""

import decimal
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "specs", "paper.json")
PAPER_MAP = os.path.join(ROOT, "docs", "PAPER_MAP.md")
DEVIATIONS_HEADING = "## Deviations from the paper"
DEVIATION_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|(.*)\|\s*$")


def matches(row):
    paper = decimal.Decimal(row["paper"])
    if "ci_lo" in row:
        return (decimal.Decimal(row["ci_lo"]) <= paper
                <= decimal.Decimal(row["ci_hi"]))
    last_digit = decimal.Decimal(1).scaleb(paper.as_tuple().exponent)
    measured = decimal.Decimal(row["measured"]).quantize(
        last_digit, rounding=decimal.ROUND_HALF_EVEN)
    return measured == paper


def listed_deviations():
    """{row id: cause} from PAPER_MAP.md's deviation table."""
    listed = {}
    with open(PAPER_MAP) as f:
        lines = f.read().split("\n")
    start = lines.index(DEVIATIONS_HEADING)
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        m = DEVIATION_ROW.match(line)
        if m:
            listed[m.group(1)] = m.group(2).strip()
    return listed


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().split("\n")[-1], file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items()
           if k not in ("QCARCH_HOARD", "QCARCH_FAULT")}
    run = subprocess.run([sys.argv[1], "sweep", SPEC, "--quiet"],
                         capture_output=True, text=True, env=env)
    if run.returncode != 0:
        print(f"FAIL qcarch exited {run.returncode}: {run.stderr}")
        return 1
    point = json.loads(run.stdout)["points"][0]
    rows = {k: v for k, v in point.items() if k != "config_hash"}
    listed = listed_deviations()

    problems = []
    for row_id, cause in sorted(listed.items()):
        if not cause:
            problems.append(f"{row_id}: listed without a cause")
        if rows.get(row_id, {}).get("paper") is None:
            problems.append(f"{row_id}: listed as a deviation, but "
                            "the ledger has no paper value for it")
    compared = {k: v for k, v in rows.items() if v["paper"] is not None}
    matched = {k for k, v in compared.items() if matches(v)}
    for row_id, row in sorted(compared.items()):
        if row_id not in matched and row_id not in listed:
            problems.append(
                f"{row_id}: measured {row['measured']} does not match "
                f"the paper's {row['paper']}; fix it or list it with "
                "its cause in docs/PAPER_MAP.md")
        elif row_id in matched and row_id in listed:
            problems.append(
                f"{row_id}: matches the paper's {row['paper']} again; "
                "remove its entry from docs/PAPER_MAP.md")

    print(f"{len(rows)} rows, {len(compared)} with a paper value, "
          f"{len(matched)} matching, {len(listed)} listed deviations")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
