"""The verdict logic of the CI workflow's steps, one check per subcommand.

    python tools/ci_checks.py acceptance LOG

``acceptance`` reads the log of a ``pytest -rP`` run that includes
``tests/test_acceptance.py``.  It prints every ``ACCEPTANCE`` verdict line
and exits 1 unless criteria 1 to 10 each printed exactly one ``PASS`` line,
so a criterion that was skipped, deselected or failed fails the step, and
it names each criterion that fell short on stderr.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# one verdict line of tests/test_acceptance.py's report()
VERDICT = re.compile(r"ACCEPTANCE +(\d+) (PASS|FAIL): .*")
CRITERIA = range(1, 11)


def acceptance(log: str) -> tuple[list[str], list[str]]:
    """The log's verdict lines, and how they fall short of one PASS line for
    each criterion (empty when they do not)."""
    lines, verdicts = [], {}
    for match in VERDICT.finditer(log):
        lines.append(match.group(0))
        verdicts.setdefault(int(match.group(1)), []).append(match.group(2))
    problems = [
        f"criterion {index}: {' '.join(verdicts.get(index, [])) or 'no verdict'}, not one PASS"
        for index in CRITERIA
        if verdicts.get(index) != ["PASS"]
    ]
    return lines, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] != "acceptance":
        print("usage: ci_checks.py acceptance LOG", file=sys.stderr)
        return 2
    lines, problems = acceptance(Path(argv[1]).read_text(errors="replace"))
    print(*lines, sep="\n")
    for problem in problems:
        print(f"acceptance: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
