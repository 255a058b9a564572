"""The verdict logic of the CI workflow's steps, one check per subcommand.

    python tools/ci_checks.py acceptance LOG
    python tools/ci_checks.py imports MODULE LOG...
    python tools/ci_checks.py bench LOG
    python tools/ci_checks.py same FILE FILE

``acceptance`` reads the log of a ``pytest -rP`` run that includes
``tests/test_acceptance.py``.  It prints every ``ACCEPTANCE`` verdict line
and exits 1 unless criteria 1 to 10 each printed exactly one ``PASS`` line,
so a criterion that was skipped, deselected or failed fails the step, and
it names each criterion that fell short on stderr.

``imports`` reads the stderr of runs under ``python -X importtime``.  It
exits 1 if any log lists MODULE or a submodule of it, or lists no
``relwell.cli``, so a log that holds no import list fails too; it names
each such log on stderr.  Module names match exactly, not as a prefix:
``numpy`` does not match ``numpydoc``.

``bench`` reads the output of ``bench/run.py``, whose last line is its
verdict as JSON.  It prints the verdict's ``correct``, ``attempted`` and
``failed`` and exits 1 unless ``correct`` is true and ``failed`` is 0, or
when the last line is missing or is no such verdict.

``same`` compares two files byte for byte, as ``cmp`` does.  It exits 1
unless they are identical, and names the first byte at which they differ
on stderr.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

# one verdict line of tests/test_acceptance.py's report()
VERDICT = re.compile(r"ACCEPTANCE +(\d+) (PASS|FAIL): .*")
CRITERIA = range(1, 11)
# one module of an -X importtime list: "import time: self | cumulative | name"
IMPORT = re.compile(r"import time: +\d+ \| +\d+ \| ")


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


def imports(module: str, log: str) -> list[str]:
    """What fails an ``-X importtime`` log: ``module`` or a submodule of it
    among the modules it lists, or no ``relwell.cli`` (empty when neither)."""
    names = [line.rsplit("|", 1)[1].strip() for line in log.splitlines() if IMPORT.match(line)]
    found = [name for name in names if name == module or name.startswith(f"{module}.")]
    problems = [f"imports {module}: {', '.join(found)}"] if found else []
    if "relwell.cli" not in names:
        problems.append("lists no relwell.cli")
    return problems


def bench(log: str) -> tuple[dict, list[str]]:
    """The verdict on the log's last line, and how it falls short of
    ``correct`` true with 0 failed (empty when it does not)."""
    try:
        last = json.loads(log.splitlines()[-1])
        verdict = {key: last[key] for key in ("correct", "attempted", "failed")}
    except (IndexError, ValueError, KeyError, TypeError):
        return {}, ["the last line is no verdict"]
    passed = verdict["correct"] is True and verdict["failed"] == 0
    return verdict, [] if passed else ["not correct with 0 failed"]


def same(first: bytes, second: bytes) -> list[str]:
    """Where two files' bytes part: the first byte that differs or that only
    the longer one holds (empty when they are identical)."""
    if first == second:
        return []
    pairs = zip(first, second)
    at = next((i for i, (a, b) in enumerate(pairs) if a != b), min(len(first), len(second)))
    return [f"differ from byte {at + 1}"]


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "acceptance":
        lines, problems = acceptance(Path(argv[1]).read_text(errors="replace"))
        print(*lines, sep="\n")
        problems = [f"acceptance: {problem}" for problem in problems]
    elif len(argv) >= 3 and argv[0] == "imports":
        problems = [
            f"{log}: {problem}"
            for log in argv[2:]
            for problem in imports(argv[1], Path(log).read_text(errors="replace"))
        ]
    elif len(argv) == 2 and argv[0] == "bench":
        verdict, problems = bench(Path(argv[1]).read_text(errors="replace"))
        if verdict:
            print(json.dumps(verdict))
        problems = [f"bench: {problem}" for problem in problems]
    elif len(argv) == 3 and argv[0] == "same":
        first, second = (Path(name).read_bytes() for name in argv[1:])
        problems = [f"{argv[1]} and {argv[2]}: {problem}" for problem in same(first, second)]
    else:
        print("usage: ci_checks.py acceptance LOG | imports MODULE LOG... | bench LOG"
              " | same FILE FILE", file=sys.stderr)
        return 2
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
