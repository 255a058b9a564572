"""tools/ci_checks.py on logs that real runs produced."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def acceptance_log():
    """The ``pytest -rP`` log of the acceptance suite, as CI's Tier-1 step
    records it."""
    job = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rP", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_acceptance.py")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
    )
    assert job.returncode == 0, job.stdout[-4000:]
    return job.stdout


def check_acceptance(tmp_path, log):
    path = tmp_path / "tier1.log"
    path.write_text(log)
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ci_checks.py"), "acceptance", str(path)],
        capture_output=True, text=True,
    )


class TestAcceptance:
    def test_all_ten_verdicts_pass(self, tmp_path, acceptance_log):
        job = check_acceptance(tmp_path, acceptance_log)
        assert job.returncode == 0, job.stderr
        verdicts = job.stdout.splitlines()
        assert [line.split()[1:3] for line in verdicts] == [[str(i), "PASS:"] for i in range(1, 11)]
        assert job.stderr == ""

    def test_a_missing_verdict_fails(self, tmp_path, acceptance_log):
        # criterion 7 skipped or deselected: the other nine still print
        lines = acceptance_log.splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith("ACCEPTANCE  7 ")]
        assert len(kept) == len(lines) - 1
        job = check_acceptance(tmp_path, "".join(kept))
        assert job.returncode == 1
        assert len(job.stdout.splitlines()) == 9
        assert job.stderr == "acceptance: criterion 7: no verdict, not one PASS\n"
