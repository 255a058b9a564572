"""tools/ci_checks.py on logs and files that real runs produced."""

import json
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


def check(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ci_checks.py"), *map(str, args)],
        capture_output=True, text=True,
    )


def check_acceptance(tmp_path, log):
    path = tmp_path / "tier1.log"
    path.write_text(log)
    return check("acceptance", path)


def importtime_log(tmp_path, *args):
    """The exit code and the ``-X importtime`` stderr log of a relwell run, as
    CI's numpy-only job records it from the installed script."""
    code = "import sys; from relwell.cli import main; sys.exit(main(sys.argv[1:]))"
    job = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code, *args, "--out", "out"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True,
        text=True,
    )
    log = tmp_path / "run.log"
    log.write_text(job.stderr)
    return job.returncode, log


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


class TestImports:
    def test_a_refused_document_loads_no_numpy(self, tmp_path):
        (tmp_path / "negative.json").write_text('{"model": {"mass": -1.0}}')
        code, log = importtime_log(tmp_path, "carpet", "--config", "negative.json")
        assert code == 2
        job = check("imports", "numpy", log)
        assert (job.returncode, job.stderr) == (0, "")

    def test_a_run_that_loads_numpy_fails(self, tmp_path):
        code, log = importtime_log(tmp_path, "coeffs", "--preset", "default")
        assert code == 0
        job = check("imports", "numpy", log)
        assert job.returncode == 1
        (line,) = job.stderr.splitlines()
        assert line.startswith(f"{log}: imports numpy: ")
        assert "numpy.fft" in line.split(": ", 2)[2].split(", ")
        # names match whole: no module is num, or in num's package
        assert check("imports", "num", log).returncode == 0
        # a log that lists no imports at all fails
        assert check("imports", "numpy", ROOT / "README.md").stderr.endswith("lists no relwell.cli\n")


class TestBench:
    FAILED = "bench: not correct with 0 failed\n"

    @pytest.mark.parametrize(
        "line, stderr",
        [
            ('{"correct": true, "attempted": 9, "failed": 0}', ""),
            ('{"correct": false, "attempted": 9, "failed": 0}', FAILED),
            ('{"correct": true, "attempted": 9, "failed": 1}', FAILED),
            ('{"correct": true, "attempted": 9, "fa', "bench: the last line is no verdict\n"),
        ],
        ids=["passing", "incorrect", "one-failed", "truncated"],
    )
    def test_the_last_line_decides(self, tmp_path, line, stderr):
        log = tmp_path / "bench.log"
        log.write_text(f"carpets: 1 passes, seed 1, 3 jobs attempted, 0 failed\n{line}\n")
        job = check("bench", log)
        assert (job.returncode, job.stderr) == (1 if stderr else 0, stderr)
        assert job.stdout == ("" if "no verdict" in stderr else f"{line}\n")


class TestSame:
    # a small diag spectrum, written as CI's numpy-only job writes the default
    # one: with every BLAS thread count unset, and with OpenBLAS's pinned
    DIAG = {"engine": {"kind": "diag", "momentum_points": 256}}
    THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def spectrum(self, tmp_path, name, document, **pins):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(document))
        env = {key: value for key, value in os.environ.items() if key not in self.THREADS}
        job = subprocess.run(
            [sys.executable, "-m", "relwell.cli", "spectrum", "--config", config, "--out", name],
            cwd=tmp_path, env=dict(env, PYTHONPATH=str(ROOT / "src"), **pins),
            capture_output=True, text=True,
        )
        assert job.returncode == 0, job.stderr
        return tmp_path / name / "run_spectrum_diag.csv"

    def test_identical_spectra_pass_and_different_ones_fail(self, tmp_path):
        unset = self.spectrum(tmp_path, "unset", self.DIAG)
        pinned = self.spectrum(tmp_path, "pinned", self.DIAG, OPENBLAS_NUM_THREADS="1")
        wider = {**self.DIAG, "model": {"well_width_in_compton": 11.0}}
        other = self.spectrum(tmp_path, "other", wider, OPENBLAS_NUM_THREADS="1")
        job = check("same", unset, pinned)
        assert (job.returncode, job.stdout, job.stderr) == (0, "", "")
        job = check("same", pinned, other)
        assert (job.returncode, job.stdout) == (1, "")
        assert job.stderr.startswith(f"{pinned} and {other}: differ from byte ")
