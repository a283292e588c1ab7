"""Golden CLI outputs: each case reruns through ``cli.main`` and must match.

Non-numeric text must match exactly; every 17-significant-digit float
must match within max(1e-12, 1e-12 * |value|), so refactors may move last
digits but nothing else.  Regenerate the files (and record the rebaseline
and its reason in CHANGES.md) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from twistkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
ANTI = str(GOLDEN / "anti_pair_fixed.json")
GENERIC = str(GOLDEN / "unitary_generic.json")
ANTI2 = str(GOLDEN / "anti_two_pairs_fixed.json")
BETAS = ["--beta", "0.5", "--beta", "1", "--beta", "2"]

#: name -> argv of a command that exits 0; "{output}" stands for the CSV
#: path it writes.
CASES = {
    "partition_default": ["partition", *BETAS],
    "partition_anti": ["partition", "--config", ANTI, *BETAS],
    "verify_default": ["verify", "--suite", "all"],
    "verify_anti": ["verify", "--config", ANTI, "--suite", "all"],
    "verify_two_pairs": ["verify", "--config", ANTI2, "--suite", "all"],
    "kernel_default": ["kernel", "--grid", "8", "--beta", "1", "--output", "{output}"],
    "kernel_extended_anti": [
        "kernel", "--config", ANTI, "--extended", "--grid", "4", "--beta", "1",
        "--output", "{output}",
    ],
    "kernel_generic_verify": [
        "kernel", "--config", GENERIC, "--grid", "33", "--beta", "1.3", "--verify",
        "--output", "{output}",
    ],
    "kernel_extended_two_pairs": [
        "kernel", "--config", ANTI2, "--extended", "--grid", "7", "--beta", "0.9",
        "--output", "{output}",
    ],
}

NUMBER = re.compile(r"([-+]?\d\.\d+e[-+]\d+)")


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Stdout and any CSV of one case, with the CSV path masked."""
    output = workdir / f"{name}.csv"
    argv = [str(output) if a == "{output}" else a for a in CASES[name]]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{name} exited {code}"
    files = {"stdout": buf.getvalue().replace(str(output), "{output}")}
    if "{output}" in CASES[name]:
        files["csv"] = output.read_text(encoding="utf-8")
    return files


def assert_matches(got: str, want: str, where: str) -> None:
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    assert len(got_parts) == len(want_parts), f"{where}: token count differs"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:
            assert g == w, f"{where}: text {g!r} != {w!r}"
        else:
            tol = max(1e-12, 1e-12 * abs(float(w)))
            assert abs(float(g) - float(w)) <= tol, f"{where}: {g} != {w}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    for kind, text in run_case(name, tmp_path).items():
        want = (GOLDEN / f"{name}.{kind}").read_text(encoding="utf-8")
        assert_matches(text, want, f"{name}.{kind}")


@pytest.mark.parametrize("name", ["partition_default", "partition_anti"])
def test_partition_bytes_are_pinned(name, tmp_path):
    # partition's log-sums are correctly rounded (math.fsum), so its rows
    # are the same bytes on every supported Python: pinned exactly, not
    # within the tolerance above
    want = (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert run_case(name, tmp_path)["stdout"] == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for kind, text in run_case(case, Path(tmp)).items():
                (GOLDEN / f"{case}.{kind}").write_text(text, encoding="utf-8")
