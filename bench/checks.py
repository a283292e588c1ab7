"""Output checks against routes that do not share the code under test.

Each check raises :class:`CheckFailure` with a reason.  Tolerances are the
library's own bounds (truncation tail bounds, the tail_bound column) plus a
floating-point allowance stated next to each check.  The twistkit modules
imported here supply only oracles and input parsing: the Fock-trace kernel
oracle, the truncation tail bound, the config parser and the induced
unitary of the doubled space.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

import numpy as np

from twistkit import correlation, fock, realfield
from twistkit.spectrum import UNITARY, SymmetrySpec, parse_config, validate_spectrum

#: Documented CLI exit codes: 1 "assertion failure", 3 "capacity exceeded".
ASSERTION_EXIT = 1
CAPACITY_EXIT = 3

KERNEL_ORACLE_CUTOFF = 800
KERNEL_SAMPLES = 24
#: Float allowance on top of the tail bound (observed worst 4e-15).
KERNEL_ABS_TOL = 1e-12
#: Relative float allowance between the extended CSV and the image sum
#: (observed worst 2e-15).
EXTENDED_REL_TOL = 1e-12
#: Relative float allowance for an independent numpy recompute of a
#: closed-form product (same formula, other summation order).
RECOMPUTE_REL_TOL = 1e-10
#: A verify check that misses its threshold by at most this much failed on
#: rounding (an exact-zero threshold met by floating-point arithmetic), not
#: on a wrong value.
VERIFY_ROUNDING = 1e-12
PARTITION_HEADER = "beta,z_untwisted,z_twisted,lower_bound,oracle_z,rel_err,tail_bound"


class CheckFailure(Exception):
    """A job's output disagrees with its independent check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _load_csv(path: Path, header: str, n_cols: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    _require(first == header, f"{path.name}: header {first!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, n_cols)


def _grid_column(column: np.ndarray, beta: float, m: int, what: str) -> np.ndarray:
    """The m distinct values of a time column, checked against j*beta/m
    to within an ulp (the writers round the grid in different orders)."""
    _require(column.shape[0] == m, f"{what}: {column.shape[0]} grid points, expected {m}")
    dev = float(np.abs(column - np.arange(m) * beta / m).max())
    _require(dev <= 4e-16 * beta, f"{what} is not the grid j*beta/m (off by {dev:.3e})")
    return column


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_kernel(job, workdir: Path, stdout: str) -> None:
    """Kernel CSV: m^2 rows on the uniform grid, exact conjugate symmetry
    off the diagonal, and sampled cells equal to the Fock-trace oracle at
    cutoff 800 within its truncation tail bound + 1e-12."""
    m, beta = job.params["m"], job.params["beta"]
    cfg = json.loads(job.files[job.config])
    mode = cfg["modes"][job.params["mode"]]
    phase = cfg["symmetry"]["phases"][job.params["mode"]]
    rho = complex(float(phase["re"]), float(phase["im"]))
    data = _load_csv(workdir / job.output, "t,s,re_k,im_k,tail_bound", 5)
    _require(data.shape[0] == m * m, f"{data.shape[0]} rows, expected {m * m}")
    times = _grid_column(data[::m, 0], beta, m, "t column")
    _require(np.array_equal(data[:, 0], np.repeat(times, m)), "t column order")
    _require(np.array_equal(data[:, 1], np.tile(times, m)), "s column differs from t column")
    _require(not data[:, 4].any(), "closed-form rows carry a nonzero tail bound")
    k = (data[:, 2] + 1j * data[:, 3]).reshape(m, m)
    off = ~np.eye(m, dtype=bool)
    _require(np.array_equal(k[off], k.T.conj()[off]), "(t,s) and (s,t) rows are not conjugates")
    single = validate_spectrum([(mode["label"], float(mode["omega"]))])
    sym = SymmetrySpec(kind=UNITARY, phases=(rho,))
    tol = fock.truncation_tail_bound(single, beta, KERNEL_ORACLE_CUTOFF) + KERNEL_ABS_TOL
    _require(float(np.abs(k.diagonal().imag).max()) <= tol, "diagonal is not real")
    rng = random.Random(f"cells:{job.argv}")
    cells = {(0, 0), (0, m - 1), (m - 1, 0), (m - 1, m - 1)}
    cells |= {(rng.randrange(m), rng.randrange(m)) for _ in range(KERNEL_SAMPLES)}
    for i, j in sorted(cells):
        oracle = correlation.kernel_oracle(
            single, sym, beta, float(times[i]), float(times[j]), KERNEL_ORACLE_CUTOFF
        )
        dev = abs(k[i, j] - oracle)
        _require(dev <= tol, f"cell ({i},{j}) off the oracle by {dev:.3e} > {tol:.3e}")
    match = re.search(r"max three-way disagreement: (\S+)", stdout)
    _require(match is not None, "no three-way disagreement line")


def extended_reference(omegas: np.ndarray, induced: np.ndarray, beta: float,
                       t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Image-sum form of the extended kernel on the grid, shape (m, m, n, n).

    With W the doubled frequencies, U the induced unitary and X = e^{-beta W},
    K(tau >= 0) = (2W)^-1 [e^{-W tau} (I - XU)^-1 + e^{W tau} X U* (I - XU*)^-1]
    and K(t, s) = K(s, t)* for tau < 0.  W commutes with U, so the diagonal
    factors may act on either side.  No Schur decomposition is involved.
    """
    n = omegas.shape[0]
    eye = np.eye(n)
    x = np.diag(np.exp(-beta * omegas))
    u_star = induced.conj().T
    a = np.linalg.inv(eye - x @ induced)
    b = x @ u_star @ np.linalg.inv(eye - x @ u_star)
    tau = t[:, None] - s[None, :]
    up = np.abs(tau)[..., None]
    fwd = (np.exp(-omegas * up)[..., None] * a + np.exp(omegas * up)[..., None] * b) / (
        2.0 * omegas
    )[:, None]
    return np.where((tau < 0)[..., None, None], fwd.conj().swapaxes(-1, -2), fwd)


def check_extended(job, workdir: Path, stdout: str) -> None:
    """Extended CSV: m^2 (2M)^2 rows in (t, s, row, col) order, every block
    equal to the image sum within 1e-12 relative to the largest entry."""
    m, beta = job.params["m"], job.params["beta"]
    spectrum, sym = parse_config(json.loads(job.files[job.config]))
    ext = realfield.extend(spectrum, sym)
    n = 2 * len(spectrum)
    data = _load_csv(
        workdir / job.output, "t,s,row_sector,col_sector,re_k,im_k,tail_bound", 7
    )
    _require(data.shape[0] == m * m * n * n, f"{data.shape[0]} rows, expected {m * m * n * n}")
    cell = n * n
    t = _grid_column(data[:: m * cell, 0], beta, m, "t column")
    s = _grid_column(data[: m * cell : cell, 1], beta, m, "s column")
    _require(np.array_equal(data[:, 0], np.repeat(t, m * cell)), "t column order")
    _require(np.array_equal(data[:, 1], np.tile(np.repeat(s, cell), m)), "s column order")
    _require(np.array_equal(data[:, 2], np.tile(np.repeat(np.arange(n), n), m * m)), "row order")
    _require(np.array_equal(data[:, 3], np.tile(np.arange(n), m * m * n)), "column order")
    _require(not data[:, 6].any(), "closed-form rows carry a nonzero tail bound")
    got = (data[:, 4] + 1j * data[:, 5]).reshape(m, m, n, n)
    omegas = np.concatenate([spectrum.omegas, spectrum.omegas])
    ref = extended_reference(omegas, np.asarray(ext.induced), beta, t, s)
    scale = max(1.0, float(np.abs(ref).max()))
    dev = float(np.abs(got - ref).max())
    _require(dev <= EXTENDED_REL_TOL * scale, f"off the image sum by {dev:.3e} (scale {scale:.3e})")


def _orbit_z(cfg: dict, beta: float) -> tuple[float, float, float]:
    """(Z untwisted, Z twisted, positivity lower bound) recomputed in numpy.

    The antiunitary Z is the infinite orbit-factorized trace: a fixed mode
    contributes 1/(1 - x^2), a swapped pair (k, j) contributes
    1/|1 - eta_j conj(eta_k) x^2|^2, with x = e^{-beta omega}.
    """
    omegas = np.array([float(m["omega"]) for m in cfg["modes"]])
    x = np.exp(-beta * omegas)
    z0 = float(np.exp(-2.0 * np.sum(np.log1p(-x))))
    bound = float(np.exp(-2.0 * np.sum(np.log1p(x))))
    sym = cfg.get("symmetry")
    if sym is None:
        return z0, z0, bound
    phases = np.array([complex(float(p["re"]), float(p["im"])) for p in sym["phases"]])
    if sym["kind"] == "unitary":
        return z0, float(np.exp(-np.sum(np.log(np.abs(1.0 - phases * x) ** 2)))), bound
    labels = [m["label"] for m in cfg["modes"]]
    log_z = 0.0
    for k, label in enumerate(labels):
        j = labels.index(sym["pairing"][label])
        if j == k:
            log_z -= math.log1p(-x[k] ** 2)
        elif j > k:
            log_z -= 2.0 * math.log(abs(1.0 - phases[j] * phases[k].conjugate() * x[k] ** 2))
    return z0, math.exp(log_z), bound


def check_partition(job, workdir: Path, stdout: str) -> None:
    """Partition rows: rel_err <= tail_bound + 1e-8 (also recomputed from the
    z and oracle columns), z and its bound equal to an independent numpy
    recompute, and z >= lower_bound for unitary or absent twists."""
    cfg = json.loads((workdir / job.config).read_text(encoding="utf-8"))
    lines = stdout.strip().splitlines()
    _require(lines and lines[0] == PARTITION_HEADER, "partition header")
    betas = job.params["betas"]
    _require(len(lines) == 1 + len(betas), f"{len(lines) - 1} rows for {len(betas)} betas")
    unitary = cfg.get("symmetry") is None or cfg["symmetry"]["kind"] == "unitary"
    for beta, line in zip(betas, lines[1:]):
        b, z0, z, bound, oracle, rel, tail = (float(v) for v in line.split(","))
        _require(b == beta, f"beta column {b!r} != {beta!r}")
        _require(rel <= tail + 1e-8, f"rel_err {rel:.3e} > tail bound {tail:.3e}")
        _require(abs(z - oracle) / z <= tail + 1e-8, "oracle column off z beyond the tail bound")
        ref0, ref, ref_bound = _orbit_z(cfg, beta)
        for name, got, want in (("z_untwisted", z0, ref0), ("z_twisted", z, ref),
                                ("lower_bound", bound, ref_bound)):
            _require(_rel(got, want) <= RECOMPUTE_REL_TOL,
                     f"{name} {got!r} != recomputed {want!r} at beta {beta}")
        if unitary:
            _require(z >= bound, f"z {z!r} below the positivity bound {bound!r}")


def check_verify(job, workdir: Path, stdout: str) -> None:
    """Every check line passes and the summary reads N/N."""
    lines = stdout.strip().splitlines()
    match = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1] if lines else "")
    _require(match is not None, "no summary line")
    _require(match.group(1) == match.group(2) and int(match.group(2)) > 0, lines[-1])
    _require(all(line.startswith("[pass]") for line in lines[:-1]), "a check line is not [pass]")


def check_spectrum_gen(job, workdir: Path, stdout: str) -> None:
    """The generated config parses, has the requested modes, and each omega
    is hypot(n + twist/2pi, mass) recomputed here."""
    doc = json.loads((workdir / job.output).read_text(encoding="utf-8"))
    spectrum, sym = parse_config(doc)
    p = job.params
    _require(sym is None and len(spectrum) == p["n_modes"], f"{len(spectrum)} modes parsed")
    ns = range(p["n_min"], p["n_min"] + p["n_modes"])
    _require(spectrum.labels == tuple(f"n={n}" for n in ns), "mode labels")
    want = np.hypot(np.arange(p["n_min"], p["n_min"] + p["n_modes"]) + p["twist"] / (2 * math.pi),
                    p["mass"])
    dev = float(np.max(np.abs(np.array(spectrum.omegas) - want) / want))
    _require(dev <= 1e-15, f"omega off by {dev:.3e} relative")


CHECKS = {
    "kernel": check_kernel,
    "extended": check_extended,
    "partition": check_partition,
    "verify": check_verify,
    "spectrum-gen": check_spectrum_gen,
}


def _beyond_rounding(fail_line: str) -> bool:
    """Whether a verify [FAIL] line misses its threshold by more than rounding."""
    match = re.search(r"\(deviation (\S+), threshold (\S+)\)$", fail_line)
    if match is None:
        return True
    deviation, threshold = (float(v) for v in match.groups())
    return not deviation <= threshold + VERIFY_ROUNDING


def judge(job, workdir: Path, code: int, stdout: str, stderr: str) -> tuple[str, str]:
    """Verdict for one finished job, with a reason.

    ok: exit 0 and the output passes its check.  refused: the documented
    capacity exit.  failed: the documented assertion exit 1 (the CLI's own
    check said no, without a traceback) while every value it did write
    still passes the independent check, or, for ``verify``, while every
    failing check misses its threshold by rounding only.  incorrect:
    anything else, that is an output that disagrees with its check, a
    crash, or another exit code.
    Only ``incorrect`` makes the run incorrect; all but ``ok`` count as
    failed jobs.
    """
    if code == CAPACITY_EXIT and stderr.startswith("error:"):
        return "refused", stderr.strip().splitlines()[0]
    if code not in (0, ASSERTION_EXIT) or "Traceback" in stderr:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return "incorrect", f"exit code {code}: {tail[0]}"
    if code == ASSERTION_EXIT and job.kind == "verify":
        failing = [line for line in stdout.splitlines() if line.startswith("[FAIL]")]
        if not failing:
            return "incorrect", "exit code 1 without a failing check"
        if any(_beyond_rounding(line) for line in failing):
            return "incorrect", "; ".join(failing)
        return "failed", "; ".join(failing)
    try:
        CHECKS[job.kind](job, workdir, stdout)
    except CheckFailure as exc:
        return "incorrect", str(exc)
    except (OSError, ValueError) as exc:
        return "incorrect", f"unreadable output: {exc}"
    if code == ASSERTION_EXIT:
        return "failed", "exit code 1: the CLI's own check failed; its output passes ours"
    return "ok", ""
