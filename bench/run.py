"""twistkit benchmark: seeded CLI workloads with oracle-checked outputs.

Run from the repository root:

    python3 bench/run.py --workload kernel-export --seed 1 --seconds 30 --trace 0

Each workload is a seeded job list of ``twistkit`` CLI invocations, run as
a closed loop from one client: one ``python -m twistkit.cli ...``
subprocess at a time, the next started when the previous has exited.
``--seconds`` sizes the job list (see ``workloads.UNIT_SECONDS``); the list
is then fixed work.  Every job's output is checked against a route that
does not share the code under test (``checks.py``) between jobs, outside
the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
job list in-process through ``twistkit.cli.main(argv)``, once untraced and
once with spans around every layer (``spans.py``), and reports per-layer
metrics.  The last line of stdout is one JSON object; the lines before it
describe the machine, the inputs and outputs (sha256) and any failed job.
Exit code 0 means every output was correct; 1 means an incorrect output;
2 means the benchmark could not run here (no ``src/twistkit``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"
OUT = ROOT / ".bench-out"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
JOB_TIMEOUT_S = 120.0
TAIL_BEYOND = 10

LAYER_METRICS = (
    ("correlation.self_s", "s"), ("correlation.kernel_evals", "count"),
    ("correlation.export_self_s", "s"), ("correlation.csv_rows", "count"),
    ("correlation.csv_bytes", "B"), ("correlation.fourier_terms", "count"),
    ("correlation.oracle_calls", "count"), ("correlation.warnings", "count"),
    ("realfield.self_s", "s"), ("realfield.calls", "count"),
    ("realfield.diagonalizations", "count"),
    ("cli.self_s", "s"), ("cli.csv_rows", "count"), ("cli.csv_bytes", "B"),
    ("fock.self_s", "s"), ("fock.calls", "count"), ("fock.states_enumerated", "count"),
    ("fock.dense_entries", "count"),
    ("partition.self_s", "s"), ("partition.calls", "count"),
    ("spectrum.self_s", "s"), ("spectrum.calls", "count"),
    ("verify.self_s", "s"), ("verify.checks", "count"), ("verify.checks_failed", "count"),
    ("setup.numpy_s", "s"), ("setup.scipy_s", "s"), ("setup.twistkit_s", "s"),
    ("trace.overhead_frac", "1"), ("trace.accounted_frac", "1"),
)


class Unrunnable(Exception):
    """The checkout cannot run the benchmark (no source tree, wrong import)."""


@dataclass
class Outcome:
    job: workloads.Job
    code: int
    seconds: float
    rss_mb: float
    verdict: str  # ok | refused | incorrect
    reason: str


# -- environment ---------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def machine() -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg": list(os.getloadavg()),
    }


def probe_import(env: dict) -> None:
    """Import the CLI once in a child (warms caches) and check it is ours."""
    proc = subprocess.run(
        [sys.executable, "-c", "import twistkit.cli as c; print(c.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    where = proc.stdout.strip()
    if proc.returncode != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise Unrunnable(f"twistkit.cli does not import from {SRC}: {proc.stderr.strip()[-200:]}")


def import_local_twistkit(tracer=None, deps=()) -> None:
    """Import twistkit from ``src`` (with import spans when tracing)."""
    sys.path.insert(0, str(SRC))
    if tracer is not None:
        import spans

        spans.import_with_spans(tracer, "twistkit.cli", list(deps))
    import twistkit

    if not Path(twistkit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise Unrunnable(f"imported twistkit from {twistkit.__file__}, not {SRC}")


class Launcher:
    """Client of ``launcher.py``, the small process that runs measured commands."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def run(self, argv: list[str], cwd: Path, stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": JOB_TIMEOUT_S}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:
            raise Unrunnable("the job launcher exited")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait(timeout=30)


def setup_seconds(launcher: Launcher, workdir: Path) -> float:
    """Median wall time of a fresh interpreter running ``import twistkit.cli``."""
    times = []
    for _ in range(SETUP_REPEATS):
        result = launcher.run([sys.executable, "-c", "import twistkit.cli"], ROOT,
                              workdir / "setup.stdout", workdir / "setup.stderr")
        if result["code"] != 0:
            raise Unrunnable((workdir / "setup.stderr").read_text(encoding="utf-8")[-200:])
        times.append(result["seconds"])
    return statistics.median(times)


def importtime(env: dict) -> tuple[dict[str, float], list[str]]:
    """Import self time per root package (median of repeats), and the
    non-twistkit modules that twistkit modules import directly."""
    per_run: list[dict[str, float]] = []
    deps: list[str] = []
    for rep in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import twistkit.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        totals: dict[str, float] = {}
        pending: list[tuple[int, str]] = []  # (depth, name); post-order listing
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue  # column header
            raw = fields[2]
            name = raw.strip()
            depth = (len(raw) - len(raw.lstrip()) - 1) // 2
            root = name.split(".")[0]
            totals[root] = totals.get(root, 0.0) + int(fields[0]) * 1e-6
            if rep == 0:
                if root == "twistkit":
                    deps += [n for d, n in pending if d == depth + 1 and not n.startswith("twistkit")]
                pending = [(d, n) for d, n in pending if d <= depth] + [(depth, name)]
        per_run.append(totals)
    roots = ("numpy", "scipy", "twistkit")
    return {r: statistics.median(t.get(r, 0.0) for t in per_run) for r in roots}, deps


# -- running jobs --------------------------------------------------------------


def prepare(job: workloads.Job, workdir: Path) -> None:
    for name, text in job.files.items():
        (workdir / name).write_text(text, encoding="utf-8")


def run_subprocess(job: workloads.Job, workdir: Path,
                   launcher: Launcher) -> tuple[int, float, float, str, str]:
    """(exit code, wall seconds, max RSS MB, stdout, stderr) of one CLI child."""
    out_path = workdir / f"job{job.index:04d}.stdout"
    err_path = workdir / f"job{job.index:04d}.stderr"
    result = launcher.run([sys.executable, "-m", "twistkit.cli", *job.argv], workdir,
                          out_path, err_path)
    return (result["code"], result["seconds"], result["max_rss_kb"] / 1024.0,
            out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


def run_inprocess(cli, job: workloads.Job, workdir: Path) -> tuple[int, float, str, str, list]:
    """(exit code, wall seconds, stdout, stderr, warnings) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                code = cli.main(job.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the CLI would exit 1 with this traceback
                traceback.print_exc()
                code = 1
            t1 = perf_counter()
    finally:
        os.chdir(here)
    return code, t1 - t0, out.getvalue(), err.getvalue(), list(caught)


def _digest_job(h, job: workloads.Job, workdir: Path, code: int, stdout: str) -> None:
    h.update(f"job {job.index} exit {code}\n".encode())
    h.update(stdout.encode("utf-8"))
    if job.output and (workdir / job.output).is_file():
        with open(workdir / job.output, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)


def _discard_csv(job: workloads.Job, workdir: Path) -> None:
    if job.output and job.output.endswith(".csv"):
        (workdir / job.output).unlink(missing_ok=True)


def fresh_workdir(workload: str) -> Path:
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def subprocess_pass(jobs, workdir: Path, launcher: Launcher, judge) -> tuple[list[Outcome], str]:
    h = hashlib.sha256()
    outcomes = []
    for job in jobs:
        prepare(job, workdir)
        code, secs, rss, stdout, stderr = run_subprocess(job, workdir, launcher)
        verdict, reason = judge(job, workdir, code, stdout, stderr)
        _digest_job(h, job, workdir, code, stdout)
        _discard_csv(job, workdir)
        outcomes.append(Outcome(job, code, secs, rss, verdict, reason))
    return outcomes, h.hexdigest()


def inprocess_pass(jobs, workload: str, cli, judge=None, tracer=None):
    """Run the jobs via ``cli.main``; with a tracer, also collect CSV counts."""
    workdir = fresh_workdir(workload)
    h = hashlib.sha256()
    outcomes, counts = [], {"correlation": [0, 0], "cli": [0, 0], "warnings": 0}
    for job in jobs:
        prepare(job, workdir)
        if tracer is not None:
            tracer.job = job.index + 1
            tracer.export_paths.clear()
        code, secs, stdout, stderr, caught = run_inprocess(cli, job, workdir)
        counts["warnings"] += sum(Path(w.filename).name == "correlation.py" for w in caught)
        if tracer is not None and job.output and job.output.endswith(".csv"):
            path = workdir / job.output
            if path.is_file():
                data = path.read_bytes()
                layer = "correlation" if job.output in tracer.export_paths else "cli"
                counts[layer][0] += max(data.count(b"\n") - 1, 0)
                counts[layer][1] += len(data)
        verdict, reason = judge(job, workdir, code, stdout, stderr) if judge else ("ok", "")
        _digest_job(h, job, workdir, code, stdout)
        _discard_csv(job, workdir)
        outcomes.append(Outcome(job, code, secs, 0.0, verdict, reason))
    shutil.rmtree(workdir, ignore_errors=True)
    return outcomes, h.hexdigest(), counts


# -- metrics -------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def report_failures(outcomes: list[Outcome]) -> None:
    verdicts = [o.verdict for o in outcomes]
    n_failed = len(outcomes) - verdicts.count("ok")
    print(f"failed_frac = {n_failed / len(outcomes)!r} 1 ({n_failed} of {len(outcomes)} jobs: "
          + ", ".join(f"{verdicts.count(v)} {v}" for v in ("refused", "failed", "incorrect"))
          + ")")
    for o in outcomes:
        if o.verdict != "ok":
            print(f"  job {o.job.index} {o.job.kind} {o.verdict}: {o.reason} "
                  f"[twistkit {' '.join(o.job.argv)}]")


def write_report(args, outcomes: list[Outcome], digest: str, extra: dict) -> None:
    """Per-job record of the run, next to the spans, for later inspection."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "machine": machine(),
        "outputs_sha256": digest,
        **extra,
        "jobs": [
            {"index": o.job.index, "kind": o.job.kind, "argv": o.job.argv, "exit": o.code,
             "seconds": o.seconds, "max_rss_mb": o.rss_mb, "verdict": o.verdict,
             "reason": o.reason}
            for o in outcomes
        ],
    }, indent=1) + "\n", encoding="utf-8")


def emit(correct: bool, outcomes: list[Outcome], metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.verdict != "ok" for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def end_to_end(args, jobs, env: dict) -> bool:
    launcher = Launcher(env)  # first, while this process is still small
    try:
        probe_import(env)
        workdir = fresh_workdir(args.workload)
        setup = setup_seconds(launcher, workdir)
        import_local_twistkit()
        import checks

        outcomes, digest = subprocess_pass(jobs, workdir, launcher, checks.judge)
    finally:
        launcher.close()
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
    times = [o.seconds for o in outcomes]
    tail_value, tail_pct = tail(times)
    incorrect = sum(o.verdict == "incorrect" for o in outcomes)
    print(f"outputs sha256 {digest}")
    print(f"job_s.tail is p{tail_pct:.1f} of {len(times)} jobs "
          f"({min(TAIL_BEYOND, len(times) - 1)} beyond it)")
    report_failures(outcomes)
    write_report(args, outcomes, digest, {"tail_percentile": tail_pct})
    emit(incorrect == 0, outcomes, {
        "setup_s": (setup, "s"),
        "wall_s": (sum(times), "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail_value, "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
    })
    return incorrect == 0


def warmup_jobs(jobs: list[workloads.Job]) -> list[workloads.Job]:
    """The first job of each kind, preceded by the job that writes its config."""
    firsts: dict[str, workloads.Job] = {}
    for job in jobs:
        firsts.setdefault(job.kind, job)
    producers = {job.output: job for job in jobs if job.output}
    warmup = []
    for job in firsts.values():
        if job.config and job.config not in job.files:
            warmup.append(producers[job.config])
        warmup.append(job)
    return warmup


def traced(args, jobs, env: dict) -> bool:
    import spans

    probe_import(env)
    setup, deps = importtime(env)
    tracer = spans.Tracer()
    import_local_twistkit(tracer, deps)
    import checks
    from twistkit import cli

    # First uses (lazy imports, library initialisation) happen once per
    # process; pay them before either timed pass so the passes compare alike.
    inprocess_pass(warmup_jobs(jobs), args.workload, cli)
    plain, plain_digest, _ = inprocess_pass(jobs, args.workload, cli, judge=checks.judge)
    tracer.install()
    try:
        traced_out, traced_digest, counts = inprocess_pass(jobs, args.workload, cli, tracer=tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.csv.gz")

    incorrect = sum(o.verdict == "incorrect" for o in plain)
    same = plain_digest == traced_digest and [o.code for o in plain] == [o.code for o in traced_out]
    if not same:
        print("traced outputs differ from untraced outputs")
    print(f"outputs sha256 {plain_digest}")
    report_failures(plain)

    self_s = tracer.self_seconds()
    calls = tracer.calls
    n = tracer.counts

    def layer_calls(layer: str) -> int:
        return sum(v for k, v in calls.items() if k.split(".")[0] == layer)

    plain_wall = sum(o.seconds for o in plain)
    traced_wall = sum(o.seconds for o in traced_out)
    import_wall = tracer.root_seconds(0)
    total = import_wall + traced_wall
    values = {
        "correlation.self_s": self_s["correlation"],
        "correlation.kernel_evals": n["correlation.kernel_evals"],
        "correlation.export_self_s": tracer.name_self_seconds("correlation.export_kernel_csv"),
        "correlation.csv_rows": counts["correlation"][0],
        "correlation.csv_bytes": counts["correlation"][1],
        "correlation.fourier_terms": n["correlation.fourier_terms"],
        "correlation.oracle_calls": calls["correlation.kernel_oracle"],
        "correlation.warnings": counts["warnings"],
        "realfield.self_s": self_s["realfield"],
        "realfield.calls": layer_calls("realfield"),
        "realfield.diagonalizations": sum(
            calls[f"realfield.{f}"]
            for f in ("extended_kernel", "extended_kernel_grid", "diagonalize_induced")),
        "cli.self_s": self_s["cli"],
        "cli.csv_rows": counts["cli"][0],
        "cli.csv_bytes": counts["cli"][1],
        "fock.self_s": self_s["fock"],
        "fock.calls": layer_calls("fock"),
        "fock.states_enumerated": n["fock.states_enumerated"],
        "fock.dense_entries": n["fock.dense_entries"],
        "partition.self_s": self_s["partition"],
        "partition.calls": layer_calls("partition"),
        "spectrum.self_s": self_s["spectrum"],
        "spectrum.calls": layer_calls("spectrum"),
        "verify.self_s": self_s["verify"],
        "verify.checks": n["verify.checks"],
        "verify.checks_failed": n["verify.checks_failed"],
        "setup.numpy_s": setup["numpy"],
        "setup.scipy_s": setup["scipy"],
        "setup.twistkit_s": setup["twistkit"],
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.accounted_frac": sum(self_s[layer] for layer in spans.LAYERS) / total,
    }
    print(f"traced {len(tracer.span_start)} spans; untraced in-process {plain_wall!r} s, "
          f"traced {traced_wall!r} s, imports {import_wall!r} s")
    write_report(args, plain, plain_digest, {"traced_seconds": [o.seconds for o in traced_out]})
    emit(incorrect == 0 and same, plain, {k: (float(values[k]), u) for k, u in LAYER_METRICS})
    return incorrect == 0 and same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny job list, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "twistkit" / "cli.py").is_file():
        print(f"error: no twistkit source tree at {SRC}", file=sys.stderr)
        return 2
    jobs = workloads.build_jobs(args.workload, args.seed, args.seconds, args.smoke)
    inputs = hashlib.sha256(
        json.dumps([[j.argv, j.files] for j in jobs], sort_keys=True).encode()
    ).hexdigest()
    print(f"machine {json.dumps(machine(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}: "
          f"{len(jobs)} jobs, closed loop, one client")
    print(f"inputs sha256 {inputs}")
    env = child_env()
    try:
        ok = (traced if args.trace else end_to_end)(args, jobs, env)
    except Unrunnable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
