"""Seeded job lists for the three benchmark workloads.

A job is one ``twistkit`` CLI invocation.  Its inputs (config files) are
written before it runs, and every path it names is relative to the
work directory, so stdout and output bytes depend only on the seed.

The cost of a job is set mostly by a few discrete and size parameters
(grid size, mode count).  Those are laid out by a fixed design: unit i of
n gets the i-th class in a fixed cycle and the i-th of n equal strata of
the size range; the seed only jitters the size inside its stratum, draws
every other parameter freely and shuffles the job order.  Two seeds thus
give different inputs of nearly the same total cost, which is what keeps
the run-to-run spread of the end-to-end times small.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("kernel-export", "extended-export", "verify-batch")

OMEGA_RANGE = (0.3, 3.0)
BETA_RANGE = (0.25, 4.0)

#: Seconds one design unit takes at the baseline commit on a 2-core
#: machine (job wall time including interpreter start).  Used only to size
#: the job list from ``--seconds``; the list is then fixed work.
UNIT_SECONDS = {"kernel-export": 1.65, "extended-export": 5.0, "verify-batch": 3.0}

#: Fewest units per workload: 20 jobs, so that the tail percentile with 10
#: jobs beyond it is at least the median.
MIN_UNITS = {"kernel-export": 20, "extended-export": 5, "verify-batch": 4}


@dataclass
class Job:
    """One CLI invocation and what its output checks need to know."""

    index: int
    kind: str  # kernel | extended | partition | verify | spectrum-gen
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)  # written before the run
    config: Optional[str] = None  # config file name the job reads
    output: Optional[str] = None  # file the job writes
    params: dict = field(default_factory=dict)


def units_for(workload: str, seconds: float, smoke: bool) -> int:
    if smoke:
        return 1
    return max(MIN_UNITS[workload], round(seconds / UNIT_SECONDS[workload]))


def _stratum(rng: random.Random, lo: float, hi: float, i: int, n: int) -> float:
    width = (hi - lo) / n
    return lo + width * (i + rng.random())


def _phase(rng: random.Random) -> dict:
    a = rng.uniform(0.0, 2.0 * math.pi)
    return {"re": math.cos(a), "im": math.sin(a)}


def _beta(rng: random.Random) -> float:
    return rng.uniform(*BETA_RANGE)


def unitary_config(rng: random.Random, n_modes: int) -> dict:
    return {
        "modes": [
            {"label": f"m{k}", "omega": rng.uniform(*OMEGA_RANGE)} for k in range(n_modes)
        ],
        "symmetry": {"kind": "unitary", "phases": [_phase(rng) for _ in range(n_modes)]},
    }


def antiunitary_config(rng: random.Random, n_pairs: int, n_fixed: int) -> dict:
    """Equal-omega swapped pairs plus fixed modes, random unit phases."""
    modes, pairing = [], {}
    for p in range(n_pairs):
        omega = rng.uniform(*OMEGA_RANGE)
        a, b = f"p{p}a", f"p{p}b"
        modes += [{"label": a, "omega": omega}, {"label": b, "omega": omega}]
        pairing[a], pairing[b] = b, a
    for f in range(n_fixed):
        label = f"f{f}"
        modes.append({"label": label, "omega": rng.uniform(*OMEGA_RANGE)})
        pairing[label] = label
    return {
        "modes": modes,
        "symmetry": {
            "kind": "antiunitary",
            "pairing": pairing,
            "phases": [_phase(rng) for _ in modes],
        },
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _kernel_job(name: str, rng: random.Random, cfg: dict, m: int) -> Job:
    beta = _beta(rng)
    mode = rng.randrange(len(cfg["modes"]))
    label = cfg["modes"][mode]["label"]
    out = f"{name}.csv"
    return Job(
        index=-1,
        kind="kernel",
        argv=[
            "kernel", "--config", f"{name}.json", "--beta", repr(beta), "--grid", str(m),
            "--mode", label, "--verify", "--output", out,
        ],
        files={f"{name}.json": _dump(cfg)},
        config=f"{name}.json",
        output=out,
        params={"beta": beta, "m": m, "mode": mode},
    )


def _partition_job(config_name: str, betas: list[float], files: dict) -> Job:
    argv = ["partition", "--config", config_name]
    for b in betas:
        argv += ["--beta", repr(b)]
    return Job(
        index=-1, kind="partition", argv=argv, files=files, config=config_name,
        params={"betas": betas},
    )


def _kernel_export(rng: random.Random, units: int, smoke: bool) -> list[list[Job]]:
    """Unitary 1-3 mode configs; ``kernel --grid m --verify``, m in 128-384."""
    lo, hi = (16, 32) if smoke else (128, 384)
    groups = []
    for i in range(units):
        cfg = unitary_config(rng, 1 + i % 3)
        m = int(_stratum(rng, lo, hi + 1, i, units))
        groups.append([_kernel_job(f"k{i:03d}", rng, cfg, m)])
    return groups


def _extended_export(rng: random.Random, units: int, smoke: bool) -> list[list[Job]]:
    """Antiunitary configs (1-2 pairs, 0-1 fixed modes): one extended kernel
    export with m in 32-64, then one partition job per each of 3 betas."""
    classes = [(1, 0), (2, 1), (1, 1), (2, 0)]
    lo, hi = (4, 8) if smoke else (32, 64)
    groups = []
    for i in range(units):
        n_pairs, n_fixed = classes[i % len(classes)]
        cfg = antiunitary_config(rng, n_pairs, n_fixed)
        m = int(_stratum(rng, lo, hi + 1, i, units))
        name = f"e{i:03d}"
        beta = _beta(rng)
        kern = Job(
            index=-1,
            kind="extended",
            argv=[
                "kernel", "--config", f"{name}.json", "--beta", repr(beta), "--grid", str(m),
                "--extended", "--output", f"{name}.csv",
            ],
            files={f"{name}.json": _dump(cfg)},
            config=f"{name}.json",
            output=f"{name}.csv",
            params={"beta": beta, "m": m},
        )
        groups.append([kern])
        for _ in range(3):
            groups.append([_partition_job(f"{name}.json", [_beta(rng)], {f"{name}.json": _dump(cfg)})])
    return groups


def _verify_batch(rng: random.Random, units: int, smoke: bool) -> list[list[Job]]:
    """Per unit: ``verify --suite all`` on a unitary and an antiunitary
    config (1-5 modes each), ``spectrum gen twisted-circle`` (11-101 modes)
    fed to ``partition``, and a ``kernel --grid 32 --verify``."""
    groups = []
    for i in range(units):
        n_u = 1 + i % 5
        n_a = 1 + (i + 2) % 5
        ucfg = unitary_config(rng, n_u)
        n_pairs = rng.randint(0, n_a // 2)
        acfg = antiunitary_config(rng, n_pairs, n_a - 2 * n_pairs)
        for tag, cfg in (("u", ucfg), ("a", acfg)):
            name = f"v{i:03d}{tag}"
            groups.append([
                Job(
                    index=-1,
                    kind="verify",
                    argv=["verify", "--config", f"{name}.json", "--suite", "all",
                          "--seed", str(rng.randrange(1000))],
                    files={f"{name}.json": _dump(cfg)},
                    config=f"{name}.json",
                )
            ])
        n_modes = 3 if smoke else int(_stratum(rng, 11, 102, i, units))
        n_min = -(n_modes // 2)
        twist = rng.uniform(0.0, 2.0 * math.pi)
        mass = rng.uniform(*OMEGA_RANGE)
        gen_name = f"g{i:03d}.json"
        gen = Job(
            index=-1,
            kind="spectrum-gen",
            argv=[
                "spectrum", "gen", "twisted-circle", "--twist", repr(twist), "--mass", repr(mass),
                "--n-min", str(n_min), "--n-max", str(n_min + n_modes - 1), "--output", gen_name,
            ],
            output=gen_name,
            params={"twist": twist, "mass": mass, "n_min": n_min, "n_modes": n_modes},
        )
        part = _partition_job(gen_name, [_beta(rng) for _ in range(3)], {})
        groups.append([gen, part])  # the partition reads the generated config
        groups.append(
            [_kernel_job(f"vk{i:03d}", rng, unitary_config(rng, 1 + i % 3), 8 if smoke else 32)]
        )
    return groups


_BUILDERS = {
    "kernel-export": _kernel_export,
    "extended-export": _extended_export,
    "verify-batch": _verify_batch,
}


def build_jobs(workload: str, seed: int, seconds: float, smoke: bool = False) -> list[Job]:
    """The workload's job list: same (seed, seconds, smoke) -> same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    groups = _BUILDERS[workload](rng, units_for(workload, seconds, smoke), smoke)
    rng.shuffle(groups)  # groups keep their inner order
    jobs = [job for group in groups for job in group]
    for i, job in enumerate(jobs):
        job.index = i
    return jobs
