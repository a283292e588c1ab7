"""Batch command-line front door.

Subcommands: ``partition``, ``kernel``, ``verify``, ``spectrum gen
twisted-circle``.  Checks come as CheckResults from :mod:`twistkit.verify`;
this module only renders them.  ``partition`` runs every check of the
``partition`` suite, in its order, on each of its rows: the suite is
:func:`twistkit.verify.partition_row` at beta = 1.
Both ``kernel`` routes sample their kernel once, from its (omega, theta)
columns, :func:`twistkit.correlation.sample_kernels` (the extended one
through :func:`twistkit.realfield.sample_extended_kernel`), and write that
grid with the one exporter, :func:`twistkit.correlation.export_kernel_csv`;
``kernel --verify`` checks that same grid with the ``kernel`` suite's
named checks.  On either route it ties the exported lag values to the
closed-form grid spectrum, checks their Hermitian and twisted-circulant
symmetries and positivity, and ties their lag-0 values to Z by the
energy identity (the scalar route against the 1-cycle of its mode's +
slot); the extended route adds the exported eigenbasis, the scalar one
the Fock-trace oracle at every lag.  The extended route runs no oracle,
which must first refuse the frequencies it cannot resolve (ROADMAP item
13).  The scalar route prints ``max three-way disagreement:
<value>``, the deviation of its oracle check; the line once also took a
Fourier partial sum, and keeps its text because the benchmark's checks
(``bench/checks.py``) parse it.  The scalar route needs a twist that
keeps every slot (KindError otherwise).  ``verify`` checks the
Fock-space identities once per factor of the symmetry
(:func:`twistkit.fock.factors`), so it runs at any mode count.  Exit
codes: 0 success, 1 assertion failure, 2 parse, usage or out-of-domain
input (a config that is not UTF-8 JSON, or a config value that is not a
JSON number or is not finite), 3 capacity exceeded (a Fock factor of six
or more modes, a kernel grid above :data:`twistkit.correlation.MAX_GRID`
points, a ``kernel --extended`` CSV of more than MAX_GRID**2 rows, m^2 n^2
for n doubled columns, refused before any sampling, or a ``partition
--cutoff`` whose truncated trace would take more than
:data:`twistkit.verify.MAX_TRACE_STEPS` steps), 4 a result outside the
float range (RangeError), 5 the CSV exporter's refusal of a non-finite
sampled value (InternalConsistencyError, raised nowhere else).  All
numeric output uses fixed 17-significant-digit lowercase scientific
formatting so identical inputs produce byte-identical output.

``partition``, ``spectrum gen`` and ``kernel`` (with or without
``--extended``, with or without ``--verify``) import no numpy: neither
:mod:`twistkit.correlation` nor :mod:`twistkit.realfield` loads it, and
:mod:`twistkit.verify` loads it with its dense suites only
(:mod:`twistkit.fock`, the doubled-field oracle among them), so
``verify --suite kernel`` and ``verify --suite partition`` are numpy-free
too.  ``partition`` and the ``partition`` suite load neither
:mod:`twistkit.realfield` nor :mod:`twistkit.correlation`, on any config:
every route to Z they check reads the slot action.  Every refusal is a
TwistkitError or OSError raised where the input is checked; :func:`main`
alone prints it and picks its exit code, and
``partition`` computes every row before it prints one, so a refused run
prints no partial table, and ``kernel --verify`` runs every check and
prints its failures before it writes its CSV, so an export that the
exporter refuses writes no file but still reports the failed checks.
"""

from __future__ import annotations

import argparse
import json
import sys

# verify imports neither numpy nor the dense suites (twistkit.fock, loaded
# when one runs), so it loads eagerly; the benchmark's in-process
# tracer wraps its checks on every workload.
from . import verify
from .errors import (
    CapacityError,
    ConfigError,
    InternalConsistencyError,
    KindError,
    RangeError,
    TwistkitError,
)
from .spectrum import (
    ModeSpectrum,
    load_config,
    parse_config,
    slot_action,
    spectrum_to_config,
    twisted_circle_spectrum,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

PARSE_FAILURE = 2
ASSERTION_FAILURE = 1
CAPACITY_FAILURE = 3
RANGE_FAILURE = 4
INTERNAL_FAILURE = 5

#: Exit code of a refusal by the first class it is an instance of; others exit 2.
_EXIT_CODES = ((CapacityError, CAPACITY_FAILURE), (RangeError, RANGE_FAILURE),
               (InternalConsistencyError, INTERNAL_FAILURE))


def fmt(x: float) -> str:
    return f"{x:.16e}"


def _load(path: Optional[str]):
    if path is None:
        from importlib import resources  # only the bundled config needs it

        with resources.files("twistkit.data").joinpath("default.json").open(
            "r", encoding="utf-8"
        ) as fh:
            return parse_config(json.load(fh))
    return load_config(path)


def _render(check: verify.CheckResult) -> str:
    status = "pass" if check.passed else "FAIL"
    return (f"[{status}] {check.suite}: {check.name} (deviation {fmt(check.deviation)}, "
            f"threshold {fmt(check.threshold)})")


def _report_failures(checks: list[verify.CheckResult]) -> int:
    """Print each failed check to stderr; the exit code for the lot."""
    failed = [c for c in checks if not c.passed]
    for check in failed:
        print(_render(check), file=sys.stderr)
    return ASSERTION_FAILURE if failed else 0


def _cmd_partition(args) -> int:
    spectrum, sym = _load(args.config)
    # every row first, so a refused beta or cutoff prints no partial table
    rows = [verify.partition_row(spectrum, sym, beta, args.cutoff) for beta in args.beta]
    print("beta,z_untwisted,z_twisted,lower_bound,oracle_z,rel_err,tail_bound")
    for columns, _ in rows:
        print(",".join(fmt(v) for v in columns))
    return _report_failures([check for _, row_checks in rows for check in row_checks])


def _select_mode(spectrum: ModeSpectrum, label: Optional[str]) -> int:
    """The index of the mode ``kernel --mode`` names (default: the first)."""
    if label is None:
        return 0
    try:
        return spectrum.labels.index(label)
    except ValueError:
        raise ConfigError(f"unknown mode label {label!r}") from None


def _cmd_kernel(args) -> int:
    from . import correlation

    spectrum, sym = _load(args.config)
    action = slot_action(spectrum, sym)
    checks, slot = [], None
    if args.extended:
        if args.mode is not None:
            raise ConfigError("--mode picks one scalar kernel; --extended exports every mode")
        from . import realfield

        ext = realfield.extend(spectrum, sym)
        correlation.require_csv_rows(args.beta, args.grid, len(ext.phases))
        sampled = realfield.sample_extended_kernel(ext, args.beta, args.grid)
        lines = [f"wrote extended kernel grid to {args.output}"]
        if args.verify:
            checks = verify.eigenbasis_checks(ext, sampled)
    elif not action.diagonal:
        raise KindError(
            "a symmetry that moves slots (not one phase per mode) "
            "requires --extended (kernel is defined on the doubled space)"
        )
    else:
        slot = 2 * _select_mode(spectrum, args.mode)  # the mode's + slot
        omega, rho = spectrum.omegas[slot // 2], action.phases[slot]
        theta = correlation.kernel_twist_angle(rho)
        sampled = correlation.sample_kernels(args.beta, [omega], [theta], args.grid)
        lines = [f"wrote {args.grid * args.grid} kernel samples to {args.output}"]
        if args.verify:
            # The closed form and the oracle depend on t - s only, so the
            # 2m - 1 distinct lags of the exported grid cover all its cells.
            checks = [verify.kernel_agreement(sampled, 0, rho)]
            lines.append(f"max three-way disagreement: {fmt(checks[0].deviation)}")
    if args.verify:
        checks += verify.sampled_kernel_checks(sampled)
        checks.append(verify.energy_identity(sampled, spectrum, sym, slot))
    # every check first, and its failures reported, so a refused export
    # leaves no file behind and still shows what failed
    code = _report_failures(checks)
    correlation.export_kernel_csv(args.output, sampled)
    print("\n".join(lines))
    return code


def _cmd_verify(args) -> int:
    spectrum, sym = _load(args.config)
    results = verify.run_suite(args.suite, spectrum, sym, seed=args.seed)
    n_pass = sum(1 for r in results if r.passed)
    for r in results:
        print(_render(r))
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else ASSERTION_FAILURE


def _cmd_spectrum_gen(args) -> int:
    spectrum = twisted_circle_spectrum(
        args.twist, args.mass, range(args.n_min, args.n_max + 1)
    )
    doc = spectrum_to_config(spectrum)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistkit",
        description="Twisted free-boson partition functions and thermal kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="closed-form vs oracle partition table")
    p_part.add_argument("--config", help="JSON config path (default: bundled config)")
    p_part.add_argument(
        "--beta", type=float, action="append", required=True, help="inverse temperature"
    )
    p_part.add_argument(
        "--cutoff", type=int, default=verify.PARTITION_CUTOFF, help="oracle occupation cutoff"
    )
    p_part.set_defaults(func=_cmd_partition)

    p_kern = sub.add_parser("kernel", help="export sampled twisted kernels as CSV")
    p_kern.add_argument("--config", help="JSON config path (default: bundled config)")
    p_kern.add_argument("--beta", type=float, required=True)
    p_kern.add_argument("--grid", type=int, default=64, help="grid points per axis")
    p_kern.add_argument("--output", required=True, help="CSV output path")
    p_kern.add_argument("--mode", help="mode label of the scalar kernel (default: first mode)")
    p_kern.add_argument(
        "--extended", action="store_true", help="doubled-space kernel (antiunitary twists)"
    )
    p_kern.add_argument(
        "--verify", action="store_true", help="check positivity and oracle agreement"
    )
    p_kern.set_defaults(func=_cmd_kernel)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--config", help="JSON config path (default: bundled config)")
    p_ver.add_argument("--suite", choices=verify.SUITES, default="all")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)

    p_spec = sub.add_parser("spectrum", help="spectrum generators")
    spec_sub = p_spec.add_subparsers(dest="spectrum_command", required=True)
    p_gen = spec_sub.add_parser("gen", help="generate a spectrum config")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    p_circle = gen_sub.add_parser(
        "twisted-circle", help="modes of the twisted circle Laplacian"
    )
    p_circle.add_argument("--twist", type=float, required=True, help="twist angle rho")
    p_circle.add_argument("--mass", type=float, default=0.0)
    p_circle.add_argument("--n-min", type=int, required=True)
    p_circle.add_argument("--n-max", type=int, required=True)
    p_circle.add_argument("--output", help="write config JSON here instead of stdout")
    p_circle.set_defaults(func=_cmd_spectrum_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TwistkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), PARSE_FAILURE)


if __name__ == "__main__":
    sys.exit(main())
