import ast
import inspect
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twistkit
from twistkit import cli, correlation, errors, fock, partition, realfield, verify
from twistkit.cli import main
from twistkit.spectrum import (
    UNIT_MODULUS_TOL, ModeSpectrum, SlotAction, SymmetrySpec, load_config, parse_config,
    restrict, spectrum_to_config, twisted_circle_spectrum, validate_spectrum,
)

LN2 = math.log(2.0)
GOLDEN = Path(__file__).parent / "golden"


def neumaier_sum(values, start=0):
    """The float sum() of Python 3.12 and later: Neumaier's compensated sum."""
    total, carry = float(start), 0.0
    for x in values:
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry if carry and math.isfinite(carry) else total


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def minus_one_config(tmp_path):
    return write_config(
        tmp_path / "cfg.json",
        {
            "modes": [{"label": "k0", "omega": LN2}],
            "symmetry": {"kind": "unitary", "phases": [{"re": -1.0, "im": 0.0}]},
        },
    )


@pytest.fixture
def anti_config(tmp_path):
    return write_config(
        tmp_path / "anti.json",
        {
            "modes": [{"label": "a", "omega": 0.8}, {"label": "b", "omega": 0.8}],
            "symmetry": {
                "kind": "antiunitary",
                "pairing": {"a": "b", "b": "a"},
                "phases": [{"re": 0.6, "im": 0.8}, {"re": 1.0, "im": 0.0}],
            },
        },
    )


class TestPartitionCommand:
    def test_worked_example_row(self, minus_one_config, capsys):
        assert main(["partition", "--config", minus_one_config, "--beta", "1"]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        assert header.startswith("beta,z_untwisted,z_twisted")
        fields = row.split(",")
        assert abs(float(fields[2]) - 4.0 / 9.0) < 1e-12

    def test_empty_spectrum(self, tmp_path, capsys):
        # refused by the spectrum's own rule, before its symmetry is read
        doc = {"modes": [], "symmetry": {"kind": "antiunitary", "phases": [], "pairing": {}}}
        cfg = write_config(tmp_path / "empty.json", doc)
        assert main(["partition", "--config", cfg, "--beta", "1"]) == 2
        assert capsys.readouterr() == ("", "error: a spectrum needs at least one mode\n")

    @pytest.mark.parametrize(
        "config", [[], ["--config", str(GOLDEN / "anti_two_pairs_fixed.json")]],
        ids=["bundled", "anti_two_pairs"],
    )
    def test_row_bytes_do_not_depend_on_the_float_sum(self, config, monkeypatch, capsys):
        # Python 3.12's sum() compensates float sums; a row's sums are the
        # correctly rounded math.fsum, so it prints the same bytes under
        # either rule of sum()
        argv = ["partition", *config, "--beta", "0.5", "--beta", "1"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        for module in (partition, verify):
            monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
        assert main(argv) == 0
        assert capsys.readouterr() == plain

    def test_infinite_beta_is_refused_by_name(self, capsys):
        # Z = 1 at beta = inf is a limit, not a value: refused as the kernel is
        assert main(["partition", "--beta", "inf"]) == 2
        assert capsys.readouterr().err == "error: beta must be finite\n"

    @pytest.mark.parametrize("beta", ["1e308", "1e3"])
    def test_tail_bound_with_nothing_dropped_is_positive_zero(self, beta, capsys):
        # at beta*omega*(N + 1) beyond the float range no mass is dropped, and
        # the tail_bound column reads +0, not -0
        assert main(["partition", "--beta", beta]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[6] == "0.0000000000000000e+00"

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["partition", "--config", str(bad), "--beta", "1"]) == 2

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"modes": [], "bogus": True})
        assert main(["partition", "--config", cfg, "--beta", "1"]) == 2

    def test_antiunitary_table(self, anti_config, capsys):
        assert main(["partition", "--config", anti_config, "--beta", "1"]) == 0

    @pytest.mark.parametrize("config", ["anti_pair_fixed.json", "anti_two_pairs_fixed.json",
                                        "near-unit"])
    def test_doubled_route_agrees_at_small_beta(self, config, tmp_path, capsys):
        # the route that checks Z at every beta reads each phase as a unit
        # phase and lets nothing cancel in 1 - r e^{-L beta omega}: the
        # doubled route, taken literally, strayed from Z by 3.8e-9 at
        # beta = 1e-8 on anti_pair_fixed.json, and by 1.8e-10 at beta = 1e-4
        # where a phase's modulus is 1 + 9.1e-15, within the config's
        # unit-modulus tolerance; its successor, 1/det(1 - XU), must pass
        # here at its far tighter threshold
        path = str(GOLDEN / config)
        if config == "near-unit":
            path = write_config(tmp_path / "near.json", {
                "modes": [{"label": "a", "omega": 0.5}],
                "symmetry": {"kind": "antiunitary", "pairing": {"a": "a"},
                             "phases": [{"re": 0.7648421872844955, "im": 0.6442176872376969}]},
            })
        betas = [arg for beta in ("1e-4", "1e-8", "1e-12") for arg in ("--beta", beta)]
        assert main(["partition", "--config", path, *betas]) == 0
        assert capsys.readouterr().err == ""

    def test_antiunitary_oracle_uses_requested_cutoff(self, anti_config, capsys):
        args = ["partition", "--config", anti_config, "--beta", "1", "--cutoff", "12"]
        assert main(args) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        spec, _ = load_config(anti_config)
        assert row[6] == f"{verify.truncation_tail_bound(spec, 1.0, 12):.16e}"

    def test_trace_above_the_step_cap_exits_3(self):
        # 4 cycles on the bundled config, so (cutoff + 1) * 4 steps: refused
        # before any sum, with no row; the timeout stops a run that is not
        # refused, as this trace takes about 11 s uncapped
        proc = _run_cli(["-m", "twistkit.cli", "partition", "--beta", "1",
                         "--cutoff", "10000000"], timeout=20)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "error: a truncated trace of 40000004 steps exceeds the cap of 10000000\n")

    def test_trace_at_the_step_cap_is_accepted(self, monkeypatch):
        # one mode and no twist: 2 cycles, so cutoff 3 takes 8 steps
        uncapped = verify.partition_trace(ONE_MODE, None, 1.0, 3)
        monkeypatch.setattr(verify, "MAX_TRACE_STEPS", 8)
        assert verify.partition_trace(ONE_MODE, None, 1.0, 3) == uncapped
        with pytest.raises(errors.CapacityError):
            verify.partition_trace(ONE_MODE, None, 1.0, 4)

    def test_twisted_row_checked_against_twisted_tail_bound(self, tmp_path, capsys):
        # rho = i, N = 1: trace / Z = (1 + x^2)^2, which is exactly the twisted
        # tail bound 0.871 and beyond the untwisted one, 0.600
        cfg = write_config(
            tmp_path / "one.json",
            {
                "modes": [{"label": "a", "omega": 1.0}],
                "symmetry": {"kind": "unitary", "phases": [{"re": 0.0, "im": 1.0}]},
            },
        )
        assert main(["partition", "--config", cfg, "--beta", "0.5", "--cutoff", "1"]) == 0
        out, err = capsys.readouterr()
        rel, tail = (float(v) for v in out.strip().splitlines()[1].split(",")[5:])
        x2 = math.exp(-1.0)
        assert abs(rel - ((1.0 + x2) ** 2 - 1.0)) < 1e-14 and rel > tail
        assert err == ""


def _run_cli(args, **kwargs):
    """Run ``python -m twistkit.cli`` in a subprocess against this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(twistkit.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kwargs
    )


def test_cli_import_does_not_load_scipy():
    code = "import sys, twistkit.cli; print('scipy' in sys.modules)"
    out = _run_cli(["-c", code], check=True).stdout
    assert out.strip() == "False"


def test_cli_import_loads_no_numpy_or_dense_modules():
    # the package modules every command needs, and no other: each command
    # loads the rest (correlation, realfield, fock) when it runs
    code = ("import sys, twistkit.cli; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('twistkit')))")
    out = _run_cli(["-c", code], check=True).stdout
    assert ast.literal_eval(out) == ["twistkit", "twistkit.cli", "twistkit.errors",
                                     "twistkit.partition", "twistkit.spectrum", "twistkit.verify"]


@pytest.mark.parametrize("config", [None, "anti", "circle"])
def test_partition_runs_without_numpy(config, anti_config, tmp_path):
    argv = ["partition", "--beta", "0.5", "--beta", "2"]
    if config == "anti":
        argv += ["--config", anti_config]
    elif config == "circle":
        circle = twisted_circle_spectrum(1.0, 0.0, range(-50, 51))
        argv += ["--config", write_config(tmp_path / "circle.json", spectrum_to_config(circle))]
    assert _loads_numpy(argv) is False


def test_spectrum_gen_runs_without_numpy(tmp_path):
    argv = ["spectrum", "gen", "twisted-circle", "--twist", "1", "--n-min", "-50",
            "--n-max", "50", "--output", str(tmp_path / "circle.json")]
    assert _loads_numpy(argv) is False
    assert len(json.loads((tmp_path / "circle.json").read_text())["modes"]) == 101


@pytest.mark.parametrize("argv, config", [
    (["verify", "--suite", "partition"], None),
    (["verify", "--suite", "partition"], "anti_pair_fixed.json"),
    (["partition", "--beta", "1"], "anti_pair_fixed.json"),
], ids=["default", "anti", "partition-anti"])
def test_partition_suite_runs_without_numpy(argv, config):
    # every route to Z reads the slot action, for either kind: neither the
    # suite nor the partition command loads the doubling module, the
    # kernel's correlation module, the Fock oracle or numpy
    if config is not None:
        argv = [*argv, "--config", str(GOLDEN / config)]
    modules = ["numpy", "twistkit.fock", "twistkit.correlation", "twistkit.realfield"]
    assert _loaded(argv, modules) == []


@pytest.mark.parametrize("config", [None, "anti_pair_fixed.json", "anti_two_pairs_fixed.json",
                                    "unitary_generic.json"])
def test_partition_command_runs_the_partition_suite(config, monkeypatch, capsys):
    # one check list for Z: checks print only on failure, so fail them all
    # and compare what each command prints, at partition's default cutoff
    monkeypatch.setattr(verify.CheckResult, "passed", property(lambda check: False))
    argv = [] if config is None else ["--config", str(GOLDEN / config)]
    names = []
    for command in (["partition", "--beta", "1"], ["verify", "--suite", "partition"]):
        assert main(command + argv) == 1
        out, err = capsys.readouterr()
        names.append(re.findall(r"^\[FAIL\] (.+?) \(deviation", out + err, re.M))
    assert names[0] == names[1]
    # every one of these configs has a symmetry, so each runs the det route
    assert names[0][-1] == "partition: closed form vs 1/det(1 - XU)"
    assert not any("doubled-theory" in name for name in names[0])


@pytest.mark.parametrize("verify_flag", [[], ["--verify"]])
def test_scalar_kernel_runs_without_numpy(tmp_path, verify_flag):
    argv = ["kernel", "--beta", "1", "--grid", "33", "--output", str(tmp_path / "k.csv")]
    assert _loads_numpy(argv + verify_flag) is False
    assert len(Path(tmp_path / "k.csv").read_text().splitlines()) == 1 + 33 * 33


def test_kernel_suite_runs_without_numpy():
    assert _loads_numpy(["verify", "--suite", "kernel"]) is False


@pytest.mark.parametrize("verify_flag", [[], ["--verify"]])
def test_extended_kernel_runs_without_numpy_and_matches_its_golden(tmp_path, verify_flag):
    golden = Path(__file__).parent / "golden"
    out = tmp_path / "ext.csv"
    argv = ["kernel", "--config", str(golden / "anti_pair_fixed.json"), "--extended",
            "--grid", "4", "--beta", "1", "--output", str(out)]
    assert _loaded(argv + verify_flag, ["numpy", "twistkit.fock"]) == []
    assert out.read_text() == (golden / "kernel_extended_anti.csv").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--beta", "0.5"],
        ["spectrum", "gen", "twisted-circle", "--twist", "1", "--n-min", "-3", "--n-max", "3"],
        ["kernel", "--beta", "1", "--grid", "16", "--verify", "--output", "{out}"],
        ["kernel", "--config", "{anti}", "--extended", "--grid", "4", "--beta", "1",
         "--output", "{out}"],
        ["verify", "--suite", "kernel"],
    ],
    ids=["partition", "spectrum-gen", "kernel-verify", "kernel-extended", "verify-kernel"],
)
def test_cli_jobs_load_no_dataclasses_or_inspect(argv, anti_config, tmp_path):
    fill = {"{out}": str(tmp_path / "k.csv"), "{anti}": anti_config}
    argv = [fill.get(a, a) for a in argv]
    assert _loaded(argv, ["dataclasses", "inspect"]) == []


@pytest.mark.parametrize(
    "argv, dense",
    [
        (["verify", "--suite", "all"], True),
        (["verify", "--config", "{anti}", "--suite", "all"], True),
        (["partition", "--beta", "0.5"], False),
        (["spectrum", "gen", "twisted-circle", "--twist", "1", "--n-min", "-3", "--n-max", "3"],
         False),
        (["kernel", "--beta", "1", "--grid", "16", "--verify", "--output", "{out}"], False),
        (["kernel", "--config", "{anti}", "--extended", "--grid", "4", "--beta", "1", "--verify",
          "--output", "{out}"], False),
    ],
    ids=["verify-default", "verify-anti", "partition", "spectrum-gen", "kernel-verify",
         "kernel-extended-verify"],
)
def test_cli_jobs_never_load_numpy_random(argv, dense, tmp_path):
    # the Fock-oracle states are drawn from random.Random; only the dense
    # suites load numpy at all, and they load it with twistkit.fock
    fill = {"{out}": str(tmp_path / "k.csv"),
            "{anti}": str(Path(__file__).parent / "golden" / "anti_pair_fixed.json")}
    argv = [fill.get(a, a) for a in argv]
    modules = ["numpy", "numpy.random", "twistkit.fock"]
    assert _loaded(argv, modules) == (["numpy", "twistkit.fock"] if dense else [])


@pytest.mark.parametrize("config", [None, "anti_pair_fixed.json"], ids=["default", "anti"])
def test_verify_compiles_every_package_module_before_numpy(config):
    # a job compiles the twistkit modules it needs before numpy's heap exists:
    # each is looked up, and compiled, before its body imports anything
    argv = ["verify", "--suite", "all"]
    if config is not None:
        argv += ["--config", str(Path(__file__).parent / "golden" / config)]
    code = """
import sys
found = []
class Recorder:
    @staticmethod
    def find_spec(name, path=None, target=None):
        found.append(name)
sys.meta_path.insert(0, Recorder)
from twistkit.cli import main
rc = main(sys.argv[1:])
print(rc, [m for m in found if m == "numpy" or m.startswith("twistkit.")])
"""
    proc = _run_cli(["-c", code, *argv], check=True)
    rc, found = proc.stdout.splitlines()[-1].split(" ", 1)
    assert rc == "0", proc.stderr
    found = ast.literal_eval(found)
    assert {"twistkit.correlation", "twistkit.realfield", "twistkit.fock"} <= set(found)
    assert found[-1] == "numpy", found


def test_no_package_module_names_numpy_random():
    for path in Path(twistkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [f"{getattr(node.value, 'id', '')}.{node.attr}"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                assert not name.startswith(("np.random", "numpy.random")), (path.name, name)


def test_cli_import_loads_no_typing():
    # -S: no site hooks, which preload typing on their own
    code = "import sys, twistkit.cli; print('typing' in sys.modules)"
    assert _run_cli(["-S", "-c", code], check=True).stdout.strip() == "False"


def test_no_package_module_imports_dataclasses():
    for path in Path(twistkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name


def test_cli_import_loads_importlib_resources_only_for_the_bundled_config():
    # -S: no site hooks, which may load importlib.resources on their own
    code = ("import sys, twistkit.cli; print('importlib.resources' in sys.modules); "
            "twistkit.cli.main(['partition', '--beta', '1']); "
            "print('importlib.resources' in sys.modules)")
    lines = _run_cli(["-S", "-c", code], check=True).stdout.splitlines()
    assert [lines[0], lines[-1]] == ["False", "True"]


def _loaded(argv, modules):
    """Run ``cli.main(argv)`` in a fresh interpreter; which of ``modules`` got loaded."""
    code = ("import sys; from twistkit.cli import main; rc = main(sys.argv[2:]); "
            "print(rc, [m for m in sys.argv[1].split(',') if m in sys.modules])")
    proc = _run_cli(["-c", code, ",".join(modules), *argv], check=True)
    rc, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
    assert rc == "0", proc.stderr
    return ast.literal_eval(loaded)


def _loads_numpy(argv):
    """Run ``cli.main(argv)`` in a fresh interpreter; whether numpy, or
    twistkit.fock, the one package module that imports it, got loaded."""
    return _loaded(argv, ["numpy", "twistkit.fock"]) != []


def test_package_exports_load_lazily():
    # every name has one import path, through the submodule that owns it:
    # the package defines only its version and loads nothing
    code = """
import sys, twistkit
public = [name for name in vars(twistkit) if not name.startswith("_")]
loaded = [name for name in sys.modules if name.startswith("twistkit.")]
print(public, loaded, "numpy" in sys.modules, twistkit.__version__)
"""
    out = _run_cli(["-c", code], check=True).stdout.strip()
    assert out == f"[] [] False {twistkit.__version__}"
    for name in ("__all__", "__getattr__", "__dir__", "_EXPORTS", "_OWNER"):
        assert name not in vars(twistkit), name
    # bench/checks.py reads the tail bound through fock
    assert fock.truncation_tail_bound is verify.truncation_tail_bound


def test_every_public_name_has_a_package_caller():
    # a public top-level function or class that no package code names (as a
    # name, an attribute or an import, outside its own definition) is dead
    # code or a test reference, which belongs in tests/dense.py
    defined, used = {}, set()
    for path in Path(twistkit.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined[own] = path.stem
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    used.update({name} - {own})
    assert defined and {name: mod for name, mod in defined.items() if name not in used} == {}


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--beta", "1", "--cutoff", "-1"],
        ["partition", "--beta", "1", "--beta", "nan"],
        ["verify", "--seed", "-1"],
        ["spectrum", "gen", "twisted-circle", "--twist", "nan", "--n-min", "0", "--n-max", "2"],
        ["spectrum", "gen", "twisted-circle", "--twist", "inf", "--n-min", "0", "--n-max", "2"],
    ],
)
def test_out_of_domain_numbers_exit_2(argv):
    proc = _run_cli(["-m", "twistkit.cli", *argv])
    assert proc.returncode == 2
    assert proc.stdout == ""  # a refused run prints no partial table
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_kernel_verify_at_huge_omega_exits_cleanly(tmp_path):
    # omega^2 overflows a float, so no check of kernel --verify may form it
    cfg = write_config(tmp_path / "huge.json", {"modes": [{"label": "a", "omega": 1e300}]})
    proc = _run_cli(["-m", "twistkit.cli", "kernel", "--config", cfg, "--beta", "1",
                     "--grid", "8", "--verify", "--output", str(tmp_path / "k.csv")])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "max three-way disagreement" in proc.stdout


def test_cli_calls_no_oracle():
    # The oracles and their thresholds live in twistkit.verify only.
    assert not hasattr(cli, "fock")
    source = inspect.getsource(cli)
    for name in ("kernel_oracle", "kernel_fourier", "partition_trace", "truncation_tail_bound"):
        assert name not in source


def test_verify_evaluates_no_kernel_closed_form():
    # Every kernel check reads a sampled layout, and no check draws its lags.
    source = inspect.getsource(verify)
    for name in ("kernel_closed_form", "grid_spectrum", "kernel_twist_angle"):
        assert name not in source
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert "random" not in imported


def test_kernel_suite_reads_no_seed(capsys):
    # it compares every lag of its sampled column; the seed draws only the
    # Fock-oracle states of the dense suites
    outputs = []
    for seed in ("0", "7"):
        assert main(["verify", "--suite", "kernel", "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


class TestSharedChecksBite:
    """A broken oracle input fails the CLI command and its verify suite alike."""

    def test_kernel_oracle_off_by_1e_7(self, minus_one_config, tmp_path, monkeypatch, capsys):
        oracle = correlation.kernel_oracle
        monkeypatch.setattr(
            correlation, "kernel_oracle", lambda *args: oracle(*args) + 1e-7
        )
        args = ["kernel", "--config", minus_one_config, "--beta", "1", "--grid", "8",
                "--output", str(tmp_path / "k.csv"), "--verify"]
        assert main(args) == 1
        assert "[FAIL] kernel: closed form vs Fock-trace oracle" in capsys.readouterr().err
        spec, sym = load_config(minus_one_config)
        assert not all(r.passed for r in verify.run_suite("kernel", spec, sym))


@pytest.mark.parametrize(
    "argv, m",
    [(["kernel", "--beta", "1", "--grid", "64", "--verify", "--output", "{output}"], 64),
     (["verify", "--suite", "kernel"], 32),
     (["verify", "--config", str(GOLDEN / "anti_pair_fixed.json"), "--suite", "kernel"], 32),
     (["kernel", "--config", str(GOLDEN / "anti_pair_fixed.json"), "--extended", "--beta", "1",
       "--grid", "64", "--verify", "--output", "{output}"], 64)],
    ids=["kernel-verify", "kernel-suite", "kernel-suite-anti", "extended-kernel-verify-anti"],
)
def test_each_kernel_run_samples_one_grid(argv, m, tmp_path, monkeypatch, capsys):
    # every kernel check reads the one layout the run samples: the grid that
    # kernel --verify exports, or the kernel suite's 32-point layout
    grids, init = [], correlation.SampledKernel.__init__

    def counting(self, beta, omegas, thetas, lags, basis=None):
        grids.append(len(lags))
        init(self, beta, omegas, thetas, lags, basis)

    monkeypatch.setattr(correlation.SampledKernel, "__init__", counting)
    output = str(tmp_path / "k.csv")
    assert main([output if a == "{output}" else a for a in argv]) == 0
    assert grids == [m]


def test_sampled_kernel_checks_read_the_fft_spectrum():
    # positivity reads the closed-form grid spectrum, which the spectrum check
    # ties to the exported lag values; the dense grids are test references only
    checks = inspect.getsource(verify.sampled_kernel_checks)
    assert "sampled.spectrum()" in checks
    assert checks.count(".spectrum()") == 1  # one spectrum serves both checks
    assert "grid_spectrum(" in inspect.getsource(correlation.SampledKernel.spectrum)
    assert "_twisted_fft" not in inspect.getsource(correlation.SampledKernel)
    source = inspect.getsource(verify) + inspect.getsource(correlation)
    for name in ("eigvalsh", "kernel_grid(", "extended_kernel_grid(", ".grid()", " @ ", "fft"):
        assert name not in source, name
    # the dense references, the resolvent quadrature among them, live in tests/dense.py
    for module, names in (
        (correlation, ("KernelGrid", "kernel_grid", "apply_inverse", "_twisted_fft",
                       "verify_resolvent", "BOUNDARY_TOL", "TwistedKernel", "write_kernel_csv")),
        (realfield, ("extended_kernel", "extended_kernel_grid", "export_extended_kernel_csv",
                     "UNITARITY_TOL", "_worst")),
        (errors, ("PreconditionError",)),
    ):
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(correlation.SampledKernel, "grid")
    # a symmetry's pairing is held as mode indices: no label is looked up
    # after parsing, except the one mode ``kernel --mode`` names
    assert not hasattr(ModeSpectrum, "omega_of")
    spec = SymmetrySpec(kind="antiunitary", phases=(1j, 1j), pairing=(1, 0))
    for name in ("labels", "partners"):
        assert not hasattr(spec, name), name
    assert _label_index_callers() - {"spectrum.parse_config"} == {"cli._select_mode"}
    # neither correlation nor realfield imports numpy, and realfield never
    # imports fock: the doubled-field oracle lives in fock
    assert _numpy_importers(correlation) == []
    assert _numpy_importers(realfield) == []
    assert _numpy_importers(realfield, "fock") == []
    for name in ("field_coefficient_map", "_doubled_creation", "real_time_field",
                 "real_field_checks"):
        assert not hasattr(realfield, name), name
    assert not hasattr(realfield.ExtendedSpectrum, "natural_conjugation")
    tree = ast.parse(inspect.getsource(realfield))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "correlation"
        for alias in node.names
    ]
    assert imported and not [name for name in imported if name.startswith("_")]
    # the eigenmode columns are built in one helper, which samples them
    assert inspect.getsource(realfield).count("sample_kernels(") == 1
    # extend only builds: the eigenbasis it exports is checked in verify; an
    # InternalConsistencyError is raised only by the exporter's refusal of a
    # non-finite block entry, never by a check
    extend = ast.parse(inspect.getsource(realfield.extend))
    assert not [node for node in ast.walk(extend) if isinstance(node, ast.Raise)]
    assert _raisers("InternalConsistencyError") == {"correlation.export_kernel_csv"}


#: The oracles of Z, moved out of the closed-form modules beside their one
#: caller in verify (the Fock-trace kernel oracle's helper beside it in
#: correlation).
PARTITION_ORACLES = ("partition_trace", "_truncated_geometric", "truncation_tail_bound",
                     "twisted_tail_bound", "z_via_det", "geometric_log_derivative")


def _imported(stem):
    """The modules and names a package module imports, at any level (inside
    functions and under TYPE_CHECKING too)."""
    imported = set()
    path = Path(twistkit.__file__).parent / f"{stem}.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update([node.module or "", *(a.name for a in node.names)])
    return imported


def test_closed_form_modules_reach_no_oracle():
    # spectrum, partition, correlation and realfield import neither verify
    # nor fock, so no closed form can reach an oracle
    package = Path(twistkit.__file__).parent
    for stem in ("spectrum", "partition", "correlation", "realfield"):
        leaves = {n.rsplit(".", 1)[-1] for n in _imported(stem)}
        assert not leaves & {"verify", "fock"}, stem
    # the Z oracles are defined in verify, the kernel oracle's helper in
    # correlation
    defined = {
        path.stem: {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                    if isinstance(node, ast.FunctionDef)}
        for path in package.glob("*.py")
    }
    assert not defined["partition"] & set(PARTITION_ORACLES)
    # the doubled-theory product is a test reference (tests/dense.py) only
    assert not any("z_via_realfield" in names for names in defined.values())
    assert set(PARTITION_ORACLES[:5]) <= defined["verify"]
    assert "geometric_log_derivative" in defined["correlation"]


def test_verify_imports_no_numpy_or_fock():
    # the dense suites, and with them numpy, live in twistkit.fock, which
    # verify imports once, inside the dense runner, and nowhere else (not
    # even for type checking); fock is the one package module with numpy
    imported = _imported("verify")
    assert not {n.split(".")[0] for n in imported} & {"numpy"}
    fock_imports = [
        node for node in ast.walk(ast.parse(inspect.getsource(verify)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "fock" in {n.rsplit(".", 1)[-1]
                       for n in (getattr(node, "module", None) or "", *(a.name for a in node.names))}
    ]
    assert len(fock_imports) == 1 and _numpy_importers(verify, "fock") == ["_dense"]
    package = Path(twistkit.__file__).parent
    assert not (package / "fock_suites.py").exists()
    numpy_users = {path.stem for path in package.glob("*.py")
                   if {n.split(".")[0] for n in _imported(path.stem)} & {"numpy"}}
    assert numpy_users == {"fock"}


def _raisers(error):
    """Qualified names of the package functions whose body raises ``error``."""
    return {
        f"{path.stem}.{func.name}"
        for path in Path(twistkit.__file__).parent.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Raise) and error in ast.unparse(node)
    }


def _label_index_callers():
    """Qualified names of the package functions (or "<module>") that call
    ``<x>.labels.index(...)``."""
    found = set()
    for path in Path(twistkit.__file__).parent.glob("*.py"):
        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else f"{path.stem}.{node.name}"
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "index" and getattr(func.value, "attr", None) == "labels"):
                found.add(scope or "<module>")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _numpy_importers(module, name="numpy"):
    """Qualified names of the functions (or "<module>") that import numpy (or
    the twistkit module ``name``) at run time; imports under ``if
    TYPE_CHECKING:`` never run."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            return
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Import) and any(a.name == name for a in node.names):
            found.append(scope or "<module>")
        if isinstance(node, ast.ImportFrom) and name in (
            node.module, *(a.name for a in node.names if node.level and not node.module)
        ):
            found.append(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(inspect.getsource(module)), "")
    return found


class TestSampledKernelChecksBite:
    """A wrong sampled kernel fails the suites and ``kernel --verify`` alike."""

    SPECTRUM = "sampled spectrum vs closed form"

    @staticmethod
    def failed(results, name):
        (check,) = [r for r in results if r.name == name]
        return not check.passed

    @pytest.fixture
    def indefinite(self, monkeypatch):
        # Each eigenmode kernel minus its value at zero lag: a Hermitian grid
        # with zero diagonal and trace 0, so it has eigenvalues of both signs,
        # none of them the closed form's.
        closed = correlation.kernel_closed_form

        def shifted(omega, theta, beta, t, s):
            return closed(omega, theta, beta, t, s) - closed(omega, theta, beta, 0.0, 0.0).real

        monkeypatch.setattr(correlation, "kernel_closed_form", shifted)

    def test_indefinite_kernel_fails_the_suites(self, indefinite, minus_one_config, anti_config):
        spec, sym = load_config(minus_one_config)
        assert self.failed(verify.run_suite("kernel", spec, sym), self.SPECTRUM)
        spec, sym = load_config(anti_config)
        assert self.failed(verify.run_suite("kernel", spec, sym), self.SPECTRUM)

    def test_indefinite_kernel_fails_kernel_verify(self, indefinite, anti_config, tmp_path, capsys):
        args = ["kernel", "--beta", "1", "--grid", "16", "--output", str(tmp_path / "k.csv")]
        assert main(args + ["--verify"]) == 1
        assert f"[FAIL] kernel: {self.SPECTRUM}" in capsys.readouterr().err
        args += ["--config", anti_config, "--extended"]
        assert main(args) == 0
        assert main(args + ["--verify"]) == 1
        assert f"[FAIL] kernel: {self.SPECTRUM}" in capsys.readouterr().err

    ENERGY = "lag-0 energy vs partition function"

    @pytest.mark.parametrize(
        "scale", [1.0 - 1e-5, 1.0 - 1e-4, 1.0 + 1e-6, "mirror"],
        ids=["minus_1e-5", "minus_1e-4", "plus_1e-6", "mirror"],
    )
    def test_scaled_kernel_fails_the_energy_identity(self, minus_one_config, monkeypatch, scale):
        # a kernel slightly too small fails as one slightly too large does
        closed = correlation.kernel_closed_form
        if scale == "mirror":
            # the scale s with s R - 1 = -(R - 1), R = h lambda_0 (nu^2 + omega^2),
            # about 0.99832 here: a check that compared the eigenmode residual
            # |s R - 1| with its correct value would pass it, but s moves the
            # lag-0 values, and with them the energy, by the factor s
            h, w2 = 1.0 / 32, math.pi**2 + LN2**2
            r = h * correlation.grid_spectrum(LN2, math.pi, 1.0, 32)[0] * w2
            scale = (2.0 - r) / r
        monkeypatch.setattr(
            correlation, "kernel_closed_form", lambda *args: scale * closed(*args)
        )
        spec, sym = load_config(minus_one_config)
        assert self.failed(verify.run_suite("kernel", spec, sym), self.ENERGY)

    @pytest.mark.parametrize("omega", [10.0, 1000.0])
    def test_energy_identity_passes_correct_kernels_at_large_omega(self, tmp_path, capsys, omega):
        cfg = write_config(tmp_path / "w.json", {"modes": [{"label": "a", "omega": omega}]})
        assert main(["verify", "--config", cfg, "--suite", "kernel"]) == 0

    def test_energy_identity_passes_where_omega_squared_overflows(self, tmp_path, capsys):
        # omega^2 = 1e600 is not a float, but the identity's left side is
        # omega (omega v - 1/2), whose every intermediate is
        cfg = write_config(tmp_path / "w.json", {"modes": [{"label": "a", "omega": 1e300}]})
        assert main(["verify", "--config", cfg, "--suite", "kernel"]) == 0
        assert f"[pass] kernel: {self.ENERGY} (deviation 0.0" in capsys.readouterr().out

    def test_tiny_omega_grid_is_positive_definite(self, tmp_path, capsys, recwarn):
        # omega = 1e-12: max lambda ~ 1.6e25 against a closed-form least
        # eigenvalue of 0.0156.  The stored doubles themselves are indefinite:
        # diagonalized at 50 digits, the exported grid's least eigenvalue is
        # -4.4e8, so these [pass] lines read the closed form, not the file.
        # A certified floor (ROADMAP item 21) will replace what this pins.
        cfg = write_config(tmp_path / "w.json", {"modes": [{"label": "a", "omega": 1e-12}]})
        main(["verify", "--config", cfg, "--suite", "kernel"])
        out = capsys.readouterr().out
        assert "[pass] kernel: sampled kernel positive definite" in out
        assert f"[pass] kernel: {self.SPECTRUM}" in out
        args = ["kernel", "--config", cfg, "--beta", "1", "--grid", "16", "--extended",
                "--verify", "--output", str(tmp_path / "k.csv")]
        assert main(args) == 0
        assert capsys.readouterr().err == ""


class TestRangeExitCodes:
    """Results beyond the float range exit 4; a broken route fails its
    check (exit 1) and never aborts the run.  A NaN or infinite lag value is
    a broken route too: it fails its checks, and ``kernel --verify`` prints
    them before its exporter refuses the non-finite grid (exit 5)."""

    @pytest.mark.parametrize("kind", ["none", "antiunitary"])
    def test_partition_overflow_exits_4(self, tmp_path, capsys, kind):
        modes = [{"label": f"k{i}", "omega": 0.01} for i in range(400)]
        doc = {"modes": modes}
        if kind == "antiunitary":
            doc["symmetry"] = {
                "kind": "antiunitary",
                "pairing": {m["label"]: m["label"] for m in modes},
                "phases": [{"re": 1.0, "im": 0.0}] * 400,
            }
        cfg = write_config(tmp_path / "big.json", doc)
        assert main(["partition", "--config", cfg, "--beta", "1"]) == 4
        assert "outside the float range" in capsys.readouterr().err

    def test_tc_field_beyond_the_float_range_exits_4(self, tmp_path, capsys, recwarn):
        # exp(t omega) at t = 0.41, omega = 1e300 is not a float: a range error,
        # not a failed check with deviation nan
        cfg = write_config(tmp_path / "w.json", {"modes": [{"label": "a", "omega": 1e300}]})
        for suite in ("tc", "all"):
            assert main(["verify", "--config", cfg, "--suite", suite]) == 4
            assert "outside the float range" in capsys.readouterr().err
        assert not recwarn.list

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("extended, failing", [
        (False, ["closed form vs Fock-trace oracle", "sampled kernel twisted-circulant",
                 "sampled spectrum vs closed form"]),
        (True, ["sampled kernel twisted-circulant", "sampled spectrum vs closed form"])])
    def test_non_finite_lag_fails_its_checks_then_exits_5(self, anti_config, tmp_path, monkeypatch,
                                                          capsys, value, extended, failing):
        closed = correlation.kernel_closed_form

        def broken(omega, theta, beta, t, s):
            return complex(value) if t - s == beta / 32 else closed(omega, theta, beta, t, s)

        monkeypatch.setattr(correlation, "kernel_closed_form", broken)
        out = tmp_path / "k.csv"
        args = ["kernel", "--beta", "1", "--grid", "32", "--verify", "--output", str(out)]
        assert main(args + ["--config", anti_config, "--extended"] if extended else args) == 5
        *lines, error = capsys.readouterr().err.splitlines()
        assert [line.split(" (")[0] for line in lines] == [f"[FAIL] kernel: {c}" for c in failing]
        assert error == "error: sampled kernel block has a non-finite entry"
        assert not out.exists()

    def test_internal_consistency_exits_5(self, anti_config, monkeypatch, capsys):
        # every cycle product r read as 1 by the closed form and the traces
        # alike: they still agree, and only 1/det(1 - XU), walked from the
        # slot table, sees it; the suite prints every check line, fails that
        # one and exits 1, not 5
        cycles = SlotAction.cycles.func
        monkeypatch.setattr(SlotAction, "cycles", property(
            lambda action: [(first, length, 1.0 + 0j) for first, length, _ in cycles(action)]))
        assert main(["verify", "--config", anti_config, "--suite", "partition"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            "[pass] partition: untwisted product formula vs truncated trace",
            "[pass] partition: antiunitary square-root identity vs truncated trace",
            "[pass] partition: twist positivity lower bound",
            "[FAIL] partition: closed form vs 1/det(1 - XU)",
            "3/4 checks passed"]


class TestUnitModulusRule:
    """A phase the spec accepts passes every check on U; one it refuses is
    refused by every subcommand."""

    @pytest.mark.parametrize("argv", [
        ["partition", "--beta", "1"], ["verify"], ["kernel", "--beta", "1", "--output", "k.csv"],
        ["kernel", "--beta", "1", "--output", "k.csv", "--extended"],
    ])
    def test_phase_off_by_9e_13_exits_2(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path / "off.json", {
            "modes": [{"label": "a", "omega": 1.0}],
            "symmetry": {"kind": "unitary", "phases": [{"re": 1.0 + 9e-13, "im": 0.0}]},
        })
        argv = [str(tmp_path / a) if a == "k.csv" else a for a in argv]
        assert main(argv + ["--config", cfg]) == 2
        assert "not unit modulus" in capsys.readouterr().err
        assert not (tmp_path / "k.csv").exists()

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
    def test_phase_just_inside_passes_every_suite(self, tmp_path, capsys, n_modes, kind):
        doc = bench_shaped_config(n_modes, kind, n_modes)
        scale = 1.0 + 0.9 * UNIT_MODULUS_TOL
        doc["symmetry"]["phases"] = [{"re": scale * p["re"], "im": scale * p["im"]}
                                     for p in doc["symmetry"]["phases"]]
        cfg = write_config(tmp_path / "cfg.json", doc)
        assert main(["verify", "--config", cfg, "--suite", "all"]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestNaNIsRefused:
    """NaN fails every raising guard: it is never within a tolerance."""

    @staticmethod
    def nan_phase_config(tmp_path):
        return write_config(tmp_path / "nan.json", {
            "modes": [{"label": "a", "omega": 1.0}],
            "symmetry": {"kind": "unitary", "phases": [{"re": math.nan, "im": 0.0}]},
        })

    @pytest.mark.parametrize("argv", [["partition", "--beta", "1"], ["verify"],
                                      ["kernel", "--beta", "1", "--output", "k.csv"]])
    def test_nan_phase_exits_2(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a == "k.csv" else a for a in argv]
        assert main(argv + ["--config", self.nan_phase_config(tmp_path)]) == 2
        assert "not unit modulus" in capsys.readouterr().err
        assert not (tmp_path / "k.csv").exists()

    def test_nan_eigenbasis_fails_the_build_checks(self, anti_config, tmp_path, monkeypatch,
                                                   capsys):
        # a NaN root of the 2-cycle's phase product puts NaN in the eigenbasis
        # and in its eigenphases, whose twist angles the sampled kernel refuses
        # before a CSV is written
        monkeypatch.setattr(realfield, "_cycle_root", lambda r, length: complex("nan"))
        output = tmp_path / "k.csv"
        args = ["kernel", "--config", anti_config, "--beta", "1", "--grid", "4",
                "--output", str(output), "--extended"]
        for verify_flag in ([], ["--verify"]):
            assert main(args + verify_flag) == 2
            assert "theta must lie in [0, 2*pi)" in capsys.readouterr().err
            assert not output.exists()
        with pytest.raises(errors.DomainError):
            verify.run_suite("kernel", *load_config(anti_config))


@pytest.mark.parametrize("factor", [1.0 + 1e-6, math.nan], ids=["scaled", "nan"])
def test_a_wrong_eigenvector_coefficient_fails_the_build_checks(
    anti_config, tmp_path, monkeypatch, capsys, factor
):
    # one coefficient of one eigenvector of the first cycle, off by 1e-6 or NaN:
    # extend builds it as it is, and the checks of the exported basis fail; a
    # NaN reaches the blocks, so the export refuses it before a CSV is written
    eigenpairs = realfield._cycle_eigenpairs
    seen = []

    def broken(units, r):
        pairs = eigenpairs(units, r)
        if not seen:
            pairs[0][1][-1] *= factor
        seen.append(units)
        return pairs

    monkeypatch.setattr(realfield, "_cycle_eigenpairs", broken)
    output = tmp_path / "k.csv"
    args = ["kernel", "--config", anti_config, "--beta", "1", "--grid", "4",
            "--output", str(output), "--extended"]
    failed = ("U W = W Lambda", "W* W = I")
    if math.isnan(factor):
        # --verify reports its failed checks before the exporter refuses
        for verify_flag, reported in (([], []), (["--verify"], failed)):
            seen.clear()
            assert main(args + verify_flag) == 5
            captured = capsys.readouterr()
            assert captured.out == ""
            assert [line.split(" (")[0] for line in captured.err.splitlines()] == [
                *(f"[FAIL] kernel: {name}" for name in reported),
                "error: sampled kernel block has a non-finite entry"]
            assert not output.exists()
    else:
        assert main(args + ["--verify"]) == 1
        assert [line.split(" (")[0] for line in capsys.readouterr().err.splitlines()] == [
            f"[FAIL] kernel: {name}" for name in failed]
    seen.clear()
    results = verify.run_suite("kernel", *load_config(anti_config))
    assert tuple(r.name for r in results if not r.passed) == failed


#: The documented exit code of each error class (see the ``cli`` docstring).
EXIT_CODES = {
    "AdmissibilityError": 2, "ConfigError": 2, "DomainError": 2, "KindError": 2,
    "CapacityError": 3, "RangeError": 4, "InternalConsistencyError": 5,
}
ERROR_CLASSES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.TwistkitError) and c is not errors.TwistkitError),
    key=lambda c: c.__name__,
)


def test_exit_code_table_names_every_error_class():
    assert set(EXIT_CODES) == {c.__name__ for c in ERROR_CLASSES}


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_code(error, monkeypatch, capsys):
    def raising(args):
        raise error("raised by the subcommand")

    monkeypatch.setattr(cli, "_cmd_partition", raising)
    assert main(["partition", "--beta", "1"]) == EXIT_CODES[error.__name__]
    assert capsys.readouterr().err == "error: raised by the subcommand\n"


ONE_MODE = ModeSpectrum(("a",), (1.0,))
ANTI_PAIR = Path(__file__).parent / "golden" / "anti_pair_fixed.json"

#: Inputs each public function used to take unchecked (a nan, a wrong value
#: or a bare ZeroDivisionError), and the TwistkitError each now raises.
REFUSALS = {
    "truncation_tail_bound-nan": (
        lambda: verify.truncation_tail_bound(ONE_MODE, math.nan, 40), errors.DomainError),
    "twisted_tail_bound-nan": (
        lambda: verify.twisted_tail_bound(ONE_MODE, math.nan, 40), errors.DomainError),
    "partition_trace-nan": (
        lambda: verify.partition_trace(ONE_MODE, None, math.nan, 40), errors.DomainError),
    "partition_trace-negative": (
        lambda: verify.partition_trace(ONE_MODE, None, -1.0, 40), errors.DomainError),
    "partition_trace-zero": (
        lambda: verify.partition_trace(ONE_MODE, None, 0.0, 40), errors.DomainError),
    "z_untwisted-inf": (
        lambda: partition.z_twisted(ONE_MODE, None, math.inf), errors.DomainError),
    "truncation_tail_bound-inf": (
        lambda: verify.truncation_tail_bound(ONE_MODE, math.inf, 40), errors.DomainError),
    "geometric_log_derivative-cutoff": (
        lambda: correlation.geometric_log_derivative(0.5 + 0j, -1), errors.DomainError),
    "kernel_oracle-cutoff": (
        lambda: correlation.kernel_oracle(ONE_MODE, None, 1.0, 0.5, 0.0, -1), errors.DomainError),
    "ModeSpectrum-nan": (
        lambda: ModeSpectrum(("a",), (math.nan,)), errors.AdmissibilityError),
    "grid_spectrum-negative-beta": (
        lambda: correlation.grid_spectrum(1.0, 0.3, -1.0, 4), errors.DomainError),
    "grid_spectrum-empty-grid": (
        lambda: correlation.grid_spectrum(1.0, 0.3, 1.0, 0), errors.DomainError),
    "sample_kernels-one-theta-per-omega": (
        lambda: correlation.sample_kernels(1.0, [1.0, 2.0], [0.3], 4), errors.ConfigError),
    "kernel_closed_form-negative-omega": (
        lambda: correlation.kernel_closed_form(-1.0, 0.3, 1.0, 0.5, 0.0), errors.DomainError),
    "kernel_closed_form-theta-7": (
        lambda: correlation.kernel_closed_form(1.0, 7.0, 1.0, 0.5, 0.0), errors.DomainError),
    "kernel_closed_form-nan-omega": (
        lambda: correlation.kernel_closed_form(math.nan, 0.3, 1.0, 0.5, 0.0), errors.DomainError),
    # (cutoff + 1) Horner steps on each of the 2 cycles exceed MAX_TRACE_STEPS
    "partition_trace-above-the-step-cap": (
        lambda: verify.partition_trace(ONE_MODE, None, 1.0, 10**7), errors.CapacityError),
    "partition_trace-fractional-cutoff": (
        lambda: verify.partition_trace(ONE_MODE, None, 1.0, 2.5), errors.DomainError),
    "geometric_log_derivative-fractional-cutoff": (
        lambda: correlation.geometric_log_derivative(0.5 + 0j, 2.5), errors.DomainError),
    "truncation_tail_bound-fractional-cutoff": (
        lambda: verify.truncation_tail_bound(ONE_MODE, 1.0, 2.5), errors.DomainError),
    "twisted_tail_bound-fractional-cutoff": (
        lambda: verify.twisted_tail_bound(ONE_MODE, 1.0, 2.5), errors.DomainError),
    "kernel_oracle-zero-beta": (
        lambda: correlation.kernel_oracle(ONE_MODE, None, 0.0, 0.0, 0.0, 8), errors.DomainError),
    "kernel_oracle-inf-beta": (
        lambda: correlation.kernel_oracle(ONE_MODE, None, math.inf, 0.2, 0.1, 8),
        errors.DomainError),
    "z_via_det-inf-beta": (
        lambda: verify.z_via_det(*load_config(ANTI_PAIR), math.inf), errors.DomainError),
    "sample_kernels-fractional-grid": (
        lambda: correlation.sample_kernels(1.0, [0.7], [0.3], 2.5), errors.DomainError),
    "grid_spectrum-fractional-grid": (
        lambda: correlation.grid_spectrum(0.7, 0.3, 1.0, 2.5), errors.DomainError),
    "sample_extended_kernel-fractional-grid": (
        lambda: realfield.sample_extended_kernel(
            realfield.extend(*load_config(ANTI_PAIR)), 1.0, 2.5), errors.DomainError),
    "FockSpace-fractional-cutoff": (lambda: fock.FockSpace(ONE_MODE, 2.5), errors.DomainError),
    "SymmetrySpec-fractional-pairing": (
        lambda: SymmetrySpec(kind="antiunitary", phases=(1j,), pairing=(0.0,)), errors.ConfigError),
    "SymmetrySpec-string-phase": (
        lambda: SymmetrySpec(kind="unitary", phases=("a",)), errors.ConfigError),
    # |True| = 1, so a bool once passed the unit-modulus rule and was kept as a bool
    "SymmetrySpec-bool-phase": (
        lambda: SymmetrySpec(kind="unitary", phases=(True,)), errors.ConfigError),
    "ModeSpectrum-inf-omega": (
        lambda: ModeSpectrum(("a",), (math.inf,)), errors.DomainError),
    "parse_config-inf-string-omega": (
        lambda: parse_config({"modes": [{"label": "a", "omega": "inf"}]}), errors.ConfigError),
    "parse_config-numeric-string-omega": (
        lambda: parse_config({"modes": [{"label": "a", "omega": "1.5"}]}), errors.ConfigError),
    "parse_config-bool-omega": (
        lambda: parse_config({"modes": [{"label": "a", "omega": True}]}), errors.ConfigError),
    "parse_config-1e309-omega": (
        lambda: parse_config(json.loads('{"modes": [{"label": "a", "omega": 1e309}]}')),
        errors.DomainError),
    "parse_config-bool-phase": (
        lambda: parse_config({"modes": [{"label": "a", "omega": 1.0}], "symmetry": {
            "kind": "unitary", "phases": [{"re": True, "im": 0}]}}), errors.ConfigError),
    # mode -1 would be the last mode, mode 3 is past the end, and the
    # pairing sends a to b, outside (0, 2)
    "restrict-negative-mode": (lambda: restrict(ONE_MODE, None, (-1,)), errors.ConfigError),
    "restrict-mode-past-the-end": (
        lambda: restrict(*load_config(ANTI_PAIR), (3,)), errors.ConfigError),
    "restrict-split-pair": (
        lambda: restrict(*load_config(ANTI_PAIR), (0, 2)), errors.ConfigError),
    "restrict-repeated-mode": (
        lambda: restrict(*load_config(ANTI_PAIR), (2, 2)), errors.ConfigError),
    "validate_spectrum-string-omega": (
        lambda: validate_spectrum([("a", "x")]), errors.ConfigError),
    "validate_spectrum-null-omega": (
        lambda: validate_spectrum([("a", None)]), errors.ConfigError),
    "validate_spectrum-number-label": (
        lambda: validate_spectrum([(1, 1.0)]), errors.ConfigError),
    # the constructor holds the label and number rules itself
    "ModeSpectrum-string-omega": (lambda: ModeSpectrum(("a",), ("x",)), errors.ConfigError),
    "ModeSpectrum-null-omega": (lambda: ModeSpectrum(("a",), (None,)), errors.ConfigError),
    "ModeSpectrum-number-label": (lambda: ModeSpectrum((1,), (1.0,)), errors.ConfigError),
    "ModeSpectrum-bool-omega": (lambda: ModeSpectrum(("a",), (True,)), errors.ConfigError),
    # library guards no CLI input reaches
    "twisted_circle_spectrum-string-twist": (
        lambda: twisted_circle_spectrum("x", 0.0, [1]), errors.ConfigError),
    "twisted_circle_spectrum-string-mass": (
        lambda: twisted_circle_spectrum(1.0, "m", [1]), errors.ConfigError),
    "twisted_circle_spectrum-bool-twist": (
        lambda: twisted_circle_spectrum(True, 0.5, [1]), errors.ConfigError),
    "twisted_circle_spectrum-fractional-mode": (
        lambda: twisted_circle_spectrum(1.0, 0.0, [1.5]), errors.ConfigError),
    "twisted_circle_spectrum-bool-mode": (
        lambda: twisted_circle_spectrum(1.0, 0.0, [True]), errors.ConfigError),
    "ModeSpectrum-misaligned": (
        lambda: ModeSpectrum(("a", "b"), (1.0,)), errors.ConfigError),
    "SymmetrySpec-unknown-kind": (lambda: SymmetrySpec("orthogonal", (1,)), errors.ConfigError),
    "SymmetrySpec-antiunitary-without-pairing": (
        lambda: SymmetrySpec("antiunitary", (1,)), errors.ConfigError),
    "SymmetrySpec-unitary-with-pairing": (
        lambda: SymmetrySpec("unitary", (1,), (0,)), errors.ConfigError),
    "kernel_oracle-two-modes": (
        lambda: correlation.kernel_oracle(
            validate_spectrum([("a", 1.0), ("b", 2.0)]), None, 1.0, 0.5, 0.0, 8),
        errors.ConfigError),
    "kernel_oracle-t-beyond-beta": (
        lambda: correlation.kernel_oracle(ONE_MODE, None, 1.0, 1.5, 0.0, 8), errors.DomainError),
    "run_suite-unknown-suite": (lambda: verify.run_suite("nope", ONE_MODE, None), errors.ConfigError),
    # random.Random would seed from the hash of 1.5
    "run_suite-fractional-seed": (
        lambda: verify.run_suite("partition", ONE_MODE, None, 1.5), errors.DomainError),
    "run_suite-null-seed": (
        lambda: verify.run_suite("partition", ONE_MODE, None, None), errors.DomainError),
    "run_suite-string-seed": (
        lambda: verify.run_suite("partition", ONE_MODE, None, "3"), errors.DomainError),
    # a bool carries __index__, but the one integer rule refuses it
    "FockSpace-bool-cutoff": (lambda: fock.FockSpace(ONE_MODE, True), errors.DomainError),
    "sample_kernels-bool-grid": (
        lambda: correlation.sample_kernels(1.0, [0.7], [0.3], True), errors.DomainError),
    "run_suite-bool-seed": (
        lambda: verify.run_suite("partition", ONE_MODE, None, True), errors.DomainError),
    "SymmetrySpec-bool-pairing": (
        lambda: SymmetrySpec("antiunitary", (1, 1), (True, False)), errors.ConfigError),
    # an extended CSV of m^2 n^2 rows: 410^2 10^2 = 16.81M rows, above 4096^2
    "require_csv_rows-two-pairs-at-410": (
        lambda: correlation.require_csv_rows(1.0, 410, 10), errors.CapacityError),
    "restrict-bool-mode": (
        lambda: restrict(validate_spectrum([("a", 1.0), ("b", 2.0)]), None, (True,)),
        errors.ConfigError),
}


def test_integer_cutoffs_are_accepted():
    # numpy integers carry __index__ and pass the cutoff and size guards like ints do
    assert verify.partition_trace(ONE_MODE, None, 1.0, np.int64(3)) == (
        verify.partition_trace(ONE_MODE, None, 1.0, 3))
    assert correlation.grid_spectrum(0.7, 0.3, 1.0, np.int64(3)) == (
        correlation.grid_spectrum(0.7, 0.3, 1.0, 3))
    assert fock.FockSpace(ONE_MODE, np.int64(2)).dim == fock.FockSpace(ONE_MODE, 2).dim
    sym = SymmetrySpec(kind="antiunitary", phases=(1j, 1j), pairing=(np.int64(1), np.int64(0)))
    assert sym.action.source == SymmetrySpec(kind="antiunitary", phases=(1j, 1j),
                                             pairing=(1, 0)).action.source

    def agreement(m):
        return verify.kernel_agreement(
            correlation.sample_kernels(1.0, [0.7], [0.0], m), 0, 1 + 0j).deviation

    assert agreement(np.int64(4)) == agreement(4)


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS.keys())
def test_unchecked_inputs_are_refused(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "doc, message",
    [({"modes": [{"label": "a", "omega": "x"}]}, "error: modes[0].omega: not a number"),
     ({"modes": [{"label": "a", "omega": [1]}]}, "error: modes[0].omega: not a number"),
     ({"modes": [{"label": "a", "omega": "inf"}]}, "error: modes[0].omega: not a number"),
     ({"modes": [{"label": "a", "omega": "1.5"}]}, "error: modes[0].omega: not a number"),
     ({"modes": [{"label": "a", "omega": True}]}, "error: modes[0].omega: not a number"),
     ({"modes": 5}, "error: modes must be a list"),
     ({"modes": None}, "error: modes must be a list"),
     ({"modes": [{"label": "a", "omega": 1.0}], "symmetry": {"kind": "unitary", "phases": 7}},
      "error: symmetry.phases must be a list"),
     ({"modes": [{"label": [1], "omega": 1.0}]}, "error: modes[0].label: not a string"),
     ({"modes": [{"label": 1.5, "omega": 1.0}]}, "error: modes[0].label: not a string"),
     ({"modes": [{"label": "None", "omega": 1.0}, {"label": None, "omega": 1.0}]},
      "error: modes[1].label: not a string"),
     ({"modes": [{"label": "1", "omega": 1.0}, {"label": "b", "omega": 1.0}],
       "symmetry": {"kind": "antiunitary", "pairing": {"1": "b", "b": 1},
                    "phases": [{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]}},
      "error: symmetry.pairing['b']: not a string")],
    ids=["omega-string", "omega-list", "omega-inf-string", "omega-numeric-string",
         "omega-bool", "modes-number", "modes-null", "phases-number", "label-list",
         "label-number", "label-null", "pairing-number"],
)
def test_non_numeric_config_field_exits_2(doc, message, tmp_path):
    cfg = write_config(tmp_path / "bad.json", doc)
    proc = _run_cli(["-m", "twistkit.cli", "partition", "--config", cfg, "--beta", "1"])
    assert (proc.returncode, proc.stderr) == (2, message + "\n")


@pytest.mark.parametrize("command", [["partition", "--beta", "1"], ["verify"],
                                     ["kernel", "--beta", "1", "--output", "k.csv"]],
                         ids=["partition", "verify", "kernel"])
def test_infinite_omega_exits_2(command, tmp_path, capsys):
    # 1e309 decodes to inf: once Z = 1 (exit 0) or a range error (exit 4)
    cfg = tmp_path / "inf.json"
    cfg.write_text('{"modes": [{"label": "a", "omega": 1e309}]}')
    argv = [str(tmp_path / a) if a == "k.csv" else a for a in command]
    assert main([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: mode 'a' has infinite frequency\n"


def test_config_carrying_mu_exits_2(tmp_path):
    # the shape of every config that spectrum gen used to write
    cfg = write_config(tmp_path / "mu.json", {"modes": [{"label": "a", "omega": 0.5}], "mu": 0.5})
    proc = _run_cli(["-m", "twistkit.cli", "partition", "--config", cfg, "--beta", "1"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: config: unknown field(s) ['mu']\n")


@pytest.mark.parametrize(
    "command",
    [["partition", "--beta", "1"], ["kernel", "--beta", "1", "--output", "k.csv"],
     ["kernel", "--beta", "1", "--output", "k.csv", "--extended"], ["verify"]],
    ids=["partition", "kernel", "kernel-extended", "verify"],
)
def test_empty_config_exits_2(command, tmp_path, capsys):
    cfg = write_config(tmp_path / "empty.json", {"modes": []})
    argv = [str(tmp_path / a) if a == "k.csv" else a for a in command]
    assert main([*argv, "--config", cfg]) == 2
    assert capsys.readouterr() == ("", "error: a spectrum needs at least one mode\n")
    assert not (tmp_path / "k.csv").exists()


ONE_MODE_DOC = [{"label": "a", "omega": 1.0}]


@pytest.mark.parametrize(
    "doc, message",
    [([], "config root must be an object"),
     ({}, "config: missing 'modes'"),
     ({"modes": []}, "a spectrum needs at least one mode"),
     ({"modes": [1.0]}, "modes[0] must be an object"),
     ({"modes": [{"label": "a"}]}, "modes[0]: requires label and omega"),
     ({"modes": ONE_MODE_DOC, "symmetry": []}, "symmetry must be an object"),
     ({"modes": ONE_MODE_DOC, "symmetry": {"kind": "orthogonal"}},
      "symmetry.kind must be 'unitary' or 'antiunitary'"),
     ({"modes": ONE_MODE_DOC, "symmetry": {"kind": "antiunitary", "pairing": ["a", "a"]}},
      "symmetry.pairing must be a label -> label object"),
     ({"modes": ONE_MODE_DOC, "symmetry": {"kind": "antiunitary", "pairing": {}}},
      "symmetry.pairing: missing mode 'a'"),
     ({"modes": ONE_MODE_DOC, "symmetry": {"kind": "antiunitary",
                                           "pairing": {"a": "a", "z": "z"}}},
      "symmetry.pairing mentions unknown modes"),
     ({"modes": ONE_MODE_DOC, "symmetry": {"kind": "antiunitary", "pairing": {"a": "a"}}},
      "pairing and phases must align")],
    ids=["root-list", "no-modes", "empty-modes", "mode-number", "mode-without-omega", "symmetry-list",
         "unknown-kind", "pairing-list", "pairing-missing-mode", "pairing-unknown-mode",
         "pairing-without-phases"],
)
def test_malformed_config_is_refused_by_name(doc, message):
    with pytest.raises(errors.ConfigError) as exc:
        parse_config(doc)
    assert str(exc.value) == message


def test_config_that_is_not_utf8_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16 text, once a bare UnicodeDecodeError
    proc = _run_cli(["-m", "twistkit.cli", "partition", "--config", str(cfg), "--beta", "1"])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {cfg} is not UTF-8 text:")
    assert "Traceback" not in proc.stderr


class TestKernelCommand:
    def test_unrepresentable_kernel_exits_4(self, tmp_path, capsys, recwarn):
        cfg = write_config(tmp_path / "tiny.json", {"modes": [{"label": "k", "omega": 1e-200}]})
        args = ["kernel", "--config", cfg, "--beta", "1", "--grid", "4",
                "--output", str(tmp_path / "k.csv")]
        assert main(args) == 4
        assert capsys.readouterr().err.startswith("error:")
        assert not recwarn.list  # the range error replaces the ill-conditioning warning

    @pytest.mark.parametrize("extended", [False, True], ids=["scalar", "extended"])
    def test_refused_verify_writes_no_file(self, extended, tmp_path, capsys):
        # the kernel samples, but its grid spectrum at omega = 1.5e-154 is
        # beyond the float range: every check runs before the CSV is
        # written, so the refusal leaves no file and keeps an existing one
        cfg = write_config(tmp_path / "tiny.json", {"modes": [{"label": "a", "omega": 1.5e-154}]})
        fresh, kept = tmp_path / "t.csv", tmp_path / "kept.csv"
        kept.write_bytes(b"kept\n")
        for out in (fresh, kept):
            args = ["kernel", "--config", cfg, "--beta", "1", "--grid", "8", "--verify",
                    "--output", str(out)] + ["--extended"] * extended
            with pytest.warns(UserWarning, match="ill-conditioned"):
                assert main(args) == 4
            out_text, err = capsys.readouterr()
            assert out_text == "" and "outside the float range" in err
        assert not fresh.exists()
        assert kept.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("beta", ["1e-300", "1e-150"])
    def test_verify_at_tiny_beta_exits_0(self, beta, tmp_path, capsys):
        # the first bundled mode (omega = 1, rho = i): every lag value is of
        # order beta, near the bottom of the float range
        args = ["kernel", "--beta", beta, "--grid", "3", "--verify",
                "--output", str(tmp_path / "k.csv")]
        assert main(args) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_verify_at_huge_beta_exits_0(self, tmp_path, capsys):
        # the check points are the exported times d*(beta/m); d*beta overflowed
        args = ["kernel", "--beta", "1e308", "--grid", "3", "--verify",
                "--output", str(tmp_path / "k.csv")]
        assert main(args) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_unknown_mode_label_exits_2(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert main(["kernel", "--beta", "1", "--mode", "nope", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown mode label 'nope'\n"
        assert not out.exists()

    def test_infinite_beta_is_refused_by_name(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert main(["kernel", "--beta", "inf", "--grid", "3", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: beta must be finite\n"
        assert not out.exists()

    def test_verify_at_large_omega_exits_0(self, tmp_path, capsys):
        # beta*omega = 1000: the Fock-trace oracle's e^{omega tau} used to overflow
        cfg = write_config(tmp_path / "big.json", {"modes": [{"label": "k", "omega": 1000.0}]})
        args = ["kernel", "--config", cfg, "--beta", "1", "--grid", "8", "--verify",
                "--output", str(tmp_path / "k.csv")]
        assert main(args) == 0
        assert "max three-way disagreement" in capsys.readouterr().out

    def test_deterministic_csv(self, minus_one_config, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["kernel", "--config", minus_one_config, "--beta", "1", "--grid", "8"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 1 + 64

    def test_verify_flag(self, minus_one_config, tmp_path, capsys):
        out = tmp_path / "k.csv"
        rc = main(
            [
                "kernel",
                "--config",
                minus_one_config,
                "--beta",
                "1",
                "--grid",
                "8",
                "--output",
                str(out),
                "--verify",
            ]
        )
        assert rc == 0
        assert "three-way disagreement" in capsys.readouterr().out

    def test_antiunitary_requires_extended(self, anti_config, tmp_path, capsys):
        out = tmp_path / "k.csv"
        rc = main(
            ["kernel", "--config", anti_config, "--beta", "1", "--grid", "4",
             "--output", str(out)]
        )
        assert rc == 2
        assert "--extended" in capsys.readouterr().err

    def test_extended_export(self, anti_config, tmp_path, capsys):
        out = tmp_path / "ext.csv"
        rc = main(
            ["kernel", "--config", anti_config, "--beta", "1", "--grid", "4",
             "--output", str(out), "--extended"]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,s,row_sector,col_sector,re_k,im_k,tail_bound"
        assert len(lines) == 1 + 4 * 4 * 16  # (t, s) pairs x 4x4 sector entries

    def test_extended_verify_keeps_stdout(self, anti_config, tmp_path, capsys):
        args = ["kernel", "--config", anti_config, "--beta", "1", "--grid", "6",
                "--output", str(tmp_path / "ext.csv"), "--extended"]
        assert main(args) == 0
        plain = capsys.readouterr()
        assert main(args + ["--verify"]) == 0
        assert capsys.readouterr() == plain

    def test_extended_flag_exports_the_extended_kernel_of_a_unitary_config(
        self, tmp_path, capsys
    ):
        out = tmp_path / "ext.csv"
        args = ["kernel", "--beta", "1", "--grid", "3", "--output", str(out), "--extended"]
        assert main(args + ["--verify"]) == 0
        assert capsys.readouterr().out == f"wrote extended kernel grid to {out}\n"
        lines = out.read_text().splitlines()
        assert lines[0] == "t,s,row_sector,col_sector,re_k,im_k,tail_bound"
        assert len(lines) == 1 + 3 * 3 * 16  # bundled config: 2 modes, 4 doubled sectors

    @pytest.mark.parametrize("label", ["nope", "a"])
    def test_extended_refuses_mode(self, anti_config, tmp_path, capsys, label):
        # the extended export covers every mode, so any --mode is refused
        # before a file is written
        out = tmp_path / "ext.csv"
        args = ["kernel", "--config", anti_config, "--beta", "1", "--grid", "4",
                "--output", str(out), "--extended", "--mode", label]
        assert main(args) == 2
        assert "--mode" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extended", [False, True])
    def test_empty_grid_exits_2(self, minus_one_config, anti_config, tmp_path, extended):
        cfg = anti_config if extended else minus_one_config
        args = ["kernel", "--config", cfg, "--beta", "1", "--grid", "0",
                "--output", str(tmp_path / "k.csv")]
        assert main(args + ["--extended"] if extended else args) == 2

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("grid", [correlation.MAX_GRID + 1, 100000000000])
    def test_grid_above_the_cap_exits_3(self, minus_one_config, anti_config, tmp_path, capsys,
                                        extended, grid):
        # the one grid guard refuses it before any sampling: at once, and no file
        out = tmp_path / "k.csv"
        args = ["kernel", "--config", anti_config if extended else minus_one_config,
                "--beta", "1", "--grid", str(grid), "--verify", "--output", str(out)]
        assert main(args + ["--extended"] if extended else args) == 3
        assert capsys.readouterr().err == (
            f"error: grid size {grid} exceeds the cap of {correlation.MAX_GRID}\n")
        assert not out.exists()
        correlation._require_kernel(1.0, correlation.MAX_GRID)  # the cap itself is allowed


class TestCsvRowCap:
    """``kernel --extended`` refuses a CSV of more than MAX_GRID**2 rows,
    m^2 n^2 for n doubled columns, before any sampling."""

    TWO_PAIRS = str(GOLDEN / "anti_two_pairs_fixed.json")

    def test_the_cap_is_the_largest_scalar_grid(self):
        # every scalar grid the grid guard accepts passes; n = 10 doubled
        # columns (two pairs) stop at 409: 16.73M rows, where 410 gives 16.81M
        assert len(realfield.extend(*load_config(self.TWO_PAIRS)).phases) == 10
        correlation.require_csv_rows(1.0, correlation.MAX_GRID, 1)
        correlation.require_csv_rows(1.0, 409, 10)
        with pytest.raises(errors.CapacityError, match="grid size"):
            correlation.require_csv_rows(1.0, correlation.MAX_GRID + 1, 1)  # the grid guard first

    @pytest.mark.parametrize("verify_flag", [[], ["--verify"]])
    def test_extended_export_above_the_cap_exits_3(self, tmp_path, monkeypatch, capsys,
                                                   verify_flag):
        monkeypatch.setattr(correlation, "kernel_closed_form", None)  # no sampling
        out = tmp_path / "k.csv"
        assert main(["kernel", "--config", self.TWO_PAIRS, "--extended", "--beta", "1",
                     "--grid", "410", "--output", str(out), *verify_flag]) == 3
        assert capsys.readouterr().err == (
            "error: a 410-point grid of 10 columns has 16810000 CSV rows, "
            "above the cap of 16777216\n")
        assert not out.exists()

    def test_kernel_suite_writes_no_csv_and_runs_at_any_mode_count(self, tmp_path, capsys):
        # 65 modes: the suite's 32-point layout of 130 columns would be a
        # 17.3M-row CSV, but the suite exports none
        modes = [{"label": f"m{k}", "omega": 0.5 + 0.01 * k} for k in range(65)]
        cfg = write_config(tmp_path / "m65.json", {"modes": modes})
        assert main(["verify", "--config", cfg, "--suite", "kernel"]) == 0
        assert capsys.readouterr().out.endswith("8/8 checks passed\n")


def bench_shaped_config(n_modes, kind, seed):
    """Random omegas in [0.3, 3] and unit phases; antiunitary configs pair
    up equal-omega modes and leave one fixed mode when n_modes is odd."""
    rng = np.random.default_rng(seed)

    def phase():
        a = rng.uniform(0.0, 2.0 * math.pi)
        return {"re": math.cos(a), "im": math.sin(a)}

    if kind == "unitary":
        modes = [{"label": f"m{k}", "omega": rng.uniform(0.3, 3.0)} for k in range(n_modes)]
        sym = {"kind": "unitary", "phases": [phase() for _ in modes]}
        return {"modes": modes, "symmetry": sym}
    modes, pairing = [], {}
    for p in range(n_modes // 2):
        omega = rng.uniform(0.3, 3.0)
        modes += [{"label": f"p{p}a", "omega": omega}, {"label": f"p{p}b", "omega": omega}]
        pairing[f"p{p}a"], pairing[f"p{p}b"] = f"p{p}b", f"p{p}a"
    if n_modes % 2:
        modes.append({"label": "f", "omega": rng.uniform(0.3, 3.0)})
        pairing["f"] = "f"
    sym = {"kind": "antiunitary", "pairing": pairing, "phases": [phase() for _ in modes]}
    return {"modes": modes, "symmetry": sym}


class TestVerifyReach:
    """The dense suites run per factor, so verify reaches any mode count."""

    @pytest.mark.parametrize("n_modes", [4, 5])
    @pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
    def test_four_and_five_modes_pass(self, tmp_path, capsys, n_modes, kind):
        cfg = write_config(tmp_path / "cfg.json", bench_shaped_config(n_modes, kind, n_modes))
        assert main(["verify", "--config", cfg, "--suite", "all", "--seed", "17"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.strip().endswith("checks passed")

    def test_seven_mode_circle_passes(self, tmp_path, capsys):
        # seven modes admitted only cutoff 1 in one tensor; each is now its own factor
        cfg = str(tmp_path / "circle.json")
        assert main(["spectrum", "gen", "twisted-circle", "--twist", "1", "--mass", "0.5",
                     "--n-min", "-3", "--n-max", "3", "--output", cfg]) == 0
        assert main(["verify", "--config", cfg, "--suite", "all"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.strip().endswith("checks passed")

    def test_twelve_unitary_modes_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", bench_shaped_config(12, "unitary", 12))
        assert main(["verify", "--config", cfg, "--suite", "all"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.strip().endswith("checks passed")

    @pytest.mark.parametrize("config", [bench_shaped_config(5, "unitary", 5),
                                        bench_shaped_config(5, "antiunitary", 5)],
                             ids=["unitary-5", "two-pairs-one-fixed"])
    def test_no_tensor_exceeds_one_pair_factor(self, tmp_path, monkeypatch, config):
        # every space verify builds is a factor, at cutoff 8, or the union of
        # the first two factors; none holds more than 9**4 states, and none
        # has a lower cutoff than one tensor of all five modes had
        built = []
        init = fock.FockSpace.__init__

        def recording(space, spectrum, cutoff):
            init(space, spectrum, cutoff)
            built.append((len(spectrum), space.dim, space.cutoff))

        monkeypatch.setattr(fock.FockSpace, "__init__", recording)
        cfg = write_config(tmp_path / "cfg.json", config)
        assert main(["verify", "--config", cfg, "--suite", "all"]) == 0
        assert max(dim for _, dim, _ in built) <= 9**4
        assert {cutoff for n_modes, _, cutoff in built if n_modes <= 2} == {8}
        assert min(cutoff for _, _, cutoff in built) >= fock.oracle_cutoff(5)

    def test_mode_checks_keep_the_order_of_the_modes(self, tmp_path):
        # a <-> c with b fixed: factors (a, c) and (b), lines still a, b, c
        config = {"modes": [{"label": "a", "omega": 0.8}, {"label": "b", "omega": 1.3},
                            {"label": "c", "omega": 0.8}],
                  "symmetry": {"kind": "antiunitary", "pairing": {"a": "c", "b": "b", "c": "a"},
                               "phases": [{"re": 0.6, "im": 0.8}, {"re": 0.0, "im": 1.0},
                                          {"re": 0.8, "im": -0.6}]}}
        spectrum, sym = load_config(write_config(tmp_path / "cfg.json", config))
        assert fock.factors(spectrum, sym) == [(0, 2), (1,)]
        names = [r.name for r in verify.run_suite("symmetry", spectrum, sym)]
        rule = "U alpha+*({0}) U* = eta alpha-*(pi({0}))"
        per_mode = [rule.format(lbl) for lbl in "abc"]
        common = ["U is unitary", "[U, H] = 0", "U fixes the vacuum"]
        assert names == common + per_mode + [
            n + fock.CROSS_FACTOR_SUFFIX for n in common + per_mode]

    @pytest.mark.parametrize("config", [None, "anti_pair_fixed.json"], ids=["default", "anti"])
    def test_a_seed_fixes_every_deviation(self, config):
        path = None if config is None else str(Path(__file__).parent / "golden" / config)
        spectrum, sym = cli._load(path)

        def run(seed):
            return [(r.name, r.deviation) for r in verify.run_suite("all", spectrum, sym, seed)]

        first = run(5)
        assert run(5) == first  # bit-identical
        assert run(6) != first


def bare_extrema(source, scope):
    """The line of every name ``max`` or ``min``, the builtins, in the
    top-level statements of ``source`` that ``scope`` accepts by the name
    they define (None for a statement that defines none)."""
    return [node.lineno for stmt in ast.parse(source).body if scope(getattr(stmt, "name", None))
            for node in ast.walk(stmt) if isinstance(node, ast.Name) and node.id in ("max", "min")]


def test_checks_reduce_deviations_through_worst_alone():
    # ROADMAP item 24: a bare max or min may drop a NaN, so every deviation
    # and data-derived threshold in verify, and in the bodies of the fock
    # checks, goes through the NaN-aware _worst
    assert bare_extrema(inspect.getsource(verify), lambda name: name != "_worst") == []
    checks = [name for name in vars(fock) if name.endswith("_checks")]
    assert len(checks) == 4
    assert bare_extrema(inspect.getsource(fock), lambda name: name in checks) == []
    # the checker bites: the bare reduction the kernel oracle check once took
    broken = "def kernel_agreement(lags):\n    worst = max(worst, err)\n"
    assert bare_extrema(broken, lambda name: name != "_worst") == [2]
    assert bare_extrema("def _worst(d):\n    return max(d)\n", lambda name: name != "_worst") == []


def test_factored_checks_keep_the_worst_deviation_and_a_nan():
    spectrum = validate_spectrum([("a", 1.0), ("b", 2.0), ("c", 3.0)])
    worst = {"a": 1e-13, "b": 0.0, "c": 2e-13}
    seen = []

    def checks(factor, sym, rng, cutoff):
        seen.append((factor.labels, cutoff, rng.random()))
        return [verify.CheckResult("x", f"only {lbl}", 0.0, 0.0, mode=k)
                for k, lbl in enumerate(factor.labels)] + [
            verify.CheckResult("x", "shared", max(worst[lbl] for lbl in factor.labels), 1e-12),
            verify.CheckResult("x", "nan", math.nan if factor.labels == ("b",) else 0.0, 1e-12)]

    merged = fock._factored(checks, spectrum, None, 7)
    cross = [name + fock.CROSS_FACTOR_SUFFIX
             for name in ("only a", "only b", "shared", "nan")]
    # the checks of one mode follow the others, by mode; then the run across two factors
    assert [(c.name, c.threshold) for c in merged] == [
        ("shared", 1e-12), ("nan", 1e-12), ("only a", 0.0), ("only b", 0.0), ("only c", 0.0),
        *zip(cross, (0.0, 0.0, 1e-12, 1e-12))]
    assert [c.mode for c in merged[:5]] == [None, None, 0, 1, 2]
    assert merged[0].deviation == 2e-13
    assert math.isnan(merged[1].deviation) and not merged[1].passed
    assert merged[7].deviation == 1e-13 and merged[8].passed
    # one generator, drawn from factor by factor in order of smallest mode,
    # then on the first two factors at the cutoff of fock.CROSS_STATES
    rng = random.Random(7)
    expected = [(("a",), 8), (("b",), 8), (("c",), 8), (("a", "b"), 8)]
    assert seen == [(labels, cutoff, rng.random()) for labels, cutoff in expected]


def test_dense_checks_share_one_signature():
    # every check _factored runs takes (spectrum, sym, rng, cutoff), and one
    # validated restriction cuts a factor out of the space
    for checks in (fock._ccr_checks, fock._tc_checks, fock._symmetry_checks,
                   fock.doubled_field_checks):
        params = inspect.signature(checks).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            (name, inspect.Parameter.empty) for name in ("spectrum", "sym", "rng", "cutoff")]
    runner = inspect.getsource(verify._dense)
    assert '"realfield": fock.doubled_field_checks' in runner
    assert "fock._factored(checks," in runner
    assert '_dense("realfield", spectrum, sym, seed)' in inspect.getsource(verify._realfield)
    for owner, name in ((fock, "_doubled_checks"), (fock, "_generalized_permutation"),
                        (SymmetrySpec, "restrict")):
        assert not hasattr(owner, name), name
    assert fock.restrict is restrict


class TestVerifyPower:
    """Deliberately broken Fock oracles fail ``verify --suite all``."""

    def bundled_fails(self):
        spectrum, sym = cli._load(None)
        return not all(r.passed for r in verify.run_suite("all", spectrum, sym))

    def test_amplitude_table(self, monkeypatch):
        def seven(cutoff):
            amps = np.sqrt(np.arange(1.0, cutoff + 1))
            amps[1:] = 7.0  # sqrt(n + 1) -> 7 for n >= 1
            return amps

        monkeypatch.setattr(fock, "_creation_amplitudes", seven)
        assert self.bundled_fails()

    def test_flipped_charge_phase_convention(self, monkeypatch):
        apply_symmetry = fock.apply_symmetry

        def flipped(space, sym, state):
            # conj(rho) on the + charge and rho on the - charge
            conj = SymmetrySpec(kind="unitary", phases=tuple(np.conj(sym.phases)))
            return apply_symmetry(space, conj, state)

        monkeypatch.setattr(fock, "apply_symmetry", flipped)
        assert self.bundled_fails()

    def test_tc_without_conjugation(self, monkeypatch):
        apply_tc = fock.apply_tc
        monkeypatch.setattr(fock, "apply_tc", lambda space, state: np.conj(apply_tc(space, state)))
        assert self.bundled_fails()


class TestDoubledFieldChecks:
    """The doubled-field oracle of the ``realfield`` suite."""

    @pytest.mark.parametrize(
        "sym",
        [
            SymmetrySpec(kind="unitary", phases=(np.exp(0.9j),)),
            SymmetrySpec(kind="antiunitary", phases=(1.0 + 0j,), pairing=(0,)),
        ],
        ids=["unitary", "antiunitary"],
    )
    def test_deviations_small(self, sym):
        spec = validate_spectrum([("k0", 1.0)])
        for check in fock.doubled_field_checks(spec, sym, random.Random(0), 12):
            assert check.deviation < 1e-8, f"{check.name}: {check.deviation}"

    def test_equal_time_commutator_two_modes(self):
        spec = validate_spectrum([("a", 0.7), ("b", 0.7)])
        sym = SymmetrySpec(
            kind="antiunitary", phases=(1j, np.exp(0.4j)), pairing=(1, 0)
        )
        report = {c.name: c.deviation
                  for c in fock.doubled_field_checks(spec, sym, random.Random(0), 3)}
        assert report["doubled-field oracle: equal_time_commutator"] < 1e-12
        assert report["doubled-field oracle: symmetry_covariance"] < 1e-8

    def test_natural_conjugation_without_half_swap_fails_the_definition_check(self, monkeypatch):
        # psi is built from fock's tables, not through J, so J = conj breaks
        # every identity that reads J except [A*(Jq)*, A*(r)] = <Jq, r>, which
        # holds for any J; A(q) read off q no longer equals A*(Jq)*
        monkeypatch.setattr(fock, "_natural_conjugation", np.conj)
        spectrum, sym = load_config(str(Path(__file__).parent / "golden" / "anti_pair_fixed.json"))
        failed = {r.name: r.deviation for r in verify.run_suite("realfield", spectrum, sym)
                  if not r.passed}
        assert sorted(failed) == sorted(
            name + suffix
            for name in ("doubled-field oracle: adjoint_covariance",
                         "doubled-field oracle: annihilation_definition",
                         "doubled-field oracle: canonical_pair")
            for suffix in ("", fock.CROSS_FACTOR_SUFFIX)
        )
        assert failed["doubled-field oracle: annihilation_definition"] > 1.0

    def test_u_in_place_of_u_star_fails_symmetry_covariance(self, monkeypatch):
        # conjugated phases in the image table turn the U* q map into one by U
        extend = realfield.extend

        def conjugated(spectrum, sym):
            ext = extend(spectrum, sym)
            ext.images = {c: (target, u.conjugate()) for c, (target, u) in ext.images.items()}
            return ext

        monkeypatch.setattr(realfield, "extend", conjugated)
        spectrum, sym = load_config(str(Path(__file__).parent / "golden" / "anti_pair_fixed.json"))
        failed = {r.name: r.deviation for r in verify.run_suite("realfield", spectrum, sym)
                  if not r.passed}
        covariance = "doubled-field oracle: symmetry_covariance"
        assert list(failed) == [covariance, covariance + fock.CROSS_FACTOR_SUFFIX]
        assert failed["doubled-field oracle: symmetry_covariance"] > 1.0
        # the exported basis is no longer one of U's eigenvectors
        kernel = verify.run_suite("kernel", spectrum, sym)
        assert [r.name for r in kernel if not r.passed] == ["U W = W Lambda"]


def test_no_environment_knobs():
    # behaviour is set by arguments and config files only
    for path in Path(twistkit.__file__).parent.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        assert "os.environ" not in source and "getenv" not in source, path.name
    assert not hasattr(fock, "DenseOperator")


def test_symmetry_kinds_are_normalized_in_one_place():
    # partition and realfield read the slot action only; what each kind
    # does is known to twistkit.spectrum alone
    for module in (partition, realfield):
        source = inspect.getsource(module)
        for name in ("UNITARY", "ANTIUNITARY", "partner_index", ".kind"):
            assert name not in source, (module.__name__, name)
    for name in ("z_twisted_unitary", "z_twisted_antiunitary", "antiunitary_partition_trace"):
        assert not hasattr(partition, name), name
    # correlation, cli, verify and fock choose their routes from the slot
    # action too.  The symmetry suite's checks are left out: their expected
    # rules are written from the raw phases and pairing, per kind, so that
    # a broken normal form fails them instead of agreeing with itself
    # (TestNormalFormIsNotCircular).
    raw_rule = inspect.getsource(fock._symmetry_checks)
    # the one-mode spec kernel_agreement hands kernel_oracle, whose
    # (spectrum, sym, ...) signature the benchmark's checks call
    single = "single_sym = SymmetrySpec(kind=UNITARY, phases=(rho,))"
    assert single in inspect.getsource(verify.kernel_agreement)
    for module in (correlation, cli, verify, fock):
        source = inspect.getsource(module).replace(raw_rule, "")
        for name in (".kind", "ANTIUNITARY", "partner_index"):
            assert name not in source, (module.__name__, name)
        uses = [
            line.strip() for line in source.splitlines()
            if "UNITARY" in line and not line.lstrip().startswith("from ")
        ]
        assert uses == ([single] if module is verify else []), module.__name__


#: Two modes and no symmetry: every suite runs on the unitary identity.
NO_SYMMETRY = {"modes": [{"label": "a", "omega": 0.7}, {"label": "b", "omega": 1.3}]}


@pytest.mark.parametrize("config", [NO_SYMMETRY, None, ANTI_PAIR],
                         ids=["no-symmetry", "bundled-unitary", "anti-pair-fixed"])
def test_each_suite_runs_exactly_where_it_applies(config, tmp_path, capsys):
    # every suite applies to every config, the identity included: no explicit
    # run exits 2, and "all" runs all six in table order
    if isinstance(config, dict):
        config = write_config(tmp_path / "cfg.json", config)
    args = ["verify"] if config is None else ["verify", "--config", str(config)]
    names = verify.SUITES[:-1]
    assert [main([*args, "--suite", s]) for s in names] == [0] * len(names)
    capsys.readouterr()
    assert main([*args, "--suite", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    listed = [suite for suite, _ in itertools.groupby(line.split()[1][:-1] for line in lines)]
    assert listed == list(names)


@pytest.mark.parametrize(
    "config", [None, ANTI_PAIR, GOLDEN / "anti_two_pairs_fixed.json", NO_SYMMETRY],
    ids=["bundled", "anti-pair-fixed", "anti-two-pairs-fixed", "no-symmetry"])
def test_all_runs_each_check_once(config):
    # one route per check: no two suites run a check of the same name
    if isinstance(config, dict):
        spectrum, sym = parse_config(config)
    else:
        spectrum, sym = load_config(config) if config else cli._load(None)
    names = [r.name for r in verify.run_suite("all", spectrum, sym)]
    assert len(names) == len(set(names))


def test_run_suite_is_the_one_entry_to_the_suites():
    assert [name for name in vars(verify) if name.startswith("suite")] == []


class TestVerifyCommand:
    def test_all_suites_on_default_config(self, capsys):
        assert main(["verify", "--suite", "all"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_tc_suite(self, minus_one_config, capsys):
        assert main(["verify", "--config", minus_one_config, "--suite", "tc"]) == 0

    def test_partition_suite_antiunitary(self, anti_config, capsys):
        assert main(["verify", "--config", anti_config, "--suite", "partition"]) == 0

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "bogus"])
        assert err.value.code == 2


def three_mode_anti_doc(pairing):
    one = {"re": 1.0, "im": 0.0}
    return {
        "modes": [{"label": lbl, "omega": 0.7} for lbl in ("a", "b", "c")],
        "symmetry": {"kind": "antiunitary", "pairing": pairing,
                     "phases": [{"re": 0.6, "im": 0.8}, one, one]},
    }


class TestPairingConfig:
    """A config's pairing names modes by label; it is read into mode indices once."""

    def test_key_order_does_not_matter(self, tmp_path, capsys):
        outs = []
        for i, pairing in enumerate(({"a": "b", "b": "a", "c": "c"},
                                     {"c": "c", "b": "a", "a": "b"})):
            doc = three_mode_anti_doc(pairing)
            assert parse_config(doc)[1].pairing == (1, 0, 2)
            cfg = write_config(tmp_path / f"order{i}.json", doc)
            assert main(["verify", "--config", cfg, "--suite", "symmetry"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "U alpha+*(a) U* = eta alpha-*(pi(a))" in outs[0]

    @pytest.mark.parametrize(
        "pairing, message",
        [({"a": "b", "b": "zz", "c": "c"}, "pairing is not a permutation of the mode labels"),
         ({"a": "b", "b": "c", "c": "a"}, "pairing must be an involution")],
        ids=["unknown-label", "three-cycle"],
    )
    def test_bad_pairing_exits_2(self, pairing, message, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json", three_mode_anti_doc(pairing))
        assert main(["partition", "--config", cfg, "--beta", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSpectrumGen:
    def test_twisted_circle_output(self, capsys):
        rc = main(
            [
                "spectrum", "gen", "twisted-circle",
                "--twist", str(math.pi), "--n-min", "-1", "--n-max", "0",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(m["omega"] for m in doc["modes"]) == [0.5, 0.5]

    def test_output_is_the_modes_and_parses_back(self, capsys):
        assert main(["spectrum", "gen", "twisted-circle", "--twist", "1", "--mass", "0.5",
                     "--n-min", "-3", "--n-max", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["modes"]
        assert parse_config(doc) == (twisted_circle_spectrum(1.0, 0.5, range(-3, 4)), None)

    def test_negative_mass_exits_2(self, capsys):
        assert main(["spectrum", "gen", "twisted-circle", "--twist", "1", "--mass", "-1",
                     "--n-min", "0", "--n-max", "2"]) == 2
        assert capsys.readouterr().err == "error: mass must be nonnegative\n"

    def test_empty_range_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["spectrum", "gen", "twisted-circle", "--twist", "1", "--n-min", "3",
                     "--n-max", "2", "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: a spectrum needs at least one mode\n")
        assert not out.exists()

    def test_massless_untwisted_exits_2(self, capsys):
        rc = main(
            ["spectrum", "gen", "twisted-circle", "--twist", "0",
             "--n-min", "0", "--n-max", "2"]
        )
        assert rc == 2

    def test_massless_untwisted_without_its_zero_mode(self, tmp_path, capsys):
        # only n = 0 is a zero mode; a range without it is a massless circle
        cfg = tmp_path / "circle.json"
        assert main(["spectrum", "gen", "twisted-circle", "--twist", "0", "--n-min", "1",
                     "--n-max", "3", "--output", str(cfg)]) == 0
        spectrum, sym = load_config(str(cfg))
        assert (spectrum.omegas, sym) == ((1.0, 2.0, 3.0), None)
        assert main(["partition", "--config", str(cfg), "--beta", "1"]) == 0

    def test_output_roundtrips_through_partition(self, tmp_path, capsys):
        cfg = tmp_path / "circle.json"
        assert (
            main(
                ["spectrum", "gen", "twisted-circle", "--twist", "1.0", "--mass", "0.5",
                 "--n-min", "-2", "--n-max", "2", "--output", str(cfg)]
            )
            == 0
        )
        assert main(["partition", "--config", str(cfg), "--beta", "1"]) == 0
