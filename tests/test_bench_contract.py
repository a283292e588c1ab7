"""The call shapes the benchmark harness relies on.

``bench/checks.py`` calls the Fock-trace kernel oracle, the truncation tail
bound through ``fock`` and the dense induced unitary of the doubled space,
and parses the ``max three-way disagreement`` line of ``kernel --verify``;
``bench/spans.py`` reads ``path`` from each ``export_kernel_csv`` call,
which it wraps as a module function.  The harness runs only in benchmark
runs, so a refactor that changes one of these shapes would show there
first, as a failed run; these tests catch it here.
"""

import cmath
import inspect
import re

import numpy as np
import pytest

from twistkit import cli, correlation, fock, realfield, verify
from twistkit.spectrum import UNITARY, SymmetrySpec, parse_config, validate_spectrum

SINGLE = validate_spectrum([("k", 0.7)])
SINGLE_SYM = SymmetrySpec(kind=UNITARY, phases=(cmath.exp(0.4j),))


def _bound(fn, *args, **kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _module_function(module, name):
    """A public function defined in ``module``: what the span tracer wraps."""
    fn = getattr(module, name)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
    return fn


def test_kernel_oracle_takes_single_sym_beta_t_s_cutoff():
    oracle = _module_function(correlation, "kernel_oracle")
    args = (SINGLE, SINGLE_SYM, 1.3, 0.5, 0.2, 800)
    assert list(_bound(oracle, *args)) == ["spectrum", "sym", "beta", "t", "s", "cutoff"]
    theta = correlation.kernel_twist_angle(SINGLE_SYM.phases[0])
    closed = correlation.kernel_closed_form(0.7, theta, 1.3, 0.5, 0.2)
    assert abs(oracle(*args) - closed) <= verify.truncation_tail_bound(SINGLE, 1.3, 800) + 1e-12


def test_kernel_verify_prints_the_fock_trace_disagreement(tmp_path, monkeypatch, capsys):
    # the line bench/checks.py parses, with the regex it parses it by
    found, agreement = [], verify.kernel_agreement

    def recording(sampled, k, rho):
        check = agreement(sampled, k, rho)
        found.append(check)
        return check

    monkeypatch.setattr(verify, "kernel_agreement", recording)
    argv = ["kernel", "--beta", "1", "--grid", "8", "--verify", "--output", str(tmp_path / "k.csv")]
    assert cli.main(argv) == 0
    values = re.findall(r"max three-way disagreement: (\S+)", capsys.readouterr().out)
    assert [check.name for check in found] == ["closed form vs Fock-trace oracle"]
    assert [float(v) for v in values] == [found[0].deviation]


def test_export_kernel_csv_names_its_first_parameter_path(tmp_path):
    export = _module_function(correlation, "export_kernel_csv")
    sampled = correlation.sample_kernels(1.3, [0.7], [1.1], 4)
    assert list(inspect.signature(export).parameters) == ["path", "sampled"]
    assert _bound(export, tmp_path / "k.csv", sampled)["path"] == tmp_path / "k.csv"


def test_fock_reexports_the_truncation_tail_bound():
    bound = fock.truncation_tail_bound
    assert bound is verify.truncation_tail_bound
    assert list(_bound(bound, SINGLE, 1.3, 800)) == ["spectrum", "beta", "cutoff"]


def test_extended_spectrum_has_the_dense_induced_unitary():
    spec, sym = parse_config({
        "modes": [{"label": "a", "omega": 0.8}, {"label": "b", "omega": 0.8}],
        "symmetry": {"kind": "antiunitary", "pairing": {"a": "b", "b": "a"},
                     "phases": [{"re": 0.6, "im": 0.8}, {"re": 1.0, "im": 0.0}]},
    })
    induced = np.asarray(realfield.extend(spec, sym).induced)
    assert induced.shape == (4, 4)
    assert np.abs(induced.conj().T @ induced - np.eye(4)).max() <= 1e-12


@pytest.mark.parametrize("extended", [False, True], ids=["scalar", "extended"])
def test_both_kernel_routes_write_through_the_one_exporter(extended, tmp_path, monkeypatch):
    # the tracer attributes a CSV to the correlation layer by the path it
    # records on correlation.export_kernel_csv
    paths, export = [], correlation.export_kernel_csv

    def recording(path, sampled):
        paths.append(path)
        export(path, sampled)

    monkeypatch.setattr(correlation, "export_kernel_csv", recording)
    out = str(tmp_path / "k.csv")
    argv = ["kernel", "--beta", "1", "--grid", "4", "--output", out]
    assert cli.main(argv + (["--extended"] if extended else [])) == 0
    assert paths == [out]
