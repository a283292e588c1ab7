import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistkit
from twistkit import fock
from twistkit.cli import main
from twistkit.spectrum import load_config

LN2 = math.log(2.0)


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
        cfg = write_config(tmp_path / "empty.json", {"modes": []})
        assert main(["partition", "--config", cfg, "--beta", "1"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[2]) == 1.0

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["partition", "--config", str(bad), "--beta", "1"]) == 2

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"modes": [], "bogus": True})
        assert main(["partition", "--config", cfg, "--beta", "1"]) == 2

    def test_antiunitary_table(self, anti_config, capsys):
        assert main(["partition", "--config", anti_config, "--beta", "1"]) == 0

    def test_antiunitary_oracle_uses_requested_cutoff(self, anti_config, capsys):
        args = ["partition", "--config", anti_config, "--beta", "1", "--cutoff", "12"]
        assert main(args) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        spec, _ = load_config(anti_config)
        assert row[6] == f"{fock.truncation_tail_bound(spec, 1.0, 12):.16e}"


def test_cli_import_does_not_load_scipy():
    code = "import sys, twistkit.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(twistkit.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"


class TestRangeExitCodes:
    """Results beyond the float range exit 4, failed internal checks exit 5."""

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

    def test_internal_consistency_exits_5(self, anti_config, tmp_path, monkeypatch, capsys):
        from twistkit import cli
        from twistkit.errors import InternalConsistencyError

        def broken(spectrum, sym):
            raise InternalConsistencyError("induced matrix not unitary (1.000e+00)")

        monkeypatch.setattr(cli.realfield, "extend", broken)
        args = ["kernel", "--config", anti_config, "--beta", "1", "--grid", "4",
                "--output", str(tmp_path / "k.csv"), "--extended"]
        assert main(args) == 5
        assert "not unitary" in capsys.readouterr().err


class TestKernelCommand:
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

    @pytest.mark.parametrize("extended", [False, True])
    def test_empty_grid_exits_2(self, minus_one_config, anti_config, tmp_path, extended):
        cfg = anti_config if extended else minus_one_config
        args = ["kernel", "--config", cfg, "--beta", "1", "--grid", "0",
                "--output", str(tmp_path / "k.csv")]
        assert main(args + ["--extended"] if extended else args) == 2


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

    def test_massless_untwisted_exits_2(self, capsys):
        rc = main(
            ["spectrum", "gen", "twisted-circle", "--twist", "0",
             "--n-min", "0", "--n-max", "2"]
        )
        assert rc == 2

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
