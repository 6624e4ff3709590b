import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import carmik
from carmik import cli

NU2_CONFIG = """z = 74
nu = 2
omega_g = 1
omega_d = 1
j_cap = 40
k_cap = 4000
q_subset_size = 2
"""

# Family 2 is empty mod 3 here, so the harvest stops at search_P2.
FAMILY2_FAILURE_CONFIG = """z = 200
nu = 2
omega_g = 1
omega_d = 2
j_cap = 40
k_cap = 4000
q_subset_size = 3
"""


class TestCheck:
    def test_positive(self, capsys):
        assert cli.main(["check", "561"]) == 0
        out = capsys.readouterr().out
        assert "K = 2" in out and "3*11*17" in out

    def test_negative(self, capsys):
        assert cli.main(["check", "562"]) == 1
        assert "not a Carmichael number" in capsys.readouterr().out

    def test_prime(self, capsys):
        assert cli.main(["check", "7"]) == 1
        assert "prime" in capsys.readouterr().out

    def test_bad_argument(self):
        assert cli.main(["check", "1"]) == 3


class TestCensus:
    def test_limit_1000(self, capsys):
        assert cli.main(["census", "--limit", "1000"]) == 0
        out = capsys.readouterr().out
        assert "561,2" in out
        assert "# 1 Carmichael numbers <= 1000" in out

    def test_filter_and_csv(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        assert cli.main(["census", "--limit", "10000", "--k", "4", "--csv", str(target)]) == 0
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["n", "k_invariant"], ["1105", "4"], ["2465", "4"]]

    def test_limit_past_the_table_cap(self, capsys):
        assert cli.main(["census", "--limit", str(10**17)]) == 3
        assert "past the cap of 100000000 bytes" in capsys.readouterr().err


class TestApScan:
    def test_range_summary(self, capsys):
        assert cli.main(["ap-scan", "--lmin", "4", "--lmax", "4"]) == 0
        out = capsys.readouterr().out
        assert "global max ratio 0.6504 at l=4, b=1" in out

    def test_csv(self, tmp_path):
        target = tmp_path / "scan.csv"
        assert cli.main(["ap-scan", "--lmin", "2", "--lmax", "20", "--csv", str(target)]) == 0
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["l", "b", "p", "ratio"]
        assert len(rows) == 20  # one worst-case row per modulus

    @pytest.mark.parametrize("module", ["carmik", "carmik.cli"])
    def test_module_entry_points(self, module):
        src = str(Path(carmik.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", module, "ap-scan", "--lmin", "4", "--lmax", "4"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "global max ratio 0.6504 at l=4, b=1" in done.stdout


class TestDavenport:
    def test_modulus_8(self, capsys):
        assert cli.main(["davenport", "--modulus", "8"]) == 0
        out = capsys.readouterr().out
        assert "<7> (order 2), <5> (order 2)" in out
        assert "3.386294" in out


class TestZerosum:
    def test_witness(self, capsys):
        assert cli.main(["zerosum", "--modulus", "5", "--elements", "2", "3"]) == 0
        assert "2*3 == 1 (mod 5)" in capsys.readouterr().out

    def test_no_witness(self, capsys):
        assert cli.main(["zerosum", "--modulus", "5", "--elements", "2", "2"]) == 2
        assert "no product-one subsequence" in capsys.readouterr().out

    def test_non_unit(self, capsys):
        assert cli.main(["zerosum", "--modulus", "10", "--elements", "5"]) == 3


class TestConstruct:
    def test_zero_sum_exhaustion_reports_stage(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(NU2_CONFIG)
        code = cli.main(
            ["construct", "--config", str(cfg), "--workdir", str(tmp_path / "out")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "zero-sum-1" in captured.err
        assert "insufficient primes" in captured.err
        # The instance document is written before the stage wall.
        assert (tmp_path / "out" / "instance.txt").exists()
        timings = json.loads((tmp_path / "out" / "timings.json").read_text())
        assert list(timings)[-1] == "zero_sum"

    def test_failed_harvest_writes_timings_only(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAMILY2_FAILURE_CONFIG)
        workdir = tmp_path / "out"
        assert cli.main(["construct", "--config", str(cfg), "--workdir", str(workdir)]) == 2
        assert "family-2" in capsys.readouterr().err
        timings = json.loads((workdir / "timings.json").read_text())
        assert list(timings) == ["build_J", "populate_R", "select_split", "search_P1", "search_P2"]
        assert not (workdir / "instance.txt").exists()

    def test_resume_under_another_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(NU2_CONFIG)
        workdir = tmp_path / "out"
        cli.main(["construct", "--config", str(cfg), "--workdir", str(workdir)])
        other = tmp_path / "nu4.cfg"
        other.write_text(NU2_CONFIG.replace("nu = 2", "nu = 4"))
        capsys.readouterr()
        code = cli.main(["construct", "--config", str(other), "--workdir", str(workdir),
                         "--resume", str(workdir / "instance.txt")])
        assert code == 3
        assert capsys.readouterr().err == "error: the config and the instance differ in nu\n"

    def test_resume_hits_the_same_wall(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(NU2_CONFIG)
        workdir = tmp_path / "out"
        cli.main(["construct", "--config", str(cfg), "--workdir", str(workdir)])
        first = capsys.readouterr()
        code = cli.main(
            [
                "construct",
                "--config", str(cfg),
                "--workdir", str(workdir),
                "--resume", str(workdir / "instance.txt"),
            ]
        )
        second = capsys.readouterr()
        assert code == 2
        assert "resumed instance sha256:" in second.out
        assert first.err.splitlines()[-2:] == second.err.splitlines()[-2:]

    def test_malformed_resume_document_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(NU2_CONFIG)
        workdir = tmp_path / "out"
        cli.main(["construct", "--config", str(cfg), "--workdir", str(workdir)])
        text = (workdir / "instance.txt").read_text()
        k1_line = next(l for l in text.splitlines() if l.startswith("k1 = "))
        docs = {
            "'nu'": "format = carmik-instance-v1\nz = 74\n",
            "'k1'": text.replace(k1_line, "k1 = abc"),
            "duplicate key 'nu'": text + "nu = 4\n",
            "expected 'key = value'": text + "P3\n",
            "unknown instance keys: bogus": text + "bogus = 1\n",
        }
        for field, doc in docs.items():
            path = tmp_path / "broken.txt"
            path.write_text(doc)
            capsys.readouterr()
            code = cli.main(["construct", "--config", str(cfg), "--workdir", str(workdir),
                             "--resume", str(path)])
            err = capsys.readouterr().err
            assert code == 3
            assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("flag", ["--config", "--resume"])
    def test_missing_file_exit_code(self, tmp_path, capsys, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(NU2_CONFIG)
        missing = tmp_path / "missing.txt"
        argv = ["construct", "--config", str(cfg), "--workdir", str(tmp_path / "out")]
        argv += [flag, str(missing)]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: cannot read {missing}")

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("z = 74\nnu = 3\n")
        assert cli.main(["construct", "--config", str(cfg)]) == 3

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("z = 74\nnu = 2\nbogus = 1\n")
        assert cli.main(["construct", "--config", str(cfg)]) == 3


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 3

    def test_version(self, capsys):
        assert cli.main(["--version"]) == 0
