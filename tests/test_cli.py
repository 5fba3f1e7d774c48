import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from corrtrans import cli
from corrtrans import models as mo
from corrtrans import montecarlo as mc
from corrtrans import pearson as pe
from corrtrans.specfun import (
    IntegrationError,
    gamma_ratio_endpoint,
    normal_quantile,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTransformCommand:
    def test_alpha_form(self, capsys):
        code, out, _ = run(capsys, "transform", "--model", "bvn",
                           "--alpha", "0.05", "--rho", "0.5")
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1])
        assert value == pytest.approx(
            mo.psi_closed(mo.BVN, normal_quantile(0.95), 0.5), abs=1e-5)

    def test_z_form_identity_case(self, capsys):
        code, out, _ = run(capsys, "transform", "--model", "bvn",
                           "--z", str(1 / math.sqrt(2)), "--rho", "0.3")
        assert code == 0
        assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(
            0.3, abs=1e-6)


    def test_exponent_minus_one_is_fisher(self, capsys):
        # BVN's p_z = 1/(2 z^2) - 1 rounds to -1 from z = 1e8 on: atanh
        code, out, _ = run(capsys, "transform", "--model", "bvn",
                           "--z", "1e200", "--rho", "0.5")
        assert code == 0
        assert out.splitlines() == ["psi(0.5) = 0.549306",
                                    "psi'(0.5) = 1.33333"]

    def test_steep_exponent_stays_in_range(self, capsys):
        # exponent 132: psi(0.9) lies in (0, psi(1)], psi(1) = 0.0769
        code, out, _ = run(capsys, "transform", "--model", "squarev",
                           "--alpha", "0.48", "--rho", "0.9")
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1])
        z = normal_quantile(1.0 - 0.48)
        top = gamma_ratio_endpoint(mo.optimal_exponent(mo.SQUAREV, z))
        assert 0.0 < value <= top

    def test_vanishing_tail_exponent(self, capsys):
        # exponent 5.3e10 at rho^2 = 2.5e-5: (1 - rho^2)^(p+1) underflows
        code, out, _ = run(capsys, "transform", "--model", "squarev",
                           "--alpha", "0.499999", "--rho", "0.005")
        assert code == 0
        value = float(out.splitlines()[0].split("=")[1])
        z = normal_quantile(1.0 - 0.499999)
        top = gamma_ratio_endpoint(mo.optimal_exponent(mo.SQUAREV, z))
        assert value == pytest.approx(top, rel=1e-5)


class TestDeltaCommand:
    def test_two_paths_agree(self, capsys):
        code, out, _ = run(capsys, "--digits", "10", "delta",
                           "--model", "squarev", "--transform", "fisher",
                           "--rho", "0.5", "--z", "1.0")
        assert code == 0
        lines = out.splitlines()
        closed = float(lines[0].split(":")[1])
        generic = float(lines[1].split(":")[1])
        assert closed == pytest.approx(-0.139702, abs=1e-6)
        assert generic == pytest.approx(closed, abs=1e-6)

    def test_optimal_at_a_steep_exponent(self, capsys):
        # exponent 799: psi'(0.99) underflows to 0
        code, out, _ = run(capsys, "delta", "--model", "bvn",
                           "--transform", "optimal", "--rho", "0.99",
                           "--z", "0.025", "--z-ref", "0.025")
        assert code == 0
        closed, generic = (float(line.split(":")[1])
                           for line in out.splitlines())
        assert closed == 0.0
        assert generic == pytest.approx(closed, abs=1e-8)

    def test_optimal_requires_z_ref(self, capsys):
        code, _, err = run(capsys, "delta", "--model", "bvn",
                           "--transform", "optimal", "--rho", "0.5",
                           "--z", "1.0")
        assert code == 1
        assert "z-ref" in err


class TestRangesCommand:
    def test_bvn_identity(self, capsys):
        code, out, _ = run(capsys, "ranges", "--model", "bvn",
                           "--alpha", "0.05", "--vs", "identity")
        assert code == 0
        assert out.strip() == "(0.00000, 0.17912)"

    def test_bad_alpha_is_usage_error(self, capsys):
        code, _, err = run(capsys, "ranges", "--model", "bvn",
                           "--alpha", "0.9", "--vs", "identity")
        assert code == 1
        assert err.startswith("error: alpha must lie in")

    def test_identity_optimal_level_is_usage_error(self, capsys):
        # t_alpha = 1 = |B|: the identity is the SquareV optimal transform
        code, _, err = run(capsys, "ranges", "--model", "squarev",
                           "--alpha", "0.15865525393145707", "--vs",
                           "identity")
        assert code == 1
        assert err.splitlines() == [
            "error: identity is itself optimal at alpha=0.15865525393145707"]


class TestExactCommand:
    def test_table_cell(self, capsys):
        code, out, _ = run(capsys, "exact", "--rho", "0.5", "--n", "10",
                           "--alpha", "0.05", "--transform", "identity")
        assert code == 0
        eps = float(out.splitlines()[1].split("=")[1])
        assert abs(eps - 0.125) < 5 * 0.00110

    def test_rho_at_the_boundary_is_usage_error(self, capsys):
        code, _, err = run(capsys, "exact", "--rho", "1", "--n", "10",
                           "--alpha", "0.05", "--transform", "identity")
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "rho=1.0" in err

    def test_underflowing_scale_is_numeric_failure(self, capsys):
        # at alpha = 0.49 the optimal exponent is 530 and psi'(0.99) = 0.0
        code, _, err = run(capsys, "exact", "--rho", "0.99", "--n", "10",
                           "--alpha", "0.49", "--transform", "optimal")
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric failure:") and "not positive" in err


    def test_lost_step_is_numeric_failure(self, capsys):
        # psi(0.9) absorbs the step z psi'(0.9) sigma / sqrt(10) = 6.6e-45
        code, out, err = run(capsys, "exact", "--rho", "0.9", "--n", "10",
                             "--alpha", "0.47", "--transform", "optimal")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric failure:") and "absorbs" in err


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, "ranges", "--model", "bvn", "--alpha", "0.05",
                   "--vs", "identity", "--bogus")[0] == 1

    def test_unknown_model(self, capsys):
        assert run(capsys, "transform", "--model", "trivariate",
                   "--alpha", "0.05", "--rho", "0.5")[0] == 1

    @pytest.mark.parametrize("argv", [
        ("transform", "--alpha", "0.05", "--rho", "0.5"),
        ("delta", "--transform", "fisher", "--rho", "0.5", "--z", "1.0"),
        ("ranges", "--alpha", "0.05", "--vs", "identity"),
    ])
    def test_model_is_a_case_blind_choice(self, capsys, argv):
        command, *rest = argv
        code, _, err = run(capsys, command, "--model", "gauss", *rest)
        assert code == 1
        assert "invalid choice: 'gauss'" in err
        assert run(capsys, command, "--model", "SquareV", *rest)[0] == 0

    def test_negative_digits_is_usage_error(self, capsys):
        code, out, err = run(capsys, "--digits", "-1", "ranges", "--model",
                             "bvn", "--alpha", "0.05", "--vs", "identity")
        assert code == 1
        assert out == ""
        assert err.splitlines()[0] == \
            "error: argument --digits: must be >= 0, got -1"

    def test_zero_digits(self, capsys):
        code, out, _ = run(capsys, "--digits", "0", "delta", "--model", "bvn",
                           "--transform", "fisher", "--rho", "0.5",
                           "--z", "1")
        assert code == 0
        assert out.splitlines()[0] == "closed-form:      -0.06"

    def test_missing_config(self, capsys, tmp_path):
        assert run(capsys, "simulate", "--config",
                   str(tmp_path / "nope.json"))[0] == 1

    @pytest.mark.parametrize("argv", [
        # psi'(1) = 0.0 ** p with p < 0
        ("transform", "--model", "bvn", "--alpha", "0.05", "--rho", "1"),
    ])
    def test_rho_one_is_numeric_failure(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric failure:")

    @pytest.mark.parametrize("argv", [
        # delta_closed's domain is -1 < rho < 1
        ("delta", "--model", "squarev", "--transform", "optimal",
         "--rho", "1", "--z", "1", "--z-ref", "1.645"),
    ])
    def test_rho_one_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "rho" in err

    @pytest.mark.parametrize("argv", [
        ("delta", "--model", "bvn", "--transform", "identity",
         "--rho", "nan", "--z", "1"),
        ("transform", "--model", "bvn", "--z", "nan", "--rho", "0.3"),
        ("transform", "--model", "bvn", "--z", "nan", "--rho", "1"),
    ])
    def test_nan_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "did not converge" not in err
        assert err.startswith("error:")


class TestSimulateAndTable:
    @pytest.fixture()
    def run_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CORRTRANS_THREADS", "1")
        out_path = tmp_path / "run.csv"
        config = {
            "model": "squarev",
            "alphas": [0.05],
            "rhos": [0.0, 0.5],
            "ns": [10],
            "N": 2000,
            "K": 2,
            "master_seed": 42,
            "output_path": str(out_path),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 0
        assert "6 rows" in out
        return out_path

    def test_csv_round_trip(self, run_csv):
        with open(run_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert set(rows[0]) == set(cli.CSV_FIELDS)
        # repr round-trip: eps_mean reconstructs the per-worker mean
        for row in rows:
            hat = float(row["alpha_hat_mean"])
            eps = float(row["eps_mean"])
            assert eps == pytest.approx(hat / float(row["alpha"]) - 1.0,
                                        abs=1e-12)

    def test_table_rendering(self, run_csv, capsys):
        code, out, _ = run(capsys, "table", "--input", str(run_csv))
        assert code == 0
        lines = out.splitlines()
        assert "identity" in lines[0] and "fisher" in lines[0]
        assert len(lines) == 3  # header + two cells

    def test_plot_data(self, run_csv, capsys):
        code, out, _ = run(capsys, "table", "--input", str(run_csv),
                           "--plot-data")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "transform,alpha,rho,n,eps_sqrt_n"
        assert len(lines) == 7

    def test_json_format(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CORRTRANS_THREADS", "1")
        out_path = tmp_path / "run.json"
        config = {
            "model": "bvn", "alphas": [0.05], "rhos": [0.5], "ns": [10],
            "N": 500, "K": 2, "master_seed": 1,
            "output_path": str(out_path), "format": "json",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, _, _ = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert len(rows) == 3
        code, out, _ = run(capsys, "table", "--input", str(out_path))
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_bad_config_json(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("{not json")
        assert run(capsys, "simulate", "--config", str(cfg_path))[0] == 1


_TABLE_ROW = {"model": "squarev", "transform": "identity", "alpha": 0.05,
              "rho": 0.5, "n": 10, "N": 100, "K": 2, "seed": 1,
              "eps_mean": 0.1, "eps_sd": 0.2, "eps_se": 0.1,
              "alpha_hat_mean": 0.055}


class TestBadTable:
    @pytest.mark.parametrize("name, text", [
        ("run.csv", "alpha,rho\n0.05,0.5\n"),  # no CSV_FIELDS columns
        ("run.json", json.dumps(_TABLE_ROW)),  # an object, not a list
        ("run.json", "{not json"),
        ("run.csv", ",".join(cli.CSV_FIELDS) + "\n" + ",".join(
            str({**_TABLE_ROW, "n": "ten"}[key]) for key in cli.CSV_FIELDS)),
        ("run.json", json.dumps([{**_TABLE_ROW, "n": 10.7}])),
        ("run.json", json.dumps([{**_TABLE_ROW, "n": True}])),
    ], ids=["no-columns", "json-object", "not-json", "n-ten", "json-n-float",
            "json-n-true"])
    def test_bad_table_is_usage_error(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        for extra in ((), ("--plot-data",)):
            code, _, err = run(capsys, "table", "--input", str(path), *extra)
            assert code == 1
            assert err.startswith("error: bad table: ")

    def test_missing_input_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nope.csv"
        code, out, err = run(capsys, "table", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: input file not found: {path}")

    def test_good_row_renders(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps([_TABLE_ROW]))
        code, out, _ = run(capsys, "table", "--input", str(path))
        assert code == 0
        assert out.splitlines()[1].split() == ["0.05", "0.5", "10", "0.1",
                                               "+/-", "0.1"]


class TestSimulateValidatesFirst:
    BASE = {"model": "squarev", "alphas": [0.05], "rhos": [0.5], "ns": [10],
            "N": 100, "K": 2, "master_seed": 3}

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(grid):
            raise AssertionError("run_grid called on a bad config")
        monkeypatch.setattr(cli.mc, "run_grid", refuse)

    def simulate(self, capsys, tmp_path, **changes):
        out = tmp_path / "run.csv"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {**self.BASE, "output_path": str(out), **changes}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert not out.exists()
        return code, err

    def test_missing_output_directory_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "run.csv"
        code, err = self.simulate(capsys, tmp_path, output_path=str(missing))
        assert code == 1
        assert "cannot write" in err
        assert not missing.parent.exists()

    def test_directory_as_output_is_usage_error(self, capsys, tmp_path):
        code, err = self.simulate(capsys, tmp_path, output_path=str(tmp_path))
        assert code == 1
        assert "is a directory" in err
        assert not any(p.name.endswith(".tmp")
                       for p in tmp_path.parent.iterdir())

    @pytest.mark.parametrize("changes", [
        {"alphas": [0.7]},
        {"ns": [1]},
        {"N": 0},
        {"model": "trivariate"},
        {"transforms": ["probit"]},
        {"format": "xml"},
        {"rhos": [0.5, 1.5]},
        {"N": 2.5},
        {"N": True},
        {"master_seed": 1.9},
        {"master_seed": "7"},
        {"ns": [10.7]},
        {"alphas": 0.05},
        {"rhos": "0.5"},
        {"ns": 10},
        {"transforms": "optimal"},
        {"transfroms": ["optimal"]},
        {"model": 5},
        {"output_path": 5},
        {"alphas": []},
        {"transforms": ["fisher", "fisher"]},
        {"master_seed": -1},
    ])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, changes):
        code, err = self.simulate(capsys, tmp_path, **changes)
        assert code == 1
        assert "numeric failure" not in err
        assert err.startswith("error: bad config: ")
        unknown = set(changes) - set(self.BASE) - {"transforms", "format",
                                                   "output_path"}
        assert all(key in err for key in unknown)


class TestReadConfig:
    def test_readme_sample(self, tmp_path):
        # the README's sample config is read as it stands, so the documented
        # keys and the accepted keys cannot drift apart
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert len(blocks) == 1
        raw = json.loads(blocks[0])
        raw["output_path"] = str(tmp_path / raw["output_path"])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        grid, output_path, fmt = cli.read_config(cfg_path)
        assert (output_path, fmt) == (raw["output_path"], raw["format"])
        assert dataclasses.asdict(grid) == {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in raw.items()
            if key not in ("output_path", "format")}


    @pytest.mark.parametrize("raw, message", [
        ([], "the config must be a JSON object"),
        ("config", "the config must be a JSON object"),
        ({"model": "bvn", "output_path": "run.csv"},
         r"missing keys \['alphas', 'rhos', 'ns', 'N', 'K', 'master_seed'\]"),
    ])
    def test_malformed_config_names_the_fault(self, tmp_path, raw, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=message):
            cli.read_config(cfg_path)


class TestSimulateWritesAtomically:
    def test_failed_write_keeps_the_old_output(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        out = tmp_path / "run.csv"
        out.write_text("previous results\n")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "model": "squarev", "alphas": [0.05], "rhos": [0.5], "ns": [10],
            "N": 100, "K": 2, "master_seed": 3, "output_path": str(out)}))

        class BreaksMidWrite(csv.DictWriter):
            def writerows(self, rows):
                self.writerow(rows[0])
                raise OSError("disk full")

        monkeypatch.setattr(cli.csv, "DictWriter", BreaksMidWrite)
        with pytest.raises(OSError, match="disk full"):
            cli.main(["simulate", "--config", str(cfg_path)])
        assert out.read_bytes() == b"previous results\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "run.csv"]


class TestThreadsVariable:
    def test_non_integer_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(mc.THREADS_ENV, "two")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "model": "bvn", "alphas": [0.05], "rhos": [0.5], "ns": [10],
            "N": 10, "K": 1, "master_seed": 1,
            "output_path": str(tmp_path / "run.csv")}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 1
        assert mc.THREADS_ENV in err
        assert not (tmp_path / "run.csv").exists()


# (argv, what the message names): one input outside its domain per command;
# {dir} holds the files TestExitCodePolicy.files writes
_OUTSIDE_THE_DOMAIN = [
    (("transform", "--model", "bvn", "--alpha", "0.05", "--rho", "nan"),
     "rho=nan"),
    (("delta", "--model", "bvn", "--transform", "optimal", "--rho", "0.5",
      "--z", "1", "--z-ref", "0"), "--z-ref"),
    (("ranges", "--model", "bvn", "--alpha", "0.7", "--vs", "identity"),
     "alpha"),
    (("exact", "--rho", "0.5", "--n", "10001", "--alpha", "0.05",
      "--transform", "identity"), "n=10001"),
    (("simulate", "--config", "{dir}/bad_config.json"), "alphas"),
    (("table", "--input", "{dir}/bad_table.json"), "n must be an integer"),
]

# (argv, message): a flag outside its domain is named in the message, not
# the library function that would refuse it
_FLAG_OUTSIDE_ITS_DOMAIN = {
    "exact-alpha-above-half": (
        ("exact", "--rho", "0.5", "--n", "10", "--alpha", "0.7",
         "--transform", "identity"),
        "error: --alpha must lie in (0, 0.5), got 0.7"),
    "exact-alpha-half-optimal": (
        ("exact", "--rho", "0.5", "--n", "10", "--alpha", "0.5",
         "--transform", "optimal"),
        "error: --alpha must lie in (0, 0.5), got 0.5"),
    "exact-alpha-nan": (
        ("exact", "--rho", "0.5", "--n", "10", "--alpha", "nan",
         "--transform", "identity"),
        "error: --alpha must lie in (0, 0.5), got nan"),
    "transform-alpha-above-half": (
        ("transform", "--model", "bvn", "--alpha", "0.7", "--rho", "0.5"),
        "error: --alpha must lie in (0, 0.5), got 0.7"),
    "transform-alpha-subnormal": (
        ("transform", "--model", "bvn", "--alpha", "1e-320", "--rho", "0.5"),
        "error: --alpha 1e-320 is too small: 1 - alpha rounds to 1"),
    "delta-z-inf": (
        ("delta", "--model", "bvn", "--transform", "identity", "--rho",
         "0.5", "--z", "inf"),
        "error: --z must be finite, got inf"),
    "transform-z-inf": (
        ("transform", "--model", "bvn", "--z", "inf", "--rho", "0.5"),
        "error: --z must be finite, got inf"),
    # z^2 underflows to 0, so 1/(2 z^2) divides by zero
    "transform-z-square-zero": (
        ("transform", "--model", "bvn", "--z", "1e-162", "--rho", "0.5"),
        "error: --z must give a finite optimal exponent, got 1e-162"),
    # z^2 is subnormal and 1/(2 z^2) overflows to an infinite exponent
    "transform-z-exponent-inf": (
        ("transform", "--model", "bvn", "--z", "1e-155", "--rho", "0.5"),
        "error: --z must give a finite optimal exponent, got 1e-155"),
    "delta-z-ref-exponent-inf": (
        ("delta", "--model", "bvn", "--transform", "optimal", "--rho",
         "0.5", "--z", "1", "--z-ref", "1e-155"),
        "error: --z-ref must give a finite optimal exponent, got 1e-155"),
    "delta-z-ref-square-zero": (
        ("delta", "--model", "bvn", "--transform", "optimal", "--rho",
         "0.5", "--z", "1", "--z-ref", "1e-200"),
        "error: --z-ref must give a finite optimal exponent, got 1e-200"),
    "delta-z-ref-missing": (
        ("delta", "--model", "squarev", "--transform", "optimal", "--rho",
         "0.5", "--z", "1"),
        "error: --transform optimal requires --z-ref"),
}

# one per command where a numeric failure is reachable
_NUMERIC_FAILURES = [
    # psi'(1) = 0.0 ** p with p < 0
    ("transform", "--model", "bvn", "--alpha", "0.05", "--rho", "1"),
    # at alpha 0.49 the exponent is 530 and psi'(0.99) underflows to 0.0
    ("exact", "--rho", "0.99", "--n", "10", "--alpha", "0.49",
     "--transform", "optimal"),
    ("simulate", "--config", "{dir}/degenerate_config.json"),
]


class TestExitCodePolicy:
    """A ValueError, an argument outside its documented domain, exits 1; an
    ArithmeticError, a numeric failure, exits 2."""

    @pytest.fixture()
    def files(self, tmp_path):
        config = {"model": "squarev", "alphas": [0.05], "rhos": [0.5],
                  "ns": [10], "N": 100, "K": 2, "master_seed": 3,
                  "output_path": str(tmp_path / "run.csv")}
        contents = {
            "bad_config": {**config, "alphas": [0.7]},
            "degenerate_config": {**config, "alphas": [0.49],
                                  "rhos": [0.99], "transforms": ["optimal"]},
            "bad_table": [{**_TABLE_ROW, "n": 10.7}],
        }
        for name, content in contents.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(content))
        return tmp_path

    @pytest.mark.parametrize("argv, named", _OUTSIDE_THE_DOMAIN,
                             ids=[argv[0] for argv, _ in _OUTSIDE_THE_DOMAIN])
    def test_input_outside_its_domain_exits_1(self, capsys, files, argv,
                                              named):
        code, out, err = run(capsys, *(a.format(dir=files) for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("argv, message",
                             _FLAG_OUTSIDE_ITS_DOMAIN.values(),
                             ids=_FLAG_OUTSIDE_ITS_DOMAIN)
    def test_message_names_the_flag(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", message + "\n")

    @pytest.mark.parametrize("argv", _NUMERIC_FAILURES,
                             ids=[argv[0] for argv in _NUMERIC_FAILURES])
    def test_numeric_failure_exits_2(self, capsys, files, argv):
        before = sorted(files.iterdir())
        code, out, err = run(capsys, *(a.format(dir=files) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("numeric failure:")
        assert sorted(files.iterdir()) == before  # no output, no temporary

    @pytest.mark.parametrize("error", [pe.DegenerateModelError,
                                       IntegrationError])
    def test_numeric_errors_are_arithmetic_errors(self, error):
        assert issubclass(error, ArithmeticError)
        assert not issubclass(error, ValueError)

    @pytest.mark.parametrize("argv, code, prefix", [
        (("ranges", "--model", "bvn", "--alpha", "0.05", "--vs", "identity"),
         0, ""),
        (_OUTSIDE_THE_DOMAIN[2][0], 1, "error: alpha must lie in"),
        (_NUMERIC_FAILURES[0], 2, "numeric failure:"),
    ], ids=["exit-0", "exit-1", "exit-2"])
    def test_module_entry_point(self, argv, code, prefix):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([path] if path else [])))
        proc = subprocess.run([sys.executable, "-m", "corrtrans.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == code
        assert proc.stderr.startswith(prefix)
        assert (proc.stdout != "") == (proc.stderr == "") == (code == 0)
