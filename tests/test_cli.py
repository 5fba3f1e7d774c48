import csv
import json
import math

import pytest

from corrtrans import cli
from corrtrans import models as mo
from corrtrans import montecarlo as mc
from corrtrans.specfun import gamma_ratio_endpoint, normal_quantile


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

    def test_bad_alpha_is_numeric_failure(self, capsys):
        code, _, err = run(capsys, "ranges", "--model", "bvn",
                           "--alpha", "0.9", "--vs", "identity")
        assert code == 2
        assert "numeric failure" in err

    def test_identity_optimal_level_is_numeric_failure(self, capsys):
        # t_alpha = 1 = |B|: the identity is the SquareV optimal transform
        code, _, err = run(capsys, "ranges", "--model", "squarev",
                           "--alpha", "0.15865525393145707", "--vs",
                           "identity")
        assert code == 2
        assert err.splitlines() == [
            "numeric failure: identity is itself optimal at "
            "alpha=0.15865525393145707"]


class TestExactCommand:
    def test_table_cell(self, capsys):
        code, out, _ = run(capsys, "exact", "--rho", "0.5", "--n", "10",
                           "--alpha", "0.05", "--transform", "identity")
        assert code == 0
        eps = float(out.splitlines()[1].split("=")[1])
        assert abs(eps - 0.125) < 5 * 0.00110

    def test_rho_at_the_boundary_is_numeric_failure(self, capsys):
        code, _, err = run(capsys, "exact", "--rho", "1", "--n", "10",
                           "--alpha", "0.05", "--transform", "identity")
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric failure:") and "rho=1.0" in err

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
                   "--alpha", "0.05", "--rho", "0.5")[0] == 2

    def test_missing_config(self, capsys, tmp_path):
        assert run(capsys, "simulate", "--config",
                   str(tmp_path / "nope.json"))[0] == 1

    @pytest.mark.parametrize("argv", [
        # psi'(1) = 0.0 ** p with p < 0
        ("transform", "--model", "bvn", "--alpha", "0.05", "--rho", "1"),
        # SquareV's g(rho) divides by sqrt(1 - rho^2)
        ("delta", "--model", "squarev", "--transform", "optimal",
         "--rho", "1", "--z", "1", "--z-ref", "1.645"),
    ])
    def test_rho_one_is_numeric_failure(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric failure:")


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
    ])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, changes):
        code, err = self.simulate(capsys, tmp_path, **changes)
        assert code == 1
        assert "numeric failure" not in err


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
