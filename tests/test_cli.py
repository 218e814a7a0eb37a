import json

import numpy as np
import pytest

from qbattery.battery import HamiltonianSpec
from qbattery.cli import RunConfig, build_parser, cmd_verify, main, resolve_config, sweep_values
from qbattery.errors import ConfigError
from qbattery.verify import run_suites


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


SMALL = ["--k-points", "5", "--budget", "2000", "--seed", "7"]


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.spec().J == 2.0 * cfg.h
        assert len(cfg.k_grid()) == 81
        assert cfg.k_grid()[0] == -1.0 and cfg.k_grid()[-1] == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_points": 0},
            {"k_min": 0.5, "k_max": -0.5},
            {"k_min": -2.0},
            {"budget": 0},
            {"t_max": 0.0},
            {"threads": 0},
            {"k_points": "5"},
            {"budget": 2.5},
            {"seed": True},
            {"threads": 2.0},
            {"h": "1"},
            {"J": False},
            {"k_min": None},
            {"t_max": [10]},
            {"out": 5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


class TestConfigResolution:
    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"k_points": 9, "budget": 555}))
        args = build_parser().parse_args(
            ["sweep", "unitary", "--config", str(config), "--k-points", "3"]
        )
        cfg = resolve_config(args)
        assert cfg.k_points == 3  # flag wins
        assert cfg.budget == 555  # file fills the rest

    def test_unknown_config_key_is_rejected(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"k_pionts": 9}))
        args = build_parser().parse_args(["sweep", "unitary", "--config", str(config)])
        with pytest.raises(ConfigError):
            resolve_config(args)

    @pytest.mark.parametrize(
        "content",
        [b'{"k_pionts": 9}', b'{"k_points": "5"}', b'{"budget": 2.5}', b'{"seed": true}',
         b'{"out": 5}', b"[1, 2]", b'"run"', b"3", b"{", b"\xff\xfe{}"],
    )
    def test_bad_config_file_exits_2(self, tmp_path, capsys, content):
        config = tmp_path / "run.json"
        config.write_bytes(content)
        assert main(["sweep", "separable", "--config", str(config), "--out",
                     str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestSweep:
    def test_unitary_values_follow_the_closed_form(self, tmp_path):
        out = tmp_path / "u.csv"
        assert main(["sweep", "unitary", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["k", "value", "converged", "samples", "seed"]
        assert len(rows) == 81
        for row in rows:
            k, value = float(row[0]), float(row[1])
            expected = 2.0 * k if k >= 0 else 0.0
            assert abs(value - expected) < 1e-10

    def test_stochastic_sweep_row_shape(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "separable", *SMALL, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 5
        for row in rows:
            assert row[2] in ("true", "false")
            assert int(row[3]) <= 2000
            int(row[4])  # per-point seed parses as an integer

    def test_identical_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["sweep", "entangled", *SMALL, "--out", str(first)])
        main(["sweep", "entangled", *SMALL, "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        one = tmp_path / "one.csv"
        two = tmp_path / "two.csv"
        main(["sweep", "separable", *SMALL, "--threads", "1", "--out", str(one)])
        main(["sweep", "separable", *SMALL, "--threads", "2", "--out", str(two)])
        assert one.read_bytes() == two.read_bytes()

    def test_emitted_energies_inside_physical_window(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep", "separable", *SMALL, "--out", str(out)])
        _, rows = read_csv(out)
        for row in rows:
            value = float(row[1])
            assert np.isfinite(value) and -2.0 <= value <= 2.0

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["sweep", "unitary", "--out", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_plot_script_references_csv(self, tmp_path):
        out = tmp_path / "u.csv"
        script = tmp_path / "plot.py"
        main(["sweep", "unitary", "--out", str(out), "--plot-script", str(script)])
        assert str(out) in script.read_text()


class TestInset:
    def test_fig2_ground_endpoint_near_zero(self, tmp_path):
        out = tmp_path / "i2.csv"
        assert main(["inset", "fig2", "--k-points", "3", "--budget", "4000",
                     "--seed", "3", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["k", "diff"]
        assert float(rows[0][0]) == -1.0
        assert abs(float(rows[0][1])) < 0.02  # nothing to extract either way

    def test_fig3_columns_and_branch_labels(self, tmp_path):
        out = tmp_path / "i3.csv"
        assert main(["inset", "fig3", "--k-points", "5", "--budget", "4000",
                     "--seed", "3", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["entropy_ebits", "diff", "k_sign"]
        signs = [float(r[2]) for r in rows]
        assert signs == [-1.0, -1.0, 0.0, 1.0, 1.0]
        entropies = [float(r[0]) for r in rows]
        assert all(0.0 <= s <= 1.0 for s in entropies)
        assert entropies[2] == pytest.approx(1.0)


class TestVerify:
    def test_default_run_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_tampered_tolerance_fails(self, capsys):
        # agreement between the closed form and the oracle is ~4e-16, so a
        # 1e-17 tolerance must trip the failure path
        assert cmd_verify(RunConfig(), closed_form_tol=1e-17) == 1
        out = capsys.readouterr().out
        assert "FAIL closed-form-vs-oracle" in out

    @pytest.mark.parametrize("h, j", [(2.0, 4.0), (0.5, 1.0)])
    def test_every_suite_passes_away_from_unit_field(self, h, j):
        failed = [r.name for r in run_suites(HamiltonianSpec(h, j), 123456789) if not r.passed]
        assert failed == []

    def test_decoupled_regime_passes(self, capsys):
        assert main(["verify", "--J", "0"]) == 0
        out = capsys.readouterr().out
        assert "zero-coupling-pointwise" in out
        assert "J=0: all states passive" in out


class TestMps:
    def test_small_scan_summary_and_rows(self, tmp_path, capsys):
        out = tmp_path / "mps.csv"
        assert main(["mps", "--grid-n", "11", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "passive points: 1" in printed
        header, rows = read_csv(out)
        assert header == ["s", "theta", "max_wp", "verdict"]
        assert len(rows) == 121
        passive = [r for r in rows if r[3] == "passive"]
        assert len(passive) == 1
        assert float(passive[0][0]) == 1.0
        assert float(passive[0][1]) == pytest.approx(np.pi)

    def test_scan_is_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["mps", "--grid-n", "7", "--out", str(a)])
        main(["mps", "--grid-n", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid_exits_2(self, capsys):
        assert main(["mps", "--grid-n", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweepValues:
    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            sweep_values("bogus", RunConfig())

    def test_unitary_is_exact_and_instant(self):
        values = sweep_values("unitary", RunConfig())
        for k, value, converged, samples, _ in values:
            assert converged and samples == 0
            assert abs(value - (2.0 * k if k >= 0 else 0.0)) < 1e-10


class TestUnitContract:
    """Energies print in units of h and times read in units of 1/h, so runs
    that share g = J/h print the same numbers."""

    def test_unitary_row_is_in_units_of_h(self):
        values = sweep_values("unitary", RunConfig(h=2.0, J=4.0, k_points=3))
        assert values[-1][:2] == (1.0, 2.0)

    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_stochastic_rows_depend_only_on_g(self, family):
        small = {"k_points": 5, "budget": 2000, "seed": 7, "threads": 1}
        unit = sweep_values(family, RunConfig(h=1.0, J=2.0, **small))
        scaled = sweep_values(family, RunConfig(h=2.0, J=4.0, **small))
        for a, b in zip(unit, scaled):
            assert b[1] == pytest.approx(a[1], abs=1e-9)

    def test_mps_values_depend_only_on_g(self, tmp_path):
        unit, scaled = tmp_path / "unit.csv", tmp_path / "scaled.csv"
        assert main(["mps", "--grid-n", "5", "--out", str(unit)]) == 0
        assert main(["mps", "--grid-n", "5", "--h", "2", "--J", "4", "--out", str(scaled)]) == 0
        _, unit_rows = read_csv(unit)
        _, scaled_rows = read_csv(scaled)
        for a, b in zip(unit_rows, scaled_rows):
            assert float(b[2]) == pytest.approx(float(a[2]), abs=1e-9)
            assert b[3] == a[3]
