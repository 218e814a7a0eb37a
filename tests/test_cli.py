import argparse
import concurrent.futures
import contextlib
import dataclasses
import io
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbattery.battery import HamiltonianSpec, battery_state, ergotropy
from qbattery.cli import RunConfig, build_parser, cmd_verify, main, resolve_config, sweep_values
from qbattery.errors import ConfigError, DomainError
from qbattery import analytic, verify
from qbattery.optimizer import SearchSpace, WpEvaluator
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
        assert cfg.spec() == HamiltonianSpec(1.0, 2.0)
        assert len(cfg.k_grid()) == 81
        assert cfg.k_grid()[0] == -1.0 and cfg.k_grid()[-1] == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_points": 0},
            {"k_min": 0.5, "k_max": -0.5},
            {"k_min": -2.0},
            {"budget": 0},
            {"threads": 0},
            {"h": 0.0},
            {"h": -1.0},
            {"h": math.inf},
            {"h": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize(
        "h, j, g", [(1.0, None, 2.0), (0.7, 1.4, 2.0), (1e308, None, 2.0), (1e308, 1.0, 1e-308),
                    (4.0, -1.0, -0.25), (1e-300, 0.0, 0.0)]
    )
    def test_spec_is_the_model_in_units_of_h(self, h, j, g):
        # J/h is 2 when J is not given, so 2h, which overflows from h = 8.99e307, is never formed
        assert RunConfig(h=h, J=j).spec() == HamiltonianSpec(1.0, g)

    @pytest.mark.parametrize("t_max", ["0", "nan"])
    def test_bad_time_bound_exits_2_naming_the_search_space(self, tmp_path, capsys, t_max):
        # RunConfig leaves t_max to SearchSpace, which also requires it to be finite
        out = tmp_path / "s.csv"
        assert main(["sweep", "separable", f"--t-max={t_max}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: t_max must be positive and finite, got {float(t_max)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--h", "--J", "--k-min", "--k-max"])
    def test_non_numeric_flag_exits_2_before_run_config(self, tmp_path, capsys, flag):
        # RunConfig checks only ranges; argparse types the real-valued flags
        out = tmp_path / "s.csv"
        assert exit_code(["sweep", "separable", flag, "one", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid float value: 'one'" in err and "Traceback" not in err
        assert not out.exists()


def exit_code(argv):
    """main's exit code, whether it returns it or argparse raises SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def write_args(tmp_path, content):
    path = tmp_path / "run.args"
    path.write_bytes(content)
    return f"@{path}"


class TestArgumentFiles:
    """An @file holds flags, one per line, and goes through the same parser."""

    def test_flags_override_argument_file(self, tmp_path):
        run = write_args(tmp_path, b"--k-points=9\n--budget\n555\n")
        args = build_parser().parse_args(["sweep", "separable", run, "--k-points", "3"])
        cfg = resolve_config(args)
        assert cfg.k_points == 3  # flag wins
        assert cfg.budget == 555  # file fills the rest

    def test_unknown_option_in_file_is_rejected(self, tmp_path, capsys):
        run = write_args(tmp_path, b"--k-pionts=9\n")
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["sweep", "unitary", run])
        assert exit_info.value.code == 2
        assert "--k-pionts=9" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"--k-pionts=9", b"--k-points=5.5", b"--budget=2.5", b"--seed=true", b"--out",
         b"9", b"--threads=two", b"--t-max=ten", b"\xff\xfe--budget=9", None],
    )
    def test_bad_argument_file_exits_2(self, tmp_path, capsys, content):
        run = f"@{tmp_path / 'missing.args'}" if content is None else write_args(tmp_path, content)
        out = tmp_path / "s.csv"
        assert exit_code(["sweep", "separable", run, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["sweep", "separable"], ["inset", "fig3"]])
    def test_file_and_inline_flags_write_the_same_bytes(self, tmp_path, command):
        inline, from_file = tmp_path / "inline.csv", tmp_path / "file.csv"
        assert main([*command, *SMALL, "--out", str(inline)]) == 0
        run = write_args(tmp_path, "\n".join([*SMALL, f"--out={from_file}"]).encode())
        assert main([*command, run]) == 0
        assert from_file.read_bytes() == inline.read_bytes()


class TestOptionsPerSubcommand:
    """Each subcommand takes exactly the flags it reads."""

    MODEL = {"--h", "--J"}
    GRID = {"--seed", "--k-min", "--k-max", "--k-points"}
    SEARCH = {"--budget", "--t-max", "--threads"}
    CSV = {"--out", "--plot-script"}

    def test_option_table(self):
        def leaves(parser, name=""):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                flags = {s for a in parser._actions for s in a.option_strings}
                yield name, flags - {"-h", "--help"}
            for sub in subs:
                for child, child_parser in sub.choices.items():
                    yield from leaves(child_parser, f"{name} {child}".strip())

        assert dict(leaves(build_parser())) == {
            "sweep unitary": self.MODEL | self.GRID | self.CSV,
            "sweep separable": self.MODEL | self.GRID | self.SEARCH | self.CSV,
            "sweep entangled": self.MODEL | self.GRID | self.SEARCH | self.CSV,
            "inset": self.MODEL | self.GRID | self.SEARCH | self.CSV,
            "verify": self.MODEL | {"--seed"},
            "mps": self.MODEL | self.CSV | {"--grid-n"},
        }

    @pytest.mark.parametrize(
        "command, flag",
        [("verify", f) for f in ["--k-min", "--k-max", "--k-points", "--budget", "--t-max",
                                 "--threads", "--out", "--plot-script"]]
        + [("mps", f) for f in ["--k-min", "--k-max", "--k-points", "--budget", "--seed",
                                "--t-max", "--threads", "--t-probe"]],
    )
    def test_unread_flag_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, "1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, option", [("mps", "--budget=5"), ("verify", "--out=x.csv")]
    )
    def test_unread_option_in_file_exits_2(self, tmp_path, capsys, command, option):
        assert exit_code([command, write_args(tmp_path, option.encode())]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {option}" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--budget", "--t-max", "--threads"])
    def test_unitary_sweep_rejects_search_flags(self, tmp_path, capsys, flag):
        out = tmp_path / "u.csv"
        assert exit_code(["sweep", "unitary", "--k-points", "3", flag, "7", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} 7" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--budget=7", "--t-max=7", "--threads=7"])
    def test_unitary_sweep_rejects_search_options_in_file(self, tmp_path, capsys, option):
        out = tmp_path / "u.csv"
        run = write_args(tmp_path, option.encode())
        assert exit_code(["sweep", "unitary", run, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {option}" in err and "Traceback" not in err
        assert not out.exists()


class TestSweep:
    def test_stochastic_sweep_row_shape(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "separable", *SMALL, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 5
        for row in rows:
            assert row[2] in ("true", "false")
            assert int(row[3]) <= 2000
            int(row[4])  # per-point seed parses as an integer

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

    @pytest.mark.parametrize("command", [["sweep", "separable"], ["sweep", "entangled"],
                                         ["inset", "fig2"], ["inset", "fig3"]])
    @pytest.mark.parametrize("j", ["1e308", "1e10"])
    def test_unresolved_phases_exit_2_naming_the_scales(self, tmp_path, capsys, command, j):
        # at J = 1e308 the phases J t leave the float range for t > 1.8; at J = 1e10
        # they stay finite, but one ulp of t moves Omega t_max by about 1.5e-5 rad
        out = tmp_path / "s.csv"
        assert main([*command, "--J", j, "--k-points", "2", "--budget", "3000",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the phase Omega*t_max") and "Traceback" not in err
        assert f"at J/h={float(j):g}, t_max=10/h: " in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [(["--h", "1e-5", "--J", "1e5"], "at J/h=1e+10, t_max=10/h: "),
         (["--h", "4", "--t-max", "1e12"], "at J/h=2, t_max=1e+12/h: ")],
    )
    def test_phase_error_names_j_over_h_and_t_max(self, tmp_path, capsys, flags, named):
        # the search runs on (1, J/h), and the error names J/h and t_max in units of 1/h
        out = tmp_path / "s.csv"
        assert main(["sweep", "separable", *flags, "--k-points", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the phase Omega*t_max") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("h", [2.0**-600, 1.0, 2.0**600])
    def test_cli_refuses_what_the_library_refuses(self, tmp_path, capsys, h):
        # one rule: the library refuses Omega t_max = 2^33 rad at every h; the CLI, on
        # (1, J/h), refuses --t-max 2^32 with the same message and accepts the float below
        with pytest.raises(DomainError) as refusal:
            WpEvaluator(SearchSpace("separable", 0.0, t_max=2.0**32 / h), HamiltonianSpec(h, 0.0))
        out = tmp_path / "s.csv"
        flags = ["sweep", "separable", "--h", repr(h), "--J", "0", "--k-points", "2",
                 "--budget", "100", "--threads", "1", "--out", str(out)]
        assert main([*flags, "--t-max", repr(2.0**32)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {refusal.value}\n" and captured.out == ""
        assert not out.exists()
        assert main([*flags, "--t-max", repr(math.nextafter(2.0**32, 0.0))]) == 0

    def test_phases_that_resolve_pass_the_check(self, tmp_path):
        # Omega t_max = 4e9 rad: one ulp is 4.8e-7 rad, below the bound
        out = tmp_path / "s.csv"
        assert main(["sweep", "separable", "--J", "4e8", "--k-points", "2", "--budget", "100",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("command", [["sweep", "unitary"], ["sweep", "separable"],
                                         ["inset", "fig3"]])
    @pytest.mark.parametrize("k_points", [2**62, 2**63 - 1, 2**64])
    def test_grid_numpy_cannot_describe_exits_2(self, tmp_path, capsys, command, k_points):
        # rejected before any grid is formed: numpy would raise ValueError or IndexError
        out = tmp_path / "s.csv"
        assert main([*command, "--k-points", str(k_points), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: k_points {k_points} is too large: numpy cannot describe "
                       "a float64 grid of that many points\n")
        assert not out.exists()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["sweep", "unitary", "--out", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err


class TestOutputs:
    """The CSV emitter that sweep, inset and mps share."""

    @pytest.mark.parametrize(
        "command, x, y, title, summary",
        [
            (["sweep", "unitary", "--k-points", "5"], "k", "value", "unitary sweep", []),
            (["inset", "fig3", *SMALL], "entropy_ebits", "diff", "inset fig3", []),
            (["mps", "--grid-n", "5"], "s", "max_wp", "passivity scan", ["passive points: 1"]),
        ],
    )
    def test_each_command_reports_its_rows_and_plots_its_columns(
        self, tmp_path, capsys, command, x, y, title, summary
    ):
        out, script = tmp_path / "out.csv", tmp_path / "plot.py"
        assert main([*command, "--out", str(out), "--plot-script", str(script)]) == 0
        count = len(read_csv(out)[1])
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {count} rows to {out} (energy in h, time in 1/h)",
            *summary,
            f"wrote plot script to {script}",
        ]
        text = script.read_text()
        assert f"open({str(out)!r})" in text
        assert f"xs = [float(r[{x!r}]) for r in rows]" in text
        assert f"ys = [float(r[{y!r}]) for r in rows]" in text
        assert f"plt.xlabel({x!r})" in text and f"plt.title({title!r})" in text


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


# verify's suites in the order it runs them; every "N/N suites passed" below reads N here
SUITES = [
    "operator-algebra",
    "passive-ergotropy",
    "measurement-protocol",
    "closed-form-vs-oracle",
    "small-t-quartic",
    "excited-drain",
    "entanglement-entropy",
    "zero-coupling-pointwise",
    "zero-coupling-optimized",
    "mps-scan",
    "optimum-bound",
]
ALL_PASSED = f"{len(SUITES)}/{len(SUITES)} suites passed\n"


class TestVerify:
    def test_tampered_tolerance_fails(self, monkeypatch, capsys):
        # agreement between the closed form and the oracle is ~4e-16, so a
        # 1e-17 tolerance must trip the failure path
        monkeypatch.setattr(verify, "CLOSED_FORM_TOL", 1e-17)
        assert cmd_verify(RunConfig()) == 1
        out = capsys.readouterr().out
        assert "FAIL closed-form-vs-oracle" in out

    @pytest.mark.parametrize("h, j", [(2.0, 4.0), (0.5, 1.0), (1e200, -1e200)])
    def test_results_depend_only_on_j_over_h(self, h, j):
        # residuals and notes too, not only the verdicts
        assert run_suites(HamiltonianSpec(h, j), 123456789) == run_suites(
            HamiltonianSpec(1.0, j / h), 123456789)

    def test_optimum_bound_is_appended_after_the_other_suites(self):
        assert [r.name for r in run_suites(HamiltonianSpec(1.0, 4.0), 5)] == SUITES

    @pytest.mark.parametrize("h, j", [(1.0, 2.0), (1.0, 0.0)])
    @pytest.mark.parametrize(
        "share, offset, passed",
        [(1.0, 0.0, True), (1.0, 2e-9, False), (0.0, 0.0, True), (0.0, -2e-12, False)],
    )
    def test_optimum_bound_gate(self, monkeypatch, h, j, share, offset, passed):
        # searches returning share * h(1+k) + offset * h: the band is [-1e-12 h, h(1+k) + 1e-9 h]
        def search(space, spec, budget, seed):
            class Report:
                best_value = share * spec.h * (1.0 + space.k) + offset * spec.h

            return Report()

        monkeypatch.setattr(verify, "optimize", search)
        assert verify.suite_optimum_bound(HamiltonianSpec(h, j), 1).passed is passed

    @pytest.mark.parametrize("i, j", [(0, 3), (1, 2)])
    def test_operator_algebra_catches_a_sign_flipped_joint_unitary(self, monkeypatch, i, j):
        # the oracle evolves with joint_unitary: flip the off-diagonal entries of one parity block
        exact = verify.joint_unitary

        def flipped(spec, t):
            u = exact(spec, t)
            u[..., i, j] *= -1
            u[..., j, i] *= -1
            return u

        monkeypatch.setattr(verify, "joint_unitary", flipped)
        result = verify.suite_operator_algebra(HamiltonianSpec(), np.random.default_rng(0))
        assert not result.passed and result.residual > 1.0

    def test_passive_suite_catches_an_ergotropy_offset(self, monkeypatch):
        # the suite compares the closed forms with an independent spectral oracle
        closed_form = verify.ergotropy
        monkeypatch.setattr(verify, "ergotropy", lambda rho, spec: closed_form(rho, spec) + 1e-9)
        assert not verify.suite_passive_ergotropy(HamiltonianSpec(), np.random.default_rng(0)).passed

    def test_reruns_are_identical(self):
        spec = HamiltonianSpec(1.0, 2.0)
        assert run_suites(spec, 11) == run_suites(spec, 11)

    @pytest.mark.parametrize(
        "suite",
        ["measurement_protocol", "closed_form", "small_t_quartic", "zero_coupling_pointwise"],
    )
    def test_a_nan_from_the_oracle_fails_the_suite(self, monkeypatch, suite):
        # one NaN w_p among the samples must fail the suite, not vanish in a max
        oracle = verify.run_protocol

        def nan_oracle(*args):
            result = oracle(*args)
            w_p = np.array(result.w_p, dtype=float)
            w_p[..., -1] = np.nan
            return dataclasses.replace(result, w_p=w_p)

        monkeypatch.setattr(verify, "run_protocol", nan_oracle)
        rng = np.random.default_rng(3)
        # the zero-coupling suite runs at J = 0 by design and takes no spec
        args = (rng,) if suite == "zero_coupling_pointwise" else (HamiltonianSpec(), rng)
        result = getattr(verify, f"suite_{suite}")(*args)
        assert not result.passed
        assert math.isnan(result.residual)

    @pytest.mark.parametrize(
        "flags, refusal",
        [(["--h", "8e307"], None),
         (["--h", "1e308"], None),
         (["--h", "1e308", "--J", "0"], None),
         (["--h", "8e-308"], None),
         (["--h", "1e-307", "--seed", "7"], None),
         (["--h", "1e-310"], None),
         (["--h", "6.3e307"], None),
         (["--h", "8.9e307", "--J", "0"], None),
         (["--h", "1.2e-307", "--seed", "1"], None),
         (["--h", "1.2e-307", "--seed", "7"], None),
         (["--h", "1.2e-307", "--seed", "42"], None),
         (["--h", "1e308", "--J", "1"], "not J/h=1e-308"),
         (["--h", "1", "--J", "1e308"], "not J/h=1e+308"),
         (["--h", "1e-300", "--J", "1e308"], "J/h = inf is not finite")],
    )
    def test_runs_only_where_the_band_and_the_float_range_allow(self, capsys, flags, refusal):
        # J/h must be finite, and 0 or in the band. h itself may lie anywhere in the float
        # range, down to subnormals and up to where 2h overflows: the suites run on
        # (1, J/h), so such an h prints what (1, J/h) prints
        code = main(["verify", *flags])
        out, err = capsys.readouterr()
        if refusal is None:
            assert code == 0 and out.endswith(ALL_PASSED) and err == ""
            assert main(["verify", *flags[2:]]) == 0  # without --h: J = 2h and J = 0 keep J/h
            assert capsys.readouterr().out == out
        else:
            assert code == 2 and out == "" and err.count("error:") == 1, err
            assert refusal in err and "Traceback" not in err

    # |J|/h across the float range, dense at the band's edges 3e-4 and 1e4, one case per
    # ratio so that a failure names it
    @pytest.mark.parametrize("g", [1e-160, 1e-60, 1e-8, 1e-5, 1e-4, 2.9e-4, 3e-4, 3.1e-4,
                                   1 / 3000, 1e-3, 0.01, 1.0, 10.0, 20.0, 50.0, 64.0, 1e3,
                                   9.9e3, 1e4, 1.01e4, 1.5e4, 2e4, 1e5, 1e8])
    def test_passes_inside_the_coupling_band_and_exits_2_outside(self, capsys, g):
        # The suites run on (1, J/h), so J/h alone decides: at this seed small-t-quartic
        # fails at 1e-5, and over 40 seeds some suite fails at 1e-4 and at 2e4. Inside the
        # band the quartic fit holds because its times sit at fixed phases Omega t, and from
        # J/h = 10 the passivity scan's probe stays inside its window t < 1/Omega. At
        # h = 1e-200 the smallest couplings underflow to J = 0, which passes too. '=' joins
        # the value, so argparse reads a negative J as one, not as an option
        low, high = verify.COUPLING_BAND
        for h, sign in itertools.product(["1e-200", "1", "1e200"], (1, -1)):
            j = sign * g * float(h)
            code = main(["verify", "--h", h, f"--J={j!r}"])
            out, err = capsys.readouterr()
            assert "Traceback" not in out + err
            if j / float(h) == 0.0 or low <= abs(j / float(h)) <= high:
                assert code == 0 and out.endswith(ALL_PASSED), (h, j, out)
            else:
                assert code == 2 and out == "" and err.count("error:") == 1, (h, j, err)
                assert err.startswith("error: the self-check suites resolve")

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
        assert "passive points: 1\n" in printed
        header, rows = read_csv(out)
        assert header == ["s", "theta", "max_wp", "verdict"]
        assert len(rows) == 121
        passive = [r for r in rows if r[3] == "passive"]
        assert len(passive) == 1
        assert float(passive[0][0]) == 1.0
        assert float(passive[0][1]) == pytest.approx(np.pi)

    @pytest.mark.parametrize("j", ["2", "0"])
    def test_no_cell_prints_negative_zero(self, tmp_path, j):
        out = tmp_path / "mps.csv"
        assert main(["mps", "--grid-n", "101", "--J", j, "--out", str(out)]) == 0
        cells = [row[2] for row in read_csv(out)[1]]
        assert "-0" not in cells
        if j == "0":
            assert set(cells) == {"0"}

    def test_bad_grid_exits_2(self, capsys):
        assert main(["mps", "--grid-n", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("j", ["10", "50", "0.1", "0.3", "-0.3", "64", "1000", "1e4", "1e7"])
    def test_strong_coupling_scan_finds_only_the_ground_state(self, tmp_path, capsys, j):
        # and at weak coupling: the sign of w_p, not a threshold, decides passivity
        out = tmp_path / "mps.csv"
        assert main(["mps", "--J", j, "--grid-n", "101", "--out", str(out)]) == 0
        assert "passive points: 1\n" in capsys.readouterr().out

    def test_unresolved_sign_exits_2_naming_j_over_h(self, tmp_path, capsys):
        # the probe's bracket cancels to rounding noise at J = 1e8 h; the scan runs on
        # (1, J/h), so the message names the ratio that decides it, not h = 1
        out = tmp_path / "mps.csv"
        assert main(["mps", "--h", "3", "--J", "3e8", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and "J/h=100000000.0:" in captured.err
        assert "h=1.0" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("grid_n", [2**62, 2**63 - 1, 2**64])
    def test_grid_numpy_cannot_describe_exits_2(self, tmp_path, capsys, grid_n):
        out = tmp_path / "mps.csv"
        assert main(["mps", "--grid-n", str(grid_n), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: grid_n {grid_n} is too large") and "Traceback" not in err
        assert not out.exists()

    def test_out_of_memory_exits_2(self, monkeypatch, tmp_path, capsys):
        # what numpy raises when a grid does not fit in memory
        def scan(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(analytic, "mps_scan", scan)
        out = tmp_path / "mps.csv"
        assert main(["mps", "--grid-n", "1000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 7.28 TiB for an array\n"
        assert not out.exists()


class TestSweepValues:
    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            sweep_values("bogus", RunConfig())

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Sizes of the pools sweep_values opens; the fake pool maps in this
        process, so no worker starts."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        return sizes

    def test_refused_sweep_starts_no_pool(self, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("a refused sweep started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        with pytest.raises(DomainError, match=r"at J/h=1e\+10, t_max=10/h: "):
            sweep_values("separable", RunConfig(J=1e10, k_points=5, threads=4))

    @pytest.mark.parametrize("threads, cpus, expected", [(None, 3, 3), (64, 3, 3), (2, 3, 2),
                                                         (64, 16, 5)])
    def test_pool_is_capped_at_the_available_cpus(self, monkeypatch, pool_sizes, threads, cpus,
                                                  expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = RunConfig(k_points=5, budget=200, seed=7, threads=threads)
        values = sweep_values("separable", cfg)
        assert pool_sizes == [expected]
        assert values == sweep_values("separable", dataclasses.replace(cfg, threads=1))

    @pytest.mark.parametrize("threads", [None, 1, 64])
    def test_pool_falls_back_to_the_cpu_count_without_affinity(
        self, monkeypatch, tmp_path, pool_sizes, threads
    ):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        out = tmp_path / "s.csv"
        flags = [] if threads is None else ["--threads", str(threads)]
        assert main(["sweep", "separable", "--k-points", "5", "--budget", "100", *flags,
                     "--out", str(out)]) == 0
        assert pool_sizes == ([] if threads == 1 else [3])
        assert len(read_csv(out)[1]) == 5

    @pytest.mark.parametrize("h", [1.0, 2.0, 0.37, 1e200, 1e-200])
    def test_unitary_stack_matches_a_per_k_loop(self, h):
        # at every h the rows are the ergotropy of the model in units of h, (1, J/h) = (1, 2)
        cfg = RunConfig(h=h, k_points=81)
        loop = [ergotropy(battery_state(k), HamiltonianSpec(1.0, 2.0)) for k in cfg.k_grid()]
        assert [v for _, v, *_ in sweep_values("unitary", cfg)] == loop

    def test_unitary_is_exact_and_instant(self):
        values = sweep_values("unitary", RunConfig())
        for k, value, converged, samples, _ in values:
            assert converged and samples == 0
            assert abs(value - (2.0 * k if k >= 0 else 0.0)) < 1e-10


# a search that converted units back from absolute ones moved the k = -1 separable row at
# (h, J) = (0.7, 1.4) at budget 20000, though not at 2000 or 5000
SEARCH_SMALL = ["--k-points", "2", "--budget", "20000", "--threads", "1"]
# every command that writes rows, with small grids and budgets
ROW_COMMANDS = [
    ["sweep", "unitary", "--k-points", "5"],
    ["sweep", "separable", *SEARCH_SMALL],
    # nine points, so that interior rows are compared too, not only k = -1 and 1
    ["sweep", "separable", "--k-points", "9", "--budget", "20000", "--threads", "1"],
    ["sweep", "entangled", *SEARCH_SMALL],
    ["inset", "fig2", *SEARCH_SMALL],
    ["inset", "fig3", *SEARCH_SMALL],
    ["mps", "--grid-n", "5"],
]


def command_output(argv, out):
    """What a command writes: its CSV at out, or verify's table. verify's
    stdout is redirected, because hypothesis refuses the function-scoped capsys."""
    if argv[0] == "verify":
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(argv) == 0
        return stdout.getvalue().encode()
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


class TestUnitContract:
    """The CLI runs every command on the model (1, J/h): energies print in
    units of h and times read in units of 1/h, so runs that share g = J/h
    write the same bytes at every h."""

    def test_unitary_row_is_in_units_of_h(self):
        values = sweep_values("unitary", RunConfig(h=2.0, J=4.0, k_points=3))
        assert values[-1][:2] == (1.0, 2.0)

    @given(
        st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        st.sampled_from([2.0, -3.0, 0.5, 0.0]),
    )
    # J = 1.4: converting back from absolute units moved the k = -1 row, and the
    # self-checks at (h, J) printed other residuals than at (1, J/h)
    @example(h=0.7, g=2.0)
    @example(h=2.0, g=2.0)
    @example(h=1e200, g=2.0)
    @example(h=1e-200, g=2.0)
    @settings(max_examples=20, deadline=None)
    def test_outputs_depend_only_on_g(self, tmp_path_factory, h, g):
        assume((g * h) / h == g)
        tmp = tmp_path_factory.mktemp("units")
        scaled, unit = tmp / "scaled.csv", tmp / "unit.csv"
        for command in [*ROW_COMMANDS, ["verify"]]:
            assert (command_output([*command, f"--h={h!r}", f"--J={g * h!r}"], scaled)
                    == command_output([*command, f"--J={g!r}"], unit)), (command, h, g)

    @pytest.mark.parametrize(
        "command, j",
        [(["sweep", "separable", *SEARCH_SMALL], "1"),
         (["sweep", "entangled", *SEARCH_SMALL], None),
         (["mps", "--grid-n", "5"], "0")],
    )
    def test_fields_where_2h_overflows_run_in_units_of_h(self, tmp_path, command, j):
        # 2h overflows from h = 8.99e307; the model (1, J/h) never forms it
        coupling = [] if j is None else [f"--J={j}"]
        scaled = command_output([*command, "--h", "1e308", *coupling], tmp_path / "scaled.csv")
        coupling = [] if j is None else [f"--J={float(j) / 1e308!r}"]
        assert scaled == command_output([*command, *coupling], tmp_path / "unit.csv")

    @pytest.mark.parametrize("command", ROW_COMMANDS)
    def test_coupling_ratio_beyond_the_float_range_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        assert main([*command, "--h", "1e-300", "--J", "1e308", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: J/h = inf is not finite for h=1e-300, J=1e+308\n"
        assert not out.exists()
