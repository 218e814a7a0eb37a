import argparse
import ast
import concurrent.futures
import contextlib
import dataclasses
import functools
import io
import itertools
import math
import os
import tempfile

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


def run_cli(argv, argument_file=None):
    """Run main(argv) in a fresh empty working directory, which holds the @file
    run.args with the given bytes, if any. Returns the exit code, stdout,
    stderr and the names of the files that the run left there."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)
        try:
            if argument_file is not None:
                with open("run.args", "wb") as f:
                    f.write(argument_file)
            with (contextlib.redirect_stdout(io.StringIO()) as out,
                  contextlib.redirect_stderr(io.StringIO()) as err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's refusals
                    code = exc.code
            left = sorted(set(os.listdir()) - {"run.args"})
        finally:
            os.chdir(home)
    return code, out.getvalue(), err.getvalue(), left


def assert_refused(run, message=None):
    """The exit-2 contract, for a run of run_cli: exit 2, no traceback and one
    stderr line holding error:. A refusal before any output leaves no file; a
    later one, such as a --plot-script that names a directory, follows the
    CSV line. Given a message, the refusal comes before any output, and the
    CLI's own refusals print exactly the line error: <message>, while
    argparse's print their usage first and hold the message in their error:
    line."""
    code, out, err, left = run
    errors = [line for line in err.splitlines() if "error:" in line]
    assert code == 2 and len(errors) == 1 and "Traceback" not in out + err, run
    assert left == [] if out == "" else out.startswith("wrote "), run
    if message is None:
        return
    assert out == "", run
    if err.startswith("usage: "):
        assert message in errors[0], err
    else:
        assert err == f"error: {message}\n", err


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

    @pytest.mark.parametrize("command", [["sweep", "separable"], ["inset", "fig3"]])
    def test_file_and_inline_flags_write_the_same_bytes(self, tmp_path, command):
        inline, from_file = tmp_path / "inline.csv", tmp_path / "file.csv"
        assert main([*command, *SMALL, "--out", str(inline)]) == 0
        run = write_args(tmp_path, "\n".join([*SMALL, f"--out={from_file}"]).encode())
        assert main([*command, run]) == 0
        assert from_file.read_bytes() == inline.read_bytes()


MODEL = {"--h", "--J"}
GRID = {"--seed", "--k-min", "--k-max", "--k-points"}
SEARCH = {"--budget", "--t-max", "--threads"}
CSV = {"--out", "--plot-script"}
# each subcommand and the flags it reads
OPTIONS = {
    "sweep unitary": MODEL | GRID | CSV,
    "sweep separable": MODEL | GRID | SEARCH | CSV,
    "sweep entangled": MODEL | GRID | SEARCH | CSV,
    "inset": MODEL | GRID | SEARCH | CSV,
    "verify": MODEL | {"--seed"},
    "mps": MODEL | CSV | {"--grid-n"},
}


class TestOptionsPerSubcommand:
    """Each subcommand takes exactly the flags it reads."""

    def test_option_table(self):
        def leaves(parser, name=""):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                flags = {s for a in parser._actions for s in a.option_strings}
                yield name, flags - {"-h", "--help"}
            for sub in subs:
                for child, child_parser in sub.choices.items():
                    yield from leaves(child_parser, f"{name} {child}".strip())

        assert dict(leaves(build_parser())) == OPTIONS


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

    @pytest.mark.parametrize("h", [2.0**-600, 1.0, 2.0**600])
    def test_cli_refuses_what_the_library_refuses(self, h):
        # one rule: the library refuses Omega t_max = 2^33 rad at every h; the CLI, on
        # (1, J/h), refuses --t-max 2^32 with the same message and accepts the float below
        with pytest.raises(DomainError) as refusal:
            WpEvaluator(SearchSpace("separable", 0.0, t_max=2.0**32 / h), HamiltonianSpec(h, 0.0))
        flags = ["sweep", "separable", "--h", repr(h), "--J", "0", "--k-points", "2",
                 "--budget", "100", "--threads", "1"]
        assert_refused(run_cli([*flags, "--t-max", repr(2.0**32)]), str(refusal.value))
        assert run_cli([*flags, "--t-max", repr(math.nextafter(2.0**32, 0.0))])[0] == 0

    def test_phases_that_resolve_pass_the_check(self, tmp_path):
        # Omega t_max = 4e9 rad: one ulp is 4.8e-7 rad, below the bound
        out = tmp_path / "s.csv"
        assert main(["sweep", "separable", "--J", "4e8", "--k-points", "2", "--budget", "100",
                     "--out", str(out)]) == 0


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

    @pytest.mark.parametrize("name", ["\u00e9.csv", "a'b\"\"\"c\\d.csv"])
    def test_plot_script_is_ascii_python_for_any_path(self, tmp_path, name):
        # every value goes into the script as an ASCII literal: a raw path broke its
        # docstring, and a non-ASCII one its ASCII encoding after the CSV was written
        out, script = tmp_path / name, tmp_path / "plot.py"
        assert main(["sweep", "unitary", "--k-points", "3", "--out", str(out),
                     "--plot-script", str(script)]) == 0
        source = script.read_bytes().decode("ascii")
        compile(source, str(script), "exec")
        opened = [node.args[0] for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"]
        assert [ast.literal_eval(arg) for arg in opened] == [str(out)]


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


# verify's suites in the order it runs them, each with the tolerance it reports; every
# "N/N suites passed" below reads N here. The tests leave the invariants a suite checks
# (probabilities sum to 1, the closed form is the oracle, J = 0 extracts nothing, passive
# states are idempotent) to that suite, so a suite whose tolerance loosens must fail a test.
# The release criteria read three of them at these tolerances: criterion 5
# closed-form-vs-oracle, 7 excited-drain, and 9 zero-coupling-pointwise
SUITES = {
    "operator-algebra": 1e-10,
    "passive-ergotropy": 1e-10,
    "measurement-protocol": 1e-10,
    "closed-form-vs-oracle": 1e-9,
    "small-t-quartic": 1e-2,
    "excited-drain": 1e-9,
    "entanglement-entropy": 1e-10,
    "zero-coupling-pointwise": 1e-12,
    "zero-coupling-optimized": 1e-2,
    "mps-scan": 0.0,
    "optimum-bound": 0.0,
}
ALL_PASSED = f"{len(SUITES)}/{len(SUITES)} suites passed\n"


def band_refusal(g):
    """verify's refusal of a J/h = g outside its coupling band."""
    low, high = verify.COUPLING_BAND
    return f"the self-check suites resolve J/h = 0 or {low:g} <= |J/h| <= {high:g}, not J/h={g}"


@functools.cache
def suites_at_j_over_h_2(seed):
    """verify's results at (1, 2) for one seed, by suite name, computed once a seed."""
    return {r.name: r for r in run_suites(HamiltonianSpec(1.0, 2.0), seed)}


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

    def test_suites_run_in_order_at_their_pinned_tolerances(self):
        results = run_suites(HamiltonianSpec(1.0, 4.0), 5)
        assert [(r.name, r.tolerance) for r in results] == list(SUITES.items())

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", SUITES)
    def test_suite_passes_at_other_seeds(self, name, seed):
        # the suites alone draw the random samples of their invariants; more seeds, more
        # draws. One case per suite and seed, so a failure names the invariant it breaks
        result = suites_at_j_over_h_2(seed)[name]
        assert result.passed, result

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
         (["--h", "1e308", "--J", "1"], band_refusal(1e-308)),
         (["--h", "1", "--J", "1e308"], band_refusal(1e308)),
         (["--h", "1e-300", "--J", "1e308"], "J/h = inf is not finite for h=1e-300, J=1e+308")],
    )
    def test_runs_only_where_the_band_and_the_float_range_allow(self, capsys, flags, refusal):
        # J/h must be finite, and 0 or in the band. h itself may lie anywhere in the float
        # range, down to subnormals and up to where 2h overflows: the suites run on
        # (1, J/h), so such an h prints what (1, J/h) prints
        if refusal is not None:
            return assert_refused(run_cli(["verify", *flags]), refusal)
        assert main(["verify", *flags]) == 0
        out, err = capsys.readouterr()
        assert out.endswith(ALL_PASSED) and err == ""
        assert main(["verify", *flags[2:]]) == 0  # without --h: J = 2h and J = 0 keep J/h
        assert capsys.readouterr().out == out

    # |J|/h across the float range, dense at the band's edges 3e-4 and 1e4, one case per
    # ratio so that a failure names it
    @pytest.mark.parametrize("g", [1e-160, 1e-60, 1e-8, 1e-5, 1e-4, 2.9e-4, 3e-4, 3.1e-4,
                                   1 / 3000, 1e-3, 0.01, 1.0, 10.0, 20.0, 50.0, 64.0, 1e3,
                                   9.9e3, 1e4, 1.01e4, 1.5e4, 2e4, 1e5, 1e8])
    def test_passes_inside_the_coupling_band_and_exits_2_outside(self, g):
        # The suites run on (1, J/h), so J/h alone decides: at this seed small-t-quartic
        # fails at 1e-5, and over 40 seeds some suite fails at 1e-4 and at 2e4. Inside the
        # band the quartic fit holds because its times sit at fixed phases Omega t, and from
        # J/h = 10 the passivity scan's probe stays inside its window t < 1/Omega. At
        # h = 1e-200 the smallest couplings underflow to J = 0, which passes too. '=' joins
        # the value, so argparse reads a negative J as one, not as an option
        low, high = verify.COUPLING_BAND
        for h, sign in itertools.product(["1e-200", "1", "1e200"], (1, -1)):
            j = sign * g * float(h)
            run = run_cli(["verify", "--h", h, f"--J={j!r}"])
            if j / float(h) == 0.0 or low <= abs(j / float(h)) <= high:
                assert run[0] == 0 and run[1].endswith(ALL_PASSED), run
                assert "Traceback" not in run[2], run
            else:
                assert_refused(run, band_refusal(j / float(h)))

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

    @pytest.mark.parametrize("j", ["10", "50", "0.1", "0.3", "-0.3", "64", "1000", "1e4", "1e7"])
    def test_strong_coupling_scan_finds_only_the_ground_state(self, tmp_path, capsys, j):
        # and at weak coupling: the sign of w_p, not a threshold, decides passivity
        out = tmp_path / "mps.csv"
        assert main(["mps", "--J", j, "--grid-n", "101", "--out", str(out)]) == 0
        assert "passive points: 1\n" in capsys.readouterr().out

    def test_out_of_memory_exits_2(self, monkeypatch):
        # what numpy raises when a grid does not fit in memory
        def scan(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(analytic, "mps_scan", scan)
        assert_refused(run_cli(["mps", "--grid-n", "1000000"]),
                       "Unable to allocate 7.28 TiB for an array")


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


def refusal(argv, message, argument_file=None):
    """A row of REFUSALS; its id is the command line, with the @file's bytes in place of
    its name."""
    line = " ".join(argv)
    if argument_file is not None:
        line = line.replace("@run.args", f"@[{argument_file!r}]")
    return pytest.param(argv, argument_file, message, id=line)


def phase_refusal(phase, g, t_max="10"):
    """The search's refusal of a phase Omega t_max that one ulp of t moves too far."""
    return (f"the phase Omega*t_max = {phase} rad moves by more than 1e-06 rad per ulp of t at "
            f"J/h={g}, t_max={t_max}/h: shorten t_max or reduce J/h")


SEARCH_COMMANDS = [["sweep", "separable"], ["sweep", "entangled"], ["inset", "fig2"],
                   ["inset", "fig3"]]
HUGE = [2**62, 2**63 - 1, 2**64]
# each subcommand reads only its own flags: these it does not read
UNREAD = ([(["verify"], f) for f in ["--k-min", "--k-max", "--k-points", "--budget", "--t-max",
                                     "--threads", "--out", "--plot-script"]]
          + [(["mps"], f) for f in ["--k-min", "--k-max", "--k-points", "--budget", "--seed",
                                    "--t-max", "--threads", "--t-probe"]]
          + [(["sweep", "unitary", "--k-points", "3"], f) for f in sorted(SEARCH)])
# a flag given no value, each with a subcommand that reads it
NO_VALUE = [(["mps"], "--h"), (["sweep", "separable"], "--J"), (["verify"], "--seed"),
            (["sweep", "separable"], "--k-min"), (["inset", "fig2"], "--k-max"),
            (["sweep", "unitary"], "--k-points"), (["sweep", "entangled"], "--budget"),
            (["sweep", "separable"], "--t-max"), (["inset", "fig3"], "--threads"),
            (["mps"], "--grid-n"), (["sweep", "unitary"], "--out"),
            (["sweep", "unitary"], "--plot-script")]
# what the CLI refuses, each row with the message it prints: argv, the bytes of the
# @file run.args, if the row has one, and the message
REFUSALS = [
    # RunConfig leaves t_max to SearchSpace, which also requires it to be finite
    *[refusal(["sweep", "separable", f"--t-max={t}"],
              f"t_max must be positive and finite, got {float(t)}") for t in ["0", "nan"]],
    # RunConfig checks only ranges; argparse types the real-valued flags
    *[refusal(["sweep", "separable", flag, "one"], f"argument {flag}: invalid float value: 'one'")
      for flag in ["--h", "--J", "--k-min", "--k-max"]],
    # an @file goes through the same parser, so a misspelt, mistyped or unread option in it
    # ends like one on the command line
    refusal(["sweep", "unitary", "@run.args"], "unrecognized arguments: --k-pionts=9",
            b"--k-pionts=9\n"),
    *[refusal(["sweep", "separable", "@run.args"], message, content) for content, message in [
        (b"--k-pionts=9", "unrecognized arguments: --k-pionts=9"),
        (b"--k-points=5.5", "argument --k-points: invalid int value: '5.5'"),
        (b"--budget=2.5", "argument --budget: invalid int value: '2.5'"),
        (b"--seed=true", "argument --seed: invalid int value: 'true'"),
        (b"--out", "argument --out: expected one argument"),
        (b"9", "unrecognized arguments: 9"),
        (b"--threads=two", "argument --threads: invalid int value: 'two'"),
        (b"--t-max=ten", "argument --t-max: invalid float value: 'ten'"),
        (b"\xff\xfe--budget=9",
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")]],
    refusal(["sweep", "separable", "@missing.args"],
            "[Errno 2] No such file or directory: 'missing.args'"),
    # no path can hold a NUL byte: open() would raise ValueError, for --plot-script after
    # the CSV. A shell cannot pass one inline, so only @file lines are checked
    *[refusal([*command, "@run.args"], f"argument file line {line!r} holds a NUL byte",
              line.encode())
      for command, line in [(["sweep", "unitary"], "--out=a\0b.csv"),
                            (["mps", "--grid-n", "3"], "--out=a\0b.csv"),
                            (["sweep", "unitary", "--out=s.csv"], "--plot-script=p\0.py"),
                            (["sweep", "unitary", "--out=s.csv"], "@inner\0.args")]],
    # argument files do not nest, so no cycle forms: a file that names itself would
    # otherwise recurse until RecursionError
    *[refusal(["sweep", "unitary", "@run.args"],
              f"argument file line {line!r} names an argument file: they do not nest", content)
      for line, content in [("@run.args", b"@run.args\n"),
                            ("@inner.args", b"--k-points=3\n@inner.args")]],
    # the plot script would overwrite the CSV, also where --out is the default name
    *[refusal([*command, "--plot-script", script],
              f"--out and --plot-script name the same file {out!r}")
      for command, script, out in [
          (["sweep", "unitary", "--k-points", "3", "--out", "p.py"], "p.py", "p.py"),
          (["sweep", "unitary", "--out", "p.py"], "./p.py", "p.py"),
          (["sweep", "unitary", "--k-points", "3"], "sweep_unitary.csv", "sweep_unitary.csv"),
          (["inset", "fig3"], "inset_fig3.csv", "inset_fig3.csv"),
          (["mps"], "mps.csv", "mps.csv")]],
    # inline a flag and its value are two arguments, in an @file one line flag=value
    *[refusal([*command, flag, "7"], f"unrecognized arguments: {flag} 7")
      for command, flag in UNREAD],
    *[refusal([*command, "@run.args"], f"unrecognized arguments: {flag}=7", f"{flag}=7".encode())
      for command, flag in [(["mps"], "--budget"), (["verify"], "--out"), *UNREAD[-3:]]],
    # a flag given no value: argparse stores [] for --FLAG=--, inline or in an @file, without
    # calling type, and '' for --out=
    *[refusal([*command, f"{flag}=--"], f"argument {flag}: expected one argument")
      for command, flag in NO_VALUE],
    *[refusal(["sweep", "unitary", f"{flag}="], f"argument {flag}: expected one argument")
      for flag in ["--out", "--plot-script"]],
    refusal(["mps", "@run.args"], "argument --h: expected one argument", b"--h=--\n"),
    # at J = 1e308 the phases J t leave the float range for t > 1.8; at J/h = 1e10 they stay
    # finite, but one ulp of t moves Omega t_max by about 1.5e-5 rad. The search runs on
    # (1, J/h), and the error names J/h and t_max in units of 1/h
    *[refusal([*command, "--J", j, "--budget", "3000", "--k-points", "2"], phase_refusal(*named))
      for j, named in [("1e308", ("inf", "1e+308")), ("1e10", ("1e+11", "1e+10"))]
      for command in SEARCH_COMMANDS],
    refusal(["sweep", "separable", "--h", "1e-5", "--J", "1e5", "--k-points", "2"],
            phase_refusal("1e+11", "1e+10")),
    refusal(["sweep", "separable", "--h", "4", "--t-max", "1e12", "--k-points", "2"],
            phase_refusal("2.83e+12", "2", "1e+12")),
    # rejected before any grid is formed: numpy would raise ValueError or IndexError
    *[refusal([*command, "--k-points", str(n)], f"k_points {n} is too large: numpy cannot "
              "describe a float64 grid of that many points")
      for command in [["sweep", "unitary"], ["sweep", "separable"], ["inset", "fig3"]]
      for n in HUGE],
    *[refusal(["mps", "--grid-n", str(n)],
              f"grid_n {n} is too large: numpy cannot describe a grid_n x grid_n float64 scan")
      for n in HUGE],
    refusal(["mps", "--grid-n", "1"], "grid_n must be at least 2, got 1"),
    refusal(["sweep", "unitary", "--out", "no/such/dir/x.csv"],
            "[Errno 2] No such file or directory: 'no/such/dir/x.csv'"),
    # the probe's bracket cancels to rounding noise at J = 1e8 h; the scan runs on (1, J/h),
    # so the message names the ratio that decides it, not h = 1
    refusal(["mps", "--h", "3", "--J", "3e8"], "rounding hides the sign of w_p at the probe for "
            "J/h=100000000.0: the scan cannot tell passive points"),
    *[refusal([*command, "--h", "1e-300", "--J", "1e308"],
              "J/h = inf is not finite for h=1e-300, J=1e+308") for command in ROW_COMMANDS],
]


@pytest.mark.parametrize("argv, argument_file, message", REFUSALS)
def test_refusal_exits_2_before_any_work(argv, argument_file, message):
    assert_refused(run_cli(argv, argument_file), message)


# The grammar test's pools. A flag draws from its own pool, or from NUMBERS, twice as often as
# from JUNK; the flags that size the work or the pool keep small values (1_0 reads as 10)
NUMBERS = ["0", "1", "-1", "0.5", "2", "1e5", "1e-300", "1e300", "1_0"]
PATHS = ["é.csv", "a'b\".csv", "a\\b.csv", "q/", "-", "p.py"]
POOLS = {"--k-points": ["0", "1", "2", "3"], "--budget": ["0", "1", "2000", "1_0"],
         "--grid-n": ["1", "2", "5"], "--threads": ["0", "1", "2"], "--out": PATHS,
         "--plot-script": PATHS}
JUNK = ["--", "", "-", "@missing", "nan", "inf", "-inf", "1e400", "5e-324", "one"]
# arguments and @file lines that no flag draws: a NUL goes in @file lines only
STRAYS = ["9", "--k-pionts=9", "--t-probe=1", "@missing", "--"]
FILE_STRAYS = ["", "--out=a\0b.csv", "@inner\0.args", "--h=--", "--plot-script=p\0.py", "@run.args"]
# arguments in front of the drawn ones, which override them: no run is large or starts more
# than 2 workers, and every CSV goes to a drawn path and meets a plot script
BASE = {"sweep unitary": ["--k-points", "3"], "verify": [], "mps": ["--grid-n", "3"]}
SEARCH_BASE = ["--k-points", "2", "--budget", "500", "--threads", "1"]


@st.composite
def command_lines(draw):
    """An argv and the bytes of its @file run.args, or None: a subcommand, then flags of
    its own, each inline as one or two arguments or as an @file line, and strays."""
    name = draw(st.sampled_from(sorted(OPTIONS)))
    inline = name.split() + ([draw(st.sampled_from(["fig2", "fig3"]))] if name == "inset" else [])
    start, lines = len(inline), []
    inline += BASE.get(name, SEARCH_BASE)
    if "--out" in OPTIONS[name]:
        inline += ["--out", draw(st.sampled_from(PATHS)), "--plot-script", "p.py"]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(sorted(OPTIONS[name])))
        option = f"{flag}={draw(st.sampled_from(POOLS.get(flag, NUMBERS) * 2 + JUNK))}"
        kind = draw(st.sampled_from(["split", "joined", "file"] * 3 + ["stray", "file stray"]))
        if kind == "split":
            inline += option.split("=", 1)
        elif kind == "joined":
            inline.append(option)
        elif kind == "file":
            lines.append(option)
        elif kind == "stray":
            inline.append(draw(st.sampled_from(STRAYS)))
        else:
            lines.append(draw(st.sampled_from(FILE_STRAYS)))
    if not lines:
        return inline, None
    inline.insert(draw(st.integers(start, len(inline))), "@run.args")
    return inline, "\n".join(lines).encode()


@given(command_lines())
@settings(max_examples=250, derandomize=True, database=None, deadline=None)
def test_grammar_ends_in_exit_0_or_2_without_a_traceback(command_line):
    # exit 1 means a failed self-check, so only verify may end in it
    run = run_cli(*command_line)
    assert run[0] in ((0, 1, 2) if command_line[0][0] == "verify" else (0, 2)), run
    assert "Traceback" not in run[1] + run[2], run
    if run[0] == 2:
        assert_refused(run)
    else:  # each file the run reports is there, so none overwrote another
        assert len(run[3]) == run[1].count("wrote "), run
