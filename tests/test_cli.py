import contextlib
import dataclasses
import io
import json
import math
import re
import shlex
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warptrap import cli
from warptrap.cli import ExperimentConfig, ConfigError, OutputCollector, main


def run_cli(args):
    return main(args)


# JSON values by kind; every list drawn holds a non-integer, so none fits
# list[int]
JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-10**6, 10**6),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "non-finite": st.sampled_from([math.nan, math.inf, -math.inf]),
    "str": st.text(max_size=8),
    "list": st.lists(st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3)),
                     min_size=1, max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
_FLOAT = {"int", "float"}


def _at_or_below(bound, values):
    """Values at or below a range's edge, the edge itself drawn often."""
    return st.one_of(st.just(bound), values(max_value=bound))


_NONPOSITIVE = _at_or_below(0.0, st.floats)
# per config field: the JSON kinds its annotation accepts, and the values
# basic_validate refuses as out of range (None where it checks no range)
CONFIG_FIELDS = {
    "m": ({"int"}, _at_or_below(0, st.integers)),
    "x0": (_FLOAT, None),
    "x0_plus": (_FLOAT | {"null"}, None),
    "x0_minus": (_FLOAT | {"null"}, None),
    # a repeated degree, or a negative one no lower than -100: grids grow
    # with |l|, so a run that misses the check stays small
    "l_list": (set(), st.one_of(
        st.lists(st.integers(0, 100), min_size=1, max_size=4).map(lambda ls: ls + ls[:1]),
        st.tuples(st.lists(st.integers(0, 100), max_size=3), st.integers(-100, -1))
        .map(lambda p: p[0] + [p[1]]))),
    "x_max": (_FLOAT, None),
    # no range of its own: each planner that reads R refuses its own values
    "R": (_FLOAT, None),
    "T_max": (_FLOAT, _NONPOSITIVE),
    "k": ({"int"}, _at_or_below(-1, st.integers)),
    # a step that is not positive, or longer than the default horizon T_max = 200
    "dt": (_FLOAT | {"null"}, st.one_of(_NONPOSITIVE, st.floats(200.0, exclude_min=True,
                                                                allow_infinity=False))),
    "causal": ({"str"}, st.text(max_size=8).filter(lambda s: s not in ("strict", "audited"))),
    "seed": ({"int"}, _at_or_below(-1, st.integers)),
    "out_dir": ({"str"}, None),
}


def malformed_values(field):
    """Wrongly typed, non-finite or out-of-range JSON values for a field,
    half of them out of range where the field has a range."""
    accepted, out_of_range = CONFIG_FIELDS[field]
    wrong = st.one_of(*(s for kind, s in JSON_KINDS.items() if kind not in accepted))
    return wrong if out_of_range is None else st.one_of(wrong, out_of_range)


def strict_load(path):
    """A JSON artifact parsed as RFC 8259 JSON, which has no Infinity or NaN."""
    def reject(name):
        raise ValueError(f"{path.name} holds the non-JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture(scope="module", autouse=True)
def strict_json_artifacts():
    """Every JSON file a test here writes through the CLI must be strict JSON."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("write_json", "finish"):
            def checked(self, *args, _write=getattr(OutputCollector, name)):
                path = _write(self, *args)
                strict_load(path)
                return path

            mp.setattr(OutputCollector, name, checked)
        yield


class TestConfig:
    def test_unknown_field_rejected(self, tmp_path, capsys):
        # besides a made-up name, the grid, multiplier and growth-threshold
        # overrides the config no longer carries, each at a value it once
        # accepted
        for name, value in [("nonsense", 1), ("n_interval", 300), ("h_per_sigma", 0.05),
                            ("h_per_sigma_evolve", 0.2), ("delta", 0.1), ("A", 10.0)]:
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({name: value, "out_dir": str(tmp_path / name)}))
            assert run_cli(["quasimode", "--config", str(cfg)]) == 1, name
            assert capsys.readouterr().err == (
                f"error: config field '{name}': unknown field in config file\n")
            assert not (tmp_path / name).exists()

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"m": 2, "T_max": 50.0}))
        out = ExperimentConfig.load(str(cfg), {"T_max": 80.0})
        assert out.m == 2 and out.T_max == 80.0

    def test_field_validation_messages(self):
        with pytest.raises(ConfigError, match="T_max"):
            ExperimentConfig.load(None, {"T_max": -1.0})
        with pytest.raises(ConfigError, match="causal"):
            ExperimentConfig.load(None, {"causal": "maybe"})
        with pytest.raises(ConfigError, match="'dt'"):
            ExperimentConfig.load(None, {"dt": 0.0})

    @pytest.mark.parametrize("field, value", [
        ("m", "2"), ("m", 2.0), ("m", True), ("x0", "-1"), ("x0_plus", [1.0]),
        ("l_list", 20), ("l_list", [20, "30"]), ("l_list", [20.0]),
        ("causal", 1), ("out_dir", None),
    ])
    def test_field_types_checked(self, tmp_path, field, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({field: value}))
        with pytest.raises(ConfigError, match=f"'{field}'"):
            ExperimentConfig.load(str(cfg), {})

    def test_annotated_types_accepted(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"m": 2, "x0": -2, "x0_plus": None, "l_list": [],
                                   "dt": 0.5, "causal": "strict"}))
        out = ExperimentConfig.load(str(cfg), {})
        assert (out.m, out.x0, out.l_list, out.dt) == (2, -2, [], 0.5)

    @pytest.mark.parametrize("text", ["{", "[1, 2]"])
    def test_unreadable_config_names_the_path(self, tmp_path, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match="c.json"):
            ExperimentConfig.load(str(cfg), {})


# a strict-mode wall inside the light cone, which only the planner refuses,
# and R inside the quasimode data's support, which evolve.run_confinement
# also refuses
_SHORT_STRICT = ["--x0", "-1.0", "--l", "20", "--T", "500", "--x-max", "24",
                 "--causal", "strict"]
_R_IN_SUPPORT = ["--x0", "-1.0", "--l", "20", "--T", "5", "--R", "-0.5"]
# l = 2 at x0 = -1: tau^2 lies outside the frequency bracket
_OUT_OF_BRACKET = ["--x0", "-1.0", "--l", "2"]
# a small evolution grid whose operator norm bound, 1.618e5, admits k <= 58
_K_GRID = ["--x0", "-1.0", "--l", "14", "--T", "2", "--x-max", "4"]
_BIFURCATION = ["bifurcation", "--x0-plus", "1", "--R", "3.5", "--T", "1", "--x-max", "6"]
# runs whose full eigensolve would need far more than any physical memory:
# about 1.25e7 nodes for the degree, and for the bump grids, which end past
# the round trip of the horizon, (T + x0_plus + 2 + R)/2 plus a margin
_OVERSIZE = [
    pytest.param(["confinement", "--x0", "-1.0", "--l", "100000", "--T", "1", "--x-max", "24"],
                 "l_list", id="confinement-oversize"),
    pytest.param(["bifurcation", "--x0-plus", "1", "--x0-minus", "-1", "--R", "3.5", "--l", "40",
                  "--T", "999990", "--x-max", "1000000"], "T_max", id="bifurcation-oversize"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv, field", [
        (["quasimode", "--x0", "1.0"], "x0"),
        (["multiplier-audit", "--x0", "-1.0"], "x0"),
        (["confinement", *_SHORT_STRICT], "x_max"),
        (["confinement", *_R_IN_SUPPORT], "R"),
        pytest.param(["quasimode", *_OUT_OF_BRACKET, "20", "30"], "l_list",
                     id="quasimode-bracket"),
        pytest.param(["confinement", *_OUT_OF_BRACKET], "l_list", id="confinement-bracket"),
        # an R before the boundary, which the planner refuses at the data's support
        pytest.param(["confinement", "--x0", "-1.0", "--l", "20", "--T", "5", "--R", "-2"], "R",
                     id="confinement-R-before-x0"),
        # an evolution domain that ends before the neck
        pytest.param(["confinement", "--x0", "-1.0", "--l", "20", "--T", "5", "--x-max", "0"],
                     "x_max", id="confinement-x_max-before-neck"),
        # lambda^(k+1) overflows for the largest eigenvalues of the grid
        pytest.param(["confinement", *_K_GRID, "--k", "59"], "k", id="confinement-k"),
        # a sample step longer than the horizon
        pytest.param(["confinement", *_K_GRID, "--dt", "5"], "dt", id="confinement-dt"),
        pytest.param(["bifurcation", "--x0-plus", "1", "--x0-minus", "-1", "--R", "3.5", "--l",
                      "20", "--T", "2", "--x-max", "8", "--dt", "5"], "dt", id="bifurcation-dt"),
        # an R at or past the wall, where E_R would be the energy of the whole
        # domain: x_max for confinement, min(x_max, x0_minus + 25) for the
        # trapped side of bifurcation
        pytest.param(["confinement", *_K_GRID, "--R", "30"], "R", id="confinement-R-past-wall"),
        pytest.param(["confinement", *_K_GRID, "--R", "4"], "R", id="confinement-R-at-wall"),
        pytest.param([*_BIFURCATION, "--x0-minus", "-1", "--l", "12", "--R", "6"], "R",
                     id="bifurcation-R-at-x_max"),
        pytest.param([*_BIFURCATION, "--x0-minus", "-22", "--l", "12"], "R",
                     id="bifurcation-R-past-trapped-wall"),
        pytest.param([*_BIFURCATION, "--x0-minus", "-1", "--l", "2"], "l_list",
                     id="bifurcation-bracket"),
        # the trapped-side run's domain, up to min(x_max, x0_minus + 25), is empty
        pytest.param([*_BIFURCATION, "--x0-minus", "-26", "--l", "12"], "x0_minus",
                     id="bifurcation-x0_minus"),
        *_OVERSIZE,
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_refused_before_output_dir(self, argv, field, tmp_path, capsys):
        code = run_cli([*argv, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{field}': ")
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, field", _OVERSIZE)
    def test_oversize_refused_before_any_solve(self, argv, field, tmp_path, capsys,
                                               monkeypatch):
        from warptrap import evolve, quasimode

        solves = []
        monkeypatch.setattr(quasimode, "lowest_pair", lambda op: solves.append(op.n))
        monkeypatch.setattr(evolve, "eigen_full", lambda op: solves.append(op.n))
        assert run_cli([*argv, "--out", str(tmp_path / "o")]) == 1
        assert "physical memory" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize("spare, code", [(-1, 1), (0, 0)])
    def test_oversize_boundary(self, spare, code, tmp_path, capsys, monkeypatch):
        # refused when the eigenvector matrix, 8 n^2 bytes, exceeds the
        # physical memory by one byte; run when it fits exactly
        from warptrap import cli as cli_mod, evolve, quasimode
        from warptrap.geometry import WarpGeometry

        geom = WarpGeometry.of(1, -1.0)
        n = quasimode.interval_grid(geom, 14, evolve.EVOLUTION_H_PER_SIGMA).extended(4.0) \
            .n_interior
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: 8 * n * n + spare)
        out = tmp_path / "o"
        assert run_cli(["confinement", "--x0", "-1.0", "--l", "14", "--T", "2",
                        "--x-max", "4", "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: config field 'l_list': degree 14 ")
            assert f"n = {n} nodes" in err and not out.exists()
        else:
            assert err == "" and (out / "manifest.json").exists()

    @pytest.mark.parametrize("spare", [-1, 0])
    def test_long_horizon_boundary(self, spare, monkeypatch):
        # refused when the five per-sample arrays, 40 bytes for each of the
        # round(T/dt) + 1 samples, exceed the physical memory by one byte
        from warptrap import cli as cli_mod

        cfg = cli_mod.ExperimentConfig.load(None, {"T_max": 4.0, "dt": 0.5})
        monkeypatch.setattr(cli_mod, "_physical_memory", lambda: 40 * 9 + spare)
        if spare < 0:
            with pytest.raises(cli_mod.ConfigError, match="'dt': .* takes 9 samples"):
                cli_mod._refuse_long_horizon(cfg)
        else:
            cli_mod._refuse_long_horizon(cfg)

    @pytest.mark.parametrize("argv", [
        ["quasimode", "--x0", "-1.0"],
        ["confinement", "--x0", "-1.0"],
        # a horizon inside the bump runs' causality budget, so that only the
        # degrees are wrong
        ["bifurcation", "--x0-plus", "1.0", "--x0-minus", "-1.0", "--R", "3.5",
         "--T", "5", "--x-max", "40"],
    ], ids=lambda argv: argv[0])
    def test_empty_l_list_is_validation_error(self, argv, tmp_path, capsys):
        code = run_cli([*argv, "--l", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'l_list': ")
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    def test_wrongly_typed_config_field_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"m": "2"}))
        code = run_cli(["quasimode", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'m'" in err and "Traceback" not in err

    def test_missing_config_file_is_validation_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code = run_cli(["quasimode", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, field", [
        ("--T=nan", "T_max"), ("--dt=inf", "dt"), ("--x0=-inf", "x0"),
    ])
    def test_non_finite_flag_is_validation_error(self, tmp_path, capsys, flag, field):
        code = run_cli(["confinement", flag, "--out", str(tmp_path / "o")])
        assert code == 1
        value = float(flag.partition("=")[2])
        assert capsys.readouterr().err == (
            f"error: config field '{field}': must be finite, got {value!r}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, field", [
        ('{"T_max": Infinity}', "T_max"), ('{"x_max": NaN}', "x_max"),
        ('{"x0_plus": -Infinity}', "x0_plus"),
    ])
    def test_non_finite_config_field_is_validation_error(self, tmp_path, capsys, text,
                                                         field):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        code = run_cli(["quasimode", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{field}': must be finite, got ")
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", sorted(CONFIG_FIELDS))
    @settings(max_examples=12)
    @given(data=st.data())
    def test_property_malformed_config_is_validation_error(self, tmp_path_factory, field,
                                                           data):
        # every malformed field is refused before a command runs: exit 1, one
        # "error:" line naming the field, no traceback, no output directory
        assert set(CONFIG_FIELDS) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        value = data.draw(malformed_values(field), label="value")
        tmp = tmp_path_factory.mktemp("cfg")
        cfg = tmp / "c.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp / "o"), field: value}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(["quasimode", "--config", str(cfg)])
        err = err.getvalue()
        assert code == 1
        assert err.startswith(f"error: config field '{field}': ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp / "o").exists()

    def test_echo_is_strict_json(self):
        cfg = ExperimentConfig()
        cfg.T_max = math.inf  # set past basic_validate, which every command path runs
        with pytest.raises(ValueError, match="JSON compliant"):
            cfg.echo()

    @pytest.mark.parametrize("argv, reason", [
        (["confinement", "--bogus"], "unrecognized arguments: --bogus"),
        (["quasimode", "--l", "x"], "argument --l: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown-flag", "bad-value", "no-command"])
    def test_usage_error_is_validation_error(self, argv, reason, capsys):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"

    def test_negative_exponent_value_is_a_number(self, monkeypatch):
        # every float flag reads -1e-0 given as a separate argument; the load
        # that follows the parse is stopped once it has seen the value
        parser = cli._Parser()
        cli._add_common(parser)
        flags = [(a.option_strings[0], a.dest) for a in parser._actions if a.type is float]
        assert len(flags) == 7
        seen = {}

        def load(path, overrides):
            seen.update(overrides)
            raise ConfigError("x0", "parsed")

        monkeypatch.setattr(ExperimentConfig, "load", load)
        for flag, dest in flags:
            seen.clear()
            assert run_cli(["confinement", flag, "-1e-0"]) == 1, flag
            assert seen[dest] == -1.0, flag

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_oversize_horizon_is_validation_error(self, tmp_path, capsys):
        # 10^12 samples: the planner refuses their 40 TB of per-sample arrays
        # before any solve and before the output directory
        for argv in (["confinement", "--x0", "-1", "--l", "20", "--x-max", "3"],
                     ["bifurcation", "--x0-plus", "1", "--x0-minus", "-1", "--R", "3.5",
                      "--l", "20", "--x-max", "1010"]):
            out = tmp_path / argv[0]
            code = run_cli([*argv, "--T", "1000", "--dt", "1e-9", "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: config field 'dt': a sample step of 1e-09 up to "
                                  "T_max = 1000 takes 1000000000001 samples")
            assert err.count("\n") == 1 and "Traceback" not in err
            assert not out.exists()

    def test_uncreatable_output_dir_is_validation_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run_cli(["multiplier-audit", "--x0", "1.0", "--out", str(blocker / "sub")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @settings(max_examples=60)
    @given(data=st.data())
    def test_property_small_runs_refuse_or_finish(self, tmp_path_factory, data):
        # small confinement and bifurcation runs with drawn steps, radii and
        # k: a refusal (exit 1) is one config-field error and leaves no
        # output directory, and a finished run (exit 0 or 2) leaves a
        # manifest listing every file it wrote
        draw = data.draw
        command = draw(st.sampled_from(["confinement", "bifurcation"]), label="command")
        T = draw(st.floats(0.25, 4.0), label="T")
        x_max = draw(st.floats(0.5, 8.0), label="x_max")
        x0_plus = draw(st.floats(0.25, 1.0), label="x0_plus")
        # R from a little before to a little past the range where it fits
        # between the data and the wall
        lo = 0.0 if command == "confinement" else x0_plus + 2.0
        R = lo + draw(st.floats(-0.1, 1.1), label="R fraction") * (x_max - lo)
        # each flag and its value as separate arguments, as a shell passes
        # them; a negative value such as -1e-67 is read as a number
        argv = [command, "--l", *map(str, draw(st.lists(st.integers(8, 15), min_size=1,
                                                        max_size=2, unique=True), label="l")),
                "--T", repr(T), "--x-max", repr(x_max), "--R", repr(R),
                "--k", str(draw(st.integers(0, 3) | st.integers(40, 70), label="k"))]
        dt = draw(st.none() | st.floats(0.05, 1.5 * T), label="dt")
        argv += [] if dt is None else ["--dt", repr(dt)]
        x0 = draw(st.floats(-2.0, -1.0), label="x0")
        argv += (["--x0", repr(x0)] if command == "confinement" else
                 ["--x0-minus", repr(x0), "--x0-plus", repr(x0_plus)])
        out = tmp_path_factory.mktemp("run") / "o"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli([*argv, "--out", str(out)])
        err = err.getvalue()
        assert code in (0, 1, 2), err
        if code == 1:
            assert err.startswith("error: config field ") and err.count("\n") == 1, err
            assert not out.exists()
        else:
            files = json.loads((out / "manifest.json").read_text())["files"]
            written = {p.name for p in out.iterdir()} - {"manifest.json"}
            assert sorted(files) == sorted(written)

    def test_failed_check_is_exit_two(self, tmp_path, capsys):
        # horizon too short for the open side to empty the near region
        code = run_cli([
            "bifurcation", "--x0-plus", "1.0", "--x0-minus", "-1.0", "--R", "3.5",
            "--l", "15", "--T", "0.5", "--x-max", "40", "--out", str(tmp_path / "o"),
        ])
        assert code == 2


@pytest.fixture(scope="module")
def quasimode_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("qm")
    code = run_cli(["quasimode", "--x0", "-1.0",
                    "--l", "15", "20", "25", "30", "35",
                    "--out", str(out)])
    assert code == 0
    return out


class TestQuasimodeCommand:
    def test_outputs_and_manifest(self, quasimode_run):
        manifest = json.loads((quasimode_run / "manifest.json").read_text())
        assert manifest["all_pass"]
        for name in manifest["files"]:
            p = quasimode_run / name
            assert p.exists() and p.stat().st_size > 0
        listed = set(manifest["files"])
        on_disk = {p.name for p in quasimode_run.iterdir()} - {"manifest.json"}
        assert listed == on_disk

    def test_csv_schema(self, quasimode_run):
        lines = (quasimode_run / "quasimodes.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header.split(",") == [
            "l", "sigma", "tau_sq", "bracket_lo", "bracket_hi",
            "residual_h0", "residual_h1", "residual_h2", "agmon_ratio",
        ]
        assert any(ln.startswith("# config=") for ln in lines)

    def test_gnuplot_columns_match_data_header(self, quasimode_run):
        # each plotted column, looked up by name in the data file's header
        lines = (quasimode_run / "decay_curves.dat").read_text().splitlines()
        header = next(ln for ln in lines if not ln.startswith("#")).split(",")
        names = dict(enumerate(header, start=1))
        script = (quasimode_run / "decay_curves.gp").read_text()
        plotted = re.findall(r"using (\d+):(\d+) .*title '([^']*)'", script)
        want = {"residual H0": "log10_r0", "tail ratio": "log10_tail"}
        assert sorted(title for *_, title in plotted) == sorted(want)
        for x_col, y_col, title in plotted:
            assert names.get(int(x_col)) == "sigma", title
            assert names.get(int(y_col)) == want[title], title

    def test_fit_summary_negative_slopes(self, quasimode_run):
        fits = json.loads((quasimode_run / "decay_fits.json").read_text())["fits"]
        for key, fit in fits.items():
            assert fit["slope"] < 0, key

    def test_config_echo_regenerates(self, quasimode_run, tmp_path):
        lines = (quasimode_run / "quasimodes.csv").read_text().splitlines()
        echo = next(ln for ln in lines if ln.startswith("# config="))
        cfg = json.loads(echo.removeprefix("# config="))
        cfg["out_dir"] = str(tmp_path / "regen")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["quasimode", "--config", str(cfg_path)]) == 0
        # the echo leaves out the output directory, so the headers match too
        assert (tmp_path / "regen" / "quasimodes.csv").read_bytes() == \
               (quasimode_run / "quasimodes.csv").read_bytes()

    def test_too_few_degrees_fail_the_fits(self, tmp_path):
        # two degrees cannot fit a decay rate: every fit records its error and
        # the run exits 2 after writing all its artifacts
        out = tmp_path / "qm2"
        assert run_cli(["quasimode", "--x0", "-1.0", "--l", "20", "30",
                        "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["passes"] == {"decay_fits_negative": False}
        assert not manifest["all_pass"]
        fits = json.loads((out / "decay_fits.json").read_text())["fits"]
        assert len(fits) == 8
        for fit in fits.values():
            assert fit == {"error": "need at least 5 quasimodes with distinct "
                                    "frequencies above the floor"}

    def test_reads_no_truncation_radius(self, tmp_path):
        # quasimode never reads R, so an R before the boundary is no error
        assert run_cli(["quasimode", "--x0", "-1.0", "--l", "18", "22", "26", "30", "34",
                        "--R", "-2", "--out", str(tmp_path / "q")]) == 0


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path):
        out = tmp_path / "d"
        args = ["quasimode", "--x0", "-1.0", "--l", "18", "22", "26", "30", "34",
                "--out", str(out)]
        assert run_cli(args) == 0
        first = {name: (out / name).read_bytes()
                 for name in ("quasimodes.csv", "decay_curves.dat")}
        assert run_cli(args) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob


    def test_runs_into_different_directories_match(self, tmp_path):
        # only the manifest names the output directory
        args = ["quasimode", "--x0", "-1.0", "--l", "18", "22", "26", "30", "34"]
        a, b = tmp_path / "a", tmp_path / "b" / "c"
        assert run_cli([*args, "--out", str(a)]) == 0
        assert run_cli([*args, "--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (a / name).read_bytes() == (b / name).read_bytes(), name
        configs = [json.loads((d / "manifest.json").read_text())["config"] for d in (a, b)]
        assert [c.pop("out_dir") for c in configs] == [str(a), str(b)]
        assert configs[0] == configs[1]


def stand_in_reports(monkeypatch, *reports):
    """Stand-in confinement runs, one per degree in increasing order: each
    passes every gate unless its dict in ``reports`` overrides a field (a
    list becomes an array), and its graph norm is a stub, so no run solves
    a full spectrum."""
    import numpy as np

    from warptrap import evolve

    base = dict(t_confinement=math.inf, ratio_E_R=np.ones(2), f_norm=0.0, gap_bound_ok=True,
                half_bound_ok=True, wall_ok=True, wall_buffer_max=0.0, energy_drift=0.0,
                state=None, csv_columns=lambda: [], le1_times=np.zeros(2), le1_at=lambda T: 0.0)
    it = iter([SimpleNamespace(**{**base, **{k: np.asarray(v) if isinstance(v, list) else v
                                             for k, v in kw.items()}}) for kw in reports])
    monkeypatch.setattr(evolve, "run_confinement", lambda *args, **kwargs: next(it))
    monkeypatch.setattr(evolve, "dbk_norm", lambda state, k: (1.0, True))


class TestConfinementCommand:
    def test_run_and_schema(self, tmp_path):
        out = tmp_path / "conf"
        code = run_cli(["confinement", "--x0", "-1.0", "--l", "20", "--T", "40",
                        "--x-max", "16", "--out", str(out)])
        assert code == 0
        lines = (out / "evolution_l20.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header.split(",") == ["t", "E", "E_R", "ratio_E_R", "LE1_running",
                                     "duhamel_gap"]
        summary = json.loads((out / "confinement_summary.json").read_text())
        per_l = summary["per_l"]["20"]
        assert per_l["min_ratio_E_R"] > 0.9
        assert per_l["half_bound_ok"]
        assert per_l["t_confinement"] == "inf"
        # the LE1 growth ratio at the horizon min(t_confinement, T)
        assert per_l["le1_T"] == 40.0
        assert per_l["le1_ratio"] * per_l["dbk_norm"] > 0

    @pytest.mark.parametrize("t_conf,ok", [((math.inf, 5.0), False), ((5.0, math.inf), True)],
                             ids=["drop-at-higher-degree", "drop-at-lower-degree"])
    def test_confinement_times_must_not_decrease(self, tmp_path, monkeypatch, t_conf, ok):
        # stand-in runs that differ only in their confinement times, one per
        # degree in increasing order; a degree that never drops (inf) before
        # one that does is a decrease
        stand_in_reports(monkeypatch, *({"t_confinement": t} for t in t_conf))
        out = tmp_path / "c"
        code = run_cli(["confinement", "--x0", "-1.0", "--l", "20", "40", "--out", str(out)])
        passes = json.loads((out / "manifest.json").read_text())["passes"]
        assert passes.pop("t_confinement_nondecreasing") is ok
        assert all(passes.values())
        assert code == (0 if ok else 2)

    @pytest.mark.parametrize("report, check", [
        ({"gap_bound_ok": False}, "gap_bound"),
        ({"half_bound_ok": False}, "half_bound"),
    ], ids=["gap_bound", "half_bound"])
    def test_gates_can_fail(self, report, check, tmp_path, monkeypatch):
        stand_in_reports(monkeypatch, {}, report)
        out = tmp_path / "c"
        code = run_cli(["confinement", "--x0", "-1.0", "--l", "20", "40", "--out", str(out)])
        assert code == 2
        passes = json.loads((out / "manifest.json").read_text())["passes"]
        assert {name for name, ok in passes.items() if not ok} == {f"{check}_l40"}

    def test_wall_inside_light_cone_fails_audit(self, tmp_path):
        # a wall at x_max = 3 that the front reaches well before T = 100: the
        # default audited mode gates each degree's wall-strip energy
        out = tmp_path / "c"
        code = run_cli(["confinement", "--x0", "-1.0", "--l", "14", "18", "--T", "100",
                        "--x-max", "3", "--out", str(out)])
        assert code == 2
        passes = json.loads((out / "manifest.json").read_text())["passes"]
        assert {name for name, ok in passes.items() if not ok} == {"wall_audit_l14",
                                                                   "wall_audit_l18"}

    def test_strict_domain_that_fits_runs_unaudited(self, tmp_path):
        # x_max = 4 >= R + T = 3, so strict mode accepts the domain; the run
        # measures its wall strip either way, and only audited mode gates it
        summaries = {}
        for causal in ("strict", "audited"):
            out = tmp_path / causal
            assert run_cli(["confinement", *_K_GRID, "--causal", causal,
                            "--out", str(out)]) == 0
            passes = json.loads((out / "manifest.json").read_text())["passes"]
            assert passes.get("wall_audit_l14") is (None if causal == "strict" else True)
            summaries[causal] = json.loads(
                (out / "confinement_summary.json").read_text())["per_l"]
        assert summaries["strict"] == summaries["audited"]

    def test_sample_step_reaches_the_runs(self, tmp_path):
        # le1_ratio is LE1 at the horizon over the graph norm of the run's own
        # data, computed directly here on the command's grid; --dt moves it.
        # T = 8 keeps the front of the data, supported in x < 0, out of the
        # audited wall strip [10, 12]
        from warptrap import evolve, quasimode
        from warptrap.geometry import WarpGeometry

        geom = WarpGeometry.of(1, -1.0)
        qm = quasimode.build_quasimode(geom, 14, quasimode.interval_grid(
            geom, 14, evolve.EVOLUTION_H_PER_SIGMA))
        ratios = []
        for dt in (None, 0.1):
            out = tmp_path / f"dt{dt}"
            step = [] if dt is None else ["--dt", str(dt)]
            assert run_cli(["confinement", "--x0", "-1.0", "--l", "14", "--T", "8",
                            "--x-max", "12", *step, "--out", str(out)]) == 0
            got = json.loads((out / "confinement_summary.json").read_text())["per_l"]["14"]
            rep = evolve.run_confinement(geom, qm, qm.grid.extended(12.0), 8.0, 1.0, dt=dt,
                                         le1=True)
            T = min(rep.t_confinement, 8.0)
            dbk, resolved = evolve.dbk_norm(rep.state, 1)
            assert (got["le1_T"], got["dbk_norm"], got["dbk_resolved"]) == (T, dbk, resolved)
            assert got["le1_ratio"] == rep.le1_at(T) / dbk
            ratios.append(got["le1_ratio"])
        assert ratios[0] != ratios[1]

    def test_le1_horizon_is_a_sample_time(self, tmp_path):
        # a step that does not divide T: the samples end at t = 3 < T = 4, so
        # the LE1 ratio is read at t = 3, the last LE1 sample
        from warptrap import evolve, quasimode
        from warptrap.geometry import WarpGeometry

        out = tmp_path / "c"
        assert run_cli(["confinement", "--x0", "-1.0", "--l", "14", "--T", "4", "--x-max", "8",
                        "--dt", "3", "--out", str(out)]) == 0
        got = json.loads((out / "confinement_summary.json").read_text())["per_l"]["14"]
        geom = WarpGeometry.of(1, -1.0)
        qm = quasimode.build_quasimode(geom, 14, quasimode.interval_grid(
            geom, 14, evolve.EVOLUTION_H_PER_SIGMA))
        rep = evolve.run_confinement(geom, qm, qm.grid.extended(8.0), 4.0, 1.0, dt=3.0, le1=True)
        dbk, _ = evolve.dbk_norm(rep.state, 1)
        assert got["le1_T"] == 3.0
        assert got["le1_ratio"] == rep.le1_at(3.0) / dbk
        with pytest.raises(ValueError, match="no LE1 sample reaches t = 4.0"):
            rep.le1_at(4.0)

    @pytest.mark.parametrize("T", ["0.001", "0.004"])
    def test_horizon_shorter_than_the_grid_step(self, T, tmp_path):
        # the grid step h = 0.004975 exceeds T, so the default step is T
        # itself: two samples, the last at T
        out = tmp_path / "c"
        assert run_cli(["confinement", "--x0", "-1.0", "--l", "14", "--T", T, "--x-max", "4",
                        "--out", str(out)]) == 0
        lines = (out / "evolution_l14.csv").read_text().splitlines()
        assert [float(row.split(",")[0]) for row in lines[4:]] == [0.0, float(T)]

    def test_le1_column_ends_at_the_last_le1_sample(self, tmp_path):
        # 1,002 samples at LE1 stride 2: the last LE1 sample is t = 10, and
        # the row at t = 10.01 past it has no LE1
        out = tmp_path / "c"
        assert run_cli(["confinement", "--x0", "-1.0", "--l", "14", "--T", "10.01",
                        "--dt", "0.01", "--x-max", "12", "--out", str(out)]) == 0
        lines = (out / "evolution_l14.csv").read_text().splitlines()
        cols = lines[3].split(",")
        le1 = [(float(r.split(",")[0]), r.split(",")[cols.index("LE1_running")])
               for r in lines[4:]]
        assert len(le1) == 1002
        assert le1[-1] == (10.01, "nan")
        assert le1[-2][0] == 10.0 and all(math.isfinite(float(v)) for _, v in le1[:-1])
        assert float(le1[-2][1]) > float(le1[-3][1])

    def test_largest_admissible_k_has_a_finite_graph_norm(self, tmp_path, capsys):
        # k = 58 passes the overflow refusal, and its graph norm is finite but
        # unresolved: the grid-scale verdict reaches the summary and the
        # manifest, and the run exits 2 on that one check, silently
        out = tmp_path / "c"
        assert run_cli(["confinement", *_K_GRID, "--k", "59", "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith("the largest admissible k is 58\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["confinement", *_K_GRID, "--k", "58", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("check failure: confinement checks failed: "
                                           "['dbk_resolved_l14']\n")
        per_l = json.loads((out / "confinement_summary.json").read_text())["per_l"]["14"]
        assert math.isfinite(per_l["dbk_norm"]) and per_l["le1_ratio"] > 0
        assert per_l["dbk_resolved"] is False
        passes = json.loads((out / "manifest.json").read_text())["passes"]
        assert {name for name, ok in passes.items() if not ok} == {"dbk_resolved_l14"}


class TestBifurcationCommand:
    def test_matched_split_with_frozen_thresholds(self, tmp_path):
        # near-region energy at t = 200: the open side drains below a tenth
        # while the trapped-side mode packet keeps over nine tenths
        out = tmp_path / "bif"
        code = run_cli([
            "bifurcation", "--x0-plus", "1.0", "--x0-minus", "-1.0", "--R", "3.5",
            "--l", "40", "--T", "200", "--x-max", "210", "--dt", "2.0",
            "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "bifurcation_summary.json").read_text())
        split = summary["split"]
        assert split["plus_bump_final_ratio"] < 0.1
        assert split["minus_quasimode_min_ratio"] > 0.9

    def test_wall_inside_light_cone_fails_audit(self, tmp_path):
        # the trapped-side quasimode runs on x0_minus + 25 with an audited
        # wall, which the front reaches well before T = 100
        out = tmp_path / "bif"
        code = run_cli([
            "bifurcation", "--x0-plus", "1.0", "--x0-minus", "-1.0", "--R", "3.5",
            "--l", "15", "--T", "100", "--x-max", "105", "--out", str(out),
        ])
        assert code == 2
        passes = json.loads((out / "manifest.json").read_text())["passes"]
        assert passes == {"plus_side_decays": True, "minus_side_confines": True,
                          "wall_audit_minus": False}

    def test_round_trip_prefix_matches_full_domain(self):
        # each bump run solves the prefix of its grid on (x0, x_max) that ends
        # past the round trip, (T + x0 + 2 + R)/2 plus the tail margin; its
        # near energy agrees with the whole grid's to roundoff
        import numpy as np

        from warptrap import cli as cli_mod, evolve
        from warptrap.spectral import Grid

        cfg = ExperimentConfig(x0_plus=1.0, x0_minus=-1.0, R=3.5, l_list=[15], T_max=20.0,
                               x_max=40.0)
        bumps = cli_mod.plan_bifurcation(cfg).grids[:2]
        for prefix in bumps:
            x0 = prefix.x_left
            # the grid of the same spacing on (x0, x_max), of which it is a prefix
            full = Grid(x0, cfg.x_max, round((cfg.x_max - x0) / prefix.h) - 1)
            assert abs(full.h - prefix.h) <= 1e-15
            assert prefix.n_interior < full.n_interior / 2
            _, er = evolve.er_history(cli_mod._bump_field(cfg.m, prefix), cfg.T_max, cfg.R)
            _, er_full = evolve.er_history(cli_mod._bump_field(cfg.m, full), cfg.T_max, cfg.R)
            assert np.max(np.abs(er / er[0] - er_full / er_full[0])) <= 1e-12

    @pytest.mark.parametrize("args, field, says", [
        (["--x0-plus", "1.0", "--R", "3.5"], "x0_minus", "trapped-side boundary"),
        (["--x0-plus", "-0.5", "--x0-minus", "-1.0", "--R", "3.5"], "x0_plus",
         "positive-side boundary"),
        # the bump's support ends at x0_plus + 2, which must lie before R
        (["--R", "3.0", "--x0-plus", "1.0", "--x0-minus", "-1.0"], "R", "fits inside"),
        # an R before x0_minus is refused by the same rule, not by the config
        (["--R", "-1.5", "--x0-plus", "1.0", "--x0-minus", "-1.0"], "R", "R > x0_plus + 2"),
        # the bump runs' causality budget, x_max - (x0_plus + 2) = 37 < T
        (["--x0-plus", "1.0", "--x0-minus", "-1.0", "--R", "3.5", "--l", "15", "--T", "100",
          "--x-max", "40"], "T_max", "causality budget"),
    ], ids=["x0_minus", "x0_plus", "R", "R-before-x0_minus", "T_max"])
    def test_needs_both_sides(self, args, field, says, tmp_path, capsys):
        code = run_cli(["bifurcation", *args, "--out", str(tmp_path / "b")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{field}'")
        assert says in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "b").exists()


class TestPropagatorLifetime:
    """A command that solves one mode after another keeps at most one
    eigenvector matrix alive: whenever the full eigensolver is entered, the
    propagator it is building is the only one.  Every solve is the plan's:
    the lowest pairs on its quasimodes' grids, then the full solves on its
    grids, in order."""

    @pytest.mark.parametrize("args, solves", [
        (["quasimode", "--x0", "-1.0", "--l", "14", "15"], 0),
        (["confinement", "--x0", "-1.0", "--l", "14", "15", "--T", "2", "--x-max", "4"], 2),
        (["bifurcation", "--x0-plus", "1.0", "--x0-minus", "-1.0", "--R", "3.5", "--l", "14",
          "--T", "0.5", "--x-max", "6"], 3),
    ], ids=["quasimode", "confinement", "bifurcation"])
    def test_one_propagator_alive_per_solve(self, args, solves, tmp_path, monkeypatch):
        import weakref

        from warptrap import cli as cli_mod, evolve, quasimode

        live, alive_at_solve, lowest_n, full_n, plans = weakref.WeakSet(), [], [], [], []
        init, full = evolve.ModePropagator.__init__, evolve.eigen_full
        lowest = quasimode.lowest_pair
        planner, runner = cli_mod._COMMANDS[args[0]]

        def recording_planner(cfg):
            plans.append(planner(cfg))
            return plans[-1]

        def tracked_init(self, *a, **kw):
            live.add(self)
            init(self, *a, **kw)

        def spy(op):
            alive_at_solve.append(len(live))
            full_n.append(op.n)
            return full(op)

        def lowest_spy(op):
            lowest_n.append(op.n)
            return lowest(op)

        # a propagator cached by an earlier test would be alive uncounted
        evolve._PROP_CACHE.clear()
        monkeypatch.setattr(evolve.ModePropagator, "__init__", tracked_init)
        monkeypatch.setattr(evolve, "eigen_full", spy)
        monkeypatch.setattr(quasimode, "lowest_pair", lowest_spy)
        monkeypatch.setitem(cli_mod._COMMANDS, args[0], (recording_planner, runner))
        assert run_cli([*args, "--out", str(tmp_path / "o")]) in (0, 2)
        assert alive_at_solve == [1] * solves
        (plan,) = plans
        assert lowest_n and lowest_n == [qm.grid.n_interior for qm in plan.qms]
        assert full_n == [grid.n_interior for grid in plan.grids]
        assert len(full_n) == solves


    @pytest.mark.parametrize("args, runs", [
        (["confinement", "--x0", "-1.0", "--l", "14", "15", "--T", "2", "--x-max", "4"], 2),
        (["bifurcation", "--x0-plus", "1.0", "--x0-minus", "-1.0", "--R", "3.5", "--l", "14",
          "--T", "0.5", "--x-max", "6"], 3),
    ], ids=["confinement", "bifurcation"])
    def test_no_earlier_run_alive_at_a_later_run(self, args, runs, tmp_path, monkeypatch):
        # a finished run's per-sample data, each degree's report and each
        # bump curve with the CSV columns made from them, is freed before
        # the next run starts: only its scalars outlive it
        import weakref

        import numpy as np

        from warptrap import evolve

        done, alive_at_start = [], []
        run, history, write_csv = evolve.run_confinement, evolve.er_history, \
            OutputCollector.write_csv

        def starting(fn):
            def spy(*a, **kw):
                alive_at_start.append(sum(ref() is not None for ref in done))
                result = fn(*a, **kw)
                done.extend(map(weakref.ref, result if isinstance(result, tuple) else [result]))
                return result
            return spy

        def csv_spy(self, name, header, columns):
            done.extend(weakref.ref(c) for c in columns if isinstance(c, np.ndarray))
            return write_csv(self, name, header, columns)

        monkeypatch.setattr(evolve, "run_confinement", starting(run))
        monkeypatch.setattr(evolve, "er_history", starting(history))
        monkeypatch.setattr(OutputCollector, "write_csv", csv_spy)
        assert run_cli([*args, "--out", str(tmp_path / "o")]) in (0, 2)
        assert alive_at_start == [0] * runs


class TestImports:
    def test_cli_loads_neither_scipy_nor_sympy(self, tmp_path):
        # every CLI run pays for what importing the entry point loads; the
        # multiplier audit is closed-form numpy and loads no sympy either,
        # and every eigenpair, the quasimode scan's lowest ones and a full
        # spectrum, comes from LAPACK in numpy's own OpenBLAS
        import os
        import subprocess
        import sys

        import warptrap

        # the quasimode scan runs first: the audit's seeded Hardy corpus loads
        # numpy.random, which the scan does not
        code = ("import sys, warptrap.cli\n"
                "print(sorted({'scipy', 'sympy', 'numpy.random'} & set(sys.modules)))\n"
                "code = warptrap.cli.main(['quasimode', '--x0', '-1.0',\n"
                "                          '--l', '20', '30', '40', '50', '60', '70',\n"
                f"                          '--out', {str(tmp_path / 'qm')!r}])\n"
                "print('quasimode', code, sorted({'scipy', 'numpy.random'} & set(sys.modules)))\n"
                "import warptrap.multiplier\n"
                "print('multiplier', 'sympy' in sys.modules)\n"
                "code = warptrap.cli.main(['multiplier-audit', '--x0', '1.0',\n"
                f"                          '--out', {str(tmp_path / 'audit')!r}])\n"
                "print('audit', code, sorted({'scipy', 'sympy'} & set(sys.modules)))\n"
                "code = warptrap.cli.main(['confinement', '--x0', '-1.0', '--l', '20',\n"
                "                          '--T', '1', '--x-max', '3',\n"
                f"                          '--out', {str(tmp_path / 'conf')!r}])\n"
                "print('confinement', code, 'scipy' in sys.modules)\n")
        # the child finds the package where this process found it
        src = str(Path(warptrap.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, env=env)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "[]"
        assert "quasimode 0 []" in lines
        assert "multiplier False" in lines
        assert "audit 0 []" in lines
        assert lines[-1] == "confinement 0 False"


class TestExceptionMapping:
    def test_convergence_failure_is_exit_three(self, tmp_path, capsys, monkeypatch):
        from warptrap import cli as cli_mod

        def boom(cfg, plan, out):
            raise cli_mod.ConvergenceFailure("order estimate left the window")

        monkeypatch.setitem(cli_mod._COMMANDS, "multiplier-audit",
                            (cli_mod.plan_multiplier_audit, boom))
        code = run_cli(["multiplier-audit", "--x0", "1.0",
                        "--out", str(tmp_path / "x")])
        assert code == 3
        assert "convergence" in capsys.readouterr().err

    def test_failed_record_is_exit_two(self, tmp_path, capsys, monkeypatch):
        # main, not the command, maps a failed check to exit 2, after the
        # manifest is written
        from warptrap import cli as cli_mod

        def failing(cfg, plan, out):
            out.record("gap_bound_l20", False)

        monkeypatch.setitem(cli_mod._COMMANDS, "confinement", (lambda cfg: None, failing))
        code = run_cli(["confinement", "--x0", "-1.0", "--out", str(tmp_path / "g")])
        assert code == 2
        assert "gap_bound_l20" in capsys.readouterr().err
        assert not json.loads((tmp_path / "g" / "manifest.json").read_text())["all_pass"]

    def test_indefinite_mode_operator_is_exit_three(self, tmp_path, capsys, monkeypatch):
        from warptrap import cli as cli_mod
        from warptrap import evolve
        from warptrap.geometry import WarpGeometry
        from warptrap.spectral import Grid, build_operator

        def indefinite(cfg, plan, out):
            evolve.ModePropagator(WarpGeometry.of(1, -1.0), 0, Grid(-1.0, 1.0, 60))

        monkeypatch.setattr(evolve, "mode_operator", lambda geom, l, grid: build_operator(
            grid, lambda x: 0.0 * x - 30.0, potential_id=f"constant -30, l={l}"))
        monkeypatch.setitem(cli_mod._COMMANDS, "confinement", (lambda cfg: None, indefinite))
        code = run_cli(["confinement", "--out", str(tmp_path / "c")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("convergence failure: operator 'constant -30, l=0' (n=60)")
        assert "lowest eigenvalue -27.53" in err and err.count("\n") == 1

    def test_eigensolver_error_is_exit_three(self, tmp_path, capsys, monkeypatch):
        # LAPACK fails on the full spectrum of the evolved mode only, so the
        # planner's lowest pairs solve and the run reaches the full solve
        from warptrap import spectral
        from warptrap.spectral import EigensolverError

        solve = spectral._stemr

        def fail(d, e, il, iu):
            if iu == il:
                return solve(d, e, il, iu)
            raise EigensolverError(f"dstemr returned info=2 with 0 of {d.size} pairs")

        monkeypatch.setattr(spectral, "_stemr", fail)
        code = run_cli(["confinement", "--x0", "-1.0", "--l", "20", "--T", "1",
                        "--x-max", "3", "--out", str(tmp_path / "e")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("convergence failure: LAPACK eigensolver failed")
        assert err.count("\n") == 1

    def test_lowest_pair_failure_is_exit_three(self, tmp_path, capsys, monkeypatch):
        # the planner solves each quasimode's lowest pair, so a failed solve
        # ends the run before the output directory is made
        from warptrap import spectral
        from warptrap.spectral import EigensolverError

        def fail(d, e, il, iu):
            raise EigensolverError(f"dstemr returned info=2 with 0 of {iu - il + 1} pairs")

        monkeypatch.setattr(spectral, "_stemr", fail)
        code = run_cli(["confinement", "--x0", "-1.0", "--l", "20", "--T", "1",
                        "--x-max", "3", "--out", str(tmp_path / "e")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("convergence failure: LAPACK eigensolver failed for operator "
                              "'V_l(m=1, x0=-1.0, l=20)'")
        assert "0 of 1 pairs" in err and err.count("\n") == 1
        assert not (tmp_path / "e").exists()

    def test_missing_lapack_library_is_exit_three(self, tmp_path, capsys, monkeypatch):
        from warptrap import spectral

        monkeypatch.setattr(spectral, "_DSTEMR", None)
        monkeypatch.setattr(spectral, "_bundled_openblas", lambda: [])
        code = run_cli(["confinement", "--x0", "-1.0", "--l", "20", "--T", "1",
                        "--x-max", "3", "--out", str(tmp_path / "e")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("convergence failure: LAPACK eigensolver failed")
        assert "expected one libscipy_openblas64_" in err and err.count("\n") == 1

    def test_non_finite_mode_operator_is_exit_three(self, tmp_path, capsys, monkeypatch):
        # the evolution grid's operator, which only the full solve reads
        from warptrap import evolve
        from warptrap.spectral import TridiagonalOperator

        build = evolve.mode_operator

        def with_nan(geom, l, grid):
            op = build(geom, l, grid)
            diag = op.diag.copy()
            diag[len(diag) // 2] = float("nan")
            return TridiagonalOperator(op.grid, diag, op.offdiag, op.potential_id)

        monkeypatch.setattr(evolve, "mode_operator", with_nan)
        code = run_cli(["confinement", "--x0", "-1.0", "--l", "20", "--T", "1",
                        "--x-max", "3", "--out", str(tmp_path / "e")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("convergence failure: operator 'V_l(m=1, x0=-1.0, l=20)'")
        assert "non-finite entry" in err and err.count("\n") == 1

    def test_non_finite_operator_is_exit_three(self, tmp_path, capsys, monkeypatch):
        from warptrap import quasimode as qmod
        from warptrap.spectral import TridiagonalOperator

        build = qmod.mode_operator

        def with_nan(geom, l, grid):
            op = build(geom, l, grid)
            diag = op.diag.copy()
            diag[len(diag) // 2] = float("nan")
            return TridiagonalOperator(op.grid, diag, op.offdiag, op.potential_id)

        monkeypatch.setattr(qmod, "mode_operator", with_nan)
        code = run_cli(["quasimode", "--x0", "-1.0", "--l", "20",
                        "--out", str(tmp_path / "e")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("convergence failure: operator 'V_l(m=1, x0=-1.0, l=20)'")
        assert "non-finite entry" in err and err.count("\n") == 1


class TestCsvNumbers:
    def test_numpy_scalars_written_as_plain_numbers(self, tmp_path):
        import numpy as np

        from warptrap.evolve import EVOLUTION_CSV_COLUMNS

        times = np.linspace(0.0, 2.0, 3)
        E = np.full(3, 1037.5794056021832)
        rows = [[t, E[i], np.float32(0.5), np.int64(i), math.nan, 1e-300]
                for i, t in enumerate(times)]
        out = OutputCollector(str(tmp_path), ExperimentConfig(), "confinement")
        path = out.write_csv("evolution_l40.csv", EVOLUTION_CSV_COLUMNS, list(zip(*rows)))
        text = path.read_text()
        assert "np.float64(" not in text and "np.float32(" not in text
        body = [ln.split(",") for ln in text.splitlines()[4:]]
        assert [[float(c) for c in ln[:4]] for ln in body] == \
               [[float(v) for v in row[:4]] for row in rows]
        assert body[0][3] == "0" and body[0][4] == "nan"

    def test_column_writer_matches_row_writer(self, tmp_path, monkeypatch):
        # the bytes of the former row-by-row writer, over several blocks and
        # a short last one: arrays of floats with nan and inf, of ints and
        # of bools, and lists of numpy scalars, Python numbers, strings and
        # a broadcast constant
        import numpy as np

        monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
        rng = np.random.default_rng(5)
        n = 23
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[[2, 9, 15]] = [math.nan, math.inf, -math.inf]
        columns = [floats, np.arange(n), rng.standard_normal(n) > 0,
                   [np.float32(v) for v in rng.standard_normal(n)],
                   [np.int64(i) if i % 2 else float(i) for i in range(n)],
                   [f"c{i}" for i in range(n)], np.broadcast_to(1037.5794056021832, (n,))]
        header = [f"h{j}" for j in range(len(columns))]
        out = OutputCollector(str(tmp_path), ExperimentConfig(), "confinement")
        got = out.write_csv("c.csv", header, columns).read_bytes()
        lines = [f"# schema_version={cli.SCHEMA_VERSION}", "# command=confinement",
                 f"# config={ExperimentConfig().echo()}", ",".join(header)]
        lines += [",".join(str(cli._jsonable(v)) for v in row) for row in zip(*columns)]
        assert got == ("\n".join(lines) + "\n").encode()


class TestJsonNumbers:
    def test_non_finite_numbers_written_as_strings(self, tmp_path):
        import numpy as np

        out = OutputCollector(str(tmp_path), ExperimentConfig(), "confinement")
        path = out.write_json("s.json", {"t": math.inf, "low": -math.inf,
                                         "v": np.float64(math.nan),
                                         "row": np.array([1.5, math.inf])})
        got = strict_load(path)
        assert (got["t"], got["low"], got["v"], got["row"]) == ("inf", "-inf", "nan",
                                                                [1.5, "inf"])


@pytest.fixture(scope="module")
def audit_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mul")
    assert run_cli(["multiplier-audit", "--x0", "1.0", "--out", str(out)]) == 0
    return out


class TestMultiplierAuditCommand:
    def test_audit_passes(self, audit_run):
        lines = (audit_run / "multiplier_checks.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header.split(",") == ["check", "params", "lhs", "rhs", "gap",
                                     "order", "passed"]
        rows = [ln for ln in lines if not ln.startswith(("#", "check"))]
        assert sum(1 for r in rows if r.startswith("ibp_")) >= 5

    def test_every_passed_cell_is_a_recorded_check(self, audit_run):
        # one row per recorded check, its passed cell the manifest's value
        passes = json.loads((audit_run / "manifest.json").read_text())["passes"]
        recorded_as = {"coefficient_scan": "coefficient_positivity",
                       "hardy_corpus": "hardy_bound"}
        lines = (audit_run / "multiplier_checks.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines if not ln.startswith(("#", "check"))]
        for row in rows:
            check = row[0]
            name = check if check.startswith("ibp_") else recorded_as.get(check)
            assert name in passes, check
            assert row[-1] == str(passes[name]), check
        assert len(rows) == len(passes)

    @pytest.mark.parametrize("m", [2, 3])
    def test_orders_at_higher_warp_exponents(self, m, tmp_path):
        # the x-cells grow with m; with 400 of them at every m, the x
        # quadrature's error masked the O(dt^2) one, the orders of
        # interior-l0-sin read 2.26 (m = 2) and 5.20 (m = 3), and the audit
        # exited 3
        assert run_cli(["multiplier-audit", "--x0", "1.0", "--m", str(m),
                        "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "multiplier_checks.csv").read_text().splitlines()
        orders = [float(row.split(",")[5]) for row in lines if row.startswith("ibp_")]
        assert len(orders) == 5
        assert all(1.8 <= order <= 2.2 for order in orders), orders


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_lines():
    """The argument lists of the ``warptrap`` lines in README's command
    block, with backslash continuations joined."""
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("warptrap ")]


FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def cli_flags():
    """Every option string the parser accepts, at the top level or for some
    command, read from the help texts."""
    from warptrap import cli as cli_mod

    flags = set()
    for argv in [[], *([name] for name in cli_mod._COMMANDS)]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            run_cli([*argv, "--help"])
        flags |= set(FLAG.findall(out.getvalue()))
    return flags


class TestReadmeCommands:
    def test_every_flag_named_is_accepted(self):
        # a flag dropped from the parser cannot live on in the prose; the
        # install section before the command line names pip's flags
        text = README.read_text().split("## Command line", 1)[1]
        named = set(FLAG.findall(text))
        assert named, "README names no flag"
        unknown = sorted(named - cli_flags())
        assert not unknown, unknown

    def test_block_holds_every_command(self):
        from warptrap import cli as cli_mod

        assert sorted(argv[0] for argv in readme_command_lines()) == sorted(cli_mod._COMMANDS)

    @pytest.mark.parametrize("argv", readme_command_lines(), ids=lambda argv: argv[0])
    def test_command_line_is_accepted(self, argv, tmp_path, monkeypatch):
        # flags and config values only: each command is stubbed to plan and
        # write nothing
        from warptrap import cli as cli_mod

        monkeypatch.chdir(tmp_path)
        for name in cli_mod._COMMANDS:
            monkeypatch.setitem(cli_mod._COMMANDS, name,
                                (lambda cfg: None, lambda cfg, plan, out: None))
        assert run_cli(argv) == 0
