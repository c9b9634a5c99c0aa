import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from golden import regen
from wavefront import cli
from wavefront.cli import build_parser, main
from wavefront.models import LocalDelayedRD, load_model

# CLI test models, one file each (models/expected.tsv lists their exit codes)
CASES = Path(__file__).resolve().parents[1] / "models" / "cases"


@pytest.fixture
def local_model_file(tmp_path):
    cfg = {"family": "local_delayed_rd", "c": 2.5, "L": 2.0, "delay": 0.0,
           "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
    p = tmp_path / "model.json"
    p.write_text(json.dumps(cfg))
    return p


def write_model(tmp_path, **overrides):
    cfg = {"family": "local_delayed_rd", "c": 2.5, "L": 2.0, "delay": 0.0,
           "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
    cfg.update(overrides)
    p = tmp_path / "model.json"
    p.write_text(json.dumps(cfg))
    return p


def read_json(path):
    return json.loads(path.read_text())


def test_analyze_writes_spectral_data(local_model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["analyze", "--model", str(local_model_file), "--out", str(out)])
    assert rc == 0
    data = read_json(out / "spectral.json")
    assert data["lambda_l"] == pytest.approx(0.5, abs=1e-8)
    assert data["lambda_r"] == pytest.approx(2.0, abs=1e-8)
    assert data["critical"] is False
    assert "version" in data and "config_hash" in data
    trace = (out / "chi_trace.csv").read_text().splitlines()
    assert trace[0] == "x,chi"
    assert len(trace) > 100


def test_analyze_no_roots_exit_code(tmp_path, capsys):
    model = write_model(tmp_path, c=1.0)
    out = tmp_path / "out"
    rc = main(["analyze", "--model", str(model), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "no positive zero" in err
    assert "no semi-wavefront" in err
    data = read_json(out / "spectral.json")
    assert data["no_roots"] is True


def test_analyze_trace_spans_minus_ten_to_ten_on_a_wide_strip(tmp_path):
    # at c = 1e-7 the Gaussian's strip starts at sigma_K = -3e7: the trace
    # is clipped to -10, and its margin must not scale with |sigma_K|
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "family": "nonlocal_kpp", "c": 1e-7, "kernel": {"shape": "gaussian", "variance": 1.0},
        "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}))
    spec, cfg = load_model(model)
    assert spec.to_convolution_form(cfg["c"]).charfun().strip[0] < -1e7
    out = tmp_path / "out"
    assert main(["analyze", "--model", str(model), "--out", str(out)]) == 1
    xs = np.loadtxt(out / "chi_trace.csv", delimiter=",", skiprows=1)[:, 0]
    assert len(xs) == 401 and np.all(np.diff(xs) > 0)
    assert xs[0] == pytest.approx(-10.0, abs=1e-5)
    assert xs[-1] == pytest.approx(10.0, abs=1e-5)


KPP = {"family": "nonlocal_kpp", "c": 3.0,
       "kernel": {"shape": "gaussian", "variance": 1.0},
       "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
LOCAL = {"family": "local_delayed_rd", "c": 2.5, "L": 2.0,
         "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
LATTICE = {"family": "nonlocal_lattice", "c": 2.5, "D": 1.0, "d": 1.0,
           "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
NLRD = {"family": "nonlocal_delayed_rd", "c": 3.0, "delay": 0.5,
        "damping": {"kind": "linear", "slope": 1.0},
        "kernel": {"shape": "gaussian", "variance": 1.0},
        "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
NAN, INF = math.nan, math.inf

# Model files the CLI refuses, one table: for each test below, its rows of
# (id, file text, command, exit code, text that stderr holds).  Each file
# is refused before any output directory is made.
BAD_MODELS = {
    "malformed": [("malformed", "{not json", "analyze", 64, "invalid input")],
    "wrongly_typed": [
        ("c-null", json.dumps({**LOCAL, "c": None}), "analyze", 64, "invalid input"),
        ("rate-string", json.dumps({**LOCAL, "nonlinearity": {"kind": "logistic", "rate": "2"}}),
         "analyze", 64, "invalid input"),
        ("variance-string", json.dumps({**KPP, "kernel": {"shape": "gaussian", "variance": "1"}}),
         "analyze", 64, "invalid input"),
        ("kernel-string", json.dumps({**KPP, "kernel": "gaussian"}), "analyze", 64,
         "invalid input"),
        ("top-level-list", json.dumps([LOCAL]), "analyze", 64, "invalid input"),
        ("offsets-number", json.dumps({**KPP, "kernel": {"shape": "dirac_comb", "offsets": 1.0,
                                                        "weights": [1.0]}}),
         "analyze", 64, "invalid input"),
        ("beta-list", json.dumps({**LATTICE, "beta": [[0, 1.0]]}), "analyze", 64,
         "invalid input"),
        ("bound-string", json.dumps({**LOCAL, "bound": "x"}), "solve", 64, "invalid input"),
        ("shift-string", json.dumps({**KPP, "kernel": {"shape": "gaussian", "variance": 1.0,
                                                      "shift": "0.5"}}),
         "analyze", 64, "invalid input"),
        ("c-string", json.dumps({**LOCAL, "c": "2.5"}), "analyze", 64, "invalid input"),
        ("c-true", json.dumps({**LOCAL, "c": True}), "analyze", 64, "invalid input"),
        ("delay-true", json.dumps({**LOCAL, "delay": True}), "analyze", 64, "invalid input"),
        ("beta-weight-string", json.dumps({**LATTICE, "beta": {"0": "1.0"}}), "analyze", 64,
         "invalid input"),
        ("offsets-true", json.dumps({**KPP, "kernel": {"shape": "dirac_comb", "offsets": [True],
                                                      "weights": [1.0]}}),
         "analyze", 64, "invalid input"),
        # J3.csv, beside every file of the table, has a row of three fields
        ("tabulated-csv-three-columns", json.dumps({**KPP, "kernel": {"shape": "tabulated",
                                                                     "path": "J3.csv"}}),
         "analyze", 64, "invalid input: expected two columns"),
    ],
    "non_finite": [
        ("kpp-c-nan", json.dumps({**KPP, "c": NAN}), "analyze", 64, "invalid input"),
        ("local-c-minus-inf", json.dumps({**LOCAL, "c": -INF}), "analyze", 64, "invalid input"),
        ("lattice-c-minus-inf", json.dumps({**LATTICE, "c": -INF}), "analyze", 64,
         "invalid input"),
        ("nlrd-c-minus-inf", json.dumps({**NLRD, "c": -INF}), "analyze", 64, "invalid input"),
        ("L-nan", json.dumps({**LOCAL, "L": NAN}), "analyze", 64, "invalid input"),
        ("bound-nan", json.dumps({**LOCAL, "bound": NAN}), "analyze", 64, "invalid input"),
        ("margin-nan", json.dumps({**LOCAL, "margin": NAN}), "analyze", 64, "invalid input"),
        ("damping-slope-nan", json.dumps({**NLRD, "damping": {"kind": "linear", "slope": NAN}}),
         "analyze", 64, "invalid input"),
        ("c-overflow", json.dumps(LOCAL).replace("2.5", "1e999"), "analyze", 64,
         "invalid input"),
        # J.csv, beside every file of the table, holds a nan
        ("tabulated-csv-nan", json.dumps({**KPP, "kernel": {"shape": "tabulated",
                                                           "path": "J.csv"}}),
         "analyze", 64, "invalid input"),
        ("c-int-overflow", json.dumps({**LOCAL, "c": 10 ** 400}), "analyze", 64,
         "invalid input"),
        ("L-int-overflow", json.dumps({**LOCAL, "L": 10 ** 400}), "analyze", 64,
         "invalid input"),
    ],
    "unknown_kernel_key": [
        ("top-level", json.dumps({**KPP, "kernel": {"shape": "gaussian", "variance": 1.0,
                                                   "scael": 2.0}}),
         "speed", 64, "unknown key 'scael'"),
        ("nested", json.dumps({**KPP, "kernel": {
            "shape": "convolved", "a": {"shape": "gaussian", "variance": 1.0},
            "b": {"shape": "dirac_comb", "offsets": [0.5], "weights": [1.0], "delay": 1.0}}}),
         "speed", 64, "unknown key 'delay'"),
        # a Green kernel takes c and q, or nu and mu, not both spellings
        ("mixed-green", json.dumps({**KPP, "c": 3.7, "kernel": {
            "shape": "piecewise_green", "c": 0.5, "q": 1.0, "nu": -1.0}}),
         "speed", 64, "unknown key 'nu'"),
    ],
    # each of these once ran with the key dropped: the first gave c* = 2
    "unknown_model_key": [
        ("model", json.dumps({**LOCAL, "dealy": 0.5,
                              "nonlinearity": {"kind": "logistic", "rat": 3.0}}),
         "speed", 64, "unknown key 'dealy'"),
        ("nonlinearity", json.dumps({**LOCAL, "nonlinearity": {"kind": "logistic", "rat": 3.0}}),
         "speed", 64, "unknown key 'rat'"),
        ("other-family", json.dumps({**KPP, "delay": 0.5}), "speed", 64, "unknown key 'delay'"),
        ("damping", json.dumps({**KPP, "family": "nonlocal_delayed_rd",
                                "damping": {"kind": "linear", "slope": 1.0, "rate": 2.0}}),
         "speed", 64, "unknown key 'rate'"),
        ("margin", json.dumps({**LOCAL, "margin": 1.0}), "speed", 64, "unknown key 'margin'"),
        ("bound", json.dumps({**LOCAL, "bound": 1.0}), "speed", 64, "unknown key 'bound'"),
    ],
    # each once ran on a changed model: "model" solved at the last c = 1,
    # below c*, and exited 1; one-site-twice gave c* = 0.9017 for a comb of
    # weight 0.6.  The non-integer site exited 64 naming no comb site
    "repeated_key_or_comb_site": [
        ("model", json.dumps(LOCAL).replace('"c": 2.5', '"c": 2.5, "c": 1.0'), "solve", 64,
         "invalid input: repeated key 'c'"),
        ("nonlinearity", json.dumps(LOCAL).replace('"rate": 2.0', '"rate": 2.0, "rate": 0.5'),
         "solve", 64, "invalid input: repeated key 'rate'"),
        ("beta", json.dumps({**LATTICE, "beta": {"0": 1.0}}).replace('"0": 1.0',
                                                                     '"0": 0.6, "0": 0.6'),
         "solve", 64, "invalid input: repeated key '0'"),
        ("negative-weight", json.dumps({**LATTICE, "beta": {"-1": 0.6, "0": -0.9, "1": 0.3}}),
         "solve", 64, "invalid input: comb weights must be nonnegative"),
        ("one-site-twice", json.dumps({**LATTICE, "beta": {"0": 0.6, "00": 0.6}}), "solve", 64,
         "invalid input: comb weights must name each site once"),
        ("non-integer-site", json.dumps({**LATTICE, "beta": {"0.5": 1.0}}), "solve", 64,
         "invalid input: comb site must be an integer, got '0.5'"),
    ],
    # a hypothesis that fails when the file is read: the logistic damping
    # decreases past u = 1/2
    "hypothesis": [
        ("decreasing-damping", json.dumps({**NLRD, "damping": {"kind": "logistic", "rate": 1.0,
                                                               "carrying": 1.0}}),
         "analyze", 1, "damping term must be increasing"),
    ],
}


def bad_models(test):
    return [pytest.param(row[1:], id=row[0]) for row in BAD_MODELS[test]]


def refused(tmp_path, capsys, text, command, code, message):
    (tmp_path / "J.csv").write_text("-1.0,0.0\n0.0,nan\n1.0,0.0\n")
    (tmp_path / "J3.csv").write_text("-1.0,0.0\n0.0,1.0,5\n1.0,0.0\n")
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "o"
    assert main([command, "--model", str(bad), "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_malformed_model_is_usage_error(tmp_path, capsys):
    (case,) = bad_models("malformed")
    refused(tmp_path, capsys, *case.values[0])


@pytest.mark.parametrize("case", bad_models("wrongly_typed"))
def test_wrongly_typed_model_value_is_usage_error(tmp_path, capsys, case):
    refused(tmp_path, capsys, *case)


@pytest.mark.parametrize("case", bad_models("non_finite"))
def test_non_finite_model_number_is_usage_error(tmp_path, capsys, case):
    refused(tmp_path, capsys, *case)


@pytest.mark.parametrize("case", bad_models("unknown_kernel_key"))
def test_unknown_kernel_key_is_usage_error(tmp_path, capsys, case):
    refused(tmp_path, capsys, *case)


@pytest.mark.parametrize("case", bad_models("unknown_model_key"))
def test_unknown_model_key_is_usage_error(tmp_path, capsys, case):
    refused(tmp_path, capsys, *case)


@pytest.mark.parametrize("case", bad_models("repeated_key_or_comb_site"))
def test_repeated_key_or_comb_site_is_usage_error(tmp_path, capsys, case):
    refused(tmp_path, capsys, *case)


@pytest.mark.parametrize("case", bad_models("hypothesis"))
def test_hypothesis_breaking_model_fails_when_read(tmp_path, capsys, case):
    refused(tmp_path, capsys, *case)


MODELS = sorted((Path(__file__).resolve().parents[1] / "models").glob("*.json"))


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_non_positive_bound_or_margin_is_usage_error(tmp_path, capsys, path):
    # M = 1.5 kappa is derived, so no model file sets a bound, of any sign
    cfg = json.loads(path.read_text())
    for value in (-1.0, 0.0):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**cfg, "bound": value}))
        for command in ("analyze", "speed", "solve"):
            rc = main([command, "--model", str(bad), "--out", str(tmp_path / "o")])
            assert rc == 64, (command, value)
            assert "invalid input: unknown key 'bound'" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("solve", "--tol=inf"),
    ("solve", "--tol=nan"),
    ("verify", "--tol=nan"),
    ("solve", "--grid=-inf,40,4096"),
    ("solve", "--grid=-60,inf,4096"),
    ("scan", "--y-max=nan"),
    ("scan", "--y-max=inf"),
    ("scan", "--y-max=0"),
])
def test_invalid_numeric_flag_is_usage_error(tmp_path, capsys, command, flag):
    model = write_model(tmp_path)
    rc = main([command, "--model", str(model), "--out", str(tmp_path / "o"), flag])
    assert rc == 64
    assert "invalid input" in capsys.readouterr().err


def test_tabulated_path_is_relative_to_model_file(tmp_path, monkeypatch):
    model_dir = tmp_path / "m"
    model_dir.mkdir()
    (model_dir / "J.csv").write_text("-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
    cfg = {"family": "nonlocal_kpp", "c": 3.0,
           "kernel": {"shape": "tabulated", "path": "J.csv"},
           "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
    (model_dir / "model.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--model", "m/model.json", "--out", "out"]) == 0
    monkeypatch.chdir(model_dir)
    assert main(["analyze", "--model", "model.json", "--out", "out"]) == 0
    assert read_json(tmp_path / "out" / "spectral.json") == read_json(
        model_dir / "out" / "spectral.json")


def test_model_without_equilibrium_fails_every_command(tmp_path, capsys):
    # mass(J) = 1 and g > 0 on (0, inf): (mass(J) - 1) kappa + g(kappa) = 0
    # has no positive root, although chi(0) < 0 and c = 4.5 is above c*
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "family": "nonlocal_kpp", "c": 4.5,
        "kernel": {"shape": "exponential_onesided", "rate": 1.5, "direction": -1},
        "nonlinearity": {"kind": "mackey_glass", "p": 2.0, "n": 4.0}}))
    for command in ("analyze", "speed", "solve", "verify", "scan"):
        out = tmp_path / command
        assert main([command, "--model", str(model), "--out", str(out)]) == 1, command
        assert "no positive equilibrium on (0, 100]" in capsys.readouterr().err, command
        assert not out.exists(), command


def test_missing_key_is_usage_error(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"family": "local_delayed_rd"}))
    rc = main(["analyze", "--model", str(p), "--out", str(tmp_path / "o")])
    assert rc == 64


def test_speed_command(local_model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["speed", "--model", str(local_model_file), "--out", str(out)])
    assert rc == 0
    data = read_json(out / "speed.json")
    assert data["c_star"] == pytest.approx(2.0, abs=1e-6)
    assert data["z_star"] == pytest.approx(1.0, abs=1e-6)


def test_speed_command_delayed(tmp_path):
    model = write_model(tmp_path, delay=1.0)
    out = tmp_path / "out"
    rc = main(["speed", "--model", str(model), "--out", str(out)])
    assert rc == 0
    data = read_json(out / "speed.json")
    assert data["c_star"] == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-8)


def test_solve_command(local_model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["solve", "--model", str(local_model_file), "--out", str(out),
               "--grid=-60,40,2048", "--tol", "1e-8"])
    assert rc == 0
    meta = read_json(out / "solve.json")
    assert meta["plateau"] == pytest.approx(0.5, abs=1e-6)
    assert meta["convergence"]["residual"] < 1e-5
    rows = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    kappa = meta["plateau"]
    assert rows[0, 1] < 1e-3 * kappa
    assert abs(rows[-1, 1] - kappa) < 1e-4


def test_solve_records_relaxation(tmp_path):
    # order-preserving logistic: plain sweeps; Mackey-Glass with g'(kappa) = -2: half
    for model, theta in [(write_model(tmp_path), 1.0), (CASES / "mackey_glass_h0.json", 0.5)]:
        out = tmp_path / model.stem
        assert main(["solve", "--model", str(model), "--out", str(out)]) == 0
        assert read_json(out / "solve.json")["convergence"]["relaxation"] == \
            pytest.approx(theta, abs=1e-12)


def test_solve_rightward_dispersal(tmp_path):
    # J = delta(s - 2), c* = -0.3734: the closure rate's bracket search once
    # overflowed e^{lam dt} in the comb's grid transform
    model = CASES / "kpp_rightward.json"
    out = tmp_path / "out"
    assert main(["solve", "--model", str(model), "--out", str(out)]) == 0
    assert read_json(out / "solve.json")["convergence"]["closure_rate"] == \
        pytest.approx(0.18741, abs=1e-4)


def test_solve_delayed_rd_with_kernel_mass_two(tmp_path):
    # g'(0) = 0.8 < f'(0) = 1, but g'(0) mass(k) = 1.6 > 1: chi(0) = -0.3, c* = 1.1763
    model = CASES / "nlrd_kernel_mass_2.json"
    out = tmp_path / "out"
    assert main(["solve", "--model", str(model), "--out", str(out)]) == 0
    assert read_json(out / "solve.json")["plateau"] == pytest.approx(0.375, abs=1e-6)


def test_solve_below_c_star_reports_no_wave(tmp_path, capsys):
    model = write_model(tmp_path, c=1.0)
    out = tmp_path / "out"
    rc = main(["solve", "--model", str(model), "--out", str(out),
               "--grid=-60,40,1024", "--max-iter", "400"])
    assert rc == 1
    data = read_json(out / "solve.json")
    assert "no positive zero of chi" in data["error"]
    assert data["no_wave"] is True
    assert "no positive zero of chi" in capsys.readouterr().err


def test_verify_reports_a_solve_that_hits_max_iter(tmp_path):
    out = tmp_path / "out"
    rc = main(["verify", "--model", str(write_model(tmp_path)), "--out", str(out),
               "--max-iter", "30"])
    assert rc == 1
    data = read_json(out / "verify.json")
    assert data["verdict"] == "fail"
    last = data["checks"][-1]
    assert (last["name"], last["status"]) == ("solve[init0]", "fail")
    assert "after 30 iterations" in last["details"]["error"]
    assert "solve[init0]" in (out / "verify.txt").read_text()


def test_verify_reports_a_tail_that_admits_no_decay_fit(tmp_path):
    # on 64 points the shipped local model solves, but its left tail holds
    # only 9 points of the fit window: verify writes its report with a
    # failing decay_fit check, as it does for a failed solve
    model = Path(__file__).resolve().parents[1] / "models" / "local_delayed_rd.json"
    out = tmp_path / "out"
    assert main(["solve", "--model", str(model), "--grid=-60,40,64", "--out", str(out)]) == 0
    assert main(["verify", "--model", str(model), "--grid=-60,40,64", "--out", str(out)]) == 1
    data = read_json(out / "verify.json")
    assert data["verdict"] == "fail"
    last = data["checks"][-1]
    assert (last["name"], last["status"]) == ("decay_fit[init0]", "fail")
    assert "window points" in last["details"]["error"]
    assert "decay_fit[init0]" in (out / "verify.txt").read_text()


def test_grid_too_short_for_the_tail_fails_without_usage_error(tmp_path, capsys):
    # delayed Mackey-Glass at c = 3 has a wave whose left tail needs
    # t_min <= -84.48: the default grid does not hold it, which is a failed
    # solve (exit 1), not malformed input (exit 64)
    model = CASES / "mackey_glass_h3.json"
    out = tmp_path / "out"
    assert main(["solve", "--model", str(model), "--out", str(out)]) == 1
    data = read_json(out / "solve.json")
    assert "left margin too small" in data["error"]
    assert data["no_wave"] is False
    assert "solve failed: left margin too small" in capsys.readouterr().err
    assert main(["verify", "--model", str(model), "--out", str(out)]) == 1
    last = read_json(out / "verify.json")["checks"][-1]
    assert (last["name"], last["status"]) == ("solve[init0]", "fail")
    assert "left margin too small" in last["details"]["error"]


def test_negative_iterates_are_a_reported_failure(tmp_path, capsys):
    # logistic rate 10 with a Gaussian kernel at c = 8 > c* = 2.999: the
    # sweeps go negative, which solve and verify record like any failed solve
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "family": "nonlocal_delayed_rd", "c": 8.0, "delay": 0.5,
        "damping": {"kind": "linear", "slope": 1.0},
        "kernel": {"shape": "gaussian", "variance": 1.0},
        "nonlinearity": {"kind": "logistic", "rate": 10.0, "carrying": 1.0}}))
    out = tmp_path / "out"
    assert main(["solve", "--model", str(model), "--out", str(out)]) == 1
    data = read_json(out / "solve.json")
    assert "iteration produced negative values" in data["error"]
    assert data["no_wave"] is False
    assert "solve failed: iteration produced negative values" in capsys.readouterr().err
    assert not (out / "profile.csv").exists()
    assert main(["verify", "--model", str(model), "--out", str(out)]) == 1
    last = read_json(out / "verify.json")["checks"][-1]
    assert (last["name"], last["status"]) == ("solve[init0]", "fail")
    assert "iteration produced negative values" in last["details"]["error"]
    assert "solve[init0]" in (out / "verify.txt").read_text()


def test_scan_command(local_model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["scan", "--model", str(local_model_file), "--out", str(out),
               "--y-max", "50"])
    assert rc == 0
    data = read_json(out / "scan.json")
    assert data["pass"] is True
    assert data["min_abs_chi"] > 1e-3


def test_scan_undetermined_exits_2(tmp_path):
    # Mackey-Glass with L = 3, h = 1 at c = 3: lambda_r sits 2.8e-5 below the
    # Green pole, too close for any certified walk within the point cap
    model = CASES / "mackey_glass_h1.json"
    out = tmp_path / "out"
    assert main(["scan", "--model", str(model), "--out", str(out)]) == 2
    data = read_json(out / "scan.json")
    assert (data["status"], data["count"], data["expected"], data["pass"]) == \
        ("undetermined", None, 2, False)


def test_verify_command(tmp_path):
    model = write_model(tmp_path, c=2.5)
    out = tmp_path / "out"
    rc = main(["verify", "--model", str(model), "--out", str(out),
               "--grid=-60,40,2048", "--tol", "1e-8"])
    assert rc == 0
    data = read_json(out / "verify.json")
    assert data["verdict"] == "pass"
    names = [c["name"] for c in data["checks"]]
    assert "mollison" in names and "uniqueness_probe" in names
    text = (out / "verify.txt").read_text()
    assert "verdict: PASS" in text


def test_verify_assembles_once(tmp_path, monkeypatch):
    calls = []
    assemble = LocalDelayedRD.to_convolution_form

    def counting(self, *args, **kwargs):
        calls.append(args)
        return assemble(self, *args, **kwargs)

    monkeypatch.setattr(LocalDelayedRD, "to_convolution_form", counting)
    model = write_model(tmp_path, c=2.5)
    rc = main(["verify", "--model", str(model), "--out", str(tmp_path / "out"),
               "--grid=-60,40,2048", "--tol", "1e-8"])
    assert rc == 0
    assert len(calls) == 1


def test_verify_mackey_glass_fails_on_subtangential_only(tmp_path):
    # c = 2.5 is above chi's c* = 2, so the probe runs and passes; the
    # verdict still fails on the subtangential slope bound (ROADMAP item 7)
    model = CASES / "mackey_glass_h0.json"
    out = tmp_path / "out"
    assert main(["verify", "--model", str(model), "--out", str(out)]) == 1
    status = {c["name"]: c["status"] for c in read_json(out / "verify.json")["checks"]}
    assert "admissibility_guard" not in status
    assert [n for n, s in status.items() if s == "fail"] == ["subtangential[atom0:mackey_glass]"]
    probe = [c for c in read_json(out / "verify.json")["checks"] if c["name"] == "uniqueness_probe"]
    assert probe[0]["details"]["classification"] == "noncritical"


def test_verify_command_critical_records_decay_order(tmp_path):
    model = CASES / "local_critical.json"
    out = tmp_path / "out"
    rc = main(["verify", "--model", str(model), "--out", str(out),
               "--grid=-60,40,2048", "--tol", "1e-7", "--max-iter", "40000"])
    assert rc == 0
    data = read_json(out / "verify.json")
    probe = [c for c in data["checks"] if c["name"] == "uniqueness_probe"][0]
    assert probe["details"]["classification"] == "critical"
    assert probe["details"]["decay_orders"] == [1, 1]


def test_cli_commands_load_no_scipy(fresh_golden_run):
    # every command on every model file, in conftest's fresh interpreter, which
    # no other test has loaded SciPy in; the goldens' table owns the exit codes
    assert fresh_golden_run["at_import"] == []
    loaded = fresh_golden_run["loaded"]
    assert len(loaded) == 5 * len(regen.model_files())
    assert not {run: mods for run, mods in loaded.items() if mods}


def test_outputs_are_deterministic(local_model_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["scan", "--model", str(local_model_file), "--out", str(out)]) == 0
    assert (out1 / "scan.json").read_bytes() == (out2 / "scan.json").read_bytes()


def test_scan_hash_covers_its_own_flags(local_model_file, tmp_path):
    hashes = []
    for y_max in ("10", "50"):
        out = tmp_path / y_max
        assert main(["scan", "--model", str(local_model_file), "--out", str(out),
                     "--y-max", y_max]) == 0
        hashes.append(read_json(out / "scan.json")["config_hash"])
    assert hashes[0] != hashes[1]


def test_solve_defaults_hash_like_the_same_values_given(local_model_file, tmp_path):
    explicit = ["--grid=-60,40,4096", "--tol", "1e-8", "--max-iter", "20000"]
    for out, flags in ((tmp_path / "a", []), (tmp_path / "b", explicit)):
        assert main(["solve", "--model", str(local_model_file), "--out", str(out),
                     *flags]) == 0
    assert (tmp_path / "a" / "solve.json").read_bytes() == \
        (tmp_path / "b" / "solve.json").read_bytes()


def test_each_command_takes_only_its_own_flags():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    dests = {name: {a.dest for a in p._actions} - {"help"}
             for name, p in sub.choices.items()}
    base = {"model", "out"}
    solver = base | {"grid", "tol", "max_iter"}
    assert dests == {"analyze": base, "speed": base, "solve": solver, "verify": solver,
                     "scan": base | {"y_max"}}


@pytest.mark.parametrize("command, flags", [
    ("analyze", ["--tol", "1e-8"]),
    ("speed", ["--grid=-60,40,4096"]),
    ("scan", ["--max-iter", "10"]),
    ("solve", ["--bogus"]),
    ("solve", ["--damping", "0.5"]),
    ("verify", ["--seed", "7"]),
    ("solve", ["--tol"]),
], ids=["analyze-tol", "speed-grid", "scan-max-iter", "solve-bogus", "solve-damping",
        "verify-seed", "solve-tol-no-value"])
def test_usage_error_exits_64(tmp_path, capsys, command, flags):
    model = write_model(tmp_path)
    assert main([command, "--model", str(model), "--out", str(tmp_path / "o"), *flags]) == 64
    assert "usage: wavefront" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_command_or_model_exits_64(tmp_path):
    assert main([]) == 64
    assert main(["analyze", "--out", str(tmp_path)]) == 64


def test_analyze_with_tabulated_kernel(tmp_path):
    ts = np.linspace(-8.0, 8.0, 801)
    vals = np.exp(-ts * ts / 2.0) / math.sqrt(2 * math.pi)
    csv = tmp_path / "J.csv"
    csv.write_text("# t,value\n" + "\n".join(f"{t},{v}" for t, v in zip(ts, vals)))
    cfg = {"family": "nonlocal_kpp", "c": 3.0,
           "kernel": {"shape": "tabulated", "path": str(csv)},
           "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
    model = tmp_path / "m.json"
    model.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(["analyze", "--model", str(model), "--out", str(out)])
    assert rc == 0
    data = read_json(out / "spectral.json")
    # the tabulated dispersal is a close surrogate of the analytic one
    assert data["lambda_l"] == pytest.approx(0.7880, abs=5e-3)


def test_tabulated_nonlinearity_solves_and_verifies(tmp_path):
    model = CASES / "local_tabulated_birth.json"
    for command in ("analyze", "speed", "solve", "verify"):
        assert main([command, "--model", str(model), "--out", str(tmp_path / "out")]) == 0
    conv = read_json(tmp_path / "out" / "solve.json")["convergence"]
    assert conv["iterations"] == 33
    assert conv["closure_rate"] == pytest.approx(0.49338, abs=1e-5)


def test_tabulated_nonlinearity_with_declared_slope_is_usage_error(tmp_path, capsys):
    # a declared g'(0) of 2 against the interpolant's 1.99 once gave chi and
    # the closure rate one slope and the sweeps another: a false TailUnresolved
    cfg = read_json(CASES / "local_tabulated_birth.json")
    cfg["nonlinearity"]["gprime0"] = 2.0
    model = tmp_path / "model.json"
    model.write_text(json.dumps(cfg))
    assert main(["solve", "--model", str(model), "--out", str(tmp_path / "out")]) == 64
    assert "gprime0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_float_overflow_is_a_reported_failure(local_model_file, tmp_path, monkeypatch, capsys):
    def overflow(args):
        raise OverflowError("math range error")

    monkeypatch.setitem(cli._COMMANDS, "solve", overflow)
    rc = main(["solve", "--model", str(local_model_file), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: math range error" in err
    assert "Traceback" not in err


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "wavefront" in capsys.readouterr().out


def test_cli_help_flag_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--max-iter" in capsys.readouterr().out


def test_shared_parser_carries_no_state_between_calls(local_model_file, tmp_path, capsys):
    assert build_parser() is build_parser()
    model = ["--model", str(local_model_file)]
    calls = [
        ["scan", *model, "--y-max", "0.05"],
        ["scan", *model, "--max-iter", "10"],  # a flag of another command: 64
        ["solve", *model, "--tol", "1e-7"],
        ["--version"],
        ["scan", *model],  # the default --y-max again
    ]

    def run(argv, out):
        try:
            rc = main(argv if argv == ["--version"] else [*argv, "--out", str(out)])
        except SystemExit as exc:
            rc = ("exit", exc.code)
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}
        return rc, capsys.readouterr(), files

    in_turn = [run(argv, tmp_path / "in-turn" / str(j)) for j, argv in enumerate(calls)]
    alone = []
    for j, argv in enumerate(calls):
        build_parser.cache_clear()
        alone.append(run(argv, tmp_path / "alone" / str(j)))
    assert [rc for rc, _, _ in in_turn] == [0, 64, 0, ("exit", 0), 0]
    assert in_turn == alone


def test_wavefront_log_is_read_on_every_call(local_model_file, tmp_path, capsys,
                                             monkeypatch):
    root = logging.getLogger()
    before = (list(root.handlers), root.level)
    printed = []
    for level in ("warn", "info", "warn"):
        monkeypatch.setenv("WAVEFRONT_LOG", level)
        out = tmp_path / level
        assert main(["speed", "--model", str(local_model_file), "--out", str(out)]) == 0
        printed.append(capsys.readouterr().err)
    wrote = f"INFO wavefront: wrote {tmp_path / 'info' / 'speed.json'}\n"
    assert printed == ["", wrote, ""]
    assert (list(root.handlers), root.level) == before
