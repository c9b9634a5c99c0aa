import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavefront.cli import main
from wavefront.models import LocalDelayedRD


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


def test_malformed_model_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["analyze", "--model", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 64
    assert "invalid input" in capsys.readouterr().err


KPP = {"family": "nonlocal_kpp", "c": 3.0,
       "kernel": {"shape": "gaussian", "variance": 1.0},
       "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
LOCAL = {"family": "local_delayed_rd", "c": 2.5, "L": 2.0,
         "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
LATTICE = {"family": "nonlocal_lattice", "c": 2.5, "D": 1.0, "d": 1.0,
           "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}


@pytest.mark.parametrize("command, cfg", [
    ("analyze", {**LOCAL, "c": None}),
    ("analyze", {**LOCAL, "nonlinearity": {"kind": "logistic", "rate": "2"}}),
    ("analyze", {**KPP, "kernel": {"shape": "gaussian", "variance": "1"}}),
    ("analyze", {**KPP, "kernel": "gaussian"}),
    ("analyze", [LOCAL]),
    ("analyze", {**KPP, "kernel": {"shape": "dirac_comb", "offsets": 1.0, "weights": [1.0]}}),
    ("analyze", {**LATTICE, "beta": [[0, 1.0]]}),
    ("solve", {**LOCAL, "bound": "x"}),
], ids=["c-null", "rate-string", "variance-string", "kernel-string", "top-level-list",
        "offsets-number", "beta-list", "bound-string"])
def test_wrongly_typed_model_value_is_usage_error(tmp_path, capsys, command, cfg):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = main([command, "--model", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 64
    assert "invalid input" in capsys.readouterr().err


NLRD = {"family": "nonlocal_delayed_rd", "c": 3.0, "delay": 0.5,
        "damping": {"kind": "linear", "slope": 1.0},
        "kernel": {"shape": "gaussian", "variance": 1.0},
        "nonlinearity": {"kind": "logistic", "rate": 2.0, "carrying": 1.0}}
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("text", [
    json.dumps({**KPP, "c": NAN}),
    json.dumps({**LOCAL, "c": -INF}),
    json.dumps({**LATTICE, "c": -INF}),
    json.dumps({**NLRD, "c": -INF}),
    json.dumps({**LOCAL, "L": NAN}),
    json.dumps({**LOCAL, "bound": NAN}),
    json.dumps({**LOCAL, "margin": NAN}),
    json.dumps({**NLRD, "damping": {"kind": "linear", "slope": NAN}}),
    json.dumps(LOCAL).replace("2.5", "1e999"),
    json.dumps({**KPP, "kernel": {"shape": "tabulated", "path": "J.csv"}}),
    json.dumps({**LOCAL, "c": 10 ** 400}),
    json.dumps({**LOCAL, "L": 10 ** 400}),
], ids=["kpp-c-nan", "local-c-minus-inf", "lattice-c-minus-inf", "nlrd-c-minus-inf",
        "L-nan", "bound-nan", "margin-nan", "damping-slope-nan", "c-overflow",
        "tabulated-csv-nan", "c-int-overflow", "L-int-overflow"])
def test_non_finite_model_number_is_usage_error(tmp_path, capsys, text):
    (tmp_path / "J.csv").write_text("-1.0,0.0\n0.0,nan\n1.0,0.0\n")
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc = main(["analyze", "--model", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 64
    assert "invalid input" in capsys.readouterr().err


MODELS = sorted((Path(__file__).resolve().parents[1] / "models").glob("*.json"))


@pytest.mark.parametrize("field", ["bound", "margin"])
@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_non_positive_bound_or_margin_is_usage_error(tmp_path, capsys, path, field):
    cfg = json.loads(path.read_text())
    for value in (-1.0, 0.0):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**cfg, field: value}))
        for command in ("analyze", "speed", "solve"):
            rc = main([command, "--model", str(bad), "--out", str(tmp_path / "o")])
            assert rc == 64, (command, value)
            assert f"invalid input: {field} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("solve", "--tol=inf"),
    ("solve", "--tol=nan"),
    ("verify", "--tol=nan"),
    ("solve", "--grid=-inf,40,4096"),
    ("solve", "--grid=-60,inf,4096"),
    ("scan", "--y-max=nan"),
    ("scan", "--y-max=inf"),
    ("scan", "--density=inf"),
    ("scan", "--density=nan"),
    ("scan", "--density=0"),
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


def test_scan_command(local_model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["scan", "--model", str(local_model_file), "--out", str(out),
               "--y-max", "50", "--density", "40"])
    assert rc == 0
    data = read_json(out / "scan.json")
    assert data["pass"] is True
    assert data["min_abs_chi"] > 1e-3


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


def test_verify_command_critical_records_decay_order(tmp_path):
    model = write_model(tmp_path, c=2.0)
    out = tmp_path / "out"
    rc = main(["verify", "--model", str(model), "--out", str(out),
               "--grid=-60,40,2048", "--tol", "1e-7", "--max-iter", "40000"])
    assert rc == 0
    data = read_json(out / "verify.json")
    probe = [c for c in data["checks"] if c["name"] == "uniqueness_probe"][0]
    assert probe["details"]["classification"] == "critical"
    assert probe["details"]["decay_orders"] == [1, 1]


SIGNAL_PROBE = """
import sys
from wavefront.cli import main
model, out = sys.argv[1], sys.argv[2]
for command in ("analyze", "speed", "scan"):
    assert main([command, "--model", model, "--out", out]) == 0, command
    assert "scipy.signal" not in sys.modules, command
assert main(["solve", "--model", model, "--out", out]) == 0
assert "scipy.signal" in sys.modules
"""


SCIPY_PROBE = """
import sys
from wavefront.cli import main
out, models = sys.argv[1], sys.argv[2:]
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not scipy_modules(), scipy_modules()
for model in models:
    for command in ("analyze", "speed", "scan"):
        assert main([command, "--model", model, "--out", out]) == 0, (command, model)
        assert not scipy_modules(), (command, model, scipy_modules())
"""


def test_spectral_commands_load_no_scipy(tmp_path):
    # a fresh interpreter, so no other test has loaded SciPy yet
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    models = sorted(str(p) for p in (root / "models").glob("*.json"))
    assert len(models) == 4
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path), *models],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_spectral_commands_do_not_load_scipy_signal(tmp_path):
    # a fresh interpreter, so no other test has loaded scipy.signal yet
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", SIGNAL_PROBE, str(root / "models" / "nonlocal_kpp_gaussian.json"),
         str(tmp_path)], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_outputs_are_deterministic(local_model_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["scan", "--model", str(local_model_file), "--out", str(out),
                     "--seed", "7"]) == 0
    assert (out1 / "scan.json").read_bytes() == (out2 / "scan.json").read_bytes()


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


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "wavefront" in capsys.readouterr().out
