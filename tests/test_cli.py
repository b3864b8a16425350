"""Command line behavior: exit codes, report shape, determinism, config."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import karamata_kit
from karamata_kit import config
from karamata_kit.asymptotics import DEFAULT_LAMBDAS
from karamata_kit.cli import main

REPORT_KEYS = ["command", "config", "inputs", "results", "timing_ms", "verdicts", "version"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# exit codes

def test_apply_l_succeeds(capsys):
    code, out, _ = run_cli(capsys, ["apply-l", "5", "--x", "100"])
    assert code == 0
    report = json.loads(out)
    (point,) = report["results"]["points"]
    assert point["x"] == 100.0
    assert point["value"] == pytest.approx(5.0, abs=1e-12)
    assert point["quad"]["converged"] is True


def test_syntax_error_exits_2(capsys):
    code, _, err = run_cli(capsys, ["apply-l", "2+*3", "--x", "100"])
    assert code == 2
    assert "error" in err


def test_config_error_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["classify", "ln(x)", "--grid-count", "4"])
    assert code == 2


def test_bad_threads_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("KARAMATA_KIT_THREADS", "many")
    code, _, _ = run_cli(capsys, ["apply-l", "5", "--x", "100"])
    assert code == 2


def test_domain_error_exits_3(capsys):
    code, _, err = run_cli(capsys, ["apply-l", "ln(x)", "--x", "0.5"])
    assert code == 3
    assert "error" in err


def test_nonpositive_classify_input_exits_3(capsys):
    code, _, _ = run_cli(capsys, ["classify", "10 - x"])
    assert code == 3


def test_budget_exhaustion_exits_4_with_report(capsys):
    code, out, _ = run_cli(
        capsys, ["apply-l", "sin(x)", "--x", "1000000", "--max-evals", "3000"]
    )
    assert code == 4
    report = json.loads(out)  # report still written
    assert report["verdicts"]["budget"] == "exhausted"


@pytest.mark.parametrize(
    "argv",
    [
        ["apply-l", "sin(x)", "--x", "nan"],
        ["apply-l", "sin(x)", "--x", "inf"],
        ["apply-l", "1/(1+ln(x))", "--x", "100", "--abs-tol", "nan"],
        ["apply-l", "1/(1+ln(x))", "--x", "100", "--rel-tol", "inf"],
        ["uct", "karamata", "--f", "ln(x)", "--a", "1", "--b", "nan"],
    ],
)
def test_non_finite_number_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_non_finite_config_value_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"x": Infinity}')
    code, _, err = run_cli(capsys, ["apply-l", "sin(x)", "--config", str(cfg)])
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("lambdas", ["inf", "2,nan", "-inf,10"])
def test_non_finite_lambdas_exit_2_without_warnings(capsys, lambdas):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        code, out, err = run_cli(capsys, ["classify", "x", f"--lambdas={lambdas}"])
    assert code == 2
    assert "nan" not in out
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and "--lambdas" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["uct", "expand-interval", "--a", "1", "--b", "2", "--n", "2000"],
        ["classify", "ln(x)", "--ratio", "1e300"],
        ["apply-l", "ln(x)", "--grid-start", "1e300", "--ratio", "1e10", "--count", "8"],
        ["uct", "hi", "--h", "abs(ln(x+u)-ln(x))", "--grid-start", "1e307", "--ratio", "1.5",
         "--count", "8", "--u-hi", "1e308"],
        ["uct", "karamata", "--f", "ln(x)", "--a", "1", "--b", "1e308"],
        ["uct", "cond310", "--xi", "1/ln(x)", "--lambda-lo", "1", "--lambda-hi", "1e308"],
        ["uct", "mult-closure", "--f", "ln(x)", "--lambda", "1e300", "--mu", "1e300"],
        ["uct", "asym", "--h", "1", "--lambda", "1e308"],
        # hi_check's H(x+u, v) + H(x, u+v), then H(x, u) minus that sum
        ["uct", "hi", "--h", "1.5e308 + 0*x"],
        ["uct", "hi", "--h", "8e307*cos(3*u)", "--u-lo", "0", "--u-hi", "0.1",
         "--v-lo", "1", "--v-hi", "1.05"],
    ],
)
def test_overflow_exits_3_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and "overflow" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["apply-l", "x*1e300", "--x", "1e10"],
        ["classify", "x*1e300"],
        ["uct", "scan", "--g", "x*u", "--u-lo", "1", "--u-hi", "1e308"],
    ],
)
def test_non_finite_expression_value_exits_3(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy warning would raise
        code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: non-finite value in 'x * ")


def test_points_past_a_spent_budget_report_an_unbounded_error(capsys):
    code, out, _ = run_cli(
        capsys,
        ["apply-l", "sin(x)", "--grid-start", "10", "--ratio", "10", "--count", "8",
         "--max-evals", "3000"],
    )
    assert code == 4
    quads = [p["quad"] for p in json.loads(out)["results"]["points"]]
    # a point whose segment was not integrated adds no evaluations
    skipped = [b for a, b in zip(quads, quads[1:]) if b["evaluations"] == a["evaluations"]]
    assert skipped and quads[-1] in skipped
    assert all(q["error_estimate"] == "inf" for q in skipped)
    integrated = [q for q in quads if q not in skipped]
    assert all(isinstance(q["error_estimate"], float) for q in integrated)


def test_budget_is_hard_across_a_grid_sweep(capsys):
    code, out, _ = run_cli(
        capsys,
        ["apply-l", "sin(x)", "--grid-start", "10", "--ratio", "10", "--count", "8",
         "--max-evals", "3000"],
    )
    assert code == 4
    points = json.loads(out)["results"]["points"]
    assert max(p["quad"]["evaluations"] for p in points) <= 3000


def test_unknown_command_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["frobnicate"])
    assert code == 2


def test_version_flag(capsys):
    code, out, err = run_cli(capsys, ["--version"])
    assert code == 0
    assert "karamata-kit" in out + err


def _fresh_process(argv):
    src = str(Path(karamata_kit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "karamata_kit.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _without_timing(text):
    return re.sub(r'"timing_ms": [^,\n]+', '"timing_ms": 0', text)


def test_main_called_repeatedly_sees_only_its_own_flags(capsys, tmp_path):
    target = tmp_path / "first.json"
    code, out, _ = run_cli(
        capsys, ["classify", "ln(x)", "--lambdas", "2,10", "--out", str(target)]
    )
    assert code == 0 and out == ""
    first = target.read_text()
    assert json.loads(first)["inputs"]["lambdas"] == [2.0, 10.0]

    later = [
        ["classify", "ln(x)"],
        ["classify", "ln(x)", "--lambdas"],  # parse error: the flag needs a value
        ["--version"],
        ["invert-l", "ln(x)"],
    ]
    runs = [run_cli(capsys, argv) for argv in later]
    assert target.read_text() == first  # the earlier --out is not reused

    code, out, err = runs[0]
    assert code == 0, err
    report = json.loads(out)
    assert report["inputs"]["lambdas"] == list(DEFAULT_LAMBDAS)
    assert report["config"]["lambdas"] is None and report["config"]["out"] is None
    assert runs[1][0] == 2 and runs[1][1] == ""
    assert runs[2][0] == 0 and "karamata-kit" in runs[2][1]
    assert json.loads(runs[3][1])["results"]["inverse"] == "2.0 * ln(x)"

    for argv, (code, out, err) in zip(later, runs):
        fresh_code, fresh_out, fresh_err = _fresh_process(argv)
        assert code == fresh_code, argv
        assert _without_timing(out) == _without_timing(fresh_out), argv
        assert err == fresh_err, argv


def test_console_script_is_installed():
    proc = subprocess.run(
        ["karamata-kit", "apply-l", "7", "--x", "10"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    (point,) = json.loads(proc.stdout)["results"]["points"]
    assert point["value"] == pytest.approx(7.0)


# ---------------------------------------------------------------------------
# report shape

def test_report_has_exactly_the_contract_keys(capsys):
    report = run_json(capsys, ["apply-l", "ln(x)", "--x", "100"])
    assert sorted(report.keys()) == REPORT_KEYS
    assert report["version"] == 1
    assert report["command"] == "apply-l"
    assert isinstance(report["timing_ms"], float)


def test_report_embeds_canonical_expression(capsys):
    report = run_json(capsys, ["apply-l", "ln( x ) + 0", "--x", "100"])
    assert report["inputs"]["canonical"] == "ln(x) + 0.0"


def test_report_json_is_sorted_and_round_trips(capsys):
    _, out, _ = run_cli(capsys, ["uct", "scan", "--g", "u/x"])
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_config_echoes_resolved_values(capsys):
    report = run_json(capsys, ["classify", "ln(x)", "--grid-count", "9",
                               "--grid-start", "100", "--grid-ratio", "50"])
    assert report["config"]["grid_count"] == 9
    assert report["config"]["grid_start"] == 100.0
    assert report["config"]["grid_ratio"] == 50.0


def test_classify_reports_verdicts(capsys):
    report = run_json(capsys, ["classify", "x^2"])
    assert report["verdicts"]["index"] == "regularly_varying"
    assert report["results"]["index"]["rho_hat"] == pytest.approx(2.0, abs=1e-9)


def test_classify_counterexample_with_integer_grid(capsys):
    report = run_json(
        capsys, ["classify", "x^(sin(x)/ln(x))", "--integer-mode"]
    )
    assert report["verdicts"]["sv"] == "not_slowly_varying"


def test_classify_profile_flag_adds_profile(capsys):
    report = run_json(capsys, ["classify", "x^3", "--profile"])
    assert report["results"]["profile"]["verdict"]["value"] == pytest.approx(3.0, abs=1e-9)


def test_classify_claim_flag_adds_class_check(capsys):
    report = run_json(capsys, ["classify", "1/(1+ln(x))", "--claim", "z0"])
    assert report["verdicts"]["preservation"] == "holds"


def test_invert_l_prints_symbolic_inverse(capsys):
    report = run_json(capsys, ["invert-l", "ln(x)"])
    assert report["results"]["inverse"] == "2.0 * ln(x)"


def test_uct_karamata_window_aliases(capsys):
    report = run_json(
        capsys,
        ["uct", "karamata", "--f", "ln(x)", "--a", "1", "--b", "2",
         "--grid-start", "100", "--grid-ratio", "10", "--grid-count", "8"],
    )
    sups = report["results"]["scan"]["suprema"]
    assert sups == sorted(sups, reverse=True)
    assert sups[-1] == pytest.approx(math.log(2) / math.log(1e9), rel=1e-9)
    assert report["verdicts"]["scan"] == "uniform"


def test_uct_hi_reports_violations(capsys):
    report = run_json(capsys, ["uct", "hi", "--h", "exp(-u)"])
    assert report["verdicts"]["hi"] == "violated"
    assert len(report["results"]["hi"]["violations"]) > 0


def test_uct_expand_interval(capsys):
    report = run_json(
        capsys, ["uct", "expand-interval", "--a", "2", "--b", "4", "--n", "3"]
    )
    assert report["results"]["interval"] == {"lo": 0.125, "hi": 8.0}


def test_uct_mult_closure(capsys):
    report = run_json(
        capsys,
        ["uct", "mult-closure", "--f", "ln(ln(x))", "--lambda", "2", "--mu", "3"],
    )
    assert report["verdicts"]["identity"] == "ok"
    assert report["results"]["closure"]["max_ulp_deviation"] <= 4.0


def test_uct_mult_closure_requires_factors(capsys):
    code, _, _ = run_cli(capsys, ["uct", "mult-closure", "--f", "ln(x)"])
    assert code == 3


# ---------------------------------------------------------------------------
# output formats and files

def test_csv_output_has_contract_header(capsys):
    code, out, _ = run_cli(
        capsys, ["uct", "scan", "--g", "u/x", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "param", "residual"]
    assert len(rows) == 1 + 8 * 33  # default grid count x default u_count
    for x_text, param_text, residual_text in rows[1:]:
        x, u = float(x_text), float(param_text)
        assert float(residual_text) == pytest.approx(u / x, rel=1e-12)


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["apply-l", "ln(x)", "--x", "100", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "apply-l"


def test_format_both_writes_two_files(capsys, tmp_path):
    base = tmp_path / "scan"
    code, _, _ = run_cli(
        capsys,
        ["uct", "scan", "--g", "u/x", "--format", "both", "--out", str(base)],
    )
    assert code == 0
    report = json.loads((tmp_path / "scan.json").read_text())
    assert report["command"] == "uct scan"
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "x,param,residual"


# ---------------------------------------------------------------------------
# config file layering: flags > file > defaults

def test_config_file_overrides_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid_count": 12}))
    report = run_json(capsys, ["classify", "x^2", "--config", str(cfg)])
    assert report["config"]["grid_count"] == 12


def test_flags_override_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid_count": 12, "grid_start": 100.0}))
    report = run_json(
        capsys, ["classify", "x^2", "--config", str(cfg), "--grid-count", "10"]
    )
    assert report["config"]["grid_count"] == 10
    assert report["config"]["grid_start"] == 100.0  # file value survives


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid_cont": 12}))
    code, _, _ = run_cli(capsys, ["classify", "x^2", "--config", str(cfg)])
    assert code == 2


def test_wrong_config_type_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid_count": "twelve"}))
    code, _, _ = run_cli(capsys, ["classify", "x^2", "--config", str(cfg)])
    assert code == 2


def test_out_of_range_literal_exits_2(capsys):
    code, out, err = run_cli(capsys, ["apply-l", "1e309", "--x", "10"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: number '1e309' is out of range")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "ln(x)", "--grid-count", "1001"],
        ["uct", "scan", "--g", "x*u", "--u-count", "1001"],
        ["uct", "karamata", "--f", "ln(x)", "--lambda-count", "1001"],
        ["uct", "hi", "--h", "x + u", "--samples", "100001"],
        ["uct", "guct", "--h-expr", "abs(ln(x+u) - ln(x))", "--m-expr", "1",
         "--samples", "100001"],
    ],
)
def test_over_cap_sizes_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ") and "must be at most" in err


def test_size_caps_admit_their_own_value():
    caps = {
        "grid_count": config.MAX_GRID_COUNT,
        "u_count": config.MAX_PARAM_COUNT,
        "lambda_count": config.MAX_PARAM_COUNT,
        "samples": config.MAX_SAMPLES,
    }
    cfg = config.merge_config(None, caps)
    assert {key: getattr(cfg, key) for key in caps} == caps


# ---------------------------------------------------------------------------
# determinism across thread counts

def _canonical(report_text):
    report = json.loads(report_text)
    report.pop("timing_ms")
    return json.dumps(report, sort_keys=True)


def test_reports_are_identical_across_thread_counts(capsys, monkeypatch):
    argv = ["uct", "scan", "--g", "x*u*exp(-x*u)", "--u-lo", "0.001"]
    monkeypatch.setenv("KARAMATA_KIT_THREADS", "1")
    _, out_serial, _ = run_cli(capsys, argv)
    monkeypatch.setenv("KARAMATA_KIT_THREADS", "8")
    _, out_pool, _ = run_cli(capsys, argv)
    assert _canonical(out_serial) == _canonical(out_pool)


def test_csv_bytes_identical_across_thread_counts(capsys, monkeypatch):
    argv = ["uct", "karamata", "--f", "ln(x)", "--format", "csv"]
    monkeypatch.setenv("KARAMATA_KIT_THREADS", "1")
    code1, out_serial, _ = run_cli(capsys, argv)
    monkeypatch.setenv("KARAMATA_KIT_THREADS", "6")
    code2, out_pool, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out_serial == out_pool
