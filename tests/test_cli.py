"""CLI and suite behavior: determinism, schemas, verification, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from majcert import winnow
from majcert.cli import main
from majcert.decompose import MajorityDecomposition
from majcert.errors import RejectedInputError
from majcert.formats import boolean_decomposition_from_json, canonical_json
from majcert.suites import run_suite, validate_config, verify_report


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_validate_config_rejects_unknown_suite():
    with pytest.raises(RejectedInputError):
        validate_config({"schema": 1, "suite": "nonsense", "parameters": {}})


def test_validate_config_rejects_unknown_parameter():
    with pytest.raises(RejectedInputError):
        validate_config({"schema": 1, "suite": "winnow",
                         "parameters": {"instances": 2, "bogus": 1}})
    # the compiled class is grown by the exact adversary: no state sample
    with pytest.raises(RejectedInputError):
        validate_config({"schema": 1, "suite": "quantum-protocol",
                         "parameters": {"eps": 0.1, "random_states": 60}})


def test_validate_config_rejects_wrong_schema():
    with pytest.raises(RejectedInputError):
        validate_config({"schema": 2, "suite": "winnow", "parameters": {}})


def test_validate_config_rejects_bad_type():
    with pytest.raises(RejectedInputError):
        validate_config({"schema": 1, "suite": "winnow",
                         "parameters": {"instances": "three"}})


@pytest.mark.parametrize("seed", ["abc", -3, 1.5, True, None])
def test_validate_config_rejects_bad_seed(seed):
    with pytest.raises(RejectedInputError, match="seed"):
        validate_config({"schema": 1, "suite": "winnow", "parameters": {}, "seed": seed})


@pytest.mark.parametrize("seed", [-1, 1.5, True, "2"])
def test_run_suite_rejects_bad_seed_override(seed):
    with pytest.raises(RejectedInputError, match="seed"):
        run_suite({"schema": 1, "suite": "winnow", "parameters": {"instances": 1}},
                  seed_override=seed)


@pytest.mark.parametrize("seed, argv", [
    ("abc", []), (-3, []), (1.5, []), (True, []), (4, ["--seed", "-1"])])
def test_cli_bad_seed_exits_with_error(tmp_path, capsys, seed, argv):
    cfg = write_config(tmp_path, "cfg.json",
                       {"schema": 1, "suite": "winnow", "parameters": {"instances": 1},
                        "seed": seed})
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--out", str(out), *argv]) == 2
    assert not out.exists()
    assert "error: seed must be a non-negative integer" in capsys.readouterr().err


def test_dims_run_past_the_dimension_cap_exits_with_error(tmp_path, capsys, monkeypatch):
    """A class still shattering at the cap rejects the whole run, as an
    enumeration budget does, instead of recording a failed verdict."""
    monkeypatch.setattr(winnow, "DIMENSION_CAP", 1)
    cfg = write_config(tmp_path, "cfg.json",
                       {"schema": 1, "suite": "dims",
                        "parameters": {"instances": 2, "pconcept_instances": 1}, "seed": 2})
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "error: dimension >= cap 1" in capsys.readouterr().err


def test_run_and_verify_via_cli(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       {"schema": 1, "suite": "winnow",
                        "parameters": {"instances": 3}, "seed": 5})
    out = tmp_path / "report.json"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"] == {"records": 3, "passed": 3, "failed": 0}
    code = main(["verify", "--report", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "0 failed" in captured.out


def test_cli_reports_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"schema": 1, "suite": "l2counter",
                        "parameters": {"instances": 6}, "seed": 9})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_game_suite_reports_byte_identical(tmp_path):
    # exercises LP determinism end to end: support sets and weights must
    # reproduce exactly across runs
    cfg = write_config(tmp_path, "cfg.json",
                       {"schema": 1, "suite": "equivalence",
                        "parameters": {"instances": 2}, "seed": 12})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"schema": 1, "suite": "l2counter",
                        "parameters": {"instances": 4}, "seed": 9})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "10"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_cli_invalid_suite_exits_with_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json",
                       {"schema": 1, "suite": "made-up", "parameters": {}})
    out = tmp_path / "report.json"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert not out.exists()  # no partial output
    assert "error" in capsys.readouterr().err


def test_cli_non_json_config_exits_with_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("suite, parameters", [
    ("dims", {"gammas": ["a"]}),
    ("dims", {"n_min": 4, "n_max": 3}),
    ("dims", {"size_max": 1}),
    ("winnow", {"n": 2, "y_size": 5}),
    ("occam", {"eps": 0.0}),
    ("occam", {"trials": 0}),
    ("occam", {"trials": -3}),
    ("equivalence", {"n": 1}),
    ("quantum-protocol", {"amplify_q": 0}),
], ids=["dims-gamma-not-a-number", "dims-n-range-empty", "dims-size-max-one",
        "winnow-y-past-domain", "occam-eps-zero", "occam-trials-zero",
        "occam-trials-negative", "equivalence-n-one", "quantum-amplify-q-zero"])
def test_cli_bad_parameter_value_exits_with_error(tmp_path, capsys, suite, parameters):
    cfg = write_config(tmp_path, "cfg.json",
                       {"schema": 1, "suite": suite, "parameters": parameters})
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def without_index(report):
    del report["records"][0]["index"]
    return report


def record_as_list(report):
    report["records"][0] = [report["records"][0]]
    return report


@pytest.mark.parametrize("malform", [
    lambda report: "{not json",
    lambda report: [report],
    lambda report: {k: v for k, v in report.items() if k != "records"},
    without_index,
    record_as_list,
], ids=["not-json", "list", "no-records", "record-without-index", "record-not-object"])
def test_cli_malformed_report_exits_with_error(tmp_path, capsys, malform):
    report = json.loads(canonical_json(run_suite(
        {"schema": 1, "suite": "l2counter", "parameters": {"instances": 2}, "seed": 9})))
    payload = malform(report)
    path = tmp_path / "report.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert main(["verify", "--report", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_l2_report_contains_witness_quantities():
    report = run_suite({"schema": 1, "suite": "l2counter",
                        "parameters": {"instances": 8}, "seed": 3})
    payload = [r for r in report["records"] if "d_inf" in r["outputs"]]
    assert payload
    for record in payload:
        assert record["outputs"]["d_inf"] == 1.0
        assert record["outputs"]["d2_on_X"] <= 1.0 / (2 ** 0.5) + 1e-12


def test_majcert_suite_end_to_end():
    report = run_suite({"schema": 1, "suite": "majcert",
                        "parameters": {"n": 6, "kind": "point-functions",
                                       "point_count": 48, "instances": 1},
                        "seed": 1})
    assert report["summary"]["failed"] == 0
    assert all(ok for _, ok in verify_report(report))
    record = report["records"][0]
    assert record["verified"]
    m = record["measures"]["m"]
    assert m == record["outputs"]["decomposition"]["m"] and m % 2 == 1
    S, dec = boolean_decomposition_from_json(record["outputs"]["decomposition"])
    dec.validate(S)
    assert m <= MajorityDecomposition.slot_bound(S)


def test_majcert_suite_robust_variant():
    report = run_suite({"schema": 1, "suite": "majcert",
                        "parameters": {"n": 3, "point_count": 6, "instances": 1,
                                       "robust": True}, "seed": 8})
    assert report["summary"]["failed"] == 0
    record = report["records"][0]
    assert record["outputs"]["untrusted_honest_ok"]
    assert record["outputs"]["untrusted_flip_fails"]
    assert "margin_histogram" in record["outputs"]


def test_verify_cli_exit_code_on_tampered_report(tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"schema": 1, "suite": "winnow",
                        "parameters": {"instances": 1}, "seed": 4})
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    report["records"][0]["outputs"]["f"] = \
        (report["records"][0]["outputs"]["f"] + 1) % len(
            report["records"][0]["outputs"]["tables"])
    out.write_text(json.dumps(report))
    assert main(["verify", "--report", str(out)]) == 1


def test_verify_detects_tampering(tmp_path):
    report = run_suite({"schema": 1, "suite": "winnow",
                        "parameters": {"instances": 1}, "seed": 4})
    record = report["records"][0]
    record["outputs"]["Z"] = sorted(set(record["outputs"]["Z"]) ^ {0, 1, 2})[:1]
    record["outputs"]["f"] = (record["outputs"]["f"] + 1) % len(record["outputs"]["tables"])
    results = verify_report(report)
    # tampered winnow output should not satisfy the conclusions anymore
    assert not all(ok for _, ok in results)


ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("demo_quantum_protocol.py", ["--seed", "5"]),
])
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: the game LPs are solved in numpy
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c",
                           "import sys, majcert, majcert.cli; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_run_and_verify_of_every_shipped_config_import_no_numpy_ma():
    # numpy.ma costs about 17 ms to import, in every fresh run and verify
    # process that touches it (np.unique without counts or indices does)
    configs = [*sorted((ROOT / "scripts" / "configs").glob("*.json")),
               ROOT / "benchmark" / "configs" / "wide-boolean.json"]
    script = ("import sys, tempfile\n"
              "from majcert.cli import main\n"
              "out = tempfile.mkdtemp() + '/report.json'\n"
              "for config in sys.argv[1:]:\n"
              "    assert main(['run', '--config', config, '--out', out]) == 0, config\n"
              "    assert main(['verify', '--report', out]) == 0, config\n"
              "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script, *map(str, configs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
