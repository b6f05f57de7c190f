"""Suite checks: `run` and `verify` agree on every verdict, and each check
rejects a tampered record that its stored claims alone would pass."""

import copy
import functools
import json

import pytest

from majcert.formats import canonical_json
from majcert.suites import REGISTRY, run_suite, verify_report

#: small parameters for every suite, a few seconds each
SMALL = {
    "majcert": ({"n": 6, "kind": "point-functions", "point_count": 48, "instances": 1}, 1),
    "majcert-robust": ({"n": 3, "point_count": 6, "instances": 1, "robust": True}, 8),
    "realmajcert": ({"n": 2, "class_size": 12, "instances": 1}, 1),
    "winnow": ({"instances": 3}, 5),
    "l1winnow": ({"instances": 3}, 5),
    "l2counter": ({"instances": 6}, 9),
    "dims": ({"instances": 6, "pconcept_instances": 2}, 2),
    "occam": ({"instances": 2, "trials": 20}, 1),
    "quantum-protocol": ({"adversary_restarts": 30, "random_states": 25}, 3),
    "equivalence": ({"instances": 2}, 12),
}


@functools.lru_cache(maxsize=None)
def report_text(name: str) -> str:
    params, seed = SMALL[name]
    suite = "majcert" if name == "majcert-robust" else name
    return canonical_json(run_suite({"schema": 1, "suite": suite, "parameters": params,
                                     "seed": seed}))


def parsed(name: str) -> dict:
    return json.loads(report_text(name))


def test_small_parameters_cover_every_suite():
    assert set(REGISTRY) <= set(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_run_verdicts_equal_verify_verdicts(name):
    report = parsed(name)
    written = [(r["index"], r["verified"]) for r in report["records"]]
    assert verify_report(report) == written
    assert all(ok for _, ok in written)


def triple_every_slot(report):
    dec = report["records"][0]["outputs"]["decomposition"]
    assert dec["m"] == 121
    dec["m"] = 3 * dec["m"]
    dec["certs"] = dec["certs"] * 3
    dec["funcs"] = dec["funcs"] * 3
    return 0


def extra_certificate_bit(report):
    cert = report["records"][0]["outputs"]["decomposition"]["certs"][0]
    cert["bits"].append(cert["bits"][-1])
    return 0


def repeated_certificate_point(report):
    cert = report["records"][0]["outputs"]["decomposition"]["certs"][0]
    cert["points"].append(cert["points"][-1])
    cert["bits"].append(cert["bits"][-1])
    return 0


def flatten_slot_values(report):
    cert = report["records"][0]["outputs"]["decomposition"]["certs"][0]
    cert["values"] = [0.5] * len(cert["values"])
    return 0


def extra_slot_value(report):
    cert = report["records"][0]["outputs"]["decomposition"]["certs"][0]
    cert["values"].append(cert["values"][-1])
    return 0


def repeated_slot_point(report):
    cert = report["records"][0]["outputs"]["decomposition"]["certs"][0]
    cert["points"].append(cert["points"][-1])
    cert["values"].append(cert["values"][-1])
    return 0


def times_7_plus_3(value):
    if isinstance(value, list):
        return [times_7_plus_3(v) for v in value]
    return value if isinstance(value, bool) else 7 * value + 3


def inflate_measures(report, index=0):
    measures = report["records"][index]["measures"]
    for key, value in measures.items():
        measures[key] = times_7_plus_3(value)
    return index


def flip_untrusted_claim(report):
    report["records"][0]["outputs"]["untrusted_flip_fails"] = False
    return 0


def zero_soundness_bound(report):
    report["records"][1]["outputs"]["conditional_soundness_bound"] = 0.0
    return 1


def zero_attack_error(report):
    report["records"][3]["outputs"]["best_error"] = 0.0
    return 3


def honest_attack_registers(report):
    honest = report["records"][0]["outputs"]["protocol"]
    out = report["records"][3]["outputs"]
    out["register_tables"] = honest["state_tables"]
    out["register_refs"] = honest["advice_refs"]
    return 3


def protocol_m_mismatch(report):
    report["records"][0]["outputs"]["protocol"]["m"] = 5
    return None  # the protocol is undecodable, so every record fails


def empty_slot_points(report):
    protocol = report["records"][0]["outputs"]["protocol"]
    protocol["points"] = [[] for _ in protocol["points"]]
    return None


def one_restart(report):
    report["records"][2]["outputs"]["restarts"] = 1
    return 2


def infeasible_search_deviation(report):
    report["records"][2]["outputs"]["best_deviation"] = 0.9
    return 2


def certain_amplification(report):
    for entry in report["records"][4]["outputs"]["amplification"]:
        entry["acceptance"] = 1.0
    return 4


def increasing_dims(report):
    report["records"][5]["outputs"]["dims"] = [0, 1, 2]
    return 5


@pytest.mark.parametrize("name, tamper", [
    ("majcert", triple_every_slot),
    ("majcert", extra_certificate_bit),
    ("majcert", repeated_certificate_point),
    ("realmajcert", flatten_slot_values),
    ("realmajcert", extra_slot_value),
    ("realmajcert", repeated_slot_point),
    ("majcert", inflate_measures),
    ("realmajcert", inflate_measures),
    ("quantum-protocol", inflate_measures),
    ("majcert-robust", flip_untrusted_claim),
    ("quantum-protocol", protocol_m_mismatch),
    ("quantum-protocol", empty_slot_points),
    ("quantum-protocol", zero_soundness_bound),
    ("quantum-protocol", zero_attack_error),
    ("quantum-protocol", honest_attack_registers),
    ("quantum-protocol", certain_amplification),
    ("quantum-protocol", increasing_dims),
    *[pytest.param("quantum-protocol", functools.partial(inflate_measures, index=index),
                   id=f"quantum-protocol-inflate_measures-record-{index}")
      for index in range(1, 6)],
    ("quantum-protocol", one_restart),
    ("quantum-protocol", infeasible_search_deviation),
])
def test_verify_rejects_tampered_record(name, tamper):
    report = parsed(name)
    assert all(ok for _, ok in verify_report(report))
    bad = copy.deepcopy(report)
    index = tamper(bad)
    assert dict(verify_report(bad)) == {r["index"]: index is not None and r["index"] != index
                                        for r in report["records"]}


def later_copy(rows):
    """The last position whose slot also occurs at an earlier position."""
    seen, last = set(), None
    for j, row in enumerate(rows):
        key = json.dumps(row, sort_keys=True)
        last = j if key in seen else last
        seen.add(key)
    assert last is not None
    return last


def contradicting_bit_on_a_copy(report):
    dec = report["records"][0]["outputs"]["decomposition"]
    j = later_copy(list(zip(dec["certs"], dec["funcs"])))
    cert, size = copy.deepcopy(dec["certs"][j]), 1 << dec["n"]
    x = min(set(range(size)) - {int(p, 16) for p in cert["points"]})
    value = (int(dec["funcs"][j], 16) >> (size - 1 - x)) & 1  # MSB-first table
    cert["points"].append(hex(x))
    cert["bits"].append(1 - value)
    dec["certs"][j] = cert
    return 0


def other_function_on_a_copy(report):
    dec = report["records"][0]["outputs"]["decomposition"]
    j = later_copy(list(zip(dec["funcs"], dec["certs"])))
    dec["funcs"][j] = (dec["funcs"][j] + 1) % len(dec["class_tables"])
    return 0


def other_target_on_a_copy(report):
    protocol = report["records"][0]["outputs"]["protocol"]
    j = later_copy(list(zip(protocol["advice_refs"], protocol["targets"])))
    slot = copy.deepcopy(protocol["targets"][j])
    slot[0][1] = "0/1" if slot[0][1] != "0/1" else "1/1"
    protocol["targets"][j] = slot
    return 0


@pytest.mark.parametrize("name, tamper", [
    ("majcert", contradicting_bit_on_a_copy),
    ("realmajcert", other_function_on_a_copy),
    ("quantum-protocol", other_target_on_a_copy),
])
def test_verify_rejects_tampered_copy_of_a_repeated_slot(name, tamper):
    bad = copy.deepcopy(parsed(name))
    index = tamper(bad)
    assert not dict(verify_report(bad))[index]


def test_verify_counts_a_raising_check_as_failed():
    report = parsed("winnow")
    del report["records"][1]["outputs"]["tables"]
    assert [ok for _, ok in verify_report(report)] == [True, False, True]


def test_undecodable_protocol_fails_every_quantum_record():
    report = parsed("quantum-protocol")
    report["records"][0]["outputs"]["protocol"]["advice_qubits"] = 0
    assert not any(ok for _, ok in verify_report(report))
