"""Suite checks: `run` and `verify` agree on every verdict, and each check
rejects a tampered record that its stored claims alone would pass."""

import copy
import functools
import json

import numpy as np
import pytest

from majcert.concepts import Distribution, InputDomain, PConceptClass, RealFunction
from majcert.decompose import occam_check
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


@pytest.mark.parametrize("name", sorted(SMALL))
def test_report_text_is_a_fixed_point_of_canonical_json(name):
    """``run_suite`` sets its verdicts on the parsed report text, so
    writing that parse again must give the same text."""
    text = report_text(name)
    assert canonical_json(json.loads(text)) == text


def triple_every_slot(report):
    dec = report["records"][0]["outputs"]["decomposition"]
    assert dec["m"] == 121
    dec["m"] = 3 * dec["m"]
    dec["certs"] = dec["certs"] * 3
    dec["funcs"] = dec["funcs"] * 3
    return 0


def repeated_class_member(report):
    """A member listed twice, with the measures re-derived to match."""
    record = report["records"][0]
    out = record["outputs"]
    members = out.get("decomposition", out)["class"]
    members.append(members[0])
    record["measures"] = REGISTRY[report["suite"]].measures(record)
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


def readd_fat_eps4(report):
    """A measure the outputs do not determine: the key set must match."""
    report["records"][0]["measures"]["fat_eps4"] = 1
    return 0


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


def winnow_f_far_from_target(report):
    """f moves to the member farthest from f_star on Y: conclusion (ii)."""
    out = report["records"][0]["outputs"]
    star = out["tables"][out["f_star"]]
    out["f"] = max(range(len(out["tables"])),
                   key=lambda j: max(abs(out["tables"][j][y] - star[y]) for y in out["Y"]))
    return 0


def winnow_z_past_its_bound(report):
    """Z takes every input outside Y: more than log2 |cover| points."""
    out = report["records"][0]["outputs"]
    out["Z"] = [x for x in range(len(out["tables"][0])) if x not in out["Y"]]
    return 0


def winnow_padded_cover(report):
    """Z past log2 of the true cover, hidden by repeating the cover's
    indices 64 times, with the measures matched."""
    record = report["records"][0]
    winnow_z_past_its_bound(report)
    record["outputs"]["cover"] = record["outputs"]["cover"] * 64
    record["measures"] = REGISTRY["winnow"].measures(record)
    return 0


def occam_sample_of_one(report):
    """m lowered to 1, with the rate rerun at m = 1 and the measures
    re-derived: only re-running the sample schedule exposes it."""
    record = report["records"][0]
    out = record["outputs"]
    tables = [np.array([float.fromhex(v) for v in t]) for t in out["tables_hex"]]
    domain = InputDomain(len(tables[0]).bit_length() - 1)
    S = PConceptClass(domain, [RealFunction(domain, t) for t in tables])
    D = Distribution(domain, np.array([float.fromhex(w) for w in out["weights_hex"]]))
    out["m"] = 1
    out["rate"] = occam_check(S, S[out["f"]], D, out["eps"], 1, out["trials"], seed=out["seed"])
    record["measures"] = REGISTRY["occam"].measures(record)
    return 0


def padded_full_certificate(report, raise_k=False):
    """Record 0's first full-LP certificate padded to k + 1 points with
    its own member's values, which leaves the game value unchanged; with
    ``raise_k`` the stored k grows to cover the padding."""
    out = report["records"][0]["outputs"]
    cert, fhex = out["full_support"][0]
    size = 1 << out["n"]
    free = sorted(set(range(size)) - {int(p, 16) for p in cert["points"]})
    for x in free[:out["k"] + 1 - len(cert["points"])]:
        cert["points"].append(hex(x))
        cert["bits"].append((int(fhex, 16) >> (size - 1 - x)) & 1)  # MSB-first table
    assert len(cert["points"]) == out["k"] + 1
    if raise_k:
        out["k"] += 1
    return 0


def l1winnow_invented_progress(report):
    """A log that shrinks fast enough but is not the cover's measure."""
    report["records"][0]["outputs"]["progress_log"] = [1.0, 0.5]
    return 0


def l1winnow_stalled_progress(report):
    log = report["records"][0]["outputs"]["progress_log"]
    log.append(log[-1])
    return 0


@pytest.mark.parametrize("name, tamper", [
    ("majcert", triple_every_slot),
    ("majcert", extra_certificate_bit),
    ("majcert", repeated_class_member),
    ("majcert", repeated_certificate_point),
    ("realmajcert", flatten_slot_values),
    ("realmajcert", extra_slot_value),
    ("realmajcert", repeated_slot_point),
    ("majcert", inflate_measures),
    ("realmajcert", inflate_measures),
    ("quantum-protocol", inflate_measures),
    ("majcert-robust", flip_untrusted_claim),
    ("quantum-protocol", protocol_m_mismatch),
    ("quantum-protocol", zero_soundness_bound),
    ("quantum-protocol", zero_attack_error),
    ("quantum-protocol", honest_attack_registers),
    ("quantum-protocol", certain_amplification),
    ("quantum-protocol", increasing_dims),
    ("winnow", winnow_f_far_from_target),
    ("winnow", winnow_z_past_its_bound),
    ("winnow", inflate_measures),
    ("winnow", readd_fat_eps4),
    ("winnow", winnow_padded_cover),
    ("l1winnow", l1winnow_stalled_progress),
    ("l1winnow", l1winnow_invented_progress),
    ("l1winnow", inflate_measures),
    ("majcert-robust", inflate_measures),
    ("occam", inflate_measures),
    ("occam", occam_sample_of_one),
    ("l2counter", inflate_measures),
    ("dims", inflate_measures),
    ("dims", repeated_class_member),
    ("equivalence", inflate_measures),
    ("equivalence", padded_full_certificate),
    pytest.param("equivalence", functools.partial(padded_full_certificate, raise_k=True),
                 id="equivalence-padded_full_certificate-raised-k"),
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
