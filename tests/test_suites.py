"""Suite checks: `run` and `verify` agree on every verdict, and each check
rejects a tampered record that its stored claims alone would pass."""

import collections
import copy
import dataclasses
import functools
import json
import math
import pathlib
import runpy
import sys

import numpy as np
import pytest

from majcert import protocol, suites
from majcert.concepts import Distribution, InputDomain, PConceptClass, RealFunction, Slots
from majcert.decompose import RealDecomposition, _far_members, occam_check
from majcert.formats import (boolean_decomposition_from_json, canonical_json, canonical_tree,
                             protocol_from_json, real_class_from_json,
                             real_decomposition_from_json, state_to_json)
from majcert.protocol import machine_b_error, verifier_A
from majcert.qsim import DensityMatrix, measurement_operator
from majcert.suites import REGISTRY, build_standard_protocol, run_suite, verify_report
from majcert.errors import RejectedInputError
from majcert.winnow import _SEARCHES, fat_shattering_dim
from references import typed_tree

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "benchmark"
CONFIG_DIR = BENCHMARK.parent / "scripts" / "configs"

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
    "quantum-protocol": ({}, 3),
    "equivalence": ({"instances": 2}, 12),
    "l1winnow-one-member": ({"instances": 1, "class_size": 1, "n": 2}, 5),
    "dims-narrow": ({"instances": 2, "pconcept_instances": 1, "n_max": 3}, 2),
    "equivalence-narrow": ({"instances": 2, "class_size_max": 6}, 12),
}

#: the suite of each SMALL entry not named after its suite
SUITE_OF = {"majcert-robust": "majcert", "l1winnow-one-member": "l1winnow",
            "dims-narrow": "dims", "equivalence-narrow": "equivalence"}


@functools.lru_cache(maxsize=None)
def report_text(name: str) -> str:
    params, seed = SMALL[name]
    suite = SUITE_OF.get(name, name)
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
    """``run_suite`` sets its verdicts on the canonical tree of its records,
    the parse of their text, so writing that parse again must give the
    same text."""
    text = report_text(name)
    assert canonical_json(json.loads(text)) == text


@pytest.mark.parametrize("stem", sorted(path.stem for path in CONFIG_DIR.glob("*.json")))
def test_run_verifies_the_value_its_canonical_json_parses_back_to(monkeypatch, stem):
    """The records ``run_suite`` verifies, its canonical tree of the
    {"suite", "config", "records"} wrapper, are what ``verify`` reads from
    their bytes: the same keys in the same order and leaves of the same types."""
    seen = []

    def spy(obj):
        tree = canonical_tree(obj)
        seen.append((tree, json.loads(canonical_json(obj))))
        return tree

    monkeypatch.setattr(suites, "canonical_tree", spy)
    run_suite(json.loads((CONFIG_DIR / f"{stem}.json").read_text()))
    (tree, parsed), = seen
    assert sorted(tree) == ["config", "records", "suite"]
    assert typed_tree(tree) == typed_tree(parsed)


def repeat_positions(data, times, keys=("certs", "funcs")):
    """Every position of a serialized slot list repeated ``times`` times."""
    data["m"] *= times
    for key in keys:
        data[key] = data[key] * times


def triple_every_slot(report):
    """Every slot tripled until m exceeds the slot bound; the tripled slots
    still combine to the target."""
    dec = report["records"][0]["outputs"]["decomposition"]
    S, decomposition = boolean_decomposition_from_json(dec)
    while dec["m"] <= type(decomposition).slot_bound(S):
        repeat_positions(dec, 3)
    return 0


def repeat_real_positions(report, past_bound=False):
    """Every position of the report's real decomposition, and of the
    protocol compiled from it, repeated: tripled while m stays within the
    slot bound or, with ``past_bound``, just past it.  Record 0's measures
    are re-derived to match."""
    records = report["records"]
    quantum = report["suite"] == "quantum-protocol"
    dec = records[1 if quantum else 0]["outputs"]["decomposition"]
    S, decomposition = real_decomposition_from_json(dec)
    bound = RealDecomposition.slot_bound(S, decomposition.eps)
    if past_bound:
        times = bound // dec["m"] + 1
    else:
        times = 1
        while 3 * times * dec["m"] <= bound:
            times *= 3
    repeat_positions(dec, times)
    if quantum:
        repeat_positions(records[0]["outputs"]["protocol"], times, ("targets", "advice_refs"))
    records[0]["measures"] = REGISTRY[report["suite"]].measures(records[0])


def repeated_real_report(report):
    """Every real position repeated within the slot bound; the repeated
    report still verifies."""
    repeat_real_positions(report)
    assert all(ok for _, ok in verify_report(report))


def realmajcert_m_past_its_bound(report):
    repeat_real_positions(report, past_bound=True)
    return 0


def quantum_m_past_its_bound(report):
    repeat_real_positions(report, past_bound=True)
    return 1


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


def repeated_slot_point(report):
    cert = report["records"][0]["outputs"]["decomposition"]["certs"][0]
    cert["points"].append(cert["points"][-1])
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


def decomposition_m_mismatch(report):
    report["records"][1]["outputs"]["decomposition"]["m"] += 1
    return None  # the protocol is compiled from it, so every record fails


def loose_decomposition_alpha(report):
    """Constraints met only within 1/2 leave the envelope wider than eps."""
    report["records"][1]["outputs"]["decomposition"]["alpha"] = 0.5
    return 1


def raised_intact_error(report):
    """A worse intact search outcome, with the measures re-derived to match."""
    record = report["records"][2]
    record["outputs"]["best_error"] = 0.2
    record["measures"] = REGISTRY["quantum-protocol"].measures(record)
    return 2


def honest_intact_registers(report):
    """Record 2 as the restart search left it: the honest registers, whose
    replayed error 0.146446609407 falls short of the exact worst case,
    with the stored numbers and measures replayed."""
    P = protocol_from_json(report["records"][0]["outputs"]["protocol"],
                           report["records"][1]["outputs"]["decomposition"])
    honest = P.honest_registers()
    record = report["records"][2]
    record["outputs"].update(register_tables=[state_to_json(s) for s in honest.distinct],
                             best_error=machine_b_error(P, honest),
                             best_deviation=verifier_A(P, honest))
    assert round(record["outputs"]["best_error"], 12) == 0.146446609407
    record["measures"] = REGISTRY["quantum-protocol"].measures(record)
    return 2


def infeasible_intact_registers(report):
    """Record 2's register a pure state off the honest one by 0.05 rad,
    which machine B still accepts but machine A does not (deviation
    above 5 alpha), with the stored numbers and measures replayed."""
    P = protocol_from_json(report["records"][0]["outputs"]["protocol"],
                           report["records"][1]["outputs"]["decomposition"])
    theta = math.pi / 8.0 + 0.05
    state = DensityMatrix.from_pure(np.array([math.cos(theta), math.sin(theta)]))
    registers = Slots([state], P.slots.refs)
    assert verifier_A(P, registers) > 5.0 * P.alpha
    assert machine_b_error(P, registers) <= 1.0 / 3.0
    record = report["records"][2]
    record["outputs"].update(register_tables=[state_to_json(state)],
                             best_error=machine_b_error(P, registers),
                             best_deviation=verifier_A(P, registers))
    record["measures"] = REGISTRY["quantum-protocol"].measures(record)
    return 2


def extra_attack_table(report):
    tables = report["records"][3]["outputs"]["register_tables"]
    tables.append(tables[0])
    return 3


def loose_winnow_eps(report):
    report["records"][0]["outputs"]["eps"] = 1.0
    return 0


def shorter_winnow_y(report):
    report["records"][0]["outputs"]["Y"].pop()
    return 0


def loose_realmajcert_eps(report):
    report["records"][0]["outputs"]["decomposition"]["eps"] = 10.0
    return 0


def loose_quantum_decomposition_eps(report):
    report["records"][1]["outputs"]["decomposition"]["eps"] = 10.0
    return 1


def inflated_quantum_decomposition_alpha(report):
    report["records"][1]["outputs"]["decomposition"]["alpha"] *= 10.0
    return 1


def occam_inputs(out):
    """(S, D) of an occam record: its class and the distribution that its
    raw weights normalize to."""
    S = real_class_from_json(out["tables"])
    return S, Distribution.from_weights(S.domain, out["weights"])


def occam_two_trials(report):
    """The trial count lowered to 2, with the rate rerun at 2 trials."""
    record = report["records"][0]
    out = record["outputs"]
    S, D = occam_inputs(out)
    out["trials"] = 2
    out["rate"] = occam_check(S, S[out["f"]], D, out["eps"], out["m"], 2, seed=out["seed"])
    record["measures"] = REGISTRY["occam"].measures(record)
    return 0


def remeasured_dims(out):
    """A p-concept record's dims re-measured on its stored tables."""
    domain = InputDomain(int(math.log2(len(out["tables"][0]))))
    S = PConceptClass(domain, [RealFunction(domain, np.array(t)) for t in out["tables"]])
    out["dims"] = [fat_shattering_dim(S, g) for g in out["gammas"]]


def other_dims_gammas(report):
    """A p-concept record measured at gammas the config does not name."""
    record = next(r for r in report["records"] if r["outputs"]["kind"] == "pconcept")
    record["outputs"]["gammas"] = [0.45, 0.46, 0.47, 0.48]
    remeasured_dims(record["outputs"])
    return record["index"]


def loose_l1winnow_eps(report):
    report["records"][0]["outputs"]["eps"] = 10.0
    return 0


def fractional_target(report):
    report["records"][0]["outputs"]["decomposition"]["target"] += 0.5
    return 0


def fractional_advice_ref(report):
    report["records"][0]["outputs"]["protocol"]["advice_refs"][-1] += 0.5
    return None  # the protocol is undecodable, so every record fails


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
    S, D = occam_inputs(out)
    out["m"] = 1
    out["rate"] = occam_check(S, S[out["f"]], D, out["eps"], 1, out["trials"], seed=out["seed"])
    record["measures"] = REGISTRY["occam"].measures(record)
    return 0


def support_function_outside_the_class(report):
    """Record 0's first oracle support function replaced by a table that
    no stored member has."""
    out = report["records"][0]["outputs"]
    width = len(out["class"][0])
    out["oracle_support"][0][1] = next(
        h for h in (format(v, f"0{width}x") for v in range(16 ** width)) if h not in out["class"])
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


def spliced(name, **overrides):
    """Record 0 replaced by record 0 of the run of SMALL[name] with
    ``overrides``: an honest record of a class the report's config does
    not allow."""
    def tamper(report):
        params, seed = SMALL[name]
        other = run_suite({"schema": 1, "suite": SUITE_OF.get(name, name),
                           "parameters": {**params, **overrides}, "seed": seed})
        report["records"][0] = other["records"][0]
        return 0
    return tamper


def record_of_another_shape(name, key):
    """``spliced`` at ``n`` one larger or ``class_size`` one smaller."""
    value = SMALL[name][0].get(key, REGISTRY[name].schema[key][1])
    return spliced(name, **{key: value + (1 if key == "n" else -1)})


def dims_dropped_table(report):
    """One of a p-concept record's 8 tables dropped, dims re-measured."""
    record = next(r for r in report["records"] if r["outputs"]["kind"] == "pconcept")
    del record["outputs"]["tables"][-1]
    remeasured_dims(record["outputs"])
    return record["index"]


def occam_negative_trials(report):
    """Record 0 and the config echo at -3 trials, with rate 1.0 and the
    measures matched.  Every record fails: record 0 for its trial count,
    the others because their trial counts no longer match the config."""
    record = report["records"][0]
    report["config"]["parameters"]["trials"] = record["outputs"]["trials"] = -3
    record["outputs"]["rate"] = 1.0
    record["measures"] = REGISTRY["occam"].measures(record)
    return None


def negative_alias(key):
    """Record 0's member index ``key`` written as its negative alias."""
    def tamper(report):
        out = report["records"][0]["outputs"]
        out[key] -= len(out["tables"])
        return 0
    return tamper


def boolean_alias(report):
    """Record 0's first member index equal to 0 or 1 written as a JSON
    boolean: f, else f_star, else a cover entry."""
    out = report["records"][0]["outputs"]
    key = next((k for k in ("f", "f_star") if type(out.get(k)) is int and out[k] in (0, 1)),
               None)
    if key is not None:
        out[key] = bool(out[key])
    else:
        j = next(j for j, i in enumerate(out["cover"]) if i in (0, 1))
        out["cover"][j] = bool(out["cover"][j])
    return 0


def false_for_a_later_zero(entries: list) -> None:
    """The last 0 of ``entries``, which also holds an earlier 0, written as
    JSON false."""
    j = len(entries) - 1 - entries[::-1].index(0)
    assert entries.index(0) < j
    entries[j] = False


def realmajcert_false_func(report):
    repeated_real_report(report)
    false_for_a_later_zero(report["records"][0]["outputs"]["decomposition"]["funcs"])
    return 0


def false_advice_ref(report):
    repeated_real_report(report)
    false_for_a_later_zero(report["records"][0]["outputs"]["protocol"]["advice_refs"])
    return None  # the protocol is undecodable, so every record fails


def nan_in_an_unused_table(decomposition: dict) -> None:
    """One entry of a class table that no slot and not the target names
    set to NaN (which JSON parsing accepts)."""
    used = {decomposition["target"], *decomposition["funcs"]}
    j = min(set(range(len(decomposition["class_tables"]))) - used)
    decomposition["class_tables"][j][0] = math.nan


def repeated_real_table(report):
    """Record 0's last stored table replaced by a copy of its first: the
    class keeps its size but repeats a table."""
    out = report["records"][0]["outputs"]
    tables = out["decomposition"]["class_tables"] if "decomposition" in out else out["tables"]
    tables[-1] = list(tables[0])
    return 0


def realmajcert_nan_table(report):
    nan_in_an_unused_table(report["records"][0]["outputs"]["decomposition"])
    return 0


def quantum_nan_table(report):
    nan_in_an_unused_table(report["records"][1]["outputs"]["decomposition"])
    return None  # record 1's decomposition is in every record's context


def dims_raised_n(report):
    """A Boolean record at n = 2 restated at n = 3, its hex tables unchanged."""
    record = next(r for r in report["records"] if r["outputs"].get("n") == 2)
    record["outputs"]["n"] = 3
    return record["index"]


def respelled_real_point(report):
    """Record 0's first real-certificate point 0x0 written as 0x00."""
    cert = next(c for c in report["records"][0]["outputs"]["decomposition"]["certs"]
                if "0x0" in c["points"])
    cert["points"][cert["points"].index("0x0")] = "0x00"
    return 0


def respelled_target_inputs(report):
    """Slot 0's target inputs written with an upper-case prefix (0X0, 0X1)."""
    targets = report["records"][0]["outputs"]["protocol"]["targets"]
    assert {z for z, _ in targets[0]} == {"0x0", "0x1"}
    targets[0] = [[z.replace("0x", "0X"), r] for z, r in targets[0]]
    return None  # the protocol is undecodable, so every record fails


def first_target_edited(entry, edit, failing):
    """A tamper applying ``edit`` to entry ``entry`` (0 the input, 1 the
    target) of slot 0's first (input, target) pair.  Record 0 re-derives
    the targets; the records in ``failing`` also see the edit, through
    the adversary search (2 and 3) or the soundness bound (1)."""
    def tamper(report):
        pair = report["records"][0]["outputs"]["protocol"]["targets"][0][0]
        pair[entry] = edit(pair[entry])
        return (0, *failing)
    return tamper


def three_below_the_denominator(text):
    """"2399/16384" -> "2399/16381": within alpha / 5 of the stored value."""
    numerator, denominator = text.split("/")
    return f"{numerator}/{int(denominator) - 3}"


def unknown_kind(key, index):
    """A tamper appending "0" to the ``kind`` of record 0's document
    ``key``, after which record ``index`` fails (None: every record)."""
    def tamper(report):
        report["records"][0]["outputs"][key]["kind"] += "0"
        return index
    return tamper


def dims_unknown_kind(report):
    """A p-concept record's kind written as "pconcept0"."""
    record = next(r for r in report["records"] if r["outputs"]["kind"] == "pconcept")
    record["outputs"]["kind"] = "pconcept0"
    return record["index"]


def occam_edited(key, delta):
    """A tamper adding ``delta`` to record 0's ``key``."""
    def tamper(report):
        report["records"][0]["outputs"][key] += delta
        return 0
    return tamper


@pytest.mark.parametrize("name, tamper", [
    *[pytest.param(name, record_of_another_shape(name, key), id=f"{name}-{key}-record")
      for name in ("winnow", "l1winnow", "realmajcert", "occam") for key in ("class_size", "n")],
    pytest.param("winnow", negative_alias("f"), id="winnow-negative-f"),
    pytest.param("winnow", negative_alias("f_star"), id="winnow-negative-f_star"),
    pytest.param("l1winnow", negative_alias("f"), id="l1winnow-negative-f"),
    ("winnow", boolean_alias),
    ("l1winnow", boolean_alias),
    ("majcert", triple_every_slot),
    ("majcert", extra_certificate_bit),
    ("majcert", repeated_class_member),
    ("majcert", repeated_certificate_point),
    ("realmajcert", repeated_slot_point),
    ("majcert", inflate_measures),
    ("realmajcert", inflate_measures),
    ("quantum-protocol", inflate_measures),
    ("majcert-robust", flip_untrusted_claim),
    ("quantum-protocol", protocol_m_mismatch),
    ("quantum-protocol", decomposition_m_mismatch),
    ("quantum-protocol", loose_decomposition_alpha),
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
    ("equivalence", repeated_class_member),
    ("equivalence", support_function_outside_the_class),
    pytest.param("equivalence", functools.partial(padded_full_certificate, raise_k=True),
                 id="equivalence-padded_full_certificate-raised-k"),
    *[pytest.param("quantum-protocol", functools.partial(inflate_measures, index=index),
                   id=f"quantum-protocol-inflate_measures-record-{index}")
      for index in range(1, 6)],
    ("quantum-protocol", raised_intact_error),
    ("quantum-protocol", infeasible_search_deviation),
    ("quantum-protocol", infeasible_intact_registers),
    ("quantum-protocol", honest_intact_registers),
    ("quantum-protocol", extra_attack_table),
    ("quantum-protocol", loose_quantum_decomposition_eps),
    ("quantum-protocol", inflated_quantum_decomposition_alpha),
    ("quantum-protocol", fractional_advice_ref),
    ("winnow", loose_winnow_eps),
    ("winnow", shorter_winnow_y),
    ("realmajcert", loose_realmajcert_eps),
    ("realmajcert", fractional_target),
    ("occam", occam_two_trials),
    ("occam", occam_negative_trials),
    pytest.param("l2counter", record_of_another_shape("l2counter", "n"),
                 id="l2counter-n-record"),
    pytest.param("dims-narrow", spliced("dims-narrow", n_min=5, n_max=5),
                 id="dims-n-record"),
    ("dims", dims_dropped_table),
    pytest.param("equivalence-narrow", spliced("equivalence-narrow", class_size_max=16),
                 id="equivalence-class_size-record"),
    ("dims", other_dims_gammas),
    ("l1winnow-one-member", loose_l1winnow_eps),
    ("realmajcert", realmajcert_false_func),
    ("quantum-protocol", false_advice_ref),
    ("realmajcert", realmajcert_nan_table),
    *[(name, repeated_real_table) for name in ("winnow", "l1winnow", "realmajcert", "occam")],
    ("quantum-protocol", quantum_nan_table),
    ("dims", dims_raised_n),
    ("realmajcert", respelled_real_point),
    ("quantum-protocol", respelled_target_inputs),
    ("realmajcert", realmajcert_m_past_its_bound),
    ("quantum-protocol", quantum_m_past_its_bound),
    pytest.param("quantum-protocol", first_target_edited(1, three_below_the_denominator, (2, 3)),
                 id="quantum-protocol-target-off-its-dyadic"),
    pytest.param("quantum-protocol", first_target_edited(0, lambda z: "0x1", (1, 2, 3)),
                 id="quantum-protocol-target-at-another-input"),
    ("dims", dims_unknown_kind),
    pytest.param("realmajcert", unknown_kind("decomposition", 0), id="realmajcert-unknown-kind"),
    pytest.param("quantum-protocol", unknown_kind("protocol", None),
                 id="quantum-protocol-unknown-kind"),
    pytest.param("occam", occam_edited("seed", 1), id="occam-seed-plus-one"),
    pytest.param("occam", occam_edited("f", 1), id="occam-f-one"),
])
def test_verify_rejects_tampered_record(name, tamper):
    # a tamper returns the index of the record that must fail, a tuple of
    # such indices, or None when every record must fail
    report = parsed(name)
    assert all(ok for _, ok in verify_report(report))
    bad = copy.deepcopy(report)
    index = tamper(bad)
    failing = index if isinstance(index, tuple) else (index,)
    assert dict(verify_report(bad)) == {r["index"]: index is not None and r["index"] not in failing
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
    """Each slot tripled while m stays within the slot bound, then one
    later copy's certificate given a bit its function contradicts."""
    dec = report["records"][0]["outputs"]["decomposition"]
    S, decomposition = boolean_decomposition_from_json(dec)
    while 3 * dec["m"] <= type(decomposition).slot_bound(S):
        repeat_positions(dec, 3)
    j = later_copy(list(zip(dec["certs"], dec["funcs"])))
    cert, size = copy.deepcopy(dec["certs"][j]), 1 << dec["n"]
    x = min(set(range(size)) - {int(p, 16) for p in cert["points"]})
    value = (int(dec["funcs"][j], 16) >> (size - 1 - x)) & 1  # MSB-first table
    cert["points"].append(hex(x))
    cert["bits"].append(1 - value)
    dec["certs"][j] = cert
    return 0


def repeated_point_on_a_copy(report):
    repeated_real_report(report)
    dec = report["records"][0]["outputs"]["decomposition"]
    j = later_copy(list(zip(dec["funcs"], dec["certs"])))
    cert = copy.deepcopy(dec["certs"][j])
    cert["points"].append(cert["points"][-1])
    dec["certs"][j] = cert
    return 0


def certificate_as_item_list_on_a_copy(report):
    """A copy whose certificate object is written as a list of its items,
    which is not a certificate however it is grouped."""
    repeated_real_report(report)
    dec = report["records"][0]["outputs"]["decomposition"]
    j = later_copy(list(zip(dec["funcs"], dec["certs"])))
    dec["certs"][j] = [[k, v] for k, v in dec["certs"][j].items()]
    return 0


def other_target_on_a_copy(report):
    repeated_real_report(report)
    protocol = report["records"][0]["outputs"]["protocol"]
    j = later_copy(list(zip(protocol["advice_refs"], protocol["targets"])))
    slot = copy.deepcopy(protocol["targets"][j])
    slot[0][1] = "0/1" if slot[0][1] != "0/1" else "1/1"
    protocol["targets"][j] = slot
    return 0


def respelled_certificate_entry(field, old, new):
    """A tamper writing the first ``old`` entry of record 0's certificate
    ``field`` as ``new``, another spelling of the same point or bit."""
    def tamper(report):
        cert = next(c for c in report["records"][0]["outputs"]["decomposition"]["certs"]
                    if old in c[field])
        cert[field][cert[field].index(old)] = new
        return 0
    return tamper


@pytest.mark.parametrize("field, old, new", [
    ("bits", 1, True), ("bits", 1, 1.0), ("points", "0x0", "0x00"), ("points", "0x0", "0X0"),
])
def test_verify_rejects_a_respelled_certificate_entry(field, old, new):
    report = parsed("majcert")
    assert all(ok for _, ok in verify_report(report))
    bad = copy.deepcopy(report)
    index = respelled_certificate_entry(field, old, new)(bad)
    assert not dict(verify_report(bad))[index]


@pytest.mark.parametrize("name, tamper", [
    ("majcert", contradicting_bit_on_a_copy),
    ("realmajcert", repeated_point_on_a_copy),
    ("realmajcert", certificate_as_item_list_on_a_copy),
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


def test_dimension_searches_are_shared_only_within_a_call(monkeypatch):
    """run_suite's builder and checks share one memo, verify_report has its
    own, and both drop it on return, also when a check or the build raises."""
    entry, report, seen = REGISTRY["dims"], parsed("dims"), []

    def check(record, context):
        ok = record["index"] != 0 and entry.check(record, context)
        seen.append(len(_SEARCHES.get(None)))  # searches held after this check
        if not ok:
            raise ValueError("a raising check")
        return ok

    monkeypatch.setitem(REGISTRY, "dims", dataclasses.replace(entry, check=check))
    assert [ok for _, ok in verify_report(report)][:2] == [False, True]
    assert _SEARCHES.get(None) is None and seen[0] == 0 < seen[1]
    seen.clear()
    assert not run_suite({**report["config"], "seed": 3})["records"][0]["verified"]
    assert _SEARCHES.get(None) is None and seen[0] > 0

    def build(params, seed):
        entry.build(params, seed)
        raise RejectedInputError("a raising build")

    monkeypatch.setitem(REGISTRY, "dims", dataclasses.replace(entry, build=build))
    with pytest.raises(RejectedInputError):
        run_suite(report["config"])
    assert _SEARCHES.get(None) is None


def test_quantum_run_builds_each_operator_once(monkeypatch):
    """One in-process quantum-protocol run, its checks included, builds
    M_x at most once per (circuit, input, advice width), and bounds each
    slot of the adversary search once per (targets, width): both live in
    the run's shared_searches memo."""
    built, bounded = collections.Counter(), collections.Counter()
    slot_extremes = protocol._slot_extremes

    def counted(circuit, x, qubits):
        built[circuit, x, qubits] += 1
        return measurement_operator(circuit, x, qubits)

    def counted_extremes(c, m, targets, width):
        bounded[targets, width] += 1
        return slot_extremes(c, m, targets, width)

    monkeypatch.setattr(protocol, "measurement_operator", counted)
    monkeypatch.setattr(protocol, "_slot_extremes", counted_extremes)
    run_suite(json.loads((CONFIG_DIR / "quantum-protocol.json").read_text()))
    assert built and max(built.values()) == 1
    assert bounded and max(bounded.values()) == 1


def test_real_quantum_run_never_restacks_a_from_tables_class(monkeypatch):
    """The real-quantum workload's configs, run in process, never stack
    the value matrix of a class built from tables: it is the validated
    array, and the covers and survivor classes taken from it share its rows."""
    built, stacked = [], []
    from_tables, stack = PConceptClass.from_tables.__func__, PConceptClass._stack

    def recorded(cls, domain, tables):
        built.append(from_tables(cls, domain, tables))
        return built[-1]

    def spy(self):
        stacked.append(self)
        return stack(self)

    monkeypatch.setattr(PConceptClass, "from_tables", classmethod(recorded))
    monkeypatch.setattr(PConceptClass, "_stack", spy)
    for stem in ("realmajcert", "winnow", "l1winnow", "dims", "occam", "l2counter",
                 "quantum-protocol"):
        run_suite(json.loads((CONFIG_DIR / f"{stem}.json").read_text()))
    assert built and not {id(S) for S in built} & {id(S) for S in stacked}


def test_undecodable_protocol_fails_every_quantum_record():
    report = parsed("quantum-protocol")
    report["records"][0]["outputs"]["protocol"]["advice_qubits"] = 0
    assert not any(ok for _, ok in verify_report(report))


def test_quantum_fat_record_is_exact_and_reads_no_seed():
    """Record 5 measures every one-qubit advice state, so it is the same at
    every seed, its check passes without the report's seed or parameters,
    and the old sampling option is an unknown parameter."""
    config = {"schema": 1, "suite": "quantum-protocol"}
    first, second = (json.loads(canonical_json(run_suite({**config, "seed": seed})))
                     ["records"][5] for seed in (1, 2))
    assert first == second
    assert first["outputs"] == {"fat_quarter": {"measured": 2, "bound": 16.0},
                                "gammas": [0.2, 0.3, 0.4], "dims": [2, 2, 1]}
    assert REGISTRY["quantum-protocol"].check(first, {})
    with pytest.raises(RejectedInputError, match="fat_samples"):
        run_suite({**config, "parameters": {"fat_samples": 300}})


def test_benchmark_tamper_probes_are_rejected(monkeypatch):
    """Every tampered copy the benchmark's verify phase probes fails its
    record; the benchmark module is loaded read-only, writing no bytecode."""
    with monkeypatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(BENCHMARK))
        tampered_copies = runpy.run_path(str(BENCHMARK / "child.py"))["tampered_copies"]
        sys.modules.pop("speed", None)  # child.py's sibling module, imported by it
    probes = tampered_copies(parsed("quantum-protocol"))
    assert probes
    for index, bad in probes:
        assert not dict(verify_report(bad))[index], index


def test_occam_with_far_members_verifies_and_rejects_its_tampers():
    """At eps 0.03 every record has members more than 11 eps from f, so
    the sample schedule really draws samples and verify re-runs them."""
    report = json.loads(canonical_json(run_suite({
        "schema": 1, "suite": "occam", "seed": 1,
        "parameters": {"eps": 0.03, "n": 3, "class_size": 25, "instances": 10}})))
    for record in report["records"]:
        S, D = occam_inputs(record["outputs"])
        assert _far_members(S, S[0], D, 0.03).any()
    assert verify_report(report) == [(r["index"], r["verified"]) for r in report["records"]]
    assert all(r["verified"] for r in report["records"])
    for tamper in (occam_two_trials, occam_sample_of_one):
        bad = copy.deepcopy(report)
        index = tamper(bad)
        assert not dict(verify_report(bad))[index]


def stored_real_classes(report):
    """The real class tables and raw weights that a report's records store."""
    found = []
    for record in report["records"]:
        out = record["outputs"]
        found += [out[key] for key in ("tables", "weights") if key in out]
        if "class_tables" in out.get("decomposition", {}):
            found.append(out["decomposition"]["class_tables"])
    return found


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("stem", ["realmajcert", "winnow", "l1winnow", "dims", "occam",
                                  "quantum-protocol"])
def test_stored_real_tables_decode_bit_for_bit(stem, seed):
    """Every real table that ``run_suite`` builds, at the shipped seed and
    at seeds 0-2, reads back from the report text with == entries, and
    decodes to the class that was built."""
    config = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    report = run_suite(config, seed_override=seed)
    built = [tables.tolist() for tables in stored_real_classes(report)]
    decoded = stored_real_classes(json.loads(canonical_json(report)))
    assert built and decoded == built
    for tables in built:
        if isinstance(tables[0], list):
            assert [f.table.tolist() for f in real_class_from_json(tables)] == tables
    if stem == "quantum-protocol":
        P = build_standard_protocol(config["parameters"]["eps"], report["seed"])
        assert real_class_from_json(decoded[0]) == P.compiled_class
