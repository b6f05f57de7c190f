"""File formats, canonical JSON, artifact round-trips."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from majcert.concepts import BooleanFunction, Certificate, InputDomain, Slots
from majcert.decompose import majority_certificates
from majcert.errors import RejectedInputError
from majcert.formats import (boolean_decomposition_from_json,
                             boolean_decomposition_to_json, boolean_from_hex,
                             boolean_to_hex, canonical_json,
                             certificate_from_json, certificate_to_json,
                             circuit_from_text, circuit_to_text,
                             real_decomposition_from_json,
                             real_decomposition_to_json, state_from_json,
                             state_to_json)
from majcert.generators import point_function_class, random_pconcept_class
from majcert.qsim import Circuit, Gate, random_mixed_state
from majcert.rng import substream


def test_boolean_hex_is_msb_first():
    domain = InputDomain(2)
    f = BooleanFunction.point(domain, 0)
    # table bits are f(0)f(1)f(2)f(3) = 1000, MSB-first -> 0x8
    assert boolean_to_hex(f) == "8"
    assert boolean_from_hex(domain, "8").bits == f.bits
    g = BooleanFunction.point(domain, 3)
    assert boolean_to_hex(g) == "1"


def test_circuit_roundtrip():
    circuit = Circuit(qubits=3,
                      gates=(Gate("H", 0), Gate("CNOT", 2, control=0),
                             Gate("X", 1, when_bit=3),
                             Gate("CNOT", 0, control=1, when_bit=0)),
                      accept_qubit=2)
    text = circuit_to_text(circuit)
    assert circuit_from_text(text) == circuit
    assert text.splitlines()[0] == "qubits=3 accept=2"


def test_circuit_text_errors():
    with pytest.raises(RejectedInputError):
        circuit_from_text("")
    with pytest.raises(RejectedInputError):
        circuit_from_text("cats=3\nH 0\n")


def test_canonical_json_formatting():
    assert canonical_json({"b": 1, "a": 0.5}) == '{"a":0.5,"b":1}\n'
    assert canonical_json(1.0) == "1.0\n"
    assert canonical_json(0.123456789012345) == "0.123456789012\n"
    assert canonical_json([True, False, None]) == "[true,false,null]\n"
    assert canonical_json(Fraction(3, 16)) == '"3/16"\n'
    with pytest.raises(RejectedInputError):
        canonical_json(float("nan"))


def reference_format_float(x: float) -> str:
    """The float text of the recursive serializer ``canonical_json``
    replaced: ``.12g``, or an integral value below 1e15 with ".0"."""
    if math.isnan(x) or math.isinf(x):
        raise RejectedInputError("non-finite float in a report")
    if x == int(x) and abs(x) < 1e15:
        return repr(int(x)) + ".0"
    return format(x, ".12g")


def reference_canonical(obj) -> str:
    """The recursive serializer ``canonical_json`` replaced, kept as the
    reference for every input outside the declared float ranges."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, (float, np.floating)):
        return reference_format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{json.dumps(str(k))}:{reference_canonical(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_canonical(v) for v in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return reference_canonical(sorted(obj))
    if isinstance(obj, np.ndarray):
        return reference_canonical(obj.tolist())
    raise RejectedInputError(f"cannot canonically serialize {type(obj)!r}")


def outside_declared_ranges(x: float) -> bool:
    """Whether the 12-digit text of x reads the same as the shortest repr of
    its rounding: not a subnormal, and a rounding outside [1e12, 1e16)."""
    return x == 0 or (abs(x) >= 2.2250738585072014e-308
                      and not 1e12 <= abs(float(format(x, ".12g"))) < 1e16)


FIXED_FLOATS = [-0.0, 0.99999999999999, 2.9999999999999, 1e-05, 123456789012345.0]
report_floats = st.one_of(
    st.sampled_from(FIXED_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False).filter(outside_declared_ranges),
    st.integers(-10 ** 15 + 1, 10 ** 15 - 1).map(float),
    st.floats(-1e6, 1e6, allow_nan=False))
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.text(st.characters(blacklist_categories=())),  # non-ASCII, control, surrogates
    report_floats, report_floats.map(np.float64),
    report_floats.filter(lambda x: abs(x) < 3e38).map(np.float32).filter(
        lambda x: outside_declared_ranges(float(x))),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.fractions(), st.sets(st.integers()), st.frozensets(st.text(max_size=3)),
    st.sets(st.fractions(max_denominator=9), max_size=4),
    arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 3)),
           elements=report_floats),
    arrays(np.int64, st.integers(0, 5)), arrays(np.bool_, st.integers(0, 5)))


@st.composite
def trees_with_repeats(draw):
    """A tree of dicts, lists and tuples in which one drawn sub-container
    object sits at several positions."""
    tree = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)), max_leaves=12)
    shared = draw(st.one_of(st.lists(tree, min_size=1, max_size=3),
                            st.dictionaries(st.text(max_size=3), tree, min_size=1)))
    slots = draw(st.lists(st.one_of(st.just(shared), tree), min_size=2, max_size=6))
    return {"slots": slots + [shared], "again": shared, "nested": (shared, [shared])}


@given(trees_with_repeats())
def test_canonical_json_equals_recursive_reference(tree):
    assert canonical_json(tree) == reference_canonical(tree) + "\n"


@pytest.mark.parametrize("x", FIXED_FLOATS)
def test_canonical_json_fixed_floats_equal_reference(x):
    assert canonical_json(x) == reference_format_float(x) + "\n"


@pytest.mark.parametrize("x, text", [
    # 12-digit roundings in [1e12, 1e16) are written by repr in fixed notation
    (1360824644845.4272, "1360824644850.0"),   # was 1.36082464485e+12
    (6899011794830436.0, "6899011794830000.0"),  # was 6.89901179483e+15
    (999999999999.5, "1000000000000.0"),       # rounds to 1e12; was 1e+12
    # a subnormal's 12-digit rounding reads back as the subnormal itself
    (5e-324, "5e-324"),                        # was 4.94065645841e-324
])
def test_canonical_json_declared_float_rule(x, text):
    assert canonical_json(x) == text + "\n"
    assert json.loads(canonical_json(x)) == float(text)


@pytest.mark.parametrize("obj", [
    float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.bool_(True),
    object(), [1.0, {"a": float("inf")}], {1: 0, "1": 1}, {1: 0}, {("a",): 0}])
def test_canonical_json_rejects_non_report_values(obj):
    with pytest.raises(RejectedInputError):
        canonical_json(obj)


def test_canonical_json_is_valid_json():
    blob = {"floats": [0.1, 1e-9, 123456.789], "nested": {"z": [1, 2], "a": "x"}}
    text = canonical_json(blob)
    parsed = json.loads(text)
    assert parsed["nested"]["a"] == "x"


def test_certificate_json_roundtrip():
    domain = InputDomain(3)
    cert = Certificate.of(domain, {0: 1, 5: 0})
    data = certificate_to_json(cert)
    assert data == {"points": ["0x0", "0x5"], "bits": [1, 0]}
    assert certificate_from_json(domain, data).assignments == cert.assignments


def test_boolean_decomposition_roundtrip():
    S = point_function_class(3)
    dec = majority_certificates(S, S[0], seed=4)
    data = boolean_decomposition_to_json(dec, S, "majority")
    S2, dec2 = boolean_decomposition_from_json(json.loads(json.dumps(data)))
    assert S2 == S
    dec2.validate(S2)
    assert dec2.m == dec.m


def test_real_decomposition_roundtrip():
    from majcert.decompose import RealDecomposition, verify_real_decomposition
    S = random_pconcept_class(2, 6, substream(5, 0))
    dec = RealDecomposition(target=S[0], slots=Slots(((S[0], frozenset({0, 2})),), (0,)),
                            alpha=0.01, eps=0.5)
    data = real_decomposition_to_json(dec, S)
    S2, dec2 = real_decomposition_from_json(json.loads(json.dumps(data)))
    assert S2 == S
    assert verify_real_decomposition(S2, dec2) == verify_real_decomposition(S, dec)


def test_real_decomposition_indices_refer_to_the_stored_tables():
    from majcert.decompose import RealDecomposition
    S = random_pconcept_class(2, 3, substream(5, 0))
    dec = RealDecomposition(target=S[2], slots=Slots(((S[2], frozenset({1})),), (0,)),
                            alpha=0.01, eps=1.0)
    data = json.loads(json.dumps(real_decomposition_to_json(dec, S)))
    # a repeated table, as 12-digit rounding can make, is one class member
    # but keeps its own index
    data["class_tables"].insert(0, data["class_tables"][0])
    data["target"], data["funcs"] = 3, [3]
    S2, dec2 = real_decomposition_from_json(data)
    assert len(S2) == 3
    assert dec2.target.key() == S[2].key() and dec2.slots.distinct[0][0].key() == S[2].key()
    for bad in (-1, 4):
        data["funcs"] = [bad]
        with pytest.raises(RejectedInputError):
            real_decomposition_from_json(data)


def test_state_json_roundtrip():
    state = random_mixed_state(2, substream(6, 0))
    back = state_from_json(2, state_to_json(state))
    assert np.allclose(back.entries, state.entries, atol=0)


def msb_first_hex(f: BooleanFunction) -> str:
    """The README's truth-table text: f(0) f(1) ... f(2^n - 1) as one
    binary numeral, most significant first, in ceil(2^n / 4) hex digits."""
    size = f.domain.size
    raw = f.bits.to_bytes((size + 7) // 8, "little")
    # byte i holds inputs 8i .. 8i + 7, least significant bit first
    digits = "".join("1" if (byte >> j) & 1 else "0" for byte in raw for j in range(8))
    return format(int(digits[:size], 2), "0{}x".format(max(1, (size + 3) // 4)))


@pytest.mark.parametrize("n", range(1, 21))
def test_boolean_hex_matches_msb_first_reference(n):
    domain = InputDomain(n)
    if n <= 14:
        rng = np.random.default_rng(n)
        funcs = [BooleanFunction(domain, int.from_bytes(rng.bytes((domain.size + 7) // 8),
                                                        "little") % (1 << domain.size))
                 for _ in range(3)]
    else:
        funcs = [BooleanFunction.point(domain, y) for y in (0, domain.size // 3,
                                                            domain.size - 1)]
    for f in funcs:
        text = boolean_to_hex(f)
        assert text == msb_first_hex(f)
        assert boolean_from_hex(domain, text).bits == f.bits


def test_boolean_hex_rejects_text_wider_than_the_domain():
    with pytest.raises(RejectedInputError):
        boolean_from_hex(InputDomain(1), "f")
    with pytest.raises(RejectedInputError):
        boolean_from_hex(InputDomain(3), "1ff")
