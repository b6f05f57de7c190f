"""File formats, canonical JSON, artifact round-trips."""

import json

import numpy as np
import pytest

from majcert.concepts import BooleanFunction, Certificate, InputDomain, Slots
from majcert.decompose import majority_certificates
from majcert.errors import RejectedInputError
from majcert.formats import (boolean_decomposition_from_json,
                             boolean_decomposition_to_json, boolean_from_hex,
                             boolean_to_hex, canonical_json,
                             certificate_from_json, certificate_to_json,
                             circuit_from_text, circuit_to_text, format_float,
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
    assert format_float(1.0) == "1.0"
    assert format_float(0.123456789012345) == "0.123456789012"
    assert canonical_json([True, False, None]) == "[true,false,null]\n"
    from fractions import Fraction
    assert canonical_json(Fraction(3, 16)) == '"3/16"\n'
    with pytest.raises(RejectedInputError):
        canonical_json(float("nan"))


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
