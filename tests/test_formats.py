"""File formats, canonical JSON, artifact round-trips."""

import gc
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from majcert.concepts import BooleanFunction, Certificate, InputDomain, Slots, quantize
from majcert.decompose import majority_certificates
from majcert.errors import RejectedInputError
from majcert.formats import (boolean_class_from_hex, boolean_decomposition_from_json,
                             boolean_decomposition_to_json, boolean_from_hex,
                             boolean_to_hex, canonical_json, canonical_tree,
                             certificate_from_json, certificate_to_json,
                             circuit_from_text, circuit_to_text,
                             real_decomposition_from_json,
                             real_decomposition_to_json, state_from_json,
                             state_to_json)
from majcert.generators import point_function_class, random_pconcept_class
from majcert.qsim import Circuit, Gate
from majcert.rng import substream
from references import random_mixed_state, typed_tree


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
    st.floats(-1e6, 1e6, allow_nan=False).filter(outside_declared_ranges))
#: values on the report grid: multiples of 1e-12 in [0, 1], and -0.0
grid_floats = st.one_of(st.sampled_from([0.0, 1.0, -0.0]),
                        st.integers(0, 10 ** 12).map(lambda k: k / 1e12))
#: values that take an array off the grid: negative, above 1, or between
#: grid points
stray_floats = st.one_of(
    st.sampled_from([-1e-12, -0.5, 1.000000000001, 2.0, 0.1234567890123]),
    report_floats.filter(lambda x: not (0.0 <= x <= 1.0 and quantize(x) == x)))


@st.composite
def grid_arrays(draw, stray=False):
    """A float64 array of grid values, with one stray entry if ``stray``."""
    grid = draw(arrays(np.float64, array_shapes(max_dims=2, min_side=1, max_side=5),
                       elements=grid_floats))
    if stray:
        grid.flat[draw(st.integers(0, grid.size - 1))] = draw(stray_floats)
    return grid


leaves = st.one_of(
    grid_arrays(), grid_arrays(stray=True),
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


@given(st.one_of(trees_with_repeats(), leaves))
def test_canonical_tree_is_what_canonical_json_parses_back_to(tree):
    assert typed_tree(canonical_tree(tree)) == typed_tree(json.loads(canonical_json(tree)))


def test_canonical_json_leaves_no_converted_tree_to_the_collector():
    """The converted containers are freed on return, not kept by the
    recursive converter's closure until a full collection."""
    tree = {"rows": [[i, [float(i)]] for i in range(1000)]}
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        canonical_json(tree)
        assert gc.collect() < 50
    finally:
        if enabled:
            gc.enable()


@given(st.one_of(grid_arrays(), grid_arrays(stray=True)))
def test_canonical_json_grid_arrays_equal_reference(array):
    assert canonical_json(array) == reference_canonical(array) + "\n"
    assert canonical_json({"a": array, "b": [array]}) == reference_canonical(
        {"a": array, "b": [array]}) + "\n"


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
    (2.2250738585e-313, "2.2250738585e-313"),  # was 2.22507385852e-313
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
    dec = majority_certificates(S, S[0])
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
    assert data["certs"] == [{"points": ["0x0", "0x2"]}]  # values are read from the table
    S2, dec2 = real_decomposition_from_json(json.loads(canonical_json(data)))
    assert S2 == S
    assert verify_real_decomposition(S2, dec2) == verify_real_decomposition(S, dec)


def test_real_decomposition_indices_refer_to_the_stored_tables():
    from majcert.decompose import RealDecomposition
    S = random_pconcept_class(2, 3, substream(5, 0))
    dec = RealDecomposition(target=S[2], slots=Slots(((S[2], frozenset({1})),), (0,)),
                            alpha=0.01, eps=1.0)
    data = json.loads(canonical_json(real_decomposition_to_json(dec, S)))
    S2, dec2 = real_decomposition_from_json(data)
    assert S2 == S and dec2.target is S2[2] and dec2.slots.distinct[0][0] is S2[2]
    for bad in (-1, 3):
        data["funcs"] = [bad]
        with pytest.raises(RejectedInputError):
            real_decomposition_from_json(data)
    # a stored class that repeats a table, or whose n differs from its
    # tables', is rejected, so every index names one member
    for spoil in ({"class_tables": [data["class_tables"][0]] + data["class_tables"]},
                  {"n": 3}):
        with pytest.raises(RejectedInputError):
            real_decomposition_from_json({**data, "funcs": [2], **spoil})


#: float64 rounding of quantize's product and quotient on values in [0, 1]
QUANTIZE_SLACK = 2 * np.finfo(np.float64).eps


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
def test_quantized_values_are_written_exactly(values):
    """A value in [0, 1] moves by at most half a grid step, once; the grid
    value comes back from the report text unchanged."""
    grid = quantize(values)
    assert np.all(np.abs(grid - values) <= 5e-13 + QUANTIZE_SLACK)
    assert np.array_equal(quantize(grid), grid)
    assert json.loads(canonical_json(grid)) == grid.tolist()


@given(st.lists(st.integers(0, 10 ** 12), min_size=1, max_size=16))
def test_grid_values_survive_canonical_json(numerators):
    grid = [k / 1e12 for k in numerators]
    assert quantize(grid).tolist() == grid
    assert json.loads(canonical_json(grid)) == grid


@pytest.mark.parametrize("x", [-0.0, -1e-14, -4e-13])
def test_quantize_writes_negative_zero_as_zero(x):
    assert math.copysign(1.0, float(quantize(x))) == 1.0
    assert canonical_json(quantize([x])) == "[0.0]\n"


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


@pytest.mark.parametrize("n", [1, 2])
def test_one_digit_tables_round_trip_and_read_only_their_digits(n):
    # every table at n = 1, 2 is one digit; every one-character text is
    # read only when it is a digit below 2^(2^n)
    domain = InputDomain(n)
    for bits in range(1 << domain.size):
        f = BooleanFunction(domain, bits)
        assert boolean_to_hex(f) == msb_first_hex(f)
        assert boolean_from_hex(domain, boolean_to_hex(f)) == f
    digits = "0123456789abcdef"[:1 << domain.size]
    for c in map(chr, [*range(0x300), 0x660, 0xff10, 0xff21]):
        if c in digits:
            assert boolean_to_hex(boolean_from_hex(domain, c)) == c
            continue
        with pytest.raises(RejectedInputError) as excinfo:
            boolean_from_hex(domain, c)
        wider = c in "0123456789abcdef"
        assert (str(excinfo.value) == "hex table wider than the domain") == wider


def test_boolean_hex_rejects_text_wider_than_the_domain():
    with pytest.raises(RejectedInputError):
        boolean_from_hex(InputDomain(1), "f")
    with pytest.raises(RejectedInputError):
        boolean_from_hex(InputDomain(3), "1ff")


def test_boolean_hex_takes_exactly_its_width_in_lowercase_digits():
    # int(text, 16) alone would read each of these as a table at its n
    assert boolean_to_hex(boolean_from_hex(InputDomain(3), "0a")) == "0a"
    spellings = [(3, text) for text in ("a", "00a", "0A", " a", "+a", "0_a", "0xa", "\u0660a")]
    for n, text in spellings + [(4, "0a"), (4, "00000a"), (4, "0a 0")]:
        domain = InputDomain(n)
        with pytest.raises(RejectedInputError):
            boolean_from_hex(domain, text)
        with pytest.raises(RejectedInputError):
            boolean_class_from_hex(domain, [text, boolean_to_hex(BooleanFunction.zero(domain))])


#: ways to spoil one hex table text
SPOILS = {"drop a digit": lambda t: t[1:], "add a digit": lambda t: "0" + t,
          "drop two digits": lambda t: t[2:], "add two digits": lambda t: "00" + t,
          "upper case": lambda t: "A" + t[1:], "inner space": lambda t: " " + t[1:],
          "prefix": lambda t: "0x" + t[2:], "non-hex": lambda t: "g" + t[1:]}


@given(st.integers(1, 14), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([None, *SPOILS]))
def test_bulk_hex_class_equals_text_by_text_decoding(n, count, seed, spoil):
    domain = InputDomain(n)
    rng = np.random.default_rng(seed)
    texts = [boolean_to_hex(BooleanFunction(domain, int.from_bytes(
        rng.bytes((domain.size + 7) // 8), "little") % (1 << domain.size))) for _ in range(count)]
    if spoil is not None:
        texts[-1] = SPOILS[spoil](texts[-1])
    try:
        expected = [boolean_from_hex(domain, t).bits for t in texts]
    except RejectedInputError:
        with pytest.raises(RejectedInputError):
            boolean_class_from_hex(domain, texts)
        return
    assert [f.bits for f in boolean_class_from_hex(domain, texts)] == list(dict.fromkeys(expected))
