"""Class generators: point functions, random Boolean and p-concept
classes, the L2 family and quantum-induced classes."""

import pytest

from majcert.concepts import InputDomain
from majcert.generators import (point_function_class, random_boolean_class,
                                random_pconcept_class)
from majcert.protocol import induced_pconcept
from majcert.qsim import Circuit, Gate, random_mixed_state
from majcert.rng import substream
from majcert.winnow import l2_counterexample


def test_point_functions_n3_has_nine_members():
    cls = point_function_class(3)
    assert len(cls) == 9
    assert cls[0].bits == 0


def test_point_function_subset_count():
    cls = point_function_class(4, 5)
    assert len(cls) == 6
    seeded = point_function_class(4, 5, substream(0, 30))
    assert len(seeded) == 6 and seeded[0].bits == 0


def test_random_boolean_distinct_tables():
    cls = random_boolean_class(3, 8, substream(1, 30))
    assert len(cls) == 8
    assert len({f.bits for f in cls}) == 8


def test_random_pconcept_shapes():
    cls = random_pconcept_class(2, 6, substream(2, 30))
    assert len(cls) == 6
    assert all(0.0 <= v <= 1.0 for f in cls for v in f.table)


def test_l2_family_enumerated_count_matches_oracle():
    cls = l2_counterexample(2).enumerate_class()
    assert len(cls) == 19
    sampled = l2_counterexample(4).sample_class(7, substream(0, 30))
    assert len(sampled) <= 7
    for f in sampled:
        assert abs(sum(f.table) - 4.0) < 1e-9  # numerators sum to n^2


def test_quantum_induced_kind():
    circuit = Circuit(qubits=1, gates=(Gate("H", 0, when_bit=0),), accept_qubit=0)
    rng = substream(3, 30)
    cls = induced_pconcept(circuit, InputDomain(1),
                           [random_mixed_state(1, rng) for _ in range(12)])
    assert 1 <= len(cls) <= 12
    assert cls.domain.n == 1


def test_generation_is_deterministic():
    a = random_boolean_class(3, 6, substream(9, 30))
    b = random_boolean_class(3, 6, substream(9, 30))
    assert [f.bits for f in a] == [f.bits for f in b]
    c = random_boolean_class(3, 6, substream(10, 30))
    assert [f.bits for f in a] != [f.bits for f in c]


@pytest.mark.parametrize("n", [3, 10, 14])
@pytest.mark.parametrize("salt", [0, 1, 2])
def test_random_boolean_class_matches_per_bit_packing(n, salt):
    # reference: the same draws, each table packed one bit at a time
    rng = substream(salt, 31)
    seen, expected = set(), []
    while len(expected) < 5:
        bits = 0
        for x, v in enumerate(rng.integers(0, 2, size=1 << n)):
            bits |= int(v) << x
        if bits not in seen:
            seen.add(bits)
            expected.append(bits)
    assert [f.bits for f in random_boolean_class(n, 5, substream(salt, 31))] == expected
