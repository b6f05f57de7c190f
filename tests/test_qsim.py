"""Exact density-matrix simulation: gates, probabilities, partial traces."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from majcert.errors import RejectedInputError
from majcert.qsim import (Circuit, DensityMatrix, Gate, measurement_operator,
                          params_to_state, partial_trace, reduced_state)
from majcert.rng import substream
from references import (accept_probability, eigen_ensemble, maximally_mixed,
                        random_mixed_state, tensor)


def random_circuit(qubits, n_gates, rng, with_conditions=False):
    gates = []
    names = ["H", "T", "X", "Z", "CNOT"] if qubits > 1 else ["H", "T", "X", "Z"]
    for _ in range(n_gates):
        name = names[int(rng.integers(len(names)))]
        target = int(rng.integers(qubits))
        control = None
        if name == "CNOT":
            control = int(rng.integers(qubits))
            while control == target:
                control = int(rng.integers(qubits))
        when = int(rng.integers(2)) if with_conditions and rng.integers(2) else None
        gates.append(Gate(name, target, control=control, when_bit=when))
    return Circuit(qubits=qubits, gates=tuple(gates),
                   accept_qubit=int(rng.integers(qubits)))


def test_identity_circuit_reads_accept_qubit():
    circuit = Circuit(qubits=1, gates=(), accept_qubit=0)
    one = DensityMatrix.computational(1, 1)
    assert accept_probability(circuit, 0, one) == pytest.approx(1.0, abs=1e-12)
    zero = DensityMatrix.computational(1, 0)
    assert accept_probability(circuit, 0, zero) == pytest.approx(0.0, abs=1e-12)


def test_hadamard_gives_half():
    circuit = Circuit(qubits=1, gates=(Gate("H", 0),), accept_qubit=0)
    zero = DensityMatrix.computational(1, 0)
    assert accept_probability(circuit, 0, zero) == pytest.approx(0.5, abs=1e-12)


def test_cnot_truth_table():
    # control wire 0 (most significant), target wire 1
    circuit = Circuit(qubits=2, gates=(Gate("CNOT", 1, control=0),), accept_qubit=1)
    for control_val in (0, 1):
        rho = DensityMatrix.computational(2, control_val << 1)
        assert accept_probability(circuit, 0, rho) == pytest.approx(control_val, abs=1e-12)


def test_input_conditioned_gate():
    circuit = Circuit(qubits=1, gates=(Gate("X", 0, when_bit=1),), accept_qubit=0)
    zero = DensityMatrix.computational(1, 0)
    assert accept_probability(circuit, 0, zero) == pytest.approx(0.0, abs=1e-12)
    assert accept_probability(circuit, 2, zero) == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 300))
def test_accept_probability_matches_ensemble_oracle(salt):
    """Independent oracle: eigendecompose rho, evolve each pure state as a
    statevector, recombine the weighted outcome probabilities."""
    rng = substream(salt, 0)
    circuit = random_circuit(2, int(rng.integers(1, 7)), rng, with_conditions=True)
    rho = random_mixed_state(2, rng)
    x = int(rng.integers(4))
    expected = 0.0
    U = circuit.unitary(x)
    P1 = circuit.accept_projector()
    for lam, vec in eigen_ensemble(rho):
        out = U @ vec
        expected += lam * float(np.real(out.conj() @ (P1 @ out)))
    assert accept_probability(circuit, x, rho) == pytest.approx(expected, abs=1e-9)


@given(st.integers(0, 300))
def test_evolution_preserves_trace_and_positivity(salt):
    rng = substream(salt, 1)
    circuit = random_circuit(2, 5, rng)
    rho = random_mixed_state(2, rng).entries.copy()
    for gate in circuit.gates:
        U = gate.unitary(2)
        rho = U @ rho @ U.conj().T
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert float(np.linalg.eigvalsh(rho).min()) > -1e-9


@given(st.integers(0, 200))
def test_accept_probability_is_affine_in_state(salt):
    rng = substream(salt, 2)
    circuit = random_circuit(2, 4, rng)
    a = random_mixed_state(2, rng)
    b = random_mixed_state(2, rng)
    lam = float(rng.uniform())
    mix = DensityMatrix(2, lam * a.entries + (1 - lam) * b.entries)
    direct = accept_probability(circuit, 1, mix)
    combined = (lam * accept_probability(circuit, 1, a)
                + (1 - lam) * accept_probability(circuit, 1, b))
    assert direct == pytest.approx(combined, abs=1e-9)


@given(st.integers(0, 200))
def test_measurement_operator_equivalence(salt):
    rng = substream(salt, 3)
    circuit = random_circuit(2, 5, rng, with_conditions=True)
    rho = random_mixed_state(1, rng)
    x = int(rng.integers(4))
    M = measurement_operator(circuit, x, 1)
    via_operator = float(np.real(np.trace(rho.entries @ M)))
    assert accept_probability(circuit, x, rho) == pytest.approx(via_operator, abs=1e-10)
    # spectrum within [0,1]
    eigs = np.linalg.eigvalsh(M)
    assert eigs.min() > -1e-9 and eigs.max() < 1.0 + 1e-9


def test_partial_trace_of_product_state():
    rng = substream(5, 0)
    a = random_mixed_state(1, rng)
    b = random_mixed_state(1, rng)
    joint = tensor(a, b)
    ra = reduced_state(joint, [0])
    rb = reduced_state(joint, [1])
    assert np.allclose(ra.entries, a.entries, atol=1e-12)
    assert np.allclose(rb.entries, b.entries, atol=1e-12)


def test_partial_trace_entangled_bell():
    bell = DensityMatrix.from_pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
    for keep in ([0], [1]):
        red = reduced_state(bell, keep)
        assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)


def purification(rho):
    """A pure state on twice the qubits whose first-register reduction is
    rho, from its eigen-ensemble."""
    dim = 1 << rho.qubits
    vec = np.zeros(dim * dim, dtype=np.complex128)
    for k, (lam, v) in enumerate(eigen_ensemble(rho)):
        vec += np.sqrt(lam) * np.kron(v, np.eye(dim)[k])
    return vec / np.linalg.norm(vec)


def test_purification_roundtrip():
    rng = substream(6, 0)
    rho = random_mixed_state(2, rng)
    vec = purification(rho)
    full = np.outer(vec, vec.conj())
    back = partial_trace(full, 4, [0, 1])
    assert np.allclose(back, rho.entries, atol=1e-9)


def test_params_to_state_roundtrip():
    rng = substream(7, 0)
    rho = random_mixed_state(1, rng)
    vec = purification(rho)
    back = params_to_state(np.concatenate([vec.real, vec.imag]), 1)
    assert np.allclose(back.entries, rho.entries, atol=1e-9)


@given(st.integers(0, 100))
def test_params_to_state_always_valid(salt):
    rng = substream(salt, 4)
    params = rng.normal(size=8)
    state = params_to_state(params, 1)
    assert state.qubits == 1  # construction validates PSD/trace/hermiticity


def test_density_matrix_validation():
    with pytest.raises(RejectedInputError):
        DensityMatrix(1, np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(RejectedInputError):
        DensityMatrix(1, np.array([[0.9, 0.0], [0.0, 0.3]]))  # trace 1.2
    with pytest.raises(RejectedInputError):
        DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eig
    with pytest.raises(RejectedInputError):
        DensityMatrix(7, np.eye(128) / 128)  # too many qubits


def test_gate_validation():
    with pytest.raises(RejectedInputError):
        Gate("SWAP", 0)
    with pytest.raises(RejectedInputError):
        Gate("CNOT", 0)
    with pytest.raises(RejectedInputError):
        Gate("CNOT", 0, control=0)
    with pytest.raises(RejectedInputError):
        Gate("H", 0, control=1)
    with pytest.raises(RejectedInputError):
        Circuit(qubits=1, gates=(Gate("H", 1),), accept_qubit=0)


def test_advice_wider_than_circuit_rejected():
    circuit = Circuit(qubits=1, gates=(), accept_qubit=0)
    rho = maximally_mixed(2)
    with pytest.raises(RejectedInputError):
        accept_probability(circuit, 0, rho)


@pytest.mark.parametrize("qubits", [1, 2])
def test_random_mixed_state_reduces_a_normalized_purification(qubits):
    """Bit for bit the reduction of the drawn purification, normalized
    before its outer product, on 300 draws."""
    mine, reference = substream(8, qubits), substream(8, qubits)
    dim = 1 << (2 * qubits)
    for _ in range(300):
        radii = np.sqrt(-np.log(reference.uniform(1e-12, 1.0, size=dim)))
        vec = radii * np.exp(1j * reference.uniform(0.0, 2.0 * np.pi, size=dim))
        vec = vec / np.linalg.norm(vec)
        want = partial_trace(np.outer(vec, vec.conj()), 2 * qubits, range(qubits))
        assert np.array_equal(random_mixed_state(qubits, mine).entries, want)
