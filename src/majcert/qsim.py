"""Exact density-matrix simulation of small input-conditioned circuits.

States are explicit 2^q x 2^q complex matrices with q <= 6, so every
acceptance probability is computed exactly (to float precision) rather
than sampled; the non-destructive-measurement machinery a physical
verifier would need is simulated away at this scale.

Conventions: qubit 0 is the most significant bit of a basis index, and
classical input bit i of x means (x >> i) & 1.  A circuit may condition
any gate on an input bit, which is how the single verification circuit
Q(x, state) depends on x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import RejectedInputError

MAX_QUBITS = 6

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
_T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)

SINGLE_QUBIT_GATES = {"H": _H, "T": _T, "X": _X, "Z": _Z}


def _embed(ops: dict, qubits: int) -> np.ndarray:
    """Kronecker product with the given per-qubit 2x2 blocks, identity
    elsewhere; qubit 0 is the leftmost factor."""
    out = np.array([[1.0 + 0j]])
    eye = np.eye(2, dtype=np.complex128)
    for q in range(qubits):
        out = np.kron(out, ops.get(q, eye))
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A mixed state: Hermitian, trace-one, positive semidefinite within
    1e-9, on at most 6 qubits."""

    qubits: int
    entries: np.ndarray

    def __post_init__(self):
        if not (1 <= self.qubits <= MAX_QUBITS):
            raise RejectedInputError(f"qubit count {self.qubits} outside [1, {MAX_QUBITS}]")
        dim = 1 << self.qubits
        arr = np.asarray(self.entries, dtype=np.complex128).copy()
        if arr.shape != (dim, dim):
            raise RejectedInputError(f"expected a {dim}x{dim} matrix")
        if np.max(np.abs(arr - arr.conj().T)) > 1e-9:
            raise RejectedInputError("state is not Hermitian within 1e-9")
        if abs(arr.trace().real - 1.0) > 1e-9 or abs(arr.trace().imag) > 1e-9:
            raise RejectedInputError("state trace differs from 1 beyond 1e-9")
        if float(np.linalg.eigvalsh(arr).min()) < -1e-9:
            raise RejectedInputError("state has an eigenvalue below -1e-9")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_pure(cls, vector: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vector, dtype=np.complex128)
        norm = float(np.linalg.norm(v))
        if norm <= 0:
            raise RejectedInputError("zero state vector")
        v = v / norm
        q = int(np.log2(len(v)))
        if (1 << q) != len(v):
            raise RejectedInputError("state vector length is not a power of 2")
        return cls(q, np.outer(v, v.conj()))

    @classmethod
    def computational(cls, qubits: int, index: int) -> "DensityMatrix":
        dim = 1 << qubits
        v = np.zeros(dim, dtype=np.complex128)
        v[index] = 1.0
        return cls.from_pure(v)

    def key(self) -> bytes:
        return self.entries.tobytes()


def partial_trace(matrix: np.ndarray, qubits: int, keep: Sequence[int]) -> np.ndarray:
    """Trace out every qubit not in ``keep`` (kept qubits stay in order)."""
    keep = sorted(set(keep))
    if any(q < 0 or q >= qubits for q in keep):
        raise RejectedInputError("keep indices outside register")
    # row axis q is label q; column axis q shares it, and so is traced, unless q is kept
    cols = [qubits + q if q in keep else q for q in range(qubits)]
    arr = np.asarray(matrix).reshape((2,) * (2 * qubits))
    out = np.einsum(arr, [*range(qubits), *cols], keep + [qubits + q for q in keep])
    return out.reshape(1 << len(keep), 1 << len(keep))


@dataclass(frozen=True)
class Gate:
    """One circuit element.

    name: H, T, X, Z (single qubit) or CNOT (control required).
    target: acted-on qubit; control: control qubit for CNOT.
    when_bit: optional classical input bit index; the gate is applied
    only on inputs whose bit is 1.
    """

    name: str
    target: int
    control: Optional[int] = None
    when_bit: Optional[int] = None

    def __post_init__(self):
        if self.name not in SINGLE_QUBIT_GATES and self.name != "CNOT":
            raise RejectedInputError(f"unknown gate {self.name!r}")
        if self.name == "CNOT":
            if self.control is None:
                raise RejectedInputError("CNOT requires a control qubit")
            if self.control == self.target:
                raise RejectedInputError("CNOT control equals target")
        elif self.control is not None:
            raise RejectedInputError(f"{self.name} takes no control qubit")

    def applies(self, x: int) -> bool:
        return self.when_bit is None or ((x >> self.when_bit) & 1) == 1

    def unitary(self, qubits: int) -> np.ndarray:
        if self.target < 0 or self.target >= qubits:
            raise RejectedInputError("gate target outside register")
        if self.name == "CNOT":
            if self.control is None or self.control >= qubits:
                raise RejectedInputError("gate control outside register")
            return (_embed({self.control: _P0}, qubits)
                    + _embed({self.control: _P1, self.target: _X}, qubits))
        return _embed({self.target: SINGLE_QUBIT_GATES[self.name]}, qubits)


@dataclass(frozen=True)
class Circuit:
    """An input-conditioned circuit over a fixed gate set with one
    designated accept qubit, measured in the computational basis."""

    qubits: int
    gates: tuple
    accept_qubit: int

    def __post_init__(self):
        if not (1 <= self.qubits <= MAX_QUBITS):
            raise RejectedInputError(f"circuit width {self.qubits} outside [1, {MAX_QUBITS}]")
        if not (0 <= self.accept_qubit < self.qubits):
            raise RejectedInputError("accept qubit outside register")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            g.unitary(self.qubits)  # validates arities eagerly

    def unitary(self, x: int) -> np.ndarray:
        U = np.eye(1 << self.qubits, dtype=np.complex128)
        for g in self.gates:
            if g.applies(x):
                U = g.unitary(self.qubits) @ U
        return U

    def accept_projector(self) -> np.ndarray:
        return _embed({self.accept_qubit: _P1}, self.qubits)


def measurement_operator(circuit: Circuit, x: int, advice_qubits: int) -> np.ndarray:
    """The Heisenberg-picture acceptance operator on the advice register:
    for every rho, Tr(rho @ M) is the probability that measuring the
    accept qubit of U_x (rho (x) |0..0>) U_x^dagger gives 1.

    M = (I (x) <0|) U_x^dagger P_accept U_x (I (x) |0>), a Hermitian PSD
    matrix with spectrum in [0,1].
    """
    if advice_qubits > circuit.qubits:
        raise RejectedInputError("advice wider than the circuit register")
    U = circuit.unitary(x)
    E = U.conj().T @ circuit.accept_projector() @ U
    work = circuit.qubits - advice_qubits
    if work == 0:
        return E
    dim_a = 1 << advice_qubits
    dim_w = 1 << work
    blocks = E.reshape(dim_a, dim_w, dim_a, dim_w)
    return np.ascontiguousarray(blocks[:, 0, :, 0])


def params_to_state(params: np.ndarray, qubits: int) -> DensityMatrix:
    """Map 2*4^qubits unconstrained reals (real parts, then imaginary
    parts) to a mixed state via a normalized purification; a vector of
    norm below 1e-12 maps to |0>."""
    dim = 1 << (2 * qubits)
    arr = np.asarray(params, dtype=np.float64)
    if arr.shape != (2 * dim,):
        raise RejectedInputError(f"expected {2 * dim} purification parameters")
    vec = arr[:dim] + 1j * arr[dim:]
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        vec = np.zeros(dim, dtype=np.complex128)
        vec[0] = 1.0
    else:
        vec = vec / norm
    full = np.outer(vec, vec.conj())
    return DensityMatrix(qubits, partial_trace(full, 2 * qubits, range(qubits)))
