"""Reference implementations and fixtures that only the tests read: each
one is the direct definition that an optimized routine of ``majcert`` is
compared against, or a convenient way to build a test's input."""

from fractions import Fraction

import numpy as np

from majcert.concepts import InputDomain, RealFunction, distance
from majcert.errors import RejectedInputError
from majcert.qsim import Circuit, DensityMatrix, measurement_operator, params_to_state


def dist_one(f: RealFunction, g: RealFunction, X=None) -> float:
    """sum_{x in X} |f(x) - g(x)|, over every input when X is None."""
    return distance("one", f, g, f.domain.inputs() if X is None else X)


def constant(domain: InputDomain, c: float) -> RealFunction:
    """The real function equal to c at every input."""
    return RealFunction(domain, np.full(domain.size, float(c)))


def maximally_mixed(qubits: int) -> DensityMatrix:
    """I / 2^qubits."""
    dim = 1 << qubits
    return DensityMatrix(qubits, np.eye(dim, dtype=np.complex128) / dim)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """a (x) b, a's qubits first."""
    return DensityMatrix(a.qubits + b.qubits, np.kron(a.entries, b.entries))


def eigen_ensemble(rho: DensityMatrix) -> list:
    """rho as (weight, pure state vector) pairs, dropping numerically-zero
    weights."""
    vals, vecs = np.linalg.eigh(rho.entries)
    return [(float(lam), vecs[:, i].copy()) for i, lam in enumerate(vals) if lam > 1e-12]


def random_mixed_state(qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Reduce a pseudo-uniform purification on twice the qubits: each of its
    amplitudes is r*exp(i*phi) with phi uniform and r a Box-Muller radius,
    and ``params_to_state`` normalizes it (not exact Haar; adequate
    empirically)."""
    dim = 1 << (2 * qubits)
    radii = np.sqrt(-np.log(rng.uniform(1e-12, 1.0, size=dim)))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    vec = radii * np.exp(1j * phases)
    return params_to_state(np.concatenate([vec.real, vec.imag]), qubits)


def accept_probability(circuit: Circuit, x: int, rho: DensityMatrix) -> float:
    """Pr[measuring the accept qubit of U_x (rho (x) |0..0>) U_x^dagger
    gives 1], exactly, by evolving the whole register.

    The advice occupies the first rho.qubits wires; remaining wires start
    in |0>.  Total width is capped at 6 qubits.
    """
    if rho.qubits > circuit.qubits:
        raise RejectedInputError("advice wider than the circuit register")
    work = circuit.qubits - rho.qubits
    full = rho.entries
    if work:
        anc = np.zeros((1 << work, 1 << work), dtype=np.complex128)
        anc[0, 0] = 1.0
        full = np.kron(full, anc)
    U = circuit.unitary(x)
    evolved = U @ full @ U.conj().T
    p = float(np.real(np.trace(circuit.accept_projector() @ evolved)))
    if not (-1e-9 <= p <= 1.0 + 1e-9):
        raise RejectedInputError(f"acceptance probability {p} outside [0,1]")
    return min(max(p, 0.0), 1.0)


def joint_amplify(circuit: Circuit, x: int, r: Fraction, q: Fraction, K: int,
                  sigma: DensityMatrix) -> float:
    """``protocol.qma_plus_amplify`` on one joint state of K equal registers
    (width capped at 6 qubits), which may be entangled: the count
    distribution sums tr(sigma E) over all 2^K outcome patterns, E the
    tensor product of each register's accept or reject operator."""
    r = Fraction(r)
    q = Fraction(q)
    p = sigma.qubits // K
    if p < 1 or p * K != sigma.qubits:
        raise RejectedInputError("joint state does not split into K registers")
    M = measurement_operator(circuit, x, p)
    E1 = M
    E0 = np.eye(1 << p, dtype=np.complex128) - M
    dist = np.zeros(K + 1)
    for pattern in range(1 << K):
        op = np.array([[1.0 + 0j]])
        ones = 0
        for k in range(K):
            bit = (pattern >> (K - 1 - k)) & 1
            ones += bit
            op = np.kron(op, E1 if bit else E0)
        dist[ones] += float(np.real(np.trace(sigma.entries @ op)))
    accept = 0.0
    for j in range(K + 1):
        if abs(Fraction(j, K) - r) <= 2 / q:
            accept += float(dist[j])
    return min(max(accept, 0.0), 1.0)


def typed_tree(tree):
    """A JSON-native tree as nested (type, payload) pairs: a dict's payload
    its (key, typed value) items in order, a list's its typed entries and a
    leaf's its value, so that == also compares key order and leaf types."""
    if isinstance(tree, dict):
        return dict, [(key, typed_tree(value)) for key, value in tree.items()]
    if isinstance(tree, list):
        return list, [typed_tree(value) for value in tree]
    return type(tree), tree
