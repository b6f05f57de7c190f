"""Reference implementations and fixtures that only the tests read: each
one is the direct definition that an optimized routine of ``majcert`` is
compared against, or a convenient way to build a test's input."""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from majcert.concepts import InputDomain, RealFunction, Slots, distance
from majcert.errors import EnumerationBudgetExceeded, RejectedInputError
from majcert.protocol import AdviceProtocol, bloch_affine_map, induced_with_states
from majcert.qsim import (Circuit, DensityMatrix, measurement_operator, params_to_state,
                          partial_trace)
from majcert.winnow import DIMENSION_BUDGET, fat_shattering_dim


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


def reduced_state(rho: DensityMatrix, keep) -> DensityMatrix:
    """The state of the qubits ``keep`` of rho, by partial trace."""
    return DensityMatrix(len(list(keep)), partial_trace(rho.entries, rho.qubits, keep))


def as_slots(P: AdviceProtocol, sigma) -> Slots:
    """Registers for the protocol machines, which take ``Slots``: a
    per-position list is grouped by state, and one joint state is first
    split by partial trace into its m registers, which is exactly what the
    machines may depend on."""
    if isinstance(sigma, DensityMatrix):
        p = P.advice_qubits
        if sigma.qubits != P.m * p:
            raise RejectedInputError(f"joint state has {sigma.qubits} qubits, not {P.m * p}")
        sigma = [reduced_state(sigma, range(i * p, (i + 1) * p)) for i in range(P.m)]
    return Slots.group(sigma, key=DensityMatrix.key)


def corner_fat_dims(gammas, circuit: Circuit, domain: InputDomain) -> list:
    """``protocol.fat_dim_quantum_check`` through a finite class: the pure
    corner states along pinv(m_T) s, for every sign pattern s of every T
    of at most 3 inputs, keep the fat-shattering dimension of all one-qubit
    advice, which ``fat_shattering_dim`` reads from their induced class at
    gamma +- 1e-9.  Raises EnumerationBudgetExceeded over DIMENSION_BUDGET
    corners, and RejectedInputError when the two readings differ (a tie)."""
    count = sum(math.comb(domain.size, k) << k for k in (1, 2, 3))
    if count > DIMENSION_BUDGET:
        raise EnumerationBudgetExceeded(DIMENSION_BUDGET, count, "one-qubit advice corners")
    m = bloch_affine_map(circuit, domain)[1]
    B = np.concatenate([np.linalg.pinv(m[list(T)], 1e-12)  # relative cutoff: rounding noise
                        @ np.array(list(product((1, -1), repeat=len(T)))).T
                        for k in (1, 2, 3) for T in combinations(range(domain.size), k)], axis=1)
    B = B[:, np.linalg.norm(B, axis=0) > 1e-9]  # s outside m_T's range: no corner
    half, phase = np.arctan2(np.hypot(B[0], B[1]), B[2]) / 2.0, np.arctan2(B[1], B[0])
    pure = np.zeros((len(half), 8))  # psi (x) |0>, real parts then imaginary parts
    pure[:, 0], pure[:, [2, 6]] = np.cos(half), (np.sin(half) * [np.cos(phase), np.sin(phase)]).T
    cls, _ = induced_with_states(circuit, domain, [params_to_state(v, 1) for v in pure]
                                 or [params_to_state(np.zeros(8), 1)])  # |0>: advice ignored
    dims = [[fat_shattering_dim(cls, gamma + d) for d in (-1e-9, 1e-9)] for gamma in gammas]
    if any(below != above for below, above in dims):
        raise RejectedInputError("a shattered set's margin is one of the gammas")
    return [{"measured": d, "bound": 1.0 / (g * g)} for (_, d), g in zip(dims, gammas)]
