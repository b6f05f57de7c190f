"""Compiling advice states into classically-checkable verification
protocols, and the machines that consume them.

The compiled object pairs trusted classical data (per-slot constraint
sets X_i, dyadic target probabilities r_{i,z}, and a tolerance alpha)
with untrusted quantum advice (m registers, honestly a tensor product of
per-slot states).  The m slots are stored once per distinct slot with
one ref per position, shared with the decomposition, so per-slot work
runs once per distinct slot.  The m supplied registers are passed as
``Slots`` too, and the machines group positions by their (slot ref,
register ref) pair.  Machine A checks
the registers against the classical constraints; machine B answers
inputs by running the verification circuit on a uniformly random
register; both depend on the supplied registers only through their
reduced states.  Tr(rho M_x) is read by ``acceptance_table``; both
machines are defined once, in ``_register_machines``, which the public
machines, ``AdviceProtocol.validate`` and the adversary search all call.

Soundness scope: the decomposition guarantee is proven (exactly) over
the finite compiled class of advice states.  For one advice qubit,
``adversary_search`` computes the worst machine-B error over every
advice state that machine A accepts, entangled advice included, by
enumerating the faces of the Bloch ball cut by machine A's slabs.
``compile_advice`` grows the compiled class from the honest state with
that adversary's worst registers until the worst error is at most 0.3,
so every compiled protocol is sound against all one-qubit advice, and
``fat_dim_quantum_check`` reads that advice's exact fat-shattering
dimensions off one closed-form margin per input set of at most 3 inputs,
checked on the pure states of each widest set.  Wider advice is not covered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .concepts import BooleanFunction, InputDomain, PConceptClass, Slots, quantize, real_members
from .decompose import (RealDecomposition, extremal_deviation,
                        real_majority_certificates)
from .errors import EnumerationBudgetExceeded, RejectedInputError, VerificationDefect
from .qsim import Circuit, DensityMatrix, measurement_operator, params_to_state
from .winnow import DIMENSION_BUDGET


#: complex entries of one state-by-operator product in ``acceptance_table``
_PRODUCT_ENTRIES = 1 << 20


def acceptance_table(circuit: Circuit, domain: InputDomain,
                     states: Sequence[DensityMatrix]) -> np.ndarray:
    """Tr(rho M_x) for every state (rows) and input x (columns), unclipped.
    The operators M_x are built once per register width, and the states
    of a width are multiplied by them as one stack, in slices of at most
    _PRODUCT_ENTRIES product entries."""
    table = np.empty((len(states), domain.size))
    for qubits in sorted({s.qubits for s in states}):
        rows = [i for i, s in enumerate(states) if s.qubits == qubits]
        ops = np.stack([measurement_operator(circuit, x, qubits) for x in domain.inputs()])
        step = max(1, _PRODUCT_ENTRIES // ops.size)
        for i in range(0, len(rows), step):
            part = rows[i:i + step]
            rhos = np.stack([states[j].entries for j in part])[:, None]
            table[part] = np.real(np.trace(rhos @ ops, axis1=-2, axis2=-1))
    return table


def induced_with_states(circuit: Circuit, domain: InputDomain,
                        states: Sequence[DensityMatrix]) -> tuple:
    """(p-concept class, aligned states): f_rho(x) = Tr(rho M_x), clipped
    to [0, 1] and quantized, per state, with exact-duplicate functions
    dropped (first state kept)."""
    first: dict = {}
    members = real_members(domain, quantize(np.clip(acceptance_table(circuit, domain, states),
                                                    0.0, 1.0)))
    for s, f in zip(states, members):
        first.setdefault(f.key(), (f, s))
    return (PConceptClass(domain, [f for f, _ in first.values()]),
            tuple(s for _, s in first.values()))


@dataclass(frozen=True)
class AdviceProtocol:
    """A compiled (classical advice, honest quantum advice) pair.

    ``slots`` holds the m slots as distinct slots with per-position refs
    (a compiled protocol shares the decomposition's refs): each distinct
    slot is an honest state and its targets, a tuple of (z, r) pairs with
    dyadic rationals r approximating the honest acceptance probabilities
    on the slot's constraint set, which is exactly the inputs z.
    Machine A accepts at deviation <= 5*alpha.
    """

    circuit: Circuit
    domain: InputDomain
    advice_qubits: int
    slots: Slots  # distinct (DensityMatrix, targets) pairs
    alpha: float
    language: BooleanFunction
    decomposition: RealDecomposition
    compiled_class: PConceptClass

    @property
    def m(self) -> int:
        return len(self.slots)

    def honest_registers(self) -> Slots:
        """The honest advice: each distinct slot's state, at the slot's refs."""
        return self.slots.map(lambda slot: slot[0])

    def validate(self) -> None:
        """Machine A passes the honest registers at alpha."""
        if verifier_A(self, self.honest_registers()) > self.alpha + 1e-12:
            raise VerificationDefect("a stored rational misses alpha")


def _register_machines(P: AdviceProtocol, registers: Slots) -> tuple:
    """(machine B error, machine A deviation) of supplied registers, with
    positions grouped by their (slot ref, register ref) pair in
    first-occurrence order.  B accepts x with the mean over positions of
    Tr(rho_i M_x) and errs by max_x |B(x) - L(x)|; A's deviation is the
    worst |Tr(rho_i M_z) - r_{i,z}| over positions i and their slot's
    inputs z.  Registers of another count or width are rejected."""
    if len(registers) != P.m:
        raise RejectedInputError(f"expected {P.m} registers, got {len(registers)}")
    if any(r.qubits != P.advice_qubits for r in registers.distinct):
        raise RejectedInputError("register width mismatch")
    k = len(registers.distinct)
    pairs = np.asarray(P.slots.refs) * k + np.asarray(registers.refs)
    codes, first, counts = np.unique(pairs, return_index=True, return_counts=True)
    order = np.argsort(first)
    codes, counts = codes[order], counts[order]
    values = acceptance_table(P.circuit, P.domain, registers.distinct)[codes % k]
    targeted = np.zeros((len(P.slots.distinct), P.domain.size), dtype=bool)
    target = np.zeros(targeted.shape)
    for j, (_, targets) in enumerate(P.slots.distinct):
        for z, r in targets:
            targeted[j, z], target[j, z] = True, float(r)
    slot_of = codes // k
    error = np.max(np.abs(counts / P.m @ values - P.language.values()))
    deviation = np.max(np.where(targeted[slot_of], np.abs(values - target[slot_of]), 0.0))
    return float(error), float(deviation)


def verifier_A(P: AdviceProtocol, registers: Slots) -> float:
    """Machine A's worst deviation; the protocol accepts when it is at
    most 5*alpha."""
    return _register_machines(P, registers)[1]


def machine_b_error(P: AdviceProtocol, registers: Slots) -> float:
    """Machine B's worst error max_x |B(x) - L(x)|."""
    return _register_machines(P, registers)[0]


def dyadic_approximation(value: float, alpha: float) -> Fraction:
    """Closest dyadic rational with denominator 2^(ceil(log2(1/alpha))+1),
    ties rounded half-up; always within alpha of the value."""
    d = math.ceil(math.log2(1.0 / alpha)) + 1
    den = 1 << d
    num = math.floor(value * den + 0.5)
    return Fraction(num, den)


#: adversary rounds ``compile_advice`` runs before it gives up
COMPILE_ROUNDS = 16


def compile_advice(circuit: Circuit, rho_n: DensityMatrix, language: BooleanFunction,
                   eps: float, seed: int = 0) -> AdviceProtocol:
    """Compile a (circuit, honest one-qubit state) pair into an advice
    protocol whose exact worst machine-B error is at most 0.3.

    Requires the true-advice premise |f_rho(z) - L(z)| <= 0.2 everywhere.
    Column generation against the exact adversary: the states so far,
    starting from the honest state alone, induce a finite class whose
    real decomposition of f_rho at eps supplies slots (f_i, X_i), mapped
    back to representative states; ``adversary_search`` either certifies
    the protocol or adds its worst registers to the states.  The protocol
    alpha is the decomposition alpha / 6, so the verifier's 5*alpha slack
    plus the encoding slack compose exactly to the verified tolerance.
    Raises EnumerationBudgetExceeded after COMPILE_ROUNDS unsound rounds.
    """
    domain = language.domain
    gap = np.abs(np.clip(acceptance_table(circuit, domain, [rho_n])[0], 0.0, 1.0)
                 - language.values())
    if np.max(gap) > 0.2:
        z = int(np.argmax(gap))
        raise RejectedInputError(
            f"true-advice premise fails at input {z}: |f-L| = {gap[z]:.4f} > 0.2")
    states = [rho_n]
    for _ in range(COMPILE_ROUNDS):
        S, kept = induced_with_states(circuit, domain, states)
        # the honest state comes first, so it is never a duplicate
        decomposition = real_majority_certificates(S, S.members[0], eps, seed=seed)
        alpha = decomposition.alpha / 6.0
        state_of = {f.key(): s for f, s in zip(S.members, kept)}
        slots = decomposition.slots.map(lambda slot: (
            state_of[slot[0].key()],
            tuple((z, dyadic_approximation(slot[0](z), alpha)) for z in sorted(slot[1]))))
        protocol = AdviceProtocol(circuit=circuit, domain=domain, advice_qubits=rho_n.qubits,
                                  slots=slots, alpha=alpha, language=language,
                                  decomposition=decomposition, compiled_class=S)
        protocol.validate()
        worst = adversary_search(protocol)
        if worst.best_error <= 0.3:
            return protocol
        states += worst.registers.distinct
    raise EnumerationBudgetExceeded(COMPILE_ROUNDS, COMPILE_ROUNDS + 1, "compile rounds")


def with_inflated_alpha(P: AdviceProtocol, factor: float) -> AdviceProtocol:
    """A deliberately broken variant accepting deviations factor times
    larger; used to show the adversary search has teeth."""
    return replace(P, alpha=P.alpha * factor)


# ---------------------------------------------------------------------------
# QMA+ style amplification
# ---------------------------------------------------------------------------

def _count_distribution_product(probs: Sequence[float]) -> np.ndarray:
    dist = np.array([1.0])
    for p in probs:
        dist = np.convolve(dist, [1.0 - p, p])
    return dist


def qma_plus_amplify(circuit: Circuit, x: int, r: Fraction, q: Fraction, K: int,
                     registers) -> float:
    """Exact acceptance probability of the amplified constraint test.

    The test applies the circuit on input x to each of K registers and
    accepts iff the fraction a of accepting invocations satisfies
    |a - r| <= 2/q; the comparison is exact rational arithmetic.
    ``registers`` is a list of K per-register states, independent, so the
    count distribution is the convolution of their acceptance
    probabilities and large K is supported.
    """
    r = Fraction(r)
    q = Fraction(q)
    if K < 1:
        raise RejectedInputError("K must be positive")
    regs = list(registers)
    if len(regs) != K:
        raise RejectedInputError(f"expected {K} registers, got {len(regs)}")
    probs = acceptance_table(circuit, InputDomain(max(1, x.bit_length())), regs)[:, x]
    dist = _count_distribution_product(probs)
    accept = 0.0
    for j in range(K + 1):
        if abs(Fraction(j, K) - r) <= 2 / q:
            accept += float(dist[j])
    return min(max(accept, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Adversary search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversarySearchResult:
    best_error: float
    best_deviation: float
    registers: Slots  # worst-case registers, one per distinct slot


#: slack on machine A's slabs when ``_slot_extremes`` tests a face point,
#: which meets its own active bounds only up to float rounding
_FACE_SLACK = 1e-12


def _ball_face_maxima(A: np.ndarray, d: np.ndarray, directions: Sequence[np.ndarray]):
    """For each direction u, a Bloch vector maximizing u . b over the face
    {b : |b| <= 1, A b = d} of the Bloch ball (A may have no rows), or
    None where the face misses the ball; None overall when the face is
    empty.  The least-squares point b0 and the face's null space are
    computed once; a direction is projected onto that null space and b
    walks from b0 along it to the sphere, or stays at b0 when the
    projection vanishes (then every face point is a maximizer)."""
    if len(A):
        b0, *_ = np.linalg.lstsq(A, d, rcond=None)
        if np.max(np.abs(A @ b0 - d)) > 1e-9 or np.linalg.norm(b0) > 1.0 + 1e-12:
            return None
        _, sv, vt = np.linalg.svd(A)
        rank = int(np.sum(sv > 1e-10))
        null = vt[rank:].T
    else:
        b0 = np.zeros(3)
        null = np.eye(3)
    points = []
    for v in directions:
        direction = null @ (null.T @ v)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            points.append(b0)
            continue
        u = direction / norm
        proj = float(b0 @ u)
        slack = proj * proj + 1.0 - float(b0 @ b0)
        points.append(None if slack < 0 else b0 + (-proj + math.sqrt(slack)) * u)
    return points


def _slot_extremes(c: np.ndarray, m: np.ndarray, targets: Sequence, width: float) -> tuple:
    """(values, points): for every input x and sign s, in the order
    (x, +1), (x, -1), the maximum of s * (c[x] + m[x] . b) over the Bloch
    vectors b that machine A accepts for one slot, |b| <= 1 and
    |c[z] + m[z] . b - r| <= width for each target (z, r), and a Bloch
    vector attaining it.

    A linear objective over the ball cut by slabs peaks on a face: by the
    KKT conditions some set of active slab bounds, with linearly
    independent normals and so at most 3 of them, has the maximizer as
    its own face maximum (Boyd and Vandenberghe, Convex Optimization,
    ch. 5).  So every set of at most 3 targets, each at r - width or
    r + width, is solved by ``_ball_face_maxima`` once for all directions,
    and each direction keeps its best face point that satisfies every
    slab of the slot (within _FACE_SLACK).  Raises VerificationDefect
    when some direction keeps none, that is when the slot's slabs miss
    the ball."""
    zs = [z for z, _ in targets]
    r = np.array([float(v) for _, v in targets])
    directions = [s * m[x] for x in range(len(c)) for s in (1.0, -1.0)]
    offsets = np.array([s * c[x] for x in range(len(c)) for s in (1.0, -1.0)])
    values = np.full(len(directions), -np.inf)
    points = np.zeros((len(directions), 3))
    for size in range(min(3, len(zs)) + 1):
        for active in combinations(range(len(zs)), size):
            rows = [zs[i] for i in active]
            for sides in product((-width, width), repeat=size):
                d = r[list(active)] + np.array(sides) - c[rows]
                face = _ball_face_maxima(m[rows], d, directions)
                for k, b in enumerate(face or ()):
                    if b is None or np.max(np.abs(c[zs] + m[zs] @ b - r),
                                           initial=0.0) > width + _FACE_SLACK:
                        continue
                    value = offsets[k] + directions[k] @ b
                    if value > values[k]:
                        values[k], points[k] = value, b
    if np.isinf(values).any():
        raise VerificationDefect("a slot's constraints admit no advice state")
    return values, points


def adversary_search(P: AdviceProtocol) -> AdversarySearchResult:
    """The worst machine-B error over all advice that machine A accepts,
    exactly, for one advice qubit, with registers attaining it.

    Both machines read registers only through reduced states, and each
    machine-B value is linear in each register, so positions of one slot
    share an optimum and entangled advice does no better: the worst error
    is the maximum over inputs x and signs s of
    sum_j (count_j / m) * ext_j(x, s) - s * L(x), where ext_j is the
    extreme of ``_slot_extremes`` on distinct slot j over the Bloch ball,
    read through the affine map of ``bloch_affine_map``.  The registers
    of the maximizing (x, s) are built by ``_state_from_bloch``, and the
    error and deviation reported are the machines' own values on them;
    ``compile_advice`` adds them to the compiled class until the error is
    at most 0.3.  Advice wider than one qubit is rejected."""
    if P.advice_qubits != 1:
        raise RejectedInputError("the exact adversary search covers one advice qubit")
    c, m = bloch_affine_map(P.circuit, P.domain)
    extremes = [_slot_extremes(c, m, targets, 5.0 * P.alpha) for _, targets in P.slots.distinct]
    signs = np.tile([1.0, -1.0], len(c))
    errors = ((P.slots.counts() / P.m) @ np.array([values for values, _ in extremes])
              - signs * np.repeat(P.language.values(), 2))
    worst = int(np.argmax(errors))
    registers = Slots([_state_from_bloch(points[worst]) for _, points in extremes],
                      P.slots.refs)
    err, dev = _register_machines(P, registers)
    return AdversarySearchResult(err, dev, registers)


def conditional_soundness_bound(P: AdviceProtocol) -> float:
    """Exact worst machine-B error over all assignments of compiled-class
    members to registers that machine A would accept.

    Slot choices decouple, so the bound is the extremal deviation of the
    members satisfying each slot's r-constraints at threshold 5*alpha,
    the routine that also verifies real decompositions, read once per
    distinct slot.  An accepted assignment always exists (the honest
    one), so the value is finite.
    """
    groups = [(count, [z for z, _ in targets], np.array([float(r) for _, r in targets]))
              for count, (_, targets) in P.slots.groups()]
    dev = extremal_deviation(P.compiled_class.value_matrix(), P.language.values(), groups,
                             5.0 * P.alpha)
    if dev is None:
        raise VerificationDefect("a slot admits no compiled-class member")
    return float(np.max(dev))


def bloch_affine_map(circuit: Circuit, domain: InputDomain) -> tuple:
    """For one advice qubit: f_sigma(x) = c[x] + m[x] . b where b is the
    Bloch vector; returns (c, m) with m of shape (2^n, 3), read off the
    Hermitian M_x = c[x] I + m[x] . (X, Y, Z)."""
    M = np.stack([measurement_operator(circuit, x, 1) for x in domain.inputs()])
    top, off, bottom = M[:, 0, 0].real, M[:, 0, 1], M[:, 1, 1].real
    return (top + bottom) / 2.0, np.stack([off.real, -off.imag, (top - bottom) / 2.0], axis=1)


def _state_from_bloch(b: np.ndarray) -> DensityMatrix:
    norm = float(np.linalg.norm(b))
    if norm > 1.0:
        b = b / norm
    sx, sy, sz = b
    entries = 0.5 * np.array([[1 + sz, sx - 1j * sy], [sx + 1j * sy, 1 - sz]])
    return DensityMatrix(1, entries)


def fat_dim_quantum_check(gammas: Sequence[float], circuit: Circuit,
                          domain: InputDomain) -> list:
    """Exact fat-shattering dimensions of all one-qubit advice, with the 1/gamma^2
    bound.  On inputs T the states fill the ellipsoid c_T + m_T b, |b| <= 1
    (``bloch_affine_map``); a convex set gamma-shatters T iff it holds a cube
    r + [-gamma, gamma]^T (induction on |T|: the segment joining the witnesses of
    (s, +) and (s, -) crosses every level of the last input inside pattern s),
    centred at c_T by symmetry, so iff every vertex c_T + gamma s is in it: each
    s in range(m_T) with gamma |pinv(m_T) s| <= 1.  So T has the margin
    min_s 1 / |pinv(m_T) s|, or 0 when some s is out of range, and the dimension
    at gamma is the largest size of at most 3 (rank(m_T) <= 3 shatters no 4)
    whose widest set's margin reaches gamma.  Once per dimension, the pure
    states along pinv(m_T) s of that set are built and must land its largest
    gamma on their pattern's side of c_T, or VerificationDefect is raised.  Raises
    EnumerationBudgetExceeded over DIMENSION_BUDGET input sets, and
    RejectedInputError on a margin equal to a gamma (a tie)."""
    count = sum(math.comb(domain.size, k) for k in (1, 2, 3))
    if count > DIMENSION_BUDGET:
        raise EnumerationBudgetExceeded(DIMENSION_BUDGET, count, "one-qubit advice input sets")
    c, m = bloch_affine_map(circuit, domain)
    widest = {}  # size: (margin, set, pinv(m_T) s per pattern s, patterns)
    for k in range(1, min(3, domain.size) + 1):
        sets = np.array(list(combinations(range(domain.size), k)))
        signs = np.array(list(product((1, -1), repeat=k))).T
        B = np.linalg.pinv(m[sets], 1e-12) @ signs  # relative cutoff: rounding noise
        reach = np.linalg.norm(B, axis=1).max(axis=1)
        reach[np.abs(m[sets] @ B - signs).max(axis=(1, 2)) > 1e-9] = np.inf  # s out of range
        t = int(np.argmin(reach))
        widest[k] = (1.0 / reach[t], sets[t], B[t], signs)
    dims = [[max((k for k, w in widest.items() if w[0] >= gamma + d), default=0)
             for d in (-1e-9, 1e-9)] for gamma in gammas]
    if any(below != above for below, above in dims):
        raise RejectedInputError("a shattered set's margin is one of the gammas")
    for d, gamma in {d: g for g, (_, d) in sorted(zip(gammas, dims)) if d}.items():
        _, T, B, signs = widest[d]
        half, phase = np.arctan2(np.hypot(B[0], B[1]), B[2]) / 2.0, np.arctan2(B[1], B[0])
        pure = np.zeros((len(half), 8))  # psi (x) |0>, real parts then imaginary parts
        pure[:, 0] = np.cos(half)
        pure[:, [2, 6]] = (np.sin(half) * [np.cos(phase), np.sin(phase)]).T
        states = [params_to_state(v, 1) for v in pure]
        if np.min(signs.T * (acceptance_table(circuit, domain, states)[:, T] - c[T])) < gamma:
            raise VerificationDefect("a witness state misses its sign pattern's margin")
    return [{"measured": d, "bound": 1.0 / (g * g)} for (_, d), g in zip(dims, gammas)]
