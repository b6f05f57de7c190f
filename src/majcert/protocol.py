"""Compiling advice states into classically-checkable verification
protocols, and the machines that consume them.

The compiled object pairs trusted classical data (per-slot constraint
sets X_i, dyadic target probabilities r_{i,z}, and a tolerance alpha)
with untrusted quantum advice (m registers, honestly a tensor product of
per-slot states).  The m slots are stored once per distinct slot with
one ref per position, shared with the decomposition, so per-slot work
runs once per distinct slot.  The m supplied registers are passed as
``Slots`` too (a per-position list or one joint state is grouped into
them), and the machines group positions by their (slot ref, register
ref) pair.  Machine A checks
the registers against the classical constraints; machine B answers
inputs by running the verification circuit on a uniformly random
register; both depend on the supplied registers only through their
reduced states.  Tr(rho M_x) is read by ``acceptance_table``; both
machines are defined once, in ``_machines``, which the public machines,
``AdviceProtocol.validate`` and the adversary search all call.

Soundness scope: the decomposition guarantee is proven (exactly) over
the finite compiled class of advice states; soundness over the full
continuum of states is probed empirically by adversary_search, never
asserted.  Reports carry that distinction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .concepts import (BooleanFunction, InputDomain, PConceptClass,
                       RealFunction, Slots, real_members)
from .decompose import (RealDecomposition, extremal_deviation,
                        real_majority_certificates)
from .errors import RejectedInputError, VerificationDefect
from .qsim import (Circuit, DensityMatrix, measurement_operator,
                   params_to_state, random_mixed_state, reduced_state,
                   state_to_params)
from .rng import substream
from .winnow import fat_shattering_dim


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
    to [0, 1], per state, with exact-duplicate functions dropped (first
    state kept)."""
    first: dict = {}
    members = real_members(domain, np.clip(acceptance_table(circuit, domain, states), 0.0, 1.0))
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


def _resolve_registers(P: AdviceProtocol, sigma) -> Slots:
    """The supplied registers as ``Slots``: ``Slots`` are used as given, a
    per-position list is grouped by state, and one joint state is first
    split by partial trace, which is exactly what the machines may
    depend on."""
    if isinstance(sigma, DensityMatrix):
        p = P.advice_qubits
        if sigma.qubits != P.m * p:
            raise RejectedInputError(f"joint state has {sigma.qubits} qubits, not {P.m * p}")
        sigma = [reduced_state(sigma, range(i * p, (i + 1) * p)) for i in range(P.m)]
    if not isinstance(sigma, Slots):
        sigma = Slots.group(sigma, key=DensityMatrix.key)
    if len(sigma) != P.m:
        raise RejectedInputError(f"expected {P.m} registers, got {len(sigma)}")
    if any(r.qubits != P.advice_qubits for r in sigma.distinct):
        raise RejectedInputError("register width mismatch")
    return sigma


def _machines(P: AdviceProtocol, counts: np.ndarray, slot_of: Sequence[int]):
    """The function from acceptance values to (machine B error, machine A
    deviation) of registers in groups: group g holds ``counts[g]``
    positions of distinct slot ``slot_of[g]`` with acceptance values
    ``values[..., g, :]`` (leading axes batch).  B accepts x with the mean
    over positions of Tr(rho_i M_x) and errs by max_x |B(x) - L(x)|; A's
    deviation is the worst |Tr(rho_i M_z) - r_{i,z}| over positions i and
    their slot's inputs z.  The tables of targets are built once here."""
    targeted = np.zeros((len(P.slots.distinct), P.domain.size), dtype=bool)
    target = np.zeros(targeted.shape)
    for j, (_, targets) in enumerate(P.slots.distinct):
        for z, r in targets:
            targeted[j, z], target[j, z] = True, float(r)
    targeted, target = targeted[slot_of], target[slot_of]
    weights, truth = counts / P.m, P.language.values()

    def machines(values: np.ndarray) -> tuple:
        error = np.max(np.abs(weights @ values - truth), axis=-1)
        deviation = np.max(np.where(targeted, np.abs(values - target), 0.0), axis=(-2, -1))
        return error, deviation

    return machines


def _register_machines(P: AdviceProtocol, sigma) -> tuple:
    """``_machines`` of supplied registers, with positions grouped by
    their (slot ref, register ref) pair in first-occurrence order."""
    registers = _resolve_registers(P, sigma)
    k = len(registers.distinct)
    pairs = np.asarray(P.slots.refs) * k + np.asarray(registers.refs)
    codes, first, counts = np.unique(pairs, return_index=True, return_counts=True)
    order = np.argsort(first)
    codes, counts = codes[order], counts[order]
    values = acceptance_table(P.circuit, P.domain, registers.distinct)[codes % k]
    error, deviation = _machines(P, counts, codes // k)(values)
    return float(error), float(deviation)


def verifier_A(P: AdviceProtocol, sigma) -> float:
    """Machine A's worst deviation; the protocol accepts when it is at
    most 5*alpha."""
    return _register_machines(P, sigma)[1]


def machine_b_error(P: AdviceProtocol, sigma) -> float:
    """Machine B's worst error max_x |B(x) - L(x)|."""
    return _register_machines(P, sigma)[0]


def dyadic_approximation(value: float, alpha: float) -> Fraction:
    """Closest dyadic rational with denominator 2^(ceil(log2(1/alpha))+1),
    ties rounded half-up; always within alpha of the value."""
    d = math.ceil(math.log2(1.0 / alpha)) + 1
    den = 1 << d
    num = math.floor(value * den + 0.5)
    return Fraction(num, den)


def compile_advice(circuit: Circuit, rho_n: DensityMatrix, language: BooleanFunction,
                   eps: float, state_sample: Sequence[DensityMatrix],
                   seed: int = 0) -> AdviceProtocol:
    """Compile a (circuit, honest state) pair into an advice protocol.

    Requires the true-advice premise |f_rho(z) - L(z)| <= 0.2 everywhere.
    The honest state plus the sample induce a finite class; the real
    decomposition of f_rho at the given eps supplies slots (f_i, X_i),
    which map back to representative states.  The protocol alpha is the
    decomposition alpha divided by 6 so the verifier's 5*alpha slack plus
    the encoding slack compose exactly to the verified tolerance.
    """
    domain = language.domain
    S, states = induced_with_states(circuit, domain, [rho_n, *state_sample])
    f_star = S.members[0]  # the first state is never a duplicate
    for z in domain.inputs():
        if abs(f_star(z) - language(z)) > 0.2:
            raise RejectedInputError(
                f"true-advice premise fails at input {z}: |f-L| = "
                f"{abs(f_star(z) - language(z)):.4f} > 0.2")

    decomposition = real_majority_certificates(S, f_star, eps, seed=seed)
    alpha = decomposition.alpha / 6.0

    state_of = {f.key(): s for f, s in zip(S.members, states)}
    slots = decomposition.slots.map(lambda slot: (
        state_of[slot[0].key()],
        tuple((z, dyadic_approximation(slot[0](z), alpha)) for z in sorted(slot[1]))))
    protocol = AdviceProtocol(circuit=circuit, domain=domain, advice_qubits=rho_n.qubits,
                              slots=slots, alpha=alpha, language=language,
                              decomposition=decomposition, compiled_class=S)
    protocol.validate()
    return protocol


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
                     sigma) -> float:
    """Exact acceptance probability of the amplified constraint test.

    The test applies the circuit on input x to each of K registers and
    accepts iff the fraction a of accepting invocations satisfies
    |a - r| <= 2/q; the comparison is exact rational arithmetic.
    ``sigma`` is either a list of K per-register states (independent
    registers, count distribution by convolution; supports large K) or
    one joint DensityMatrix over all K registers (width capped at 6
    qubits; outcome patterns enumerated exactly).
    """
    r = Fraction(r)
    q = Fraction(q)
    if K < 1:
        raise RejectedInputError("K must be positive")

    if isinstance(sigma, DensityMatrix):
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
    else:
        regs = list(sigma)
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
    violation_found: bool
    registers: Optional[Slots]  # best feasible registers, one per distinct slot


#: restarts that ``adversary_search`` walks in lockstep; bounds its
#: memory at _CHUNK x blocks x 4^p parameters per array, and at
#: _CHUNK x _STEPS_PER_RESTART x 2 * 4^p for the chunk's drawn steps
_CHUNK = 64

#: perturbation steps of each ``adversary_search`` restart
_STEPS_PER_RESTART = 40


def _quadratic_forms(op_stack: np.ndarray) -> np.ndarray:
    """The real forms of ``_purified_values``, one column per input x:
    F_x = [[Re M_x, -Im M_x], [Im M_x, Re M_x]], flattened."""
    F = np.block([[op_stack.real, -op_stack.imag], [op_stack.imag, op_stack.real]])
    return F.reshape(len(op_stack), -1).T


def _purified_values(params: np.ndarray, op_stack: np.ndarray,
                     forms: Optional[np.ndarray] = None) -> np.ndarray:
    """Tr(rho M_x) for every x and every row of purification parameters,
    read without building rho.  With V the purification reshaped to
    2^p x 2^p (rows on the advice register), rho = V V^dag / ||V||^2, so
    the value is tr(V^dag M_x V) / ||V||^2, the real quadratic form
    u^T Q_x u / ||u||^2 of the parameter row u with Q_x =
    [[Re H, -Im H], [Im H, Re H]] and H = M_x (x) I.  The identity factor
    is summed out rather than stored: with W the 2^(p+1) x 2^p matrix of
    Re V over Im V, u^T Q_x u is the entrywise sum of (W W^T) * F_x for
    the forms F_x of ``_quadratic_forms``, which a caller reading many
    batches builds once and passes as ``forms``.  So every row and input
    takes one stacked product W W^T and one matrix product.  A row of
    norm below 1e-12 reads as |0>, as in ``params_to_state``.  Agrees
    with ``Tr(params_to_state(row).entries @ M_x)`` up to float
    rounding."""
    if forms is None:
        forms = _quadratic_forms(op_stack)
    norm2 = np.sum(params * params, axis=-1)
    null = np.sqrt(norm2) < 1e-12
    if np.any(null):
        params = np.where(null[..., None], np.eye(1, params.shape[-1]), params)
        norm2 = np.where(null, 1.0, norm2)
    side = op_stack.shape[-1]
    W = params.reshape(*params.shape[:-1], 2 * side, side)
    gram = (W @ W.swapaxes(-2, -1)).reshape(*params.shape[:-1], -1)
    return (gram @ forms) / norm2[..., None]


def adversary_search(P: AdviceProtocol, budget: int = 1000,
                     seed: int = 0) -> AdversarySearchResult:
    """Best-effort search for advice passing machine A yet misleading
    machine B (error above 1/3 at some input).

    Random restarts plus coordinate perturbation over per-slot
    purification parameters.  Both machines depend on registers only
    through reduced states, and slots with identical constraints admit a
    common optimal register (the objective is linear in each register),
    so the search walks one parameter block per distinct slot.

    Restart r draws from its own substream (seed, 20, r): the initial
    blocks (r > 0; restart 0 starts from the honest advice), then in one
    call each step's moved block and in one more its standard normal
    step, scaled by the step's size (with one distinct slot, the stream
    of a draw per step).  Restarts run in
    lockstep, _CHUNK at a time, for _STEPS_PER_RESTART steps: each step
    scores the whole chunk's candidates at once by ``_machines`` on
    values read from the purification parameters, re-reading only the
    moved block, and each restart keeps a candidate that strictly raises
    its score.  A value Tr(rho M_x) is the real quadratic form
    u^T Q_x u / ||u||^2 of the block's 2·4^p parameters u
    (``_purified_values``); the forms and the machines' target tables
    are built once per search, so reading a step's values is one matrix
    product.  After a chunk its restarts are scanned in order for the
    best feasible error, and the search stops after the first restart
    that errs above 1/3.  Candidates are never built as states: the
    winning parameters go through ``params_to_state`` once per block,
    and the reported error and deviation are the machines' own, read
    from those states by ``acceptance_table``.  Deterministic given the
    seed.  Finding nothing is a report, not a proof.
    """
    op_stack = np.stack([measurement_operator(P.circuit, x, P.advice_qubits)
                         for x in P.domain.inputs()])
    forms = _quadratic_forms(op_stack)
    blocks = P.slots.distinct
    machines = _machines(P, P.slots.counts(), np.arange(len(blocks)))
    threshold = 5.0 * P.alpha
    penalty_weight = 10.0
    dim = 2 * (1 << (2 * P.advice_qubits))

    def scores(vals: np.ndarray) -> tuple:
        """(error, deviation, score) from per-block values (..., blocks, x)."""
        err, dev = machines(vals)
        return err, dev, err - penalty_weight * np.maximum(0.0, dev - threshold)

    honest = np.stack([state_to_params(state) for state, _ in blocks])
    best_error = -1.0
    best_params: Optional[np.ndarray] = None
    for start in range(0, budget, _CHUNK):
        restarts = range(start, min(budget, start + _CHUNK))
        rngs = [substream(seed, 20, r) for r in restarts]
        params = np.stack([honest if r == 0 else
                           np.stack([rng.normal(size=dim) for _ in blocks])
                           for r, rng in zip(restarts, rngs)])
        vals = _purified_values(params, op_stack, forms)
        err, dev, score = scores(vals)

        rows = np.arange(len(rngs))
        moves = np.stack([rng.integers(len(blocks), size=_STEPS_PER_RESTART) for rng in rngs])
        noise = np.stack([rng.standard_normal((_STEPS_PER_RESTART, dim)) for rng in rngs])
        scale = 0.5
        for t in range(_STEPS_PER_RESTART):
            moved = moves[:, t]
            proposal = params[rows, moved] + scale * noise[:, t]
            cand_vals = vals.copy()
            cand_vals[rows, moved] = _purified_values(proposal, op_stack, forms)
            cand_err, cand_dev, cand_score = scores(cand_vals)
            take = cand_score > score
            params[rows[take], moved[take]] = proposal[take]
            vals[take] = cand_vals[take]
            err = np.where(take, cand_err, err)
            dev = np.where(take, cand_dev, dev)
            score = np.where(take, cand_score, score)
            scale = max(0.05, scale * 0.93)

        for i in rows:
            if dev[i] <= threshold and err[i] > best_error:
                best_error, best_params = float(err[i]), params[i]
                if best_error > 1.0 / 3.0:
                    break
        if best_error > 1.0 / 3.0:
            break

    if best_params is None:
        return AdversarySearchResult(0.0, 0.0, False, None)
    registers = Slots([params_to_state(p, P.advice_qubits) for p in best_params], P.slots.refs)
    err, dev = _register_machines(P, registers)
    return AdversarySearchResult(err, dev, err > 1.0 / 3.0, registers)


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
    lang = np.array([float(P.language(x)) for x in P.domain.inputs()])
    dev = extremal_deviation(P.compiled_class.value_matrix(), lang, groups, 5.0 * P.alpha)
    if dev is None:
        raise VerificationDefect("a slot admits no compiled-class member")
    return float(np.max(dev))


def bloch_affine_map(circuit: Circuit, domain: InputDomain) -> tuple:
    """For one advice qubit: f_sigma(x) = c[x] + m[x] . b where b is the
    Bloch vector; returns (c, m) with m of shape (2^n, 3)."""
    paulis = [np.array([[0, 1], [1, 0]], dtype=np.complex128),
              np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
              np.array([[1, 0], [0, -1]], dtype=np.complex128)]
    c = np.zeros(domain.size)
    m = np.zeros((domain.size, 3))
    for x in domain.inputs():
        M = measurement_operator(circuit, x, 1)
        c[x] = float(np.real(np.trace(M))) / 2.0
        for j, P in enumerate(paulis):
            m[x, j] = float(np.real(np.trace(M @ P))) / 2.0
    return c, m


def _state_from_bloch(b: np.ndarray) -> DensityMatrix:
    norm = float(np.linalg.norm(b))
    if norm > 1.0:
        b = b / norm
    sx, sy, sz = b
    entries = 0.5 * np.array([[1 + sz, sx - 1j * sy], [sx + 1j * sy, 1 - sz]])
    return DensityMatrix(1, entries)


def bloch_extremal_states(circuit: Circuit, domain: InputDomain,
                          target: RealFunction) -> list:
    """Single-qubit states matching ``target`` exactly on each input
    subset T while extremizing the acceptance probability at each input
    outside T.

    These witness the full-state-space extremes of the induced family,
    so a compile class seeded with them measures game penalties against
    the whole Bloch ball rather than against a sparse sample; without
    them the compiled protocol can look sound against its own class yet
    be wide open to arbitrary states.
    """
    c, m = bloch_affine_map(circuit, domain)
    states = []
    inputs = list(domain.inputs())

    def solve(T: tuple, x_star: int, sign: float) -> Optional[DensityMatrix]:
        if T:
            A = m[list(T)]
            d = np.array([target(t) - c[t] for t in T])
            b0, *_ = np.linalg.lstsq(A, d, rcond=None)
            if np.max(np.abs(A @ b0 - d)) > 1e-9 or np.linalg.norm(b0) > 1.0 + 1e-12:
                return None
            _, sv, vt = np.linalg.svd(A)
            rank = int(np.sum(sv > 1e-10))
            null = vt[rank:].T
        else:
            b0 = np.zeros(3)
            null = np.eye(3)
        direction = null @ (null.T @ (sign * m[x_star]))
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            b = b0
        else:
            u = direction / norm
            proj = float(b0 @ u)
            slack = proj * proj + 1.0 - float(b0 @ b0)
            if slack < 0:
                return None
            b = b0 + (-proj + math.sqrt(slack)) * u
        return _state_from_bloch(b)

    from itertools import combinations
    for size in range(0, len(inputs)):
        for T in combinations(inputs, size):
            for x_star in inputs:
                if x_star in T:
                    continue
                for sign in (1.0, -1.0):
                    state = solve(T, x_star, sign)
                    if state is not None:
                        states.append(state)
    return states


def fat_dim_quantum_check(p: int, gammas: Sequence[float], samples: int,
                          circuit: Circuit, domain: InputDomain, seed: int = 0) -> list:
    """Measure the fat-shattering dimension of one sampled induced class
    at each gamma, and report each next to the p/gamma^2 learnability
    bound."""
    if p > 2:
        raise RejectedInputError("quantum dimension check capped at 2 advice qubits")
    rng = substream(seed, 21)
    states = [random_mixed_state(p, rng) for _ in range(samples)]
    cls, _ = induced_with_states(circuit, domain, states)
    return [{"measured": fat_shattering_dim(cls, gamma), "bound": p / (gamma * gamma),
             "class_size": len(cls)} for gamma in gammas]
