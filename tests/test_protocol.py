"""Compiled advice protocols: induced classes, machines A and B,
amplification arithmetic, adversary probing."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from majcert.concepts import BooleanFunction, InputDomain, Slots
from majcert.decompose import verify_real_decomposition
from majcert.errors import RejectedInputError
import majcert.protocol as protocol
from majcert.protocol import (_CHUNK, AdversarySearchResult, _purified_values,
                              acceptance_table, adversary_search, bloch_affine_map,
                              bloch_extremal_states, compile_advice,
                              conditional_soundness_bound,
                              fat_dim_quantum_check, induced_with_states,
                              machine_b_error, qma_plus_amplify, verifier_A,
                              with_inflated_alpha)
from majcert.qsim import (Circuit, DensityMatrix, Gate, accept_probability,
                          measurement_operator, params_to_state, random_mixed_state,
                          state_to_params)
from majcert.rng import substream


def standard_instance():
    circuit = Circuit(qubits=1,
                      gates=(Gate("H", 0, when_bit=0), Gate("X", 0, when_bit=1)),
                      accept_qubit=0)
    domain = InputDomain(2)
    theta = math.pi / 8.0
    rho = DensityMatrix.from_pure(np.array([math.cos(theta), math.sin(theta)]))
    language = BooleanFunction.from_values(domain, [0, 0, 1, 1])
    return circuit, domain, rho, language


def induced(circuit, domain, states):
    """The p-concept class that the states induce."""
    return induced_with_states(circuit, domain, states)[0]


def compiled_protocol(random_states=40, seed=13, eps=0.1):
    circuit, domain, rho, language = standard_instance()
    f_star = induced(circuit, domain, [rho])[0]
    sample = bloch_extremal_states(circuit, domain, f_star)
    rng = substream(seed, 50)
    sample += [random_mixed_state(1, rng) for _ in range(random_states)]
    return compile_advice(circuit, rho, language, eps, sample, seed=seed)


# ---------------------------------------------------------------------------
# induced classes
# ---------------------------------------------------------------------------

def test_induced_maximally_mixed_is_half():
    circuit = Circuit(qubits=1, gates=(), accept_qubit=0)
    domain = InputDomain(2)
    cls = induced(circuit, domain, [DensityMatrix.maximally_mixed(1)])
    assert len(cls) == 1
    assert np.allclose(cls[0].table, 0.5, atol=1e-12)


def test_induced_basis_states_are_constants():
    circuit = Circuit(qubits=1, gates=(), accept_qubit=0)
    domain = InputDomain(2)
    cls = induced(circuit, domain,
                  [DensityMatrix.computational(1, 0),
                   DensityMatrix.computational(1, 1)])
    tables = sorted(tuple(f.table) for f in cls)
    assert tables == [(0.0,) * 4, (1.0,) * 4]


def test_induced_dedups_duplicates():
    circuit = Circuit(qubits=1, gates=(), accept_qubit=0)
    domain = InputDomain(2)
    state = DensityMatrix.maximally_mixed(1)
    cls = induced(circuit, domain, [state, state, state])
    assert len(cls) == 1


@given(st.integers(0, 100))
def test_induced_matches_ensemble_oracle(salt):
    circuit, domain, _, _ = standard_instance()
    rng = substream(salt, 51)
    state = random_mixed_state(1, rng)
    f = induced(circuit, domain, [state])[0]
    for x in domain.inputs():
        U = circuit.unitary(x)
        expected = sum(lam * float(np.real(v.conj() @ (U.conj().T
                                                       @ circuit.accept_projector()
                                                       @ U @ v)))
                       for lam, v in state.eigen_ensemble())
        assert f(x) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# compile + machines
# ---------------------------------------------------------------------------

def test_compile_trivial_language():
    # circuit ignoring the advice: X then measure gives constant 1
    circuit = Circuit(qubits=2, gates=(Gate("X", 1),), accept_qubit=1)
    domain = InputDomain(1)
    language = BooleanFunction.from_values(domain, [1, 1])
    rho = DensityMatrix.maximally_mixed(1)
    P = compile_advice(circuit, rho, language, eps=0.1,
                       state_sample=[DensityMatrix.computational(1, 0)], seed=0)
    assert P.m == 1
    assert verifier_A(P, P.honest_registers()) <= 5.0 * P.alpha
    assert machine_b_error(P, P.honest_registers()) == pytest.approx(0.0, abs=1e-9)


def test_compile_rejects_premise_violation():
    circuit, domain, _, language = standard_instance()
    bad_rho = DensityMatrix.computational(1, 0)  # f = (0, .5, 1, .5): off by .5
    with pytest.raises(RejectedInputError):
        compile_advice(circuit, bad_rho, language, eps=0.1, state_sample=[], seed=0)


def test_compiled_rationals_within_alpha():
    P = compiled_protocol()
    for state, targets in P.slots.distinct:
        f_i = induced(P.circuit, P.domain, [state])[0]
        for z, r in targets:
            assert abs(float(r) - f_i(z)) <= P.alpha


def test_honest_completeness():
    P = compiled_protocol()
    honest = P.honest_registers()
    assert verifier_A(P, honest) <= P.alpha
    assert machine_b_error(P, honest) <= 0.3


def test_machine_b_identical_registers_linearity():
    P = compiled_protocol()
    reg = P.honest_registers().distinct[0]
    single = [float(np.real(np.trace(reg.entries @ measurement_operator(P.circuit, x, 1))))
              for x in P.domain.inputs()]
    expected = max(abs(p - P.language(x)) for x, p in enumerate(single))
    assert machine_b_error(P, [reg] * P.m) == pytest.approx(expected, abs=1e-12)


def tiny_two_register_protocol():
    """Hand-built m = 2 protocol over a 1-qubit readout circuit, for
    entangled-input checks that need a joint state within the budget."""
    from majcert.concepts import Slots
    from majcert.decompose import RealDecomposition
    from majcert.protocol import AdviceProtocol, dyadic_approximation
    circuit = Circuit(qubits=1, gates=(), accept_qubit=0)
    domain = InputDomain(1)
    language = BooleanFunction.from_values(domain, [1, 1])
    up = DensityMatrix.computational(1, 1)
    f_up = induced(circuit, domain, [up])[0]
    cls = induced(circuit, domain, [up, DensityMatrix.computational(1, 0)])
    alpha = 0.01
    dec = RealDecomposition(target=f_up,
                            slots=Slots(((f_up, frozenset({0})), (f_up, frozenset({1}))),
                                        (0, 1)),
                            alpha=6 * alpha, eps=0.3)
    slots = dec.slots.map(lambda slot: (up, tuple((z, dyadic_approximation(f_up(z), alpha))
                                                  for z in sorted(slot[1]))))
    return AdviceProtocol(circuit=circuit, domain=domain, advice_qubits=1, slots=slots,
                          alpha=alpha, language=language, decomposition=dec,
                          compiled_class=cls)


def test_machines_depend_only_on_reduced_states():
    P = tiny_two_register_protocol()
    # correlated two-qubit states: Bell pair and a classically correlated mix
    bell = DensityMatrix.from_pure(np.array([1, 0, 0, 1]) / math.sqrt(2))
    from majcert.qsim import reduced_state
    for joint in (bell,
                  DensityMatrix(2, 0.5 * (DensityMatrix.computational(2, 0).entries
                                          + DensityMatrix.computational(2, 3).entries))):
        regs = [reduced_state(joint, [0]), reduced_state(joint, [1])]
        assert machine_b_error(P, joint) == pytest.approx(machine_b_error(P, regs),
                                                          abs=1e-10)
        assert verifier_A(P, joint) == pytest.approx(verifier_A(P, regs), abs=1e-10)


def test_compile_with_work_qubit_circuit():
    # advice on wire 0, work wire 1: x0 copies the advice bit onto the
    # work wire, x1 flips it; acceptance reads the work wire
    circuit = Circuit(qubits=2,
                      gates=(Gate("CNOT", 1, control=0, when_bit=0),
                             Gate("X", 1, when_bit=1)),
                      accept_qubit=1)
    domain = InputDomain(2)
    p11 = 0.9
    rho = DensityMatrix.from_pure(np.array([math.sqrt(1 - p11), math.sqrt(p11)]))
    f_star = induced(circuit, domain, [rho])[0]
    assert f_star.table == pytest.approx([0.0, p11, 1.0, 1.0 - p11], abs=1e-12)
    language = BooleanFunction.from_values(domain, [0, 1, 1, 0])
    sample = bloch_extremal_states(circuit, domain, f_star)
    sample += [random_mixed_state(1, substream(77, i)) for i in range(30)]
    P = compile_advice(circuit, rho, language, eps=0.2, state_sample=sample, seed=5)
    honest = P.honest_registers()
    assert verifier_A(P, honest) <= P.alpha
    assert machine_b_error(P, honest) <= 0.2 + 0.1  # eps plus language margin
    assert conditional_soundness_bound(P) <= 0.2 + 0.1
    assert verify_real_decomposition(P.compiled_class, P.decomposition)


def test_conditional_soundness_bound_standard_instance():
    P = compiled_protocol()
    assert verify_real_decomposition(P.compiled_class, P.decomposition)
    assert conditional_soundness_bound(P) <= 0.3


def test_verifier_on_maximally_mixed_registers():
    P = compiled_protocol()
    mixed = [DensityMatrix.maximally_mixed(1)] * P.m
    deviation = verifier_A(P, mixed)
    # exact by hand: Tr[mixed M_z] = Tr[M_z]/2
    expected = 0.0
    for _, targets in P.slots:
        for z, r in targets:
            M = measurement_operator(P.circuit, z, 1)
            expected = max(expected, abs(float(np.real(np.trace(M))) / 2 - float(r)))
    assert deviation == pytest.approx(expected, abs=1e-12)
    # the mixed state sits far from the honest targets here, so A rejects
    assert deviation > 5.0 * P.alpha


def test_register_shape_mismatch_rejected():
    P = compiled_protocol()
    with pytest.raises(RejectedInputError):
        machine_b_error(P, list(P.honest_registers())[1:])
    with pytest.raises(RejectedInputError):
        verifier_A(P, DensityMatrix.maximally_mixed(2))


# ---------------------------------------------------------------------------
# QMA+ amplification
# ---------------------------------------------------------------------------

def amplify_fixture():
    """H on |x = 0>, target r = 1/2, q = 8."""
    circuit = Circuit(qubits=1, gates=(Gate("H", 0),), accept_qubit=0)
    return circuit, Fraction(1, 2), Fraction(8)


def test_amplify_single_register_hand_arithmetic():
    circuit, r, q = amplify_fixture()
    state = DensityMatrix.computational(1, 0)  # accept prob exactly 1/2
    got = qma_plus_amplify(circuit, 0, r, q, 1, [state])
    # hand arithmetic: outcome 1 w.p. 1/2 (|1 - 1/2| = 1/2 > 2/8 -> reject),
    # outcome 0 w.p. 1/2 (|0 - 1/2| = 1/2 > 2/8 -> reject)
    assert got == pytest.approx(0.0, abs=1e-12)
    got = qma_plus_amplify(circuit, 0, Fraction(3, 4), q, 1, [state])
    # outcome 1: |1 - 3/4| = 1/4 <= 1/4 -> accept; outcome 0: reject
    assert got == pytest.approx(0.5, abs=1e-12)


def test_amplify_honest_product_beats_chernoff_floor():
    circuit, r, q = amplify_fixture()
    state = DensityMatrix.computational(1, 0)
    for K in (8, 16, 32):
        acc = qma_plus_amplify(circuit, 0, r, q, K, [state] * K)
        floor = 1.0 - math.exp(-2.0 * K / float(q) ** 2)
        assert acc >= floor


def test_amplify_exact_binomial_cross_check():
    circuit, r, q = amplify_fixture()
    state = DensityMatrix.computational(1, 0)
    K = 8
    acc = qma_plus_amplify(circuit, 0, r, q, K, [state] * K)
    # independent oracle: binomial(8, 1/2), accept iff |j/8 - 1/2| <= 1/4
    expected = sum(math.comb(K, j) / 2 ** K for j in range(K + 1)
                   if abs(Fraction(j, K) - Fraction(1, 2)) <= Fraction(1, 4))
    assert acc == pytest.approx(expected, abs=1e-12)


def test_amplify_entangled_matches_product_path():
    circuit, r, q = amplify_fixture()
    rng = substream(9, 0)
    a = random_mixed_state(1, rng)
    b = random_mixed_state(1, rng)
    product_path = qma_plus_amplify(circuit, 0, r, q, 2, [a, b])
    joint_path = qma_plus_amplify(circuit, 0, r, q, 2, a.tensor(b))
    assert product_path == pytest.approx(joint_path, abs=1e-10)


def test_amplify_soundness_chain_on_constructed_states():
    """|Pr[C(avg)] - r| <= 2/q + Pr[reject], exactly, on far-off registers."""
    circuit, _, q = amplify_fixture()
    x = 0
    K = 4
    regs = [DensityMatrix.computational(1, 1) for _ in range(K)]  # H|1> -> 1/2... per register prob
    probs = []
    for reg in regs:
        M = measurement_operator(circuit, x, 1)
        probs.append(float(np.real(np.trace(reg.entries @ M))))
    avg_prob = float(np.mean(probs))
    r = Fraction(31, 32)
    acc = qma_plus_amplify(circuit, x, r, q, K, regs)
    gap = abs(avg_prob - float(r))
    assert gap <= 2.0 / float(q) + (1.0 - acc) + 1e-12
    if gap > 5.0 / float(q):
        assert (1.0 - acc) > 3.0 / float(q)


def test_amplify_rejects_bad_register_count():
    circuit, r, q = amplify_fixture()
    with pytest.raises(RejectedInputError):
        qma_plus_amplify(circuit, 0, r, q, 3, [DensityMatrix.maximally_mixed(1)] * 2)


# ---------------------------------------------------------------------------
# adversary search
# ---------------------------------------------------------------------------

def test_adversary_honest_start_is_feasible():
    P = compiled_protocol()
    result = adversary_search(P, budget=1, seed=0)
    assert result.best_deviation <= 5.0 * P.alpha
    assert result.best_error <= 0.3 + 1e-9


def test_adversary_finds_break_in_inflated_protocol():
    P = compiled_protocol()
    factor = 0.45 / (5.0 * P.alpha)
    broken = with_inflated_alpha(P, factor)
    result = adversary_search(broken, budget=40, seed=2)
    assert result.violation_found
    assert result.best_error > 1.0 / 3.0
    assert result.best_deviation <= 5.0 * broken.alpha
    # the returned registers reproduce the reported scores
    assert machine_b_error(broken, list(result.registers)) == pytest.approx(
        result.best_error, abs=1e-9)


def test_adversary_intact_small_budget_finds_nothing():
    P = compiled_protocol()
    result = adversary_search(P, budget=60, seed=3)
    assert not result.violation_found


def test_adversary_deterministic_given_seed():
    P = compiled_protocol()
    a = adversary_search(P, budget=10, seed=4)
    b = adversary_search(P, budget=10, seed=4)
    assert a.best_error == b.best_error
    assert a.best_deviation == b.best_deviation


def sequential_search(P, budget, seed, steps_per_restart=40, per_step_draws=False):
    """The search one restart at a time, every candidate built as a
    validated state and read by its density-matrix trace: the reference
    that ``adversary_search`` must reproduce exactly.  A restart draws
    its moves and its unit steps in one call each, or, with
    ``per_step_draws``, one move and one scaled step per step."""
    op_stack = np.stack([measurement_operator(P.circuit, x, P.advice_qubits)
                         for x in P.domain.inputs()])
    lang = np.array([float(P.language(x)) for x in P.domain.inputs()])
    blocks = P.slots.distinct
    weights = P.slots.counts() / P.m

    def evaluate(states):
        vals = np.array([[np.real(np.trace(s.entries @ M)) for M in op_stack]
                         for s in states])
        err = float(np.max(np.abs(weights @ vals - lang)))
        dev = 0.0
        for (_, targets), v in zip(blocks, vals):
            for z, r in targets:
                dev = max(dev, abs(float(v[z]) - float(r)))
        return err, dev

    threshold = 5.0 * P.alpha
    dim = 2 * (1 << (2 * P.advice_qubits))
    best_error, best_dev, best_states = -1.0, 0.0, None
    for restart in range(budget):
        rng = substream(seed, 20, restart)
        if restart == 0:
            params = [state_to_params(honest) for honest, _ in blocks]
        else:
            params = [rng.normal(size=dim) for _ in blocks]
        states = [params_to_state(p, P.advice_qubits) for p in params]
        err, dev = evaluate(states)
        score = err - 10.0 * max(0.0, dev - threshold)
        if not per_step_draws:
            moves = rng.integers(len(blocks), size=steps_per_restart)
            noise = rng.standard_normal((steps_per_restart, dim))
        scale = 0.5
        for t in range(steps_per_restart):
            if per_step_draws:
                g = int(rng.integers(len(blocks)))
                proposal = params[g] + rng.normal(scale=scale, size=dim)
            else:
                g = int(moves[t])
                proposal = params[g] + scale * noise[t]
            cand_states = list(states)
            cand_states[g] = params_to_state(proposal, P.advice_qubits)
            cand_err, cand_dev = evaluate(cand_states)
            cand_score = cand_err - 10.0 * max(0.0, cand_dev - threshold)
            if cand_score > score:
                params[g] = proposal
                states = cand_states
                err, dev, score = cand_err, cand_dev, cand_score
            scale = max(0.05, scale * 0.93)
        if dev <= threshold and err > best_error:
            best_error, best_dev, best_states = err, dev, states
            if best_error > 1.0 / 3.0:
                break
    registers = None if best_states is None else Slots(best_states, P.slots.refs)
    return AdversarySearchResult(max(best_error, 0.0), best_dev, best_error > 1.0 / 3.0,
                                 registers)


@functools.lru_cache(maxsize=None)
def search_protocol(name):
    if name == "two-block":
        return tiny_two_register_protocol()
    P = compiled_protocol()
    return P if name == "one-block" else with_inflated_alpha(P, 0.45 / (5.0 * P.alpha))


@pytest.mark.parametrize("name, budget, seed", [
    ("one-block", 1, 0),
    ("one-block", _CHUNK - 1, 0),
    ("one-block", _CHUNK, 3),
    ("one-block", 2 * _CHUNK + 5, 4),
    ("two-block", 5, 1),
    ("two-block", _CHUNK, 2),
    ("two-block", _CHUNK + 7, 6),
    ("inflated", _CHUNK + 10, 2),
    ("inflated", 3, 5),
    ("inflated", 1, 0),
])
def test_adversary_search_equals_sequential_reference(name, budget, seed):
    P = search_protocol(name)
    assert len(P.slots.distinct) == (2 if name == "two-block" else 1)
    got, want = adversary_search(P, budget, seed), sequential_search(P, budget, seed)
    assert got.best_error == want.best_error
    assert got.best_deviation == want.best_deviation
    assert got.violation_found == want.violation_found
    assert got.violation_found == (name == "inflated")
    assert list(got.registers.refs) == list(want.registers.refs)
    assert all(np.array_equal(a.entries, b.entries)
               for a, b in zip(got.registers.distinct, want.registers.distinct, strict=True))


@pytest.mark.parametrize("name, budget, seed", [
    ("one-block", _CHUNK + 5, 0),
    ("one-block", 7, 3),
    ("inflated", _CHUNK + 10, 2),
    ("inflated", 3, 5),
])
def test_one_slot_search_keeps_the_per_step_stream(name, budget, seed):
    """With one distinct slot a move draws no bits and a scaled normal
    is the scaled standard normal, so drawing each restart's steps in
    one call changes no outcome of the draw-per-step search."""
    P = search_protocol(name)
    got = adversary_search(P, budget, seed)
    want = sequential_search(P, budget, seed, per_step_draws=True)
    assert (got.best_error, got.best_deviation) == (want.best_error, want.best_deviation)
    assert all(np.array_equal(a.entries, b.entries)
               for a, b in zip(got.registers.distinct, want.registers.distinct, strict=True))


@given(st.integers(0, 10_000), st.integers(1, 16), st.floats(1e-3, 10.0))
def test_one_slot_draws_equal_per_step_draws(salt, dim, scale):
    per_step, at_once = substream(salt, 54), substream(salt, 54)
    old = [(int(per_step.integers(1)), per_step.normal(scale=scale, size=dim))
           for _ in range(5)]
    moves, noise = at_once.integers(1, size=5), at_once.standard_normal((5, dim))
    assert moves.tolist() == [g for g, _ in old]
    assert all(np.array_equal(step, scale * z) for (_, step), z in zip(old, noise))
    assert per_step.random() == at_once.random()


@pytest.mark.parametrize("name", ["one-block", "two-block", "inflated"])
def test_adversary_search_reports_the_machines_values(name):
    P = search_protocol(name)
    result = adversary_search(P, _CHUNK + 3, seed=2)
    registers = list(result.registers)
    assert result.best_error == machine_b_error(P, registers)
    assert result.best_deviation == verifier_A(P, registers)


def two_qubit_advice_circuit():
    return Circuit(qubits=3,
                   gates=(Gate("H", 0, when_bit=0), Gate("CNOT", 1, control=0),
                          Gate("T", 1), Gate("H", 1, when_bit=1),
                          Gate("CNOT", 2, control=1), Gate("X", 2, when_bit=1)),
                   accept_qubit=2)


@given(st.integers(0, 10_000), st.sampled_from([1, 2]), st.floats(1e-3, 1e3))
def test_purified_values_equal_density_matrix_trace(salt, p, scale):
    circuit = (two_qubit_advice_circuit() if p == 2
               else Circuit(qubits=1, gates=(Gate("H", 0, when_bit=0), Gate("X", 0, when_bit=1)),
                            accept_qubit=0))
    domain = InputDomain(2)
    op_stack = np.stack([measurement_operator(circuit, x, p) for x in domain.inputs()])
    rng = substream(salt, 52)
    rows = np.concatenate([scale * rng.normal(size=(3, 2 << (2 * p))),
                           np.zeros((1, 2 << (2 * p)))])
    got = _purified_values(rows, op_stack)
    for row, values in zip(rows, got):
        rho = params_to_state(row, p)
        want = [float(np.real(np.trace(rho.entries @ M))) for M in op_stack]
        assert values == pytest.approx(want, abs=1e-12)


@given(st.integers(0, 10_000))
def test_acceptance_table_matches_accept_probability(salt):
    """1- and 2-qubit advice in one call, on a circuit with work qubits."""
    circuit, domain = two_qubit_advice_circuit(), InputDomain(2)
    rng = substream(salt, 53)
    states = [random_mixed_state(p, rng) for p in (1, 2, 2, 1)]
    table = acceptance_table(circuit, domain, states)
    assert table.shape == (len(states), domain.size)
    for row, state in zip(table, states):
        want = [accept_probability(circuit, x, state) for x in domain.inputs()]
        assert row == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# dimension check and Bloch helpers
# ---------------------------------------------------------------------------

def test_fat_quantum_constant_class():
    # circuit ignores the advice: the induced functions are all the
    # constant 1 up to float dust (dedup is table-exact)
    circuit = Circuit(qubits=2, gates=(Gate("X", 1),), accept_qubit=1)
    [report] = fat_dim_quantum_check(1, [0.25], 20, circuit, InputDomain(2), seed=0)
    assert report["measured"] in (0, 1)
    assert report["class_size"] <= 3


def test_fat_quantum_standard_circuit():
    circuit, domain, _, _ = standard_instance()
    report, *rest = fat_dim_quantum_check(1, [0.25, 0.2, 0.3, 0.4], 80, circuit, domain,
                                          seed=1)
    assert report["measured"] <= report["bound"]
    assert all(r["class_size"] == report["class_size"] for r in rest)
    dims = [r["measured"] for r in rest]
    assert all(dims[i] >= dims[i + 1] for i in range(len(dims) - 1))


def test_bloch_affine_map_reproduces_probabilities():
    circuit, domain, rho, _ = standard_instance()
    c, m = bloch_affine_map(circuit, domain)
    # Bloch vector of rho
    b = np.array([2 * rho.entries[0, 1].real, 2 * rho.entries[1, 0].imag,
                  (rho.entries[0, 0] - rho.entries[1, 1]).real])
    f = induced(circuit, domain, [rho])[0]
    for x in domain.inputs():
        assert c[x] + m[x] @ b == pytest.approx(f(x), abs=1e-9)


def test_bloch_extremal_states_match_target_on_subsets():
    circuit, domain, rho, _ = standard_instance()
    target = induced(circuit, domain, [rho])[0]
    states = bloch_extremal_states(circuit, domain, target)
    assert states
    # spot-check: for each state there is some subset on which it matches
    # the target; extremes at unconstrained inputs reach past the target
    hit_extreme = False
    for s in states:
        f = induced(circuit, domain, [s])[0]
        if max(abs(f(x) - target(x)) for x in domain.inputs()) > 0.2:
            hit_extreme = True
    assert hit_extreme


def test_acceptance_table_slices_equal_one_product(monkeypatch):
    # states of one width go through the operators in slices of at most
    # _PRODUCT_ENTRIES entries; the slicing changes no bit of the table,
    # which is each state's own trace of its product with each operator
    circuit, domain = two_qubit_advice_circuit(), InputDomain(2)
    rng = substream(7, 55)
    states = [random_mixed_state(p, rng) for p in (1, 2, 2, 1, 2, 1, 1)]
    whole = acceptance_table(circuit, domain, states)
    monkeypatch.setattr(protocol, "_PRODUCT_ENTRIES", 1)
    assert np.array_equal(acceptance_table(circuit, domain, states), whole)
    for row, state in zip(whole, states):
        assert np.array_equal(row, [np.real(np.trace(state.entries @ M)) for M in
                                    (measurement_operator(circuit, x, state.qubits)
                                     for x in domain.inputs())])
