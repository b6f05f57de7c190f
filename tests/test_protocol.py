"""Compiled advice protocols: induced classes, machines A and B,
amplification arithmetic, the exact adversary search."""

import functools
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from majcert.concepts import BooleanFunction, InputDomain, Slots
from majcert.decompose import verify_real_decomposition
from majcert.errors import EnumerationBudgetExceeded, RejectedInputError, VerificationDefect
import majcert.protocol as protocol
from majcert.protocol import (acceptance_table, adversary_search, bloch_affine_map,
                              compile_advice, conditional_soundness_bound,
                              fat_dim_quantum_check, induced_with_states,
                              machine_b_error, qma_plus_amplify, verifier_A,
                              with_inflated_alpha)
from majcert.qsim import Circuit, DensityMatrix, Gate, measurement_operator
from majcert.rng import substream
from majcert.winnow import fat_shattering_dim
from references import (accept_probability, as_slots, corner_fat_dims, eigen_ensemble,
                        joint_amplify, maximally_mixed, random_mixed_state, reduced_state,
                        tensor)


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


def compiled_protocol(seed=13, eps=0.1):
    circuit, _, rho, language = standard_instance()
    return compile_advice(circuit, rho, language, eps, seed=seed)


# ---------------------------------------------------------------------------
# induced classes
# ---------------------------------------------------------------------------

def test_induced_maximally_mixed_is_half():
    circuit = Circuit(qubits=1, gates=(), accept_qubit=0)
    domain = InputDomain(2)
    cls = induced(circuit, domain, [maximally_mixed(1)])
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
    state = maximally_mixed(1)
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
                       for lam, v in eigen_ensemble(state))
        assert f(x) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# compile + machines
# ---------------------------------------------------------------------------

def test_compile_trivial_language():
    # circuit ignoring the advice: X then measure gives constant 1
    circuit = Circuit(qubits=2, gates=(Gate("X", 1),), accept_qubit=1)
    domain = InputDomain(1)
    language = BooleanFunction.from_values(domain, [1, 1])
    rho = maximally_mixed(1)
    P = compile_advice(circuit, rho, language, eps=0.1, seed=0)
    assert P.m == 1
    assert verifier_A(P, P.honest_registers()) <= 5.0 * P.alpha
    assert machine_b_error(P, P.honest_registers()) == pytest.approx(0.0, abs=1e-9)


def test_compile_rejects_premise_violation():
    circuit, domain, _, language = standard_instance()
    bad_rho = DensityMatrix.computational(1, 0)  # f = (0, .5, 1, .5): off by .5
    with pytest.raises(RejectedInputError):
        compile_advice(circuit, bad_rho, language, eps=0.1, seed=0)


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
    assert machine_b_error(P, as_slots(P, [reg] * P.m)) == pytest.approx(expected, abs=1e-12)


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
    for joint in (bell,
                  DensityMatrix(2, 0.5 * (DensityMatrix.computational(2, 0).entries
                                          + DensityMatrix.computational(2, 3).entries))):
        regs = [reduced_state(joint, [0]), reduced_state(joint, [1])]
        joint, regs = as_slots(P, joint), as_slots(P, regs)
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
    P = compile_advice(circuit, rho, language, eps=0.2, seed=5)
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
    mixed = as_slots(P, [maximally_mixed(1)] * P.m)
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
        machine_b_error(P, as_slots(P, list(P.honest_registers())[1:]))
    with pytest.raises(RejectedInputError):
        verifier_A(P, as_slots(P, maximally_mixed(2)))
    with pytest.raises(RejectedInputError, match="width"):
        verifier_A(P, Slots([maximally_mixed(2)], (0,) * P.m))


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
    joint_path = joint_amplify(circuit, 0, r, q, 2, tensor(a, b))
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
        qma_plus_amplify(circuit, 0, r, q, 3, [maximally_mixed(1)] * 2)


# ---------------------------------------------------------------------------
# adversary search
# ---------------------------------------------------------------------------

def test_adversary_honest_start_is_feasible():
    """Machine A accepts the honest registers, so the exact worst case is
    at least their error, and machine A accepts its registers too."""
    P = compiled_protocol()
    result = adversary_search(P)
    assert result.best_deviation <= 5.0 * P.alpha + 1e-12
    assert result.best_error >= machine_b_error(P, P.honest_registers())
    assert result.best_error <= 0.3


def test_adversary_finds_break_in_inflated_protocol():
    P = compiled_protocol()
    factor = 0.45 / (5.0 * P.alpha)
    broken = with_inflated_alpha(P, factor)
    result = adversary_search(broken)
    assert result.best_error > 1.0 / 3.0
    assert result.best_deviation <= 5.0 * broken.alpha + 1e-12
    # the returned registers reproduce the reported scores
    assert machine_b_error(broken, as_slots(broken, list(result.registers))) == pytest.approx(
        result.best_error, abs=1e-9)


def test_adversary_intact_protocol_is_sound():
    P = compiled_protocol()
    assert adversary_search(P).best_error <= 1.0 / 3.0


@pytest.mark.parametrize("seed", range(3))
def test_compiled_protocols_are_sound_against_all_advice(seed):
    assert adversary_search(compiled_protocol(seed=seed)).best_error <= 0.3


def test_compile_rounds_cap_raises_a_typed_error(tmp_path, capsys, monkeypatch):
    """The standard instance needs three rounds: the honest state alone
    and the class after one adversary round are both unsound.  With two
    rounds allowed, compiling raises and ``majcert run`` exits 2."""
    from majcert.cli import main
    monkeypatch.setattr(protocol, "COMPILE_ROUNDS", 2)
    with pytest.raises(EnumerationBudgetExceeded, match="compile rounds"):
        compiled_protocol()
    config = tmp_path / "cfg.json"
    config.write_text('{"schema": 1, "suite": "quantum-protocol", "parameters": {}}')
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert "error: compile rounds: 3 exceeds budget 2" in capsys.readouterr().err


def bit_family_instance(n):
    """One advice qubit at n input bits: Z when bit 2 is set, then H when
    bit 0 is set, then X for each set odd bit; the honest state is
    |psi_{pi/8}>, and the language rounds its acceptance probabilities."""
    gates = ((Gate("Z", 0, when_bit=2),) if n > 2 else ()) + (Gate("H", 0, when_bit=0),)
    gates += tuple(Gate("X", 0, when_bit=b) for b in range(1, n, 2))
    circuit = Circuit(qubits=1, gates=gates, accept_qubit=0)
    domain = InputDomain(n)
    theta = math.pi / 8.0
    rho = DensityMatrix.from_pure(np.array([math.cos(theta), math.sin(theta)]))
    f = acceptance_table(circuit, domain, [rho])[0]
    return circuit, rho, BooleanFunction.from_values(domain, (f > 0.5).astype(int).tolist())


@pytest.mark.parametrize("n", range(2, 7))
def test_compile_scales_over_the_bit_family(n):
    """The compile loop certifies the family at every width, and the
    alpha-inflated protocol is broken; n = 6 compiles well within 5 s."""
    circuit, rho, language = bit_family_instance(n)
    started = time.monotonic()
    P = compile_advice(circuit, rho, language, eps=0.1, seed=n)
    intact = adversary_search(P).best_error
    elapsed = time.monotonic() - started
    broken = adversary_search(with_inflated_alpha(P, max(50.0, 0.45 / (5.0 * P.alpha))))
    assert intact <= 1.0 / 3.0 < broken.best_error
    assert elapsed < 5.0


@functools.lru_cache(maxsize=None)
def search_protocol(name):
    if name == "two-block":
        return tiny_two_register_protocol()
    P = compiled_protocol()
    return P if name == "one-block" else with_inflated_alpha(P, 0.45 / (5.0 * P.alpha))


@pytest.mark.parametrize("name", ["one-block", "two-block", "inflated"])
def test_adversary_search_reports_the_machines_values(name):
    P = search_protocol(name)
    result = adversary_search(P)
    registers = as_slots(P, list(result.registers))
    assert result.best_error == machine_b_error(P, registers)
    assert result.best_deviation == verifier_A(P, registers)


def ball_grid(steps=41, sphere_points=20_000):
    """Cube-grid points inside the Bloch ball plus a Fibonacci lattice on
    its sphere."""
    axis = np.linspace(-1.0, 1.0, steps)
    cube = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
    i = np.arange(sphere_points) + 0.5
    z = 1.0 - 2.0 * i / sphere_points
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    ring = np.sqrt(1.0 - z * z)
    sphere = np.stack([ring * np.cos(phi), ring * np.sin(phi), z], axis=1)
    return np.concatenate([cube[np.linalg.norm(cube, axis=1) <= 1.0], sphere])


def slab_grid(c, m, targets, width, steps=21, circle=200):
    """Bloch vectors near one slot's slabs, however thin: offsets from the
    slabs' least-squares centre over the slab box along the row space of
    their normals, each combined with a grid over the null space and with
    the points where the null space meets the sphere."""
    zs = [z for z, _ in targets]
    A, d = m[zs], np.array([float(r) for _, r in targets]) - c[zs]
    b0 = np.linalg.lstsq(A, d, rcond=None)[0]
    _, sv, vt = np.linalg.svd(A)
    rank = int(np.sum(sv > 1e-10))
    half = math.sqrt(rank) * width / sv[:rank]
    offsets = np.stack(np.meshgrid(*[np.linspace(-h, h, steps) for h in half]),
                       axis=-1).reshape(-1, rank) @ vt[:rank]
    base = b0 + offsets
    null = vt[rank:]
    if not len(null):
        return base
    axis = np.linspace(-1.0, 1.0, steps)
    inner = np.stack(np.meshgrid(*[axis] * len(null)), axis=-1).reshape(-1, len(null))
    angles = np.linspace(0.0, 2.0 * math.pi, circle, endpoint=False)
    unit = (np.array([[1.0], [-1.0]]) if len(null) == 1
            else np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, :len(null)])
    reach = np.sqrt(np.maximum(0.0, 1.0 - np.sum(base * base, axis=1)))
    edge = (base[:, None] + reach[:, None, None] * (unit @ null)[None]).reshape(-1, 3)
    interior = (base[:, None] + (inner @ null)[None]).reshape(-1, 3)
    return np.concatenate([edge, interior])


def grid_extremes(c, m, targets, width, points):
    """The maximum of s * (c[x] + m[x] . b) over the grid points b in the
    ball that meet the slot's slabs, in ``_slot_extremes``'s order."""
    points = points[np.linalg.norm(points, axis=1) <= 1.0]
    values = c + points @ m.T
    zs = [z for z, _ in targets]
    r = np.array([float(v) for _, v in targets])
    feasible = np.all(np.abs(values[:, zs] - r) <= width, axis=1)
    assert feasible.any()
    kept = values[feasible]
    return np.stack([kept.max(axis=0), (-kept).max(axis=0)], axis=1).ravel()


@pytest.mark.parametrize("name", ["one-block", "two-block", "inflated"])
def test_adversary_search_is_never_beaten_by_a_bloch_grid(name):
    """Over some 50,000 grid points per slot, no advice that machine A
    accepts errs by more than the exact worst case; the grid comes close
    to it."""
    P = search_protocol(name)
    c, m = bloch_affine_map(P.circuit, P.domain)
    width = 5.0 * P.alpha
    ext = np.array([grid_extremes(c, m, targets, width,
                                  np.concatenate([ball_grid(), slab_grid(c, m, targets, width)]))
                    for _, targets in P.slots.distinct])
    signs = np.tile([1.0, -1.0], P.domain.size)
    grid_error = np.max(P.slots.counts() / P.m @ ext - signs * np.repeat(P.language.values(), 2))
    exact = adversary_search(P).best_error
    assert grid_error <= exact + 1e-9
    assert grid_error >= exact - 1e-3


@pytest.mark.parametrize("salt", range(20))
def test_slot_extremes_are_never_beaten_by_a_bloch_grid(salt):
    """Random affine maps and slabs around a random Bloch vector, one to
    four of them, of one random width: no grid point beats the exact
    extremes, and the grid comes within 0.02 of each."""
    rng = substream(salt, 56)
    c = rng.uniform(0.2, 0.8, size=4)
    m = rng.normal(scale=0.3, size=(4, 3))
    inside = rng.normal(size=3)
    inside *= rng.uniform() ** (1 / 3) / np.linalg.norm(inside)
    width = float(rng.uniform(0.01, 0.3))
    zs = sorted(rng.choice(4, size=int(rng.integers(1, 5)), replace=False).tolist())
    targets = [(z, c[z] + m[z] @ inside + rng.uniform(-width, width) / 2) for z in zs]
    values, points = protocol._slot_extremes(c, m, targets, width)
    grid = grid_extremes(c, m, targets, width,
                         np.concatenate([ball_grid(), slab_grid(c, m, targets, width)]))
    assert np.all(grid <= values + 1e-9)
    assert np.all(grid >= values - 0.02)
    # every reported maximizer lies in the ball, meets the slabs and attains its value
    attained = np.stack([c + points @ m.T, -(c + points @ m.T)], axis=-1)
    assert np.allclose(attained[np.arange(8), np.arange(8) // 2, np.arange(8) % 2],
                       values, atol=1e-12)
    assert np.all(np.linalg.norm(points, axis=1) <= 1.0 + 1e-12)
    assert np.all(np.abs(c[zs] + points @ m[zs].T - [r for _, r in targets]) <= width + 1e-12)


@pytest.mark.parametrize("name", ["one-block", "two-block", "inflated"])
def test_adversary_search_bounds_the_compiled_class(name):
    """The compiled class holds advice states, so its exact bound cannot
    exceed the worst case over all of them."""
    P = search_protocol(name)
    assert adversary_search(P).best_error >= conditional_soundness_bound(P) - 1e-9


def test_adversary_search_rejects_two_qubit_advice():
    P = tiny_two_register_protocol()
    wide = replace(P, circuit=Circuit(qubits=2, gates=(), accept_qubit=0), advice_qubits=2)
    with pytest.raises(RejectedInputError):
        adversary_search(wide)


def two_qubit_advice_circuit():
    return Circuit(qubits=3,
                   gates=(Gate("H", 0, when_bit=0), Gate("CNOT", 1, control=0),
                          Gate("T", 1), Gate("H", 1, when_bit=1),
                          Gate("CNOT", 2, control=1), Gate("X", 2, when_bit=1)),
                   accept_qubit=2)


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
    # circuit ignores the advice: m = 0, so every sign pattern lies
    # outside range(m_T) and no set has a positive margin
    circuit = Circuit(qubits=2, gates=(Gate("X", 1),), accept_qubit=1)
    assert fat_dim_quantum_check([0.25], circuit, InputDomain(2)) == [
        {"measured": 0, "bound": 16.0}]


def test_fat_quantum_standard_circuit():
    """Every one-qubit state on the standard instance: margin 1/2 on the
    singletons and 1/(2 sqrt 2) on {0,1}, {0,3}, {1,2} and {2,3}."""
    circuit, domain, _, _ = standard_instance()
    gammas = [0.25, 0.2, 0.3, 0.4]
    reports = fat_dim_quantum_check(gammas, circuit, domain)
    assert [r["measured"] for r in reports] == [2, 2, 2, 1]
    assert [r["bound"] for r in reports] == [1.0 / (g * g) for g in gammas]


def hsh_circuit(middle):
    """H on bit 0, the ``middle`` gates on bit 1 and H on bit 2, one qubit."""
    return Circuit(qubits=1, gates=(Gate("H", 0, when_bit=0),
                                    *(Gate(name, 0, when_bit=1) for name in middle),
                                    Gate("H", 0, when_bit=2)), accept_qubit=0)


def test_fat_quantum_three_bit_circuit():
    # H, S = T T and H on bits 0, 1 and 2: some 3 inputs shatter up to 1/4
    reports = fat_dim_quantum_check([0.1, 0.2, 0.25, 0.3], hsh_circuit("TT"), InputDomain(3))
    assert [r["measured"] for r in reports] == [3, 3, 3, 2]


def test_fat_quantum_margin_at_a_gamma_raises():
    """The singletons' margin is exactly 1/2 on the standard instance, so
    gamma = 1/2 is a tie; H/T/H's {6, 7} margin rounds to just under 1/4,
    but other pairs hold the dimension at 2 on both sides of 1/4."""
    circuit, domain, _, _ = standard_instance()
    with pytest.raises(RejectedInputError, match="margin"):
        fat_dim_quantum_check([0.25, 0.5], circuit, domain)
    [report] = fat_dim_quantum_check([0.25], hsh_circuit("T"), InputDomain(3))
    assert report["measured"] == 2


def test_fat_quantum_budget_counts_sets_before_any_pinv(monkeypatch):
    """n = 7 has 349,632 sets of at most 3 inputs, over DIMENSION_BUDGET."""
    def refuse(*args):
        raise AssertionError("a witness state or a pseudo-inverse was built")

    monkeypatch.setattr(protocol, "params_to_state", refuse)
    monkeypatch.setattr(np.linalg, "pinv", refuse)
    with pytest.raises(EnumerationBudgetExceeded) as raised:
        fat_dim_quantum_check([0.25], hsh_circuit("T"), InputDomain(7))
    assert raised.value.count == 349_632


def alternating_circuit(n):
    """H and T alternating on bits 0 to n - 1 of one qubit."""
    return Circuit(qubits=1, gates=tuple(Gate("HT"[i % 2], 0, when_bit=i) for i in range(n)),
                   accept_qubit=0)


def test_fat_quantum_five_bit_circuit_is_fast():
    """H, T, H, T, H: 1,360 sets, which the corner class's shattering search
    took minutes over at gamma = 0.1."""
    started = time.perf_counter()
    reports = fat_dim_quantum_check([0.1, 0.2, 0.25, 0.3, 0.4], alternating_circuit(5),
                                    InputDomain(5))
    assert time.perf_counter() - started < 1.0
    assert [r["measured"] for r in reports] == [3, 3, 3, 2, 1]


def test_fat_quantum_six_bit_domain_certifies():
    """n = 6: 43,744 sets, under DIMENSION_BUDGET, in one batch per size."""
    reports = fat_dim_quantum_check([0.1, 0.25, 0.4], alternating_circuit(6), InputDomain(6))
    assert [r["measured"] for r in reports] == [3, 3, 1]


def random_one_qubit_circuit(n, rng):
    """1 to 6 gates drawn from H, T, X and Z, each on a random input bit."""
    return Circuit(qubits=1, gates=tuple(
        Gate("HTXZ"[int(rng.integers(4))], 0, when_bit=int(rng.integers(n)))
        for _ in range(int(rng.integers(1, 7)))), accept_qubit=0)


def fat_outcome(check, gammas, circuit, domain):
    """The measured dimensions, or the typed error of a tie."""
    try:
        return [r["measured"] for r in check(gammas, circuit, domain)]
    except RejectedInputError as error:
        return type(error)


@pytest.mark.parametrize("seed", range(9))
def test_fat_quantum_equals_the_corner_class_reference(seed):
    domain = InputDomain(2 + seed % 3)
    circuit = random_one_qubit_circuit(domain.n, substream(41, seed))
    gammas = [0.1, 0.2, 0.25, 0.3, 0.4]
    assert (fat_outcome(fat_dim_quantum_check, gammas, circuit, domain)
            == fat_outcome(corner_fat_dims, gammas, circuit, domain))


def test_fat_quantum_witness_guard_catches_a_wrong_map(monkeypatch):
    """With m doubled every margin doubles, so the pair {0, 1} of the standard
    instance claims 1/sqrt 2 >= 0.4; its witness states land at 1/(2 sqrt 2)."""
    circuit, domain, _, _ = standard_instance()
    c, m = bloch_affine_map(circuit, domain)
    monkeypatch.setattr(protocol, "bloch_affine_map", lambda *args: (c, 2.0 * m))
    with pytest.raises(VerificationDefect, match="witness"):
        fat_dim_quantum_check([0.4], circuit, domain)


def random_pure_states(count, rng):
    vectors = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    return [DensityMatrix.from_pure(v) for v in vectors]


@pytest.mark.parametrize("circuit, n, gammas", [
    (standard_instance()[0], 2, [0.2, 0.25, 0.3, 0.4]),
    (hsh_circuit("TT"), 3, [0.1, 0.2, 0.25, 0.3]),
    (hsh_circuit("T"), 3, [0.25]),
], ids=["standard", "hsh", "hth"])
def test_fat_quantum_is_never_beaten_by_sampled_states(circuit, n, gammas):
    domain = InputDomain(n)
    sampled, _ = induced_with_states(circuit, domain, random_pure_states(200, substream(4, n)))
    exact = fat_dim_quantum_check(gammas, circuit, domain)
    assert all(fat_shattering_dim(sampled, g) <= r["measured"] for g, r in zip(gammas, exact))


def test_fat_quantum_counts_a_pair_the_old_sample_missed():
    """Bloch vectors (+-0.6, 0, +-0.6) take inputs 0 and 1 of the standard
    instance to 0.2 or 0.8 each, so they 0.3-shatter {0, 1} around 1/2:
    the dimension at 0.3 is 2, where 300 sampled states read 1."""
    circuit, domain, _, _ = standard_instance()
    states = [DensityMatrix(1, 0.5 * np.array([[1 + z, x], [x, 1 - z]]))
              for x in (0.6, -0.6) for z in (0.6, -0.6)]
    table = acceptance_table(circuit, domain, states)[:, :2]
    assert sorted(map(tuple, np.sign(table - 0.5))) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert np.abs(table - 0.5).min() == pytest.approx(0.3, abs=1e-12)
    [report] = fat_dim_quantum_check([0.3], circuit, domain)
    assert report["measured"] == 2


def test_bloch_affine_map_reproduces_probabilities():
    circuit, domain, rho, _ = standard_instance()
    c, m = bloch_affine_map(circuit, domain)
    # Bloch vector of rho
    b = np.array([2 * rho.entries[0, 1].real, 2 * rho.entries[1, 0].imag,
                  (rho.entries[0, 0] - rho.entries[1, 1]).real])
    f = induced(circuit, domain, [rho])[0]
    for x in domain.inputs():
        assert c[x] + m[x] @ b == pytest.approx(f(x), abs=1e-9)


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
