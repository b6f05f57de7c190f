"""Edge and stress coverage: replacement branches in the winnows,
entangled amplification with three registers, tampered-report detection,
and the far ends of the domain-size range."""

import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from majcert.concepts import (BooleanFunction, InputDomain, PConceptClass,
                              RealFunction, dist_inf, dist_one, distance)
from majcert.formats import boolean_from_hex, boolean_to_hex
from majcert.qsim import Circuit, DensityMatrix, Gate, random_mixed_state
from majcert.protocol import qma_plus_amplify
from majcert.rng import substream
from majcert.suites import run_suite, verify_report
from majcert.winnow import epsilon_cover, l1_winnow, safe_winnow


def real_fn(domain, values):
    return RealFunction(domain, np.array(values, dtype=np.float64))


def two_cluster_class(domain, low_count, high_count, rng, low=0.1, high=0.9,
                      anchor=0.5, spread=0.004):
    """Members agreeing at input 0 but split into two level clusters at
    the other inputs; forces winnowing splits and replacements."""
    members = []
    for count, level in ((low_count, low), (high_count, high)):
        for _ in range(count):
            table = np.full(domain.size, level) + rng.uniform(-spread, spread,
                                                              domain.size)
            table[0] = anchor + rng.uniform(-spread, spread)
            members.append(RealFunction(domain, np.clip(table, 0, 1)))
    return PConceptClass(domain, members)


def test_safe_winnow_replacement_branch():
    domain = InputDomain(2)
    rng = substream(101, 0)
    # low cluster first (contains f*), equal cover mass on both sides:
    # the tie keeps the high side and forces f to move to g
    S = two_cluster_class(domain, 3, 3, rng)
    eps = 0.02
    cover = epsilon_cover(S, eps)
    result = safe_winnow(S, S[0], {0}, eps, cover)
    assert result.f.key() != S[0].key()  # f starts at f_star and moves only on replacement
    assert dist_inf(result.f, S[0], {0}) <= eps / 5.0


def test_l1_winnow_replacement_branch():
    # five members pairwise 0.2 apart (never violating at eps = 0.1) plus
    # an outlier at input 1; the outlier is the first violating partner
    # and sits far from the cover mass, so the measure forces f to move:
    # M_f({1}) = 5 + e^-0.45 while M_g({1}) = 5 e^-0.45 + 1
    domain = InputDomain(3)
    eps = 0.1
    members = []
    for i in range(5):
        table = np.full(domain.size, 0.5)
        table[3 + i] = 0.3  # signature input: cover-distinct, not violating
        members.append(real_fn(domain, table))
    outlier = np.full(domain.size, 0.5)
    outlier[1] = 0.95
    members.append(real_fn(domain, outlier))
    S = PConceptClass(domain, members)
    cover = epsilon_cover(S, eps)
    assert len(cover.cover) == 6
    result = l1_winnow(S, eps, cover)
    # f starts at member 0: one step at input 1 moved it to the outlier
    assert result.X == {1}
    assert result.f.key() == members[5].key()
    for g in S:
        if dist_one(result.f, g, result.X) <= 0.4 * eps:
            assert dist_inf(result.f, g) <= 2.0 * eps


def test_amplify_three_register_entangled_consistency():
    circuit = Circuit(qubits=1, gates=(Gate("H", 0),), accept_qubit=0)
    q = Fraction(6)
    r = Fraction(1, 2)
    rng = substream(103, 0)
    regs = [random_mixed_state(1, rng) for _ in range(3)]
    product_path = qma_plus_amplify(circuit, 0, r, q, 3, regs)
    joint = regs[0].tensor(regs[1]).tensor(regs[2])
    joint_path = qma_plus_amplify(circuit, 0, r, q, 3, joint)
    assert product_path == pytest.approx(joint_path, abs=1e-9)


def test_amplify_genuinely_entangled_state():
    # GHZ-correlated registers: outcomes are perfectly correlated, so the
    # count distribution concentrates on 0 and K
    circuit = Circuit(qubits=1, gates=(), accept_qubit=0)
    K = 3
    vec = np.zeros(8, dtype=np.complex128)
    vec[0] = vec[7] = 1.0 / math.sqrt(2)
    ghz = DensityMatrix.from_pure(vec)
    # accept iff |count/3 - 0| <= 2/q with q = 3: counts 0 and 1 and 2 pass
    acc = qma_plus_amplify(circuit, 0, Fraction(0), Fraction(3), K, ghz)
    # GHZ gives count 0 or 3, each with probability 1/2; only count 0 accepts
    assert acc == pytest.approx(0.5, abs=1e-12)


def test_quantum_report_tamper_detected():
    report = run_suite({"schema": 1, "suite": "quantum-protocol",
                        "parameters": {"adversary_restarts": 30,
                                       "random_states": 25}, "seed": 3})
    assert all(ok for _, ok in verify_report(report))
    record = next(r for r in report["records"] if "protocol" in r["outputs"])
    record["outputs"]["honest_b_error"] = 0.0
    assert not all(ok for _, ok in verify_report(report))


def test_boolean_function_at_n20():
    domain = InputDomain(20)
    f = BooleanFunction.point(domain, 123_456)
    assert f(123_456) == 1 and f(0) == 0
    g = BooleanFunction.zero(domain)
    assert (f.bits ^ g.bits).bit_count() == 1
    hex_text = boolean_to_hex(f)
    assert boolean_from_hex(domain, hex_text).bits == f.bits
    with pytest.raises(Exception):
        InputDomain(21)


def test_real_function_at_n14():
    domain = InputDomain(14)
    f = RealFunction.constant(domain, 0.25)
    g = RealFunction.constant(domain, 0.75)
    assert distance("inf", f, g, domain.inputs()) == pytest.approx(0.5)
    assert distance("one", f, g, domain.inputs()) == pytest.approx(0.5 * domain.size)


def test_big_class_restriction_consistency():
    domain = InputDomain(6)
    rng = substream(104, 0)
    from majcert.generators import random_boolean_class
    from majcert.concepts import Certificate, restrict_class
    S = random_boolean_class(6, 200, rng)
    cert = Certificate.of(domain, {0: 1, 17: 0, 63: 1})
    survivors = restrict_class(S, cert)
    for f in S:
        expected = f(0) == 1 and f(17) == 0 and f(63) == 1
        assert (f in survivors) == expected


def run_under_two_gigabytes(tmp_path, config: dict, timeout: float):
    """``majcert run`` on ``config`` in a child process whose address space
    is limited to 2 GB (the limit is set in the child only)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    limit = 2 * 1024 ** 3

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "majcert.cli", "run", "--config", str(path),
                           "--out", str(tmp_path / "report.json")],
                          env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=cap_memory,
                          capture_output=True, text=True, timeout=timeout)


def test_majcert_at_n20_within_two_gigabytes(tmp_path):
    # the game solvers and their validation hold only 0/1 agreement rows
    # and the float quotient, so a 4-member class at the n = 20 cap runs
    # under a 2 GB address-space limit
    done = run_under_two_gigabytes(tmp_path, {
        "schema": 1, "suite": "majcert", "seed": 1, "parameters": {
            "n": 20, "kind": "random-boolean", "class_size": 4, "instances": 1}}, 300)
    assert done.returncode == 0, done.stderr


def test_robust_majcert_at_n20_within_two_gigabytes(tmp_path):
    # the untrusted oracle checks each distinct (slot, claim) pair once and
    # votes on whole tables, not once per input over all m positions; the
    # boosted builder stops at 25 of its 69 allowed slots, whose hex
    # tables make a report of about 10 MB
    done = run_under_two_gigabytes(tmp_path, {
        "schema": 1, "suite": "majcert", "seed": 1, "parameters": {
            "n": 20, "kind": "point-functions", "point_count": 12, "robust": True,
            "instances": 1}}, 300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "report.json").stat().st_size < 25_000_000


def test_full_lp_at_n18_within_a_minute_and_80_megabytes():
    # the level-wise enumeration holds one block of subset codes at a
    # time: 2^18 one-input subsets of 16 members take seconds, and the
    # child's peak resident set stays under 80 MB.  The child reads its
    # own VmHWM: ru_maxrss keeps the high-water mark of the memory image
    # that exec replaced, which is this test process's.
    script = ("from majcert.games import solve_game_full_lp\n"
              "from majcert.generators import random_boolean_class\n"
              "from majcert.rng import substream\n"
              "S = random_boolean_class(18, 16, substream(1, 0))\n"
              "solve_game_full_lp(S, S[0], k=1)\n"
              "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert time.monotonic() - started < 60.0
    assert int(done.stdout.split()[-1]) < 80 * 1024  # VmHWM is in kB


@pytest.mark.parametrize("suite, parameters", [
    ("realmajcert", {"n": 14}),
    ("occam", {"n": 14, "instances": 1}),
    ("winnow", {"n": 14, "instances": 1}),
    ("l1winnow", {"n": 14, "instances": 1}),
])
def test_real_suite_at_n14_within_two_gigabytes(tmp_path, suite, parameters):
    # every real-valued suite finishes at the n = 14 cap; realmajcert and
    # occam do because sample schedules start from log2 |S|, not from an
    # exact fat-shattering search
    done = run_under_two_gigabytes(tmp_path, {"schema": 1, "suite": suite, "seed": 1,
                                              "parameters": parameters}, 60)
    assert done.returncode == 0, done.stderr


def test_dims_at_n10_rejects_within_its_candidate_budget(tmp_path):
    # 32 random members at n = 10 shatter nearly every pair of the 1024
    # inputs, so the dimension search's second level alone joins more
    # candidates than DIMENSION_BUDGET allows, and the run rejects the
    # class instead of exhausting memory
    started = time.monotonic()
    done = run_under_two_gigabytes(tmp_path, {
        "schema": 1, "suite": "dims", "seed": 1, "parameters": {
            "n_min": 10, "n_max": 10, "size_max": 32, "instances": 1}}, 60)
    assert done.returncode == 2, done.stderr
    assert "error:" in done.stderr and "exceeds budget" in done.stderr
    assert not (tmp_path / "report.json").exists()
    assert time.monotonic() - started < 10.0
