"""Independent checks of majcert reports, written apart from majcert.

Only numpy and the standard library are used: every table is decoded
from the report text as the package README's "File formats" section
defines it (2^n bits packed MSB-first, input 0 most significant, hex
encoded), and every property is recomputed here rather than read back
from the stored verdicts.

``check_report(report)`` returns a list of ``(name, ok)`` pairs, one per
check; each pair is one benchmark operation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

#: Slack for quantities the report stores as 12-significant-digit floats.
FLOAT_SLACK = 1e-9


def hex_bits(text: str, n: int) -> np.ndarray:
    """Truth table of a hex-encoded function: entry x is f(x)."""
    size = 1 << n
    digits = text if len(text) % 2 == 0 else "0" + text
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(digits), dtype=np.uint8))
    if len(bits) < size or bits[:len(bits) - size].any():
        raise ValueError("hex table wider than the domain")
    return bits[len(bits) - size:]


def hex_matrix(texts, n: int, cache: dict | None = None) -> np.ndarray:
    cache = {} if cache is None else cache
    rows = []
    for t in texts:
        if t not in cache:
            cache[t] = hex_bits(t, n)
        rows.append(cache[t])
    return np.stack(rows) if rows else np.zeros((0, 1 << n), dtype=np.uint8)


def ceil_log_ratio(value: int, num: int, den: int) -> int:
    """Smallest t with (num/den)^t >= value, in exact integers."""
    t = 0
    while num ** t < value * den ** t:
        t += 1
    return t


def smallest_odd_at_least(x: int) -> int:
    m = max(1, x)
    return m if m % 2 else m + 1


def cert_points(cert: dict) -> tuple:
    return [int(p, 16) for p in cert["points"]], np.array(cert["bits"], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Boolean decompositions and game strategies
# ---------------------------------------------------------------------------

def check_boolean_decomposition(dec: dict) -> list:
    n = int(dec["n"])
    cache: dict = {}
    S = hex_matrix(dec["class"], n, cache)
    target = hex_bits(dec["target"], n)
    funcs = hex_matrix(dec["funcs"], n, cache)
    m = int(dec["m"])
    robust = dec["kind"] == "robust"

    majority = (2 * funcs.sum(axis=0, dtype=np.int64) > m).astype(np.uint8)
    majority_ok = len(dec["funcs"]) == m and bool(np.array_equal(majority, target))

    isolated_ok = len(dec["certs"]) == m
    sizes = []
    for cert, f in zip(dec["certs"], funcs):
        pts, bits = cert_points(cert)
        sizes.append(len(pts))
        matches = np.all(S[:, pts] == bits[None, :], axis=1)
        isolated_ok = (isolated_ok and bool(np.array_equal(f[pts], bits))
                       and int(matches.sum()) == 1
                       and bool(np.array_equal(S[int(np.argmax(matches))], f)))

    m_bound = smallest_odd_at_least((60 if robust else 20) * n)
    m_ok = m % 2 == 1 and m <= m_bound

    size_bound = ceil_log_ratio(len(S), 10, 9) + ceil_log_ratio(len(S), 2, 1)
    size_ok = max(sizes, default=0) <= size_bound
    return [("majority_equals_target", majority_ok),
            ("certificates_isolate", isolated_ok),
            ("m_within_bound", m_ok),
            ("certificate_size_bound", size_ok)]


def check_equivalence(out: dict) -> list:
    n = int(out["n"])
    cache: dict = {}
    target = hex_bits(out["target"], n)
    weights_ok = True
    values = {}
    for side in ("full", "oracle"):
        w = np.array(out[f"{side}_weights"], dtype=np.float64)
        support = out[f"{side}_support"]
        weights_ok = (weights_ok and len(w) == len(support) and bool(np.all(w >= 0.0))
                      and abs(float(w.sum()) - 1.0) <= 1e-9)
        tables = hex_matrix([fhex for _, fhex in support], n, cache)
        agree = (tables == target[None, :]).astype(np.float64)
        values[side] = float((w @ agree).min()) if len(w) == len(support) else math.inf
    value_ok = (abs(values["full"] - float(out["full_value"])) <= 1e-9
                and abs(values["oracle"] - float(out["oracle_value"])) <= 1e-9)
    gap_ok = abs(float(out["full_value"]) - float(out["oracle_value"])) <= 1e-6
    return [("strategy_weights", weights_ok),
            ("game_value_recomputed", value_ok),
            ("full_matches_oracle", gap_ok)]


# ---------------------------------------------------------------------------
# Real-valued records
# ---------------------------------------------------------------------------

def check_real_decomposition(dec: dict) -> list:
    T = np.array(dec["class_tables"], dtype=np.float64)
    target = T[int(dec["target"])]
    m, alpha, eps = int(dec["m"]), float(dec["alpha"]), float(dec["eps"])
    ok = len(dec["funcs"]) == m and len(dec["certs"]) == m
    slots: dict = {}
    for f, cert in zip(dec["funcs"], dec["certs"]):
        key = (int(f), tuple(int(p, 16) for p in cert["points"]))
        slots[key] = slots.get(key, 0) + 1
    lo = np.zeros(T.shape[1])
    hi = np.zeros(T.shape[1])
    for (f, xs), count in slots.items():
        xs = list(xs)
        if xs:
            admissible = np.abs(T[:, xs] - T[f, xs][None, :]).max(axis=1) <= alpha + FLOAT_SLACK
        else:
            admissible = np.ones(len(T), dtype=bool)
        if not admissible.any():
            return [("real_envelope_within_eps", False)]
        lo += count * T[admissible].min(axis=0)
        hi += count * T[admissible].max(axis=0)
    dev = np.maximum(np.abs(target - lo / m), np.abs(target - hi / m))
    return [("real_envelope_within_eps", ok and bool(np.all(dev <= eps + FLOAT_SLACK)))]


def brute_force_vc(V: np.ndarray) -> int:
    """Largest d such that some d inputs carry all 2^d patterns."""
    dim = 0
    for d in range(1, V.shape[1] + 1):
        if len(V) < (1 << d):
            break
        weights = 1 << np.arange(d)
        if not any(len(np.unique(V[:, list(A)] @ weights)) == (1 << d)
                   for A in itertools.combinations(range(V.shape[1]), d)):
            break
        dim = d
    return dim


def non_increasing(gammas, dims) -> bool:
    return (len(gammas) == len(dims)
            and all(a < b for a, b in zip(gammas, gammas[1:]))
            and all(a >= b for a, b in zip(dims, dims[1:])))


def check_dims(out: dict) -> list:
    if out["kind"] == "boolean":
        V = hex_matrix(out["class"], int(out["n"])).astype(np.int64)
        vc = brute_force_vc(V)
        return [("vc_brute_force", out.get("vc") == vc),
                ("fat_quarter_equals_vc", out.get("fat_quarter") == vc)]
    return [("fat_non_increasing", non_increasing(out["gammas"], out.get("dims", [])))]


def check_winnow(out: dict) -> list:
    T = np.array(out["tables"], dtype=np.float64)
    f, f_star = T[int(out["f"])], T[int(out["f_star"])]
    Y, Z = list(out["Y"]), list(out["Z"])
    eps = float(out["eps"])
    log_cover = math.log2(len(out["cover"]))
    delta = eps / (5.0 * max(log_cover, 1.0))
    YZ = sorted(set(Y) | set(Z))
    near = (np.abs(T[:, YZ] - f[None, YZ]).max(axis=1) <= delta + FLOAT_SLACK
            if YZ else np.ones(len(T), dtype=bool))
    far = np.abs(T - f[None, :]).max(axis=1) > 3.0 * eps + FLOAT_SLACK
    conclusion_ii = (float(np.abs(f[Y] - f_star[Y]).max()) if Y else 0.0) <= eps / 5.0 + FLOAT_SLACK
    return [("winnow_conclusion_i", not bool(np.any(near & far))),
            ("winnow_conclusion_ii", conclusion_ii),
            ("winnow_z_within_log_cover", len(Z) <= log_cover + 1e-12)]


# ---------------------------------------------------------------------------
# Quantum-protocol records: a 2x2 simulation of the circuit text
# ---------------------------------------------------------------------------

_GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
_ACCEPT = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def acceptance_operators(circuit_text: str, n: int) -> list:
    """Per input x, the 2x2 operator M_x with Pr[accept] = Tr(rho M_x).

    Only one-qubit circuits (advice = whole register) are simulated."""
    lines = [ln.split() for ln in circuit_text.splitlines() if ln.strip()]
    header = dict(tok.split("=") for tok in lines[0])
    if int(header["qubits"]) != 1 or int(header["accept"]) != 0:
        raise ValueError("the checker simulates one-qubit circuits only")
    gates = []
    for tokens in lines[1:]:
        if int(tokens[1]) != 0 or any(not t.startswith("x") for t in tokens[2:]):
            raise ValueError(f"unsupported gate line {' '.join(tokens)!r}")
        bits = [int(t[1:]) for t in tokens[2:]]
        gates.append((_GATES[tokens[0].upper()], bits[0] if bits else None))
    ops = []
    for x in range(1 << n):
        U = np.eye(2, dtype=np.complex128)
        for G, bit in gates:
            if bit is None or (x >> bit) & 1:
                U = G @ U
        ops.append(U.conj().T @ _ACCEPT @ U)
    return ops


def accept_prob(rho: np.ndarray, M: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ M)))


def check_honest_protocol(out: dict) -> list:
    proto = out["protocol"]
    n = int(proto["n"])
    ops = acceptance_operators(proto["circuit"], n)
    states = [np.array([complex(re, im) for re, im in s]).reshape(2, 2)
              for s in proto["state_tables"]]
    regs = [states[int(i)] for i in proto["advice_refs"]]
    alpha = float(proto["alpha"])
    within = len(regs) == len(proto["targets"]) == int(proto["m"])
    for rho, slot in zip(regs, proto["targets"]):
        for z_hex, r in slot:
            within = within and abs(accept_prob(rho, ops[int(z_hex, 16)])
                                    - float(Fraction(r))) <= alpha + FLOAT_SLACK
    language = hex_bits(proto["language"], n)
    b_error = max(abs(float(np.mean([accept_prob(rho, ops[x]) for rho in regs]))
                      - float(language[x])) for x in range(1 << n))
    return [("honest_constraints_within_alpha", within),
            ("honest_machine_b_error", b_error <= 0.3)]


def check_amplification(out: dict, q: int) -> list:
    """The suite amplifies the H-circuit on |0> (acceptance 1/2) towards
    r = 1/2; acceptance is the binomial mass of |j/K - r| <= 2/q."""
    ket0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    H_accept = acceptance_operators("qubits=1 accept=0\nH 0\n", 1)[0]
    p = Fraction(accept_prob(ket0, H_accept)).limit_denominator(1 << 16)
    r = Fraction(1, 2)
    checks = []
    for entry in out["amplification"]:
        K = int(entry["K"])
        exact = sum(Fraction(math.comb(K, j)) * p ** j * (1 - p) ** (K - j)
                    for j in range(K + 1) if abs(Fraction(j, K) - r) <= Fraction(2) / q)
        floor = 1.0 - math.exp(-2.0 * K / float(q) ** 2)
        acceptance = float(entry["acceptance"])
        checks.append((f"amplification_K{K}_binomial", abs(acceptance - float(exact)) <= FLOAT_SLACK))
        checks.append((f"amplification_K{K}_chernoff", acceptance >= floor))
    return checks


def check_quantum(out: dict, q: int) -> list:
    if "protocol" in out:
        return check_honest_protocol(out)
    if "conditional_soundness_bound" in out:
        return check_real_decomposition(out["decomposition"])
    if "amplification" in out:
        return check_amplification(out, q)
    if "fat_quarter" in out:
        return [("fat_non_increasing", non_increasing(out["gammas"], out["dims"]))]
    return []


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def check_report(report: dict) -> list:
    suite = report["suite"]
    checks = []
    for record in report["records"]:
        out = record["outputs"]
        if suite == "majcert":
            found = check_boolean_decomposition(out["decomposition"])
        elif suite == "equivalence":
            found = check_equivalence(out)
        elif suite == "realmajcert":
            found = check_real_decomposition(out["decomposition"])
        elif suite == "dims":
            found = check_dims(out)
        elif suite == "winnow":
            found = check_winnow(out)
        elif suite == "quantum-protocol":
            found = check_quantum(out, int(report["config"]["parameters"]["amplify_q"]))
        else:
            found = []
        checks += [(f"{suite}[{record['index']}].{name}", bool(ok)) for name, ok in found]
    return checks
