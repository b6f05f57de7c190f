"""File formats and canonical serialization.

Truth tables: a header line ``n=<int>`` followed by one function per
line, the 2^n table bits packed MSB-first (the bit for input 0 is the
most significant) and hex-encoded with fixed width.

Real tables: CSV, one row per function, 2^n decimal values; values are
written with shortest-roundtrip precision so tables survive a write/read
cycle bit-exactly.

Circuits: header ``qubits=<int> accept=<int>``, then one gate per line:
``NAME target [control] [xN]`` where ``control`` is the CNOT control
qubit and an ``xN`` token conditions the gate on classical input bit N.

Winnowing traces: line-oriented ``step=<t> action=<split|replace|add>
input=<hex> ...`` records.

Reports and artifacts: canonical JSON with sorted keys and floats fixed
to 12 significant digits, so byte-identical configuration yields
byte-identical files.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .concepts import (REAL_ATOL, BooleanFunction, Certificate, ConceptClass,
                       InputDomain, PConceptClass, RealFunction)
from .errors import RejectedInputError
from .qsim import Circuit, DensityMatrix, Gate

# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------

def _hex_width(n: int) -> int:
    return max(1, ((1 << n) + 3) >> 2)


def boolean_to_hex(f: BooleanFunction) -> str:
    # bit x of f.bits is f(x); reversing the binary string puts f(0) first
    msb_first = format(f.bits, "0{}b".format(f.domain.size))[::-1]
    return format(int(msb_first, 2), "0{}x".format(_hex_width(f.domain.n)))


def boolean_from_hex(domain: InputDomain, text: str) -> BooleanFunction:
    value = int(text, 16)
    if value >= (1 << domain.size):
        raise RejectedInputError("hex table wider than the domain")
    return BooleanFunction(domain, int(format(value, "0{}b".format(domain.size))[::-1], 2))


def write_truth_tables(path, S: ConceptClass) -> None:
    lines = [f"n={S.domain.n}"] + [boolean_to_hex(f) for f in S]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_truth_tables(path) -> ConceptClass:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise RejectedInputError("missing n=<int> header")
    domain = InputDomain(int(lines[0][2:]))
    return ConceptClass(domain, [boolean_from_hex(domain, ln) for ln in lines[1:]])


# ---------------------------------------------------------------------------
# Real tables
# ---------------------------------------------------------------------------

def write_real_tables(path, S: PConceptClass) -> None:
    with open(path, "w") as fh:
        for f in S:
            fh.write(",".join(repr(float(v)) for v in f.table) + "\n")


def read_real_tables(path, domain: InputDomain) -> PConceptClass:
    members = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln:
                continue
            members.append(RealFunction(domain, np.array([float(v) for v in ln.split(",")])))
    return PConceptClass(domain, members)


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

def write_circuit(path, circuit: Circuit) -> None:
    with open(path, "w") as fh:
        fh.write(circuit_to_text(circuit))


def circuit_to_text(circuit: Circuit) -> str:
    lines = [f"qubits={circuit.qubits} accept={circuit.accept_qubit}"]
    for g in circuit.gates:
        parts = [g.name, str(g.target)]
        if g.control is not None:
            parts.append(str(g.control))
        if g.when_bit is not None:
            parts.append(f"x{g.when_bit}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise RejectedInputError("empty circuit file")
    header = dict(part.split("=") for part in lines[0].split())
    try:
        qubits = int(header["qubits"])
        accept = int(header["accept"])
    except KeyError as exc:
        raise RejectedInputError("circuit header must set qubits= and accept=") from exc
    gates = []
    for ln in lines[1:]:
        tokens = ln.split()
        name = tokens[0].upper()
        target = int(tokens[1])
        control = None
        when = None
        for tok in tokens[2:]:
            if tok.startswith("x"):
                when = int(tok[1:])
            else:
                control = int(tok)
        gates.append(Gate(name=name, target=target, control=control, when_bit=when))
    return Circuit(qubits=qubits, gates=tuple(gates), accept_qubit=accept)


def read_circuit(path) -> Circuit:
    with open(path) as fh:
        return circuit_from_text(fh.read())


# ---------------------------------------------------------------------------
# Winnowing traces
# ---------------------------------------------------------------------------

def format_hex_input(x: int) -> str:
    return format(x, "#x")


def safe_winnow_trace_lines(result) -> list:
    lines = []
    for t, step in enumerate(result.trace, start=1):
        lines.append(f"step={t} action=split input={format_hex_input(step.z)} "
                     f"|S◇|={step.cover_survivors}")
        if step.replaced:
            lines.append(f"step={t} action=replace input={format_hex_input(step.z)} "
                         f"|S◇|={step.cover_survivors}")
    return lines


def l1_winnow_trace_lines(result, steps) -> list:
    lines = []
    for t, step in enumerate(steps, start=1):
        lines.append(f"step={t} action=add input={format_hex_input(step.y)} "
                     f"M={format_float(step.progress)}")
        if step.replaced:
            lines.append(f"step={t} action=replace input={format_hex_input(step.y)} "
                         f"M={format_float(step.progress)}")
    return lines


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise RejectedInputError("non-finite float in a report")
    if x == int(x) and abs(x) < 1e15:
        return repr(int(x)) + ".0"
    return format(x, ".12g")


def _canonical(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return _canonical(sorted(obj))
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    raise RejectedInputError(f"cannot canonically serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    return _canonical(obj) + "\n"


# ---------------------------------------------------------------------------
# Artifact serialization (decompositions and protocols)
# ---------------------------------------------------------------------------

def certificate_to_json(cert: Certificate) -> dict:
    return {"points": [format_hex_input(x) for x, _ in cert.assignments],
            "bits": [b for _, b in cert.assignments]}


def _slot_points(data: dict, field: str) -> list:
    """A serialized slot's points, paired with its ``field`` list
    entry by entry; mismatched lengths are rejected."""
    points, entries = data["points"], data[field]
    if len(points) != len(entries):
        raise RejectedInputError(f"{len(points)} points but {len(entries)} {field}")
    return [(int(p, 16), v) for p, v in zip(points, entries)]


def certificate_from_json(domain: InputDomain, data: dict) -> Certificate:
    return Certificate.of(domain, _slot_points(data, "bits"))


def boolean_decomposition_to_json(dec, S: ConceptClass, seed: int, kind: str) -> dict:
    return {
        "kind": kind,
        "n": S.domain.n,
        "class": [boolean_to_hex(f) for f in S],
        "target": boolean_to_hex(dec.target),
        "m": dec.m,
        "certs": [certificate_to_json(c) for c in dec.certs],
        "funcs": [boolean_to_hex(f) for f in dec.funcs],
        "verified": True,
        "seed": seed,
    }


def boolean_decomposition_from_json(data: dict):
    from .decompose import MajorityDecomposition, RobustDecomposition
    domain = InputDomain(int(data["n"]))
    S = ConceptClass(domain, [boolean_from_hex(domain, h) for h in data["class"]])
    target = boolean_from_hex(domain, data["target"])
    certs = tuple(certificate_from_json(domain, c) for c in data["certs"])
    funcs = tuple(boolean_from_hex(domain, h) for h in data["funcs"])
    cls = RobustDecomposition if data["kind"] == "robust" else MajorityDecomposition
    dec = cls(target=target, certs=certs, funcs=funcs, m=int(data["m"]))
    return S, dec


def real_decomposition_to_json(dec, S: PConceptClass, seed: int) -> dict:
    tables = [[float(v) for v in f.table] for f in S]
    index = {f.key(): i for i, f in enumerate(S)}
    return {
        "kind": "real",
        "n": S.domain.n,
        "class_tables": tables,
        "target": index[dec.target.key()],
        "m": dec.m,
        "alpha": dec.alpha,
        "eps": dec.eps,
        "certs": [{"points": [format_hex_input(x) for x in sorted(X)],
                   "values": [float(f(x)) for x in sorted(X)]}
                  for f, X in zip(dec.funcs, dec.points)],
        "funcs": [index[f.key()] for f in dec.funcs],
        "verified": True,
        "seed": seed,
    }


def real_decomposition_from_json(data: dict):
    from .decompose import RealDecomposition
    domain = InputDomain(int(data["n"]))
    members = [RealFunction(domain, np.array(t, dtype=np.float64))
               for t in data["class_tables"]]
    S = PConceptClass(domain, members)
    funcs = tuple(S[int(i)] for i in data["funcs"])
    if len(funcs) != len(data["certs"]):
        raise RejectedInputError("one certificate per slot function required")
    # stored values are rounded to 12 significant digits; tables lie in
    # [0, 1], so REAL_ATOL bounds the rounding absolutely
    points = []
    for f, cert in zip(funcs, data["certs"]):
        pairs = _slot_points(cert, "values")
        X = frozenset(domain.check_input(x) for x, _ in pairs)
        if len(X) != len(pairs):
            raise RejectedInputError("repeated point in a real certificate")
        if any(abs(float(v) - f.table[x]) > REAL_ATOL for x, v in pairs):
            raise RejectedInputError("stored certificate value differs from its slot function")
        points.append(X)
    dec = RealDecomposition(target=S[int(data["target"])], funcs=funcs, points=tuple(points),
                            alpha=float(data["alpha"]), m=int(data["m"]),
                            eps=float(data["eps"]))
    return S, dec


def state_to_json(state: DensityMatrix) -> list:
    """Complex entries as decimal [re, im] pairs, row-major."""
    return [[float(z.real), float(z.imag)] for z in state.entries.ravel()]


def state_from_json(qubits: int, data: list) -> DensityMatrix:
    dim = 1 << qubits
    flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    return DensityMatrix(qubits, flat.reshape(dim, dim))


def states_to_json(states) -> tuple:
    """(distinct state tables, one table ref per state), first-occurrence order."""
    tables, refs, index = [], [], {}
    for s in states:
        k = s.key()
        if k not in index:
            index[k] = len(tables)
            tables.append(state_to_json(s))
        refs.append(index[k])
    return tables, refs


def states_from_json(qubits: int, tables: list, refs: list) -> tuple:
    distinct = [state_from_json(qubits, t) for t in tables]
    return tuple(distinct[int(i)] for i in refs)


def protocol_to_json(P, seed: int) -> dict:
    tables, refs = states_to_json(P.honest_advice)
    return {
        "kind": "advice-protocol",
        "n": P.domain.n,
        "advice_qubits": P.advice_qubits,
        "circuit": circuit_to_text(P.circuit),
        "language": boolean_to_hex(P.language),
        "alpha": P.alpha,
        "m": P.m,
        "points": [[format_hex_input(x) for x in sorted(X)] for X in P.points],
        "targets": [[[format_hex_input(z), f"{r.numerator}/{r.denominator}"]
                     for z, r in slot] for slot in P.targets],
        "state_tables": tables,
        "advice_refs": refs,
        "decomposition": real_decomposition_to_json(P.decomposition, P.compiled_class, seed),
        "verified": True,
        "seed": seed,
    }


def protocol_from_json(data: dict):
    from .protocol import AdviceProtocol
    domain = InputDomain(int(data["n"]))
    circuit = circuit_from_text(data["circuit"])
    language = boolean_from_hex(domain, data["language"])
    qubits = int(data["advice_qubits"])
    honest = states_from_json(qubits, data["state_tables"], data["advice_refs"])
    points = tuple(frozenset(int(p, 16) for p in slot) for slot in data["points"])
    targets = tuple(tuple((int(z, 16), Fraction(r)) for z, r in slot)
                    for slot in data["targets"])
    S, dec = real_decomposition_from_json(data["decomposition"])
    return AdviceProtocol(circuit=circuit, domain=domain, advice_qubits=qubits,
                          points=points, targets=targets, alpha=float(data["alpha"]),
                          honest_advice=honest, language=language, decomposition=dec,
                          compiled_class=S)
