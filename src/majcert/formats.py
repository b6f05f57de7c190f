"""Text encodings and canonical serialization.

Boolean truth tables: the 2^n table bits packed MSB-first (the bit for
input 0 is the most significant) and hex-encoded with fixed width.

Circuits (as embedded in protocols): ``qubits=<int> accept=<int>``, then
one gate per line: ``NAME target [control] [xN]`` where ``control`` is
the CNOT control qubit and an ``xN`` token conditions the gate on
classical input bit N.

Reports and artifacts: canonical JSON, keys sorted (keys must be
strings), no spaces, so that byte-identical configuration yields
byte-identical files.  A finite float x is written as repr(x + 0.0) when
integral with |x| < 1e15, else as the shortest repr of x rounded to 12
significant digits, as an integer if that rounding is one below 1e12
(2.9999999999999 is written 3).  Decompositions and protocols keep their
slots as ``Slots`` in memory and serialize them position by position,
decoding each distinct serialized slot once.  A protocol slot is stored
as its advice-state ref and its (input, target) pairs, its points being
their inputs.  Serialized artifacts carry no seed (the config echo does).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .concepts import (REAL_ATOL, BooleanFunction, Certificate, ConceptClass,
                       InputDomain, PConceptClass, RealFunction, Slots)
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


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    """``obj`` as canonical JSON text; each distinct container is converted once."""
    memo = {}  # id -> (container, converted); holding it keeps its id unique

    def native(obj):
        kind = type(obj)
        if kind is str or kind is int or kind is bool or obj is None or isinstance(obj, str):
            return obj
        if kind is float or isinstance(obj, (float, np.floating)):
            x = float(obj)
            if not math.isfinite(x):
                raise RejectedInputError("non-finite float in a report")
            if x.is_integer() and abs(x) < 1e15:
                return x + 0.0
            text = format(x, ".12g")
            return float(text) if "." in text or "e" in text else int(text)
        if isinstance(obj, (int, np.integer)):
            return int(obj)
        if isinstance(obj, Fraction):
            return f"{obj.numerator}/{obj.denominator}"
        if id(obj) in memo:
            return memo[id(obj)][1]
        if isinstance(obj, dict):
            if not all(isinstance(k, str) for k in obj):
                raise RejectedInputError("a report's object keys must be strings")
            out = {k: native(v) for k, v in obj.items()}
        elif isinstance(obj, (list, tuple, set, frozenset)):
            out = [native(v) for v in (sorted(obj) if isinstance(obj, (set, frozenset)) else obj)]
        elif isinstance(obj, np.ndarray):
            out = native(obj.tolist())
        else:
            raise RejectedInputError(f"cannot canonically serialize {type(obj)!r}")
        memo[id(obj)] = (obj, out)
        return out

    return json.dumps(native(obj), sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Artifact serialization (decompositions and protocols)
# ---------------------------------------------------------------------------

def format_hex_input(x: int) -> str:
    return format(x, "#x")


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


def _slots_from_json(data: dict, fields: tuple, decode) -> Slots:
    """The slots serialized position by position in the lists ``fields``
    of ``data``, which must each hold the stored m entries; equal rows
    are decoded once, by ``decode``."""
    lists = [data[f] for f in fields]
    if any(len(entries) != int(data["m"]) for entries in lists):
        raise RejectedInputError(f"stored m = {data['m']} differs from the slot count")
    rows = Slots.group(zip(*lists), key=lambda row: json.dumps(row, sort_keys=True))
    return rows.map(decode)


def _entry(seq, i):
    """seq[i] for a serialized index i, which must lie in range."""
    if not 0 <= int(i) < len(seq):
        raise RejectedInputError(f"index {i} outside 0..{len(seq) - 1}")
    return seq[int(i)]


def boolean_decomposition_to_json(dec, S: ConceptClass, kind: str) -> dict:
    return {
        "kind": kind,
        "n": S.domain.n,
        "class": [boolean_to_hex(f) for f in S],
        "target": boolean_to_hex(dec.target),
        "m": dec.m,
        "certs": list(dec.slots.map(lambda slot: certificate_to_json(slot[0]))),
        "funcs": list(dec.slots.map(lambda slot: boolean_to_hex(slot[1]))),
    }


def boolean_decomposition_from_json(data: dict):
    from .decompose import MajorityDecomposition, RobustDecomposition
    domain = InputDomain(int(data["n"]))
    S = ConceptClass(domain, [boolean_from_hex(domain, h) for h in data["class"]])
    target = boolean_from_hex(domain, data["target"])
    slots = _slots_from_json(data, ("certs", "funcs"), lambda row: (
        certificate_from_json(domain, row[0]), boolean_from_hex(domain, row[1])))
    cls = RobustDecomposition if data["kind"] == "robust" else MajorityDecomposition
    return S, cls(target=target, slots=slots)


def real_decomposition_to_json(dec, S: PConceptClass) -> dict:
    return {
        "kind": "real",
        "n": S.domain.n,
        "class_tables": [f.table.tolist() for f in S],
        "target": S.index_of(dec.target),
        "m": dec.m,
        "alpha": dec.alpha,
        "eps": dec.eps,
        "certs": list(dec.slots.map(lambda slot: {
            "points": [format_hex_input(x) for x in sorted(slot[1])],
            "values": [float(slot[0](x)) for x in sorted(slot[1])]})),
        "funcs": list(dec.slots.map(lambda slot: S.index_of(slot[0]))),
    }


def real_decomposition_from_json(data: dict):
    from .decompose import RealDecomposition
    domain = InputDomain(int(data["n"]))
    # indices refer to the stored list; members equal after the 12-digit
    # rounding are one member of S
    members = [RealFunction(domain, np.array(t, dtype=np.float64))
               for t in data["class_tables"]]
    S = PConceptClass(domain, members)

    def decode(row) -> tuple:
        f, pairs = _entry(members, row[0]), _slot_points(row[1], "values")
        X = frozenset(domain.check_input(x) for x, _ in pairs)
        if len(X) != len(pairs):
            raise RejectedInputError("repeated point in a real certificate")
        # stored values are rounded to 12 significant digits; tables lie
        # in [0, 1], so REAL_ATOL bounds the rounding absolutely
        if any(abs(float(v) - f.table[x]) > REAL_ATOL for x, v in pairs):
            raise RejectedInputError("stored certificate value differs from its slot function")
        return f, X

    slots = _slots_from_json(data, ("funcs", "certs"), decode)
    return S, RealDecomposition(target=_entry(members, data["target"]), slots=slots,
                                alpha=float(data["alpha"]), eps=float(data["eps"]))


def state_to_json(state: DensityMatrix) -> list:
    """Complex entries as decimal [re, im] pairs, row-major."""
    return [[float(z.real), float(z.imag)] for z in state.entries.ravel()]


def state_from_json(qubits: int, data: list) -> DensityMatrix:
    dim = 1 << qubits
    flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    return DensityMatrix(qubits, flat.reshape(dim, dim))


def states_to_json(states) -> tuple:
    """(distinct state tables, one table ref per state), first-occurrence order."""
    slots = Slots.group(states, key=DensityMatrix.key)
    return [state_to_json(s) for s in slots.distinct], list(slots.refs)


def states_from_json(qubits: int, tables: list, refs: list) -> Slots:
    return Slots([state_from_json(qubits, t) for t in tables], refs)


def protocol_to_json(P) -> dict:
    tables, refs = states_to_json(state for state, _ in P.slots)
    return {
        "kind": "advice-protocol",
        "n": P.domain.n,
        "advice_qubits": P.advice_qubits,
        "circuit": circuit_to_text(P.circuit),
        "language": boolean_to_hex(P.language),
        "alpha": P.alpha,
        "m": P.m,
        "targets": list(P.slots.map(lambda slot: [
            [format_hex_input(z), f"{r.numerator}/{r.denominator}"] for z, r in slot[1]])),
        "state_tables": tables,
        "advice_refs": refs,
        "decomposition": real_decomposition_to_json(P.decomposition, P.compiled_class),
    }


def protocol_from_json(data: dict):
    """A protocol from its serialized form; a stored m that differs from
    the slot count is rejected."""
    from .protocol import AdviceProtocol
    domain = InputDomain(int(data["n"]))
    qubits = int(data["advice_qubits"])
    states = [state_from_json(qubits, t) for t in data["state_tables"]]

    def decode(row) -> tuple:
        ref, targets = row
        return _entry(states, ref), tuple((domain.check_input(int(z, 16)), Fraction(r))
                                          for z, r in targets)

    slots = _slots_from_json(data, ("advice_refs", "targets"), decode)
    S, dec = real_decomposition_from_json(data["decomposition"])
    return AdviceProtocol(circuit=circuit_from_text(data["circuit"]), domain=domain,
                          advice_qubits=qubits, slots=slots, alpha=float(data["alpha"]),
                          language=boolean_from_hex(domain, data["language"]),
                          decomposition=dec, compiled_class=S)
