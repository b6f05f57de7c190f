"""Text encodings and canonical serialization.

Boolean truth tables: the 2^n table bits packed MSB-first (the bit for
input 0 is the most significant) and hex-encoded in exactly
ceil(2^n / 4) lowercase digits.  Both directions take the table's
little-endian bytes through one table of bit-reversed bytes; below
n = 3 the one byte holds the table in its top 2^n bits and is written as
one digit.  A class is decoded text by text.

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
slots as ``Slots`` in memory and serialize them position by position.
Decoding keys each position's row by its fields (a string as it is, any
other value by its ``marshal`` bytes), so rows with equal JSON text are
one distinct slot, decoded once, while ``1``, ``1.0`` and ``true`` are
different rows and an index that is not an int is rejected at every
position.  A real certificate is stored as its sorted points (its
slot's class index names the table of values).  A protocol slot is
stored as its advice-state ref and its (input, target) pairs, its points
being their inputs; a protocol embeds no decomposition (quantum reports
keep it in record 1).  Advice registers arrive as ``Slots``; equal
states share one stored table.  Stored counts and indices must be plain
ints.  Serialized artifacts carry no seed (the config echo does).  Real
class tables are float64 arrays of multiples of 1e-12 in [0, 1], fixed
points of this float rule, so such an array is written in one pass of
``tolist``; a stored real class lists distinct tables.
"""

from __future__ import annotations

import json
import marshal
import math
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .concepts import (BooleanFunction, Certificate, ConceptClass, InputDomain,
                       PConceptClass, Slots, quantize)
from .errors import RejectedInputError
from .qsim import Circuit, DensityMatrix, Gate

# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------

#: byte b with its 8 bits in reverse order, a ``bytes.translate`` table
_REVERSED_BYTES = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))


def boolean_to_hex(f: BooleanFunction) -> str:
    size = f.domain.size  # byte i of the bits holds f(8i) .. f(8i + 7), f(8i) lowest
    raw = f.bits.to_bytes((size + 7) >> 3, "little").translate(_REVERSED_BYTES)
    return raw.hex() if size >= 8 else format(raw[0] >> (8 - size), "x")


def boolean_from_hex(domain: InputDomain, text: str) -> BooleanFunction:
    """The table ``text``, exactly ceil(2^n / 4) lowercase hex digits."""
    size = domain.size
    width = max(1, size >> 2)
    digits = "0" * (width % 2) + text  # a 1-digit table is read as one byte
    try:
        raw = bytes.fromhex(digits)
    except ValueError:  # a character that is neither a hex digit nor a space
        raw = b""
    if len(text) != width or raw.hex() != digits:
        raise RejectedInputError(f"a table at n = {domain.n} is {width} lowercase hex digits")
    if size < 8:
        if raw[0] >> size:
            raise RejectedInputError("hex table wider than the domain")
        raw = bytes([raw[0] << (8 - size)])
    return BooleanFunction(domain, int.from_bytes(raw.translate(_REVERSED_BYTES), "little"))


def boolean_class_from_hex(domain: InputDomain, texts: list) -> ConceptClass:
    """The class of the hex tables ``texts``, decoded text by text."""
    return ConceptClass(domain, [boolean_from_hex(domain, t) for t in texts])


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

def canonical_tree(obj):
    """``obj`` as the JSON-native value its canonical JSON text parses back
    to: dicts with sorted string keys, lists, and int, float, bool, str and
    None leaves under the float rule.  Each distinct container is converted
    once, so repeated ones share one converted value."""
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
            out = {k: native(obj[k]) for k in sorted(obj)}
        elif isinstance(obj, (list, tuple, set, frozenset)):
            out = [native(v) for v in (sorted(obj) if isinstance(obj, (set, frozenset)) else obj)]
        elif isinstance(obj, np.ndarray):
            grid = obj.dtype == np.float64 and np.array_equal(quantize(np.clip(obj, 0, 1)), obj)
            out = (obj + 0.0).tolist() if grid else native(obj.tolist())
        else:
            raise RejectedInputError(f"cannot canonically serialize {type(obj)!r}")
        memo[id(obj)] = (obj, out)
        return out

    tree = native(obj)
    memo.clear()  # else native, a recursive closure, keeps it until a full gc
    return tree


#: writes a canonical tree, whose keys are already sorted, as canonical text
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def canonical_json(obj) -> str:
    """``obj`` as canonical JSON text: the encoding of ``canonical_tree(obj)``."""
    # the encoder's chunks and the newline in one join, not a join and a copy
    return "".join([*_ENCODER.iterencode(canonical_tree(obj), _one_shot=True), "\n"])


# ---------------------------------------------------------------------------
# Artifact serialization (decompositions and protocols)
# ---------------------------------------------------------------------------

def format_hex_input(x: int) -> str:
    return format(x, "#x")


def hex_input_from_json(text: str) -> int:
    """An input from its ``format_hex_input`` text; other spellings
    (leading zeros, an upper-case prefix, no prefix) are rejected."""
    x = int(text, 16)
    if hex(x) != text:  # hex is format_hex_input
        raise RejectedInputError(f"input {text!r} is not canonical hex")
    return x


def certificate_to_json(cert: Certificate) -> dict:
    return {"points": [format_hex_input(x) for x, _ in cert.assignments],
            "bits": [b for _, b in cert.assignments]}


def certificate_from_json(domain: InputDomain, data: dict) -> Certificate:
    """A certificate from its points (``format_hex_input`` text) and bits
    (the ints 0 and 1); other spellings and mismatched lengths are rejected."""
    points, bits = data["points"], data["bits"]
    if len(points) != len(bits):
        raise RejectedInputError(f"{len(points)} points but {len(bits)} bits")
    xs = [hex_input_from_json(p) for p in points]
    if {type(b) for b in bits} - {int}:
        raise RejectedInputError("certificate bits must be 0 or 1")
    return Certificate.of(domain, zip(xs, bits))


def _slots_from_json(data: dict, fields: tuple, decode) -> Slots:
    """The slots serialized position by position in the lists ``fields``
    of ``data``, which must each hold the stored m entries; rows with
    equal keys (a list of strings keyed as it is, any other list by each
    entry's marshal bytes, whose format 2 has no object references, so
    they depend on value and type alone) are decoded once, by ``decode``."""
    lists = [data[f] for f in fields]
    if type(data["m"]) is not int or any(len(entries) != data["m"] for entries in lists):
        raise RejectedInputError(f"stored m = {data['m']} differs from the slot count")
    keys = [entries if set(map(type, entries)) <= {str} else [marshal.dumps(e, 2) for e in entries]
            for entries in lists]
    rows = Slots.group(zip(zip(*keys), zip(*lists)), key=itemgetter(0))
    return rows.map(lambda keyed: decode(keyed[1]))


def _entry(seq, i):
    """seq[i] for a serialized index i, which must be a plain int (not a
    float or a bool, which would be truncated) in range."""
    if type(i) is not int or not 0 <= i < len(seq):
        raise RejectedInputError(f"index {i!r} is not an int in 0..{len(seq) - 1}")
    return seq[i]


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
    S = boolean_class_from_hex(domain, data["class"])
    target = boolean_from_hex(domain, data["target"])
    slots = _slots_from_json(data, ("certs", "funcs"), lambda row: (
        certificate_from_json(domain, row[0]), boolean_from_hex(domain, row[1])))
    cls = RobustDecomposition if data["kind"] == "robust" else MajorityDecomposition
    return S, cls(target=target, slots=slots)


def real_class_to_json(S: PConceptClass) -> np.ndarray:
    return S.value_matrix()


def real_class_from_json(tables: list) -> PConceptClass:
    """The class of the stored ``tables``, at the n their length gives; one
    that repeats a table is rejected, so a stored index i names member i."""
    domain = InputDomain(len(tables[0]).bit_length() - 1)
    S = PConceptClass.from_tables(domain, tables)
    if len(S) != len(tables):
        raise RejectedInputError("a stored class repeats a table")
    return S


def real_decomposition_to_json(dec, S: PConceptClass) -> dict:
    return {
        "kind": "real",
        "n": S.domain.n,
        "class_tables": real_class_to_json(S),
        "target": S.index_of(dec.target),
        "m": dec.m,
        "alpha": dec.alpha,
        "eps": dec.eps,
        "certs": list(dec.slots.map(lambda slot: {
            "points": [format_hex_input(x) for x in sorted(slot[1])]})),
        "funcs": list(dec.slots.map(lambda slot: S.index_of(slot[0]))),
    }


def real_decomposition_from_json(data: dict):
    from .decompose import RealDecomposition
    if data["kind"] != "real":
        raise RejectedInputError(f"kind {data['kind']!r} is not a real decomposition")
    S = real_class_from_json(data["class_tables"])
    if data["n"] != S.domain.n:
        raise RejectedInputError(f"stored n = {data['n']} differs from the tables' n")

    def decode(row) -> tuple:
        points = row[1]["points"]
        X = frozenset(S.domain.check_input(hex_input_from_json(p)) for p in points)
        if len(X) != len(points):
            raise RejectedInputError("repeated point in a real certificate")
        return _entry(S.members, row[0]), X

    slots = _slots_from_json(data, ("funcs", "certs"), decode)
    return S, RealDecomposition(target=_entry(S.members, data["target"]), slots=slots,
                                alpha=float(data["alpha"]), eps=float(data["eps"]))


def state_to_json(state: DensityMatrix) -> list:
    """Complex entries as decimal [re, im] pairs, row-major."""
    return [[float(z.real), float(z.imag)] for z in state.entries.ravel()]


def state_from_json(qubits: int, data: list) -> DensityMatrix:
    dim = 1 << qubits
    flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    return DensityMatrix(qubits, flat.reshape(dim, dim))


def states_to_json(states: Slots) -> tuple:
    """(state tables, one table ref per position); equal states share a table."""
    tables = Slots.group(states.distinct, key=DensityMatrix.key)
    return ([state_to_json(s) for s in tables.distinct],
            [tables.refs[r] for r in states.refs])


def protocol_to_json(P) -> dict:
    tables, refs = states_to_json(P.honest_registers())
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
    }


def protocol_from_json(data: dict, decomposition: dict):
    """A protocol from its and its decomposition's serialized forms; a
    stored m that differs from the slot count is rejected."""
    from .protocol import AdviceProtocol
    if data["kind"] != "advice-protocol":
        raise RejectedInputError(f"kind {data['kind']!r} is not an advice protocol")
    domain = InputDomain(int(data["n"]))
    qubits = int(data["advice_qubits"])
    states = [state_from_json(qubits, t) for t in data["state_tables"]]

    def decode(row) -> tuple:
        ref, targets = row
        return _entry(states, ref), tuple(
            (domain.check_input(hex_input_from_json(z)), Fraction(r)) for z, r in targets)

    slots = _slots_from_json(data, ("advice_refs", "targets"), decode)
    S, dec = real_decomposition_from_json(decomposition)
    return AdviceProtocol(circuit=circuit_from_text(data["circuit"]), domain=domain,
                          advice_qubits=qubits, slots=slots, alpha=float(data["alpha"]),
                          language=boolean_from_hex(domain, data["language"]),
                          decomposition=dec, compiled_class=S)
