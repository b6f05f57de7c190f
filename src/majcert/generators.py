"""Deterministic class generators for experiments and tests."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .concepts import (BooleanFunction, ConceptClass, InputDomain,
                       PConceptClass, RealFunction)
from .errors import RejectedInputError


def random_boolean_class(n: int, size: int, rng: np.random.Generator) -> ConceptClass:
    domain = InputDomain(n)
    if domain.size <= 30 and size > (1 << domain.size):
        raise RejectedInputError("more distinct functions requested than exist")
    seen = set()
    members = []
    while len(members) < size:
        table = rng.integers(0, 2, size=domain.size)
        bits = int.from_bytes(np.packbits(table.astype(np.uint8), bitorder="little"), "little")
        if bits not in seen:
            seen.add(bits)
            members.append(BooleanFunction(domain, bits))
    return ConceptClass(domain, members)


def point_function_class(n: int, point_count: Optional[int] = None,
                         rng: Optional[np.random.Generator] = None) -> ConceptClass:
    """The zero function plus point functions; a seeded subset of the
    points when point_count is given, all 2^n otherwise."""
    domain = InputDomain(n)
    points = list(domain.inputs())
    if point_count is not None:
        if not (1 <= point_count <= domain.size):
            raise RejectedInputError("point count outside [1, 2^n]")
        if rng is None:
            points = points[:point_count]
        else:
            points = sorted(int(p) for p in rng.choice(domain.size, size=point_count,
                                                       replace=False))
    members = [BooleanFunction.zero(domain)]
    members += [BooleanFunction.point(domain, y) for y in points]
    return ConceptClass(domain, members)


def random_pconcept_class(n: int, size: int, rng: np.random.Generator) -> PConceptClass:
    domain = InputDomain(n)
    members = [RealFunction(domain, rng.uniform(0.0, 1.0, size=domain.size))
               for _ in range(size)]
    return PConceptClass(domain, members)
