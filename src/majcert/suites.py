"""Experiment suites behind the CLI: deterministic batch runs with
per-instance verification verdicts, plus offline re-verification.

``REGISTRY`` gives each suite a parameter schema (unknown keys
rejected), a builder that returns records of outputs, one check that
re-derives a record's verdict from its serialized form, recomputing
what the record claims rather than trusting stored flags or numbers,
and one ``measures`` function that derives a record's measures from its
outputs.  ``run_suite`` attaches those measures and sets every verdict
with ``verify_report`` on the canonical JSON it writes, so ``run`` and
``verify`` share each check; a record passes only when its check passes
and its stored measures are exactly the re-derived ones.
No parameter is downscaled silently: an instance that breaches a
resource cap (an enumeration budget or the dimension cap) rejects the
whole run with a ``RejectedInputError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .concepts import (REAL_ATOL, BooleanFunction, Distribution, InputDomain,
                       PConceptClass, RealFunction, Slots, dist_inf, dist_two,
                       quantize)
from .decompose import (FAIL, RealDecomposition, find_valid_sample_size,
                        majority_certificates, occam_check, real_majority_certificates,
                        robust_majority_certificates, untrusted_oracle_evaluate,
                        verify_real_decomposition)
from .errors import RejectedInputError
from .formats import (_entry, boolean_class_from_hex, boolean_decomposition_from_json,
                      boolean_decomposition_to_json, boolean_from_hex, boolean_to_hex,
                      canonical_json, certificate_from_json, certificate_to_json,
                      protocol_from_json, protocol_to_json, real_class_from_json,
                      real_class_to_json, real_decomposition_from_json,
                      real_decomposition_to_json, state_from_json, state_to_json)
from .games import (AliceStrategy, double_oracle_solve, k_isolatable_members,
                    solve_game_full_lp)
from .generators import (point_function_class, random_boolean_class,
                         random_pconcept_class)
from .qsim import Circuit, DensityMatrix, Gate
from .reporting import build_report
from .rng import substream
from .winnow import (CoverResult, ceil_log, epsilon_cover, fat_shattering_dim,
                     L2Family, l1_winnow, l1_winnow_defect, safe_winnow,
                     safe_winnow_defect, shared_searches, vc_dim)
from .protocol import (adversary_search, compile_advice, conditional_soundness_bound,
                       dyadic_approximation, fat_dim_quantum_check, machine_b_error,
                       qma_plus_amplify, verifier_A, with_inflated_alpha)


def validate_config(config: dict) -> tuple:
    """Returns (suite, params, seed, output_path); raises on any unknown
    key or type mismatch."""
    if not isinstance(config, dict):
        raise RejectedInputError("config must be a JSON object")
    allowed_top = {"schema", "suite", "parameters", "seed", "output_path"}
    unknown = set(config) - allowed_top
    if unknown:
        raise RejectedInputError(f"unknown config keys: {sorted(unknown)}")
    if config.get("schema") != 1:
        raise RejectedInputError("config schema must be 1")
    suite = config.get("suite")
    if suite not in REGISTRY:
        raise RejectedInputError(f"unknown suite {suite!r}")
    schema = REGISTRY[suite].schema
    raw = config.get("parameters", {})
    if not isinstance(raw, dict):
        raise RejectedInputError("parameters must be an object")
    unknown = set(raw) - set(schema)
    if unknown:
        raise RejectedInputError(f"unknown parameters for {suite}: {sorted(unknown)}")
    params = {}
    for name, (typ, default) in schema.items():
        value = raw.get(name, default)
        if typ is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, typ) or isinstance(value, bool) and typ is int:
            raise RejectedInputError(f"parameter {name} must be {typ.__name__}")
        params[name] = value
    seed = config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise RejectedInputError(f"seed must be a non-negative integer, not {seed!r}")
    return suite, params, seed, config.get("output_path")


def child_seed(seed: int, *path: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _matches(stored, derived) -> bool:
    """Whether a stored value equals its re-derivation: same keys and lengths,
    numbers within REAL_ATOL, relative above 1 (``formats`` keeps 12 significant
    digits, all digits of an integral float below 1e15), booleans and strings exactly."""
    if isinstance(derived, dict):
        return (isinstance(stored, dict) and stored.keys() == derived.keys()
                and all(_matches(stored[k], v) for k, v in derived.items()))
    if isinstance(derived, (list, tuple)):
        return (isinstance(stored, list) and len(stored) == len(derived)
                and all(_matches(s, d) for s, d in zip(stored, derived)))
    if isinstance(derived, (bool, np.bool_)):
        return stored is bool(derived)
    if isinstance(derived, (int, float, np.integer, np.floating)):
        return (isinstance(stored, (int, float)) and not isinstance(stored, bool)
                and abs(stored - derived) <= REAL_ATOL * max(1.0, abs(derived)))
    return stored == derived


def _claims_hold(out: dict, derived: dict) -> bool:
    """Whether ``out`` stores every derived claim with a matching value."""
    return all(k in out and _matches(out[k], v) for k, v in derived.items())


def _non_increasing(values: list) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


def _configured_shape(S: PConceptClass, params: dict) -> bool:
    """Whether S is the configured class: ``class_size`` members at ``n``."""
    return len(S) == params["class_size"] and S.domain.n == params["n"]


def _record(index: int, outputs: dict) -> dict:
    return {"index": index, "outputs": outputs}


def _instances(make: Callable) -> Callable:
    """Builder running ``make(params, seed, index)`` once per instance."""
    return lambda params, seed: [make(params, seed, i) for i in range(params["instances"])]


# ---------------------------------------------------------------------------
# majcert suite
# ---------------------------------------------------------------------------

def _robust_claims(dec) -> dict:
    """The margin histogram, and whether the untrusted evaluator on honest
    claims reproduces the target everywhere yet fails once one claim
    breaks its certificate."""
    honest = [f for _, f in dec.slots]
    flipped = list(honest)
    z0, _ = dec.slots.distinct[0][0].assignments[0]
    flipped[0] = BooleanFunction(dec.target.domain, flipped[0].bits ^ (1 << z0))
    return {"margin_histogram": {str(k): v for k, v in dec.margin_histogram().items()},
            "untrusted_honest_ok": untrusted_oracle_evaluate(dec, honest) == dec.target,
            "untrusted_flip_fails": untrusted_oracle_evaluate(dec, flipped) == FAIL}


def _majcert_measures(record: dict) -> dict:
    dec = record["outputs"]["decomposition"]
    size = len(dec["class"])
    return {"class_size": size, "m": dec["m"],
            "max_cert_size": max(len(cert["points"]) for cert in dec["certs"]),
            "cert_size_bound": ceil_log(size, 10, 9) + ceil_log(size, 2)}


def _majcert_instance(params: dict, seed: int, index: int) -> dict:
    rng = substream(child_seed(seed, 100, index), 0)
    n = params["n"]
    if params["kind"] == "point-functions":
        S = point_function_class(n, params["point_count"], rng)
        f_star = S[0]
    elif params["kind"] == "random-boolean":
        S = random_boolean_class(n, params["class_size"], rng)
        f_star = S[int(rng.integers(len(S)))]
    else:
        raise RejectedInputError(f"unsupported class kind {params['kind']!r}")

    kind = "robust" if params["robust"] else "majority"
    maker = robust_majority_certificates if params["robust"] else majority_certificates
    dec = maker(S, f_star)
    outputs = {"decomposition": boolean_decomposition_to_json(dec, S, kind)}
    if params["robust"]:
        outputs.update(_robust_claims(dec))
    return _record(index, outputs)


def _check_majcert(record: dict, context: dict) -> bool:
    """Isolated slots with the target as majority (robust: margins), distinct
    class members, size and width bounds, and robust runs' recomputed claims."""
    out = record["outputs"]
    robust = context["params"]["robust"]
    S, dec = boolean_decomposition_from_json(out["decomposition"])
    dec.validate(S)
    measures = _majcert_measures(record)
    ok = (out["decomposition"]["kind"] == ("robust" if robust else "majority")
          and len(S) == measures["class_size"]
          and measures["max_cert_size"] <= measures["cert_size_bound"]
          and dec.m <= type(dec).slot_bound(S))
    if not robust:
        return ok
    claims = _robust_claims(dec)
    return (ok and claims["untrusted_honest_ok"] and claims["untrusted_flip_fails"]
            and _claims_hold(out, claims))


# ---------------------------------------------------------------------------
# realmajcert suite
# ---------------------------------------------------------------------------

def _realmajcert_instance(params: dict, seed: int, index: int) -> dict:
    inst_seed = child_seed(seed, 200, index)
    S = random_pconcept_class(params["n"], params["class_size"], substream(inst_seed, 0))
    dec = real_majority_certificates(S, S[0], params["eps"], seed=inst_seed)
    return _record(index, {"decomposition": real_decomposition_to_json(dec, S)})


def _realmajcert_measures(record: dict) -> dict:
    return {k: record["outputs"]["decomposition"][k] for k in ("m", "alpha")}


def _check_realmajcert(record: dict, context: dict) -> bool:
    """The decomposition, over the configured class, verifies at the
    configured eps with at most its slot bound of slots."""
    data, params = record["outputs"]["decomposition"], context["params"]
    S, dec = real_decomposition_from_json(data)
    return (_configured_shape(S, params) and _matches(dec.eps, params["eps"])
            and dec.m <= RealDecomposition.slot_bound(S, dec.eps)
            and verify_real_decomposition(S, dec))


# ---------------------------------------------------------------------------
# winnow suite (safe winnowing)
# ---------------------------------------------------------------------------

def _stored_cover(S: PConceptClass, out: dict) -> CoverResult:
    """The record's cover: distinct members of S that form an eps-cover."""
    cover = CoverResult(PConceptClass(S.domain, [_entry(S.members, i) for i in out["cover"]]),
                        out["eps"])
    if len(cover.cover) != len(out["cover"]):
        raise RejectedInputError("cover indices must be distinct members of the class")
    cover.validate(S)
    return cover


def _winnow_measures(record: dict) -> dict:
    out = record["outputs"]
    return {"z_size": len(out["Z"]), "cover_size": len(out["cover"])}


def _winnow_instance(params: dict, seed: int, index: int) -> dict:
    inst_seed = child_seed(seed, 300, index)
    rng = substream(inst_seed, 0)
    eps = params["eps"]
    S = random_pconcept_class(params["n"], params["class_size"], rng)
    if not 0 <= params["y_size"] <= S.domain.size:
        raise RejectedInputError(f"y_size must lie in [0, 2^n = {S.domain.size}]")
    f_star = S[int(rng.integers(len(S)))]
    Y = frozenset(int(x) for x in rng.choice(S.domain.size, size=params["y_size"],
                                             replace=False))
    cover = epsilon_cover(S, eps)
    result = safe_winnow(S, f_star, Y, eps, cover)
    return _record(index, {"tables": real_class_to_json(S), "f_star": S.index_of(f_star),
                           "f": S.index_of(result.f), "Y": sorted(Y), "Z": sorted(result.Z),
                           "eps": eps, "cover": [S.index_of(g) for g in cover.cover]})


def _check_winnow(record: dict, context: dict) -> bool:
    """The configured class, eps and |Y| are the stored ones, the stored
    cover is an eps-cover of the class, and safe winnowing's postcondition
    holds with it (safe_winnow_defect: |Z| <= log2 |cover| and conclusions
    (i) and (ii))."""
    out, params = record["outputs"], context["params"]
    S = real_class_from_json(out["tables"])
    cover = _stored_cover(S, out)
    f, f_star = _entry(S.members, out["f"]), _entry(S.members, out["f_star"])
    return (_configured_shape(S, params) and _matches(out["eps"], params["eps"])
            and len(out["Y"]) == params["y_size"]
            and safe_winnow_defect(S, f, f_star, out["Y"], out["Z"], out["eps"],
                                   len(cover.cover)) is None)


# ---------------------------------------------------------------------------
# l1winnow suite
# ---------------------------------------------------------------------------

def _l1winnow_measures(record: dict) -> dict:
    out = record["outputs"]
    return {"x_size": len(out["X"]),
            "x_bound": 40.0 * math.log(max(len(out["cover"]), 1)) / out["eps"],
            "cover_size": len(out["cover"])}


def _l1winnow_instance(params: dict, seed: int, index: int) -> dict:
    inst_seed = child_seed(seed, 400, index)
    rng = substream(inst_seed, 0)
    eps = params["eps"]
    S = random_pconcept_class(params["n"], params["class_size"], rng)
    cover = epsilon_cover(S, eps)
    result = l1_winnow(S, eps, cover)
    return _record(index, {"tables": real_class_to_json(S), "f": S.index_of(result.f),
                           "X": sorted(result.X), "eps": eps,
                           "cover": [S.index_of(g) for g in cover.cover],
                           "progress_log": [float(v) for v in result.progress_log]})


def _check_l1winnow(record: dict, context: dict) -> bool:
    """The configured class and eps are the stored ones; the stored cover
    is an eps-cover of the class; the progress log starts at |cover| and
    ends at M_{f,X} over that cover; L1 winnowing's postcondition holds
    (l1_winnow_defect: progress shrinks by 1 - eps/20 per step, and
    members 0.4 eps-close to f in L1 on X are 2 eps-close); and
    |X| <= 40 ln|cover| / eps."""
    out, params = record["outputs"], context["params"]
    S = real_class_from_json(out["tables"])
    cover, measures = _stored_cover(S, out), _l1winnow_measures(record)
    f, log = _entry(S.members, out["f"]), out["progress_log"]
    return (_configured_shape(S, params) and _matches(out["eps"], params["eps"])
            and log[0] == len(cover.cover)
            and _matches(log[-1], cover.progress(f.table, sorted(out["X"])))
            and l1_winnow_defect(S, f, out["X"], out["eps"], log) is None
            and measures["x_size"] <= measures["x_bound"])


# ---------------------------------------------------------------------------
# l2counter suite
# ---------------------------------------------------------------------------

def _l2_instance(family, f: RealFunction, X: frozenset, index: int) -> dict:
    n = family.n
    g = family.corrupt(f, X)
    return _record(index, {
        "n": n, "f_numerators": [int(round(f(x) * n)) for x in family.domain.inputs()],
        "g_numerators": [int(round(g(x) * n)) for x in family.domain.inputs()],
        "X": sorted(X), "d2_on_X": dist_two(f, g, X), "d_inf": dist_inf(f, g)})


def _l2counter_measures(record: dict) -> dict:
    """The recounted class size, or the corrupted overlap: inputs of X
    where the corruption lowers a positive value of f."""
    out = record["outputs"]
    if "enumerated_class_size" in out:
        return {"class_size": out["enumerated_class_size"]}
    f, g = out["f_numerators"], out["g_numerators"]
    return {"corrupted_overlap": sum(1 for x in out["X"] if 0 < f[x] and g[x] < f[x])}


def _build_l2counter(params: dict, seed: int) -> list:
    n = params["n"]
    family = L2Family(n)
    rng = substream(child_seed(seed, 500), 0)
    records = []
    if n <= 3:
        members = list(family.enumerate_class())
    else:
        members = list(family.sample_class(params["member_samples"], rng))
    index = 0
    for _ in range(params["instances"]):
        for _attempt in range(50):
            f = members[int(rng.integers(len(members)))]
            x_size = int(rng.integers(0, family.domain.size))
            X = frozenset(int(x) for x in rng.choice(family.domain.size, size=x_size,
                                                     replace=False))
            if any(x not in X and f(x) == 0.0 for x in family.domain.inputs()):
                records.append(_l2_instance(family, f, X, index))
                index += 1
                break
    if n <= 3:
        records.append(_record(index, {"n": n, "enumerated_class_size": len(members)}))
    return records


def _check_l2counter(record: dict, context: dict) -> bool:
    """The configured n is the stored one, and members at sup-distance 1
    are 1/sqrt(n)-close in L2 on X, with at most n inputs of X lowered; or
    the recounted class size."""
    out = record["outputs"]
    if out["n"] != context["params"]["n"]:
        return False
    family = L2Family(out["n"])
    if "enumerated_class_size" in out:
        return len(family.enumerate_class()) == out["enumerated_class_size"]
    f, g = family.member(out["f_numerators"]), family.member(out["g_numerators"])
    X = frozenset(out["X"])
    d2, dinf = dist_two(f, g, X), dist_inf(f, g)
    return (dinf == 1.0 and d2 <= 1.0 / math.sqrt(family.n) + 1e-12
            and _l2counter_measures(record)["corrupted_overlap"] <= family.n
            and _claims_hold(out, {"d2_on_X": d2, "d_inf": dinf}))


# ---------------------------------------------------------------------------
# dims suite
# ---------------------------------------------------------------------------

def _dims_size_cap(params: dict, n: int) -> int:
    """The most members of a dims Boolean class at n: ``size_max``, and
    at most 2^(2^n) (2^30 from n = 5 on)."""
    return min(params["size_max"], 1 << min(1 << n, 30))


def _dims_boolean_instance(params: dict, seed: int, index: int) -> dict:
    inst_seed = child_seed(seed, 600, index)
    rng = substream(inst_seed, 0)
    n = int(rng.integers(params["n_min"], params["n_max"] + 1))
    size = int(rng.integers(2, _dims_size_cap(params, n) + 1))
    S = random_boolean_class(n, size, rng)
    return _record(index, {"kind": "boolean", "class": [boolean_to_hex(f) for f in S], "n": n,
                           "vc": vc_dim(S), "fat_quarter": fat_shattering_dim(S, 0.25)})


def _dims_pconcept_instance(params: dict, seed: int, index: int, gammas: list) -> dict:
    inst_seed = child_seed(seed, 700, index)
    rng = substream(inst_seed, 0)
    S = random_pconcept_class(2, 8, rng)
    return _record(index, {"kind": "pconcept", "tables": real_class_to_json(S), "gammas": gammas,
                           "dims": [fat_shattering_dim(S, g) for g in gammas]})


def _build_dims(params: dict, seed: int) -> list:
    if params["n_min"] > params["n_max"] or params["size_max"] < 2:
        raise RejectedInputError("n_min must not exceed n_max, and size_max must be >= 2")
    try:
        gammas = sorted(float(g) for g in params["gammas"])
    except (TypeError, ValueError):
        raise RejectedInputError("gammas must be numbers") from None
    count = params["instances"]
    return ([_dims_boolean_instance(params, seed, i) for i in range(count)]
            + [_dims_pconcept_instance(params, seed, count + i, gammas)
               for i in range(params["pconcept_instances"])])


def _dims_measures(record: dict) -> dict:
    out = record["outputs"]
    return {"class_size": len(out["class"])} if out["kind"] == "boolean" else {}


def _check_dims(record: dict, context: dict) -> bool:
    """The stored kind is "boolean" or "pconcept", the stored class has a
    configured shape (Boolean: n in [n_min, n_max] and 2 to
    _dims_size_cap stored members; p-concept: 8 distinct tables of 4
    entries), and recomputed dimensions
    equal the stored ones: distinct members with VC = fat at 1/4 within
    log2|S|, or fat non-increasing along the configured gammas, sorted."""
    out, params = record["outputs"], context["params"]
    if out["kind"] == "boolean":
        n, size = out["n"], len(out["class"])
        if not (params["n_min"] <= n <= params["n_max"]
                and 2 <= size <= _dims_size_cap(params, n)):
            return False  # before the searches, whose cost the config bounds
        S = boolean_class_from_hex(InputDomain(n), out["class"])
        v, fat = vc_dim(S), fat_shattering_dim(S, 0.25)
        return (v == out["vc"] and fat == out["fat_quarter"] and fat == v
                and len(S) == size and v <= math.log2(size) + 1e-12)
    S = real_class_from_json(out["tables"])
    gammas = sorted(float(g) for g in params["gammas"])
    return (out["kind"] == "pconcept" and len(S) == 8 and S.domain.n == 2
            and _matches(out["gammas"], gammas)
            and [fat_shattering_dim(S, g) for g in gammas] == out["dims"]
            and _non_increasing(out["dims"]) and all(a < b for a, b in zip(gammas, gammas[1:])))


# ---------------------------------------------------------------------------
# occam suite
# ---------------------------------------------------------------------------

def _occam_instance(params: dict, seed: int, index: int) -> dict:
    if params["trials"] < 1:
        raise RejectedInputError("trials must be at least 1")
    inst_seed = child_seed(seed, 800, index)
    rng = substream(inst_seed, 0)
    eps = params["eps"]
    S = random_pconcept_class(params["n"], params["class_size"], rng)
    f = S[0]
    weights = quantize(rng.uniform(0.05, 1.0, size=S.domain.size))
    D = Distribution.from_weights(S.domain, weights)
    M, _ = find_valid_sample_size(S, f, D, eps, inst_seed)
    rate = occam_check(S, f, D, eps, M, params["trials"], seed=inst_seed)
    return _record(index, {"f": 0, "eps": eps, "tables": real_class_to_json(S),
                           "weights": weights, "m": M, "trials": params["trials"],
                           "rate": rate, "seed": inst_seed})


def _occam_measures(record: dict) -> dict:
    return {"sample_size": record["outputs"]["m"], "pass_rate": record["outputs"]["rate"]}


def _check_occam(record: dict, context: dict) -> bool:
    """The configured class, eps and trial count are the stored ones, the
    target is member 0 and the seed the record's child of the report's
    seed, the seeded schedule, rerun, validates at the stored sample size
    m, and the seeded trials at m, rerun bit-exactly, pass at the stored
    rate >= 1/2."""
    out, params = record["outputs"], context["params"]
    S = real_class_from_json(out["tables"])
    if not (_configured_shape(S, params) and _matches(out["eps"], params["eps"])
            and out["trials"] == params["trials"] and out["f"] == 0
            and out["seed"] == child_seed(context["seed"], 800, record["index"])):
        return False  # before the reruns, which take the stored values
    D = Distribution.from_weights(S.domain, out["weights"])
    f = _entry(S.members, out["f"])
    M, _ = find_valid_sample_size(S, f, D, out["eps"], out["seed"])
    rate = occam_check(S, f, D, out["eps"], out["m"], out["trials"], seed=out["seed"])
    return M == out["m"] and abs(rate - out["rate"]) < 1e-12 and rate >= 0.5


# ---------------------------------------------------------------------------
# equivalence suite
# ---------------------------------------------------------------------------

def _strategy_json(strategy) -> tuple:
    """(support rows, weights) of a game strategy, rows of weight zero
    dropped: they change neither the game value nor the checks."""
    kept = [(c, f, float(w)) for (c, f), w in zip(strategy.support, strategy.weights)
            if w != 0.0]
    return ([[certificate_to_json(c), boolean_to_hex(f)] for c, f, _ in kept],
            [w for _, _, w in kept])


def _equivalence_instance(params: dict, seed: int, index: int) -> dict:
    inst_seed = child_seed(seed, 900, index)
    rng = substream(inst_seed, 0)
    k = params["k"]
    if params["n"] < 2 or params["class_size_max"] < 2:
        raise RejectedInputError("n and class_size_max must be at least 2")
    for attempt in range(200):
        n = int(rng.integers(2, params["n"] + 1))
        size = int(rng.integers(2, params["class_size_max"] + 1))
        S = random_boolean_class(n, size, rng)
        if len(k_isolatable_members(S, k)) == len(S):
            break
    else:
        raise RejectedInputError("no fully k-isolatable class found in 200 draws")
    f_star = S[int(rng.integers(len(S)))]
    full = solve_game_full_lp(S, f_star, k)
    oracle = double_oracle_solve(S, f_star)
    outputs = {"n": S.domain.n, "class": [boolean_to_hex(f) for f in S],
               "target": boolean_to_hex(f_star), "k": k,
               "full_value": full.game_value, "oracle_value": oracle.game_value}
    outputs["full_support"], outputs["full_weights"] = _strategy_json(full)
    outputs["oracle_support"], outputs["oracle_weights"] = _strategy_json(oracle)
    return _record(index, outputs)


def _equivalence_measures(record: dict) -> dict:
    out = record["outputs"]
    return {"value_gap": abs(out["full_value"] - out["oracle_value"]),
            "oracle_support_size": len(out["oracle_support"])}


def _check_equivalence(record: dict, context: dict) -> bool:
    """Each side decodes into a game strategy that validates against the
    class: weights >= 0 summing to 1 on isolating rows, and the stored
    game value recomputed.  The full-LP certificates have at most k
    points, the configured k; n is between 2 and the configured n, and
    2 to ``class_size_max`` distinct members are stored, every support
    function among them.  The two values agree within 1e-6."""
    out, params = record["outputs"], context["params"]
    k = params["k"]
    if (out["k"] != k or any(len(cjson["points"]) > k for cjson, _ in out["full_support"])
            or not 2 <= out["n"] <= params["n"]
            or not 2 <= len(out["class"]) <= params["class_size_max"]):
        return False
    domain = InputDomain(int(out["n"]))
    S = boolean_class_from_hex(domain, out["class"])
    member_of = dict(zip(out["class"], S))  # a support function must be a stored member
    f_star = boolean_from_hex(domain, out["target"])
    for side in ("full", "oracle"):
        support = tuple((certificate_from_json(domain, cjson), member_of[fhex])
                        for cjson, fhex in out[f"{side}_support"])
        AliceStrategy(f_star=f_star, support=support, weights=out[f"{side}_weights"],
                      game_value=out[f"{side}_value"]).validate(S)
    return len(S) == len(out["class"]) and abs(out["full_value"] - out["oracle_value"]) <= 1e-6


# ---------------------------------------------------------------------------
# quantum-protocol suite
# ---------------------------------------------------------------------------

def standard_protocol_instance() -> tuple:
    """The reference 1-advice-qubit instance: basis choice conditioned on
    each input bit, a margin-0.146 two-bit language, honest state at
    angle pi/8."""
    circuit = Circuit(qubits=1,
                      gates=(Gate("H", 0, when_bit=0), Gate("X", 0, when_bit=1)),
                      accept_qubit=0)
    domain = InputDomain(2)
    theta = math.pi / 8.0
    rho = DensityMatrix.from_pure(np.array([math.cos(theta), math.sin(theta)]))
    language = BooleanFunction.from_values(domain, [0, 0, 1, 1])
    return circuit, domain, rho, language


def build_standard_protocol(eps: float, seed: int):
    circuit, _, rho, language = standard_protocol_instance()
    return compile_advice(circuit, rho, language, eps, seed=seed)


def inflation_factor(P) -> float:
    """Alpha inflation of the deliberately broken protocol variant."""
    return max(50.0, 0.45 / (5.0 * P.alpha))


def _amplification(params: dict) -> dict:
    """Record 4's outputs: amplified acceptance of H on |0> towards r = 1/2
    at K = 8, 16, ... registers with its Chernoff floor, and the
    one-register acceptance with its hand computation."""
    q = Fraction(params["amplify_q"])
    r = Fraction(1, 2)
    amp = Circuit(qubits=1, gates=(Gate("H", 0),), accept_qubit=0)
    floors = [{"K": K,
               "acceptance": qma_plus_amplify(amp, 0, r, q, K,
                                              [DensityMatrix.computational(1, 0)] * K),
               "chernoff_floor": 1.0 - math.exp(-2.0 * K / float(q) ** 2)}
              for K in [8 * (2 ** j) for j in range(params["amplify_count"])]]
    p_half = 0.5
    hand = p_half if abs(1.0 - float(r)) <= 2.0 / float(q) else 0.0
    hand += (1.0 - p_half) if abs(0.0 - float(r)) <= 2.0 / float(q) else 0.0
    return {"amplification": floors, "single_register_hand": hand,
            "single_register": qma_plus_amplify(amp, 0, r, q, 1,
                                                [DensityMatrix.computational(1, 0)])}


#: gammas of record 5's fat-dimension measurements besides 1/4
_FAT_GAMMAS = [0.2, 0.3, 0.4]


def _fat_dims(params: dict, seed: int) -> list:
    """Record 5's measurements at gamma = 1/4 and at _FAT_GAMMAS, all on
    one class induced by sampled 1-qubit advice states."""
    return fat_dim_quantum_check(1, [0.25] + _FAT_GAMMAS, params["fat_samples"],
                                 *standard_protocol_instance()[:2], seed=seed)


def _search_outputs(result) -> dict:
    """Records 2 and 3: the exact search's worst error, its deviation and
    its registers, one table per distinct protocol slot."""
    return {"best_error": result.best_error, "best_deviation": result.best_deviation,
            "register_tables": [state_to_json(state) for state in result.registers.distinct]}


def _build_quantum_protocol(params: dict, seed: int) -> list:
    if params["amplify_q"] < 1:
        raise RejectedInputError("amplify_q must be positive")
    P = build_standard_protocol(params["eps"], seed)
    honest = P.honest_registers()
    intact = adversary_search(P)
    factor = inflation_factor(P)
    attack = adversary_search(with_inflated_alpha(P, factor))
    fat, *dims = _fat_dims(params, seed)
    return [
        _record(0, {"protocol": protocol_to_json(P), "honest_deviation": verifier_A(P, honest),
                    "honest_b_error": machine_b_error(P, honest)}),
        _record(1, {"conditional_soundness_bound": conditional_soundness_bound(P),
                    "decomposition": real_decomposition_to_json(P.decomposition,
                                                                P.compiled_class)}),
        _record(2, _search_outputs(intact)),
        _record(3, {"inflation_factor": factor, **_search_outputs(attack)}),
        _record(4, _amplification(params)),
        _record(5, {"fat_quarter": fat, "gammas": _FAT_GAMMAS,
                    "dims": [d["measured"] for d in dims]}),
    ]


def _quantum_context(records: list) -> dict:
    """The protocol of record 0, compiled from record 1's decomposition."""
    return {"protocol": protocol_from_json(records[0]["outputs"]["protocol"],
                                           records[1]["outputs"]["decomposition"])}


def _check_honest_advice(record: dict, context: dict) -> bool:
    """Record 0: each position's targets are the dyadic approximations at
    alpha of record 1's slot function there on its sorted constraint set,
    honest advice passes machine A within alpha, and machine B errs by at
    most 0.3."""
    P = context["protocol"]
    derived = P.decomposition.slots.map(lambda slot: tuple(
        (z, dyadic_approximation(slot[0](z), P.alpha)) for z in sorted(slot[1])))
    honest = P.honest_registers()
    dev, berr = verifier_A(P, honest), machine_b_error(P, honest)
    return ([targets for _, targets in P.slots] == list(derived)
            and dev <= P.alpha and berr <= 0.3
            and _claims_hold(record["outputs"], {"honest_deviation": dev,
                                                 "honest_b_error": berr}))


def _check_soundness_bound(record: dict, context: dict) -> bool:
    """Record 1: the decomposition the protocol was compiled from verifies
    at the configured eps with at most its slot bound of slots, the
    protocol's alpha is its alpha / 6, and its exact soundness bound over
    the compiled class is at most 0.3."""
    P, dec = context["protocol"], context["protocol"].decomposition
    bound = conditional_soundness_bound(P)
    return (_matches(dec.eps, context["params"]["eps"]) and _matches(P.alpha, dec.alpha / 6.0)
            and dec.m <= RealDecomposition.slot_bound(P.compiled_class, dec.eps)
            and verify_real_decomposition(P.compiled_class, dec)
            and bound <= 0.3
            and _claims_hold(record["outputs"], {"conditional_soundness_bound": bound}))


def _check_search(record: dict, context: dict) -> bool:
    """Records 2 and 3: the exact worst machine-B error over all advice
    that machine A of the intact (record 2) or alpha-inflated (record 3)
    protocol accepts is recomputed by ``adversary_search``, and the
    stored error must equal it.  The stored registers, at the protocol's
    refs, must attain it too: replayed through the machines, they pass
    machine A within 5 alpha (plus REAL_ATOL for the 12 stored digits)
    and give the stored error and deviation.  Machine B errs by at most
    1/3 on the intact protocol, by more on the inflated one."""
    out = record["outputs"]
    P, broken = context["protocol"], record["index"] == 3
    claims = {}
    if broken:
        claims["inflation_factor"] = inflation_factor(P)
        P = with_inflated_alpha(P, claims["inflation_factor"])
    registers = Slots([state_from_json(P.advice_qubits, table)
                       for table in out["register_tables"]], P.slots.refs)
    err, dev = machine_b_error(P, registers), verifier_A(P, registers)
    claims.update(best_error=err, best_deviation=dev)
    return ((err > 1.0 / 3.0) == broken and dev <= 5.0 * P.alpha + REAL_ATOL
            and _matches(out["best_error"], adversary_search(P).best_error)
            and _claims_hold(out, claims))


def _check_amplification(record: dict, context: dict) -> bool:
    """Record 4: recomputed acceptances match, clear their Chernoff
    floors, and one register matches the hand value."""
    derived = _amplification(context["params"])
    return (all(e["acceptance"] >= e["chernoff_floor"] for e in derived["amplification"])
            and abs(derived["single_register"] - derived["single_register_hand"]) <= 1e-12
            and _claims_hold(record["outputs"], derived))


def _check_fat_dims(record: dict, context: dict) -> bool:
    """Record 5: the fat-shattering dimensions, re-measured on the class
    induced by the report's seed, match the stored ones; the one at
    gamma = 1/4 is within p/gamma^2 (p = 1), and they do not increase
    along 0.2, 1/4, 0.3, 0.4."""
    out = record["outputs"]
    fat, *dims = _fat_dims(context["params"], context["seed"])
    measured = [d["measured"] for d in dims]
    return (out["gammas"] == _FAT_GAMMAS and fat["measured"] <= fat["bound"]
            and _non_increasing([measured[0], fat["measured"], *measured[1:]])
            and _claims_hold(out, {"fat_quarter": fat, "dims": measured}))


_QUANTUM_CHECKS = (_check_honest_advice, _check_soundness_bound, _check_search,
                   _check_search, _check_amplification, _check_fat_dims)


def _check_quantum(record: dict, context: dict) -> bool:
    return _QUANTUM_CHECKS[record["index"]](record, context)


_QUANTUM_MEASURES = (
    lambda out: {"m": out["protocol"]["m"], "alpha": out["protocol"]["alpha"]},
    lambda out: {"bound": out["conditional_soundness_bound"],
                 "class_size": len(out["decomposition"]["class_tables"])},
    lambda out: {"best_error": out["best_error"]},
    lambda out: {"best_error": out["best_error"]},
    lambda out: {"ks": [entry["K"] for entry in out["amplification"]]},
    lambda out: {"measured": out["fat_quarter"]["measured"],
                 "bound": out["fat_quarter"]["bound"]},
)


def _quantum_measures(record: dict) -> dict:
    return _QUANTUM_MEASURES[record["index"]](record["outputs"])


# ---------------------------------------------------------------------------
# registry and dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Suite:
    """Parameter schema (name -> (type, default)), ``build(params, seed)``
    returning records of outputs, ``check(record, context)``, and
    ``measures(record)`` deriving a record's measures from its outputs;
    the context holds ``params``, ``seed`` and ``prepare(records)``."""

    schema: dict
    build: Callable
    check: Callable
    measures: Callable
    prepare: Callable = lambda records: {}
    notes: Optional[dict] = None


REGISTRY = {
    "majcert": Suite(
        {"n": (int, 6), "kind": (str, "point-functions"), "instances": (int, 1),
         "class_size": (int, 24), "point_count": (int, 48), "robust": (bool, False)},
        _instances(_majcert_instance), _check_majcert, _majcert_measures),
    "realmajcert": Suite(
        {"n": (int, 3), "class_size": (int, 40), "eps": (float, 0.25),
         "instances": (int, 1)},
        _instances(_realmajcert_instance), _check_realmajcert,
        _realmajcert_measures),
    "winnow": Suite(
        {"n": (int, 3), "class_size": (int, 20), "eps": (float, 0.1),
         "instances": (int, 50), "y_size": (int, 2)},
        _instances(_winnow_instance), _check_winnow, _winnow_measures),
    "l1winnow": Suite(
        {"n": (int, 3), "class_size": (int, 30), "eps": (float, 0.1),
         "instances": (int, 50)},
        _instances(_l1winnow_instance), _check_l1winnow, _l1winnow_measures),
    "l2counter": Suite(
        {"n": (int, 2), "instances": (int, 100), "member_samples": (int, 20)},
        _build_l2counter, _check_l2counter, _l2counter_measures),
    "dims": Suite(
        {"instances": (int, 100), "n_min": (int, 2), "n_max": (int, 5),
         "size_max": (int, 32), "pconcept_instances": (int, 20),
         "gammas": (list, [0.1, 0.2, 0.3, 0.4])},
        _build_dims, _check_dims, _dims_measures),
    "occam": Suite(
        {"instances": (int, 10), "n": (int, 3), "class_size": (int, 25),
         "eps": (float, 0.1), "trials": (int, 100)},
        _instances(_occam_instance), _check_occam, _occam_measures),
    "quantum-protocol": Suite(
        {"eps": (float, 0.1), "amplify_count": (int, 3), "amplify_q": (int, 8),
         "fat_samples": (int, 300)},
        _build_quantum_protocol, _check_quantum, _quantum_measures,
        prepare=_quantum_context,
        notes={"soundness_scope":
               "decomposition guarantees are exact over the compiled finite "
               "class, which is grown from the honest state by the exact "
               "adversary; the worst machine-B error over all one-qubit advice "
               "states that machine A accepts is computed exactly by "
               "enumerating Bloch-ball faces"}),
    "equivalence": Suite(
        {"instances": (int, 20), "n": (int, 4), "class_size_max": (int, 16),
         "k": (int, 4)},
        _instances(_equivalence_instance), _check_equivalence,
        _equivalence_measures),
}


@shared_searches()
def run_suite(config: dict, seed_override=None) -> dict:
    """Build the suite's records and attach their measures, then set each
    verdict by verifying the canonical JSON of the records, exactly as
    ``verify_report`` does."""
    suite, params, seed, _ = validate_config(config)
    if seed_override is not None:
        seed = validate_config({**config, "seed": seed_override})[2]
    entry = REGISTRY[suite]
    records = entry.build(params, seed)
    for record in records:
        record["measures"] = entry.measures(record)
    config_echo = {"schema": 1, "suite": suite, "parameters": params, "seed": seed}
    stored = json.loads(canonical_json({"suite": suite, "config": config_echo,
                                        "records": records}))
    for record, (_, ok) in zip(records, verify_report(stored)):
        record["verified"] = ok
    return build_report(suite, config_echo, seed, records, entry.notes)


@shared_searches()
def verify_report(report: dict) -> list:
    """Re-check every record with its suite's check and compare its stored
    measures, as a whole, with the ones its outputs determine; returns a
    list of (index, ok) pairs.  A check that raises, or a context that
    cannot be decoded, counts as a failed record; a report that is not an
    object with a list of indexed record objects is rejected."""
    if not isinstance(report, dict):
        raise RejectedInputError("a report must be a JSON object")
    suite, params, seed, _ = validate_config(report.get("config"))
    entry, records = REGISTRY[suite], report.get("records")
    if not (isinstance(records, list)
            and all(isinstance(r, dict) and "index" in r for r in records)):
        raise RejectedInputError("report records must be a list of objects with an index")
    try:
        context = {"params": params, "seed": seed, **entry.prepare(records)}
    except Exception:
        context = None
    return [(record["index"], _passes(entry, record, context)) for record in records]


def _passes(entry: Suite, record: dict, context: Optional[dict]) -> bool:
    try:
        return (context is not None and bool(entry.check(record, context))
                and _matches(record["measures"], entry.measures(record)))
    except Exception:
        return False
