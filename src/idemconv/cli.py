"""Command-line front end.

One scenario per invocation: a JSON file names a group (construction
expression, permutation generators, or a raw table), subgroups by
generator label lists, and characters by rotation assignments on those
generators.  Each subcommand wraps one library entry point; `paper-suite`
runs the named fixture registry.  Output is a plain-text table, or
deterministic JSON under --json (sorted keys, stable ordering).

Error categories map to exit codes: parse 2, invalid reference 3, module
precondition 4.  The free-product word budget is capped by the
IDEMCONV_WORD_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .errors import BudgetExceeded, IdemconvError
from .groups import (
    GroupTable,
    Subgroup,
    _permutation_closure,
    _permutation_table,
    all_subgroups,
    closure,
    cyclic_group,
    dihedral_group,
    direct_product,
    full_subgroup,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)
from .characters import Character, character_group
from .measures import (
    Measure,
    char_idem,
    classify_idempotent,
    dirac,
    haar,
    measure_to_jsonable,
)
from .commutation import classify_pair
from .dynamics import free_product_decay, idempotent_power_limit, stromberg_check
from .measure_groups import g_k_rho, n_k_rho, omega_class_count
from .so3 import example_33_report
from .suite import FIXTURES, SuiteConfig, _char_desc, run_suite
from ._kernel import backend_name

SCHEMA_VERSION = 1
MAX_GROUP_ORDER = 1024

_CATEGORY_EXIT = {"parse": 2, "reference": 3, "precondition": 4}


class CliError(Exception):
    def __init__(self, category: str, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.category = category
        self.field = field


# -- scenario parsing -------------------------------------------------------------


def _load_scenario(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError("parse", f"cannot read scenario file: {exc}", "--scenario")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError("parse", f"scenario is not valid JSON: {exc}", "--scenario")
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise CliError("parse", f"scenario holds an oversized number: {exc}", "--scenario")
    except RecursionError:  # nesting past the decoder's depth
        raise CliError("parse", "scenario is nested too deeply", "--scenario")
    if not isinstance(obj, dict):
        raise CliError("parse", "scenario must be a JSON object", "--scenario")
    ver = obj.get("schema_version")
    if ver != SCHEMA_VERSION:
        raise CliError(
            "parse",
            f"unsupported schema_version {ver!r} (expected {SCHEMA_VERSION})",
            "schema_version",
        )
    return obj


def _need(obj: dict, key: str, types, field: str):
    if key not in obj:
        raise CliError("parse", f"missing required field {key!r}", field)
    val = obj[key]
    if not isinstance(val, types):
        raise CliError(
            "parse", f"field {key!r} has the wrong type {type(val).__name__}", field
        )
    return val


def _fraction(value, field: str) -> Fraction:
    if isinstance(value, bool):
        raise CliError("parse", "expected a fraction, got a boolean", field)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction expands 10**exp in full, exp + 1 digits: past the limit, unprintable
        m = re.search(r"e[-+]?([\d_]+)\s*\Z", value, re.IGNORECASE)
        digits = m.group(1).replace("_", "").lstrip("0") if m else ""
        limit = sys.get_int_max_str_digits()
        if limit and (len(digits) > len(str(limit)) or int(digits or 0) >= limit):
            raise CliError("parse", f"decimal exponent too large: {value!r}", field)
        try:
            q = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise CliError("parse", f"not a fraction: {value!r}", field)
        # the parts of a decimal are parsed apart, so their joined numerator,
        # or the mantissa times 10**exp, can still be past the limit
        if limit and max(abs(q.numerator), q.denominator) >= 10**limit:
            raise CliError("parse", f"fraction has more than {limit} digits: {value!r}", field)
        return q
    raise CliError(
        "parse", f"expected a fraction string, got {type(value).__name__}", field
    )


def _check_size(size: int, head: str, field: str) -> None:
    """Refuse a group past MAX_GROUP_ORDER before it is built."""
    if size > MAX_GROUP_ORDER:
        raise CliError(
            "precondition", f"{head} the desk-scale bound of {MAX_GROUP_ORDER}", field
        )


def _atom_group(token: str, field: str) -> GroupTable:
    if token == "Q8":
        return quaternion_group()
    m = re.fullmatch(r"([SCD])(\d{1,4})", token)
    if m is None:
        raise CliError(
            "parse",
            f"unrecognized group atom {token!r} (use S<n>, C<n>, D<n>, Q8, "
            "and 'x' for direct products)",
            field,
        )
    kind, n = m.group(1), int(m.group(2))
    if n < 1:
        raise CliError("parse", f"group atom {token!r} needs n >= 1", field)
    order = math.factorial(n) if kind == "S" else (n if kind == "C" else 2 * n)
    _check_size(order, f"{token} has {order} elements, beyond", field)
    return {"S": symmetric_group, "C": cyclic_group, "D": dihedral_group}[kind](n)


def _build_group(spec, field: str = "group") -> GroupTable:
    if isinstance(spec, str):
        tokens = [t for t in spec.replace(" ", "").split("x") if t]
        if not tokens:
            raise CliError("parse", "empty group expression", field)
        parts = [_atom_group(t, field) for t in tokens]
        total = math.prod(p.order for p in parts)
        _check_size(total, f"product group has {total} elements, beyond", field)
        out = parts[0]
        for p in parts[1:]:
            out = direct_product(out, p)
        return out
    if isinstance(spec, dict):
        if "generators" in spec:
            gens_raw = _need(spec, "generators", list, f"{field}.generators")
            if not gens_raw:
                raise CliError("parse", "need at least one generator", f"{field}.generators")
            try:
                gens = [tuple(int(x) for x in p) for p in gens_raw]
            except (TypeError, ValueError):
                raise CliError(
                    "parse",
                    "generators must be 0-based permutation lists",
                    f"{field}.generators",
                )
            d = len(gens[0])
            for i, p in enumerate(gens):
                if tuple(sorted(p)) != tuple(range(d)):
                    raise CliError(
                        "parse",
                        f"generator {i} is not a permutation of 0..{d - 1}",
                        f"{field}.generators[{i}]",
                    )
            perms = _permutation_closure(gens, d, MAX_GROUP_ORDER)
            _check_size(len(perms), "generated permutation group exceeds", f"{field}.generators")
            return _permutation_table(perms)
        if "table" in spec:
            table = _need(spec, "table", list, f"{field}.table")
            _check_size(len(table), f"table has {len(table)} rows, beyond", f"{field}.table")
            labels = spec.get("labels")
            if labels is not None and not isinstance(labels, list):
                raise CliError("parse", "labels must be a list", f"{field}.labels")
            try:
                return GroupTable(table, labels)
            except ValueError as exc:
                raise CliError("parse", f"invalid group table: {exc}", f"{field}.table")
        if "semidirect" in spec:
            at = f"{field}.semidirect"
            sd = _need(spec, "semidirect", dict, at)
            normal, acting = (
                _build_group(_need(sd, key, (str, dict), f"{at}.{key}"), f"{at}.{key}")
                for key in ("normal", "acting")
            )
            _check_size(normal.order * acting.order, "semidirect product exceeds", at)
            action = _need(sd, "action", list, f"{at}.action")
            try:
                acts = [tuple(int(x) for x in p) for p in action]
            except (TypeError, ValueError):
                raise CliError(
                    "parse",
                    "action must be a list of permutations of the normal factor",
                    f"{at}.action",
                )
            try:
                return semidirect_product(normal, acting, acts)
            except ValueError as exc:
                raise CliError(
                    "precondition",
                    f"action does not define automorphisms: {exc}",
                    f"{at}.action",
                )
    raise CliError(
        "parse",
        "group must be an expression string or an object with "
        "generators/table/semidirect",
        field,
    )


def _label_idx(g: GroupTable, label, field: str) -> int:
    if not isinstance(label, str):
        raise CliError("parse", "element labels must be strings", field)
    idx = g.label_index.get(label)
    if idx is None:
        raise CliError(
            "reference", f"no element labelled {label!r} in {g.name}", field
        )
    return idx


def _subgroup_from_labels(g: GroupTable, labels, field: str) -> Subgroup:
    if not isinstance(labels, list):
        raise CliError("parse", "subgroup must be a list of generator labels", field)
    idxs = [_label_idx(g, lab, f"{field}[{i}]") for i, lab in enumerate(labels)]
    return closure(g, idxs)


def _read_character(
    parent: GroupTable, obj: dict, at: str = "", keys=("subgroup", "rotations")
) -> tuple[Subgroup, Character]:
    """The subgroup and character obj names under keys, at field paths at + key.

    The subgroup is a list of generator labels, the character a map from
    generator labels to rotations; the rest of its values are multiplied out.
    """
    sub_key, rot_key = keys
    sub = _subgroup_from_labels(parent, _need(obj, sub_key, list, at + sub_key), at + sub_key)
    field = at + rot_key
    rotations = _need(obj, rot_key, dict, field)
    if not rotations:
        return sub, Character(sub, (0,) * sub.order)
    assign: dict[int, Fraction] = {}
    for lab, rotstr in rotations.items():
        gidx = _label_idx(parent, lab, f"{field}.{lab}")
        if gidx not in sub.element_set:
            raise CliError(
                "reference",
                f"generator {lab!r} lies outside the subgroup",
                f"{field}.{lab}",
            )
        assign[gidx] = _fraction(rotstr, f"{field}.{lab}") % 1
    rot: dict[int, Fraction] = {parent.identity: Fraction(0)}
    frontier = [parent.identity]
    while frontier:
        fresh = []
        for x in frontier:
            for gidx, r in assign.items():
                y = parent.mul[x][gidx]
                val = (rot[x] + r) % 1
                if y in rot:
                    if rot[y] != val:
                        raise CliError(
                            "precondition",
                            "rotation assignment is inconsistent on the subgroup",
                            field,
                        )
                else:
                    rot[y] = val
                    fresh.append(y)
        frontier = fresh
    if set(rot) != sub.element_set:
        raise CliError(
            "precondition",
            "rotations cover only a proper subgroup; assign every generator",
            field,
        )
    # a walk consistent on every edge is a homomorphism: denominators divide e
    e = parent.exponent
    exps = tuple(rot[g].numerator * (e // rot[g].denominator) for g in sub.elements)
    return sub, Character._unchecked(sub, exps)


def _measure_from_spec(g: GroupTable, spec, field: str) -> Measure:
    if isinstance(spec, dict):
        if "dirac" in spec:
            return dirac(g, _label_idx(g, spec["dirac"], f"{field}.dirac"))
        if "haar" in spec:
            return haar(_subgroup_from_labels(g, spec["haar"], f"{field}.haar"))
        if "char_idem" in spec:
            ci = _need(spec, "char_idem", dict, f"{field}.char_idem")
            return char_idem(*_read_character(g, ci, f"{field}.char_idem."))
        if "sum" in spec:
            terms = _need(spec, "sum", list, f"{field}.sum")
            if not terms:
                raise CliError("parse", "sum needs at least one term", f"{field}.sum")
            out = _measure_from_spec(g, terms[0], f"{field}.sum[0]")
            for i, t in enumerate(terms[1:], start=1):
                out = out + _measure_from_spec(g, t, f"{field}.sum[{i}]")
            return out
        if "scale" in spec:
            pair = _need(spec, "scale", list, f"{field}.scale")
            if len(pair) != 2:
                raise CliError(
                    "parse", "scale needs [fraction, measure]", f"{field}.scale"
                )
            q = _fraction(pair[0], f"{field}.scale[0]")
            return _measure_from_spec(g, pair[1], f"{field}.scale[1]").scale(q)
        if "entries" in spec:
            rows = _need(spec, "entries", list, f"{field}.entries")
            out = Measure.zero(g)
            for i, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != 2:
                    raise CliError(
                        "parse",
                        "each entry must be [label, fraction]",
                        f"{field}.entries[{i}]",
                    )
                idx = _label_idx(g, row[0], f"{field}.entries[{i}]")
                q = _fraction(row[1], f"{field}.entries[{i}]")
                out = out + dirac(g, idx).scale(q)
            return out
    raise CliError(
        "parse",
        "measure must be an object with one of dirac/haar/char_idem/sum/scale/entries",
        field,
    )


def _sub_labels(sub: Optional[Subgroup]) -> Optional[list[str]]:
    if sub is None:
        return None
    return list(sub.label_list)


# -- subcommand handlers ----------------------------------------------------------


def _scenario_group(args) -> tuple[dict, GroupTable]:
    """The scenario file named by --scenario, and the group it builds."""
    sc = _load_scenario(args.scenario)
    return sc, _build_group(_need(sc, "group", (str, dict), "group"))


def _cmd_group(args) -> tuple[int, dict, list[str]]:
    _, g = _scenario_group(args)
    subs = all_subgroups(g)
    chars = character_group(full_subgroup(g))
    payload = {
        "name": g.name,
        "order": g.order,
        "abelian": g.is_abelian,
        "exponent": g.exponent,
        "labels": list(g.labels),
        "subgroup_count": len(subs),
        "character_count": len(chars),
    }
    lines = [
        f"group        {g.name}",
        f"order        {g.order}",
        f"abelian      {'yes' if g.is_abelian else 'no'}",
        f"exponent     {g.exponent}",
        f"subgroups    {len(subs)}",
        f"characters   {len(chars)}",
        "elements     " + " ".join(g.labels),
    ]
    return 0, payload, lines


def _cmd_classify(args) -> tuple[int, dict, list[str]]:
    sc, g = _scenario_group(args)
    mu = _measure_from_spec(g, _need(sc, "measure", dict, "measure"), "measure")
    verdict = classify_idempotent(mu)
    payload = {
        "kind": verdict.kind,
        "subgroup": _sub_labels(verdict.subgroup),
        "character": _char_desc(verdict.character),
        "measure": measure_to_jsonable(mu),
    }
    lines = [f"kind         {verdict.kind}"]
    if verdict.subgroup is not None:
        lines.append("subgroup     " + " ".join(verdict.subgroup.label_list))
        lines.append(f"character    {_char_desc(verdict.character)}")
    return 0, payload, lines


def _cmd_commute(args) -> tuple[int, dict, list[str]]:
    sc, g = _scenario_group(args)
    k1, rho1 = _read_character(g, sc, keys=("k1", "rho1"))
    k2, rho2 = _read_character(g, sc, keys=("k2", "rho2"))
    v = classify_pair(k1, rho1, k2, rho2, verify=True)
    payload: dict = {"kind": v.kind}
    lines = [f"kind         {v.kind}"]
    if v.kind == "commute":
        payload["product_subgroup"] = _sub_labels(v.product_subgroup)
        payload["product_character"] = _char_desc(v.product_character)
        lines.append(f"product      order-{v.product_subgroup.order} subgroup")
        lines.append(f"character    {_char_desc(v.product_character)}")
    elif v.kind == "non_commuting":
        payload["witness"] = g.labels[v.witness]
        payload["left_at_witness"] = str(v.left.coeff(v.witness))
        payload["right_at_witness"] = str(v.right.coeff(v.witness))
        lines.append(f"witness      {g.labels[v.witness]}")
        lines.append(f"left         {v.left.coeff(v.witness)}")
        lines.append(f"right        {v.right.coeff(v.witness)}")
    return 0, payload, lines


def _cmd_limit(args) -> tuple[int, dict, list[str]]:
    sc, g = _scenario_group(args)
    raw = _need(sc, "factors", list, "factors")
    if not raw:
        raise CliError("parse", "need at least one factor", "factors")
    factors = []
    for i, f in enumerate(raw):
        if not isinstance(f, dict):
            raise CliError("parse", "each factor is an object", f"factors[{i}]")
        factors.append(_read_character(g, f, f"factors[{i}]."))
    rep = idempotent_power_limit(factors, tol=args.tol, n_max=args.max_iter)
    payload = {
        "kind": rep.kind,
        "extension": _char_desc(rep.extension),
        "iterations": rep.iterations,
        "residual": rep.residual,
        "predicted": measure_to_jsonable(rep.predicted),
    }
    lines = [
        f"kind         {rep.kind}",
        f"extension    {_char_desc(rep.extension)}",
        f"iterations   {rep.iterations}",
        f"residual     {rep.residual:.3e}",
    ]
    return 0, payload, lines


def _cmd_stromberg(args) -> tuple[int, dict, list[str]]:
    sc, g = _scenario_group(args)
    mu = _measure_from_spec(g, _need(sc, "measure", dict, "measure"), "measure")
    res = stromberg_check(mu, tol=args.tol, n_max=args.max_iter)
    payload = {
        "kind": res.kind,
        "generated": _sub_labels(res.generated),
        "limit": measure_to_jsonable(res.limit) if res.limit is not None else None,
        "obstruction": _sub_labels(res.obstruction),
        "coset_rep": g.labels[res.coset_rep] if res.coset_rep is not None else None,
        "iterations": res.iterations,
        "residual": res.residual,
    }
    lines = [
        f"kind         {res.kind}",
        f"generated    order-{res.generated.order} subgroup",
        f"iterations   {res.iterations}",
    ]
    if res.kind == "converges":
        lines.append(f"limit        haar on {' '.join(res.generated.label_list)}")
        lines.append(f"residual     {res.residual:.3e}")
    else:
        lines.append(
            "obstruction  coset "
            f"{g.labels[res.coset_rep]} * {{{' '.join(res.obstruction.label_list)}}}"
        )
        lines.append(f"min step gap {res.residual:.3f}")
    return 0, payload, lines


def _cmd_measure_groups(args) -> tuple[int, dict, list[str]]:
    sc, g = _scenario_group(args)
    sub, chi = _read_character(g, sc)
    nkr = n_k_rho(sub, chi)
    gkr = g_k_rho(sub, chi)
    # Gamma has one translate per element of G_{K,rho}; Omega is G_{K,rho}/K
    omega = omega_class_count(sub, chi)
    payload = {
        "subgroup": _sub_labels(sub),
        "character": _char_desc(chi),
        "n_k_rho": _sub_labels(nkr),
        "g_k_rho": _sub_labels(gkr),
        "gamma_size": gkr.order,
        "omega_classes": omega,
    }
    lines = [
        f"subgroup     order {sub.order}: " + " ".join(sub.label_list),
        f"character    {_char_desc(chi)}",
        f"normalizer   order {nkr.order} (character-preserving)",
        f"commuting    order {gkr.order}: " + " ".join(gkr.label_list),
        f"gamma        {gkr.order} translation parts",
        f"omega        {omega} classes",
    ]
    return 0, payload, lines


def _cmd_free_walk(args) -> tuple[int, dict, list[str]]:
    sc = _load_scenario(args.scenario)
    m = _need(sc, "m", int, "m")
    n = _need(sc, "n", int, "n")
    n_max = sc.get("n_max", 8)
    if not isinstance(n_max, int) or n_max < 1:
        raise CliError("parse", "n_max must be a positive integer", "n_max")
    eps = sc.get("eps", 0.1)
    if not isinstance(eps, (int, float)) or isinstance(eps, bool) or eps <= 0:
        raise CliError("parse", "eps must be a positive number", "eps")
    rotations = None
    if "rotations" in sc:
        pair = _need(sc, "rotations", list, "rotations")
        if len(pair) != 2:
            raise CliError(
                "parse", "rotations must be [fraction, fraction]", "rotations"
            )
        rotations = tuple(_fraction(r, f"rotations[{i}]") for i, r in enumerate(pair))
    rep = free_product_decay(m, n, rotations=rotations, n_max=n_max, eps=float(eps))
    payload = {
        "orders": list(rep.orders),
        "exact_max_by_power": [str(x) for x in rep.exact_max_by_power],
        "max_by_power": [float(x) for x in rep.max_by_power],
        "support_by_power": list(rep.support_by_power),
        "strictly_decreasing": rep.strictly_decreasing,
        "below_eps_at": rep.below_eps_at,
        "budget_exceeded": rep.budget_exceeded,
    }
    lines = [f"free product C{m} * C{n}, powers 1..{len(rep.max_by_power)}"]
    for i, (mx, sup) in enumerate(zip(rep.max_by_power, rep.support_by_power), 1):
        lines.append(f"  n={i:<3d} max {mx:.6f}  support {sup}")
    lines.append(f"strictly decreasing: {rep.strictly_decreasing}")
    lines.append(f"below eps at: {rep.below_eps_at}")
    return 0, payload, lines


def _cmd_example33(args) -> tuple[int, dict, list[str]]:
    rep = example_33_report(args.grid)
    payload = {
        "grid": rep.grid,
        "panel": [
            {"test": name, "product": p, "haar": h, "delta": d}
            for name, p, h, d in rep.panel
        ],
        "normalization_product": rep.normalization_product,
        "normalization_haar": rep.normalization_haar,
        "max_delta": rep.max_delta,
        "separated": rep.separated,
    }
    lines = [f"grid {rep.grid}", "test     product       haar          delta"]
    for name, p, h, d in rep.panel:
        lines.append(f"{name:<8s} {p:+.9f}  {h:+.9f}  {d:+.9f}")
    lines.append(f"normalization  product {rep.normalization_product:.12f}  "
                 f"haar {rep.normalization_haar:.12f}")
    lines.append(f"max delta {rep.max_delta:.9f}  separated: {rep.separated}")
    return 0, payload, lines


def _cmd_paper_suite(args) -> tuple[int, dict, list[str]]:
    if args.only is not None and args.only not in FIXTURES:
        known = ", ".join(FIXTURES)
        raise CliError(
            "reference", f"unknown fixture {args.only!r} (known: {known})", "--only"
        )
    cfg = SuiteConfig(grid=args.grid, tol=args.tol, max_iter=args.max_iter)
    summary = run_suite(only=args.only, cfg=cfg)
    payload = {
        "passed": summary.passed,
        "results": [
            {"fixture": r.fixture, "passed": r.passed, "details": r.details}
            for r in summary.results
        ],
    }
    lines = [
        ("PASS " if r.passed else "FAIL ") + r.fixture for r in summary.results
    ]
    n_pass = sum(r.passed for r in summary.results)
    lines.append(f"{n_pass}/{len(summary.results)} fixtures passed")
    return 0 if summary.passed else 1, payload, lines


# -- entry point ------------------------------------------------------------------


_HANDLERS = {
    "group": _cmd_group,
    "classify": _cmd_classify,
    "commute": _cmd_commute,
    "limit": _cmd_limit,
    "stromberg": _cmd_stromberg,
    "measure-groups": _cmd_measure_groups,
    "free-walk": _cmd_free_walk,
    "example33": _cmd_example33,
    "paper-suite": _cmd_paper_suite,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idemconv",
        description="Exact convolution-idempotent computations on finite groups.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s ({backend_name()} kernel)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, scenario=False, iterate=False, grid=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit deterministic JSON")
        if scenario:
            p.add_argument(
                "--scenario", required=True, metavar="FILE",
                help="JSON scenario file (schema_version 1)",
            )
        if iterate:
            p.add_argument("--tol", type=float, default=1e-9,
                           help="float agreement tolerance (default 1e-9)")
            p.add_argument("--max-iter", type=int, default=500,
                           help="iteration cap for float corroboration (default 500)")
        if grid:
            p.add_argument("--grid", type=int, default=64,
                           help="quadrature nodes per axis (default 64)")
        return p

    add("group", "inspect a group construction", scenario=True)
    add("classify", "classify a measure as a convolution idempotent", scenario=True)
    add("commute", "trichotomy for a pair of character idempotents", scenario=True)
    add("limit", "power limit of a product of character idempotents",
        scenario=True, iterate=True)
    add("stromberg", "convergence dichotomy for a probability walk",
        scenario=True, iterate=True)
    add("measure-groups", "commuting group and measure-group data for (K, rho)",
        scenario=True)
    add("free-walk", "coefficient decay in a free product of two cyclic groups",
        scenario=True)
    add("example33", "rotation-group quadrature discrepancy panel", grid=True)
    p = add("paper-suite", "run the named verification fixtures",
            iterate=True, grid=True)
    p.add_argument("--only", metavar="FIXTURE", default=None,
                   help="run a single fixture by id")
    return parser


def _check_flags(args) -> None:
    """--tol must be finite and positive, --max-iter and --grid at least 1."""
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        raise CliError("parse", f"--tol must be finite and > 0, got {tol!r}", "--tol")
    for flag in ("--max-iter", "--grid"):
        value = getattr(args, flag[2:].replace("-", "_"), 1)
        if value < 1:
            raise CliError("parse", f"{flag} must be >= 1, got {value}", flag)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        _check_flags(args)
        code, payload, lines = handler(args)
    except CliError as err:
        return _emit_error(err, args.json)
    except BudgetExceeded as exc:
        return _emit_error(
            CliError("precondition", f"word budget exceeded: {exc}"), args.json
        )
    except IdemconvError as exc:
        return _emit_error(CliError("precondition", str(exc)), args.json)
    payload = {"schema_version": SCHEMA_VERSION, "task": args.command, **payload}
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def _emit_error(err: CliError, as_json: bool) -> int:
    obj: dict = {"category": err.category, "message": str(err)}
    if err.field:
        obj["field"] = err.field
    if as_json:
        print(json.dumps({"error": obj}, sort_keys=True), file=sys.stderr)
    else:
        where = f" at {err.field}" if err.field else ""
        print(f"error[{err.category}]{where}: {err}", file=sys.stderr)
    return _CATEGORY_EXIT[err.category]


if __name__ == "__main__":
    sys.exit(main())
