"""Batch command-line front end.

Subcommands: walls, segment, chamber, stability, ample, replace, mixedsub,
verify-paper.  Data commands read and write JSON documents whose scalar
leaves are exact rational-function strings; verify-paper replays the
package's golden identities and exits nonzero if any fails.  Exit codes:
0 success, 1 failed assertion suite, 2 bad input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import arrangement as arr_mod
from . import blowup, jets, mixedsub, weights
from .epsfield import EPS, EpsRat, parse_eps_rat, parse_rat
from .errors import ParseError, WallcrossError


# -- JSON converters ---------------------------------------------------------


def weight_vector_to_json(b: weights.WeightVector) -> dict:
    return {"d": b.d, "n": b.n, "entries": [str(x) for x in b.entries]}


def weight_vector_from_json(doc: Any) -> weights.WeightVector:
    what = "weight vector document"
    d, n = _json_int(doc, "d", what), _json_int(doc, "n", what)
    entries = []
    for i, text in enumerate(_json_list(doc, "entries", what), 1):
        if not isinstance(text, str):
            raise ParseError("weight entry %d must be a string, got %s" % (i, json.dumps(text)))
        try:
            entries.append(parse_eps_rat(text))
        except ParseError as exc:
            raise ParseError("weight entry %d: %s" % (i, exc)) from exc
    return weights.WeightVector(d, n, entries)


def wall_to_json(w: weights.Wall) -> dict:
    return {"I": sorted(w.I), "k": w.k}


def crossing_to_json(c: weights.Crossing) -> dict:
    return {
        "wall": wall_to_json(c.wall),
        "u0": str(c.u0),
        "point": weight_vector_to_json(c.point),
    }


def arrangement_to_json(a: arr_mod.Arrangement) -> dict:
    return {
        "d": a.d,
        "n": a.n,
        "hyperplanes": [[str(x) for x in row] for row in a.rows],
    }


def arrangement_from_json(doc: Any) -> arr_mod.Arrangement:
    what = "arrangement document"
    d, n = _json_int(doc, "d", what), _json_int(doc, "n", what)
    rows = []
    for i, row in enumerate(_json_list(doc, "hyperplanes", what), 1):
        if not isinstance(row, list):
            raise ParseError("hyperplane %d must be a JSON list" % i)
        rows.append([parse_rat(x) for x in row])
    return arr_mod.Arrangement(d, n, rows)


def flat_to_json(f: Optional[arr_mod.Flat]) -> Optional[dict]:
    if f is None:
        return None
    return {"codim": f.codim, "support": sorted(f.support)}


def section_to_json(s: jets.LimitSection) -> dict:
    return {"constant": str(s.constant), "linear": [str(x) for x in s.linear]}


def _poly_coeffs(text: str) -> tuple:
    """Coefficients of a polynomial-in-t expression; denominators rejected."""
    from .epsfield import parse_poly

    return parse_poly(text, var="t")


def _json_field(doc: Any, key: str, what: str) -> Any:
    if not isinstance(doc, dict):
        raise ParseError("%s must be a JSON object" % what)
    if key not in doc:
        raise ParseError("%s has no %r field" % (what, key))
    return doc[key]


def _json_int(doc: Any, key: str, what: str) -> int:
    """An integer field, given as a JSON integer or a string of digits."""
    value = _json_field(doc, key, what)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError("%s field %r must be an integer, got %s" % (what, key, json.dumps(value)))


def _json_list(doc: Any, key: str, what: str) -> list:
    value = _json_field(doc, key, what)
    if not isinstance(value, list):
        raise ParseError("%s field %r must be a JSON list, got %s" % (what, key, json.dumps(value)))
    return value


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError("invalid JSON in %s: %s" % (path, exc)) from exc


def _resolve_eps(args) -> EpsRat:
    if getattr(args, "eps", None):
        value = parse_rat(args.eps)
        if not 0 < value < 1:
            raise ParseError("--eps must be a rational in (0, 1)")
        return EpsRat.from_rat(value)
    return EPS


def _resolve_weights(
    spec: str, args, eps: EpsRat, check_size=weights.check_size
) -> weights.WeightVector:
    """A named weight vector or one read from a file.  A named vector has n
    entries from --n alone, so check_size, the size guard of the module the
    vector is for, runs before it is built."""
    if spec in ("t", "nt"):
        if args.d is None or args.n is None:
            raise ParseError("--d and --n are required with named weights")
        check_size(args.n)
        maker = weights.t_weights if spec == "t" else weights.nt_weights
        return maker(args.d, args.n, eps)
    wv = weight_vector_from_json(_load_json(spec))
    if args.d is not None and args.d != wv.d:
        raise ParseError("--d disagrees with the weight file")
    if args.n is not None and args.n != wv.n:
        raise ParseError("--n disagrees with the weight file")
    return wv


def _emit(doc: Any, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------


def cmd_walls(args) -> int:
    eps = _resolve_eps(args)
    b = _resolve_weights(args.weights, args, eps)
    found = weights.walls_containing(b)
    _emit(
        {
            "weights": weight_vector_to_json(b),
            "walls": [wall_to_json(w) for w in found],
            "count": len(found),
        },
        args,
    )
    return 0


def cmd_segment(args) -> int:
    eps = _resolve_eps(args)
    b = _resolve_weights(args.src, args, eps)
    b2 = _resolve_weights(args.dst, args, eps)
    crossings = weights.segment_walls(b, b2)
    _emit(
        {
            "from": weight_vector_to_json(b),
            "to": weight_vector_to_json(b2),
            "crossings": [crossing_to_json(c) for c in crossings],
        },
        args,
    )
    return 0


def cmd_chamber(args) -> int:
    eps = _resolve_eps(args)
    b = _resolve_weights(args.first, args, eps)
    b2 = _resolve_weights(args.second, args, eps)
    _emit(
        {
            "same_chamber": weights.same_chamber(b, b2),
            "first_in_closure_of_second": weights.in_chamber_closure(b, b2),
            "second_in_closure_of_first": weights.in_chamber_closure(b2, b),
            "leq": weights.leq(b, b2),
            "geq": weights.leq(b2, b),
        },
        args,
    )
    return 0


def cmd_stability(args) -> int:
    eps = _resolve_eps(args)
    # Named weights have total above d + 1, so is_stable always reaches the
    # flat enumeration; its guard is checked when they are resolved.
    if args.arrangement == "e_config":
        if args.d is None or args.n is None:
            raise ParseError("--d and --n are required with the e_config arrangement")
        # Resolved first: e_config builds n rows from --n alone.
        b = _resolve_weights(args.weights, args, eps, arr_mod.check_size)
        arrangement = arr_mod.e_configuration(args.d, args.n)
    else:
        arrangement = arrangement_from_json(_load_json(args.arrangement))
        if args.d is not None and args.d != arrangement.d:
            raise ParseError("--d disagrees with the arrangement file")
        if args.n is not None and args.n != arrangement.n:
            raise ParseError("--n disagrees with the arrangement file")
        args.d, args.n = arrangement.d, arrangement.n
        b = _resolve_weights(args.weights, args, eps, arr_mod.check_size)
    verdict = arr_mod.is_stable(arrangement, b)
    _emit(
        {
            "weights": weight_vector_to_json(b),
            "status": verdict.status,
            "witness": flat_to_json(verdict.witness),
        },
        args,
    )
    return 0


def cmd_ample(args) -> int:
    eps = _resolve_eps(args)
    if args.model == "blowup":
        if args.d is None or args.n is None:
            raise ParseError("--d and --n are required for the blow-up model")
        divisor = blowup.degeneration_log_divisor(args.d, args.n, eps)
        pairings = {
            curve.value: str(blowup.pair(divisor, curve)) for curve in blowup.TestCurve
        }
        _emit(
            {
                "divisor": {"h": str(divisor.h), "e": str(divisor.e)},
                "pairings": pairings,
                "ample": blowup.is_ample_blowup(divisor),
            },
            args,
        )
        return 0
    if not args.surface:
        raise ParseError("the pairing model needs a surface JSON file")
    doc = _load_json(args.surface)
    try:
        surface = blowup.PairingSurface(
            [[parse_rat(x) for x in row] for row in doc["matrix"]],
            [parse_eps_rat(x) for x in doc["divisor"]],
        )
    except (KeyError, TypeError) as exc:
        raise ParseError("malformed surface document: %s" % exc) from exc
    degrees = [str(surface.curve_degree(j)) for j in range(surface.curve_count)]
    _emit({"pairings": degrees, "ample": blowup.ample_from_pairing(surface)}, args)
    return 0


def cmd_replace(args) -> int:
    eps = _resolve_eps(args)
    doc = _load_json(args.family)
    what = "family document"
    d, order = _json_int(doc, "d", what), _json_int(doc, "truncation", what)
    members = []
    for i, row in enumerate(_json_list(doc, "members", what), 1):
        if not isinstance(row, list):
            raise ParseError("member %d must be a JSON list, got %s" % (i, json.dumps(row)))
        members.append([jets.JetPoly(_poly_coeffs(text), order) for text in row])
    family = jets.JetFamily(d, members)
    n = args.n if args.n is not None else d + 1 + len(family.members)
    model = jets.stable_replacement_model(family, n)
    depth = jets.separation_depth(family)
    _emit(
        {
            "d": d,
            "n": n,
            "depth": depth,
            "sections": [section_to_json(s) for s in model.sections],
            "classes": [list(cls) for cls in model.classes],
            "valid": jets.validate_degeneration(model, eps),
        },
        args,
    )
    return 0


def cmd_mixedsub(args) -> int:
    mixedsub.check_size(args.m)
    if args.lifting:
        doc = _load_json(args.lifting)
        if not isinstance(doc, list):
            raise ParseError("lifting document must be a JSON list of rationals")
        lifting = [parse_rat(str(x)) for x in doc]
    else:
        rng = random.Random(args.random)
        lifting = [Fraction(rng.randint(0, 10**6)) for _ in range(args.m * (args.d + 1))]
    subdivision = mixedsub.regular_mixed_subdivision(args.d, args.m, lifting)
    graph = mixedsub.dual_graph(subdivision)
    report = {
        "d": args.d,
        "m": args.m,
        "lifting": [str(x) for x in subdivision.lifting],
        "fine": subdivision.is_fine,
        "cells": [
            {
                "faces": [sorted(f) for f in cell.faces],
                "volume": str(mixedsub.cell_volume(cell)),
                "vertices": [
                    [str(x) for x in v] for v in mixedsub.cell_vertices(cell)
                ],
            }
            for cell in subdivision.cells
        ],
        "dual_graph": [
            {
                "cells": [edge.cell_a, edge.cell_b],
                "facet": [[str(x) for x in p] for p in edge.facet],
            }
            for edge in graph.edges
        ],
        "defect_cells": (
            [
                {
                    "cell": dc.index,
                    "boundary": dc.boundary,
                    "vertex": [str(x) for x in dc.vertex],
                }
                for dc in mixedsub.qcartier_defect_cells(subdivision)
            ]
            if args.d == 2
            else []
        ),
        "fiber_vertex": (
            [[str(x) for x in block] for block in mixedsub.fiber_vertex(subdivision).blocks]
            if subdivision.is_fine
            else None
        ),
    }
    _emit(report, args)
    return 0


# -- the golden identity suite ------------------------------------------------


def paper_identities() -> list[tuple[str, bool]]:
    """Every closed-form identity the package is expected to replay, as
    (name, holds) pairs computed with symbolic eps."""
    e = EPS
    checks: list[tuple[str, bool]] = []

    table = {
        ("h", "e"): 0, ("h", "f"): 1, ("h", "s"): 1,
        ("ex", "e"): -1, ("ex", "f"): 1, ("ex", "s"): 0,
    }
    curve_of = {
        "e": blowup.TestCurve.E_LINE,
        "f": blowup.TestCurve.LINE_THROUGH_P,
        "s": blowup.TestCurve.LINE_MISSING_P,
    }
    for (cls, curve), expected in table.items():
        divisor = blowup.hyperplane_class(2) if cls == "h" else blowup.exceptional_class(2)
        name = "pairing table %s.%s = %d" % ("H" if cls == "h" else "E", curve, expected)
        checks.append((name, blowup.pair(divisor, curve_of[curve]) == expected))

    for d, n in [(1, 5), (1, 6), (2, 6), (2, 7), (3, 8)]:
        t = weights.t_weights(d, n)
        nt = weights.nt_weights(d, n)
        expected_t = sorted(
            (
                weights.Wall(frozenset(I), len(I))
                for size in range(2, d + 2)
                for I in itertools.combinations(range(1, d + 2), size)
            ),
            key=weights.Wall.sort_key,
        )
        checks.append(
            ("t wall set (d=%d,n=%d)" % (d, n), weights.walls_containing(t) == expected_t)
        )
        tail = frozenset(range(d + 2, n + 1))
        expected_nt = sorted(
            (weights.Wall(tail | {i}, 2) for i in range(1, d + 2)),
            key=weights.Wall.sort_key,
        )
        checks.append(
            ("nt wall set (d=%d,n=%d)" % (d, n), weights.walls_containing(nt) == expected_nt)
        )
        crossings = weights.segment_walls(t, nt)
        u0 = (1 + e * (d + 1 - n)) / (1 + e * (d + 2 - n))
        heavy = 1 - e + e**2 / (1 + e * (d + 2 - n))
        light = EpsRat.from_rat(Fraction(1, n - d - 1))
        ok = (
            len(crossings) == 1
            and crossings[0].wall == weights.Wall(tail, 1)
            and crossings[0].u0 == u0
            and all(x == heavy for x in crossings[0].point.entries[: d + 1])
            and all(x == light for x in crossings[0].point.entries[d + 1 :])
        )
        checks.append(("unique crossing with u0 and w closed forms (d=%d,n=%d)" % (d, n), ok))

        config = arr_mod.e_configuration(d, n)
        t_ok = arr_mod.is_stable(config, t).is_stable
        nt_verdict = arr_mod.is_stable(config, nt)
        nt_ok = nt_verdict.status == "not-lc" and nt_verdict.witness.support == tail
        checks.append(("reference configuration dichotomy (d=%d,n=%d)" % (d, n), t_ok and nt_ok))

    for d in (2, 3, 4):
        divisor = blowup.degeneration_log_divisor(d, d + 3)
        ok = (
            blowup.pair(divisor, blowup.TestCurve.E_LINE) == 1 - e * (1 + d)
            and blowup.pair(divisor, blowup.TestCurve.LINE_THROUGH_P) == e
            and blowup.pair(divisor, blowup.TestCurve.LINE_MISSING_P) == 1 - e * d
        )
        checks.append(("degeneration log divisor pairings (d=%d)" % d, ok))
        checks.append(("plain component coefficient (d=%d)" % d, blowup.y1_log_divisor(d) == 1 - e * (d + 1)))
        checks.append(
            (
                "canonical class on f (d=%d)" % d,
                blowup.pair(blowup.canonical_class(d), blowup.TestCurve.LINE_THROUGH_P) == -2,
            )
        )
        checks.append(("ruled fiber degree zero (d=%d)" % d, blowup.ruled_fiber_degree(d) == 0))

    for n in range(6, 11):
        mc = blowup.modification_checks(n)
        ok = (
            mc.on_exceptional == e
            and mc.on_ruling_lower == (1 + e * (1 - 2 * (n - 3))) / (n - 3)
            and mc.on_exceptional.sign() > 0
            and mc.on_ruling_lower.sign() > 0
        )
        checks.append(("modification margins (n=%d)" % n, ok))

    return checks


def cmd_verify_paper(args) -> int:
    checks = paper_identities()
    failed = [name for name, ok in checks if not ok]
    _emit(
        {
            "identities": [{"name": name, "pass": ok} for name, ok in checks],
            "total": len(checks),
            "failed": len(failed),
        },
        args,
    )
    return 0 if not failed else 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallcross",
        description="Exact wall-and-chamber computations for weighted hyperplane arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_dn=True):
        if with_dn:
            p.add_argument("--d", type=int, default=None)
            p.add_argument("--n", type=int, default=None)
        p.add_argument("--eps", default=None, help="concrete rational eps (default: symbolic)")
        p.add_argument("--output", default=None, help="write the JSON report here")

    p = sub.add_parser("walls", help="walls through a weight vector")
    p.add_argument("--weights", required=True, help="t, nt, or a weight JSON file")
    add_common(p)
    p.set_defaults(func=cmd_walls)

    p = sub.add_parser("segment", help="wall crossings on a weight segment")
    p.add_argument("--from", dest="src", required=True, help="t, nt, or a weight JSON file")
    p.add_argument("--to", dest="dst", required=True, help="t, nt, or a weight JSON file")
    add_common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("chamber", help="chamber predicates for two weight vectors")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    add_common(p)
    p.set_defaults(func=cmd_chamber)

    p = sub.add_parser("stability", help="stability of a weighted arrangement")
    p.add_argument("arrangement", help="arrangement JSON file or the literal e_config")
    p.add_argument("--weights", required=True, help="t, nt, or a weight JSON file")
    add_common(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("ample", help="ampleness of log divisors")
    p.add_argument("--model", choices=("blowup", "pairing"), required=True)
    p.add_argument("surface", nargs="?", default=None, help="surface JSON (pairing model)")
    add_common(p)
    p.set_defaults(func=cmd_ample)

    p = sub.add_parser("replace", help="limit sections of a jet family")
    p.add_argument("family", help="family JSON file")
    add_common(p)
    p.set_defaults(func=cmd_replace)

    p = sub.add_parser("mixedsub", help="regular mixed subdivision of m*Delta_d")
    p.add_argument("--d", type=int, required=True, choices=(1, 2))
    p.add_argument("--m", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lifting", default=None, help="JSON list of rational heights")
    group.add_argument("--random", type=int, default=None, help="seeded random lifting")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_mixedsub)

    p = sub.add_parser("verify-paper", help="replay the golden identity suite")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WallcrossError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
