"""The four benchmark workloads.

A workload turns (seed, index) into one plain input, runs one timed
operation on it through wallcross's public functions, and checks the answer
outside the timed region against an independent computation (oracles.py).
Inputs follow a fixed cycle of slots, so every prefix of a run holds the
input shapes in the workload's stated proportions and two seeds differ only
in the random values inside each shape.

Every call goes through a module attribute (W.segment_walls, not a name
imported at load time), so the traced run's wrappers see each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from math import factorial

import oracles

import wallcross.arrangement as A
import wallcross.cli as CLI
import wallcross.mixedsub as M
import wallcross.weights as W
from wallcross.epsfield import EpsPoly, EpsRat, parse_eps_rat

F = Fraction
ZERO = F(0)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash with SHA-512, so the stream is the same in every process.
    return random.Random("%s/%d/%d" % (workload, seed, index))


def _value(a: Fraction, c: Fraction):
    """The Q(e) element a + c*e, as a Fraction when c = 0."""
    return a if c == 0 else EpsRat(EpsPoly((a, c)))


def _lin_text(a: Fraction, c: Fraction) -> str:
    return str(a) if c == 0 else "%s + %s*e" % (a, c)


def _sum_exceeds(entries, level: int) -> bool:
    a = sum(x for x, _ in entries)
    c = sum(y for _, y in entries)
    return oracles.lin_sign(a - level, c) > 0


def _rational_vector(rng, d, n):
    while True:
        entries = [(F(rng.randint(1, 24), 24), ZERO) for _ in range(n)]
        if _sum_exceeds(entries, d + 1):
            return entries


def _symbolic_vector(rng, d, n):
    while True:
        entries = []
        for _ in range(n):
            a = rng.randint(1, 24)
            c = rng.randint(-2, 0) if a == 24 else rng.randint(-2, 2)
            entries.append((F(a, 24), F(c)))
        if _sum_exceeds(entries, d + 1):
            return entries


def _toric_pair(d, n):
    light = F(1, n - d - 1)
    t = [(F(1), ZERO)] * (d + 1) + [(ZERO, F(1))] * (n - d - 1)
    nt = [(F(1), F(-1))] * (d + 1) + [(light, light)] * (n - d - 1)
    return t, nt


def _three_valued_pair(rng, d, n):
    """Two vectors constant on the same three blocks of coordinates."""
    blocks = [rng.randrange(3) for _ in range(n)]
    while True:
        v = rng.sample(range(1, 25), 3)
        w = rng.sample(range(1, 25), 3)
        b = [(F(v[x], 24), ZERO) for x in blocks]
        b2 = [(F(w[x], 24), ZERO) for x in blocks]
        if b != b2 and _sum_exceeds(b, d + 1) and _sum_exceeds(b2, d + 1):
            return b, b2


class Workload:
    """Base: the slot cycle, the corpus sizes and the default hooks."""

    name = ""
    #: Ops in the fixed corpus of the traced run and of the committed digests.
    trace_ops = 0
    #: The distinct inputs of a timed run, made at set-up, a whole number of
    #: slot cycles; the run repeats them in rounds.
    corpus_size = 0

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def corpus(self, count: int) -> list:
        return [self.make(i) for i in range(count)]

    def warmup_items(self) -> list:
        """Untimed inputs run once before timing, from a stream of their own."""
        return []

    def make(self, index: int, stream: str = "run"):
        """The input at this index of the seed's stream ("run" or "warmup")."""
        raise NotImplementedError

    def before(self, item) -> None:
        """Untimed preparation just before an operation."""

    def collect(self, item, result):
        """Untimed: whatever the operation left outside its return value."""
        return result

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> list[str]:
        raise NotImplementedError

    def canonical(self, item, result) -> str:
        raise NotImplementedError

    def digest(self, item, result) -> str:
        return hashlib.sha256(self.canonical(item, result).encode()).hexdigest()[:16]

    def probes(self) -> list[dict]:
        """Untimed checks run once after the timed loop: (name, outcome, ok)."""
        return []

    def properties(self, items) -> dict[str, tuple[int, int]]:
        """Input property shares over the given inputs, as (hits, base)."""
        return {}

    def layer_counts(self, item, result) -> dict[str, int]:
        """Counts the traced run takes from an operation's output."""
        return {}


# -- chamber_walk -------------------------------------------------------------


class ChamberWalk(Workload):
    """One op: both wall sets, the segment crossings and the chamber predicates
    of a weight pair (b, b2)."""

    name = "chamber_walk"
    trace_ops = 28
    corpus_size = 112
    # (shape, n values, d offset).  Each time the cycle comes round, d steps
    # through 1, 2, 3 from the slot's offset and n through its values.  The
    # heavy shapes (last eight slots) hold the 90th percentile; with two of
    # each, it falls among more inputs and spreads less from seed to seed.
    SLOTS = (
        [("rational", (6,), k % 3) for k in range(11)]
        + [("rational", (7,), k % 3) for k in range(4)]
        + [("symbolic", (6,), k % 3) for k in range(5)]
        + [("rational", (8,), k) for k in range(2)]
        + [("symbolic", (7,), 1 + k) for k in range(2)]
        + [("toric", (9, 10), 0), ("toric", (9,), 1)]
        + [("three_valued", (9,), 1 + k) for k in range(2)]
    )

    def make(self, index, stream="run"):
        rng = _rng(self.name + stream, self.seed, index)
        shape, sizes, offset = self.SLOTS[index % len(self.SLOTS)]
        turn = index // len(self.SLOTS)
        d, n = 1 + (turn + offset) % 3, sizes[turn % len(sizes)]
        if shape == "rational":
            b, b2 = _rational_vector(rng, d, n), _rational_vector(rng, d, n)
        elif shape == "symbolic":
            b, b2 = _symbolic_vector(rng, d, n), _symbolic_vector(rng, d, n)
        elif shape == "toric":
            b, b2 = _toric_pair(d, n)
        else:
            b, b2 = _three_valued_pair(rng, d, n)
        return {
            "shape": shape, "d": d, "n": n, "lin": (b, b2),
            "b": [_value(*x) for x in b], "b2": [_value(*x) for x in b2],
        }

    def warmup_items(self):
        return [self.make(i, stream="warmup") for i in (0, 1, 2)]

    def run(self, item):
        d, n = item["d"], item["n"]
        b = W.WeightVector(d, n, item["b"])
        b2 = W.WeightVector(d, n, item["b2"])
        return {
            "walls": (W.walls_containing(b), W.walls_containing(b2)),
            "crossings": W.segment_walls(b, b2),
            "same_chamber": W.same_chamber(b, b2),
            "first_in_closure_of_second": W.in_chamber_closure(b, b2),
            "second_in_closure_of_first": W.in_chamber_closure(b2, b),
            "leq": W.leq(b, b2),
        }

    def check(self, item, result):
        errors = []
        lin_b, lin_b2 = item["lin"]
        for vector, walls in zip((lin_b, lin_b2), result["walls"]):
            got = [(w.k, tuple(sorted(w.I))) for w in walls]
            if got != oracles.walls_through(vector):
                errors.append("walls_containing differs from the subset-sum oracle")
        crossings = result["crossings"]
        got = {(c.wall.k, tuple(sorted(c.wall.I))) for c in crossings}
        if len(got) != len(crossings) or got != oracles.crossed_walls(lin_b, lin_b2):
            errors.append("segment_walls differs from the subset-sum oracle")
        errors += _crossing_errors(item, crossings)
        expected = oracles.chamber_predicates(lin_b, lin_b2, item["d"])
        for key in ("same_chamber", "first_in_closure_of_second",
                    "second_in_closure_of_first", "leq"):
            if result[key] != expected[key]:
                errors.append("%s = %s, oracle says %s" % (key, result[key], expected[key]))
        return errors

    def canonical(self, item, result):
        return json.dumps({
            "walls": [[[w.k, sorted(w.I)] for w in ws] for ws in result["walls"]],
            "crossings": [
                [c.wall.k, sorted(c.wall.I), str(c.u0), [str(x) for x in c.point.entries]]
                for c in result["crossings"]
            ],
            "predicates": [result[k] for k in (
                "same_chamber", "first_in_closure_of_second",
                "second_in_closure_of_first", "leq")],
        }, separators=(",", ":"))

    def properties(self, items):
        few = sum(item["shape"] in ("toric", "three_valued") for item in items)
        return {"few_valued_pairs": (few, len(items))}


def _crossing_errors(item, crossings) -> list[str]:
    """Each crossing point lies on its wall, on the segment, with 0 < u0 < 1,
    and the list is sorted by u0."""
    b = [EpsRat.coerce(x) for x in item["b"]]
    b2 = [EpsRat.coerce(x) for x in item["b2"]]
    checked_points = {}
    previous = None
    for c in crossings:
        if c.u0.sign() <= 0 or (c.u0 - 1).sign() >= 0:
            return ["crossing parameter %s is outside (0, 1)" % c.u0]
        if previous is not None and (c.u0 - previous).sign() < 0:
            return ["crossings are not sorted by u0"]
        previous = c.u0
        entries = c.point.entries
        if id(c.point) not in checked_points:
            checked_points[id(c.point)] = c.point
            if any(p != x + (y - x) * c.u0 for p, x, y in zip(entries, b, b2)):
                return ["crossing point is not on the segment at u0 = %s" % c.u0]
        total = EpsRat.coerce(0)
        for i in c.wall.I:
            total = total + entries[i - 1]
        if total != c.wall.k:
            return ["crossing point is off its wall %r" % (c.wall,)]
    return []


# -- flat_stability -------------------------------------------------------------


def _solve_left(heavy, row):
    """Coordinates x with sum_i x_i * heavy_i = row, or None if heavy is singular."""
    size = len(heavy)
    # Columns of the augmented system are the heavy rows; solve by elimination.
    m = [[F(heavy[j][i]) for j in range(size)] + [F(row[i])] for i in range(size)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][size] for r in range(size)]


class FlatStability(Workload):
    """One op: dichotomy_check on an arrangement built from integer rows."""

    name = "flat_stability"
    trace_ops = 56
    corpus_size = 196
    SLOTS = (
        [("random", 2, 6)], [("random", 2, 7)], [("random", 2, 8)], [("random", 2, 9)],
        [("random", 2, 10)], [("random", 2, 11)], [("random", 2, 12)],
        [("random", 3, 6)], [("random", 3, 7)], [("random", 3, 8)],
        [("random", 3, 9)], [("random", 3, 10)], [("random", 3, 10)],
        [("e_image", 2, 6), ("e_image", 3, 7), ("e_image", 2, 9),
         ("e_image", 3, 10), ("e_image", 2, 12)],
    )

    def make(self, index, stream="run"):
        rng = _rng(self.name + stream, self.seed, index)
        options = self.SLOTS[index % len(self.SLOTS)]
        kind, d, n = options[(index // len(self.SLOTS)) % len(options)]
        rows = self._e_image(rng, d, n) if kind == "e_image" else self._t_stable(rng, d, n)
        return {"kind": kind, "d": d, "n": n, "rows": rows}

    @staticmethod
    def _small_row(rng, d):
        while True:
            row = [rng.randint(-2, 2) for _ in range(d + 1)]
            if any(row):
                return row

    def _t_stable(self, rng, d, n):
        """Random small rows screened for stability under t = (1^(d+1), e^(n-d-1)).

        That holds exactly when the d+1 heavy rows are independent and no
        light row lies in the span of d or fewer of them, i.e. every
        coordinate of a light row in the heavy basis is nonzero.  Rows are
        drawn independently, so screening row by row gives the same
        distribution as rejecting whole arrangements.
        """
        while True:
            heavy = [self._small_row(rng, d) for _ in range(d + 1)]
            if _solve_left(heavy, heavy[0]) is not None:
                break
        rows = list(heavy)
        while len(rows) < n:
            row = self._small_row(rng, d)
            if all(_solve_left(heavy, row)):
                rows.append(row)
        return rows

    def _e_image(self, rng, d, n):
        """A projective image of e_configuration(d, n): rows times an
        invertible matrix, each row rescaled."""
        while True:
            mat = [self._small_row(rng, d) for _ in range(d + 1)]
            if _solve_left(mat, mat[0]) is not None:
                break
        base = [[int(i == j) for j in range(d + 1)] for i in range(d + 1)]
        base += [[1] * (d + 1)] * (n - d - 1)
        rows = []
        for row in base:
            scale = rng.choice((-2, -1, 1, 2))
            rows.append([scale * sum(row[k] * mat[k][j] for k in range(d + 1))
                         for j in range(d + 1)])
        return rows

    def warmup_items(self):
        return [self.make(i, stream="warmup") for i in (0, 7, 13)]

    def run(self, item):
        return A.dichotomy_check(A.Arrangement(item["d"], item["n"], item["rows"]))

    def check(self, item, result):
        if result is not True:
            return ["dichotomy_check returned %r on a t-stable arrangement" % (result,)]
        return []

    def canonical(self, item, result):
        return "%s %d %d %r" % (item["kind"], item["d"], item["n"], result)

    def properties(self, items):
        return {"e_images": (sum(i["kind"] == "e_image" for i in items), len(items))}


# -- subdivision ----------------------------------------------------------------


class Subdivision(Workload):
    """One op: a regular mixed subdivision, its dual graph, its defect cells
    (d = 2) and its fiber vertex (when fine)."""

    name = "subdivision"
    trace_ops = 36
    corpus_size = 144
    # (kind, d, m).  generic: heights in [0, 10^4]; coarse: heights in
    # [0, 2], often non-generic; eps: h + c*e with h in [0, 6].
    SLOTS = (
        ("generic", 2, 2), ("coarse", 2, 2),
        ("generic", 2, 3), ("generic", 2, 3), ("coarse", 2, 3),
        ("generic", 2, 4), ("generic", 2, 4), ("generic", 2, 4), ("coarse", 2, 4),
        ("generic", 2, 5),
        ("generic", 1, 3), ("generic", 1, 4), ("coarse", 1, 5), ("generic", 1, 6),
        ("eps", 2, 2), ("eps", 2, 2), ("eps", 2, 3), ("eps", 2, 3),
    )

    def make(self, index, stream="run"):
        rng = _rng(self.name + stream, self.seed, index)
        kind, d, m = self.SLOTS[index % len(self.SLOTS)]
        count = m * (d + 1)
        if kind == "eps":
            lin = [(F(rng.randint(0, 6)), F(rng.randint(-3, 3))) for _ in range(count)]
        else:
            top = 10**4 if kind == "generic" else 2
            lin = [(F(rng.randint(0, top)), ZERO) for _ in range(count)]
        return {"kind": kind, "d": d, "m": m, "lin": lin,
                "lifting": [_value(*x) for x in lin]}

    def warmup_items(self):
        return [self.make(i, stream="warmup") for i in (0, 10, 14)]

    def run(self, item):
        s = M.regular_mixed_subdivision(item["d"], item["m"], item["lifting"])
        return {
            "subdivision": s,
            "graph": M.dual_graph(s),
            "defects": M.qcartier_defect_cells(s) if item["d"] == 2 else [],
            "fiber": M.fiber_vertex(s) if s.is_fine else None,
        }

    def check(self, item, result):
        d, m = item["d"], item["m"]
        s = result["subdivision"]
        cells = [cell.faces for cell in s.cells]
        errors = []
        total = sum(oracles.cell_volume(faces, d) for faces in cells)
        if total != F(m**d, factorial(d)):
            errors.append("cell volumes sum to %s, not m^d/d!" % total)
        pairs, most = oracles.shared_facet_pairs(cells, d)
        if most > 2:
            errors.append("a facet is shared by %d cells" % most)
        graph = {(e.cell_a, e.cell_b) for e in result["graph"].edges}
        if graph != pairs or len(graph) != len(result["graph"].edges):
            errors.append("dual_graph edges differ from the shared facets")
        fine = all(sum(len(f) - 1 for f in faces) == d for faces in cells)
        if fine != s.is_fine or (result["fiber"] is None) == fine:
            errors.append("fine flag or fiber vertex inconsistent")
        if result["fiber"] is not None:
            # Summed over copies, the blocks give vol * centroid of m*Delta_d.
            target = F(m**d, factorial(d)) * F(m, d + 1)
            for j in range(d):
                if sum(block[j] for block in result["fiber"].blocks) != target:
                    errors.append("fiber vertex blocks do not sum to the centroid")
                    break
        if d == 2:
            got = [(x.index, x.boundary, x.vertex) for x in result["defects"]]
            if got != oracles.defect_cells(cells, m):
                errors.append("qcartier_defect_cells differs from the oracle")
        return errors

    def canonical(self, item, result):
        s = result["subdivision"]
        fiber = result["fiber"]
        return json.dumps({
            "cells": [[sorted(f) for f in cell.faces] for cell in s.cells],
            "edges": [[e.cell_a, e.cell_b, [[str(x) for x in p] for p in e.facet]]
                      for e in result["graph"].edges],
            "defects": [[x.index, x.boundary, [str(v) for v in x.vertex]]
                        for x in result["defects"]],
            "fiber": None if fiber is None else [[str(x) for x in b] for b in fiber.blocks],
        }, separators=(",", ":"))

    def properties(self, items):
        return {
            "eps_liftings": (sum(i["kind"] == "eps" for i in items), len(items)),
            "coarse_range_liftings": (sum(i["kind"] == "coarse" for i in items), len(items)),
        }


# -- cli_batch -------------------------------------------------------------------


class CliBatch(Workload):
    """One op: an in-process wallcross.cli.main(argv) call on a JSON document
    written at set-up, with --output into the run's scratch directory."""

    name = "cli_batch"
    trace_ops = 80
    corpus_size = 300
    SLOTS = (
        "walls", "walls", "walls_named", "segment", "segment", "segment_named",
        "chamber", "chamber", "stability", "stability", "stability_e_config",
        "ample_blowup", "ample_pairing", "ample_pairing", "replace", "replace",
        "mixedsub", "mixedsub", "walls", "verify_paper",
    )

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.output = os.path.join(workdir, "report.json")

    def _write(self, tag, doc) -> str:
        path = os.path.join(self.workdir, "in-%s.json" % tag)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    def make(self, index, stream="run"):
        rng = _rng(self.name + stream, self.seed, index)
        kind = self.SLOTS[index % len(self.SLOTS)]
        turn = index // len(self.SLOTS)
        item = {"kind": kind}
        tag = "%s-%d" % (stream, index)
        if kind in ("walls", "segment", "chamber"):
            d = 1 + turn % 2
            paths = []
            vectors = []
            for j in range(1 if kind == "walls" else 2):
                make_vector = _symbolic_vector if (turn + j) % 2 else _rational_vector
                lin = make_vector(rng, d, 6)
                vectors.append(lin)
                paths.append(self._write("%s-%d" % (tag, j), {
                    "d": d, "n": 6, "entries": [_lin_text(*x) for x in lin]}))
            flags = {"walls": ["--weights"], "segment": ["--from", "--to"],
                     "chamber": ["--first", "--second"]}[kind]
            argv = [kind]
            for flag, path in zip(flags, paths):
                argv += [flag, path]
            item.update(argv=argv, d=d, vectors=vectors)
        elif kind in ("walls_named", "segment_named"):
            d, n = [(1, 5), (2, 6), (2, 7), (1, 6)][turn % 4]
            eps = None if turn % 3 else F(1, 100)
            t, nt = _toric_pair(d, n)
            if eps is not None:
                t, nt = ([(a + c * eps, ZERO) for a, c in v] for v in (t, nt))
            if kind == "walls_named":
                name = ("t", "nt")[turn % 2]
                argv = ["walls", "--weights", name]
                vectors = [t if name == "t" else nt]
            else:
                argv = ["segment", "--from", "t", "--to", "nt"]
                vectors = [t, nt]
            argv += ["--d", str(d), "--n", str(n)]
            if eps is not None:
                argv += ["--eps", str(eps)]
            item.update(argv=argv, d=d, vectors=vectors)
        elif kind == "stability":
            n = 6 + turn % 2
            rows = [FlatStability._small_row(rng, 2) for _ in range(n)]
            path = self._write(tag, {"d": 2, "n": n,
                                     "hyperplanes": [[str(x) for x in r] for r in rows]})
            item.update(argv=["stability", path, "--weights", ("nt", "t")[turn % 2]], d=2)
        elif kind == "stability_e_config":
            d, n = [(2, 6), (2, 7), (3, 7), (1, 5)][turn % 4]
            item.update(argv=["stability", "e_config", "--weights", "nt",
                              "--d", str(d), "--n", str(n)], d=d)
        elif kind == "ample_blowup":
            d = 2 + turn % 3
            item.update(argv=["ample", "--model", "blowup", "--d", str(d),
                              "--n", str(d + 3 + turn % 2)], d=d)
        elif kind == "ample_pairing":
            size = 2 + turn % 2
            matrix = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    matrix[i][j] = matrix[j][i] = rng.randint(-1, 3)
            divisor = [(F(rng.randint(1, 6)), F(rng.randint(-2, 2))) for _ in range(size)]
            path = self._write(tag, {"matrix": [[str(x) for x in r] for r in matrix],
                                     "divisor": [_lin_text(*x) for x in divisor]})
            item.update(argv=["ample", "--model", "pairing", path],
                        matrix=matrix, divisor=divisor)
        elif kind == "replace":
            while True:
                firsts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
                if len(set(firsts)) > 1:
                    break
            members = []
            for p0, p2 in firsts:
                k = rng.randint(-2, 2)
                members.append(["%d*t + %d*t^2" % (p0, rng.randint(-3, 3)),
                                "1 + %d*t" % k,
                                "%d*t - %d*t^3" % (p2, rng.randint(0, 3))])
            path = self._write(tag, {"d": 2, "truncation": 4, "members": members})
            item.update(argv=["replace", path], firsts=firsts)
        elif kind == "mixedsub":
            d, m = [(2, 2), (1, 3), (2, 3), (1, 2)][turn % 4]
            heights = [str(rng.randint(0, 9)) for _ in range(m * (d + 1))]
            path = self._write(tag, heights)
            item.update(argv=["mixedsub", "--d", str(d), "--m", str(m), "--lifting", path],
                        d=d, m=m)
        else:
            item.update(argv=["verify-paper"])
        item["argv"] = item["argv"] + ["--output", self.output]
        return item

    def warmup_items(self):
        return [self.make(i, stream="warmup") for i in (0, 11, 16)]

    def run(self, item):
        try:
            code = CLI.main(item["argv"])
        except SystemExit as exc:
            code = exc.code
        return code

    def before(self, item):
        # Remove the last report, so each operation must write its own.
        if os.path.exists(self.output):
            os.remove(self.output)

    def collect(self, item, result):
        try:
            with open(self.output, encoding="utf-8") as handle:
                return result, handle.read()
        except FileNotFoundError:
            return result, ""

    def check(self, item, result):
        code, text = result
        if code != 0:
            return ["exit code %r on a valid document (%s)" % (code, item["kind"])]
        try:
            report = json.loads(text)
        except ValueError:
            return ["report is not JSON (%s)" % item["kind"]]
        return _report_errors(item, report)

    def canonical(self, item, result):
        code, text = result
        return "%s %r\n%s" % (item["kind"], code, text)

    def layer_counts(self, item, result):
        return {"cli.output_bytes": len(result[1].encode())}

    def probes(self):
        return probe_malformed(self.workdir)

    def properties(self, items):
        named = sum(i["kind"] in ("walls_named", "segment_named", "stability_e_config",
                                  "ample_blowup", "verify_paper") for i in items)
        return {"documents_without_input_file": (named, len(items))}


def _report_errors(item, report) -> list[str]:
    kind = item["kind"]
    if kind in ("walls", "walls_named"):
        got = [(w["k"], tuple(w["I"])) for w in report["walls"]]
        if got != oracles.walls_through(item["vectors"][0]) or report["count"] != len(got):
            return ["walls report differs from the subset-sum oracle"]
    elif kind in ("segment", "segment_named"):
        got = {(c["wall"]["k"], tuple(c["wall"]["I"])) for c in report["crossings"]}
        if got != oracles.crossed_walls(*item["vectors"]):
            return ["segment report differs from the subset-sum oracle"]
    elif kind == "chamber":
        if report != oracles.chamber_predicates(*item["vectors"], item["d"]):
            return ["chamber report differs from the oracle"]
    elif kind in ("stability", "stability_e_config"):
        if report["status"] not in ("stable", "not-lc", "not-positive"):
            return ["unknown stability status %r" % report["status"]]
        if kind == "stability_e_config" and report["status"] != "not-lc":
            return ["e_config is %s for nt, not not-lc" % report["status"]]
    elif kind == "ample_blowup":
        d = item["d"]
        e = EpsRat(EpsPoly((0, 1)))
        # Closed forms of the paper: E.e = 1 - (1+d)e, E.f = e, E.s = 1 - d*e.
        expected = {"e": 1 - e * (1 + d), "f": e, "s": 1 - e * d}
        got = {k: parse_eps_rat(v) for k, v in report["pairings"].items()}
        if got != expected or report["ample"] is not True:
            return ["blow-up pairings differ from the closed forms"]
    elif kind == "ample_pairing":
        matrix, divisor = item["matrix"], item["divisor"]
        degrees = []
        for j in range(len(matrix)):
            a = sum(divisor[i][0] * matrix[i][j] for i in range(len(matrix)))
            c = sum(divisor[i][1] * matrix[i][j] for i in range(len(matrix)))
            degrees.append((a, c))
        got = [parse_eps_rat(x) for x in report["pairings"]]
        if got != [_value(a, c) for a, c in degrees]:
            return ["pairing degrees differ from the matrix product"]
        if report["ample"] != all(oracles.lin_sign(a, c) > 0 for a, c in degrees):
            return ["ample verdict differs from the degree signs"]
    elif kind == "replace":
        sections = [(F(s["constant"]), [F(x) for x in s["linear"]]) for s in report["sections"]]
        if report["depth"] != 1 or sections != [(F(-p0), [F(-p2)]) for p0, p2 in item["firsts"]]:
            return ["limit sections differ from the first-order data"]
    elif kind == "mixedsub":
        total = sum(F(c["volume"]) for c in report["cells"])
        if total != F(item["m"] ** item["d"], factorial(item["d"])):
            return ["mixedsub cell volumes do not sum to m^d/d!"]
    elif kind == "verify_paper":
        if report["failed"] != 0 or report["total"] < 40:
            return ["verify-paper reports %s failed" % report["failed"]]
    return []


# -- malformed documents ---------------------------------------------------------

#: The four malformed-document classes.  The correct outcome of each is exit
#: code 2 with a one-line message; the first three raise out of main today.
MALFORMED = (
    ("weight d is a string", ["walls", "--weights"],
     {"d": "abc", "n": 6, "entries": ["1"] * 6}),
    ("5000-digit integer entry", ["walls", "--weights"],
     {"d": 2, "n": 6, "entries": ["1" * 5000] + ["1"] * 5}),
    ("numeric pairing matrix entries", ["ample", "--model", "pairing"],
     {"matrix": [[0, 1], [1, 0]], "divisor": ["1", "1"]}),
    ("numeric weight entry", ["walls", "--weights"],
     {"d": 2, "n": 6, "entries": [1, "1", "1", "e", "e", "e"]}),
)


def probe_malformed(workdir: str) -> list[dict]:
    """Run each malformed class once, untimed; report the outcome of each."""
    outcomes = []
    for index, (name, argv, doc) in enumerate(MALFORMED):
        path = os.path.join(workdir, "malformed-%d.json" % index)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                code = CLI.main(argv + [path, "--output", os.path.join(workdir, "malformed.out")])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the defect being probed: report it, do not stop
            code = None
            outcome = "raised %s out of main" % type(exc).__name__
        if code is not None:
            outcome = "exit %s, message %r" % (code, stderr.getvalue().strip())
        ok = code == 2 and len(stderr.getvalue().strip().splitlines()) == 1
        outcomes.append({"name": "malformed document: " + name, "outcome": outcome, "ok": ok})
    return outcomes


WORKLOADS = {w.name: w for w in (ChamberWalk, FlatStability, Subdivision, CliBatch)}
