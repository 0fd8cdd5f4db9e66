"""Independent checks of what `classify` and `check` emit.

None of this calls toricwedge: the facets of P_m(J) are built here from
their definition, determinants and solves use this file's own fraction-free
elimination, and rationals are parsed from the emitted "p/q" strings.  A
check returns how many operations it attempted and how many failed, with a
short reason for each failure.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from bench_inputs import sig_key


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def add(self, attempted: int, failed: int, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and reason:
            self.reasons.append(reason)


def wedge_facets(m: int, J) -> list[tuple]:
    """Facets of P_m(J): for each polygon edge {i, i+1}, every copy of i and
    i+1 and all but one copy of each other vertex."""
    facets = []
    for i in range(1, m + 1):
        nxt = i % m + 1
        others = [t for t in range(1, m + 1) if t not in (i, nxt)]
        both = [(t, k) for t in (i, nxt) for k in range(1, J[t - 1] + 1)]
        for omitted in itertools.product(*[range(1, J[t - 1] + 1) for t in others]):
            rest = [(t, k) for t, o in zip(others, omitted)
                    for k in range(1, J[t - 1] + 1) if k != o]
            facets.append(tuple(sorted(both + rest)))
    return facets


def fan_facets(m: int) -> list[tuple]:
    return [tuple(sorted((i, i % m + 1))) for i in range(1, m + 1)]


def walls(facets) -> list[tuple[int, int]]:
    """Pairs of facets that share all but one label.  In a closed
    pseudomanifold, which a complete fan's complex is, every ridge lies in
    exactly two facets."""
    by_ridge: dict = {}
    for fi, facet in enumerate(facets):
        for lab in facet:
            by_ridge.setdefault(frozenset(facet) - {lab}, []).append(fi)
    out = []
    for ridge, owners in by_ridge.items():
        if len(owners) != 2:
            raise ValueError(f"ridge {sorted(ridge)} lies in {len(owners)} facets")
        out.append(tuple(owners))
    return out


def solve_unimodular(rows, rhs):
    """(det, x) for the integer system rows.x = rhs by Bareiss elimination.
    x is returned only when det is +-1, where it is an integer vector."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0, None
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    det = sign * a[n - 1][n - 1]
    if abs(det) != 1:
        return det, None
    x = [0] * n
    for k in range(n - 1, -1, -1):
        num = a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))
        q, r = divmod(num, a[k][k])
        if r:
            raise ArithmeticError("unimodular system with a non-integer solution")
        x[k] = q
    return det, x


def heights_failure(gens: dict, facets, heights: dict) -> str:
    """Why the heights fail to bend strictly across some wall, or "".

    On each facet F the heights define the linear function l_F with
    l_F(u) = h(u) on the rays of F.  Across the wall to F' = F - a + b the
    function must bend: l_F(u_b) < h(b).  Both sides of each wall are checked.
    Every facet matrix must be unimodular.
    """
    if set(heights) != set(gens):
        return "heights do not cover exactly the rays"
    scale = lcm(*(h.denominator for h in heights.values()))
    H = {lab: int(h * scale) for lab, h in heights.items()}
    funcs = []
    for facet in facets:
        # l_F = g with g . u_k = H_k for k in F: rows are the facet rays
        det, g = solve_unimodular([gens[lab] for lab in facet], [H[lab] for lab in facet])
        if g is None:
            return f"facet {facet} has minor {det}"
        funcs.append(g)
    for f1, f2 in walls(facets):
        for src, dst in ((f1, f2), (f2, f1)):
            (b,) = set(facets[dst]) - set(facets[src])
            if sum(x * y for x, y in zip(funcs[src], gens[b])) >= H[b]:
                return f"heights do not bend strictly at {b} across {facets[src]}"
    return ""


def barycentric_failure(bary: dict, facet_keys, size: int) -> str:
    if set(bary) != set(facet_keys):
        return "barycentric keys are not the facets"
    for key, tup in bary.items():
        lam = [Fraction(x) for x in tup]
        if len(lam) != size:
            return f"barycentric tuple of {key} has {len(lam)} entries, not {size}"
        if any(x <= 0 for x in lam) or sum(lam) != 1:
            return f"barycentric tuple of {key} is not positive with sum 1"
    return ""


def _label(s: str) -> tuple[int, int]:
    i, k = s.split("_")
    return int(i), int(k)


def _facet_key(facet) -> str:
    return ",".join(f"{i}_{k}" for i, k in facet)


class ClassifyChecker:
    """Checks classify output files against this file's geometry and a table
    of reference class counts keyed like "6:1,4,1,1,1,1"."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._geometry: dict = {}

    def geometry(self, m, J):
        key = (m, tuple(J))
        if key not in self._geometry:
            facets = wedge_facets(m, J)
            labels = sorted({lab for f in facets for lab in f})
            keys = [_facet_key(f) for f in facets]
            self._geometry[key] = (facets, labels, keys)
        return self._geometry[key]

    def check_file(self, path, m, J, tally: Tally) -> int:
        """Tally one classify call; returns the number of classes it emitted."""
        sig = sig_key(m, J)
        want = self.reference.get(sig)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as e:
            tally.add(want or 1, want or 1, f"{sig}: no readable output ({e})")
            return 0
        return self.check_data(data, m, J, tally)

    def check_data(self, data: dict, m, J, tally: Tally) -> int:
        sig = sig_key(m, J)
        records = data.get("records", [])
        want = self.reference.get(sig)
        if want is None:
            tally.add(max(len(records), 1), max(len(records), 1),
                      f"{sig}: no reference class count")
            return len(records)
        header_ok = (data.get("m") == m and data.get("J") == list(J)
                     and data.get("classes") == len(records)
                     and data.get("projective") == len(records)
                     and data.get("oracle_disagreements") == 0)
        if len(records) != want or not header_ok:
            tally.add(want, want, f"{sig}: {len(records)} classes, reference {want}, "
                                  f"header ok: {header_ok}")
            return len(records)
        failed = 0
        for idx, rec in enumerate(records):
            reason = self.record_failure(rec, m, J)
            if reason:
                failed += 1
                tally.reasons.append(f"{sig} class {idx}: {reason}")
        tally.add(want, failed)
        return len(records)

    def record_failure(self, rec: dict, m, J) -> str:
        facets, labels, keys = self.geometry(m, J)
        n = len(facets[0])
        if rec.get("verdict") != "projective":
            return f"verdict {rec.get('verdict')}"
        cert = rec.get("certificate", {})
        if cert.get("verdict") != "projective" or "witness" not in cert:
            return "certificate is not a projective witness"
        mat = rec.get("matrix", {})
        gens = {_label(c["label"]): tuple(c["v"]) for c in mat.get("cols", [])}
        if sorted(gens) != labels or any(len(v) != n for v in gens.values()):
            return "matrix columns do not match the labels of P_m(J)"
        puzzle = rec.get("puzzle", {})
        base = [tuple(v) for v in puzzle.get("base", {}).get("rays", [])]
        if puzzle.get("m") != m or puzzle.get("J") != list(J) or \
                base != [gens[(i, 1)][:2] for i in range(1, m + 1)]:
            return "puzzle does not match the matrix"
        heights = {_label(k): Fraction(v) for k, v in cert.get("heights", {}).items()}
        reason = heights_failure(gens, facets, heights)
        if reason:
            return reason
        return barycentric_failure(cert.get("barycentric", {}), keys, len(labels) - n)


def check_fan_certificate(path, rays, tally: Tally) -> None:
    """Tally one check call on a plane fan given by its ccw rays."""
    try:
        with open(path) as fh:
            cert = json.load(fh)
    except (OSError, ValueError) as e:
        tally.add(1, 1, f"fan {rays}: no readable certificate ({e})")
        return
    reason = fan_certificate_failure(cert, rays)
    tally.add(1, 1 if reason else 0, f"fan {rays}: {reason}")


def fan_certificate_failure(cert: dict, rays) -> str:
    m = len(rays)
    if cert.get("verdict") != "projective" or "witness" not in cert:
        return f"verdict {cert.get('verdict')}"
    facets = fan_facets(m)
    gens = {i + 1: tuple(v) for i, v in enumerate(rays)}
    heights = {int(k): Fraction(v) for k, v in cert.get("heights", {}).items()}
    reason = heights_failure(gens, facets, heights)
    if reason:
        return reason
    keys = [",".join(map(str, f)) for f in facets]
    return barycentric_failure(cert.get("barycentric", {}), keys, m - 2)
