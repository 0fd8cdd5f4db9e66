"""Workload inputs: the signatures that `classify` lists and the plane fans
that `check` certifies.

Everything here is plain Python over tuples; nothing imports toricwedge, so
the program under test sees only the inputs made here.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

BASE_DEPTH = 3
E_BOUND = 3
FAN_RAYS = 10
FANS_PER_ROUND = 5
FAN_BASES = {
    "CP2": ((1, 0), (0, 1), (-1, -1)),
    "F0": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    "F1": ((1, 0), (0, 1), (-1, 1), (0, -1)),
    "F2": ((1, 0), (0, 1), (-1, 2), (0, -1)),
    "F3": ((1, 0), (0, 1), (-1, 3), (0, -1)),
}


@dataclass(frozen=True)
class Op:
    """One call of the public entry point and where its output goes."""

    kind: str  # "classify" or "check"
    argv: tuple[str, ...]
    out: Path
    m: int = 0
    J: tuple[int, ...] = ()
    rays: tuple[tuple[int, int], ...] = ()


def enum_signatures() -> list[tuple[int, tuple[int, ...]]]:
    return [(6, (1, 4, 1, 1, 1, 1))]


def cert_signatures() -> list[tuple[int, tuple[int, ...]]]:
    """Every J with m = 6 and sum(J) <= 8, in lexicographic order by size."""
    return [(6, J) for total in (6, 7, 8)
            for J in itertools.product(range(1, 4), repeat=6) if sum(J) == total]


def sig_key(m: int, J) -> str:
    return f"{m}:{','.join(map(str, J))}"


def classify_op(m: int, J, out: Path) -> Op:
    argv = ("classify", "--m", str(m), "--j", ",".join(map(str, J)),
            "--base-depth", str(BASE_DEPTH), "--e-bound", str(E_BOUND),
            "--workers", "1", "--out", str(out))
    return Op("classify", argv, out, m=m, J=tuple(J))


def blow_up(rays, i):
    """Insert v_i + v_(i+1) after position i (cyclic)."""
    a, b = rays[i], rays[(i + 1) % len(rays)]
    return rays[:i + 1] + ((a[0] + b[0], a[1] + b[1]),) + rays[i + 1:]


def fan_key(rays) -> tuple:
    """Smallest ray tuple over rotations, reflection and the basis change that
    sends the first ray to (1,0) and the second to (0,1): equal keys mean
    equivalent fans."""
    best = None
    for seq in (tuple(rays), tuple((y, x) for x, y in reversed(rays))):
        for k in range(len(seq)):
            rot = seq[k:] + seq[:k]
            (p, q), (s, t) = rot[0], rot[1]
            cand = tuple((t * x - s * y, p * y - q * x) for x, y in rot)
            if best is None or cand < best:
                best = cand
    return best


def fan_pool() -> list[tuple]:
    """Every FAN_RAYS-ray fan that blow-ups of a base in FAN_BASES reach, one
    per equivalence class, each as its fan_key, in sorted order."""
    level = set()
    for n in range(3, FAN_RAYS + 1):
        level = {fan_key(blow_up(rays, i)) for rays in level for i in range(len(rays))}
        level |= {fan_key(base) for base in FAN_BASES.values() if len(base) == n}
    return sorted(level)


class Workload:
    """Makes the ops of one round.  A run repeats rounds; every round holds
    the same kinds of operation, and the seed fixes every input."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        self.name = name
        self.out_dir = out_dir
        self.rng = random.Random(seed)
        self.fans: list = []

    def round(self, r: int) -> list[Op]:
        if self.name == "classify-enum":
            return [classify_op(m, J, self.out_dir / f"r{r}-{sig_key(m, J)}.json")
                    for m, J in enum_signatures()]
        if self.name == "classify-cert":
            sigs = cert_signatures()
            self.rng.shuffle(sigs)
            return [classify_op(m, J, self.out_dir / f"r{r}-{sig_key(m, J)}.json")
                    for m, J in sigs]
        ops = []
        for k in range(FANS_PER_ROUND):
            rays = self._next_fan()
            stem = f"r{r}-f{k}"
            infile = self.out_dir / f"{stem}-in.json"
            infile.write_text(json.dumps({"rays": [list(v) for v in rays]}))
            out = self.out_dir / f"{stem}-cert.json"
            ops.append(Op("check", ("check", "--in", str(infile), "--out", str(out)),
                          out, rays=rays))
        return ops

    def _next_fan(self):
        """The next fan of a seeded shuffle of fan_pool(): no fan repeats in a
        run until the whole pool has been checked, then a new shuffle starts."""
        if not self.fans:
            self.fans = fan_pool()
            self.rng.shuffle(self.fans)
        return self.fans.pop()


WORKLOADS = ("classify-enum", "classify-cert", "check-fan")
