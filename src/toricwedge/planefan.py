"""Complete non-singular fans in the plane.

A fan is stored as its counterclockwise list of primitive ray generators.
Completeness, smoothness and the ccw convention are equivalent to every
consecutive 2x2 determinant (wrap-around included) being exactly +1 with the
rays winding once around the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .exactmath import InvariantViolation

Vec = "tuple[int, int]"


class FanError(ValueError):
    pass


class TooFewRays(FanError):
    pass


class NotPrimitive(FanError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"ray {index} is not primitive")


class NotUnimodular(FanError):
    def __init__(self, index, det):
        self.index = index
        self.det = det
        super().__init__(f"consecutive pair at {index} has determinant {det}")


class DuplicateRay(FanError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"ray {index} repeats an earlier ray")


class NotBlowDownable(FanError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"rotation number at {index} is not 1")


class NoOppositeRay(FanError):
    pass


@dataclass(frozen=True)
class PlaneFan:
    """Counterclockwise primitive ray generators; construct via validate()."""

    rays: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.rays)

    def __iter__(self):
        return iter(self.rays)


def det2(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def validate(rays) -> PlaneFan:
    """Check the fan invariants and return the fan, or raise the first violation."""
    rays = tuple((int(x), int(y)) for x, y in rays)
    m = len(rays)
    if m < 3:
        raise TooFewRays(f"need at least 3 rays, got {m}")
    for i, (x, y) in enumerate(rays):
        if (x, y) == (0, 0) or gcd(abs(x), abs(y)) != 1:
            raise NotPrimitive(i)
    seen = {}
    for i, v in enumerate(rays):
        if v in seen:
            raise DuplicateRay(i)
        seen[v] = i
    for i in range(m):
        d = det2(rays[i], rays[(i + 1) % m])
        if d != 1:
            raise NotUnimodular(i, d)
    w = _winding(rays)
    if w != 1:
        # unreachable for distinct integer rays at desk scale; kept as a guard
        raise FanError(f"rays wind {w} times around the origin")
    return PlaneFan(rays)


def _winding(rays) -> int:
    """Count ccw crossings of the positive x-axis; each step is < pi wide."""
    m = len(rays)
    e1 = (1, 0)
    crossings = 0
    for i in range(m):
        a, b = rays[i], rays[(i + 1) % m]
        if b == e1:
            crossings += 1
        elif a != e1 and det2(a, e1) > 0 and det2(e1, b) > 0:
            crossings += 1
    return crossings


def rotation_numbers(fan: PlaneFan) -> tuple[int, ...]:
    """Integers a_i with v_{i-1} + v_{i+1} = a_i v_i, cyclically."""
    rays = fan.rays
    m = fan.m
    out = []
    for i in range(m):
        px, py = rays[(i - 1) % m]
        nx, ny = rays[(i + 1) % m]
        x, y = rays[i]
        sx, sy = px + nx, py + ny
        a = sx // x if x != 0 else sy // y
        if a * x != sx or a * y != sy:
            raise InvariantViolation("rotation identity failed on a valid fan")
        out.append(a)
    return tuple(out)


def blow_up(fan: PlaneFan, i: int) -> PlaneFan:
    """Insert v_i + v_{i+1} between positions i and i+1 (cyclic)."""
    m = fan.m
    i %= m
    rays = list(fan.rays)
    new = (rays[i][0] + rays[(i + 1) % m][0], rays[i][1] + rays[(i + 1) % m][1])
    rays.insert(i + 1, new)
    return PlaneFan(tuple(rays))


def blow_down_positions(fan: PlaneFan) -> list[int]:
    return [i for i, a in enumerate(rotation_numbers(fan)) if a == 1]


def blow_down(fan: PlaneFan, i: int) -> PlaneFan:
    """Remove ray i; requires rotation number 1 there."""
    i %= fan.m
    if rotation_numbers(fan)[i] != 1:
        raise NotBlowDownable(i)
    rays = list(fan.rays)
    del rays[i]
    return PlaneFan(tuple(rays))


def reduce_to_base(fan: PlaneFan) -> tuple[PlaneFan, list[int]]:
    """Blow down at the lowest eligible position until m <= 4.

    The terminal fan has 3 rays (the projective-plane fan) or 4 rays (a
    Hirzebruch-type fan).  A fan with >= 5 rays always admits a blow-down.
    """
    trace = []
    while fan.m > 4:
        positions = blow_down_positions(fan)
        if not positions:
            raise InvariantViolation(f"no blow-down position on a fan with {fan.m} rays")
        trace.append(positions[0])
        fan = blow_down(fan, positions[0])
    return fan, trace


def apply_unimodular(fan: PlaneFan, mat) -> PlaneFan:
    """Apply an integer 2x2 matrix (rows) to every ray."""
    (a, b), (c, d) = mat
    return PlaneFan(tuple((a * x + b * y, c * x + d * y) for x, y in fan.rays))


def normalize_at(fan: PlaneFan, i: int) -> PlaneFan:
    """Basis change sending v_i to (1,0) and v_{i+1} to (0,1); order unchanged."""
    m = fan.m
    i %= m
    (p, r) = fan.rays[i]
    (q, s) = fan.rays[(i + 1) % m]
    # inverse of the column matrix [v_i v_{i+1}], which has determinant 1
    return apply_unimodular(fan, ((s, -q), (-r, p)))


def normalize_basis(fan: PlaneFan) -> PlaneFan:
    return normalize_at(fan, 0)


def _rotated(rays, k):
    return rays[k:] + rays[:k]


@lru_cache(maxsize=4096)
def canonical_form(fan: PlaneFan) -> PlaneFan:
    """Lexicographically minimal representative over rotations, reflection,
    and basis change.  Two fans are equivalent iff their canonical forms agree."""
    best = None
    m = fan.m
    reflected = PlaneFan(tuple((y, x) for x, y in reversed(fan.rays)))
    for cand in (fan, reflected):
        for k in range(m):
            rot = PlaneFan(_rotated(cand.rays, k))
            norm = normalize_basis(rot)
            if best is None or norm.rays < best:
                best = norm.rays
    return PlaneFan(best)


def is_equivalent(f1: PlaneFan, f2: PlaneFan) -> bool:
    if f1.m != f2.m:
        return False
    return canonical_form(f1) == canonical_form(f2)


def cp2_fan() -> PlaneFan:
    return PlaneFan(((1, 0), (0, 1), (-1, -1)))


def hirzebruch_fan(d: int) -> PlaneFan:
    return PlaneFan(((1, 0), (0, 1), (-1, d), (0, -1)))


def enumerate_fans(m: int, depth: int) -> list[PlaneFan]:
    """All fans with m rays reachable by at most `depth` blow-ups from the
    bases (the 3-ray fan and the 4-ray fans with 0 <= d <= depth), up to
    equivalence.  Exhaustive for the given bounds since every fan with at
    least 5 rays is a blow-up."""
    if m < 3:
        raise TooFewRays(f"need at least 3 rays, got {m}")
    frontier = {canonical_form(cp2_fan())}
    frontier.update(canonical_form(hirzebruch_fan(d)) for d in range(depth + 1))
    seen = set(frontier)
    for _ in range(depth):
        nxt = set()
        for fan in frontier:
            if fan.m >= m:
                continue
            for i in range(fan.m):
                child = canonical_form(blow_up(fan, i))
                if child not in seen:
                    seen.add(child)
                    nxt.add(child)
        frontier = nxt
        if not frontier:
            break
    return sorted((f for f in seen if f.m == m), key=lambda f: f.rays)


def opposite_position(fan: PlaneFan, i: int):
    """Position of the ray opposite to v_i, or None."""
    x, y = fan.rays[i % fan.m]
    target = (-x, -y)
    for j, v in enumerate(fan.rays):
        if v == target:
            return j
    return None


def fan_to_dict(fan: PlaneFan) -> dict:
    return {"rays": [[x, y] for x, y in fan.rays]}


def fan_from_dict(data: dict) -> PlaneFan:
    return validate(data["rays"])
