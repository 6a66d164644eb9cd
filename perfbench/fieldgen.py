"""Cyclic dual graphs over number fields of degree 2 to 4, built from residues.

Every component v gets a nonzero residue r_v in K = Q[x]/(m).  A crossing
from tail t to head h gets cs_tail = -r_h / r_t, so traversing it tail to
head multiplies by -1/cs_tail = r_t / r_h and every cycle holonomy
telescopes to 1.  The representation is therefore trivial by construction,
and the residual divisor sepkit propagates from the first component must be
exactly r_v (r_E1 = 1).  The residues of E2..Ed are x, ..., x^(d-1), so the
Q-span of all residues is the whole field and the separatrix count lower
bound is exactly d.

A twisted graph (only over x^4 + 1, where x is a primitive 8th root of
unity) divides the index of one closing crossing by x.  The holonomy of
every fundamental cycle through it becomes x or 1/x, so the representation
is torsion of order 8.

Self-intersections are strictly diagonally dominant, so the intersection
matrix is negative definite, and a pad singularity on every component
balances its vertex sum.

The arithmetic here is the benchmark's own, so the expectations do not come
from the code under test.
"""

from __future__ import annotations

from fractions import Fraction

# name -> monic tail c0..c_(d-1) of the minimal polynomial.  All four are
# irreducible over Q.  x^4 + x^2 + 1 must never appear: it is reducible.
FIELDS = {
    "x^2-2": (-2, 0),
    "x^3-2": (-2, 0, 0),
    "x^4-10x^2+1": (1, 0, -10, 0),
    "x^4+1": (1, 0, 0, 0),
}
TWISTABLE = "x^4+1"

_ZERO = Fraction(0)


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class PowerBasisField:
    """Q[x]/(m) for monic m; elements are tuples of d Fractions."""

    def __init__(self, tail):
        self.tail = tuple(Fraction(c) for c in tail)
        self.degree = len(self.tail)

    def rational(self, q) -> tuple:
        return (Fraction(q),) + (_ZERO,) * (self.degree - 1)

    def gen(self) -> tuple:
        return tuple(Fraction(int(i == 1)) for i in range(self.degree))

    def add(self, a, b) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a) -> tuple:
        return tuple(-x for x in a)

    def mul(self, a, b) -> tuple:
        d = self.degree
        prod = [_ZERO] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        # x^k = -x^(k-d) * (c0 + c1 x + ... + c_(d-1) x^(d-1)) for k >= d
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                for i, t in enumerate(self.tail):
                    prod[k - d + i] -= c * t
        return tuple(prod[:d])

    def inv(self, a) -> tuple:
        """Solve a * v = 1 by Gauss-Jordan on the multiplication matrix."""
        d = self.degree
        columns, power = [], self.rational(1)
        for _ in range(d):
            columns.append(self.mul(a, power))
            power = self.mul(power, self.gen())
        rows = [[columns[j][i] for j in range(d)] + [Fraction(int(i == 0))]
                for i in range(d)]
        for col in range(d):
            pivot = next((r for r in range(col, d) if rows[r][col]), None)
            if pivot is None:
                raise ZeroDivisionError("element is not invertible")
            rows[col], rows[pivot] = rows[pivot], rows[col]
            lead = rows[col][col]
            rows[col] = [v / lead for v in rows[col]]
            for r in range(d):
                if r != col and rows[r][col]:
                    factor = rows[r][col]
                    rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
        return tuple(row[d] for row in rows)

    def to_json(self, a) -> list[str]:
        return [format_rational(c) for c in a]


def _random_unit(rng, field: PowerBasisField) -> tuple:
    while True:
        a = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(field.degree))
        if any(a):
            return a


def field_cycle_graph(rng, field_name: str, n: int, extra: int, twist: bool):
    """One residue-derived cyclic graph and what sepkit must conclude on it.

    Returns (document, expectation).  The expectation names the conclusion,
    rule, witnesses and representation, and for untwisted graphs the exact
    residual divisor.
    """
    if twist and field_name != TWISTABLE:
        raise ValueError(f"only {TWISTABLE} contains the 8th roots of unity")
    if n < len(FIELDS[field_name]) or extra < 1:
        raise ValueError("need at least d components and one closing crossing")
    field = PowerBasisField(FIELDS[field_name])
    names = [f"E{i}" for i in range(1, n + 1)]

    residues = [field.rational(1)]
    while len(residues) < field.degree:
        residues.append(field.mul(residues[-1], field.gen()))
    while len(residues) < n:
        residues.append(_random_unit(rng, field))

    edges = [(rng.randrange(i), i) for i in range(1, n)]
    edges += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(extra)]
    indices = [field.neg(field.mul(residues[h], field.inv(residues[t])))
               for t, h in edges]
    if twist:
        indices[-1] = field.mul(indices[-1], field.inv(field.gen()))

    totals = [field.rational(0) for _ in names]
    degree = [0] * n
    for (t, h), cs in zip(edges, indices):
        totals[t] = field.add(totals[t], cs)
        totals[h] = field.add(totals[h], field.inv(cs))
        degree[t] += 1
        degree[h] += 1

    components, pads = [], []
    for v, cid in enumerate(names):
        e = -(degree[v] + 1 + rng.randint(0, 2))
        pad = field.add(field.rational(e), field.neg(totals[v]))
        if not any(pad):  # a nondegenerate singularity needs a nonzero index
            e -= 1
            pad = field.add(pad, field.rational(-1))
        pads.append(pad)
        components.append({
            "id": cid,
            "self_intersection": e,
            "smooth_singularities": [{
                "id": f"{cid}:pad", "kind": "nondegenerate",
                "cs": field.to_json(pad), "separatrix": True,
            }],
        })
    document = {
        "field": {"min_poly": [format_rational(c) for c in field.tail]},
        "components": components,
        "crossings": [
            {"tail": names[t], "head": names[h], "kind": "nondegenerate",
             "cs_tail": field.to_json(cs)}
            for (t, h), cs in zip(edges, indices)
        ],
    }

    if twist:
        expect = {
            "conclusion": "separatrix_exists", "rule": "torsion_holonomy",
            "witnesses": {"torsion_order": 8},
            "representation": ["torsion", 8], "residual": None,
        }
    else:
        expect = {
            "conclusion": "separatrix_exists", "rule": "trivial_holonomy",
            "witnesses": {"declared_separatrices": n,
                          "separatrix_count_lower_bound": field.degree},
            "representation": ["trivial", None],
            "residual": {
                "residues": {cid: field.to_json(r)
                             for cid, r in zip(names, residues)},
                "separatrix_residues": {
                    f"{cid}:pad": field.to_json(field.neg(field.mul(pad, r)))
                    for cid, pad, r in zip(names, pads, residues)
                },
            },
        }
    return document, expect
