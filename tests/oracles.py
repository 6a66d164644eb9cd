"""Independent reference implementations used to cross-check results.

These deliberately use different algorithms than the package (plain
fraction Gaussian elimination instead of fraction-free pivoting, brute
force forest enumeration instead of union-find, tail-side crossing weights
multiplied step by step along each cycle of their own spanning tree instead
of head-side tree potentials) so agreement is evidence, not tautology.
"""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction

from sepkit.dualgraph import (
    NONDEGENERATE,
    SADDLE_NODE,
    Component,
    Crossing,
    DualGraph,
)
from sepkit.exactfield import NumberField


# ---------------------------------------------------------------------------
# Number-field arithmetic by generic polynomial division: schoolbook
# product then long division by m, and the inverse by the extended
# Euclidean algorithm.  Coefficient tuples are lowest degree first.


def _trim(coeffs) -> tuple[Fraction, ...]:
    last = len(coeffs)
    while last > 0 and coeffs[last - 1] == 0:
        last -= 1
    return tuple(coeffs[:last])


def _poly_sub(p, q) -> tuple[Fraction, ...]:
    n = max(len(p), len(q))
    pp = tuple(p) + (Fraction(0),) * (n - len(p))
    qq = tuple(q) + (Fraction(0),) * (n - len(q))
    return _trim([a - b for a, b in zip(pp, qq)])


def _poly_mul(p, q) -> tuple[Fraction, ...]:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _poly_divmod(p, q):
    """Quotient and remainder of p by a nonzero q."""
    rem = list(_trim(p))
    quo = [Fraction(0)] * max(len(rem) - len(q) + 1, 0)
    while len(rem) >= len(q):
        factor = rem[-1] / q[-1]
        shift = len(rem) - len(q)
        quo[shift] = factor
        for i, b in enumerate(q):
            rem[shift + i] -= factor * b
        rem = list(_trim(rem))
    return _trim(quo), tuple(rem)


def _modulus(field) -> tuple[Fraction, ...]:
    return tuple(field.min_poly) + (Fraction(1),)


def _coords(field, poly) -> tuple[Fraction, ...]:
    _, rem = _poly_divmod(poly, _modulus(field))
    return tuple(rem) + (Fraction(0),) * (field.degree - len(rem))


def poly_mul_mod(a, b) -> tuple[Fraction, ...]:
    """Coordinates of a * b: the product polynomial reduced by m."""
    return _coords(a.field, _poly_mul(_trim(a.coeffs), _trim(b.coeffs)))


def euclid_inverse(a) -> tuple[Fraction, ...]:
    """Coordinates of 1 / a by the extended Euclidean algorithm on (a, m).

    Raises ZeroDivisionError when gcd(a, m) is not constant (a is zero or
    a zero divisor of a reducible m).
    """
    r0, r1 = _trim(a.coeffs), _modulus(a.field)
    s0, s1 = (Fraction(1),), ()
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError("not invertible")
    return _coords(a.field, tuple(c / r0[0] for c in s0))


def power_oracle(a, n: int) -> tuple[Fraction, ...]:
    """Coordinates of a ** n by repeated oracle products (n may be < 0)."""
    base = a.coeffs if n >= 0 else euclid_inverse(a)
    out = a.field.one().coeffs
    for _ in range(abs(n)):
        out = poly_mul_mod(a.field.element(out), a.field.element(base))
    return out


def _totient(n: int) -> int:
    phi, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            phi *= (p - 1) * p ** (e - 1)
        p += 1
    if m > 1:
        phi *= m - 1
    return phi


def unity_candidates(degree: int) -> tuple[int, ...]:
    """All n with totient(n) <= degree, ascending.

    A primitive n-th root of unity generates an extension of degree
    totient(n), so only these orders can occur inside the field.  The
    bound totient(n) >= sqrt(n/2) caps the search at n <= 2*degree^2.
    """
    limit = 2 * degree * degree + 1
    return tuple(n for n in range(1, limit + 1) if _totient(n) <= degree)


def unity_order_oracle(a) -> int | None:
    """The least n with a ** n = 1, testing only the candidate orders of
    the field's degree by oracle powers; None when none of them works."""
    one = a.field.one().coeffs
    for n in unity_candidates(a.field.degree):
        if power_oracle(a, n) == one:
            return n
    return None


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Row rank by textbook Gaussian elimination over Q."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = next(
            (r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [
                    a - factor * b for a, b in zip(matrix[r], matrix[rank])
                ]
        rank += 1
    return rank


def span_dimension_oracle(elements) -> int:
    """Q-dimension of the span of field elements, by plain elimination."""
    rows = [[Fraction(c) for c in e.coeffs] for e in elements]
    return fraction_rank(rows) if rows else 0


def solve_homogeneous(rows: list[list[Fraction]]) -> bool:
    """True when M x = 0 has only the zero rational solution."""
    n = len(rows)
    return fraction_rank(rows) == n


def quadratic_form_negative(rows, vectors) -> bool:
    """Check x^T M x < 0 for every supplied nonzero integer vector."""
    for x in vectors:
        if all(v == 0 for v in x):
            continue
        total = Fraction(0)
        for i, xi in enumerate(x):
            for j, xj in enumerate(x):
                total += Fraction(rows[i][j]) * xi * xj
        if total >= 0:
            return False
    return True


def leading_minors(rows) -> list[int] | None:
    """All leading principal minors by one Bareiss sweep, no pivoting.

    After k elimination steps the (k, k) entry equals the order-(k+1)
    leading minor, and every division by the previous pivot is exact.
    Returns None as soon as a minor vanishes (no pivoting is possible
    without leaving the leading-minor sequence).
    """
    n = len(rows)
    m = [list(r) for r in rows]
    minors: list[int] = []
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0:
            return None
        minors.append(pivot)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = pivot
    return minors


def bareiss_determinant(rows) -> int:
    """Fraction-free determinant with row pivoting (handles zero pivots)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def dense_definiteness(rows) -> tuple[bool, int]:
    """(negative definite, determinant) of a dense symmetric integer matrix.

    Negative definite iff the leading principal minors alternate in sign
    starting negative; the determinant comes from pivoted Bareiss.  Dense
    and in leading order, unlike the package's sparse symmetric pivots.
    """
    minors = leading_minors(rows)
    negative = minors is not None and all(
        (minor < 0) if k % 2 == 0 else (minor > 0)
        for k, minor in enumerate(minors)
    )
    return negative, bareiss_determinant(rows)


def prune_oracle(g: DualGraph) -> tuple[str, ...]:
    """Brute-force pruning: enumerate forest components directly.

    Components of the forest obtained by deleting saddle-node crossings,
    keep those with no saddle-node pointing (strong to weak) into them,
    and return the one containing the earliest component in input order.
    """
    order = [comp.id for comp in g.components]
    pieces: list[set[str]] = []
    seen: set[str] = set()
    for start in order:
        if start in seen:
            continue
        piece = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for c in g.crossings:
                if c.kind == SADDLE_NODE or v not in (c.tail, c.head):
                    continue
                w = c.other(v)
                if w not in piece:
                    piece.add(w)
                    frontier.append(w)
        seen |= piece
        pieces.append(piece)

    def has_incoming(piece: set[str]) -> bool:
        for c in g.crossings:
            if c.kind != SADDLE_NODE:
                continue
            strong = c.other(c.weak)
            if c.weak in piece and strong not in piece:
                return True
        return False

    candidates = [p for p in pieces if not has_incoming(p)]
    best = min(candidates, key=lambda p: min(order.index(v) for v in p))
    return tuple(cid for cid in order if cid in best)


# ---------------------------------------------------------------------------
# Camacho-Sad vertex sums, one index at a time in Fractions


def vertex_sum_oracle(g: DualGraph) -> dict[str, list]:
    """Per component id: [the sum of the known indices of the singular
    points on it, as Fraction coordinates; the number of unknown weak
    indices; the number of singular points].

    Each index is added on its own in Fractions, and the head side of a
    nondegenerate crossing is the Euclidean inverse of its tail side, where
    the package adds integer numerators over one denominator.
    """
    zero = (Fraction(0),) * g.field.degree
    sums = {comp.id: [zero, 0, 0] for comp in g.components}

    def add(cid, coeffs):  # coeffs None: an unknown index
        entry = sums[cid]
        entry[2] += 1
        if coeffs is None:
            entry[1] += 1
        else:
            entry[0] = tuple(x + y for x, y in zip(entry[0], coeffs))

    for c in g.crossings:
        if c.kind == NONDEGENERATE:
            add(c.tail, c.cs_tail.coeffs)
            add(c.head, euclid_inverse(c.cs_tail))
        else:
            add(c.weak, None if c.cs_weak is None else c.cs_weak.coeffs)
            add(c.other(c.weak), zero)
    for comp in g.components:
        for sing in comp.smooth_singularities:
            add(comp.id, None if sing.cs is None else sing.cs.coeffs)
    return sums


# ---------------------------------------------------------------------------
# The tail-side residue representation


def tail_side_weight(g: DualGraph, crossing: int, forward: bool):
    """Weight of one traversal of crossing index `crossing` on the tail
    side, None across a saddle-node.

    Each crossing weighs minus its tail-side index going tail to head and
    minus its head-side index going back: the reciprocal of the package's
    head-side weight, so every cycle holonomy comes out inverted.
    """
    c = g.crossings[crossing]
    if c.kind == SADDLE_NODE:
        return None
    return -(c.cs_tail if forward else c.cs_head)


def spanning_parents(g: DualGraph) -> dict:
    """Breadth-first spanning tree from the first component, neighbours
    taken in crossing input order: component id -> (crossing index, parent
    id), None at the root, with the ids in visiting order."""
    around = {c.id: [] for c in g.components}
    for i, c in enumerate(g.crossings):
        around[c.tail].append((i, c.head))
        around[c.head].append((i, c.tail))
    root = g.components[0].id
    parent, queue = {root: None}, [root]
    for v in queue:
        for i, w in around[v]:
            if w not in parent:
                parent[w] = (i, v)
                queue.append(w)
    return parent


def _root_path(parent: dict, v: str) -> list:
    """The (crossing index, child, parent) steps from v up to the root."""
    path = []
    while parent[v] is not None:
        i, up = parent[v]
        path.append((i, v, up))
        v = up
    return path


def _product(g: DualGraph, steps):
    """The tail-side weights of (crossing index, forward) steps multiplied
    in order; None if one of them crosses a saddle-node."""
    h = g.field.one()
    for i, forward in steps:
        w = tail_side_weight(g, i, forward)
        if w is None:
            return None
        h = h * w
    return h


def tail_side_holonomies(g: DualGraph) -> list:
    """Tail-side holonomy of the fundamental cycle of each crossing outside
    spanning_parents' tree, in input order; None through a saddle-node.

    The cycle runs tail to head along the crossing, up from the head to the
    lowest common ancestor (where the two root paths join) and down to the
    tail: a product along the whole cycle, step by step.
    """
    parent = spanning_parents(g)
    tree = {p[0] for p in parent.values() if p is not None}
    out = []
    for i, c in enumerate(g.crossings):
        if i in tree:
            continue
        up, down = _root_path(parent, c.head), _root_path(parent, c.tail)
        while up and down and up[-1] == down[-1]:  # above the common ancestor
            up.pop()
            down.pop()
        steps = [(i, True)]
        steps += [(k, g.crossings[k].tail == child) for k, child, _ in up]
        steps += [(k, g.crossings[k].tail == above)
                  for k, _, above in reversed(down)]
        out.append(_product(g, steps))
    return out


def root_path_residues(g: DualGraph) -> dict:
    """Residue of each component id, 1 at the first component: the product
    of the tail-side weights down its path in spanning_parents' tree."""
    parent = spanning_parents(g)
    return {
        c.id: _product(g, [(k, g.crossings[k].tail == above)
                           for k, _, above in reversed(_root_path(parent, c.id))])
        for c in g.components
    }


# ---------------------------------------------------------------------------
# Relabelings: the same configuration in another input order, orientation
# or naming (the document transforms rewrite a document, since a DualGraph
# stores every crossing tail first and gorenstein.a in component order)


def shuffled_components(g: DualGraph, rng) -> DualGraph:
    order = list(g.components)
    rng.shuffle(order)
    return dataclasses.replace(g, components=tuple(order))


def crossings_head_first(doc: dict) -> dict:
    """A copy of the input document `doc` with every crossing written head
    first.  A nondegenerate crossing then gives the index on its new tail
    side: the reciprocal of the one given, inverted here by the extended
    Euclidean algorithm and written as a literal."""
    field = NumberField.from_json(doc["field"])
    crossings = []
    for c in doc["crossings"]:
        c = dict(c, tail=c["head"], head=c["tail"])
        if c["kind"] == NONDEGENERATE:
            c["cs_tail"] = [str(x) for x in euclid_inverse(
                field.parse_element(c["cs_tail"]))]
        crossings.append(c)
    return dict(doc, crossings=crossings)


def ids_renamed(doc: dict) -> tuple[dict, dict]:
    """A copy of the input document `doc` with every component and
    singularity id renamed, and the renaming's inverse.  The new ids
    "R<digits>" reverse the string order of the old ones, so a result that
    depends on sorting ids changes."""
    comps = doc["components"]
    old = sorted([c["id"] for c in comps]
                 + [s["id"] for c in comps for s in c["smooth_singularities"]])
    width = len(str(len(old)))
    new = {cid: f"R{len(old) - 1 - i:0{width}d}" for i, cid in enumerate(old)}
    components = [
        dict(c, id=new[c["id"]], smooth_singularities=[
            dict(s, id=new[s["id"]]) for s in c["smooth_singularities"]])
        for c in comps
    ]
    crossings = []
    for c in doc["crossings"]:
        c = dict(c, tail=new[c["tail"]], head=new[c["head"]])
        if "weak" in c:
            c["weak"] = new[c["weak"]]
        crossings.append(c)
    out = dict(doc, components=components, crossings=crossings)
    if doc.get("gorenstein") is not None:
        a = {new[cid]: value for cid, value in doc["gorenstein"]["a"].items()}
        out["gorenstein"] = dict(doc["gorenstein"], a=a)
    return out, {v: k for k, v in new.items()}


def renaming_undone(text: str, inverse: dict) -> str:
    """`text` with each whole id that `ids_renamed` made put back."""
    return re.sub(r"\bR\d+\b", lambda m: inverse.get(m[0], m[0]), text)


def gorenstein_reordered(doc: dict) -> dict:
    """A copy of the input document `doc` with the keys of `gorenstein.a`
    listed backwards."""
    if doc.get("gorenstein") is None:
        return doc
    a = dict(reversed(doc["gorenstein"]["a"].items()))
    return dict(doc, gorenstein=dict(doc["gorenstein"], a=a))


# ---------------------------------------------------------------------------
# Closed-form families.  The intersection form of a chain or of a cusp
# cycle of curves E_i with E_i^2 = -b_i is known in closed form, from
# transfer matrices rather than elimination.  The graphs are built by hand
# (not validated: no singularities balance the vertex sums), which the
# matrix, the definiteness test and the cycle basis do not need.

_RATIONALS = NumberField((Fraction(0),))


def _curves(b, pairs) -> DualGraph:
    minus_one = _RATIONALS.from_rational(-1)
    return DualGraph(
        _RATIONALS,
        tuple(Component(f"E{i + 1}", -bi) for i, bi in enumerate(b)),
        tuple(Crossing(f"E{i + 1}", f"E{j + 1}", NONDEGENERATE,
                       cs_tail=minus_one) for i, j in pairs),
    )


def chain_graph(b) -> DualGraph:
    """E1 - E2 - ... - En with self-intersections -b_1, ..., -b_n."""
    return _curves(b, [(i, i + 1) for i in range(len(b) - 1)])


def cusp_cycle(b) -> DualGraph:
    """The cycle E1 - ... - En - E1, n >= 2, with self-intersections -b_i;
    for n = 2 the two curves meet twice."""
    n = len(b)
    return _curves(b, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def continuant(b) -> int:
    """K(b_1..b_n) = b_n K(b_1..b_(n-1)) - K(b_1..b_(n-2)), K() = 1: the
    determinant of the tridiagonal matrix with b on the diagonal and -1
    beside it, so a chain's intersection matrix has det (-1)^n K."""
    before, current = 0, 1
    for bi in b:
        before, current = current, bi * current - before
    return current


def cusp_trace(b) -> int:
    """tr of the product of [[b_i, -1], [1, 0]] over i: a cusp cycle's
    intersection matrix M has det(-M) = cusp_trace(b) - 2."""
    m = (1, 0, 0, 1)  # row-major 2x2
    for bi in b:
        m = (m[0] * bi + m[1], -m[0], m[2] * bi + m[3], -m[2])
    return m[0] + m[3]
