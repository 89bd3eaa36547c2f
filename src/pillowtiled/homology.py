"""Integer first homology of a square-tiled surface.

The surface is a CW complex: one vertex per cycle of the vertex
permutation, two edges per square (its bottom edge ``sigma_i`` and left
edge ``tau_i``), one face per square.  A basis of H_1 and its dual
coordinate functionals come from a tree-cotree decomposition (Eppstein,
"Dynamic generators of topologically embedded graphs", SODA 2003), with
entries in {-1, 0, 1}.  The cup matrix K of the functionals is kept as
it comes, with no normal form imposed.  It is exact and unimodular, so
downstream code checks a transported matrix M on the nose against it:
M K_src M^T == K_tgt, with no inverse.  The eigenlattices of a deck
involution are kept as Hermite bases alone; coordinates on them are read
off by substitution where a move needs them.

Edge indexing: ``sigma_i`` is edge ``i``, ``tau_i`` is edge ``d + i``;
no other module knows it.  The moves act on 1-chains as (old edge ->
image, in the moved surface's labels):

    T      sigma_i -> sigma_i            tau_i -> sigma_i + tau_{h(i)}
    S      sigma_i -> -tau_i             tau_i -> sigma_{h^-1(i)}
    L      sigma_i -> tau_i + sigma_{v(i)}   tau_i -> tau_i

(The shear images are the diagonal segments re-expressed as lattice paths
of the sheared tiling.  The quarter turn matching the convention
``S.(h, v) = (v, h^-1)`` is the clockwise one, (x, y) -> (y, 1-x) on each
square: it sends the bottom side of a square to its reversed left side
and the left side to the top side, which is the bottom of the square
above, i.e. of the new square h^-1(i).)  So a row of F X is one row of X,
negated or not, or the sum of two, and a chain map F is kept as that
signed row map (``apply_rows``), never as a 2d x 2d matrix.
The boundary maps, too, are pairs of signed row maps read off the
surface's incidence (``_boundary_rows``), never dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from . import lattice
from .permutations import Perm, cycles, inverse
from .permsurf import Origami

__all__ = [
    "HomologyBasis",
    "InvolutionSplitting",
    "apply_rows",
    "homology_basis",
    "involution_on_homology",
    "involution_splitting",
    "move_cycles",
    "move_rows",
]


def _vertex_classes(o: Origami) -> tuple[list[tuple[int, ...]], dict[int, int]]:
    """Vertex classes as cycles of c, plus square -> class index (of its
    lower-left corner)."""
    cs = cycles(o.vertex_permutation())
    cls_of: dict[int, int] = {}
    for idx, cyc in enumerate(cs):
        for sq in cyc:
            cls_of[sq] = idx
    return cs, cls_of


def _boundary_rows(o: Origami, classes) -> tuple:
    """The boundary maps as pairs (plus, minus) of signed row maps: d1 =
    heads - tails on the vertex classes of ``_vertex_classes(o)``, and d2^T
    = plus - minus on the faces, d(face_i) = sigma_i + tau_{h(i)} -
    sigma_{v(i)} - tau_i (counterclockwise)."""
    cs, cls_of = classes
    d, heads, tails = o.d, [[1] for _ in cs], [[1] for _ in cs]
    for e, j in enumerate(o.h + o.v):
        heads[cls_of[j]].append(e)
        tails[cls_of[e % d]].append(e)
    faces = [(1, i, d + j) for i, j in enumerate(o.h)], [(1, j, d + i) for i, j in enumerate(o.v)]
    return (tuple(map(tuple, heads)), tuple(map(tuple, tails))), tuple(map(tuple, faces))


def _spanning_forest(n: int, ends: list[tuple[int, int]], usable) -> list:
    """Breadth-first spanning forest on nodes 0..n-1 of the edges e in
    ``usable``, e running from ends[e][0] to ends[e][1]: the list of steps
    (e, s, p) from each node to its parent p, None at a root, with s = +1
    when e runs toward p and -1 when it runs away from it."""
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for e in usable:
        a, b = ends[e]
        adj[a].append((e, b, -1))
        adj[b].append((e, a, 1))
    up: list = [None] * n
    seen = [False] * n
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            queue = [root]
            for x in queue:
                for e, y, s in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        up[y] = (e, s, x)
                        queue.append(y)
    return up


def _closed_loop(e: int, ends: list[tuple[int, int]], up: list) -> list[int]:
    """Edge e and the forest path from its head back to its tail, as a
    signed edge vector; the steps shared by both root paths cancel."""
    z = [0] * len(ends)
    z[e] = 1
    for x, sign in ((ends[e][1], 1), (ends[e][0], -1)):
        while up[x] is not None:
            f, s, x = up[x]
            z[f] += sign * s
    return z


def _tree_cotree(o: Origami, classes) -> tuple[list[list[int]], list[list[int]]]:
    """(B, C): cycles as the columns of B, cocycles as the rows of C, one
    of each per edge outside a spanning forest T of the 1-skeleton and a
    spanning forest T* of the dual graph on the edges outside T.  A cycle
    uses only T and its own edge, a cocycle only T* and its own edge, so
    C @ B == I.  ``classes`` are the vertex classes of
    ``_vertex_classes(o)``."""
    d = o.d
    cs, cls_of = classes
    hinv, vinv = inverse(o.h), inverse(o.v)
    ends = [(cls_of[e % d], cls_of[j]) for e, j in enumerate(o.h + o.v)]
    # a dual edge runs from the face where d2 has -1 to the face where it
    # has +1, so a cycle of the dual graph is a cocycle
    dual_ends = [(vinv[i], i) for i in range(d)] + [(i, hinv[i]) for i in range(d)]
    up = _spanning_forest(len(cs), ends, range(2 * d))
    rest = sorted(set(range(2 * d)) - {step[0] for step in up if step})
    up_dual = _spanning_forest(d, dual_ends, rest)
    left = sorted(set(rest) - {step[0] for step in up_dual if step})
    B = lattice.transpose([_closed_loop(e, ends, up) for e in left])
    return B, [_closed_loop(e, dual_ends, up_dual) for e in left]


def _cup_matrix(o: Origami, alphas, betas) -> list[list[int]]:
    """Cup products of the 1-cochains ``alphas`` against ``betas`` on the
    sum of faces, by the Serre-diagonal formula on each square:
    alpha(bottom) beta(right) - alpha(left) beta(top).  On cocycles it is
    the intersection pairing of the Poincare-dual cycles."""
    d = o.d
    right = [[b[d + o.h[k]] for b in betas] for k in range(d)]
    top = [[b[o.v[k]] for b in betas] for k in range(d)]
    P = lattice.matmul([a[:d] for a in alphas], right)
    Q = lattice.matmul([a[d:] for a in alphas], top)
    return [[p - q for p, q in zip(rp, rq)] for rp, rq in zip(P, Q)]


@dataclass(frozen=True)
class HomologyBasis:
    """Integral basis of H_1 with dual functionals and their cup matrix.

    ``cycles``: 2d x r integer matrix, columns are cycle representatives in
    the edge basis.  ``functionals``: r x 2d, rows are cocycles with
    functionals @ cycles == I and functionals @ d2 == 0.  ``cup``: the cup
    products of the functionals, antisymmetric and unimodular, in no
    normal form; the cycles pair as minus its inverse.  ``boundary_rows``:
    d1 and d2 as pairs of signed row maps (``_boundary_rows``).
    """

    origami: Origami
    rank: int
    cycles: tuple[tuple[int, ...], ...]
    functionals: tuple[tuple[int, ...], ...]
    cup: tuple[tuple[int, ...], ...]
    boundary_rows: tuple


def homology_basis(o: Origami) -> HomologyBasis:
    """Tree-cotree basis of H_1, exactly checked.

    Raises ArithmeticError unless the cycles are cycles, the functionals
    kill boundaries and are dual to them, and their cup matrix is
    antisymmetric; ValueError unless it is unimodular, which one Hermite
    pass decides exactly: its H is the identity.  The cycles are then a
    Z-basis with no torsion check: x -> C x maps H_1 onto Z^r, and two
    forests leave at least E - (V - c) - (F - c) = rank H_1 edges over on
    c components, so the ranks agree and the map is an isomorphism.
    """
    classes = _vertex_classes(o)
    (heads, tails), (plus, minus) = _boundary_rows(o, classes)
    B, C = _tree_cotree(o, classes)
    r, CT = len(C), lattice.transpose(C)
    if apply_rows(heads, B) != apply_rows(tails, B):
        raise ArithmeticError("basis chains are not cycles: d1 @ B != 0")
    if apply_rows(plus, CT) != apply_rows(minus, CT):
        raise ArithmeticError("functionals do not kill boundaries: C @ d2 != 0")
    if not lattice.mat_eq(lattice.matmul(C, B), lattice.eye(r)):
        raise ArithmeticError("functionals are not dual to the cycles: C @ B != I")
    cup = _cup_matrix(o, C, C)
    if any(cup[i][j] != -cup[j][i] for i in range(r) for j in range(i, r)):
        raise ArithmeticError("cup pairing is not antisymmetric")
    if not lattice.mat_eq(lattice.hermite(cup)[1], lattice.eye(r)):
        raise ValueError("cup matrix is not unimodular")
    return HomologyBasis(
        origami=o,
        rank=r,
        cycles=tuple(tuple(row) for row in B),
        functionals=tuple(tuple(row) for row in C),
        cup=tuple(tuple(row) for row in cup),
        boundary_rows=((heads, tails), (plus, minus)),
    )


def apply_rows(rows, X) -> list[list[int]]:
    """F X for a chain map F given as a signed row map: rows[k] == (c, *e)
    says that row k of F X is c times the sum of the rows X[e]."""
    return [[c * sum(col) for col in zip(*(X[e] for e in es))] for c, *es in rows]


def move_rows(o: Origami, gen: str, label) -> list[tuple[int, ...]]:
    """Signed row map of the move ``gen`` on 1-chains of ``o`` (the module
    table), with square i of the moved surface relabelled label[i]."""
    if gen not in ("T", "S", "L"):
        raise ValueError(f"unknown generator {gen!r}")
    d, h, v = o.d, o.h, o.v
    F = [None] * (2 * d)
    for i, j in enumerate(label):
        if gen == "T":
            F[j], F[d + label[h[i]]] = (1, i, d + i), (1, d + i)
        elif gen == "S":
            F[j], F[d + j] = (1, d + h[i]), (-1, i)
        else:
            F[label[v[i]]], F[d + j] = (1, i), (1, i, d + i)
    return F


def move_cycles(src: HomologyBasis, tgt: HomologyBasis, F) -> list[list[int]]:
    """F B_src for a chain map F (``move_rows``) from the surface of ``src``
    to that of ``tgt``; raises ArithmeticError unless d1_tgt F B_src == 0
    and C_tgt F d2_src == 0, the second read on C_tgt pulled back along F."""
    (heads, tails), (plus, minus) = tgt.boundary_rows[0], src.boundary_rows[1]
    FB = apply_rows(F, src.cycles)
    if apply_rows(heads, FB) != apply_rows(tails, FB):
        raise ArithmeticError("move does not map cycles to cycles")
    # row e of (C_tgt F)^T sums c C_tgt[:, k] over the rows F[k] == (c, *es) naming e
    pulled = [[0] * tgt.rank for _ in src.cycles]
    for (c, *es), col in zip(F, zip(*tgt.functionals)):
        if c != 1:
            col = [c * x for x in col]
        for e in es:
            pulled[e] = list(map(add, pulled[e], col))
    if apply_rows(plus, pulled) != apply_rows(minus, pulled):
        raise ArithmeticError("move does not respect boundaries")
    return FB


def _involution_rows(o: Origami, iota: Perm) -> list[tuple[int, int]]:
    """Signed row map of a half-turn deck involution on 1-chains.

    The half-turn sends the bottom edge of square a to the reversed top
    edge of iota(a), and the left edge to the reversed right edge:
    sigma_a -> -sigma_{v(iota(a))},  tau_a -> -tau_{h(iota(a))}.
    """
    d, rows = o.d, [None] * (2 * o.d)
    for a in range(d):
        rows[o.v[iota[a]]], rows[d + o.h[iota[a]]] = (-1, a), (-1, d + a)
    return rows


def involution_on_homology(basis: HomologyBasis, iota: Perm) -> list[list[int]]:
    """r x r integral matrix of the involution on H_1; squares to identity."""
    IB = apply_rows(_involution_rows(basis.origami, iota), basis.cycles)
    I = lattice.matmul(basis.functionals, IB)
    if not lattice.mat_eq(lattice.matmul(I, I), lattice.eye(basis.rank)):
        raise ValueError("the deck map does not act as an involution on H_1")
    return I


@dataclass(frozen=True)
class InvolutionSplitting:
    """Saturated eigenlattices of an involution on H_1.

    ``plus_basis``/``minus_basis``: r x k column matrices in column Hermite
    normal form (lower echelon, positive pivots), which fixes them given
    the lattice.
    """

    action: tuple[tuple[int, ...], ...]
    plus_basis: tuple[tuple[int, ...], ...]
    minus_basis: tuple[tuple[int, ...], ...]

    @property
    def dim_plus(self) -> int:
        return len(self.plus_basis[0]) if self.plus_basis else 0

    @property
    def dim_minus(self) -> int:
        return len(self.minus_basis[0]) if self.minus_basis else 0


def involution_splitting(basis: HomologyBasis, iota: Perm) -> InvolutionSplitting:
    I = involution_on_homology(basis, iota)
    r = basis.rank
    minus_id = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(I)]
    plus_id = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(I)]
    plus = lattice.kernel_basis(minus_id)   # I x = x
    minus = lattice.kernel_basis(plus_id)   # I x = -x
    if len(plus) + len(minus) != r:
        raise ArithmeticError("eigenlattices do not fill H_1")
    Bp, Bm = ([[c[i] for c in cols] for i in range(r)] for cols in (plus, minus))
    return InvolutionSplitting(
        action=tuple(tuple(row) for row in I),
        plus_basis=tuple(tuple(row) for row in Bp),
        minus_basis=tuple(tuple(row) for row in Bm),
    )
