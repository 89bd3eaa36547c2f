"""Integer first homology of a square-tiled surface.

The surface is a CW complex: one vertex per cycle of the vertex
permutation, two edges per square (its bottom edge ``sigma_i`` and left
edge ``tau_i``), one face per square.  A basis of H_1 and its dual
coordinate functionals come from a tree-cotree decomposition (Eppstein,
"Dynamic generators of topologically embedded graphs", SODA 2003), with
entries in {-1, 0, 1}.  The intersection form of the cycles is kept as
it comes, with no normal form imposed; it is exact, so downstream code
checks symplecticity of transported matrices on the nose against it.

Edge indexing: ``sigma_i`` is edge ``i``, ``tau_i`` is edge ``d + i``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice
from .permutations import Perm, inverse
from .permsurf import Origami, _vertex_classes

__all__ = [
    "HomologyBasis",
    "InvolutionSplitting",
    "homology_basis",
    "involution_chain_map",
    "involution_on_homology",
    "involution_splitting",
]


def _boundary_matrices(o: Origami, classes) -> tuple[list[list[int]], list[list[int]]]:
    """(d1, d2): boundary of edges (V x 2d) and of faces (2d x d), given
    the vertex ``classes`` of ``_vertex_classes(o)``.

    d(sigma_i) = [corner of h(i)] - [corner of i], likewise with v for tau;
    d(face_i) = sigma_i + tau_{h(i)} - sigma_{v(i)} - tau_i  (counterclockwise).
    """
    d = o.d
    cs, cls_of = classes
    d1 = lattice.zeros(len(cs), 2 * d)
    for i in range(d):
        d1[cls_of[o.h[i]]][i] += 1
        d1[cls_of[i]][i] -= 1
        d1[cls_of[o.v[i]]][d + i] += 1
        d1[cls_of[i]][d + i] -= 1
    d2 = lattice.zeros(2 * d, d)
    for i in range(d):
        d2[i][i] += 1
        d2[o.h[i] + d][i] += 1
        d2[o.v[i]][i] -= 1
        d2[i + d][i] -= 1
    return d1, d2


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
    ends = [(cls_of[i], cls_of[o.h[i]]) for i in range(d)]
    ends += [(cls_of[i], cls_of[o.v[i]]) for i in range(d)]
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
    """Integral basis of H_1 with dual functionals and intersection form.

    ``cycles``: 2d x r integer matrix, columns are cycle representatives in
    the edge basis.  ``functionals``: r x 2d, rows are cocycles with
    functionals @ cycles == I and functionals @ d2 == 0.  ``intersection``:
    the intersection numbers of the cycles, in no normal form.  ``d1`` and
    ``d2``: the boundary of edges (V x 2d) and of faces (2d x d), built
    once with the basis.
    """

    origami: Origami
    rank: int
    cycles: tuple[tuple[int, ...], ...]
    functionals: tuple[tuple[int, ...], ...]
    intersection: tuple[tuple[int, ...], ...]
    d1: tuple[tuple[int, ...], ...]
    d2: tuple[tuple[int, ...], ...]


def homology_basis(o: Origami) -> HomologyBasis:
    """Tree-cotree basis of H_1, exactly checked.

    Raises ArithmeticError unless the cycles are cycles, the functionals
    kill boundaries and are dual to them, and their cup matrix is
    antisymmetric; ValueError unless it is unimodular.  The cycles are
    then a Z-basis with no torsion check: x -> C x maps H_1 onto Z^r, and
    two forests leave at least E - (V - c) - (F - c) = rank H_1 edges over
    on c components, so the ranks agree and the map is an isomorphism.
    """
    classes = _vertex_classes(o)
    d1, d2 = _boundary_matrices(o, classes)
    B, C = _tree_cotree(o, classes)
    r = len(C)
    if any(any(row) for row in lattice.matmul(d1, B)):
        raise ArithmeticError("basis chains are not cycles: d1 @ B != 0")
    if any(any(row) for row in lattice.matmul(C, d2)):
        raise ArithmeticError("functionals do not kill boundaries: C @ d2 != 0")
    if not lattice.mat_eq(lattice.matmul(C, B), lattice.eye(r)):
        raise ArithmeticError("functionals are not dual to the cycles: C @ B != I")
    cup = _cup_matrix(o, C, C)
    if any(cup[i][j] != -cup[j][i] for i in range(r) for j in range(i, r)):
        raise ArithmeticError("cup pairing is not antisymmetric")
    return HomologyBasis(
        origami=o,
        rank=r,
        cycles=tuple(tuple(row) for row in B),
        functionals=tuple(tuple(row) for row in C),
        # the cycles pair as minus the inverse cup matrix of their duals
        intersection=tuple(tuple(-x for x in row) for row in lattice.unimodular_inverse(cup)),
        d1=tuple(tuple(row) for row in d1),
        d2=tuple(tuple(row) for row in d2),
    )


def involution_chain_map(o: Origami, iota: Perm) -> list[list[int]]:
    """Action of a half-turn deck involution on 1-chains (2d x 2d).

    The half-turn sends the bottom edge of square a to the reversed top
    edge of iota(a), and the left edge to the reversed right edge:
    sigma_a -> -sigma_{v(iota(a))},  tau_a -> -tau_{h(iota(a))}.
    """
    d = o.d
    M = lattice.zeros(2 * d, 2 * d)
    for a in range(d):
        M[o.v[iota[a]]][a] = -1
        M[d + o.h[iota[a]]][d + a] = -1
    return M


def involution_on_homology(basis: HomologyBasis, iota: Perm) -> list[list[int]]:
    """r x r integral matrix of the involution on H_1; squares to identity."""
    o = basis.origami
    M = involution_chain_map(o, iota)
    I = lattice.matmul(basis.functionals, lattice.matmul(M, basis.cycles))
    if not lattice.mat_eq(lattice.matmul(I, I), lattice.eye(basis.rank)):
        raise ValueError("the deck map does not act as an involution on H_1")
    return I


@dataclass(frozen=True)
class InvolutionSplitting:
    """Saturated eigenlattices of an involution on H_1.

    ``plus_basis``/``minus_basis``: r x k column matrices; ``plus_coords``/
    ``minus_coords``: integer left inverses (coordinates on each summand).
    """

    action: tuple[tuple[int, ...], ...]
    plus_basis: tuple[tuple[int, ...], ...]
    plus_coords: tuple[tuple[int, ...], ...]
    minus_basis: tuple[tuple[int, ...], ...]
    minus_coords: tuple[tuple[int, ...], ...]

    @property
    def dim_plus(self) -> int:
        return len(self.plus_basis[0]) if self.plus_basis else 0

    @property
    def dim_minus(self) -> int:
        return len(self.minus_basis[0]) if self.minus_basis else 0


def involution_splitting(basis: HomologyBasis, iota: Perm) -> InvolutionSplitting:
    I = involution_on_homology(basis, iota)
    r = basis.rank
    ident = lattice.eye(r)
    minus_id = [[I[i][j] - ident[i][j] for j in range(r)] for i in range(r)]
    plus_id = [[I[i][j] + ident[i][j] for j in range(r)] for i in range(r)]
    plus = lattice.kernel_basis(minus_id)   # I x = x
    minus = lattice.kernel_basis(plus_id)   # I x = -x
    if len(plus) + len(minus) != r:
        raise ArithmeticError("eigenlattices do not fill H_1")
    Bp, Bm = ([[c[i] for c in cols] for i in range(r)] for cols in (plus, minus))
    Cp = lattice.left_inverse(Bp) if plus else []
    Cm = lattice.left_inverse(Bm) if minus else []
    return InvolutionSplitting(
        action=tuple(tuple(row) for row in I),
        plus_basis=tuple(tuple(row) for row in Bp),
        plus_coords=tuple(tuple(row) for row in Cp),
        minus_basis=tuple(tuple(row) for row in Bm),
        minus_coords=tuple(tuple(row) for row in Cm),
    )
