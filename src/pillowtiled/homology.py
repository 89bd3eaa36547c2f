"""Integer first homology of a square-tiled surface.

The surface is a CW complex: one vertex per cycle of the vertex
permutation, two edges per square (its bottom edge ``sigma_i`` and left
edge ``tau_i``), one face per square.  Everything is computed exactly over
the integers: a basis of H_1, dual coordinate functionals, and the
intersection form, which is put into the standard symplectic shape
``[[0,1],[-1,0]] x g`` by an integral change of basis.  Downstream code
can therefore check symplecticity of transported matrices on the nose.

Edge indexing: ``sigma_i`` is edge ``i``, ``tau_i`` is edge ``d + i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import lattice
from .permutations import Perm
from .permsurf import Origami, _vertex_classes

__all__ = [
    "HomologyBasis",
    "InvolutionSplitting",
    "boundary_matrices",
    "homology_basis",
    "involution_chain_map",
    "involution_on_homology",
    "involution_splitting",
    "standard_symplectic",
]


def standard_symplectic(r: int) -> list[list[int]]:
    """Block diagonal [[0,1],[-1,0]] pairs; r must be even."""
    if r % 2:
        raise ValueError(f"a symplectic form needs even rank, not {r}")
    J = lattice.zeros(r, r)
    for i in range(0, r, 2):
        J[i][i + 1] = 1
        J[i + 1][i] = -1
    return J


def boundary_matrices(o: Origami) -> tuple[list[list[int]], list[list[int]]]:
    """(d1, d2): boundary of edges (V x 2d) and of faces (2d x d).

    d(sigma_i) = [corner of h(i)] - [corner of i], likewise with v for tau;
    d(face_i) = sigma_i + tau_{h(i)} - sigma_{v(i)} - tau_i  (counterclockwise).
    """
    d = o.d
    cs, cls_of = _vertex_classes(o)
    nv = len(cs)
    d1 = lattice.zeros(nv, 2 * d)
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


def _cup(o: Origami, alpha, beta) -> int:
    """Cup-product pairing of two 1-cochains, evaluated on the sum of faces.

    Serre-diagonal formula on each square: alpha(bottom) beta(right) -
    alpha(left) beta(top).  On cocycles this descends to cohomology and
    computes the intersection pairing of the Poincare-dual cycles.
    """
    d = o.d
    total = 0
    for i in range(d):
        total += alpha[i] * beta[d + o.h[i]] - alpha[d + i] * beta[o.v[i]]
    return total


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def symplectic_basis_transform(G: list[list[int]]) -> list[list[int]]:
    """Unimodular Q with Q^T G Q equal to the standard symplectic form.

    G must be integral, antisymmetric and unimodular.  Classic hyperbolic
    peeling: pick u, find w with <u,w> = 1 (possible by unimodularity),
    project the rest onto the symplectic complement, repeat.
    """
    r = len(G)
    Gt = lattice.transpose(G)

    def dot(x, y) -> int:
        return sum(map(mul, x, y))

    def peel(basis: list[list[int]]) -> list[list[int]]:
        if not basis:
            return []
        u = basis[0]
        uG = [dot(u, col) for col in Gt]  # <u, c> == dot(uG, c)
        g, w = 0, [0] * r
        for c in basis:
            p = dot(uG, c)
            if p == 0:
                continue
            gg, x, y = _xgcd(g, p)
            w = [x * wi + y * ci for wi, ci in zip(w, c)]
            g = gg
        if g not in (1, -1):
            raise ValueError("form is degenerate or not unimodular on the lattice")
        if g == -1:
            w = [-x for x in w]
        Gw = [dot(row, w) for row in G]  # <c, w> == dot(c, Gw)
        Gu = [dot(row, u) for row in G]
        rest = []
        for c in basis:
            a, b = dot(c, Gw), dot(c, Gu)
            rest.append([ci - a * ui + b * wi for ci, ui, wi in zip(c, u, w)])
        span = lattice.column_lattice_basis(
            [[rest[j][i] for j in range(len(rest))] for i in range(r)]
        )
        if len(span) != len(basis) - 2:
            raise ArithmeticError("symplectic complement lost rank")
        return [u, w] + peel(span)

    start = [[1 if i == j else 0 for i in range(r)] for j in range(r)]
    got = peel(start)
    Q = [[got[j][i] for j in range(r)] for i in range(r)]
    JQ = lattice.matmul(lattice.matmul(lattice.transpose(Q), G), Q)
    if not lattice.mat_eq(JQ, standard_symplectic(r)):
        raise ArithmeticError("symplectic reduction failed")
    return Q


@dataclass(frozen=True)
class HomologyBasis:
    """Integral basis of H_1 with dual functionals and intersection form.

    ``cycles``: 2d x r integer matrix, columns are cycle representatives in
    the edge basis.  ``functionals``: r x 2d, rows are cocycles with
    functionals @ cycles == I and functionals @ d2 == 0.  The basis is
    symplectic: ``intersection`` is exactly the standard form.
    """

    origami: Origami
    rank: int
    cycles: tuple[tuple[int, ...], ...]
    functionals: tuple[tuple[int, ...], ...]
    intersection: tuple[tuple[int, ...], ...]


def homology_basis(o: Origami) -> HomologyBasis:
    d1, d2 = boundary_matrices(o)
    ne = 2 * o.d
    ker = lattice.kernel_basis(d1)
    img = [[d2[i][j] for i in range(ne)] for j in range(o.d)]
    B, C = lattice.quotient_basis(ne, ker, img)
    r = len(B[0]) if B else 0
    # intersection matrix of the dual functionals via the cup product
    Jd = [[_cup(o, C[i], C[j]) for j in range(r)] for i in range(r)]
    if any(Jd[i][j] != -Jd[j][i] for i in range(r) for j in range(i, r)):
        raise ArithmeticError("cup pairing is not antisymmetric")
    Jd_inv = lattice.unimodular_inverse(Jd)
    G = [[-x for x in row] for row in Jd_inv]  # pairing of the basis cycles
    Q = symplectic_basis_transform(G)
    # Q^T G Q == J and J^-1 == -J, so Q^-1 == -J Q^T G
    J = standard_symplectic(r)
    minus_J = [[-x for x in row] for row in J]
    Qinv = lattice.matmul(lattice.matmul(minus_J, lattice.transpose(Q)), G)
    B = lattice.matmul(B, Q)
    C = lattice.matmul(Qinv, C)
    if not lattice.mat_eq(lattice.matmul(C, B), lattice.eye(r)):
        raise ArithmeticError("functionals are not dual to the cycles: C @ B != I")
    return HomologyBasis(
        origami=o,
        rank=r,
        cycles=tuple(tuple(row) for row in B),
        functionals=tuple(tuple(row) for row in C),
        intersection=tuple(tuple(row) for row in J),
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

    def cols_to_matrix(cols):
        return [[c[i] for c in cols] for i in range(r)] if cols else [[] for _ in range(r)]

    Bp, Bm = cols_to_matrix(plus), cols_to_matrix(minus)
    Cp = lattice.left_inverse(Bp) if plus else []
    Cm = lattice.left_inverse(Bm) if minus else []
    return InvolutionSplitting(
        action=tuple(tuple(row) for row in I),
        plus_basis=tuple(tuple(row) for row in Bp),
        plus_coords=tuple(tuple(row) for row in Cp),
        minus_basis=tuple(tuple(row) for row in Bm),
        minus_coords=tuple(tuple(row) for row in Cm),
    )
