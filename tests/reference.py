"""Reference implementations that only the tests call.

The package keeps what its command line, its exports and the benchmark
run (``tests/test_source.py::test_every_src_name_is_reached``).  The
cross-checks the tests hold it to live here, as ``reference_orbit`` lives
in ``tests/test_orbit.py``: permutation powers and conjugates, the
quotient stratum and the inverse of the orientation double cover, one
move of a raw surface or double cover with its check, the dense 2d x 2d
chain maps of the moves and of the deck involution, the transport of H_1
along a raw word of moves (each step checked against the deck involution
on the whole of H_1, where the package checks the involution once per
state, on its eigenlattices), the cup product of one pair of 1-cochains, an
integer left inverse of a saturated basis, a Hermite transform read off
a stacked pass, kernels by two passes of a textbook Hermite form, the
corner class and the closed-form exponents of a cyclic cover, and the
order at infinity of a quadratic differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from pillowtiled import cocycle, lattice
from pillowtiled.bform import CurveDifferential
from pillowtiled.homology import _vertex_classes, homology_basis, involution_on_homology
from pillowtiled.orbit import OrbitGraph, move
from pillowtiled.permsurf import (
    Origami,
    PillowCover,
    Stratum,
    _sorted_orders,
    pillow_stratum,
    validate_involution,
)
from pillowtiled.permutations import (
    Perm,
    compose,
    compose_all,
    cycles,
    identity,
    inverse,
    is_permutation,
)

# --- permutations ---------------------------------------------------------


def power(p: Perm, k: int) -> Perm:
    """p composed with itself k times (k may be negative)."""
    n = len(p)
    if k < 0:
        return power(inverse(p), -k)
    out = identity(n)
    base = p
    while k:
        if k & 1:
            out = compose(base, out)
        base = compose(base, base)
        k >>= 1
    return out


def conjugate(p: Perm, g: Perm) -> Perm:
    """g p g^-1."""
    return compose_all(g, p, inverse(g))


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, sorted descending (fixed points included)."""
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def order(p: Perm) -> int:
    return lcm(*(len(c) for c in cycles(p))) if p else 1


def orbits(perms: list[Perm], n: int) -> list[list[int]]:
    """Orbits of the generated group on {0..n-1}, each sorted, ordered by
    smallest element."""
    gens = list(perms) + [inverse(p) for p in perms]
    unseen = set(range(n))
    out = []
    while unseen:
        start = min(unseen)
        comp = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for g in gens:
                j = g[i]
                if j not in comp:
                    comp.add(j)
                    frontier.append(j)
        unseen -= comp
        out.append(sorted(comp))
    return out


# --- surfaces -------------------------------------------------------------


def zeros(s: Stratum) -> tuple[int, ...]:
    """The zero orders of a stratum, marked points and poles left out."""
    return tuple(m for m in s.orders if m >= 1)


def components(o: Origami) -> list[list[int]]:
    """The squares of each connected component of an origami."""
    return orbits([o.h, o.v], o.d)


def conjugated(p: PillowCover, s: Perm) -> PillowCover:
    """Simultaneous relabeling of the sheets by s."""
    return PillowCover(p.d, *(conjugate(g, s) for g in p.corner_perms()))


def origamis(g: OrbitGraph) -> list[Origami]:
    """The orbit's vertices as (possibly disconnected) origamis."""
    return [Origami(g.d, w[0], w[1], allow_disconnected=True) for w in g.vertices]


def involution_quotient_stratum(o: Origami, iota: Perm) -> Stratum:
    """Quadratic stratum of the quotient of (o, iota) by the half-turn.

    The involution acts on lattice vertices; a fixed vertex of abelian
    order m descends to a point of quadratic order m-1, a swapped pair to a
    single point of order 2m.
    """
    validate_involution(o, iota)
    cs, cls_of = _vertex_classes(o)
    # iota maps the lower-left corner of square a to the upper-right corner
    # of iota(a), which is the lower-left corner of v(h(iota(a))).
    img = [cls_of[o.v[o.h[iota[a]]]] for a in (cyc[0] for cyc in cs)]
    # well-definedness: same image from every representative
    for idx, cyc in enumerate(cs):
        for a in cyc:
            if cls_of[o.v[o.h[iota[a]]]] != img[idx]:
                raise RuntimeError("involution does not act on vertex classes")
    orders = []
    seen = set()
    for idx, cyc in enumerate(cs):
        if idx in seen:
            continue
        m = len(cyc) - 1
        j = img[idx]
        if j == idx:
            orders.append(m - 1)
            seen.add(idx)
        else:
            if len(cs[j]) != len(cyc):
                raise RuntimeError("involution pairs vertices of different order")
            orders.append(2 * m)
            seen.update((idx, j))
    total = sum(orders)
    if total % 4:
        raise RuntimeError("quotient orders do not sum to 4g-4")
    g = total // 4 + 1
    return Stratum("quadratic", _sorted_orders(orders), g)


def double_cover_orders(p: PillowCover) -> tuple[int, ...]:
    """Predicted abelian orders upstairs: a pillow point of odd order m is a
    branch point and lifts to one zero of order m+1; an even m lifts to two
    points of order m/2."""
    out = []
    for m in pillow_stratum(p).orders:
        if m % 2:
            out.append(m + 1)
        else:
            out.extend((m // 2, m // 2))
    return _sorted_orders(out)


def _block_parities(o: Origami, iota: Perm) -> list[tuple[int, int]]:
    """Per-square (row, column) parities of the half-size tiling.

    On a double cover the squares 2-color two ways: the row parity is
    constant along h and flips along v, the column parity flips along h and
    is constant along v; iota flips both.  A BFS with consistency checks
    recovers both colorings (the iota edges also connect the two components
    of an orientable cover).
    """
    n = o.d
    par: list[tuple[int, int] | None] = [None] * n
    par[0] = (0, 0)
    stack = [0]
    edges = (
        (o.h, 0, 1),
        (inverse(o.h), 0, 1),
        (o.v, 1, 0),
        (inverse(o.v), 1, 0),
        (iota, 1, 1),
    )
    while stack:
        s = stack.pop()
        pr, pc = par[s]
        for perm, dr, dc in edges:
            t = perm[s]
            want = ((pr + dr) % 2, (pc + dc) % 2)
            if par[t] is None:
                par[t] = want
                stack.append(t)
            elif par[t] != want:
                raise ValueError("no consistent half-square parity; not a double cover")
    if None in par:
        raise ValueError("h, v and iota do not connect the squares; not a double cover")
    return par  # type: ignore[return-value]


def reconstruct_pillow_cover(o: Origami, iota: Perm) -> PillowCover:
    """Inverse of ``orientation_double_cover`` up to relabeling.

    Works on any (origami, involution) pair produced by the constructor or
    by transporting one along affine moves: the parity colorings single out
    the lower-left square of each 2x2 block (up to an overall gauge, which
    amounts to relabeling the corners downstairs), and the corner
    monodromies are read back off the gluings.  For a cover fresh from
    ``orientation_double_cover`` the round trip is exact.
    """
    validate_involution(o, iota)
    n = o.d
    if n % 4:
        raise ValueError("square count of a double cover is divisible by 4")
    d = n // 4
    h, v = o.h, o.v
    par = _block_parities(o, iota)
    rep = [a for a in range(n) if par[a] == (0, 0)]
    if len(rep) != d:
        raise ValueError("parity classes are unbalanced; not a double cover")
    pos = {a: k for k, a in enumerate(rep)}

    def as_sheet(sq: int) -> int:
        if sq not in pos:
            raise ValueError("gluings leave the lower-left class")
        return pos[sq]

    hinv = inverse(h)
    W = tuple(as_sheet(h[h[a]]) for a in rep)
    Tt = tuple(as_sheet(hinv[iota[v[a]]]) for a in rep)
    Btinv = tuple(as_sheet(v[iota[h[a]]]) for a in rep)
    if not (is_permutation(W) and is_permutation(Tt) and is_permutation(Btinv)):
        raise ValueError("recovered gluings are not permutations")
    Bt = inverse(Btinv)
    g1 = Bt
    g2 = inverse(Tt)
    g0 = inverse(compose(W, Bt))
    g3 = compose(W, Tt)
    return PillowCover(d, g0, g1, g2, g3)


# --- moves ----------------------------------------------------------------


def apply_generator(o: Origami, gen: str) -> Origami:
    """Act by a generator; the result is a surface in the same stratum."""
    h, v = move((o.h, o.v), gen)
    return Origami(o.d, h, v, allow_disconnected=o.allow_disconnected)


def apply_state_generator(o: Origami, iota: Perm, gen: str) -> tuple[Origami, Perm]:
    """Act on a double cover, transporting the deck involution, and check
    the moved involution."""
    h, v, iota2 = move((o.h, o.v, iota), gen)
    new = Origami(o.d, h, v, allow_disconnected=o.allow_disconnected)
    validate_involution(new, iota2)
    return new, iota2


# --- cocycle --------------------------------------------------------------


def zero_matrix(m: int, n: int) -> list[list[int]]:
    return [[0] * n for _ in range(m)]


def boundary_matrices(o: Origami) -> tuple[list[list[int]], list[list[int]]]:
    """(d1, d2): dense boundary of edges (V x 2d, the vertex classes in the
    order of ``_vertex_classes``) and of faces (2d x d).

    d(sigma_i) = [corner of h(i)] - [corner of i], likewise with v for tau;
    d(face_i) = sigma_i + tau_{h(i)} - sigma_{v(i)} - tau_i  (counterclockwise).
    """
    d = o.d
    cs, cls_of = _vertex_classes(o)
    d1 = zero_matrix(len(cs), 2 * d)
    for i in range(d):
        d1[cls_of[o.h[i]]][i] += 1
        d1[cls_of[i]][i] -= 1
        d1[cls_of[o.v[i]]][d + i] += 1
        d1[cls_of[i]][d + i] -= 1
    d2 = zero_matrix(2 * d, d)
    for i in range(d):
        d2[i][i] += 1
        d2[o.h[i] + d][i] += 1
        d2[o.v[i]][i] -= 1
        d2[i + d][i] -= 1
    return d1, d2


def chain_map(o: Origami, gen: str) -> list[list[int]]:
    """2d x 2d integer matrix of the move on 1-chains (old basis -> new),
    from the table in the ``homology`` docstring, column by column."""
    d = o.d
    M = zero_matrix(2 * d, 2 * d)
    if gen == "T":
        for i in range(d):
            M[i][i] = 1
            M[i][d + i] += 1
            M[d + o.h[i]][d + i] += 1
    elif gen == "S":
        hinv = inverse(o.h)
        for i in range(d):
            M[d + i][i] = -1
            M[hinv[i]][d + i] = 1
    elif gen == "L":
        for i in range(d):
            M[d + i][d + i] = 1
            M[d + i][i] += 1
            M[o.v[i]][i] += 1
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return M


def involution_chain_map(o: Origami, iota: Perm) -> list[list[int]]:
    """2d x 2d matrix of a half-turn deck involution on 1-chains:
    sigma_a -> -sigma_{v(iota(a))},  tau_a -> -tau_{h(iota(a))}."""
    d = o.d
    M = zero_matrix(2 * d, 2 * d)
    for a in range(d):
        M[o.v[iota[a]]][a] = -1
        M[d + o.h[iota[a]]][d + a] = -1
    return M


@dataclass(frozen=True)
class CocycleMatrix:
    """Integer matrix of a move word on H_1, from the basis at the start
    surface to the basis at the final surface; exactly symplectic."""

    matrix: tuple[tuple[int, ...], ...]
    word: tuple[str, ...]


def induced_cocycle(o: Origami, word, iota: Perm | None = None):
    """Transport H_1 along a word of moves, through ``cocycle._move_matrix``.

    Returns ``(CocycleMatrix, final_origami)`` for a bare origami, or
    ``(CocycleMatrix, final_origami, final_iota)`` when an involution is
    supplied; then every step is also checked for deck-equivariance,
    I_t M == M I_s on the whole of H_1 with I = ``involution_on_homology``,
    and raises ArithmeticError where it fails.  The matrix is expressed
    from the basis of ``o`` to the basis of the final surface, with no
    canonical relabeling in between: each step passes the identity
    labelling.  The row maps are looked up on the ``cocycle`` module at
    each step, so a test that patches ``cocycle.move_rows`` reaches this
    path too.
    """
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    cur = homology_basis(o)
    I = None if iota is None else involution_on_homology(cur, iota)
    M = lattice.eye(cur.rank)
    for gen in word:
        if iota is None:
            nxt = homology_basis(apply_generator(cur.origami, gen))
        else:
            o2, iota = apply_state_generator(cur.origami, iota, gen)
            nxt = homology_basis(o2)
        step = cocycle._move_matrix(cur, nxt, gen, range(cur.origami.d))
        if iota is not None:
            I_next = involution_on_homology(nxt, iota)
            if not lattice.mat_eq(lattice.matmul(I_next, step), lattice.matmul(step, I)):
                raise ArithmeticError("cocycle matrix does not commute with the deck involution")
            I = I_next
        M = lattice.matmul(step, M)
        cur = nxt
    cm = CocycleMatrix(matrix=tuple(tuple(r) for r in M), word=word)
    if iota is None:
        return cm, cur.origami
    return cm, cur.origami, iota


def left_inverse(k: list[list[int]]) -> list[list[int]]:
    """Integer L with L @ k == I, for k with saturated full-rank column span.

    With k^T @ V == H in Hermite form, the columns of k span a saturated
    rank-n sublattice exactly when H's leading n x n block is unitriangular;
    reduced, that block is I, and L is the transpose of V's first n columns.
    """
    n = lattice.shape(k)[1]
    pivots, H, V = hermite_transform(lattice.transpose(k))
    if pivots != list(range(n)) or any(H[i][i] != 1 for i in range(n)):
        raise ValueError("column span is not a saturated rank-n sublattice")
    return [[row[j] for row in V] for j in range(n)]


def cup(o: Origami, alpha, beta) -> int:
    """Cup-product pairing of two 1-cochains, evaluated on the sum of faces.

    Serre-diagonal formula on each square: alpha(bottom) beta(right) -
    alpha(left) beta(top), one pair at a time; ``homology._cup_matrix``
    computes every pair at once.
    """
    d = o.d
    total = 0
    for i in range(d):
        total += alpha[i] * beta[d + o.h[i]] - alpha[d + i] * beta[o.v[i]]
    return total


# --- lattices -------------------------------------------------------------


def hermite_transform(a: list[list[int]]):
    """(pivot_rows, H, V) with a @ V == H and V unimodular, read off one
    ``lattice.hermite`` pass over a stacked on the identity: the pass's
    top block is a's Hermite form, and its lower block the transform."""
    m, n = lattice.shape(a)
    pivots, H = lattice.hermite([*a, *lattice.eye(n)])
    return [i for i in pivots if i < m], H[:m], H[m:]


def _column_echelon(cols: list[list[int]], rows) -> list[int]:
    """Bring the column vectors ``cols`` to lower echelon form on the row
    indices ``rows``, in place, by pairwise Euclid with no reduction; the
    pivot rows, one per leading column, made positive."""
    pivots: list[int] = []
    for i in rows:
        k = len(pivots)
        for c in range(k + 1, len(cols)):
            while cols[c][i]:
                q = cols[k][i] // cols[c][i]
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[c])]
                cols[k], cols[c] = cols[c], cols[k]
        if k < len(cols) and cols[k][i]:
            if cols[k][i] < 0:
                cols[k] = [-x for x in cols[k]]
            pivots.append(i)
    return pivots


def kernel_basis(a: list[list[int]]) -> list[list[int]]:
    """``lattice.kernel_basis`` in two passes of a textbook Hermite form,
    which shares no code with ``lattice.hermite``: echelon a stacked on the
    identity over a's rows, so the columns past its rank carry a basis of
    ker(a) below; then echelon that basis and reduce each pivot row once
    the echelon is done."""
    m, n = lattice.shape(a)
    cols = [[*(row[j] for row in a), *e] for j, e in enumerate(lattice.eye(n))]
    r = len(_column_echelon(cols, range(m)))
    ker = [c[m:] for c in cols[r:]]
    for j, i in enumerate(_column_echelon(ker, range(n))):
        for c in range(j):
            q = ker[c][i] // ker[j][i]
            ker[c] = [x - q * y for x, y in zip(ker[c], ker[j])]
    return ker


# --- cyclic covers --------------------------------------------------------


def corner_class(spec) -> tuple[int, tuple[int, ...]]:
    """(N, the least of sorted(u.a mod N) over the units u mod N), 0 read
    as N: the sum-rule memo's key, as one expression."""
    N = spec.N
    return N, min(tuple(sorted((u * x - 1) % N + 1 for x in spec.a))
                  for u in range(1, N + 1) if gcd(u, N) == 1)


def cyclic_exponents(N: int, a) -> tuple[Fraction, ...]:
    """The non-negative Lyapunov exponents of the cyclic cover with corner
    integers ``a``, one per character k = 1..N-1, in closed form
    (Eskin-Kontsevich-Zorich, "Lyapunov spectrum of square-tiled cyclic
    covers", and Forni-Matheus-Zorich, "Square-tiled cyclic covers", both
    JMD 5, 2011).

    With t_i = {k a_i / N}, a character with four non-zero t_i summing to
    2 is of type (1,1) and carries 2 min_i min(t_i, 1 - t_i); every other
    character carries 0.
    """
    out = []
    for k in range(1, N):
        t = [Fraction(k * ai % N, N) for ai in a]
        if all(t) and sum(t) == 2:
            out.append(2 * min(min(x, 1 - x) for x in t))
        else:
            out.append(Fraction(0))
    return tuple(out)


# --- differentials --------------------------------------------------------


def order_at_infinity(q: CurveDifferential) -> int:
    """Order of R(z) dz^2 at infinity on the sphere."""
    num = sum(m for _, m in q.zero_orders)
    den = len(q.finite_poles)
    return -num + den - 4
