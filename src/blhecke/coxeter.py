"""Weyl group elements with canonical reduced words, Bruhat order, inversions.

The identity of record of an element w is its exact integer matrix on the
coroot lattice Q^vee, in simple-coroot coordinates (column j is
w(alpha_j^vee)), stored with the matrix of w^{-1}.  Column j of the simple
reflection r_i is `reflect_coroot(i, alpha_j^vee)`, read off the Kac-Moody
matrix.  The representation is faithful: if w(alpha_i^vee) > 0 for every i
then l(w) = 0, so w = 1 (Kac, Infinite-Dimensional Lie Algebras, 3.11-3.13,
applied to the dual datum, whose real roots are the coroots).  Descents are
sign tests on one column; the neighbours r_i w and w r_i are kept once asked
(`left_simple`, `right_simple`).  The word, N(w) and the Y-action (needed only
to twist exponents and characters) each step from the interned left factor
w' = r_i w, i the least left descent: word(w) = (i,) + word(w') as ShortLex
is greedy, N(w) = N(w') + {w'^{-1}(alpha_i^vee)} (Humphreys, Reflection
Groups and Coxeter Groups, 5.6), and w acts on Y as r_i after w'.  These,
w . tau, the greedy tau-word and the module's columns take the one walk
down left factors, `walk_down`.

The `WeylGroup` owns the queries that depend on the datum alone: the coroot
and Bruhat-ball enumerations by bound, and the root and reflection of each
coroot.  Callers use the group they hold.  The module functions
`enumerate_ball` and `inversion_coroots` stay because the benchmark's tracer
counts and times them there; `enumerate_ball` runs only on a memo miss.

The three walks of a Coxeter system, the ball by levels (`coxeter_ball`),
the Bruhat order by lifting (`lifts_below`) and reduced words by descent
(`reduced_words`), take their generators as positive coroots and multiply
only along the steps they keep, by one descent rule: r_beta descends w,
l(r_beta w) < l(w), iff w^{-1}(beta^vee) < 0 (`descends`; Humphreys 5.4).
W calls them with its simple coroots.  The reflection subgroup W_(tau)
generated by the reflections of Phi_tau is a Coxeter system with canonical
generators S_tau, length ell_tau and the same rule (Dyer, "Reflection
subgroups of Coxeter systems", J. Algebra 135, 1990; Deodhar, Arch. Math.
53, 1989), so the stabilizer calls the walks with their coroots Sigma_tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

from .errors import IncompatibleData, NotARealCoroot
from .memo import GROUP_CAP, Memo
from .rootdata import Coroot, IntVec, RootGeneratingSystem, coroot_orbit_witness, enumerate_coroots

Mat = tuple[IntVec, ...]


def _identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in bt) for ra in a)


def _mat_vec(a: Mat, v) -> IntVec:
    return tuple(sum(map(mul, row, v)) for row in a)


def _negative_columns(mat: Mat) -> frozenset[int]:
    # every column is a real coroot, hence all >= 0 or all <= 0
    return frozenset(j for j, col in enumerate(zip(*mat)) if min(col) < 0)


@dataclass(frozen=True, eq=False)
class WeylElement:
    """Group element as a pair of mutually inverse integer matrices on the
    coroot lattice Q^vee, in simple-coroot coordinates.  The matrix `mat` is
    the identity of record (equality, hashing, interning): the action on
    Q^vee is faithful, since an element sending every simple coroot to a
    positive coroot has length 0 (Kac, 3.11-3.13, for the dual datum).

    Elements are interned per group, so equal elements are the same object
    while their group lives, and per-element caches (word, descents,
    inversions, Y-action) are computed once.
    """

    system: RootGeneratingSystem
    mat: Mat
    inv: Mat
    _left: dict = field(default_factory=dict, repr=False)  # i -> r_i * self
    _right: dict = field(default_factory=dict, repr=False)  # i -> self * r_i

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.mat == other.mat and self.system == other.system

    @cached_property
    def _hash(self) -> int:
        return hash(self.mat)

    def __hash__(self):
        return self._hash

    @cached_property
    def group(self) -> "WeylGroup":
        return WeylGroup(self.system)

    @cached_property
    def word(self) -> tuple[int, ...]:
        """Canonical ShortLex-minimal reduced word: (i,) + word(r_i w)."""
        return walk_down(self, lambda u: (u.__dict__, "word"), tuple, lambda i, left, word: (i,) + word)

    @property
    def length(self) -> int:
        return len(self.word)

    @cached_property
    def is_identity(self) -> bool:
        return self.mat == self.group.identity.mat

    @cached_property
    def left_descents(self) -> frozenset[int]:
        return _negative_columns(self.inv)

    @cached_property
    def right_descents(self) -> frozenset[int]:
        return _negative_columns(self.mat)

    @cached_property
    def inversions(self) -> tuple[Coroot, ...]:
        """N(w) = N(w') + {w'^{-1}(alpha_i^vee)} for w' = r_i w, sorted by
        `sort_key`: the stabilizer's least fixed inversion reads the order."""
        return walk_down(self, lambda u: (u.__dict__, "inversions"), tuple, lambda i, left, inversions: tuple(
            sorted((*inversions, Coroot(tuple(row[i] for row in left.inv))), key=lambda c: c.sort_key)))

    @cached_property
    def y_mat(self) -> Mat:
        """Matrix of the action on Y-coordinates: r_i on each column of that of r_i w."""
        sys = self.system
        return walk_down(self, lambda u: (u.__dict__, "y_mat"), lambda: _identity(sys.rank),
                         lambda i, left, m: tuple(zip(*(sys.reflect(i, col) for col in zip(*m)))))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.system is not other.system and self.system != other.system:
            raise IncompatibleData("elements of different Weyl groups")
        return self.group.intern(_mat_mul(self.mat, other.mat), _mat_mul(other.inv, self.inv))

    def left_simple(self, i: int) -> "WeylElement":
        """r_i * w, remembered on the element."""
        out = self._left.get(i)
        if out is None:
            out = self._left[i] = self.group.simple(i) * self
        return out

    def right_simple(self, i: int) -> "WeylElement":
        """w * r_i, remembered on the element."""
        return self._right.get(i) or self._right.setdefault(i, self * self.group.simple(i))

    def inverse(self) -> "WeylElement":
        return self.group.intern(self.inv, self.mat)

    def apply(self, v) -> IntVec:
        """Action on a Y-coordinate vector."""
        return _mat_vec(self.y_mat, v)

    def apply_coroot(self, coroot: Coroot) -> Coroot:
        return Coroot(_mat_vec(self.mat, coroot.coords))

    @property
    def sort_key(self):
        return (len(self.word), self.word)

    def __repr__(self):
        if not self.word:
            return "e"
        return "*".join(f"s{i + 1}" for i in self.word)


def walk_down(w: WeylElement, slot, base, step, down=lambda w: ((i := min(w.left_descents)), w.left_simple(i))):
    """value(w) = step(letter, u, value(u)) for (letter, u) = down(w), by default
    (i, r_i w) with i the least left descent; value(e) = base(); None at and above
    an element where down returns None.  Stored at slot(u) = (table, key): down to
    the first element whose table holds its value, then back up, no recursion."""
    chain = []
    table, key = slot(w)
    while key not in table:
        below = None if w.is_identity else down(w)
        if below is None:
            table[key] = base() if w.is_identity else None
            break
        chain.append((table, key, *below))
        w = below[1]
        table, key = slot(w)
    value = table[key]
    for table, key, letter, u in reversed(chain):
        value = table[key] = None if value is None else step(letter, u, value)
    return value


class WeylGroup:
    """Element factory and interning table for one root datum, one group per
    datum (see the `memo` module: its intern table and datum memo live as
    long as the group)."""

    _instances: Memo = Memo(GROUP_CAP)

    def __new__(cls, system: RootGeneratingSystem):
        return cls._instances.once(system, lambda: object.__new__(cls)._init(system))

    def _init(self, system: RootGeneratingSystem) -> "WeylGroup":
        self.system = system
        n = system.n
        self._elements = Memo()
        self.memo = Memo()
        ident = _identity(n)
        self.identity = self.intern(ident, ident)
        simples = []
        for i in range(n):
            cols = [system.reflect_coroot(i, system.simple_coroot(j)).coords for j in range(n)]
            mat = tuple(zip(*cols))
            simples.append(self.intern(mat, mat))
        self._simples = tuple(simples)
        return self

    def intern(self, mat: Mat, inv: Mat) -> WeylElement:
        return self._elements.once(mat, lambda: WeylElement(self.system, mat, inv))

    def simple(self, i: int) -> WeylElement:
        return self._simples[i]

    def from_word(self, word) -> WeylElement:
        out = self.identity
        for i in word:
            out = out * self._simples[i]
        return out

    def coroot_data(self, coroot: Coroot) -> tuple[IntVec, int]:
        """(alpha, c) of a positive real coroot alpha^vee = w(alpha_c^vee),
        from one orbit witness (w, c): the root alpha = w(alpha_c) in
        simple-root coordinates, reflected along the witness word by
        r_j(beta) = beta - beta(alpha_j^vee) alpha_j, and the index c."""
        def make():
            word, c = coroot_orbit_witness(self.system, coroot)
            root = [int(k == c) for k in range(self.system.n)]
            for j in reversed(word):
                root[j] -= sum(map(mul, root, self.system.matrix.entries[j]))
            return tuple(root), c

        return self.memo.once(("coroot", coroot), make)

    def reflection(self, coroot: Coroot) -> WeylElement:
        """The reflection at a positive real coroot: on the coroot lattice,
        r(gamma) = gamma - alpha(gamma) alpha^vee."""
        def make():
            root, _ = self.coroot_data(coroot)
            cols = []
            for j, row in enumerate(self.system.matrix.entries):
                pairing = sum(map(mul, root, row))  # alpha(alpha_j^vee)
                cols.append(tuple(int(k == j) - pairing * x for k, x in enumerate(coroot.coords)))
            mat = tuple(zip(*cols))
            return self.intern(mat, mat)

        return self.memo.once(("reflection", coroot), make)

    def reflection_root(self, coroot: Coroot) -> IntVec:
        """Y-dual coordinates of the root of the reflection at +-coroot."""
        root, _ = self.coroot_data(coroot.abs())
        sys = self.system
        return tuple(sum(x * r[b] for x, r in zip(root, sys.simple_roots)) for b in range(sys.rank))

    def coroots(self, height_bound: int) -> tuple[Coroot, ...]:
        """The real coroots of height <= bound (`enumerate_coroots`), once per bound."""
        return self.memo.once(("coroots", height_bound), lambda: enumerate_coroots(self.system, height_bound))

    def ball(self, max_length: int) -> tuple[WeylElement, ...]:
        """The elements of length <= bound (`enumerate_ball`), once per bound."""
        return self.memo.once(("ball", max_length), lambda: enumerate_ball(self.system, max_length))


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Subword criterion via the lifting property along the canonical word of w."""
    if v.system != w.system:
        raise IncompatibleData("elements of different Weyl groups")
    if v.length > w.length:
        return False
    return lifts_below(v, [w.system.simple_coroot(i) for i in w.word])


def inversion_coroots(w: WeylElement) -> tuple[Coroot, ...]:
    """N(w) = set of positive coroots sent negative by w; |N(w)| = l(w)."""
    return w.inversions


def coroot_of_reflection(r: WeylElement) -> Coroot:
    """Positive coroot of a reflection: the unique inversion sent to its negative."""
    for c in inversion_coroots(r):
        if r.apply_coroot(c) == -c:
            return c
    raise NotARealCoroot(f"{r!r} is not a reflection")


def enumerate_ball(sys: RootGeneratingSystem, max_length: int) -> tuple[WeylElement, ...]:
    """All elements of length <= max_length, in (length, ShortLex word) order."""
    gens = [sys.simple_coroot(i) for i in range(sys.n)]
    return coxeter_ball(WeylGroup(sys).identity, gens, max_length)


def all_reduced_words(w: WeylElement) -> list[tuple[int, ...]]:
    """Every reduced word of w, as tuples of generator indices."""
    gens = [w.system.simple_coroot(i) for i in range(w.system.n)]
    return [tuple(map(gens.index, word)) for word in reduced_words(w, gens)]


# -- walks of a Coxeter system, generators given by their positive coroots ----------

def descends(w: WeylElement, coroot: Coroot) -> bool:
    """Does r_beta descend w at the positive coroot beta^vee: w^{-1}(beta^vee) < 0?"""
    return min(_mat_vec(w.inv, coroot.coords)) < 0


def coxeter_ball(identity: WeylElement, gens, max_length: int) -> tuple[WeylElement, ...]:
    """The elements of length <= max_length, level by level: level k holds
    the products r * w (w in level k - 1, r a generator that does not
    descend w), in `sort_key` order."""
    levels = [(identity,)]
    for _ in range(max_length):
        level = {identity.group.reflection(c) * w for w in levels[-1] for c in gens if not descends(w, c)}
        if not level:
            break
        levels.append(tuple(sorted(level, key=lambda u: u.sort_key)))
    return tuple(w for level in levels for w in level)


def lifts_below(v: WeylElement, word) -> bool:
    """Is v below r_1 ... r_k (a reduced word of generator coroots) in the
    Bruhat order?  By the lifting property: strip r from v when r descends v."""
    cur = v
    for c in word:
        if cur.is_identity:
            return True
        if descends(cur, c):
            cur = cur.group.reflection(c) * cur
    return cur.is_identity


def reduced_words(w: WeylElement, gens) -> list[tuple[Coroot, ...]]:
    """Every reduced word of w over the generator coroots, by descent."""
    if w.is_identity:
        return [()]
    return [(c,) + rest for c in gens if descends(w, c) for rest in reduced_words(w.group.reflection(c) * w, gens)]
