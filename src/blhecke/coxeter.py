"""Weyl group elements with canonical reduced words, Bruhat order, inversions.

The identity of record of an element w is its exact integer matrix on the
coroot lattice Q^vee, in simple-coroot coordinates (column j is
w(alpha_j^vee)), stored with the matrix of w^{-1}.  Column j of the simple
reflection r_i is `reflect_coroot(i, alpha_j^vee)`, read off the Kac-Moody
matrix.  The representation is faithful: if w(alpha_i^vee) > 0 for every i
then l(w) = 0, so w = 1 (Kac, Infinite-Dimensional Lie Algebras, 3.11-3.13,
applied to the dual datum, whose real roots are the coroots).  Descents are
sign tests on one column, the canonical ShortLex reduced word comes from
greedy left descents, and the action on Y, needed only to twist exponents
and characters, is built lazily from that word.

The `WeylGroup` owns the queries that depend on the datum alone: the coroot
and Bruhat-ball enumerations by bound, the root and reflection of each
coroot, and the Tits cone.  Callers use the group they hold, and walks step
along `left_simple` and `left_descents`.  The module functions
`enumerate_ball` and `inversion_coroots` stay because the benchmark's tracer
counts and times them there; `enumerate_ball` runs only on a memo miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

from .errors import IncompatibleData, NotARealCoroot
from .memo import ELEMENT_CAP, GROUP_CAP, GROUP_DATA_CAP, Memo
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

    Elements are interned per group, so equal elements are normally the same
    object and per-element caches (word, descents, inversions, Y-action) are
    computed once.
    """

    system: RootGeneratingSystem
    mat: Mat
    inv: Mat
    _left: dict = field(default_factory=dict, repr=False)  # i -> r_i * self

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
        """Canonical ShortLex-minimal reduced word (greedy smallest left descent)."""
        a = self.system.matrix.entries
        n = self.system.n
        cols = [list(c) for c in zip(*self.inv)]  # cols[j] = u^{-1}(alpha_j^vee)
        word: list[int] = []
        while True:
            i = next((j for j in range(n) if min(cols[j]) < 0), None)
            if i is None:
                return tuple(word)
            word.append(i)
            # u -> r_i u, so u^{-1} -> u^{-1} r_i: column j loses a[j][i] times column i
            ci = cols[i]
            for j in range(n):
                if a[j][i]:
                    cols[j] = [x - a[j][i] * y for x, y in zip(cols[j], ci)]

    @property
    def length(self) -> int:
        return len(self.word)

    @cached_property
    def is_identity(self) -> bool:
        return self.mat == self.group.identity.mat

    @cached_property
    def right_descents(self) -> frozenset[int]:
        """Indices i with l(w s_i) < l(w), i.e. w . alpha_i^vee negative."""
        return _negative_columns(self.mat)

    @cached_property
    def left_descents(self) -> frozenset[int]:
        return _negative_columns(self.inv)

    @cached_property
    def inversions(self) -> tuple[Coroot, ...]:
        """N(w), sorted: built along the word by N(u r_i) = r_i N(u) + {alpha_i^vee}."""
        sys = self.system
        out: list[Coroot] = []
        for i in self.word:
            out = [sys.reflect_coroot(i, c) for c in out]
            out.append(sys.simple_coroot(i))
        return tuple(sorted(out, key=lambda c: c.sort_key))

    @cached_property
    def y_mat(self) -> Mat:
        """Matrix of the action on Y-coordinates, reflected along the word."""
        sys = self.system
        cols = []
        for j in range(sys.rank):
            v = tuple(int(j == k) for k in range(sys.rank))
            for i in reversed(self.word):
                v = sys.reflect(i, v)
            cols.append(v)
        return tuple(zip(*cols))

    @cached_property
    def y_inv(self) -> Mat:
        return self.inverse().y_mat

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


class WeylGroup:
    """Element factory and interning table for one root datum, one group per
    datum (see the `memo` module for its three tables)."""

    _instances: Memo = Memo(GROUP_CAP)

    def __new__(cls, system: RootGeneratingSystem):
        return cls._instances.once(system, lambda: object.__new__(cls)._init(system))

    def _init(self, system: RootGeneratingSystem) -> "WeylGroup":
        self.system = system
        n = system.n
        self._elements = Memo(ELEMENT_CAP)
        self.memo = Memo(GROUP_DATA_CAP)
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

    def tits_cone(self, lam, step_cap: int | None = None) -> "ConeResult":
        """Capped dominance iteration deciding membership in the Tits cone.

        Applies r_i at the smallest i with alpha_i(lam) < 0 until dominant (and
        the mirror iteration until antidominant); returns Undetermined when
        neither terminates within the cap.  The witness w satisfies: w(lam) is
        dominant (resp. antidominant).
        """
        sys = self.system
        if step_cap is None:
            step_cap = 10 * sum(abs(x) for x in lam) + 10

        def iterate(sign: int):
            cur = lam
            w = self.identity
            for step in range(step_cap + 1):
                bad = next((i for i in range(sys.n) if sign * sys.root_pairing(i, cur) < 0), None)
                if bad is None:
                    return w, step
                cur = sys.reflect(bad, cur)
                w = w.left_simple(bad)
            return None

        pos = iterate(+1)
        if pos is not None:
            return ConeResult(CONE_POSITIVE, pos[0], pos[1])
        neg = iterate(-1)
        if neg is not None:
            return ConeResult(CONE_NEGATIVE, neg[0], neg[1])
        return ConeResult(CONE_UNDETERMINED, None, step_cap)


CONE_POSITIVE = "InPositiveCone"
CONE_NEGATIVE = "InNegativeCone"
CONE_UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class ConeResult:
    status: str
    witness: WeylElement | None  # w with w(lam) (anti)dominant, or None
    steps: int


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Subword criterion via the lifting property along the canonical word of w.

    >>> # identity is below everything; see tests for worked instances
    """
    if v.system != w.system:
        raise IncompatibleData("elements of different Weyl groups")
    if v.length > w.length:
        return False
    cur = v
    for i in w.word:
        if cur.is_identity:
            return True
        if i in cur.left_descents:
            cur = cur.left_simple(i)
    return cur.is_identity


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
    group = WeylGroup(sys)
    levels = [[group.identity]]
    seen = {group.identity}
    for _ in range(max_length):
        nxt = []
        for w in levels[-1]:
            for i in range(sys.n):
                if i not in w.right_descents:
                    cand = w * group.simple(i)
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        if not nxt:
            break
        levels.append(nxt)
    out = [w for level in levels for w in level]
    return tuple(sorted(out, key=lambda w: w.sort_key))


def all_reduced_words(w: WeylElement) -> list[tuple[int, ...]]:
    """Every reduced word of w, by exhaustive left-descent recursion."""
    if w.is_identity:
        return [()]
    return [(i,) + rest for i in sorted(w.left_descents) for rest in all_reduced_words(w.left_simple(i))]


def bruhat_lower_closure(elements) -> frozenset[WeylElement]:
    """Close a finite set of elements downward under the Bruhat order."""
    closed: set[WeylElement] = set()
    stack = list(elements)
    while stack:
        w = stack.pop()
        if w in closed:
            continue
        closed.add(w)
        word = w.word
        for drop in range(len(word)):
            sub = w.group.from_word(word[:drop] + word[drop + 1:])
            if sub not in closed:
                stack.append(sub)
    return frozenset(closed)
