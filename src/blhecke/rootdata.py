"""Kac-Moody matrices, root generating systems, real coroots.

Coroots are stored in simple-coroot coordinates (integer vectors indexed by
the generator set), where positivity and height are native; the embedding
into cocharacter coordinates is computed on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from . import linalg
from .errors import BoundTooSmall, NotARealCoroot, ValidationError
from .scalars import Scalar, abs_gt_one

IntVec = tuple[int, ...]


def _as_ivec(v) -> IntVec:
    return tuple(int(x) for x in v)


@dataclass(frozen=True)
class KacMoodyMatrix:
    """Square integer matrix with 2s on the diagonal, non-positive off-diagonal
    entries, and symmetric vanishing."""

    entries: tuple[IntVec, ...]

    @staticmethod
    def make(rows) -> "KacMoodyMatrix":
        return KacMoodyMatrix(tuple(_as_ivec(r) for r in rows))

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def validate(self) -> None:
        n = self.size
        for row in self.entries:
            if len(row) != n:
                raise ValidationError(ValidationError.PAIRING_MISMATCH, "matrix is not square")
        for i in range(n):
            if self.entries[i][i] != 2:
                raise ValidationError(
                    ValidationError.DIAGONAL_NOT_2, f"diagonal entry a[{i},{i}] = {self.entries[i][i]} != 2"
                )
            for j in range(n):
                if i == j:
                    continue
                if self.entries[i][j] > 0:
                    raise ValidationError(
                        ValidationError.SIGN_VIOLATION, f"off-diagonal entry a[{i},{j}] = {self.entries[i][j]} > 0"
                    )
                if (self.entries[i][j] == 0) != (self.entries[j][i] == 0):
                    raise ValidationError(
                        ValidationError.SIGN_VIOLATION, f"a[{i},{j}] and a[{j},{i}] do not vanish together"
                    )

    def determinant(self) -> Fraction:
        return linalg.det([list(r) for r in self.entries])


@dataclass(frozen=True)
class Coroot:
    """Real coroot in simple-coroot coordinates."""

    coords: IntVec

    @property
    def height(self) -> int:
        return sum(abs(c) for c in self.coords)

    @property
    def ht_signed(self) -> int:
        return sum(self.coords)

    @cached_property
    def positive(self) -> bool:
        """Computed once per coroot; not a field, so equality, hash and repr read coords alone."""
        return any(c > 0 for c in self.coords) and all(c >= 0 for c in self.coords)

    def __neg__(self) -> "Coroot":
        return Coroot(tuple(-c for c in self.coords))

    def abs(self) -> "Coroot":
        return self if self.positive else -self

    @property
    def sort_key(self):
        return (self.height, self.coords)

    def __repr__(self):
        return f"Coroot{self.coords}"


@dataclass(frozen=True)
class RootGeneratingSystem:
    """Kac-Moody matrix with dual lattices and paired simple (co)root families.

    `simple_roots[i]` holds the coordinates of alpha_i in the dual basis of Y
    (so alpha_i(v) is a dot product) and `simple_coroots[i]` the coordinates of
    alpha_i^vee in the chosen basis of Y.
    """

    matrix: KacMoodyMatrix
    rank: int
    simple_roots: tuple[IntVec, ...]
    simple_coroots: tuple[IntVec, ...]

    @staticmethod
    def make(matrix, rank, simple_roots, simple_coroots) -> "RootGeneratingSystem":
        if not isinstance(matrix, KacMoodyMatrix):
            matrix = KacMoodyMatrix.make(matrix)
        return RootGeneratingSystem(
            matrix,
            int(rank),
            tuple(_as_ivec(r) for r in simple_roots),
            tuple(_as_ivec(c) for c in simple_coroots),
        )

    @property
    def n(self) -> int:
        return self.matrix.size

    def root_pairing(self, j: int, v) -> int:
        """alpha_j(v) for v in Y-coordinates."""
        return sum(a * b for a, b in zip(self.simple_roots[j], v))

    def coroot_to_y(self, coords) -> IntVec:
        out = [0] * self.rank
        for c, vec in zip(coords, self.simple_coroots):
            if c:
                for k in range(self.rank):
                    out[k] += c * vec[k]
        return tuple(out)

    @cached_property
    def _coroot_projector(self) -> list[list[Fraction]]:
        # left inverse of the rank x n matrix S whose columns are simple coroots
        s = [[Fraction(self.simple_coroots[j][i]) for j in range(self.n)] for i in range(self.rank)]
        st = [[s[i][j] for i in range(self.rank)] for j in range(self.n)]
        gram = linalg.mat_mul(st, s)
        aug = [list(gram[i]) + [Fraction(int(k == i)) for k in range(self.n)] for i in range(self.n)]
        red, pivots = linalg.rref(aug)
        if len(pivots) != self.n:
            raise ValidationError(ValidationError.INDEPENDENCE, "simple coroots are linearly dependent")
        inv = [row[self.n:] for row in red]
        return linalg.mat_mul(inv, st)

    def y_to_coroot(self, yvec) -> IntVec | None:
        """Simple-coroot coordinates of a Y-vector, or None if outside the span.

        The Weyl group works in coroot coordinates and never calls this;
        bench/tracing.py still wraps it by name."""
        coords = linalg.mat_vec(self._coroot_projector, [Fraction(x) for x in yvec])
        if any(c.denominator != 1 for c in coords):
            return None
        back = self.coroot_to_y([int(c) for c in coords])
        if tuple(back) != tuple(int(x) for x in yvec):
            return None
        return tuple(int(c) for c in coords)

    def reflect(self, i: int, v) -> IntVec:
        """r_i(v) = v - alpha_i(v) alpha_i^vee on Y-coordinates."""
        c = self.root_pairing(i, v)
        return tuple(int(x) - c * a for x, a in zip(v, self.simple_coroots[i]))

    def reflect_coroot(self, i: int, coroot: Coroot) -> Coroot:
        """r_i acting in simple-coroot coordinates."""
        c = sum(coroot.coords[k] * self.matrix[k, i] for k in range(self.n))
        coords = list(coroot.coords)
        coords[i] -= c
        return Coroot(tuple(coords))

    def simple_coroot(self, i: int) -> Coroot:
        coords = [0] * self.n
        coords[i] = 1
        return Coroot(tuple(coords))

    def root_pairing_coroot(self, j: int, coroot: Coroot) -> int:
        """alpha_j(coroot) computed from the Kac-Moody matrix."""
        return sum(coroot.coords[k] * self.matrix[k, j] for k in range(self.n))

    def validate(self) -> None:
        self.matrix.validate()
        n, r = self.n, self.rank
        if len(self.simple_roots) != n or len(self.simple_coroots) != n:
            raise ValidationError(ValidationError.PAIRING_MISMATCH, "need one root and coroot per matrix index")
        for v in self.simple_roots + self.simple_coroots:
            if len(v) != r:
                raise ValidationError(ValidationError.PAIRING_MISMATCH, "coordinate vector of wrong length")
        for i in range(n):
            for j in range(n):
                got = sum(a * b for a, b in zip(self.simple_roots[j], self.simple_coroots[i]))
                if got != self.matrix[i, j]:
                    raise ValidationError(
                        ValidationError.PAIRING_MISMATCH,
                        f"alpha_{j}(alpha_{i}^vee) = {got} but a[{i},{j}] = {self.matrix[i, j]}",
                    )
        for name, fam in (("roots", self.simple_roots), ("coroots", self.simple_coroots)):
            if linalg.rank([[Fraction(x) for x in v] for v in fam]) != n:
                raise ValidationError(ValidationError.INDEPENDENCE, f"simple {name} are linearly dependent")

    def root_lattice_image_gcd(self, i: int) -> int:
        """Generator of alpha_i(Y) as a subgroup g*Z of Z."""
        return math.gcd(*self.simple_roots[i])


def standard_system(matrix) -> RootGeneratingSystem:
    """Standard realization over Y = Z^(n + corank): simple coroots are the
    first n basis vectors; roots get extra coordinates restoring independence.
    Only the matrix is validated: the rest is valid by construction, and a
    datum read from outside is validated once, by `validate_system`."""
    if not isinstance(matrix, KacMoodyMatrix):
        matrix = KacMoodyMatrix.make(matrix)
    matrix.validate()
    n = matrix.size
    cols = [[Fraction(matrix[i, j]) for i in range(n)] for j in range(n)]
    base_rank = linalg.rank(cols)
    corank = n - base_rank
    rank = n + corank
    coroots = []
    for i in range(n):
        v = [0] * rank
        v[i] = 1
        coroots.append(tuple(v))
    # append unit coordinates greedily to make the root family independent
    extra: list[int] = []

    def fam_rank(ex: list[int]) -> int:
        rows = []
        for k in range(n):
            rows.append([Fraction(matrix[i, k]) for i in range(n)] + [Fraction(int(k == e)) for e in ex])
        return linalg.rank(rows)

    current = base_rank  # fam_rank([]): the roots without extra coordinates are the columns
    for j in range(n):
        if len(extra) == corank:
            break
        trial_rank = fam_rank(extra + [j])
        if trial_rank > current:
            extra.append(j)
            current = trial_rank
    roots = []
    for j in range(n):
        v = [matrix[i, j] for i in range(n)] + [0] * corank
        if j in extra:
            v[n + extra.index(j)] = 1
        roots.append(tuple(v))
    return RootGeneratingSystem.make(matrix, rank, roots, coroots)


@dataclass(frozen=True)
class ParameterSet:
    """Hecke parameters sigma_s, sigma'_s per simple generator."""

    sigma: tuple[Scalar, ...]
    sigma_prime: tuple[Scalar, ...]

    @staticmethod
    def equal(value: Scalar, n: int) -> "ParameterSet":
        vals = tuple([value] * n)
        return ParameterSet(vals, vals)

    def validate(self, sys: RootGeneratingSystem) -> None:
        n = sys.n
        if len(self.sigma) != n or len(self.sigma_prime) != n:
            raise ValidationError(ValidationError.PARAMETER_CONSTRAINT, "need one parameter pair per generator")
        for i in range(n):
            if not (abs_gt_one(self.sigma[i]) and abs_gt_one(self.sigma_prime[i])):
                raise ValidationError(
                    ValidationError.PARAMETER_MODULUS, f"|sigma_{i}| and |sigma'_{i}| must both exceed 1"
                )
        for i in range(n):
            if sys.root_lattice_image_gcd(i) == 1 and self.sigma[i] != self.sigma_prime[i]:
                raise ValidationError(
                    ValidationError.PARAMETER_CONSTRAINT,
                    f"alpha_{i}(Y) = Z forces sigma_{i} = sigma'_{i}",
                )
        # generators joined by a chain of (-1,-1)-pairings share all four values
        for i in range(n):
            for j in range(i + 1, n):
                if sys.matrix[i, j] == -1 and sys.matrix[j, i] == -1:
                    vals = {self.sigma[i], self.sigma[j], self.sigma_prime[i], self.sigma_prime[j]}
                    if len(vals) != 1:
                        raise ValidationError(
                            ValidationError.PARAMETER_CONSTRAINT,
                            f"generators {i} and {j} are conjugate; all their parameters must coincide",
                        )


def validate_system(sys: RootGeneratingSystem, params: ParameterSet) -> None:
    """Raise ValidationError naming the violated invariant, if any."""
    sys.validate()
    params.validate(sys)


def enumerate_coroots(sys: RootGeneratingSystem, height_bound: int) -> tuple[Coroot, ...]:
    """All real coroots of height <= bound: BFS orbit of the simple coroots
    under simple reflections, pruned by height, closed under negation.

    Deterministic: output sorted by (height, coordinates).
    """
    seen: set[IntVec] = set()
    frontier = [sys.simple_coroot(i) for i in range(sys.n)]
    frontier = [c for c in frontier if c.height <= height_bound]
    for c in frontier:
        seen.add(c.coords)
    while frontier:
        frontier.sort(key=lambda c: c.sort_key)
        nxt = []
        for c in frontier:
            for i in range(sys.n):
                image = sys.reflect_coroot(i, c)
                if image.height <= height_bound and image.coords not in seen:
                    seen.add(image.coords)
                    nxt.append(image)
        frontier = nxt
    out = set()
    for coords in seen:
        out.add(coords)
        out.add(tuple(-x for x in coords))
    return tuple(sorted((Coroot(c) for c in out), key=lambda c: c.sort_key))


def coroot_orbit_witness(sys: RootGeneratingSystem, coroot: Coroot) -> tuple[list[int], int]:
    """Write a positive real coroot as r_{j_1}...r_{j_m}(alpha_c^vee).

    Returns (word [j_1..j_m], c).  Height-descent: a positive real coroot that
    is not simple pairs positively with some simple root; reflecting there
    strictly lowers the height.  Raises NotARealCoroot if descent sticks.
    """
    cur = coroot
    if not cur.positive:
        raise NotARealCoroot(f"{coroot} is not positive")
    word: list[int] = []
    while True:
        nz = [k for k, x in enumerate(cur.coords) if x]
        if len(nz) == 1 and cur.coords[nz[0]] == 1:
            return word, nz[0]
        step = None
        for i in range(sys.n):
            if sys.root_pairing_coroot(i, cur) > 0:
                image = sys.reflect_coroot(i, cur)
                if image.positive and image.height < cur.height:
                    step = (i, image)
                    break
        if step is None:
            raise NotARealCoroot(f"{coroot} admits no height descent; not a real coroot")
        word.append(step[0])
        cur = step[1]


def find_strictly_dominant(sys: RootGeneratingSystem, bound: int = 5) -> IntVec:
    """Smallest integer vector in the open dominant chamber, coefficients in
    [-bound, bound]; raises BoundTooSmall when the lattice misses the chamber."""
    best = None
    for cand in product(range(-bound, bound + 1), repeat=sys.rank):
        if all(sys.root_pairing(i, cand) > 0 for i in range(sys.n)):
            key = (sum(abs(x) for x in cand), cand)
            if best is None or key < best[0]:
                best = (key, cand)
    if best is None:
        raise BoundTooSmall(f"no strictly dominant vector with coefficients in [-{bound}, {bound}]")
    return tuple(best[1])
