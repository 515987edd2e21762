"""The package's one cache policy: every cache is a `Memo` with one owner.

A `Memo` is a dict with a constant `cap`.  `once(key, make)` returns the
value at key and calls `make()` only when the key is missing; past the cap
the oldest entry is evicted first.  Every value must be a pure function of
its key, so an eviction only costs a recomputation, never a different
answer.  Each cap is set above the largest size the benchmark's seed-1
workloads reach, so nothing is evicted there, except from the `omega` memo
on hecke-products and the character table on module-weights and
kato-sweep, which meet more monomials (about 7 500) and characters (one per
config; five kinds per datum on kato-sweep, with the generator varied
between rounds) than those caps hold; there the caps bound memory.

The caches, their owners and caps:

- `HeckeAlgebra._cache`, one per (system, params) in the algebra table
  `hecke._algebra_memos` of `ALGEBRA_TABLE_CAP` entries: `q` (Q_s^T by
  generator), `omega` (Omega_s(Z^lambda) by (i, lambda)), `zeta` (zeta and
  its inverse), `fhat` (by coroot), `f` (F_w by element) and `sigma`
  ((s, s', s s', -s/s') by coroot, at most 336 entries on kato-sweep), each
  `ALGEBRA_CAP`, and the character table `series` of `SERIES_CAP`
  characters.  The stabilizer's tests read no zeta, so no benchmark
  workload fills `zeta`.
- Per character in that table (`HeckeAlgebra.character_memos`), evicted
  with it: `stabilizer`, the one memo of every `TauStabilizer` of (algebra,
  tau), holding its tests by coroot, the twisted character w . tau and the
  greedy word by element, and Phi_tau and Sigma_tau by bound,
  `STABILIZER_CAP` (at most 724 entries on kato-sweep, 160 of them twists
  and 160 words), so `kato_check`, `analyze` and a `PrincipalSeries` read
  the same tests across calls; `theta` (`principal._matrix_cache(series)`),
  the theta-matrices by (exponent, domain), `THETA_MATRIX_CAP`; and
  `column`, the columns Z^lambda T_w v by (lambda, w), `COLUMN_CAP`.
- `WeylGroup._elements`, one per group: the intern table by matrix,
  `ELEMENT_CAP`.
- `WeylGroup.memo`, one per group: what depends on the datum alone, namely
  the root and orbit index and the reflection of each coroot met, and the
  coroots and the Bruhat ball by bound, `GROUP_DATA_CAP` (at most 406
  entries on kato-sweep, for the Lemma 3.7 datum; 5 on module-weights).
  `WeylGroup.coroots` and `WeylGroup.ball` are the only readers of the
  enumerations, for every caller (stabilizer, CLI, identity checks).  On the
  seed-1 lists a `coroots` entry holds 66 to 124 coroots (kato-sweep) and a
  `ball` entry 41 to 161 elements (kato-sweep) or 5 to 20 (module-weights),
  so each enumeration runs once per (datum, bound), 10 times on module-weights.
- `WeylGroup._instances`: the group of each root datum, `GROUP_CAP`.

Two tables belong to the process rather than to an object the caller
passes.  The group registry gives elements their identity: equal elements
are normally one interned object, so their per-element caches (word,
inversions, Y-action) are computed once; an element interned again after an
eviction is equal to, and hashes like, the one it replaces; the group's
datum data outlive each CLI call with it.  The algebra
table lets equal algebras share memos, since the CLI builds a new
`HeckeAlgebra` on every call: `omega` entries (at most 109 per algebra on
module-weights), columns, theta-matrices and stabilizer tests outlive the
call.

Attributes bounded by their object, such as `functools.cached_property`
values and `WeylElement._left` (at most one entry per generator), are not
caches in this sense.
"""

from __future__ import annotations

# largest sizes on the seed-1 benchmark workloads in the comments
STABILIZER_CAP = 4096  # 724 entries per character (kato-sweep)
ALGEBRA_CAP = 1024  # omega fills it on hecke-products; sigma: 336 entries (kato-sweep); zeta: 23 (tier-1)
ELEMENT_CAP = 8192  # 315 elements (kato-sweep)
GROUP_DATA_CAP = 2048  # 406 entries per group (kato-sweep)
GROUP_CAP = 64  # 5 groups
THETA_MATRIX_CAP = 256  # 24 matrices (module-weights)
COLUMN_CAP = 4096  # 382 columns per series (module-weights)
SERIES_CAP = 4  # per algebra; module-weights meets one series per config
ALGEBRA_TABLE_CAP = 16  # 4 algebras (module-weights)

_MISSING = object()


class Memo(dict):
    """A dict holding at most `cap` entries, each computed once; past the
    cap the oldest entry is evicted first."""

    __slots__ = ("cap",)

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def once(self, key, make):
        """The value at key, computed by make() on first use."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = make()
            while len(self) >= self.cap:
                del self[next(iter(self))]
            self[key] = value
        return value
