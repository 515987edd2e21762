"""The package's one cache policy: every cache is a `Memo` with one owner.

A `Memo` is a dict whose values are each computed once: `once(key, make)`
returns the value at key and calls `make()` only when the key is missing.
Every value must be a pure function of its key, so dropping an entry only
costs a recomputation, never a different answer.  A memo with a `cap`
evicts its oldest entry first past the cap; `Memo()` has none.  No cap sees
the stores of `coxeter.walk_down`, so it writes only into uncapped tables:
element dicts and the `stabilizer` and `column` memos, never a capped one.

Tables of owners are capped, and a memo with no cap lives exactly as long
as its owner, so memory is bounded by the live owners times what their
queries enumerated, not by a constant per memo:

- `WeylGroup._instances`: the group of each root datum, `GROUP_CAP`.  Per
  group, with no cap: `_elements`, the intern table by matrix (the elements
  that the group's balls and products reached, and the left factors r_i w
  of every element whose word, inversions or Y-action was asked: a ball
  holds its own, but a lone reflection of length l brings l of them, each
  with a word and inversions of its length, so memory grows as l^2, while
  reflections of one family share their factors), and `memo`, what
  depends on the datum alone (the root and orbit index and the reflection
  of each coroot met, and the coroots and the Bruhat ball by bound).
  `WeylGroup.coroots` and `WeylGroup.ball` are the only readers of the
  enumerations, for every caller (stabilizer, CLI, identity checks).
- `hecke._algebra_memos`: the memos of each (system, params),
  `ALGEBRA_TABLE_CAP`, and in each the character table `series`,
  `SERIES_CAP` characters.  With no cap: per algebra, `q`, `sigma`, `zeta`,
  `f` and `fhat` by the index, coroot or element the queries enumerated,
  and `omega`, the walks of `HeckeAlgebra.omega_walk`: one per (i, n) met,
  n = alpha_i(lambda), each with at most |n| + 1 coefficients;
  per character (`HeckeAlgebra.character_memos`), `theta`, the matrices
  Z^(e_j) on the leading blocks of the balls the weight-space queries asked
  (`PrincipalSeries._kernel_basis`), `column`, the
  columns Z^(+-e_k) T_w v (2 * rank per element at most), and `stabilizer`,
  the one memo of every `TauStabilizer` of (algebra, tau), holding the
  simple values tau(alpha_i^vee), t by coroot of the coroot sets asked, the
  twisted character w . tau and the greedy coroot word (the one descent) by
  element of the balls asked and of the walks below them, and Phi_tau,
  Sigma_tau and W_tau (the ball's elements that fix tau) by bound, so
  `kato_check`, `analyze` and a `PrincipalSeries` read the same tests and scans.
- `cli._datum_table`: `GROUP_CAP` entries, one per datum, and one per
  (datum, parameters), that the process's CLI calls met: the standard datum
  built from each matrix, and the success of `validate_system` for each
  (system, params).  A build or validation that fails raises and stores nothing.

Three tables belong to the process rather than to an object the caller
passes.  The group registry gives elements their identity: equal elements
are one interned object while their group lives, so their per-element
caches (word, inversions, Y-action) are computed once, and the group's
datum data outlive each CLI call with it.  The algebra table lets equal
algebras share memos, since the CLI builds a new `HeckeAlgebra` on every
call: the algebra's memos, and the columns, theta-matrices and stabilizer
tests of the characters in the table outlive the call.  The CLI's datum
table makes each call on a datum the process has met skip the build and the
validation; `rootdata.standard_system` and `validate_system` themselves stay
uncached, so a library caller gets a fresh system.

Attributes bounded by their object, such as `functools.cached_property`
values and `WeylElement._left` and `_right` (at most one entry per generator
each), are not caches in this sense.
"""

from __future__ import annotations

# largest sizes on the seed-1 benchmark workloads in the comments
GROUP_CAP = 64  # 5 groups; 9 entries in the CLI datum table (kato-sweep)
SERIES_CAP = 4  # per algebra; module-weights meets one series per config
# FIFO stays: LRU warms 122 of the 210 seed-1 kato-sweep CLI calls to its 120, and the same 250 of 324 in module-weights
ALGEBRA_TABLE_CAP = 16  # 4 algebras (module-weights)

_MISSING = object()


class Memo(dict):
    """A dict whose values are each computed once; with a `cap`, past it the
    oldest entry is evicted first."""

    __slots__ = ("cap",)

    def __init__(self, cap: int | None = None):
        super().__init__()
        self.cap = cap

    def once(self, key, make):
        """The value at key, computed by make() on first use."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = make()
            if self.cap is not None:
                while len(self) >= self.cap:
                    del self[next(iter(self))]
            self[key] = value
        return value
