import itertools

import pytest

from blhecke import (
    Coroot,
    RootGeneratingSystem,
    all_reduced_words,
    bruhat_leq,
    coroot_of_reflection,
    enumerate_ball,
    enumerate_coroots,
    inversion_coroots,
    standard_system,
)
from blhecke.coxeter import WeylGroup
from blhecke.errors import NotARealCoroot
from blhecke.memo import GROUP_CAP, Memo
from blhecke.rootdata import coroot_orbit_witness


def test_multiply_examples(a2):
    g = WeylGroup(a2)
    s1, s2 = g.simple(0), g.simple(1)
    assert (s1 * s1).is_identity
    assert (s1 * s2).word == (0, 1)
    assert (s1 * s2).length == 2
    assert (s1 * s2 * s1) * s1 == s1 * s2
    assert ((s1 * s2 * s1) * s1).length == 2


def test_length_examples(a2, affine_a1):
    g = WeylGroup(a2)
    assert g.identity.length == 0
    assert (g.simple(0) * g.simple(1)).length == 2
    ga = WeylGroup(affine_a1)
    w = ga.from_word([0, 1, 0, 1])
    assert w.length == 4


def test_canonical_word_is_shortlex_minimal(a2, affine_a1):
    for sys in (a2, affine_a1):
        for w in enumerate_ball(sys, 4):
            words = all_reduced_words(w)
            assert w.word == min(words)
            assert all(len(rw) == w.length for rw in words)


def _bruhat_bruteforce(v, w):
    # subword property oracle over every reduced word of w
    target_words = all_reduced_words(w)
    v_words = set(all_reduced_words(v))
    for tw in target_words:
        for positions in itertools.combinations(range(len(tw)), len(v.word)):
            if tuple(tw[p] for p in positions) in v_words:
                return True
    return not v.word


def test_bruhat_examples(a2):
    g = WeylGroup(a2)
    s1, s2 = g.simple(0), g.simple(1)
    w0 = s2 * s1 * s2
    assert bruhat_leq(g.identity, w0)
    assert bruhat_leq(s1, w0)
    assert not bruhat_leq(s1 * s2, s2 * s1)


def test_bruhat_matches_bruteforce(a2, affine_a1):
    for sys, bound in ((a2, 3), (affine_a1, 4)):
        ball = enumerate_ball(sys, bound)
        for v in ball:
            for w in ball:
                assert bruhat_leq(v, w) == _bruhat_bruteforce(v, w)


def test_bruhat_partial_order(affine_a1):
    ball = enumerate_ball(affine_a1, 4)
    for v in ball:
        assert bruhat_leq(v, v)
        for w in ball:
            if bruhat_leq(v, w) and bruhat_leq(w, v):
                assert v == w
            for u in ball:
                if bruhat_leq(u, v) and bruhat_leq(v, w):
                    assert bruhat_leq(u, w)


def test_inversion_examples(a2):
    g = WeylGroup(a2)
    s1, s2 = g.simple(0), g.simple(1)
    assert inversion_coroots(g.identity) == ()
    assert [c.coords for c in inversion_coroots(s1)] == [(1, 0)]
    assert {c.coords for c in inversion_coroots(s1 * s2)} == {(0, 1), (1, 1)}


def test_inversion_count_equals_length(a2, affine_a1, b2):
    for sys in (a2, affine_a1, b2):
        for w in enumerate_ball(sys, 4):
            invs = inversion_coroots(w)
            assert len(invs) == w.length
            assert all(c.positive for c in invs)
            # definition: these are exactly the positives sent negative
            for c in enumerate_coroots(sys, 4):
                if c.positive:
                    expected = not w.apply_coroot(c).positive
                    assert (c in invs) == expected or c.height > 4


def test_reflection_from_coroot_examples(a2, affine_a1):
    g = WeylGroup(a2)
    assert g.reflection(Coroot((1, 0))) == g.simple(0)
    theta = g.reflection(Coroot((1, 1)))
    assert theta == g.from_word([0, 1, 0])
    ga = WeylGroup(affine_a1)
    r = ga.reflection(Coroot((2, 1)))
    assert r == ga.from_word([0, 1, 0])


def test_reflection_roundtrip(affine_a1, b2):
    for sys in (affine_a1, b2):
        for c in enumerate_coroots(sys, 5):
            if not c.positive:
                continue
            r = WeylGroup(sys).reflection(c)
            assert r * r == WeylGroup(sys).identity
            assert r.apply_coroot(c) == -c
            assert c in inversion_coroots(r)
            assert coroot_of_reflection(r) == c


def test_reflection_rejects_negative(a2):
    with pytest.raises(NotARealCoroot):
        WeylGroup(a2).reflection(Coroot((-1, 0)))


def test_enumerate_ball_counts(a2, affine_a1):
    assert len(enumerate_ball(a2, 3)) == 6
    assert len(enumerate_ball(a2, 9)) == 6
    ball = enumerate_ball(affine_a1, 2)
    assert [w.word for w in ball] == [(), (0,), (1,), (0, 1), (1, 0)]
    assert len(enumerate_ball(affine_a1, 0)) == 1


def test_ball_order_deterministic(b2):
    ball = enumerate_ball(b2, 3)
    assert list(ball) == sorted(ball, key=lambda w: w.sort_key)


def test_length_subadditive_and_parity(a2, affine_a1):
    for sys in (a2, affine_a1):
        ball = enumerate_ball(sys, 3)
        for u in ball:
            for v in ball:
                uv = u * v
                assert uv.length <= u.length + v.length
                assert (uv.length - u.length - v.length) % 2 == 0


def test_lower_closure(a2):
    g = WeylGroup(a2)
    top = g.from_word([0, 1])
    assert {w.word for w in g.ball(3) if bruhat_leq(w, top)} == {(), (0,), (1,), (0, 1)}


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, -2], [-2, 2]],
        [[2, -1], [-3, 2]],
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        [[2, -2, -1], [-2, 2, -1], [-1, -1, 2]],
    ],
    ids=["affine A1", "G2", "affine A2", "hyperbolic"],
)
def test_ball_is_a_lower_set(matrix):
    # what lies below a ball element, by bruhat_leq in the next ball or by
    # deleting a letter of its word, lies in the ball
    g = WeylGroup(standard_system(matrix))
    for length in range(5):
        ball, larger = frozenset(g.ball(length)), g.ball(length + 1)
        for w in ball:
            assert {u for u in larger if bruhat_leq(u, w)} <= ball
            for drop in range(w.length):
                sub = g.from_word(w.word[:drop] + w.word[drop + 1:])
                assert sub in ball and bruhat_leq(sub, w)


_L37 = [[2, -2, -2, -2], [-2, 2, -2, -2], [-2, -2, 2, -3], [-2, -2, -3, 2]]
_AFFINE_A2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
# (datum, number of elements of length <= 4)
_BALLS = {
    "affine A2": (standard_system(_AFFINE_A2), 31),
    "affine C2": (standard_system([[2, -1, 0], [-2, 2, -2], [0, -1, 2]]), 28),
    "hyperbolic": (standard_system([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]]), 36),
    "Lemma 3.7": (
        RootGeneratingSystem.make(
            _L37, 4, [list(r) for r in zip(*_L37)], [[int(i == j) for j in range(4)] for i in range(4)]
        ),
        161,
    ),
    # affine A2 over a Y whose simple coroots are not basis vectors
    "sheared affine A2": (
        RootGeneratingSystem.make(
            _AFFINE_A2, 4, [[0, 2, -3, 2], [0, -1, 3, -4], [1, -2, 1, 1]], [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
        ),
        31,
    ),
}


def _is_identity_product(a, b):
    prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return all(v == int(i == j) for i, row in enumerate(prod) for j, v in enumerate(row))


@pytest.mark.parametrize("name", sorted(_BALLS))
def test_coroot_matrices_agree_with_y_action(name):
    sys, size = _BALLS[name]
    sys.validate()
    group = WeylGroup(sys)
    ball = enumerate_ball(sys, 4)
    assert len(ball) == size
    assert len({w.mat for w in ball}) == size
    height = max((c.height for w in ball for c in inversion_coroots(w)), default=1)
    positives = [c for c in enumerate_coroots(sys, height) if c.positive]
    simple = [sys.simple_coroot(i) for i in range(sys.n)]
    for w in ball:
        for c in simple:
            assert sys.coroot_to_y(w.apply_coroot(c).coords) == w.apply(sys.coroot_to_y(c.coords))
        invs = inversion_coroots(w)
        assert len(invs) == w.length
        assert set(invs) == {b for b in positives if not w.apply_coroot(b).positive}
        assert group.from_word(w.word) is w
        inv = w.inverse()
        assert inv.mat == w.inv and inv.inverse() is w
        assert _is_identity_product(w.mat, w.inv)
        assert _is_identity_product(w.y_mat, inv.y_mat)


def test_reflection_matrix_reads_root_pairing(affine_a2, b2):
    for sys in (affine_a2, b2):
        for c in enumerate_coroots(sys, 6):
            if c.positive:
                root, index = WeylGroup(sys).coroot_data(c)
                assert sum(r * sys.root_pairing_coroot(k, c) for k, r in enumerate(root)) == 2
                word, i = coroot_orbit_witness(sys, c)
                w = WeylGroup(sys).from_word(word)
                assert index == i
                assert WeylGroup(sys).reflection(c) is w * WeylGroup(sys).simple(i) * w.inverse()


def test_left_simple_is_the_product(g2, affine_a2):
    for sys in (g2, affine_a2):
        group = WeylGroup(sys)
        for w in enumerate_ball(sys, 3):
            for i in range(sys.n):
                assert w.left_simple(i) is group.simple(i) * w
                assert w.left_simple(i) is w.left_simple(i)


def test_walks_hold_the_group(affine_a2, monkeypatch):
    """bruhat_leq and all_reduced_words step along the elements they hold:
    after a warm-up, no walk looks its group up."""
    ball = WeylGroup(affine_a2).ball(4)

    def walk():
        for w in ball:
            all_reduced_words(w)
            for v in ball:
                bruhat_leq(v, w)

    walk()
    lookups = []
    original = WeylGroup.__new__

    def counted(cls, system):
        lookups.append(system)
        return original(cls, system)

    monkeypatch.setattr(WeylGroup, "__new__", counted)
    walk()
    assert lookups == []


def _right_multiplication_ball(sys, max_length):
    """The ball by the walk `enumerate_ball` used before the shared Coxeter
    walks: right multiplication by the simple reflections that raise the
    length, then one sort of the whole ball."""
    group = WeylGroup(sys)
    levels = [[group.identity]]
    seen = {group.identity}
    for _ in range(max_length):
        nxt = []
        for w in levels[-1]:
            for i in range(sys.n):
                cand = w * group.simple(i)
                if cand.length > w.length and cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        if not nxt:
            break
        levels.append(nxt)
    return tuple(sorted((w for level in levels for w in level), key=lambda w: w.sort_key))


@pytest.mark.parametrize("name", sorted(_BALLS))
def test_enumerate_ball_matches_right_multiplication_walk(name):
    sys, _ = _BALLS[name]
    for length in range(5):
        assert enumerate_ball(sys, length) == _right_multiplication_ball(sys, length)


# -- the word, N(w) and the Y-action against the loops along the word they replace ----

def _word_by_columns(w):
    """The canonical word by greedy least left descents, updating the columns
    of u^{-1} (column j is u^{-1}(alpha_j^vee)) as u -> r_i u."""
    a = w.system.matrix.entries
    n = w.system.n
    cols = [list(c) for c in zip(*w.inv)]
    word = []
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


def _inversions_along_word(w):
    """N(w) by N(u r_i) = r_i N(u) + {alpha_i^vee} along the word, sorted by `sort_key`."""
    sys = w.system
    out = []
    for i in _word_by_columns(w):
        out = [sys.reflect_coroot(i, c) for c in out]
        out.append(sys.simple_coroot(i))
    return tuple(sorted(out, key=lambda c: c.sort_key))


def _y_mat_along_word(w):
    """The matrix of the action on Y-coordinates, each basis vector reflected along the word."""
    sys = w.system
    word = _word_by_columns(w)
    cols = []
    for j in range(sys.rank):
        v = tuple(int(j == k) for k in range(sys.rank))
        for i in reversed(word):
            v = sys.reflect(i, v)
        cols.append(v)
    return tuple(zip(*cols))


def _assert_matches_loops(w):
    assert w.word == _word_by_columns(w)
    assert w.inversions == _inversions_along_word(w)
    assert w.y_mat == _y_mat_along_word(w)


@pytest.fixture
def fresh_groups(monkeypatch):
    """An empty group registry, so every element's word, inversions and
    Y-action are computed by this test, not read from an earlier one."""
    monkeypatch.setattr(WeylGroup, "_instances", Memo(GROUP_CAP))


_ORACLE_DATA = {
    "A2": standard_system([[2, -1], [-1, 2]]),
    "B2": standard_system([[2, -1], [-2, 2]]),
    "G2": standard_system([[2, -1], [-3, 2]]),
    "affine A1": standard_system([[2, -2], [-2, 2]]),
    "affine A2": _BALLS["affine A2"][0],
    "hyperbolic": _BALLS["hyperbolic"][0],
    "Lemma 3.7": _BALLS["Lemma 3.7"][0],
}


@pytest.mark.parametrize("name", sorted(_ORACLE_DATA))
def test_left_factor_step_matches_loops_along_the_word(name, fresh_groups):
    """On the ball of length 5 (the longest elements asked first, so the
    inversions and the Y-action walk down their left factors) and on the
    reflection of every positive coroot of height <= 16, built from its matrix."""
    group = WeylGroup(_ORACLE_DATA[name])
    for w in reversed(group.ball(5)):
        _assert_matches_loops(w)
    for c in group.coroots(16):
        if c.positive:
            _assert_matches_loops(group.reflection(c))


def test_long_lone_reflection_walks_without_recursion(fresh_groups):
    """The reflection at the highest affine A1 coroot of height <= 1001 has
    length 1001, deeper than the default recursion limit; in a fresh group
    none of its left factors holds a value when it is asked."""
    group = WeylGroup(standard_system([[2, -2], [-2, 2]]))
    r = group.reflection(Coroot((500, 501)))
    assert r.length == 1001
    _assert_matches_loops(r)
