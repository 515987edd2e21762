from fractions import Fraction

from blhecke import Character, LowerSet, PrincipalSeries, RationalElt
from blhecke import principal, stabilizer
from blhecke.coxeter import WeylGroup, enumerate_ball
from blhecke.identities import run_suite
from blhecke.memo import ALGEBRA_CAP, SERIES_CAP, Memo


def test_memo_makes_once_and_evicts_oldest():
    memo = Memo(3)
    calls = []

    def make(key):
        calls.append(key)
        return key * 10

    assert [memo.once(k, lambda: make(k)) for k in (1, 2, 1, 3, 2)] == [10, 20, 10, 30, 20]
    assert calls == [1, 2, 3]
    assert memo.once(4, lambda: make(4)) == 40
    assert list(memo) == [2, 3, 4]  # 1, the oldest, went at the cap
    assert memo.once(1, lambda: make(1)) == 10
    assert calls == [1, 2, 3, 4, 1]
    assert len(memo) == 3


def test_memo_keeps_none_values():
    memo = Memo(2)
    calls = []
    assert memo.once("k", lambda: calls.append("k")) is None
    assert memo.once("k", lambda: calls.append("k")) is None
    assert calls == ["k"]


def test_omega_cache_stays_at_cap_in_a_long_session(alg_affine_a1):
    alg = alg_affine_a1
    cache = alg._cache["omega"]
    first = (ALGEBRA_CAP + 50, 0)
    expected = alg.omega(0, RationalElt.monomial(first))
    for k in range(ALGEBRA_CAP + 100):
        alg.omega(0, RationalElt.monomial((k, 1)))
    assert len(cache) == ALGEBRA_CAP
    assert (0, first) not in cache
    assert alg.omega(0, RationalElt.monomial(first)) == expected


def test_series_table_stays_at_cap(alg_a2):
    dom = LowerSet.closure(enumerate_ball(alg_a2.system, 1))
    series = [PrincipalSeries(alg_a2, Character.make([Fraction(k + 2), Fraction(-1)])) for k in range(SERIES_CAP + 3)]
    bases = [ser.weight_space(ser.tau, dom) for ser in series]
    table = principal._series_matrices
    assert len(table) == SERIES_CAP
    assert series[0] not in table and series[-1] in table
    assert series[0].weight_space(series[0].tau, dom) == bases[0]
    assert len(table) == SERIES_CAP


def test_element_identity_survives_evictions(affine_a2, monkeypatch):
    group = WeylGroup(affine_a2)
    ball = enumerate_ball(affine_a2, 3)
    table = {(u.mat, v.mat): (u * v).mat for u in ball for v in ball}
    words = {w.mat: w.word for w in ball}
    hashes = {w.mat: hash(w) for w in ball}
    monkeypatch.setattr(group._elements, "cap", 5)
    enumerate_ball(affine_a2, 7)  # interns longer elements, evicting the oldest
    assert len(group._elements) <= 5
    again = [group.from_word(words[w.mat]) for w in ball]
    assert any(u2 is not u for u, u2 in zip(ball, again))  # some were interned anew
    for u, u2 in zip(ball, again):
        assert u2 == u and hash(u2) == hashes[u.mat] and u2.word == u.word
        for v, v2 in zip(ball, again):
            prod = u2 * v2
            assert prod.mat == table[(u.mat, v.mat)]
            assert prod == u * v and hash(prod) == hash(u * v)
    assert len(group._elements) <= 5
    assert len({*ball, *again}) == len(ball)


def test_series_owns_one_stabilizer(alg_a2, trivial2):
    ser = PrincipalSeries(alg_a2, trivial2)
    assert ser.stabilizer() is ser.stabilizer()


def test_run_suite_builds_one_stabilizer(alg_a2, trivial2, monkeypatch):
    built = []
    init = stabilizer.TauStabilizer.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(stabilizer.TauStabilizer, "__init__", counted)
    results = run_suite(alg_a2, trivial2, seed=0, coroot_bound=6, ell_bound=3, samples=5)
    assert all(r.passed for r in results)
    assert len(built) == 1
