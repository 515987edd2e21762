import json
import random
from fractions import Fraction

import pytest

from blhecke import Character, ParameterSet, PrincipalSeries, RationalElt, standard_system
from blhecke import hecke, principal, serial, stabilizer
from blhecke.cli import lemma37_system
from blhecke.coxeter import WeylGroup, enumerate_ball
from blhecke.errors import NotInGenWeightSpace
from blhecke.hecke import HeckeAlgebra
from blhecke.identities import run_suite
from blhecke.memo import ALGEBRA_TABLE_CAP, SERIES_CAP, Memo
from blhecke.stabilizer import TauStabilizer, analyze, kato_check
from conftest import q4


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


def test_omega_memo_holds_one_walk_per_pairing(affine_a1, monkeypatch):
    """Omega_s(Z^lambda) depends on lambda only through Z^lambda and
    n = alpha_s(lambda): over 1 100 monomials of the rank-3 affine A1 the
    omega memo holds exactly the keys (i, n) asked, `_omega` runs once per
    key, and the memo stays bounded by the pairings, not the monomials."""
    alg = HeckeAlgebra(affine_a1, ParameterSet.equal(Fraction(7), 2))
    memo = alg._cache["omega"]
    memo.clear()
    made = []
    omega = HeckeAlgebra._omega

    def counted(self, i, theta):
        (lam,) = theta.num.terms
        made.append((i, self.system.root_pairing(i, lam)))
        return omega(self, i, theta)

    monkeypatch.setattr(HeckeAlgebra, "_omega", counted)
    rng = random.Random(3)
    monomials = {(rng.randrange(2), tuple(rng.randint(-12, 12) for _ in range(3))) for _ in range(1100)}
    asked = set()
    for i, lam in monomials:
        assert alg.omega(i, RationalElt.monomial(lam)).den == ()
        asked.add((i, alg.system.root_pairing(i, lam)))
    assert len(monomials) > 1000
    assert set(memo) == asked
    assert sorted(made) == sorted(asked)
    bound = max(abs(n) for _, n in asked)
    assert len(memo) <= 2 * (2 * bound + 1) < len(monomials) // 4


def test_series_table_stays_at_cap(alg_a2):
    series = [PrincipalSeries(alg_a2, Character.make([Fraction(k + 2), Fraction(-1)])) for k in range(SERIES_CAP + 3)]
    bases = [ser.weight_space(ser.tau, 1) for ser in series]
    table = alg_a2._cache["series"]
    assert len(table) == SERIES_CAP
    assert series[0].tau not in table and series[-1].tau in table
    again = PrincipalSeries(alg_a2, series[0].tau)  # a new series reads the table, not series[0]'s memos
    assert again.weight_space(again.tau, 1) == bases[0]
    assert len(table) == SERIES_CAP


def test_equal_algebras_share_memos(monkeypatch):
    matrix = [[2, -1], [-1, 2]]
    first = HeckeAlgebra(standard_system(matrix), ParameterSet.equal(Fraction(5), 2))
    exps = [(1, 0), (0, -1), (2, 1)]
    values = [first.omega(0, RationalElt.monomial(e)) for e in exps]
    second = HeckeAlgebra(standard_system(matrix), ParameterSet.equal(Fraction(5), 2))
    assert second is not first and second.system is not first.system

    def recomputed(*args):
        raise AssertionError("omega recomputed for a key the first algebra holds")

    monkeypatch.setattr(HeckeAlgebra, "_omega", recomputed)
    assert [second.omega(0, RationalElt.monomial(e)) for e in exps] == values
    with pytest.raises(AssertionError):
        second.omega(1, RationalElt.monomial((1, 0)))  # a new key is computed


def test_algebra_table_stays_at_cap(a2):
    params = [ParameterSet.equal(Fraction(k + 20), 2) for k in range(ALGEBRA_TABLE_CAP + 3)]
    algebras = [HeckeAlgebra(a2, p) for p in params]
    first = algebras[0].omega(0, RationalElt.monomial((1, 0)))
    for alg in algebras[1:]:
        alg.omega(0, RationalElt.monomial((1, 0)))
    table = hecke._algebra_memos
    assert len(table) == ALGEBRA_TABLE_CAP
    assert (a2, params[0]) not in table and (a2, params[-1]) in table
    again = HeckeAlgebra(a2, params[0])
    assert again._cache is not algebras[0]._cache
    assert again.omega(0, RationalElt.monomial((1, 0))) == first
    assert len(table) == ALGEBRA_TABLE_CAP


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


def test_stabilizer_makes_each_key_once_at_scale(monkeypatch):
    """The stabilizer memo lives as long as its character entry: on the
    hyperbolic datum at tau = -1, `kato_check` then `analyze` at bounds
    (64, 13) write more entries than the 4 096 of the old cap (W_tau has 1 063
    elements of length <= 13), and none is written twice, as a capped memo
    would.  Writes are counted, since `Memo.once` and the left-factor walk
    both store through `__setitem__`."""
    alg = HeckeAlgebra(standard_system([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]]), q4(3))
    tau = Character.make([-1, -1, -1])
    alg._cache["series"].pop(tau, None)
    memo = alg.character_memos(tau)["stabilizer"]
    written = []
    setitem = Memo.__setitem__

    def logged(self, key, value):
        if self is memo:
            written.append(key)
        setitem(self, key, value)

    monkeypatch.setattr(Memo, "__setitem__", logged)
    kato_check(alg, tau, 64, 13)
    analyze(alg, tau, 64, 13)
    assert len(written) > 4096
    assert len(written) == len(set(written))


def test_column_memo_holds_generator_columns_of_the_ball():
    """The column memo is bounded by the query: after `weight_space` on the
    hyperbolic ball of length 6 at the trivial character, it holds only
    columns Z^(+-e_k) T_w v with w in the ball, at most 2 * rank per element
    (a (lambda, w) memo holds thousands of columns with lambda = w^-1(e_k))."""
    system = standard_system([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]])
    alg = HeckeAlgebra(system, q4(3))
    tau = Character.trivial(system.rank)
    alg._cache["series"].pop(tau, None)
    ser = PrincipalSeries(alg, tau)
    assert ser.weight_space(tau, 6)
    dom = frozenset(alg.group.ball(6))
    memo = ser._memos["column"]
    generators = {tuple(sign * int(i == k) for i in range(system.rank)) for k in range(system.rank) for sign in (1, -1)}
    assert all(lam in generators and w in dom for lam, w in memo)
    assert len(memo) <= 2 * system.rank * len(dom)


def test_theta_memo_holds_the_weight_space_domains_only(alg_a2):
    """`ord_tau` acts by the generator columns and asks no theta-matrix: on a
    cold character it leaves the theta memo empty, and after the weight-space
    queries and `ord_tau` on every basis vector of a ball the memo holds the
    rank matrices Z^(e_j) of that ball alone."""
    tau = Character.make([1, 4])
    alg_a2._cache["series"].pop(tau, None)
    ser = PrincipalSeries(alg_a2, tau)
    group = alg_a2.group
    assert ser.ord_tau(ser.vector({group.simple(0): Fraction(1)})) == 2
    assert not principal._matrix_cache(ser)
    assert ser.weight_space(tau, 3) and ser.generalized_weight_space(tau, 3, 2)
    dom = group.ball(3)
    for w in dom:
        try:
            ser.ord_tau(ser.vector({w: Fraction(1)}))
        except NotInGenWeightSpace:
            pass
    rank = alg_a2.system.rank
    units = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    assert set(principal._matrix_cache(ser)) == {(e, dom) for e in units}


def test_ball_elements_are_their_groups_interned_objects():
    """The intern table lives as long as its group: after a ball of 13 121
    elements every one is the object the group interns for its matrix."""
    system, _, _ = lemma37_system()
    group = WeylGroup(system)
    ball = group.ball(8)
    assert len(ball) > 8192
    assert all(group.intern(w.mat, w.inv) is w for w in ball)


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


def test_kato_then_analyze_read_one_memo(alg_a2, alg_affine_a2):
    """One stabilizer memo per (algebra, tau): on A2 at the trivial character
    `kato_check` tests the whole group, so `analyze` makes no new twist or
    word entry; anywhere, a repeated pair makes no new entry at all."""
    cases = [(alg_a2, Character.make([1, 1]))] + [
        (alg_affine_a2, Character.make(v)) for v in ([1, 1, 1, 1], [-1, 1, 1, 1], [4, 1, 1, 1], [3, 5, 5, 5])]
    for alg, tau in cases:
        alg._cache["series"].pop(tau, None)
        kato_check(alg, tau, 8, 3)
        memo = alg.character_memos(tau)["stabilizer"]
        after_kato = set(memo)
        assert after_kato, tau  # kato_check filled the memo of the character entry
        analyze(alg, tau, 8, 3)
        if alg is alg_a2:
            assert not {key for key in set(memo) - after_kato if key[0] in ("twist", "word")}
        after_pair = set(memo)
        kato_check(alg, tau, 8, 3)
        analyze(alg, tau, 8, 3)
        assert set(memo) == after_pair, tau


def test_equal_algebras_read_one_stabilizer_memo(a2):
    tau = Character.make([-1, 1])
    first = TauStabilizer(HeckeAlgebra(a2, ParameterSet.equal(Fraction(3), 2)), tau)
    second = TauStabilizer(HeckeAlgebra(standard_system([[2, -1], [-1, 2]]), ParameterSet.equal(Fraction(3), 2)), tau)
    assert second.algebra is not first.algebra and second._memo is first._memo
    assert first.sigma_tau(6) and len(second._memo) == len(first._memo)


def test_stabilizer_memo_evicted_with_its_character(alg_a2):
    taus = [Character.make([Fraction(k + 2), 1]) for k in range(SERIES_CAP + 2)]
    reports = [analyze(alg_a2, tau, 6, 3) for tau in taus]
    table = alg_a2._cache["series"]
    assert len(table) == SERIES_CAP and taus[0] not in table and taus[-1] in table
    assert analyze(alg_a2, taus[0], 6, 3) == reports[0]  # recomputed in a new entry
    assert taus[0] in table and len(table) == SERIES_CAP


def test_trivial_and_all_ones_are_one_key(alg_a2, alg_affine_a2):
    for alg in (alg_a2, alg_affine_a2):
        rank = alg.system.rank
        trivial, ones = Character.trivial(rank), Character.make([1] * rank)
        assert trivial == ones and hash(trivial) == hash(ones)
        alg._cache["series"].pop(trivial, None)
        assert TauStabilizer(alg, trivial)._memo is TauStabilizer(alg, ones)._memo
        reports = [(serial.verdict_to_obj(kato_check(alg, tau, 8, 3)), serial.analysis_to_obj(analyze(alg, tau, 8, 3)))
                   for tau in (trivial, ones)]
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)
