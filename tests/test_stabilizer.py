import itertools
from fractions import Fraction

import pytest
import yaml

from blhecke import (
    Character,
    Coroot,
    ParameterSet,
    RootGeneratingSystem,
    enumerate_ball,
    enumerate_coroots,
    quadext,
    standard_system,
)
from blhecke import coxeter
from blhecke.cli import lemma37_system
from blhecke.cli import main as cli_main
from blhecke.coxeter import WeylGroup, inversion_coroots
from blhecke.errors import KacMoodyViolation
from blhecke.hecke import HeckeAlgebra
from blhecke.memo import GROUP_DATA_CAP, Memo
from blhecke.rootdata import coroot_orbit_witness, validate_system
from blhecke.scalars import inv, is_zero
from blhecke.stabilizer import (
    IRREDUCIBLE,
    REDUCIBLE,
    TauStabilizer,
    analyze,
    kato_check,
    s_tau_matrix,
    semidirect_check,
    sigma_tau_minimal_direct,
)


def test_phi_tau_trivial_everything(alg_a2, trivial2):
    stab = TauStabilizer(alg_a2, trivial2)
    assert len(stab.phi_tau(4)) == 6  # all six real coroots


def test_phi_tau_empty_when_minus_one(alg_a1_adjoint):
    stab = TauStabilizer(alg_a1_adjoint, Character.make([-1]))
    assert stab.phi_tau(6) == ()


def test_phi_tau_unequal_sees_minus_one(alg_a1_unequal):
    # with sigma != sigma' the denominator keeps both factors
    stab = TauStabilizer(alg_a1_unequal, Character.make([-1]))
    assert [c.coords for c in stab.phi_tau(6) if c.positive] == [(1,)]


def test_sigma_tau_examples(alg_a2, alg_affine_a1, trivial2):
    stab = TauStabilizer(alg_a2, trivial2)
    assert {c.coords for c in stab.sigma_tau(4)} == {(1, 0), (0, 1)}
    stab = TauStabilizer(alg_affine_a1, Character.trivial(3))
    assert {c.coords for c in stab.sigma_tau(5)} == {(1, 0), (0, 1)}


def test_sigma_tau_direct_minimality_agrees(alg_a2, alg_b2, alg_affine_a1):
    cases = [
        (alg_a2, Character.trivial(2)),
        (alg_a2, Character.make([Fraction(5), Fraction(1, 5)])),
        (alg_b2, Character.make([-1, 1])),
        (alg_affine_a1, Character.trivial(3)),
    ]
    for alg, tau in cases:
        stab = TauStabilizer(alg, tau)
        assert set(stab.sigma_tau(6)) == set(sigma_tau_minimal_direct(stab, 6))


def test_sigma_tau_nonsimple_generator(alg_a2):
    tau = Character.make([Fraction(5), Fraction(1, 5)])
    stab = TauStabilizer(alg_a2, tau)
    assert [c.coords for c in stab.sigma_tau(5)] == [(1, 1)]
    refs = stab.s_tau(5)
    assert refs[0].word == (0, 1, 0)


def test_s_tau_matrix_examples(alg_a2, alg_affine_a1, trivial2):
    m = s_tau_matrix(alg_a2, TauStabilizer(alg_a2, trivial2).sigma_tau(4))
    assert m.entries == ((2, -1), (-1, 2))
    stab = TauStabilizer(alg_affine_a1, Character.trivial(3))
    m = s_tau_matrix(alg_affine_a1, stab.sigma_tau(4))
    assert m.entries == ((2, -2), (-2, 2))


def test_s_tau_matrix_violation_signal(alg_a2):
    with pytest.raises(KacMoodyViolation):
        # a fake "generator set" with positive off-diagonal pairing
        s_tau_matrix(alg_a2, (Coroot((1, 0)), Coroot((1, 1))))


def test_w_tau_examples(alg_a2, alg_a1_minimal, trivial2):
    stab = TauStabilizer(alg_a2, trivial2)
    assert len(stab.w_tau_ball(3)) == 6  # whole group
    # tau(lambda) = -1 on the index-two lattice: s fixes tau
    stab = TauStabilizer(alg_a1_minimal, Character.make([-1]))
    assert [w.word for w in stab.w_tau_ball(1)] == [(), (0,)]
    # generic character: trivial stabilizer
    stab = TauStabilizer(alg_a2, Character.make([Fraction(5), Fraction(7)]))
    assert [w.word for w in stab.w_tau_ball(3)] == [()]


def test_w_paren_tau_examples(alg_a2, alg_a1_adjoint, trivial2):
    stab = TauStabilizer(alg_a2, trivial2)
    assert len(stab.w_paren_tau_ball(3)) == 6
    stab = TauStabilizer(alg_a1_adjoint, Character.make([-1]))
    assert [w.word for w in stab.w_paren_tau_ball(1)] == [()]
    # tau(alpha_1) = 1, second value generic
    stab = TauStabilizer(alg_a2, Character.make([1, Fraction(7)]))
    assert [w.word for w in stab.w_paren_tau_ball(2)] == [(), (0,)]


def test_r_tau_examples(alg_a2, alg_a1_adjoint, trivial2):
    stab = TauStabilizer(alg_a2, trivial2)
    assert [w.word for w in stab.r_tau_ball(3)] == [()]
    stab = TauStabilizer(alg_a1_adjoint, Character.make([-1]))
    assert [w.word for w in stab.r_tau_ball(2)] == [(), (0,)]
    stab = TauStabilizer(alg_a2, Character.make([Fraction(5), Fraction(7)]))
    assert [w.word for w in stab.r_tau_ball(3)] == [()]


def test_r_tau_disjoint_from_subgroup(alg_b2):
    stab = TauStabilizer(alg_b2, Character.make([-1, 1]))
    r_ball = set(stab.r_tau_ball(4))
    p_ball = set(stab.w_paren_tau_ball(4))
    assert r_ball & p_ball == {alg_b2.group.identity}


def test_sigma_pp_values(alg_a2, alg_a1_unequal, trivial2):
    stab = TauStabilizer(alg_a2, trivial2)
    for c in stab.sigma_tau(4):
        assert stab.sigma_pp(c) == Fraction(3)
    # unequal parameters sigma=2, sigma'=3
    stab = TauStabilizer(alg_a1_unequal, Character.trivial(1))
    assert stab.sigma_pp(Coroot((1,))) == Fraction(25, 6)
    stab = TauStabilizer(alg_a1_unequal, Character.make([-1]))
    assert stab.sigma_pp(Coroot((1,))) == Fraction(-7, 6)


def test_rho_check(alg_a2, alg_a1_unequal, trivial2):
    stab = TauStabilizer(alg_a2, trivial2)
    assert stab.rho_check(4) == Fraction(1)
    # empty generator set: vacuous witness
    stab = TauStabilizer(alg_a2, Character.make([Fraction(5), Fraction(7)]))
    assert stab.rho_check(4) == Fraction(1)
    # single negative value still has a direction
    stab = TauStabilizer(alg_a1_unequal, Character.make([-1]))
    assert stab.rho_check(4) == Fraction(-1)


def test_rho_check_mixed_signs(a1x_a1):
    # one generator with sigma'' = 3 > 0, the other with sigma'' = -7/6 < 0
    params = ParameterSet((Fraction(2), Fraction(2)), (Fraction(2), Fraction(3)))
    alg = HeckeAlgebra(a1x_a1, params)
    tau = Character.make([1, -1])
    stab = TauStabilizer(alg, tau)
    assert {c.coords for c in stab.sigma_tau(4)} == {(1, 0), (0, 1)}
    assert {stab.sigma_pp(c) for c in stab.sigma_tau(4)} == {Fraction(3), Fraction(-7, 6)}
    assert stab.rho_check(4) is None


def test_u_c_examples(alg_a1_adjoint):
    assert not TauStabilizer(alg_a1_adjoint, Character.make([4])).u_c(5).ok
    assert TauStabilizer(alg_a1_adjoint, Character.make([4])).u_c(5).witness == Coroot((1,))
    assert TauStabilizer(alg_a1_adjoint, Character.trivial(1)).u_c(5).ok
    assert TauStabilizer(alg_a1_adjoint, Character.make([-1])).u_c(5).ok


def test_kato_verdicts(alg_a1_adjoint, alg_a2):
    v = kato_check(alg_a1_adjoint, Character.trivial(1), 5, 3)
    assert v.status == IRREDUCIBLE and v.absolute
    v = kato_check(alg_a1_adjoint, Character.make([4]), 5, 3)
    assert v.status == REDUCIBLE and v.witness_coroot == Coroot((1,))
    v = kato_check(alg_a1_adjoint, Character.make([-1]), 5, 3)
    assert v.status == REDUCIBLE and v.witness_element == WeylGroup(alg_a1_adjoint.system).simple(0)
    v = kato_check(alg_a2, Character.make([Fraction(5), Fraction(7)]), 6, 4)
    assert v.status == IRREDUCIBLE and v.absolute


def test_u_c_fails_at_inverse_value(alg_a1_adjoint):
    """At q = 4 and t = tau(alpha^vee) = 1/4, t^-1 = s s' is where the zeta
    numerator of -alpha^vee vanishes; x = v + T_s v spans a submodule
    (Z x = 4 x and T_s x = 4 x)."""
    tau = Character.make([Fraction(1, 4)])
    assert TauStabilizer(alg_a1_adjoint, tau).u_c(5).witness == Coroot((-1,))
    v = kato_check(alg_a1_adjoint, tau, 5, 3)
    assert (v.status, v.witness_coroot, v.witness_element) == (REDUCIBLE, Coroot((-1,)), None)


def test_kato_cli_fails_at_inverse_value(tmp_path, capsys):
    """The A2 config of the console-script check with tau(alpha_2^vee) = 1/4."""
    path = tmp_path / "a2.yaml"
    path.write_text(yaml.safe_dump({
        "datum": {"matrix": [[2, -1], [-1, 2]]},
        "parameters": {"q": "4"},
        "character": {"values": ["1", "1/4"]},
        "bounds": {"coroot_height": 6, "weyl_length": 4, "ball": 3},
    }))
    assert cli_main(["kato", "--config", str(path), "--expect", "reducible"]) == 0
    out = capsys.readouterr().out
    assert "verdict: Reducible" in out and "witness coroot: [0, -1]" in out


def test_kato_affine_not_absolute(alg_affine_a1):
    v = kato_check(alg_affine_a1, Character.trivial(3), 5, 4)
    assert v.status == IRREDUCIBLE and not v.absolute


def test_reducible_verdict_is_absolute(alg_affine_a1):
    """A witness proves reducibility whatever the bounds: a coroot whose zeta
    numerator vanishes (affine A1 at tau(alpha_1^vee) = q), and an element of
    W_tau outside W_(tau) (the Lemma 3.7 parity character)."""
    v = kato_check(alg_affine_a1, Character.make([4, 1, 1]), 5, 4)
    assert (v.status, v.witness_coroot, v.absolute) == (REDUCIBLE, Coroot((1, 0)), True)
    system, params, tau = lemma37_system()
    v = kato_check(HeckeAlgebra(system, params), tau, 6, 3)
    assert v.status == REDUCIBLE and v.witness_element is not None and v.absolute


def test_semidirect_examples(alg_a2, alg_a1_adjoint, alg_b2, trivial2):
    assert semidirect_check(TauStabilizer(alg_a2, trivial2), 3, 4)
    assert semidirect_check(TauStabilizer(alg_a1_adjoint, Character.make([-1])), 2, 4)
    assert semidirect_check(TauStabilizer(alg_a2, Character.make([Fraction(5), Fraction(7)])), 3, 4)
    assert semidirect_check(TauStabilizer(alg_b2, Character.make([-1, 1])), 4, 6)


def test_subgroup_membership_is_exact(alg_b2):
    stab = TauStabilizer(alg_b2, Character.make([-1, 1]))
    inside = set(stab.w_paren_tau_ball(4))
    for w in enumerate_ball(alg_b2.system, 4):
        assert stab.in_reflection_subgroup(w) == (w in inside)
    # the subgroup is the Klein four-group here
    assert len(inside) == 4


def test_ell_tau_matches_word_length(alg_b2, alg_affine_a1):
    for alg, tau in ((alg_b2, Character.make([-1, 1])), (alg_affine_a1, Character.trivial(3))):
        stab = TauStabilizer(alg, tau)
        for w in stab.subgroup_ball(3, 6):
            word = stab.tau_reduced_word(w)
            assert word is not None and len(word) == stab.ell_tau(w)


def test_bruhat_leq_tau(alg_affine_a1):
    stab = TauStabilizer(alg_affine_a1, Character.trivial(3))
    ball = stab.subgroup_ball(3, 5)
    from blhecke import bruhat_leq

    for v in ball:
        for w in ball:
            if stab.bruhat_leq_tau(v, w):
                assert bruhat_leq(v, w)


FINITE_DATA = {
    "A2": standard_system([[2, -1], [-1, 2]]),
    "B2": standard_system([[2, -1], [-2, 2]]),
    "G2": standard_system([[2, -1], [-3, 2]]),
}
# the module oracle's characters: at q = 4, t = 1 and -1 (Phi_tau), q and 1/q (U_C)
_ORACLE_VALUES = (1, -1, 4, Fraction(1, 4), 2, -2, 16, -4)


def _whole_group(group):
    """All of a finite W, closed under right multiplication by the simple reflections."""
    out = {group.identity}
    frontier = [group.identity]
    while frontier:
        frontier = [u for w in frontier for i in range(group.system.n) if (u := w * group.simple(i)) not in out]
        out.update(frontier)
    return out


def _product(group, word):
    out = group.identity
    for r in word:
        out = out * r
    return out


@pytest.mark.parametrize("name", sorted(FINITE_DATA))
def test_reflection_subgroup_walks_match_brute_force(name):
    """On a finite W at saturating bounds, the W_(tau) ball, its reduced words
    and its Bruhat order agree with references over the whole group: the
    elements of W in W_(tau) by ell_tau, the words over S_tau of length
    ell_tau that multiply to w, and the subword property along the greedy word."""
    system = FINITE_DATA[name]
    alg = HeckeAlgebra(system, ParameterSet.equal(Fraction(2), system.n))
    group = alg.group
    whole = _whole_group(group)
    characters = [Character.make(list(v)) for v in itertools.product(_ORACLE_VALUES, repeat=system.rank)]
    for tau in characters + list(_rule_characters(alg)):
        stab = TauStabilizer(alg, tau)
        inside = [w for w in whole if stab.in_reflection_subgroup(w)]
        top = max(stab.ell_tau(w) for w in inside)
        for bound in (top - 1, top):
            ball = stab.subgroup_ball(bound, 10)
            assert [stab.ell_tau(w) for w in ball] == sorted(stab.ell_tau(w) for w in ball), tau
            for k in range(bound + 1):
                level = [w for w in ball if stab.ell_tau(w) == k]
                assert level == sorted(level, key=lambda w: w.sort_key)
                assert set(level) == {w for w in inside if stab.ell_tau(w) == k}, (tau, k)
        gens = stab.s_tau(10)
        for w in inside:
            words = stab.tau_reduced_words(w, 10)
            brute = [word for word in itertools.product(gens, repeat=stab.ell_tau(w)) if _product(group, word) == w]
            assert all(len(word) == stab.ell_tau(w) and _product(group, word) == w for word in words)
            assert len(words) == len(brute) and set(words) == set(brute), (tau, w)
            greedy = stab.tau_reduced_word(w)
            below = {_product(group, sub) for keep in itertools.product((0, 1), repeat=len(greedy))
                     for sub in [[r for r, k in zip(greedy, keep) if k]]}
            for v in inside:
                assert stab.bruhat_leq_tau(v, w) == (v in below), (tau, v, w)


def test_analyze_snapshot(alg_b2):
    result = analyze(alg_b2, Character.make([-1, 1]), 6, 4)
    assert [c.coords for c in result.sigma_tau] == [(0, 1), (2, 1)]
    assert len(result.w_tau_ball) == 8
    assert len(result.w_paren_tau_ball) == 4
    assert len(result.r_tau_ball) == 2
    assert result.u_c.ok
    assert result.rho_witness == Fraction(1)


def test_lemma37_conjugates():
    from blhecke.coxeter import inversion_coroots

    system, params, tau = lemma37_system()
    assert system.matrix.determinant() != 0
    alg = HeckeAlgebra(system, params)
    stab = TauStabilizer(alg, tau)
    g = WeylGroup(system)
    r1, r2, r3, r4 = (g.simple(i) for i in range(4))
    core = r3 * r4 * r3
    for w in (g.identity, r1, r2, r1 * r2, r2 * r1):
        v = w * core * w.inverse()
        alpha_v = (w * r3).apply_coroot(system.simple_coroot(3))
        inside = [c for c in inversion_coroots(v) if stab.phi_contains(c)]
        assert inside == [alpha_v]
        assert stab.is_canonical_generator(alpha_v)
        # parity structure from the proof: tau is +1 exactly on the witness
        assert tau.of_vector(system.coroot_to_y(alpha_v.coords)) == 1


def test_one_enumeration_per_query(alg_affine_a2, monkeypatch):
    """The enumerations belong to the Weyl group: on a cold group the first
    query makes each once, and no later query with the same bounds does."""
    monkeypatch.setattr(alg_affine_a2.group, "memo", Memo(GROUP_DATA_CAP))
    calls = {"enumerate_coroots": 0, "enumerate_ball": 0}
    for name in calls:
        original = getattr(coxeter, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(coxeter, name, counted)
    analyze(alg_affine_a2, Character.trivial(4), 8, 3)
    assert calls == {"enumerate_coroots": 1, "enumerate_ball": 1}
    # irreducible (both enumerations used), a U_C failure, and -1 at one generator
    for values in ([1, 1, 1, 1], [4, 1, 1, 1], [-1, 1, 1, 1]):
        calls.update(dict.fromkeys(calls, 0))
        kato_check(alg_affine_a2, Character.make(values), 8, 3)
        analyze(alg_affine_a2, Character.make(values), 8, 3)
        assert calls == {"enumerate_coroots": 0, "enumerate_ball": 0}
    analyze(alg_affine_a2, Character.trivial(4), 9, 3)  # a new bound is a new enumeration
    assert calls == {"enumerate_coroots": 1, "enumerate_ball": 0}


KATO_SWEEP_DATA = {
    "affine A2": standard_system([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]),
    "affine C2": standard_system([[2, -1, 0], [-2, 2, -2], [0, -1, 2]]),
    "hyperbolic": standard_system([[2, -2, -1], [-2, 2, -1], [-1, -1, 2]]),
    "Lemma 3.7": lemma37_system()[0],
}


def _sweep_characters(rank: int, n: int):
    """The benchmark's five character kinds, the special value at each generator."""
    yield "trivial", Character.trivial(rank)
    yield "all-minus-one", Character.make([-1] * rank)
    for i in range(n):
        for kind, value in (("one-minus-one", -1), ("one-sqrt-minus-one", quadext(0, 1, -1)), ("one-q", 4)):
            values = [1] * rank
            values[i] = value
            yield f"{kind}@{i}", Character.make(values)


@pytest.mark.parametrize("name", sorted(KATO_SWEEP_DATA))
def test_kato_agrees_with_analyze(name):
    system = KATO_SWEEP_DATA[name]
    alg = HeckeAlgebra(system, ParameterSet.equal(Fraction(2), system.n))
    outcomes = set()
    for kind, tau in _sweep_characters(system.rank, system.n):
        verdict = kato_check(alg, tau, 8, 3)
        result = analyze(alg, tau, 8, 3)
        outside = set(result.w_tau_ball) - set(result.w_paren_tau_ball)
        assert (verdict.status == REDUCIBLE) == (not result.u_c.ok or bool(outside)), kind
        if verdict.witness_coroot is not None:
            assert verdict.witness_coroot == result.u_c.witness, kind
        if verdict.witness_element is not None:
            assert verdict.witness_element in outside, kind
        outcomes.add((verdict.status, verdict.witness_coroot is not None, verdict.witness_element is not None))
    # every datum reaches both ends; all but affine A2 also have an element witness here
    assert {(REDUCIBLE, True, False), (IRREDUCIBLE, False, False)} <= outcomes
    assert ((REDUCIBLE, False, True) in outcomes) == (name != "affine A2")


# with -4, 3 and 3/2, every algebra meets a vanishing zeta numerator; the
# Gaussian values also meet sigma = sqrt(2), in another quadratic extension
_RULE_VALUES = (1, -1, 2, -2, 4, Fraction(1, 4), 6, 9, Fraction(-2, 3), Fraction(-3, 2), -4, 3, Fraction(3, 2),
                quadext(0, 1, -1), quadext(0, -1, -1), quadext(0, 2, -1))


def _rule_characters(alg):
    """Each value at one basis vector of Y and at all of them."""
    rank = alg.system.rank
    for v in _RULE_VALUES:
        yield Character.make([v] * rank)
        for k in range(rank):
            yield Character.make([v if j == k else 1 for j in range(rank)])


def test_value_rules_match_reduced_zeta(zeta_algebra):
    alg = zeta_algebra
    enumerated = enumerate_coroots(alg.system, 8)
    coroots = [c for c in enumerated if c.positive]
    seen = set()
    for tau in _rule_characters(alg):
        stab = TauStabilizer(alg, tau)
        tau_inv = Character(tuple(inv(v) for v in tau.values))  # zeta_c at tau^-1 is zeta_{-c} at tau
        vanishing = set()
        for c in coroots:
            z = alg.zeta(c)
            phi = any(is_zero(tau.of_factor(f)) for f in z.den)
            num_vanishes = tau.of_poly(z.num) == 0
            neg_num_vanishes = tau_inv.of_poly(z.num) == 0
            assert stab.phi_contains(c) == phi and stab.phi_contains(-c) == phi, (tau, c)
            assert stab.zeta_num_vanishes(c) == num_vanishes, (tau, c)
            assert stab.zeta_num_vanishes(-c) == neg_num_vanishes, (tau, c)
            vanishing.update(w for w, hit in ((c, num_vanishes), (-c, neg_num_vanishes)) if hit)
            seen.add((phi, num_vanishes))
        assert stab.u_c(8).witness == next((c for c in enumerated if c in vanishing), None)
    assert {(True, False), (False, True), (False, False)} <= seen


def test_opposite_parameters(alg_a1_opposite):
    """sigma' = -sigma: t = 1 is not in Phi_tau and t = -4 = sigma sigma' is
    outside U_C, because zeta = (1 + 4 Z^-a)/(1 + Z^-a)."""
    s1 = alg_a1_opposite.group.simple(0)
    cases = {1: (REDUCIBLE, None, s1), -1: (IRREDUCIBLE, None, None), -4: (REDUCIBLE, Coroot((1,)), None),
             4: (IRREDUCIBLE, None, None)}
    for value, (status, coroot, element) in cases.items():
        tau = Character.make([value])
        verdict = kato_check(alg_a1_opposite, tau, 6, 3)
        assert (verdict.status, verdict.witness_coroot, verdict.witness_element) == (status, coroot, element), value
    assert analyze(alg_a1_opposite, Character.make([1]), 6, 3).phi_tau == ()
    result = analyze(alg_a1_opposite, Character.make([-1]), 6, 3)
    assert len(result.phi_tau) == 2
    assert [v for _, v in result.sigma_pp] == [3]


# parameters that differ between the generator orbits, where the data allow it
_ORBIT_SIGMAS = {"affine C2": (2, 3, 5), "Lemma 3.7": (2, 3, 5, 7)}


@pytest.mark.parametrize("name", sorted(KATO_SWEEP_DATA) + ["A1 unequal"])
def test_w_paren_tau_lies_in_w_tau(name, alg_a1_unequal):
    """W_(tau) in the ball, scanned inside W_tau, is the whole ball's scan:
    with validated parameters every canonical generator's reflection fixes
    tau.  A1 with alpha(Y) = 2Z and s != s' puts t = -1 into Phi_tau."""
    if name == "A1 unequal":
        alg = alg_a1_unequal
    else:
        system = KATO_SWEEP_DATA[name]
        sigma = tuple(Fraction(s) for s in _ORBIT_SIGMAS.get(name, (2,) * system.n))
        alg = HeckeAlgebra(system, ParameterSet(sigma, sigma))
    validate_system(alg.system, alg.params)
    characters = [tau for _, tau in _sweep_characters(alg.system.rank, alg.system.n)] + list(_rule_characters(alg))
    for tau in characters:
        stab = TauStabilizer(alg, tau)
        whole = tuple(w for w in alg.group.ball(3) if stab.in_reflection_subgroup(w))
        assert stab.w_paren_tau_ball(3) == whole, tau


def _greedy_word_loop(stab, w):
    """The greedy descent as a loop: the reference for the memoized word."""
    word = []
    cur = w
    while not cur.is_identity:
        cands = [beta for beta in inversion_coroots(cur.inverse()) if stab.is_canonical_generator(beta)]
        if not cands:
            return None
        r = stab.algebra.group.reflection(min(cands, key=lambda c: c.sort_key))
        word.append(r)
        cur = r * cur
    return word


@pytest.mark.parametrize("name", sorted(KATO_SWEEP_DATA))
def test_stabilizer_data_match_fresh_constructions(name):
    system = KATO_SWEEP_DATA[name]
    group = WeylGroup(system)
    sigma = tuple(Fraction(s) for s in _ORBIT_SIGMAS.get(name, (2,) * system.n))
    alg = HeckeAlgebra(system, ParameterSet(sigma, sigma))
    validate_system(system, alg.params)
    for c in enumerate_coroots(system, 8):
        if c.positive:
            word, i = coroot_orbit_witness(system, c)
            w = group.from_word(word)
            assert group.reflection(c) == w * group.simple(i) * w.inverse(), c
            s = sigma[i]
            assert alg.sigma_r(c) == alg.sigma_r(-c) == (s, s), c
            assert alg.sigma_values(c) == (s, s, s * s, -s * inv(s)), c
    ball = enumerate_ball(system, 3)
    characters = [tau for _, tau in _sweep_characters(system.rank, system.n)] + list(_rule_characters(alg))
    for tau in characters:
        stab = TauStabilizer(alg, tau)
        for w in ball:
            assert stab._twisted(w) == tau.twist(w), (tau, w)
            assert stab.fixes_tau(w) == (tau.twist(w) == tau), (tau, w)
            assert stab.tau_reduced_word(w) == _greedy_word_loop(stab, w), (tau, w)
