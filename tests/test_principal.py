import random
from fractions import Fraction

import pytest

from conftest import ZETA_ALGEBRAS

from blhecke import Character, Coroot, LowerSet, ModuleVector, PrincipalSeries, quadext
from blhecke.coxeter import WeylGroup, enumerate_ball
from blhecke.errors import (
    DomainNotLowerSet,
    NotInBLH,
    NotInItgSpan,
    NotInRTau,
    NotInUC,
    PoleAtCharacter,
)
from blhecke.hecke import HeckeElt
from blhecke.laurent import BinomialFactor, LaurentPoly, RationalElt
from blhecke.principal import NEG_INF, Intertwiner
from blhecke.stabilizer import TauStabilizer


def series(alg, tau):
    return PrincipalSeries(alg, tau)


def test_ev_examples(alg_a1_adjoint):
    tau = Character.make([-1])
    ser = series(alg_a1_adjoint, tau)
    s = alg_a1_adjoint.group.simple(0)
    assert ser.ev(alg_a1_adjoint.T(s)) == ser.vector({s: Fraction(1)})
    got = ser.ev(alg_a1_adjoint.f_s(0))
    e = alg_a1_adjoint.group.identity
    assert got == ser.vector({s: Fraction(1), e: Fraction(-3, 2)})
    with pytest.raises(PoleAtCharacter):
        series(alg_a1_adjoint, Character.trivial(1)).ev(alg_a1_adjoint.f_s(0))


def test_act_examples(alg_a1_adjoint):
    tau = Character.make([-1])
    ser = series(alg_a1_adjoint, tau)
    s = alg_a1_adjoint.group.simple(0)
    v = ser.v()
    assert ser.act(alg_a1_adjoint.monomial((1,)), v) == v.scale(Fraction(-1))
    x = ser.vector({s: Fraction(1)})
    assert ser.act(alg_a1_adjoint.monomial((1,)), x) == x.scale(Fraction(-1))
    got = ser.act(alg_a1_adjoint.T(s), x)
    assert got == x.scale(Fraction(3)) + v.scale(Fraction(4))


def test_act_requires_polynomial(alg_a1_adjoint):
    tau = Character.make([-1])
    ser = series(alg_a1_adjoint, tau)
    with pytest.raises(NotInBLH):
        ser.act(alg_a1_adjoint.theta(alg_a1_adjoint.q_s(0)), ser.v())


def test_weight_space_examples(alg_a1_adjoint, alg_affine_a1):
    tau = Character.make([-1])
    ser = series(alg_a1_adjoint, tau)
    dom = LowerSet.closure([alg_a1_adjoint.group.simple(0)])
    basis = ser.weight_space(tau, dom)
    assert len(basis) == 2
    # trivial affine character: dimension one at every ball size
    tau0 = Character.trivial(3)
    ser0 = series(alg_affine_a1, tau0)
    for ball in (3, 4):
        dom = LowerSet.closure(enumerate_ball(alg_affine_a1.system, ball))
        basis = ser0.weight_space(tau0, dom)
        assert len(basis) == 1
    # singleton domain
    dom = LowerSet.closure([alg_affine_a1.group.identity])
    assert ser0.weight_space(tau0, dom)[0] == ser0.v()


def test_weight_space_contains_v(alg_a2):
    for tau in (Character.trivial(2), Character.make([Fraction(5), Fraction(7)])):
        ser = series(alg_a2, tau)
        dom = LowerSet.closure(enumerate_ball(alg_a2.system, 3))
        basis = ser.weight_space(tau, dom)
        coords = {w: c for b in basis for w, c in b.coeffs.items()}
        assert any(not b.is_zero for b in basis)
        # v itself must be in the span: the nullspace of weight equations kills it
        probe = ser.act(alg_a2.monomial((1, 0)), ser.v()) - ser.v().scale(tau.of_vector((1, 0)))
        assert probe.is_zero


def test_lower_set_validation(alg_a2):
    g = alg_a2.group
    with pytest.raises(DomainNotLowerSet):
        LowerSet.validated([g.simple(0) * g.simple(1)])
    ok = LowerSet.validated([g.identity, g.simple(0)])
    assert len(ok) == 2


def test_generalized_weight_space(alg_a1_adjoint, alg_affine_a1):
    tau = Character.make([-1])
    ser = series(alg_a1_adjoint, tau)
    dom = LowerSet.closure([alg_a1_adjoint.group.simple(0)])
    assert len(ser.generalized_weight_space(tau, dom, 2)) == 2
    # trivial tau on affine ball 2: the whole 5-dimensional span
    tau0 = Character.trivial(3)
    ser0 = series(alg_affine_a1, tau0)
    dom = LowerSet.closure(enumerate_ball(alg_affine_a1.system, 2))
    assert len(ser0.generalized_weight_space(tau0, dom, 5)) == 5
    assert len(ser0.generalized_weight_space(tau0, LowerSet.closure([alg_affine_a1.group.identity]), 1)) == 1
    # monotone in the nilpotency cap
    dims = [len(ser0.generalized_weight_space(tau0, dom, n)) for n in (1, 2, 3, 5)]
    assert dims == sorted(dims)


def test_psi_examples(alg_a1_adjoint):
    tau = Character.make([-1])
    ser = series(alg_a1_adjoint, tau)
    g = alg_a1_adjoint.group
    psi_e = ser.psi(g.identity)
    x = ser.vector({g.simple(0): Fraction(2), g.identity: Fraction(1)})
    assert psi_e(x) == x
    psi_s = ser.psi(g.simple(0))
    got = psi_s(ser.v())
    assert got == ser.vector({g.simple(0): Fraction(1), g.identity: Fraction(-3, 2)})
    # the image of v is a genuine weight vector
    moved = ser.act(alg_a1_adjoint.monomial((1,)), got)
    assert moved == got.scale(tau.of_vector((1,)))


def test_psi_rejects_non_r_group(alg_a2, trivial2):
    ser = series(alg_a2, trivial2)
    with pytest.raises(NotInRTau):
        ser.psi(alg_a2.group.simple(0))  # s inverts a fixed coroot at trivial tau


def test_itg_basis_examples(alg_a2, trivial2):
    ser = series(alg_a2, trivial2)
    basis = ser.itg_basis(3, 5)
    assert len(basis) == 6
    ball = enumerate_ball(alg_a2.system, 3)
    assert basis == [ser.vector({w: Fraction(1)}) for w in ball]
    # trivial reflection subgroup: only v
    gen = series(alg_a2, Character.make([Fraction(5), Fraction(7)]))
    assert gen.itg_basis(3, 5) == [gen.v()]
    # tau(alpha) = 1 on A_1: two vectors, second is T_s v (K~_s = T_s)
    from blhecke.hecke import HeckeAlgebra

    ser1 = series(alg_a2, Character.make([1, Fraction(7)]))
    got = ser1.itg_basis(2, 5)
    assert got == [ser1.v(), ser1.vector({alg_a2.group.simple(0): Fraction(1)})]


def test_itg_requires_regular_character(alg_a1_adjoint):
    ser = series(alg_a1_adjoint, Character.make([4]))
    with pytest.raises(NotInUC):
        ser.itg_basis(1, 5)


def test_k_act_examples(alg_b2):
    tau = Character.make([-1, 1])
    ser = series(alg_b2, tau)
    stab = ser.stabilizer()
    v = ser.v()
    refs = stab.s_tau(6)
    for r in refs:
        kt = alg_b2.k_tilde(r)
        assert ser.k_act(kt, v) == ser.ev(kt)
    # scalar-like rational coefficient acts through its value
    theta = RationalElt(LaurentPoly.monomial((1, 1), Fraction(2)), [BinomialFactor.make(Fraction(3), (1, 0))])
    from blhecke.laurent import evaluate

    k = alg_b2.k_tilde(refs[0]) * alg_b2.theta(theta)
    assert ser.k_act(k, v) == ser.ev(alg_b2.k_tilde(refs[0])).scale(evaluate(tau, theta))


def test_k_act_extends_plain_action(alg_b2):
    tau = Character.make([-1, 1])
    ser = series(alg_b2, tau)
    stab = ser.stabilizer()
    rng = random.Random(4)
    ball = stab.subgroup_ball(2, 6)
    basis = {w: ser.ev(stab.k_tilde_of(w)) for w in ball}
    for trial in range(12):
        h = alg_b2.zero()
        for w in ball:
            rep = ser._poly_rep(stab, w)
            mono_shift = alg_b2.monomial(tuple(rng.randint(-1, 1) for _ in range(alg_b2.system.rank)))
            h = h + (rep * mono_shift).scale(Fraction(rng.randint(0, 2)))
        if h.is_zero:
            continue
        x = ModuleVector(tau, {})
        for w in ball:
            x = x + basis[w].scale(Fraction(rng.randint(0, 2)))
        from blhecke.hecke import membership

        assert membership(h).in_blh
        assert ser.k_act(h, x) == ser.act(h, x)


def test_ord_examples(alg_a2, alg_affine_a1, trivial2):
    ser = series(alg_a2, trivial2)
    g = alg_a2.group
    assert ser.ord_tau(ser.v()) == 1
    assert ser.ord_tau(ser.vector({g.simple(0): Fraction(1)})) == 2
    x = ser.vector({g.from_word([0, 1]): Fraction(1), g.from_word([1, 0]): Fraction(1)})
    assert ser.ord_tau(x) == 3
    assert ser.ord_tau(ModuleVector(trivial2, {})) == 0
    # affine, longer element
    tau0 = Character.trivial(3)
    ser0 = series(alg_affine_a1, tau0)
    ga = alg_affine_a1.group
    assert ser0.ord_tau(ser0.vector({ga.from_word([0, 1, 0, 1]): Fraction(1)})) == 5


def test_stats_examples(alg_a2, trivial2):
    ser = series(alg_a2, trivial2)
    g = alg_a2.group
    st = ser.stats(ser.v())
    assert st.supp == (g.identity,) and st.ell_tau == 0 and st.n_tau == 1
    assert st.leading_term == ser.v()
    x = ser.vector({g.simple(0): Fraction(1), g.from_word([0, 1]): Fraction(1)})
    st = ser.stats(x)
    assert st.ell_tau == 2 and st.n_tau == 1
    st0 = ser.stats(ModuleVector(trivial2, {}))
    assert st0.ell_tau == NEG_INF and st0.n_tau == 0 and st0.supp == ()


def test_stats_rejects_outside_span(alg_a2):
    tau = Character.make([Fraction(5), Fraction(7)])
    ser = series(alg_a2, tau)
    with pytest.raises(NotInItgSpan):
        ser.stats(ser.vector({alg_a2.group.simple(0): Fraction(1)}))


def test_weight_space_dimension_matches_r_ball(alg_a1_adjoint, alg_affine_a1):
    # Knapp-Stein shape: dim I(tau)(tau) == |R_tau ball| on these characters
    cases = [
        (alg_a1_adjoint, Character.trivial(1), 2, 1),
        (alg_a1_adjoint, Character.make([-1]), 2, 2),
    ]
    for alg, tau, ball, want in cases:
        ser = series(alg, tau)
        dom = LowerSet.closure(enumerate_ball(alg.system, ball))
        assert len(ser.weight_space(tau, dom)) == want
        stab = TauStabilizer(alg, tau)
        assert len(stab.r_tau_ball(ball)) == want


def test_gen_weight_decomposition_instance(alg_a1_adjoint):
    # gen weight space = sum over the R-group of psi-images of the subsystem part
    tau = Character.make([-1])
    ser = series(alg_a1_adjoint, tau)
    g = alg_a1_adjoint.group
    dom = LowerSet.closure(enumerate_ball(alg_a1_adjoint.system, 1))
    gen = ser.generalized_weight_space(tau, dom, 3)
    stab = ser.stabilizer()
    images = []
    for w_r in stab.r_tau_ball(1):
        psi = ser.psi(w_r)
        for b in ser.itg_basis(1, 5):
            images.append(psi(b))
    # independent spanning check by exact rank
    from blhecke.linalg import rank

    order = sorted(dom.sorted(), key=lambda w: w.sort_key)
    index = {w: i for i, w in enumerate(order)}
    vecs = []
    for img in images:
        vec = [Fraction(0)] * len(order)
        for w, c in img.coeffs.items():
            vec[index[w]] = c
        vecs.append(vec)
    assert rank(vecs) == len(gen) == 2


def test_triangularity_of_lattice_action(alg_a2, trivial2):
    ser = series(alg_a2, trivial2)
    dom = LowerSet.closure(enumerate_ball(alg_a2.system, 2))
    for w in dom.sorted():
        image = ser.act(alg_a2.monomial((1, -1)), ser.vector({w: Fraction(1)}))
        assert all(v in dom for v in image.support())


@pytest.mark.parametrize(
    "matrix",
    [[[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [[2, -1], [-3, 2]], [[2, -2, -1], [-2, 2, -1], [-1, -1, 2]]],
    ids=["affine-A2", "G2", "hyperbolic"],
)
def test_theta_matrices_upper_triangular(matrix):
    # theta.T_w v lies in the span of T_u v, u <= w, and u < w means l(u) < l(w)
    from blhecke import ParameterSet, standard_system
    from blhecke.hecke import HeckeAlgebra

    system = standard_system(matrix)
    alg = HeckeAlgebra(system, ParameterSet.equal(Fraction(4), system.n))
    tau = Character.make([Fraction(v) for v in (3, -5, 7, -3)[: system.rank]])
    ser = series(alg, tau)
    dom = LowerSet.closure(enumerate_ball(system, 3)).sorted()
    for exp in ser._basis_generators():
        m = ser._theta_matrix(exp, dom)
        assert all(m[i][j] == 0 for i in range(len(dom)) for j in range(i)), exp
        assert [m[i][i] for i in range(len(dom))] == [tau.twist(w).of_vector(exp) for w in dom]


def test_weight_space_is_first_generalized(alg_a1_adjoint, alg_affine_a1, alg_a2):
    cases = [
        (alg_a1_adjoint, Character.make([-1]), 2),
        (alg_affine_a1, Character.trivial(3), 3),
        (alg_a2, Character.trivial(2), 3),
        (alg_a2, Character.make([Fraction(5), Fraction(-7)]), 3),
    ]
    for alg, tau, ball in cases:
        ser = series(alg, tau)
        dom = LowerSet.closure(enumerate_ball(alg.system, ball))
        for eigen in (tau, tau.twist(alg.group.simple(0))):
            assert ser.weight_space(eigen, dom) == ser.generalized_weight_space(eigen, dom, 1)


# six data at sigma = 2 and sigma = sqrt(2), and A1 with alpha(Y) = 2Z at unequal parameters
ENGINE_ALGEBRAS = [
    f"{datum} {q}"
    for datum in ("A2", "G2", "affine A1", "affine A2", "affine C2", "hyperbolic")
    for q in ("q=4", "q=2")
] + ["A1 (2, 3)", "A1 (2, -2)"]


def _engine_characters(rank: int) -> dict[str, Character]:
    """Regular, singular (tau(alpha_1^vee) = 1: the simple coroots are the first
    basis vectors of Y) and Gaussian characters."""
    regular = [3, -5, 7, 11][:rank]
    return {
        "regular": Character.make(regular),
        "singular": Character.make([1] + regular[1:]),
        "gaussian": Character.make([quadext(0, 1, -1)] + regular[1:]),
        "gaussian-all": Character.make([quadext(0, k, -1) for k in range(1, rank + 1)]),
    }


def _theta_matrix_by_act(ser, exp, dom):
    """The construction the column engine replaced: lift T_w v to the algebra,
    multiply by Z^exp and evaluate, column by column."""
    h = ser.algebra.monomial(exp)
    index = {w: k for k, w in enumerate(dom)}
    m = [[Fraction(0)] * len(dom) for _ in dom]
    for j, w in enumerate(dom):
        for u, c in ser.act(h, ser.vector({w: Fraction(1)})).coeffs.items():
            m[index[u]][j] = c
    return m


def _typed(m):
    return [[(type(x), x) for x in row] for row in m]


@pytest.mark.parametrize("name", ENGINE_ALGEBRAS)
def test_theta_matrices_from_columns_match_act(name):
    alg = ZETA_ALGEBRAS[name]
    ball = 3 if alg.system.n == 3 else 4
    dom = LowerSet.closure(enumerate_ball(alg.system, ball)).sorted()
    for label, tau in _engine_characters(alg.system.rank).items():
        ser = series(alg, tau)
        for exp in ser._basis_generators():
            got = ser._theta_matrix(exp, dom)
            assert _typed(got) == _typed(_theta_matrix_by_act(ser, exp, dom)), (label, exp)


@pytest.mark.parametrize("name", ["G2 q=2", "affine A2 q=4", "A1 (2, -2)"])
def test_act_poly_and_intertwiner_match_act(name):
    alg = ZETA_ALGEBRAS[name]
    rank = alg.system.rank
    rng = random.Random(name)
    ball = enumerate_ball(alg.system, 2)
    for tau in _engine_characters(rank).values():
        ser = series(alg, tau)
        for _ in range(4):
            p = LaurentPoly(rank, {tuple(rng.randint(-2, 2) for _ in range(rank)): rng.randint(1, 3) for _ in range(3)})
            x = ser.vector({w: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for w in rng.sample(ball, 2)})
            assert ser.act_poly(p, x) == ser.act(alg.theta(p), x)
            psi = Intertwiner(ser, alg.group.identity, ser.act_poly(p, ser.v()))
            want = ModuleVector(tau, {})
            for w, c in x.coeffs.items():
                want = want + ser.act(alg.T(w), psi.target).scale(c)
            assert psi(x) == want


def test_weight_queries_never_multiply(monkeypatch):
    alg = ZETA_ALGEBRAS["affine A2 q=9"]
    dom = LowerSet.closure(enumerate_ball(alg.system, 3))

    def general_path(*args):
        raise AssertionError("the weight queries took the general path")

    monkeypatch.setattr(PrincipalSeries, "act", general_path)
    monkeypatch.setattr(HeckeElt, "__mul__", general_path)
    for values in ([3, -5, 7, 11], [1, -5, 7, 3]):
        ser = series(alg, Character.make(values))
        assert not ser._memos["column"]  # a cold engine, not a memo read
        basis = ser.weight_space(ser.tau, dom)
        gen = ser.generalized_weight_space(ser.tau, dom, 2)
        assert basis and len(gen) >= len(basis)
        assert all(ser.ord_tau(x) == 1 for x in basis)
        assert all(1 <= ser.ord_tau(x) <= 2 for x in gen)
