import random
from fractions import Fraction
from operator import mul

import pytest

from conftest import ZETA_ALGEBRAS, shifted_both_signs, unit_exponents

from blhecke import (
    Character,
    Coroot,
    ModuleVector,
    ParameterSet,
    PrincipalSeries,
    RootGeneratingSystem,
    quadext,
    standard_system,
)
from blhecke.coxeter import WeylGroup, bruhat_leq, enumerate_ball
from blhecke.errors import (
    DomainNotLowerSet,
    IncompatibleData,
    NotInBLH,
    NotInGenWeightSpace,
    NotInItgSpan,
    NotInRTau,
    NotInUC,
    PoleAtCharacter,
)
from blhecke.hecke import HeckeAlgebra, HeckeElt, _left_T_gen
from blhecke.laurent import BinomialFactor, LaurentPoly, RationalElt
from blhecke.linalg import mat_pow, mat_vec, rref, triangular_kernel
from blhecke.memo import GROUP_CAP, Memo
from blhecke.principal import NEG_INF, Intertwiner
from blhecke.scalars import as_scalar, is_zero
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
    basis = ser.weight_space(tau, 1)
    assert len(basis) == 2
    # trivial affine character: dimension one at every ball size
    tau0 = Character.trivial(3)
    ser0 = series(alg_affine_a1, tau0)
    for ball in (3, 4):
        basis = ser0.weight_space(tau0, ball)
        assert len(basis) == 1
    # the ball of length 0: the identity alone
    assert ser0.weight_space(tau0, 0)[0] == ser0.v()


def test_weight_space_contains_v(alg_a2):
    for tau in (Character.trivial(2), Character.make([Fraction(5), Fraction(7)])):
        ser = series(alg_a2, tau)
        basis = ser.weight_space(tau, 3)
        coords = {w: c for b in basis for w, c in b.coeffs.items()}
        assert any(not b.is_zero for b in basis)
        # v itself must be in the span: the nullspace of weight equations kills it
        probe = ser.act(alg_a2.monomial((1, 0)), ser.v()) - ser.v().scale(tau.of_vector((1, 0)))
        assert probe.is_zero


def test_lower_set_validation(alg_a2, trivial2):
    # a theta-matrix on a domain that is not a lower set leaves it and raises
    g = alg_a2.group
    ser = series(alg_a2, trivial2)
    with pytest.raises(DomainNotLowerSet):
        ser._theta_matrix((1, 0), (g.simple(0) * g.simple(1),))
    assert len(ser._theta_matrix((1, 0), (g.identity, g.simple(0)))) == 2


def test_generalized_weight_space(alg_a1_adjoint, alg_affine_a1):
    tau = Character.make([-1])
    ser = series(alg_a1_adjoint, tau)
    assert len(ser.generalized_weight_space(tau, 1, 2)) == 2
    # trivial tau on affine ball 2: the whole 5-dimensional span
    tau0 = Character.trivial(3)
    ser0 = series(alg_affine_a1, tau0)
    assert len(ser0.generalized_weight_space(tau0, 2, 5)) == 5
    assert len(ser0.generalized_weight_space(tau0, 0, 1)) == 1
    # monotone in the nilpotency cap
    dims = [len(ser0.generalized_weight_space(tau0, 2, n)) for n in (1, 2, 3, 5)]
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
    sigma = stab.sigma_tau(6)
    for c in sigma:
        kt = alg_b2.k_tilde(c)
        assert ser.k_act(kt, v) == ser.ev(kt)
    # scalar-like rational coefficient acts through its value
    theta = RationalElt(LaurentPoly.monomial((1, 1), Fraction(2)), [BinomialFactor.make(Fraction(3), (1, 0))])
    from blhecke.laurent import evaluate

    k = alg_b2.k_tilde(sigma[0]) * alg_b2.theta(theta)
    assert ser.k_act(k, v) == ser.ev(alg_b2.k_tilde(sigma[0])).scale(evaluate(tau, theta))


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
        assert all(c.is_polynomial() is not None for c in h.coeffs.values())
        assert ser.k_act(h, x) == ser.act(h, x)


def test_ord_examples(alg_a2, alg_affine_a1, trivial2):
    ser = series(alg_a2, trivial2)
    g = alg_a2.group
    assert ser.ord_tau(ser.v()) == 1
    assert ser.ord_tau(ser.vector({g.simple(0): Fraction(1)})) == 2
    x = ser.vector({g.from_word([0, 1]): Fraction(1), g.from_word([1, 0]): Fraction(1)})
    assert ser.ord_tau(x) == 3
    assert ser.ord_tau(ser.vector({g.from_word([0, 1, 0]): Fraction(1)})) == 4
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
        assert len(ser.weight_space(tau, ball)) == want
        stab = TauStabilizer(alg, tau)
        assert len(stab.r_tau_ball(ball)) == want


def test_gen_weight_decomposition_instance(alg_a1_adjoint):
    # gen weight space = sum over the R-group of psi-images of the subsystem part
    tau = Character.make([-1])
    ser = series(alg_a1_adjoint, tau)
    g = alg_a1_adjoint.group
    gen = ser.generalized_weight_space(tau, 1, 3)
    stab = ser.stabilizer()
    images = []
    for w_r in stab.r_tau_ball(1):
        psi = ser.psi(w_r)
        for b in ser.itg_basis(1, 5):
            images.append(psi(b))
    # independent spanning check by exact rank
    from blhecke.linalg import rank

    order = g.ball(1)
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
    dom = alg_a2.group.ball(2)
    for w in dom:
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
    dom = alg.group.ball(3)
    for exp in unit_exponents(system.rank):
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
        for eigen in (tau, tau.twist(alg.group.simple(0))):
            assert ser.weight_space(eigen, ball) == ser.generalized_weight_space(eigen, ball, 1)


# six data at sigma = 2 and sigma = sqrt(2), A1 with alpha(Y) = 2Z at unequal
# parameters, and A1 with alpha^vee = 2 lambda, where a step is two factors
ENGINE_ALGEBRAS = [
    f"{datum} {q}"
    for datum in ("A2", "G2", "affine A1", "affine A2", "affine C2", "hyperbolic")
    for q in ("q=4", "q=2")
] + ["A1 (2, 3)", "A1 (2, -2)", "A1 minimal (2, 2)"]


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
    dom = alg.group.ball(3 if alg.system.n == 3 else 4)
    for label, tau in _engine_characters(alg.system.rank).items():
        ser = series(alg, tau)
        for exp in unit_exponents(alg.system.rank):
            got = ser._theta_matrix(exp, dom)
            assert _typed(got) == _typed(_theta_matrix_by_act(ser, exp, dom)), (label, exp)


def _column_by_recursion(ser, lam, w, memo):
    """The (lambda, w) recursion the generator walk replaced, memoized in memo:
    Z^lambda T_w v = T_s (Z^(s lambda) T_w' v) + sum_mu c_mu Z^mu T_w' v over
    the terms c_mu Z^mu of Omega_s(Z^lambda)."""
    if (lam, w) not in memo:
        if w.is_identity:
            memo[lam, w] = {w: as_scalar(ser.tau.of_vector(lam))}
        else:
            alg, i = ser.algebra, w.word[0]
            rest = w.left_simple(i)
            out = _left_T_gen(alg, i, _column_by_recursion(ser, alg.group.simple(i).apply(lam), rest, memo), mul)
            for mu, c in alg._omega(i, RationalElt.monomial(lam)).is_polynomial().terms.items():
                for u, a in _column_by_recursion(ser, mu, rest, memo).items():
                    out[u] = out.get(u, 0) + c * a
            memo[lam, w] = {u: s for u, c in out.items() if not is_zero(s := as_scalar(c))}
    return memo[lam, w]


# name -> (algebra, ball): balls past the reach of the `act` reference, and A2
# with simple coroots (1, 0), (1, 1), where a step has two nonzero coordinates
WALK_CASES = {
    **{name: (ZETA_ALGEBRAS[name], ball) for name, ball in (
        ("hyperbolic q=4", 5), ("affine A2 q=4", 5), ("G2 q=4", 6),
        ("A1 minimal (2, 2)", 1), ("A1 (2, 3)", 1), ("A1 (2, -2)", 1))},
    "A2 skew coroots": (HeckeAlgebra(
        RootGeneratingSystem.make([[2, -1], [-1, 2]], 2, [[2, -3], [-1, 3]], [[1, 0], [1, 1]]),
        ParameterSet.equal(Fraction(2), 2)), 4),
}


@pytest.mark.parametrize("name", WALK_CASES)
def test_theta_matrices_match_the_recursion(name):
    alg, ball = WALK_CASES[name]
    dom = alg.group.ball(ball)
    index = {w: k for k, w in enumerate(dom)}
    rank = alg.system.rank
    for label, tau in {"trivial": Character.trivial(rank), **_engine_characters(rank)}.items():
        ser, memo = series(alg, tau), {}
        for exp in unit_exponents(rank):
            want = [[Fraction(0)] * len(dom) for _ in dom]
            for j, w in enumerate(dom):
                for u, c in _column_by_recursion(ser, exp, w, memo).items():
                    want[index[u]][j] = c
            assert _typed(ser._theta_matrix(exp, dom)) == _typed(want), (label, exp)


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

    def general_path(*args):
        raise AssertionError("the weight queries took the general path")

    monkeypatch.setattr(PrincipalSeries, "act", general_path)
    monkeypatch.setattr(HeckeElt, "__mul__", general_path)
    for values in ([3, -5, 7, 11], [1, -5, 7, 3]):
        ser = series(alg, Character.make(values))
        assert not ser._memos["column"]  # a cold engine, not a memo read
        basis = ser.weight_space(ser.tau, 3)
        gen = ser.generalized_weight_space(ser.tau, 3, 2)
        assert basis and len(gen) >= len(basis)
        assert all(ser.ord_tau(x) == 1 for x in basis)
        assert all(1 <= ser.ord_tau(x) <= 2 for x in gen)


def _kernel_both_signs(ser, eigen, dom, n_cap):
    mats = [mat_pow(m, n_cap) for m in shifted_both_signs(ser, eigen, dom)]
    return [ModuleVector(ser.tau, dict(zip(dom, v))) for v in triangular_kernel(mats, len(dom))]


def _ord_both_signs(ser, x):
    """ord_tau by iterated spans of the 2*rank shifted generators; the
    failure as its class."""
    support = x.support()
    ball = ser.algebra.group.ball(max(w.length for w in support))
    dom = tuple(u for u in ball if any(bruhat_leq(u, w) for w in support))  # the closure of the support
    mats = shifted_both_signs(ser, ser.tau, dom)
    current = [[x.coeffs.get(w, Fraction(0)) for w in dom]]
    k = 0
    while current:
        k += 1
        if k > len(dom) + 1:
            return NotInGenWeightSpace
        span, pivots = rref([mat_vec(m, vec) for vec in current for m in mats])
        current = span[:len(pivots)]
    return k


def _ord_or_failure(ser, x):
    try:
        return ser.ord_tau(x)
    except NotInGenWeightSpace:
        return NotInGenWeightSpace


def _typed_basis(basis):
    return [[(w, type(c), c) for w, c in x.items()] for x in basis]


A3 = HeckeAlgebra(standard_system([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]), ParameterSet.equal(Fraction(2), 3))
RANK_GENERATOR_ALGEBRAS = {
    **{name: ZETA_ALGEBRAS[f"{name} q=4"] for name in ("A2", "B2", "G2", "affine A1", "affine A2", "hyperbolic")},
    "A3": A3,
}
RANK_GENERATOR_VALUES = (1, -1, 4, Fraction(1, 4), 3, quadext(0, 1, -1))


@pytest.mark.parametrize("name", sorted(RANK_GENERATOR_ALGEBRAS))
def test_rank_generators_match_both_signs(name):
    # the weight spaces, generalized weight spaces and ord of the rank
    # generators Z^(e_j) equal those of all 2*rank Z^(+-e_j), basis by basis
    alg = RANK_GENERATOR_ALGEBRAS[name]
    rank = alg.system.rank
    rng = random.Random(name)
    ball = 3 if rank == 2 else 2
    dom = alg.group.ball(ball)
    taus = [Character.trivial(rank), Character.make([-1] * rank)]
    taus += [Character.make([rng.choice(RANK_GENERATOR_VALUES) for _ in range(rank)]) for _ in range(4)]
    nontrivial = ords = 0
    for tau in taus:
        ser = series(alg, tau)
        for w in dom[:3]:
            eigen = tau.twist(w)
            got = ser.weight_space(eigen, ball)
            assert _typed_basis(got) == _typed_basis(_kernel_both_signs(ser, eigen, dom, 1)), (tau, w)
            for n_cap in (2, 3):
                gen = ser.generalized_weight_space(eigen, ball, n_cap)
                want = _kernel_both_signs(ser, eigen, dom, n_cap)
                assert _typed_basis(gen) == _typed_basis(want), (tau, w, n_cap)
            nontrivial += len(gen) > 1
        vectors = ser.generalized_weight_space(tau, ball, 3)[:3]
        vectors += [ser.vector({w: Fraction(1)}) for w in dom[:4]]
        vectors += [x + y for i, x in enumerate(vectors) for y in vectors[i + 1:]]
        for x in vectors:
            if not x.is_zero:
                assert _ord_or_failure(ser, x) == _ord_both_signs(ser, x), (tau, x)
                ords += 1
    assert nontrivial and ords


def test_weight_queries_ask_only_positive_unit_exponents(monkeypatch):
    alg = ZETA_ALGEBRAS["affine A2 q=4"]
    asked = []
    theta_matrix = PrincipalSeries._theta_matrix

    def recording(self, exp, dom):
        asked.append(exp)
        return theta_matrix(self, exp, dom)

    monkeypatch.setattr(PrincipalSeries, "_theta_matrix", recording)
    rank = alg.system.rank
    ser = series(alg, Character.make([1, -1, 4, 3][:rank]))
    ser.weight_space(ser.tau, 2)
    ser.generalized_weight_space(ser.tau, 2, 2)
    ser.ord_tau(ser.vector({alg.group.simple(0): Fraction(1)}))
    assert set(asked) == {exp for exp in unit_exponents(rank) if sum(exp) == 1}


def test_vectors_of_another_character_raise(alg_a2):
    """A vector of I_(7, 11) has no meaning in I_(3, 5): adding it, or handing it
    to an action, an intertwiner, `ord_tau` or the K~ coordinates (through
    `stats` and `k_act`) raises instead of reading its coefficients with the
    series' tau."""
    ser = series(alg_a2, Character.make([3, 5]))
    other = series(alg_a2, Character.make([7, 11])).v()
    z = LaurentPoly.monomial((1, 0))
    calls = [
        lambda: ser.v() + other,
        lambda: ser.v() - other,
        lambda: ser.act(alg_a2.monomial((1, 0)), other),
        lambda: ser.act_poly(z, other),
        lambda: ser.psi(alg_a2.group.identity)(other),
        lambda: ser.ord_tau(other),
        lambda: ser.stats(other),
        lambda: ser.k_act(alg_a2.monomial((1, 0)), other),
    ]
    for call in calls:
        with pytest.raises(IncompatibleData, match="7, 11"):
            call()
    assert ser.act_poly(z, ser.v()) == ser.v().scale(3)


def test_vectors_on_another_group_raise(alg_a2, alg_b2):
    """T_w v for w = s1 s2 s1 s2 of B2's group has no meaning in a series over
    A2: building it, or handing a vector holding it to an action, an
    intertwiner, `ord_tau` or the K~ coordinates raises instead of mixing the
    two groups' elements."""
    ser = series(alg_a2, Character.make([3, 5]))
    w = alg_b2.group.from_word([0, 1, 0, 1])
    with pytest.raises(IncompatibleData, match="another Weyl group"):
        ser.vector({w: 1})
    other = ModuleVector(ser.tau, {w: 1})
    z = LaurentPoly.monomial((1, 0))
    calls = [
        lambda: ser.act(alg_a2.monomial((1, 0)), other),
        lambda: ser.act_poly(z, other),
        lambda: ser.psi(alg_a2.group.identity)(other),
        lambda: ser.ord_tau(other),
        lambda: ser.stats(other),
        lambda: ser.k_act(alg_a2.monomial((1, 0)), other),
    ]
    for call in calls:
        with pytest.raises(IncompatibleData, match=r"s1\*s2\*s1\*s2"):
            call()
    u = alg_a2.group.from_word([0, 1])
    assert ser.vector({u: 1}).coeffs == {u: 1}


def test_long_lone_reflection_reads_its_stabilizer_and_columns(monkeypatch):
    """On affine A1 at q = 4 the reflection r at the coroot (200, 201) has
    length 401, deeper than the default recursion limit.  In a fresh group
    registry and fresh character entries none of its left factors holds a
    value when r is asked: r . tau, the greedy tau-word and the generator
    column each walk down the left factors without recursion."""
    monkeypatch.setattr(WeylGroup, "_instances", Memo(GROUP_CAP))
    alg = HeckeAlgebra(standard_system([[2, -2], [-2, 2]]), ParameterSet.equal(Fraction(2), 2))
    r = alg.group.reflection(Coroot((200, 201)))
    assert r.length == 401
    minus, trivial = Character.make([-1] * alg.system.rank), Character.trivial(alg.system.rank)
    for tau in (minus, trivial):
        alg._cache["series"].pop(tau, None)
        stab = TauStabilizer(alg, tau)
        assert stab._twisted(r) == tau.twist(r)
        assert stab.fixes_tau(r)
    stab = TauStabilizer(alg, trivial)
    assert len(stab._greedy_word(r)) == stab.ell_tau(r) == 401
    assert TauStabilizer(alg, minus)._greedy_word(r) is None  # r is in W_tau, not in W_(tau)
    ser = PrincipalSeries(alg, minus)
    e1 = tuple(int(i == 0) for i in range(alg.system.rank))
    x = ser.vector({r: 1})
    assert ser.act_poly(LaurentPoly.monomial(e1), x) == ser.vector({r: minus.twist(r).of_vector(e1)}) == ser.vector({r: -1})
