"""Acceptance suite: one test per criterion, exact tolerances, printed verdicts.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from blhecke import (
    Character,
    Coroot,
    LowerSet,
    ModuleVector,
    ParameterSet,
    PrincipalSeries,
    RootGeneratingSystem,
    bruhat_leq,
    enumerate_ball,
    inversion_coroots,
    max_supp,
    standard_system,
)
from blhecke.coxeter import WeylGroup, all_reduced_words
from blhecke.hecke import HeckeAlgebra, membership
from blhecke.identities import braid_order, random_element
from blhecke.laurent import RationalElt, evaluate
from blhecke.stabilizer import (
    IRREDUCIBLE,
    REDUCIBLE,
    TauStabilizer,
    kato_check,
    s_tau_matrix,
)


def _report(num, label, passed, detail=""):
    line = f"ACCEPTANCE {num:02d} [{label}]: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def systems():
    a2 = standard_system([[2, -1], [-1, 2]])
    affine_a1 = standard_system([[2, -2], [-2, 2]])
    affine_a2 = standard_system([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    b2 = standard_system([[2, -1], [-2, 2]])
    a1_adj = RootGeneratingSystem.make([[2]], 1, [[2]], [[1]])
    return {
        "a2": HeckeAlgebra(a2, ParameterSet.equal(Fraction(2), 2)),
        "affine_a1": HeckeAlgebra(affine_a1, ParameterSet.equal(Fraction(2), 2)),
        "affine_a2": HeckeAlgebra(affine_a2, ParameterSet.equal(Fraction(2), 3)),
        "b2": HeckeAlgebra(b2, ParameterSet.equal(Fraction(2), 2)),
        "b2_unequal": HeckeAlgebra(b2, ParameterSet((Fraction(2), Fraction(2)), (Fraction(3), Fraction(2)))),
        "a1_adj": HeckeAlgebra(a1_adj, ParameterSet.equal(Fraction(2), 1)),
        "a1_unequal": HeckeAlgebra(a1_adj, ParameterSet((Fraction(2),), (Fraction(3),))),
    }


def test_criterion_01_associativity(systems):
    start = time.perf_counter()
    rng = random.Random(101)
    plan = [("a2", 200), ("affine_a1", 150), ("affine_a2", 150)]
    total = 0
    for key, count in plan:
        alg = systems[key]
        for _ in range(count):
            a, b, c = (random_element(alg, rng, max_word=3, max_exp=2) for _ in range(3))
            if (a * b) * c != a * (b * c):
                _report(1, "algebra axioms", False, f"triple {total} in {key}")
            total += 1
    elapsed = time.perf_counter() - start
    _report(1, "algebra axioms", total == 500 and elapsed <= 60, f"500 triples, {elapsed:.1f}s")


def test_criterion_02_defining_relations(systems):
    rng = random.Random(202)
    for key in ("a2", "affine_a1", "affine_a2", "b2"):
        alg = systems[key]
        for i in range(alg.system.n):
            t = alg.T(alg.group.simple(i))
            s2 = alg.params.sigma[i] ** 2
            if t * t != t.scale(s2 - 1) + alg.one().scale(s2):
                _report(2, "defining relations", False, f"quadratic in {key}")
        for i in range(alg.system.n):
            for j in range(i + 1, alg.system.n):
                m = braid_order(alg, i, j)
                if m is None:
                    continue
                ti, tj = alg.T(alg.group.simple(i)), alg.T(alg.group.simple(j))
                lhs, rhs = alg.one(), alg.one()
                for k in range(m):
                    lhs = lhs * (ti if k % 2 == 0 else tj)
                    rhs = rhs * (tj if k % 2 == 0 else ti)
                if lhs != rhs:
                    _report(2, "defining relations", False, f"braid ({i},{j}) in {key}")
    checked = 0
    for _ in range(200):
        key = rng.choice(("a2", "affine_a1", "affine_a2"))
        alg = systems[key]
        i = rng.randrange(alg.system.n)
        exp = tuple(rng.randint(-2, 2) for _ in range(alg.system.rank))
        theta = RationalElt.monomial(exp, Fraction(rng.randint(1, 4)))
        s = alg.group.simple(i)
        lhs = alg.theta(theta) * alg.T(s)
        rhs = alg.T(s) * alg.theta(theta.twist(s)) + alg.theta(alg.omega(i, theta))
        if lhs != rhs:
            _report(2, "defining relations", False, f"commutation sample {checked}")
        checked += 1
    _report(2, "defining relations", checked == 200, "quadratic + braid + 200 commutations")


def test_criterion_03_intertwiner_suite(systems):
    rng = random.Random(303)
    words_checked = 0
    for key in ("a2", "affine_a1", "affine_a2"):
        alg = systems[key]
        for w in enumerate_ball(alg.system, 4):
            products = []
            for word in all_reduced_words(w):
                h = alg.one()
                for i in word:
                    h = h * alg.f_s(i)
                products.append(h)
                words_checked += 1
            if any(p != products[0] for p in products[1:]):
                _report(3, "intertwiner suite", False, f"word independence at {w!r} in {key}")
            fw = products[0]
            if max_supp(fw) != (w,):
                _report(3, "intertwiner suite", False, f"leading support at {w!r} in {key}")
            lower = fw - alg.T(w)
            if any(v == w or not bruhat_leq(v, w) for v in lower.support()):
                _report(3, "intertwiner suite", False, f"triangularity at {w!r} in {key}")
            exp = tuple(rng.randint(-2, 2) for _ in range(alg.system.rank))
            theta = RationalElt.monomial(exp)
            if alg.theta(theta) * fw != fw * alg.theta(theta.twist(w.inverse())):
                _report(3, "intertwiner suite", False, f"commutation at {w!r} in {key}")
    _report(3, "intertwiner suite", True, f"{words_checked} reduced words over three systems")


def test_criterion_04_modified_intertwiners(systems):
    cases = [
        ("a2", Character.trivial(2)),
        ("affine_a1", Character.trivial(3)),
        ("a2", Character.make([1, Fraction(7)])),
    ]
    for key, tau in cases:
        alg = systems[key]
        stab = TauStabilizer(alg, tau)
        sigma = stab.sigma_tau(8)
        for c in sigma:
            kt = alg.k_tilde(c)
            s, _ = alg.sigma_r(c)
            s2 = s * s
            if kt * kt != kt.scale(s2 - 1) + alg.one().scale(s2):
                _report(4, "modified intertwiners", False, f"quadratic at {c.coords} ({key})")
        refs = stab.s_tau(8)
        for a in range(len(refs)):
            for b in range(a + 1, len(refs)):
                u, m, power = refs[a] * refs[b], None, refs[a] * refs[b]
                for k in range(1, 9):
                    if power.is_identity:
                        m = k
                        break
                    power = power * u
                if m is None:
                    continue
                ka, kb = alg.k_tilde(refs[a]), alg.k_tilde(refs[b])
                lhs, rhs = alg.one(), alg.one()
                for k in range(m):
                    lhs = lhs * (ka if k % 2 == 0 else kb)
                    rhs = rhs * (kb if k % 2 == 0 else ka)
                if lhs != rhs:
                    _report(4, "modified intertwiners", False, f"braid ({a},{b}) ({key})")
        for w in stab.subgroup_ball(4, 8):
            prods = [alg.k_tilde_word(word) for word in stab.tau_reduced_words(w, 8)]
            if any(p != prods[0] for p in prods[1:]):
                _report(4, "modified intertwiners", False, f"word independence at {w!r} ({key})")
            if not w.is_identity and max_supp(prods[0]) != (w,):
                _report(4, "modified intertwiners", False, f"max supp at {w!r} ({key})")
        s_tau_matrix(alg, sigma)  # raises KacMoodyViolation on failure
    _report(4, "modified intertwiners", True, "quadratic, braid, word independence, pairing matrix")


def test_criterion_05_order_depth(systems):
    rng = random.Random(505)
    # trivial tau on A_2: finite subsystem group with longest element
    alg = systems["a2"]
    tau = Character.trivial(2)
    ser = PrincipalSeries(alg, tau)
    stab = ser.stabilizer()
    ball = stab.subgroup_ball(3, 6)
    basis = {w: ser.ev(stab.k_tilde_of(w)) for w in ball}
    for w in ball:
        if ser.ord_tau(basis[w]) != stab.ell_tau(w) + 1:
            _report(5, "order depth", False, f"basis at {w!r} (A2)")
    w0 = max(ball, key=lambda w: w.length)
    for k in range(50):
        picks = rng.sample(list(ball), rng.randint(1, 3))
        x = ModuleVector(tau, {})
        for w in picks:
            x = x + basis[w].scale(Fraction(rng.randint(1, 5)))
        st = ser.stats(x)
        if ser.ord_tau(x) != st.ell_tau + 1:
            _report(5, "order depth", False, f"A2 combo {k}")
        if k < 10:
            # the finite-group shortcut through the longest element
            top = max(st.supp, key=lambda w: stab.ell_tau(w))
            shift = stab.k_tilde_of(w0 * top.inverse())
            y = ser.k_act(shift, x)
            if ser.ord_tau(y) != stab.ell_tau(w0) + 1:
                _report(5, "order depth", False, f"A2 shortcut {k}")
    # trivial tau on affine A_1, truncated at ball 5
    alg = systems["affine_a1"]
    tau = Character.trivial(3)
    ser = PrincipalSeries(alg, tau)
    stab = ser.stabilizer()
    ball5 = [w for w in stab.subgroup_ball(5, 6)]
    basis = {w: ser.ev(stab.k_tilde_of(w)) for w in ball5}
    for w in ball5:
        if stab.ell_tau(w) <= 3 and ser.ord_tau(basis[w]) != stab.ell_tau(w) + 1:
            _report(5, "order depth", False, f"basis at {w!r} (affine)")
    for k in range(50):
        picks = rng.sample(list(ball5), rng.randint(1, 3))
        x = ModuleVector(tau, {})
        for w in picks:
            x = x + basis[w].scale(Fraction(rng.randint(1, 5)))
        st = ser.stats(x)
        if ser.ord_tau(x) != st.ell_tau + 1:
            _report(5, "order depth", False, f"affine combo {k}")
    _report(5, "order depth", True, "basis vectors + 100 random combinations")


def test_criterion_06_weight_dimensions(systems):
    alg = systems["a1_adj"]
    checks = []
    for tau, want in ((Character.trivial(1), 1), (Character.make([-1]), 2)):
        ser = PrincipalSeries(alg, tau)
        dom = LowerSet.closure(enumerate_ball(alg.system, 1))
        dim = len(ser.weight_space(tau, dom))
        r_ball = len(TauStabilizer(alg, tau).r_tau_ball(1))
        checks.append((dim, want, r_ball))
        if dim != want or r_ball != want:
            _report(6, "weight dimensions", False, f"A1 case want {want}, got dim={dim} |R|={r_ball}")
    alg = systems["affine_a1"]
    tau = Character.trivial(3)
    ser = PrincipalSeries(alg, tau)
    for ball in (3, 4, 5, 6):
        dom = LowerSet.closure(enumerate_ball(alg.system, ball))
        dim = len(ser.weight_space(tau, dom))
        if dim != 1:
            _report(6, "weight dimensions", False, f"affine ball {ball}: dim {dim}")
    _report(6, "weight dimensions", True, "A1 dims 1 and 2; affine dim 1 at balls 3..6")


def test_criterion_07_kato_verdicts(systems):
    alg = systems["a1_adj"]
    v = kato_check(alg, Character.make([4]), 6, 3)
    if v.status != REDUCIBLE or v.witness_coroot != Coroot((1,)):
        _report(7, "kato verdicts", False, "tau(alpha)=q case")
    v = kato_check(alg, Character.trivial(1), 6, 3)
    if v.status != IRREDUCIBLE:
        _report(7, "kato verdicts", False, "trivial tau case")
    v = kato_check(alg, Character.make([-1]), 6, 3)
    s = WeylGroup(alg.system).simple(0)
    if v.status != REDUCIBLE or v.witness_element != s:
        _report(7, "kato verdicts", False, "tau(alpha)=-1 case")
    stab = TauStabilizer(alg, Character.make([-1]))
    if not (stab.fixes_tau(s) and not stab.in_reflection_subgroup(s)):
        _report(7, "kato verdicts", False, "witness not in W_tau minus W_(tau)")
    v = kato_check(systems["a2"], Character.make([Fraction(5), Fraction(7)]), 6, 4)
    if v.status != IRREDUCIBLE or not v.absolute:
        _report(7, "kato verdicts", False, "generic A2 case")
    _report(7, "kato verdicts", True, "four verdicts with witnesses")


def test_criterion_08_golden_conjugates():
    from blhecke.cli import lemma37_system

    start = time.time()
    system, params, tau = lemma37_system()
    det = system.matrix.determinant()
    if det == 0:
        _report(8, "golden conjugates", False, "singular matrix")
    alg = HeckeAlgebra(system, params)
    stab = TauStabilizer(alg, tau)
    g = WeylGroup(system)
    r1, r2, r3, r4 = (g.simple(i) for i in range(4))
    core = r3 * r4 * r3
    passed = 0
    bound = 40
    for w in (g.identity, r1, r2, r1 * r2, r2 * r1):
        v = w * core * w.inverse()
        alpha_v = (w * r3).apply_coroot(system.simple_coroot(3))
        inside = [c for c in inversion_coroots(v) if stab.phi_contains(c)]
        # the subsystem-relevant coroots all sit inside the stated bound; the
        # inversion-set criterion itself is exact and bound-free
        heights_ok = all(c.height <= bound for c in inside)
        if inside == [alpha_v] and stab.is_canonical_generator(alpha_v) and heights_ok:
            passed += 1
    elapsed = time.time() - start
    _report(8, "golden conjugates", passed == 5 and elapsed <= 120, f"{passed}/5, det={det}, {elapsed:.1f}s")


def test_criterion_09_action_extension(systems):
    rng = random.Random(909)
    cases = [
        ("b2", Character.make([-1, 1]), 2),
        ("a2", Character.trivial(2), 2),
        ("a2", Character.make([1, Fraction(7)]), 1),
    ]
    done = 0
    for key, tau, ell in cases:
        alg = systems[key]
        ser = PrincipalSeries(alg, tau)
        stab = ser.stabilizer()
        ball = stab.subgroup_ball(ell, 8)
        reps = {w: ser._poly_rep(stab, w) for w in ball}
        basis = {w: ser.ev(stab.k_tilde_of(w)) for w in ball}
        refs = stab.s_tau(8)
        # the two displayed action formulas, exactly
        for r in refs:
            kt = alg.k_tilde(r)
            if ser.k_act(kt, ser.v()) != ser.ev(kt):
                _report(9, "action extension", False, f"K~.v formula at {r!r} ({key})")
            theta = RationalElt.monomial(tuple(rng.randint(-1, 1) for _ in range(alg.system.rank)), Fraction(3))
            k = kt * alg.theta(theta)
            if ser.k_act(k, ser.v()) != ser.ev(kt).scale(evaluate(tau, theta)):
                _report(9, "action extension", False, f"K~ theta formula at {r!r} ({key})")
        goal = 34 if key != "a2" or not tau.is_trivial() else 33
        for _ in range(34 if done < 68 else 32):
            h = alg.zero()
            for w in ball:
                coeff = Fraction(rng.randint(0, 2))
                if coeff:
                    shift = alg.monomial(tuple(rng.randint(-1, 1) for _ in range(alg.system.rank)))
                    h = h + (reps[w] * shift).scale(coeff)
            if h.is_zero:
                h = reps[ball[0]]
            if not membership(h).in_blh:
                _report(9, "action extension", False, f"lift not polynomial ({key})")
            x = ModuleVector(tau, {})
            for w in ball:
                x = x + basis[w].scale(Fraction(rng.randint(0, 2)))
            if ser.k_act(h, x) != ser.act(h, x):
                _report(9, "action extension", False, f"sample {done} ({key})")
            done += 1
    _report(9, "action extension", done >= 100, f"{done} polynomial elements across three characters")


def test_criterion_10_weight_shift_formula(systems):
    rng = random.Random(111)
    cases = [
        ("a2", Character.trivial(2)),
        ("affine_a1", Character.trivial(3)),
        ("a1_unequal", Character.trivial(1)),
        ("a1_unequal", Character.make([-1])),
        ("b2_unequal", Character.make([-1, Fraction(5)])),
    ]
    done = 0
    for key, tau in cases:
        alg = systems[key]
        stab = TauStabilizer(alg, tau)
        sigma = stab.sigma_tau(6)
        if not sigma:
            _report(10, "weight shift formula", False, f"no generators for {key}")
        for _ in range(40):
            c = rng.choice(sigma)
            r = alg.group.reflection(c)
            lam = tuple(rng.randint(-3, 3) for _ in range(alg.system.rank))
            root = alg.group.reflection_root(c)
            pairing = sum(a * b for a, b in zip(root, lam))
            mono = RationalElt.monomial(lam)
            omega = alg.q_r(c) * (mono - mono.twist(r))
            poly = omega.is_polynomial()
            got = tau.of_poly(poly) if poly is not None else None
            want = tau.of_vector(lam) * stab.sigma_pp(c) * pairing
            if got != want:
                _report(10, "weight shift formula", False, f"{key} at {c.coords}, lam={lam}")
            done += 1
    _report(10, "weight shift formula", done == 200, f"{done} samples, equal and unequal parameters")
