"""The benchmark's workloads: seeded rounds of user jobs and their checks.

A workload yields rounds of jobs. Every round has the same strata (datum,
character kind, bounds, query), so a run that takes whole rounds always sees
the same mix; the seed picks the details inside each stratum (which
generator, which character values, which random words) and the order of the
jobs in the round. Jobs never see the seed, only the inputs made from it.
A run takes a fixed number of rounds, `--seconds` over the workload's
`round_s`, so the same seed and length give the same jobs on every machine.

Each job has a timed part (`execute`, the program's work) and an untimed
check (`check`) that raises `CheckMismatch` when the output is wrong. The
checks do not depend on recorded seed output: they compare two independent
computations, or compare against values known from the paper.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

AFFINE_A1 = [[2, -2], [-2, 2]]
G2 = [[2, -1], [-3, 2]]
AFFINE_A2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
AFFINE_C2 = [[2, -1, 0], [-2, 2, -2], [0, -1, 2]]
HYPERBOLIC = [[2, -2, -1], [-2, 2, -1], [-1, -1, 2]]
A1 = [[2]]
_L37 = [[2, -2, -2, -2], [-2, 2, -2, -2], [-2, -2, 2, -3], [-2, -2, -3, 2]]
# Lemma 3.7: the invertible 4x4 datum, roots from the matrix columns, coroots the basis of Y
LEMMA37 = {
    "matrix": _L37,
    "rank": 4,
    "simple_roots": [list(r) for r in zip(*_L37)],
    "simple_coroots": [[int(i == j) for j in range(4)] for i in range(4)],
}
SIGMA = 2  # every job uses equal parameters sigma_s = sigma'_s = sqrt(q)
Q = SIGMA * SIGMA


class CheckMismatch(Exception):
    """A job's output failed its correctness check."""


class JobError(Exception):
    """A job ended without a result; the message is its error class."""


class WorkDeadline(BaseException):
    """Raised inside a job that used up its work budget. A BaseException, so
    that no `except Exception` in the program swallows it."""


class TermBudget:
    """A job deadline counted in work: the term products of the job's
    LaurentPoly multiplications. A multiplication that would take the job
    past `limit` raises WorkDeadline before it starts. Unlike a deadline in
    seconds, it abandons the same jobs on every run, however fast the
    machine is at the time."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def install(self) -> None:
        from blhecke.laurent import LaurentPoly

        original = LaurentPoly.__mul__

        def counted(a, b):
            self.used += len(a.terms) * len(b.terms)
            if self.used > self.limit:
                raise WorkDeadline()
            return original(a, b)

        LaurentPoly.__mul__ = counted


@dataclass
class Job:
    id: str
    kind: str
    spec: dict = field(default_factory=dict)


def datum_block(datum) -> dict:
    return dict(datum) if isinstance(datum, dict) else {"matrix": datum}


def generators(datum) -> int:
    return len(datum_block(datum)["matrix"])


def y_rank(datum) -> int:
    """Rank of the lattice Y: given for an explicit datum, n + corank for the
    standard realization of a bare matrix."""
    if isinstance(datum, dict):
        return datum["rank"]
    from blhecke.linalg import rank

    return 2 * len(datum) - rank([[Fraction(x) for x in row] for row in datum])


def build_system(datum):
    """The root datum exactly as the CLI builds it from a config, validated."""
    from blhecke import RootGeneratingSystem, standard_system

    if isinstance(datum, dict):
        system = RootGeneratingSystem.make(
            datum["matrix"], datum["rank"], datum["simple_roots"], datum["simple_coroots"]
        )
        system.validate()
        return system
    return standard_system(datum)


def build_algebra(datum):
    from blhecke import ParameterSet, validate_system
    from blhecke.coxeter import WeylGroup
    from blhecke.hecke import HeckeAlgebra

    system = build_system(datum)
    params = ParameterSet.equal(Fraction(SIGMA), system.n)
    validate_system(system, params)
    WeylGroup(system)
    return HeckeAlgebra(system, params)


# -- running CLI subcommands in-process ------------------------------------------------

_ERROR_CLASS = re.compile(r"error: (\w+):")


class Cli:
    """Runs `blhecke.cli.main` in-process: a JSON config file in, a JSON report out."""

    def __init__(self, workdir: Path):
        self.config_path = workdir / "job.yaml"

    def __call__(self, subcommand: str, config: dict) -> dict:
        from blhecke import cli

        # JSON is YAML; the CLI parses it with its YAML loader
        self.config_path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([subcommand, "--config", str(self.config_path), "--format", "json"])
        if code != 0:
            match = _ERROR_CLASS.search(err.getvalue())
            raise JobError(match.group(1) if match else f"exit-{code}")
        return json.loads(out.getvalue())


# -- kato-sweep ------------------------------------------------------------------------

KATO_DATA = (
    # name, datum, coroot height bound, Weyl length bound
    ("affine-A2", AFFINE_A2, 16, 5),
    ("affine-C2", AFFINE_C2, 16, 5),
    ("hyperbolic", HYPERBOLIC, 16, 5),
    ("lemma-3.7", LEMMA37, 10, 4),
)
KATO_CHARACTERS = ("trivial", "all-minus-one", "one-minus-one", "one-sqrt-minus-one", "one-q")


class KatoSweep:
    """One job runs `kato` then `analyze-tau` on the same config and checks
    them against each other: five character kinds on four data, and each
    round ends with the A1 reference job."""

    name = "kato-sweep"
    deadline_s = 10.0
    budget = None
    round_s = 6.0  # seconds a round takes at the seed commit on the reference machine in a slow spell

    def __init__(self, workdir: Path):
        self.cli = Cli(workdir)
        self.first_generator: dict[str, int] = {}

    def setup(self) -> None:
        for datum in [d for _, d, _, _ in KATO_DATA] + [A1]:
            build_algebra(datum)

    def round(self, rng: random.Random, r: int) -> list[Job]:
        if r == 0:
            # the seed picks each datum's generator for the first round; later
            # rounds take the next one in turn, so each comes up equally often
            self.first_generator = {name: rng.randrange(generators(d)) for name, d, _, _ in KATO_DATA}
        configs = []
        for name, datum, height, length in KATO_DATA:
            i = (self.first_generator[name] + r) % generators(datum)
            for kind in KATO_CHARACTERS:
                configs.append(self._config(f"{name}/{kind}", datum, kind, i, height, length))
        rng.shuffle(configs)
        configs.append(self._config("A1/one-q", A1, "one-q", 0, 4, 3))
        return [
            Job(f"r{r}.c{k}.kato+analyze-tau:{label}", "kato+analyze-tau", {"config": config, "ref": ref})
            for k, (label, config, ref) in enumerate(configs)
        ]

    def _config(self, label, datum, kind, i, height, length):
        rank = y_rank(datum)
        character: dict = {"values": ["1"] * rank}
        if kind == "all-minus-one":
            character["values"] = ["-1"] * rank
        elif kind == "one-minus-one":
            character["values"][i] = "-1"
        elif kind == "one-sqrt-minus-one":
            character["values"][i] = {"a": "0", "b": "1"}
            character["extension"] = {"square": "-1"}
        elif kind == "one-q":
            character["values"][i] = str(Q)
        config = {
            "datum": datum_block(datum),
            "parameters": {"q": str(Q)},
            "character": character,
            "bounds": {"coroot_height": height, "weyl_length": length},
        }
        # reference verdicts known without running the program
        ref = None
        if kind == "trivial":
            ref = ("Irreducible", None)  # W_tau = W is generated by reflections, tau in U_C
        elif kind == "one-q":
            ref = ("Reducible", [int(k == i) for k in range(generators(datum))])  # zeta_i numerator vanishes
        elif kind == "all-minus-one" and datum is LEMMA37:
            ref = ("Reducible", None)  # Lemma 3.7: the parity character
        return label, config, ref

    def execute(self, job: Job):
        config = job.spec["config"]
        return self.cli("kato", config)["result"], self.cli("analyze-tau", config)["result"]

    def check(self, job: Job, output) -> None:
        verdict, analysis = output
        status = verdict["status"]
        if status not in ("Irreducible", "Reducible"):
            raise CheckMismatch(f"verdict {status}")
        ref = job.spec["ref"]
        if ref is not None:
            want, witness = ref
            if status != want:
                raise CheckMismatch(f"verdict {status}, reference {want}")
            if witness is not None and verdict["witness_coroot"] != witness:
                raise CheckMismatch(f"witness {verdict['witness_coroot']}, reference {witness}")
        sizes = analysis["ball_sizes"]
        w_tau = {tuple(w) for w in analysis["w_tau_words"]}
        w_paren = {tuple(w) for w in analysis["w_paren_tau_words"]}
        if (sizes["w_tau"], sizes["w_paren_tau"], sizes["r_tau"]) != (
            len(w_tau), len(w_paren), len(analysis["r_tau_words"])
        ):
            raise CheckMismatch("ball sizes disagree with the listed words")
        u_c_fails = analysis["u_c"]["status"] != "InU_C"
        leaves = not w_tau <= w_paren
        if (status == "Reducible") != (u_c_fails or leaves):
            raise CheckMismatch(
                f"kato says {status}, analyze-tau has u_c={analysis['u_c']['status']} "
                f"and W_tau ball {'outside' if leaves else 'inside'} W_(tau) ball"
            )
        if verdict["witness_coroot"] is not None and verdict["witness_coroot"] != analysis["u_c"]["witness"]:
            raise CheckMismatch("kato witness coroot differs from the U_C witness")
        element = verdict["witness_element"]
        if element is not None and (tuple(element) not in w_tau or tuple(element) in w_paren):
            raise CheckMismatch("kato witness element is not in W_tau minus W_(tau)")


# -- module-weights --------------------------------------------------------------------

MODULE_DATA = (
    # name, datum, {Bruhat ball radius: regular characters per round}
    ("affine-A1", AFFINE_A1, {2: 2, 3: 2, 4: 2}),
    ("G2", G2, {2: 2, 3: 2, 4: 2}),
    ("affine-A2", AFFINE_A2, {2: 2, 3: 2}),
    ("hyperbolic", HYPERBOLIC, {2: 1, 3: 2}),
)
# The counts give 40 jobs a round. Its slowest tenth is the two failing
# singular-character jobs (counted at the deadline) and two of the four
# ball-3 gen-weight-space queries on affine A2 and the hyperbolic datum, so
# p90 falls in the middle of that group of like jobs, not between groups,
# where its value would jump from run to run.
REGULAR_VALUES = (3, 5, 7)  # odd, so no coroot value is +-1 or q = 4
N_CAP = 2


class ModuleWeights:
    """`weight-space` then `gen-weight-space` on the same (datum, tau, ball),
    each followed by `ord` on every basis vector. Each round asks the
    MODULE_DATA counts of regular characters per (datum, ball) and one
    singular character (tau(alpha_i^vee) = 1 for one i)."""

    name = "module-weights"
    deadline_s = 5.0
    budget = None
    round_s = 7.5

    def __init__(self, workdir: Path):
        self.cli = Cli(workdir)
        self._expected: dict[str, int] = {}

    def setup(self) -> None:
        for _, datum, _ in MODULE_DATA:
            build_algebra(datum)

    def round(self, rng: random.Random, r: int) -> list[Job]:
        configs = []
        for name, datum, balls in MODULE_DATA:
            n, rank = len(datum), y_rank(datum)
            for ball, count in balls.items():
                for _ in range(count):
                    values = [rng.choice((1, -1)) * v for v in rng.sample(REGULAR_VALUES, n)]
                    values += [rng.choice(REGULAR_VALUES) for _ in range(rank - n)]
                    configs.append((f"{name}/ball{ball}/regular", datum, values, ball))
        # one singular character per round, the datum taken in turn
        name, datum, balls = MODULE_DATA[r % len(MODULE_DATA)]
        values = [rng.choice((1, -1)) * rng.choice(REGULAR_VALUES) for _ in range(y_rank(datum))]
        values[rng.randrange(len(datum))] = 1
        ball = rng.choice((2, 3))
        configs.append((f"{name}/ball{ball}/singular", datum, values, ball))
        rng.shuffle(configs)
        jobs = []
        for k, (label, datum, values, ball) in enumerate(configs):
            config = {
                "datum": datum_block(datum),
                "parameters": {"q": str(Q)},
                "character": {"values": [str(v) for v in values]},
                "bounds": {"ball": ball, "n_cap": N_CAP},
            }
            spec = {"config": config, "cid": f"r{r}.c{k}", "datum": datum, "values": values, "ball": ball}
            jobs.append(Job(f"r{r}.c{k}.weight-space:{label}", "weight-space", spec))
            jobs.append(Job(f"r{r}.c{k}.gen-weight-space:{label}", "gen-weight-space", spec))
        return jobs

    def execute(self, job: Job):
        config = job.spec["config"]
        report = self.cli(job.kind, config)
        ords = []
        for vec in report["result"]["basis"]:
            with_vector = dict(config, vector=[{"word": x["word"], "coeff": x["value"]} for x in vec])
            ords.append(self.cli("ord", with_vector)["result"]["ord_tau"])
        return report, ords

    def expected_dimension(self, spec) -> int:
        """|R_tau ball|, from the stabilizer module rather than the module code."""
        key = spec["cid"]
        if key not in self._expected:
            from blhecke import Character, TauStabilizer

            alg = build_algebra(spec["datum"])
            tau = Character.make(spec["values"])
            self._expected[key] = len(TauStabilizer(alg, tau).r_tau_ball(spec["ball"]))
        return self._expected[key]

    def check(self, job: Job, output) -> None:
        report, ords = output
        result = report["result"]
        if result["dimension"] != len(result["basis"]):
            raise CheckMismatch("dimension differs from the basis length")
        want = self.expected_dimension(job.spec)
        if job.kind == "weight-space":
            if result["dimension"] != want:
                raise CheckMismatch(f"dimension {result['dimension']}, |R_tau ball| = {want}")
            if any(k != 1 for k in ords):
                raise CheckMismatch(f"weight vectors with ord {ords}, want 1")
        else:
            if result["dimension"] < want:
                raise CheckMismatch(f"generalized dimension {result['dimension']} < |R_tau ball| = {want}")
            if any(not 1 <= k <= N_CAP for k in ords):
                raise CheckMismatch(f"generalized weight vectors with ord {ords}, want 1..{N_CAP}")


# -- hecke-products --------------------------------------------------------------------

HECKE_DATA = (("G2", G2), ("affine-A2", AFFINE_A2), ("hyperbolic", HYPERBOLIC))
# per datum and round: (check, word kind, count)
HECKE_STRATA = (
    ("associativity", "TZ", 6),
    ("associativity", "F", 2),
    ("commutation", "TZ", 4),
    ("quadratic", "TZ", 2),
    ("quadratic", "F", 2),
)
MAX_WORD = 3
MAX_EXP = 1


class HeckeProducts:
    """Seeded identity checks by direct HeckeAlgebra/HeckeElt calls: no CLI
    subcommand multiplies. T/Z words have polynomial coefficients; F words
    contain an intertwiner F_s and so binomial denominators."""

    name = "hecke-products"
    deadline_s = 5.0  # a backstop: the term budget abandons the slow jobs long before
    round_s = 0.3

    def __init__(self, workdir: Path):
        self.algebras: dict[str, object] = {}
        # about 0.1 s of products at the seed commit; ~2 % of the jobs pass it
        self.budget = TermBudget(12_000)

    def round(self, rng: random.Random, r: int) -> list[Job]:
        jobs = []
        for name, datum in HECKE_DATA:
            n, rank = len(datum), y_rank(datum)
            for check, kind, count in HECKE_STRATA:
                for _ in range(count):
                    if check == "associativity":
                        # an F word in one of the three places, T/Z words in the others
                        words = [_word(rng, n, rank, "TZ") for _ in range(3)]
                        if kind == "F":
                            words[rng.randrange(3)] = _word(rng, n, rank, "F")
                        spec = {"words": words}
                    elif check == "quadratic":
                        spec = {"words": [_word(rng, n, rank, kind)], "i": rng.randrange(n)}
                    else:
                        terms = {}
                        for _ in range(rng.randint(1, 3)):
                            terms[_exp(rng, rank)] = rng.randint(1, 5) * rng.choice((1, -1))
                        spec = {"theta": sorted(terms.items()), "i": rng.randrange(n)}
                    spec["datum"] = name
                    jobs.append(Job(f"{check}:{name}/{kind}", check, spec))
        rng.shuffle(jobs)
        for k, job in enumerate(jobs):
            job.id = f"r{r}.j{k}.{job.id}"
        return jobs

    def setup(self) -> None:
        for name, datum in HECKE_DATA:
            self.algebras[name] = build_algebra(datum)

    def _element(self, alg, word):
        from blhecke import RationalElt

        out = alg.one()
        for token in word:
            if token[0] == "T":
                out = out * alg.T(alg.group.simple(token[1]))
            elif token[0] == "F":
                out = out * alg.f_s(token[1])
            else:
                out = out * alg.theta(RationalElt.monomial(token[1], Fraction(token[2])))
        return out

    def execute(self, job: Job):
        from blhecke import LaurentPoly, RationalElt

        alg = self.algebras[job.spec["datum"]]
        if job.kind == "associativity":
            a, b, c = (self._element(alg, w) for w in job.spec["words"])
            return (a * b) * c == a * (b * c)
        i = job.spec["i"]
        s = alg.group.simple(i)
        t = alg.T(s)
        if job.kind == "quadratic":
            a = self._element(alg, job.spec["words"][0])
            sigma2 = alg.params.sigma[i] ** 2
            return (a * t) * t == a * (t.scale(sigma2 - 1) + alg.one().scale(sigma2))
        theta = RationalElt.from_poly(LaurentPoly(alg.system.rank, dict(job.spec["theta"])))
        return alg.theta(theta) * t == t * alg.theta(theta.twist(s)) + alg.theta(alg.omega(i, theta))

    def check(self, job: Job, equal: bool) -> None:
        if equal is not True:
            raise CheckMismatch(f"{job.kind} identity fails: the two sides differ")


def _exp(rng: random.Random, rank: int) -> tuple[int, ...]:
    return tuple(rng.randint(-MAX_EXP, MAX_EXP) for _ in range(rank))


def _word(rng: random.Random, n: int, rank: int, kind: str) -> list[tuple]:
    """T/Z word of 1..MAX_WORD letters; an F word has exactly one F_s letter."""
    length = rng.randint(1, MAX_WORD)
    word = []
    for _ in range(length):
        if rng.random() < 0.5:
            word.append(("T", rng.randrange(n)))
        else:
            word.append(("Z", _exp(rng, rank), rng.randint(1, 5) * rng.choice((1, -1))))
    if kind == "F":
        word[rng.randrange(length)] = ("F", rng.randrange(n))
    return word


WORKLOADS = {w.name: w for w in (KatoSweep, HeckeProducts, ModuleWeights)}
