"""Command line interface: config ingestion, subcommand dispatch, reports.

Configs are a single human-editable YAML file; machine reports are canonical
JSON (sorted keys, fixed layout), so the same config and seed always produce
byte-identical output.  Exit codes: 0 success, 1 mathematical-negative result
(an --expect mismatch), 2 usage or config error, 3 internal invariant
violation (a bug signal, e.g. a pairing matrix failing Kac-Moody validation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import yaml

from . import __version__, serial
from .coxeter import WeylGroup, inversion_coroots
from .errors import BLHeckeError, ConfigError, KacMoodyViolation, ValidationError
from .hecke import HeckeAlgebra
from .identities import run_suite
from .laurent import Character
from .principal import LowerSet, ModuleVector, PrincipalSeries
from .rootdata import KacMoodyMatrix, ParameterSet, RootGeneratingSystem, standard_system, validate_system
from .scalars import Scalar, quadext, rational_sqrt
from .stabilizer import IRREDUCIBLE, TauStabilizer, analyze, kato_check

ENV_PREFIX = "BLHECKE_"

DEFAULT_BOUNDS = {
    "coroot_height": 12,
    "weyl_length": 5,
    "ball": 4,
    "n_cap": 4,
}


@dataclass
class JobConfig:
    """Parsed configuration: datum, parameters, character, vectors, bounds."""

    system: RootGeneratingSystem
    params: ParameterSet
    character: Character | None
    eigen_character: Character | None
    vector: list[tuple[list[int], Scalar]]
    bounds: dict[str, int]
    extension_square: Fraction | None

    @staticmethod
    def parse(data: dict) -> "JobConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        _known_keys(data, ("datum", "parameters", "character", "eigen_character", "vector", "bounds"), "")
        explicit = ("rank", "simple_roots", "simple_coroots")  # together they replace standard_system
        datum = _block(data, "datum", known=("matrix",) + explicit)
        if "matrix" not in datum:
            raise ConfigError("config needs a datum block with a matrix")
        matrix = KacMoodyMatrix.make(_int_rows(datum["matrix"], "datum.matrix"))
        given = [k for k in explicit if k in datum]
        if 0 < len(given) < len(explicit):
            raise ConfigError(f"datum gives only {', '.join(given)} of {', '.join(explicit)}: give all or none")
        if given:
            if type(datum["rank"]) is not int:
                raise ConfigError(f"datum.rank must be an integer, got {datum['rank']!r}")
            system = RootGeneratingSystem.make(
                matrix,
                datum["rank"],
                _int_rows(datum["simple_roots"], "datum.simple_roots"),
                _int_rows(datum["simple_coroots"], "datum.simple_coroots"),
            )
        else:
            system = standard_system(matrix)

        square = None
        char_block = _block(data, "character", known=("values", "extension"))
        ext = _block(char_block, "extension", where="character.", known=("square",))
        if ext:
            square = serial.parse_rational(ext.get("square"))

        params = _parse_parameters(_block(data, "parameters", known=("q", "sigma", "sigma_prime")), system, square)

        character = None
        if "values" in char_block:
            character = _parse_character(char_block, "character", system.rank, square)
        eigen = None
        eig_block = _block(data, "eigen_character", known=("values",))
        if "values" in eig_block:
            eigen = _parse_character(eig_block, "eigen_character", system.rank, square)

        vector = []
        for rec in _block(data, "vector", list):
            if not isinstance(rec, dict):
                raise ConfigError(f"each vector record must be a mapping, got {rec!r}")
            _known_keys(rec, ("word", "coeff"), "vector.")
            word = _ints(rec.get("word", []), "vector word")
            if any(i < 1 or i > system.n for i in word):
                raise ConfigError(f"vector word {word} has out-of-range generator indices")
            vector.append((word, serial.scalar_from_obj(rec.get("coeff", "1"), square)))

        bounds = dict(DEFAULT_BOUNDS)
        _set_bounds(bounds, _block(data, "bounds"))
        return JobConfig(system, params, character, eigen, vector, bounds, square)

    def to_dict(self) -> dict:
        out: dict = {"datum": serial.datum_to_obj(self.system), "parameters": serial.parameters_to_obj(self.params)}
        if self.character is not None:
            block: dict = {"values": serial.character_to_obj(self.character)}
            if self.extension_square is not None:
                block["extension"] = {"square": str(self.extension_square)}
            out["character"] = block
        if self.eigen_character is not None:
            out["eigen_character"] = {"values": serial.character_to_obj(self.eigen_character)}
        if self.vector:
            out["vector"] = [
                {"word": list(word), "coeff": serial.scalar_to_obj(c)} for word, c in self.vector
            ]
        out["bounds"] = dict(self.bounds)
        return out


def _block(data: dict, key: str, kind: type = dict, where: str = "", known: tuple[str, ...] | None = None):
    """data[key] if it is a mapping (or a list, by kind), holding no key
    outside `known` when that is given; absent or null reads as an empty one."""
    value = data.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ConfigError(f"{where}{key} must be a {'mapping' if kind is dict else 'list'}, got {value!r}")
    if known is not None:
        _known_keys(value, known, f"{where}{key}.")
    return value


def _known_keys(block: dict, known: tuple[str, ...], where: str) -> None:
    """Reject a key the parser would ignore, naming it."""
    for key in block:
        if key not in known:
            raise ConfigError(f"unknown key {where}{key}")


def _ints(value, name: str) -> list[int]:
    """A list of integers; bools, floats and strings are not integers here."""
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ConfigError(f"{name} must be a list of integers, got {value!r}")
    return value


def _int_rows(value, name: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of integer lists, got {value!r}")
    return [_ints(row, name) for row in value]


def _parse_character(block: dict, name: str, rank: int, square) -> Character:
    values = [serial.scalar_from_obj(v, square) for v in _block(block, "values", list, f"{name}.")]
    if len(values) != rank:
        raise ConfigError(f"{name} needs {rank} values, got {len(values)}")
    try:
        return Character.make(values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _set_bounds(bounds: dict[str, int], overrides: dict) -> None:
    """Apply overrides to bounds, each a known bound and a positive integer:
    the one check for bounds from a config, a flag or the environment."""
    for key, value in overrides.items():
        if key not in bounds:
            raise ConfigError(f"unknown bound {key!r}")
        try:
            value = int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"bound {key} must be an integer, got {value!r}") from None
        if value <= 0:
            raise ConfigError(f"bound {key} must be positive")
        bounds[key] = value


def _parse_parameters(block: dict, system: RootGeneratingSystem, square) -> ParameterSet:
    n = system.n
    if "q" in block:
        if "sigma" in block or "sigma_prime" in block:
            raise ConfigError("parameters give q beside sigma/sigma_prime: give one or the other")
        q = serial.parse_rational(block["q"])
        root = rational_sqrt(q)
        sigma = root if root is not None else quadext(0, 1, q)
        return ParameterSet.equal(sigma, n)
    if "sigma" in block:
        sigma = tuple(serial.scalar_from_obj(v, square) for v in _block(block, "sigma", list, "parameters."))
        primes = _block(block, "sigma_prime", list, "parameters.")
        sigma_prime = tuple(serial.scalar_from_obj(v, square) for v in primes) if "sigma_prime" in block else sigma
        if len(sigma) != n or len(sigma_prime) != n:
            raise ConfigError(f"parameter lists must have length {n}")
        return ParameterSet(sigma, sigma_prime)
    raise ConfigError("parameters block needs either q or sigma/sigma_prime")


def load_config(path: str) -> JobConfig:
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    return JobConfig.parse(data or {})


def _require_character(cfg: JobConfig) -> Character:
    if cfg.character is None:
        raise ConfigError("this subcommand needs a character block")
    return cfg.character


def _emit(report: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _base_report(command: str, cfg: JobConfig | None, seed: int | None = None) -> dict:
    out = {"command": command, "library_version": __version__}
    if cfg is not None:
        out["bounds"] = dict(cfg.bounds)
        out["config"] = cfg.to_dict()
    if seed is not None:
        out["seed"] = seed
    return out


# -- subcommands ---------------------------------------------------------------

def cmd_validate(cfg: JobConfig | None, args, violation: ValidationError | None = None) -> int:
    """The validate report; `main` passes the violation of a datum that fails
    validation as it is parsed (a bare matrix) or after (`validate_system`)."""
    report = _base_report("validate", cfg)
    if violation is None:
        report["result"] = {"ok": True}
        _emit(report, args.format, ["ok"])
        return 0
    report["result"] = {"ok": False, "violation": violation.code, "message": str(violation)}
    _emit(report, args.format, [f"validation failed: {violation.code}: {violation}"])
    return 2


def cmd_roots(cfg: JobConfig, args) -> int:
    bound = cfg.bounds["coroot_height"]
    coroots = WeylGroup(cfg.system).coroots(bound)
    report = _base_report("roots", cfg)
    report["result"] = {
        "coroot_height_bound": bound,
        "count": len(coroots),
        "coroots": [
            {"coords": list(c.coords), "height": c.height, "ht_signed": c.ht_signed, "positive": c.positive}
            for c in coroots
        ],
    }
    lines = [f"real coroots of height <= {bound}: {len(coroots)}"]
    lines += [f"  {list(c.coords)}  height={c.height}  positive={c.positive}" for c in coroots]
    _emit(report, args.format, lines)
    return 0


def cmd_analyze_tau(cfg: JobConfig, args) -> int:
    tau = _require_character(cfg)
    alg = HeckeAlgebra(cfg.system, cfg.params)
    result = analyze(alg, tau, cfg.bounds["coroot_height"], cfg.bounds["weyl_length"])
    report = _base_report("analyze-tau", cfg)
    report["result"] = serial.analysis_to_obj(result)
    lines = [
        f"phi_tau (height <= {result.coroot_bound}): {[list(c.coords) for c in result.phi_tau]}",
        f"sigma_tau: {[list(c.coords) for c in result.sigma_tau]}",
        f"s_tau words: {[serial.word_to_obj(w) for w in result.s_tau]}",
        f"ball sizes (length <= {result.length_bound}): "
        f"W_tau={len(result.w_tau_ball)} W_(tau)={len(result.w_paren_tau_ball)} R_tau={len(result.r_tau_ball)}",
        f"sigma'' values: {[serial.scalar_to_obj(v) for _, v in result.sigma_pp]}",
        f"rho witness: {None if result.rho_witness is None else serial.scalar_to_obj(result.rho_witness)}",
        f"u_c: {result.u_c.status}",
    ]
    _emit(report, args.format, lines)
    return 0


def cmd_kato(cfg: JobConfig, args) -> int:
    tau = _require_character(cfg)
    alg = HeckeAlgebra(cfg.system, cfg.params)
    verdict = kato_check(alg, tau, cfg.bounds["coroot_height"], cfg.bounds["weyl_length"])
    report = _base_report("kato", cfg)
    report["result"] = serial.verdict_to_obj(verdict)
    lines = [f"verdict: {verdict.status}"]
    if verdict.witness_coroot is not None:
        lines.append(f"witness coroot: {list(verdict.witness_coroot.coords)} (zeta numerator vanishes)")
    if verdict.witness_element is not None:
        lines.append(
            f"witness element: {serial.word_to_obj(verdict.witness_element)} "
            "(stabilizes tau, outside the reflection subgroup)"
        )
    if verdict.status == IRREDUCIBLE:
        lines.append(
            f"certified up to coroot height {verdict.coroot_bound}, length {verdict.length_bound}"
            + (" (absolute: enumerations saturated)" if verdict.absolute else "")
        )
    else:
        lines.append("proven by its witness, whatever the bounds (absolute)")
    _emit(report, args.format, lines)
    if args.expect and args.expect.lower() != verdict.status.lower():
        return 1
    return 0


def _weight_space_common(cfg: JobConfig, args, generalized: bool) -> int:
    tau = _require_character(cfg)
    alg = HeckeAlgebra(cfg.system, cfg.params)
    series = PrincipalSeries(alg, tau)
    eigen = cfg.eigen_character or tau
    dom = LowerSet(frozenset(alg.group.ball(cfg.bounds["ball"])))  # a Bruhat ball is a lower set
    if generalized:
        basis = series.generalized_weight_space(eigen, dom, cfg.bounds["n_cap"])
        name = "gen-weight-space"
    else:
        basis = series.weight_space(eigen, dom)
        name = "weight-space"
    report = _base_report(name, cfg)
    report["result"] = {
        "domain_ball": cfg.bounds["ball"],
        "domain_size": len(dom),
        "dimension": len(basis),
        "basis": [serial.vector_to_obj(x) for x in basis],
    }
    if generalized:
        report["result"]["n_cap"] = cfg.bounds["n_cap"]
    lines = [f"domain: ball of length <= {cfg.bounds['ball']} ({len(dom)} elements)", f"dimension: {len(basis)}"]
    for x in basis:
        lines.append("  " + " + ".join(f"{serial.scalar_to_obj(c)}*T{serial.word_to_obj(w)}" for w, c in x.items()))
    _emit(report, args.format, lines)
    return 0


def cmd_weight_space(cfg: JobConfig, args) -> int:
    return _weight_space_common(cfg, args, generalized=False)


def cmd_gen_weight_space(cfg: JobConfig, args) -> int:
    return _weight_space_common(cfg, args, generalized=True)


def cmd_ord(cfg: JobConfig, args) -> int:
    tau = _require_character(cfg)
    if not cfg.vector:
        raise ConfigError("ord needs a vector block in the config")
    alg = HeckeAlgebra(cfg.system, cfg.params)
    series = PrincipalSeries(alg, tau)
    group = alg.group
    coeffs: dict = {}
    for word, c in cfg.vector:
        w = group.from_word([i - 1 for i in word])
        coeffs[w] = coeffs.get(w, 0) + c
    x = ModuleVector(tau, coeffs)
    value = series.ord_tau(x)
    report = _base_report("ord", cfg)
    report["result"] = {"ord_tau": value, "vector": serial.vector_to_obj(x)}
    _emit(report, args.format, [f"ord_tau = {value}"])
    return 0


def cmd_verify_identities(cfg: JobConfig, args) -> int:
    tau = cfg.character or Character.trivial(cfg.system.rank)
    alg = HeckeAlgebra(cfg.system, cfg.params)
    results = run_suite(
        alg,
        tau,
        seed=args.seed,
        coroot_bound=cfg.bounds["coroot_height"],
        ell_bound=min(cfg.bounds["ball"], 3),
        samples=args.samples,
    )
    report = _base_report("verify-identities", cfg, seed=args.seed)
    report["result"] = {
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "passed": sum(r.passed for r in results),
        "total": len(results),
    }
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name} - {r.detail}" for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed (seed {args.seed})")
    _emit(report, args.format, lines)
    return 0 if all(r.passed for r in results) else 3


def lemma37_system() -> tuple[RootGeneratingSystem, ParameterSet, Character]:
    """The 4x4 invertible datum with the parity character and q = 4."""
    a = [[2, -2, -2, -2], [-2, 2, -2, -2], [-2, -2, 2, -3], [-2, -2, -3, 2]]
    matrix = KacMoodyMatrix.make(a)
    if matrix.determinant() == 0:
        raise KacMoodyViolation("example matrix is singular")
    system = RootGeneratingSystem.make(matrix, 4, [list(r) for r in zip(*a)], [[int(i == j) for j in range(4)] for i in range(4)])
    params = ParameterSet.equal(Fraction(2), 4)
    tau = Character.make([-1, -1, -1, -1])
    return system, params, tau


def cmd_example_lemma37(cfg: JobConfig | None, args) -> int:
    system, params, tau = lemma37_system()
    alg = HeckeAlgebra(system, params)
    stab = TauStabilizer(alg, tau)
    group = alg.group
    r1, r2, r3 = group.simple(0), group.simple(1), group.simple(2)
    core = r3 * group.simple(3) * r3
    conjugators = [group.identity, r1, r2, r1 * r2, r2 * r1]
    records = []
    certified = 0
    for w in conjugators:
        v = w * core * w.inverse()
        alpha_v = (w * r3).apply_coroot(system.simple_coroot(3))
        inside = [c for c in inversion_coroots(v) if stab.phi_contains(c)]
        ok = inside == [alpha_v] and stab.is_canonical_generator(alpha_v)
        certified += ok
        records.append(
            {
                "conjugator": serial.word_to_obj(w),
                "reflection": serial.word_to_obj(v),
                "coroot": list(alpha_v.coords),
                "certified": ok,
            }
        )
    report = _base_report("example-lemma37", None)
    report["result"] = {
        "determinant": str(system.matrix.determinant()),
        "conjugates": records,
        "certified": certified,
        "total": len(conjugators),
    }
    lines = [f"{rec['conjugator']} -> coroot {rec['coroot']}: {'ok' if rec['certified'] else 'FAIL'}" for rec in records]
    lines.append(f"{certified}/{len(conjugators)} conjugates certified in S_tau")
    _emit(report, args.format, lines)
    return 0 if certified == len(conjugators) else 3


COMMANDS = {
    "validate": (cmd_validate, True),
    "roots": (cmd_roots, True),
    "analyze-tau": (cmd_analyze_tau, True),
    "kato": (cmd_kato, True),
    "weight-space": (cmd_weight_space, True),
    "gen-weight-space": (cmd_gen_weight_space, True),
    "ord": (cmd_ord, True),
    "verify-identities": (cmd_verify_identities, True),
    "example-lemma37": (cmd_example_lemma37, False),
}


# flags that a BLHECKE_<FLAG> variable sets when they are absent, with the
# value taken when neither is given
ENV_FLAGS = {
    "config": None,
    "format": "text",
    "seed": "0",
    "bound-coroot": None,
    "bound-length": None,
    "expect": None,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blhecke",
        description="Exact Bernstein-Lusztig-Hecke computations over Kac-Moody root data",
    )
    parser.add_argument("--version", action="version", version=f"blhecke {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the YAML config")
    common.add_argument("--format", choices=("text", "json"), help="report format (default text)")
    common.add_argument("--seed", type=int, help="seed for randomized checks (default 0)")
    common.add_argument("--samples", type=int, default=25, help="sample count for randomized checks")
    common.add_argument("--bound-coroot", type=int, help="override coroot height bound")
    common.add_argument("--bound-length", type=int, help="override Weyl length bound")
    common.add_argument(
        "--expect", choices=("irreducible", "reducible"), help="exit 1 when the kato verdict differs"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


PARSER = build_parser()


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv, then give each absent flag its BLHECKE_ variable or its
    default, parsed as that flag (so a bad value exits 2 like a bad flag)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = PARSER.parse_args(argv)
    extra = []
    for flag, fallback in ENV_FLAGS.items():
        value = os.environ.get(ENV_PREFIX + flag.upper().replace("-", "_"), fallback)
        if getattr(args, flag.replace("-", "_")) is None and value is not None:
            extra.append(f"--{flag}={value}")
    return PARSER.parse_args(argv + extra)


def main(argv=None) -> int:
    args = _parse_args(argv)
    handler, needs_config = COMMANDS[args.command]
    try:
        cfg = None
        if needs_config:
            if not args.config:
                raise ConfigError("missing --config (or BLHECKE_CONFIG)")
            try:
                cfg = load_config(args.config)
                validate_system(cfg.system, cfg.params)
            except ValidationError as exc:
                if handler is cmd_validate:
                    return cmd_validate(cfg, args, exc)
                raise
            flags = {"coroot_height": args.bound_coroot, "weyl_length": args.bound_length}
            _set_bounds(cfg.bounds, {key: value for key, value in flags.items() if value is not None})
        return handler(cfg, args)
    except KacMoodyViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except BLHeckeError as exc:  # a ValidationError is named by its code
        print(f"error: {getattr(exc, 'code', type(exc).__name__)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
