"""Command line interface: config ingestion, subcommand dispatch, reports.

Configs are a single human-editable YAML file; machine reports are canonical
JSON (sorted keys, fixed layout), so the same config and seed always produce
byte-identical output.  Exit codes: 0 success, 1 mathematical-negative result
(an --expect mismatch), 2 usage or config error, 3 internal invariant
violation (a bug signal, e.g. a pairing matrix failing Kac-Moody validation).

Work that cannot change between calls is done once per process: the
standard datum of each matrix is built once, and each (datum, parameters)
validated once, in one table (`_datum_table`, see the `memo` module).  They
are built and validated where a call would build and validate them, and a
failure stores nothing, so an invalid config fails as it would in a fresh
process.

A call pays for its mathematics, not its plumbing:
- argv is parsed once.  The subcommand's parser runs again only on the
  `BLHECKE_` variables that fill absent flags, into the same namespace; an
  absent --format or --seed with no variable is set to text or 0.
- A config file is read once.  A JSON text is read by `json`, any other by
  YAML's safe loader.  YAML 1.1 reads JSON alike but for three kinds of text,
  which go to YAML: (1) a character outside printable ASCII and LF, a \\u
  escape, a line over 1024 characters or a line that starts with a colon:
  YAML rejects tabs before a token, DEL, lone surrogates, and a key whose
  colon is on a later line or over 1024 characters on, which `json` accepts;
  (2) a number with a fraction or an exponent, NaN or Infinity, as YAML
  reads 1e3 as a string; (3) a text that `json` rejects, so every error
  message stays YAML's.
- A JSON report is written by `serial.dumps`, the bytes of `json.dumps`
  without its pure-Python encoder.
- `yaml` is imported by the first config that is not JSON, and the
  `identities` module by `verify-identities`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, serial
from .coxeter import WeylGroup, inversion_coroots
from .errors import BLHeckeError, ConfigError, IncompatibleData, KacMoodyViolation, ValidationError
from .hecke import HeckeAlgebra
from .laurent import Character
from .memo import GROUP_CAP, Memo
from .principal import ModuleVector, PrincipalSeries
from .rootdata import KacMoodyMatrix, ParameterSet, RootGeneratingSystem, standard_system, validate_system
from .scalars import QuadExt, Scalar, quadext, rational_sqrt
from .stabilizer import IRREDUCIBLE, TauStabilizer, analyze, kato_check

ENV_PREFIX = "BLHECKE_"

DEFAULT_BOUNDS = {
    "coroot_height": 12,
    "weyl_length": 5,
    "ball": 4,
    "n_cap": 4,
}

# process-level (see the memo module): the standard datum of each matrix, and
# None for each (system, params) that passed `validate_system`
_datum_table = Memo(GROUP_CAP)


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
            system = _datum_table.once(matrix, lambda: standard_system(matrix))

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
    """Apply overrides to bounds, each a known bound and a positive integer
    (bools, floats and strings are not integers here): the one check for
    bounds from a config, a flag or the environment."""
    for key, value in overrides.items():
        if key not in bounds:
            raise ConfigError(f"unknown bound {key!r}")
        if type(value) is not int:
            raise ConfigError(f"bound {key} must be an integer, got {value!r}")
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
            text = fh.read()
        data = _config_data(text, path)
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, an int past the digit limit
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return JobConfig.parse(data or {})


_COLON_FIRST = re.compile(r"\n *:")


def _yaml_reads_as_json(text: str) -> bool:
    """False for a text of kind (1) in the module docstring."""
    lines = text.split("\n")
    return (
        text.isascii()
        and "".join(lines).isprintable()
        and max(map(len, lines)) <= 1024
        and "\\u" not in text
        and _COLON_FIRST.search(text) is None
    )


def _not_json(text: str):
    raise ValueError(f"YAML may read {text} otherwise")


def _config_data(text: str, path: str):
    """The data of a config text, read by `json` where YAML reads the same
    (see the module docstring), else by YAML."""
    if _yaml_reads_as_json(text):
        try:
            return json.loads(text, parse_float=_not_json, parse_constant=_not_json)
        except (ValueError, RecursionError):
            pass
    import yaml

    stream = io.StringIO(text)
    stream.name = path  # YAML's messages name the file, as when it reads the file itself
    try:
        return yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc


def _require_character(cfg: JobConfig) -> Character:
    if cfg.character is None:
        raise ConfigError("this subcommand needs a character block")
    return cfg.character


def _one_field(cfg: JobConfig, *scalars: Scalar) -> None:
    """Refuse the algebra's constants (made of s s' and s/s') and scalars in two quadratic extensions."""
    constants = [x for s, sp in zip(cfg.params.sigma, cfg.params.sigma_prime) for x in (s * sp, s / sp)]
    squares = sorted({x.d for x in (*constants, *scalars) if isinstance(x, QuadExt)})
    if len(squares) > 1:
        raise IncompatibleData(f"mixed quadratic extensions: sqrt({squares[0]}) vs sqrt({squares[1]}) in the config")


def _emit(report: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(serial.dumps(report))
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


def cmd_weight_space(cfg: JobConfig, args) -> int:
    """weight-space, and gen-weight-space up to n_cap, on the ball of the config."""
    tau = _require_character(cfg)
    eigen = cfg.eigen_character or tau
    _one_field(cfg, *tau.values, *eigen.values)
    alg = HeckeAlgebra(cfg.system, cfg.params)
    series = PrincipalSeries(alg, tau)
    ball = cfg.bounds["ball"]
    size = len(alg.group.ball(ball))
    generalized = args.command == "gen-weight-space"
    if generalized:
        basis = series.generalized_weight_space(eigen, ball, cfg.bounds["n_cap"])
    else:
        basis = series.weight_space(eigen, ball)
    report = _base_report(args.command, cfg)
    report["result"] = {
        "domain_ball": ball,
        "domain_size": size,
        "dimension": len(basis),
        "basis": [serial.vector_to_obj(x) for x in basis],
    }
    if generalized:
        report["result"]["n_cap"] = cfg.bounds["n_cap"]
    lines = [f"domain: ball of length <= {ball} ({size} elements)", f"dimension: {len(basis)}"]
    for x in basis:
        lines.append("  " + " + ".join(f"{serial.scalar_to_obj(c)}*T{serial.word_to_obj(w)}" for w, c in x.items()))
    _emit(report, args.format, lines)
    return 0


def cmd_ord(cfg: JobConfig, args) -> int:
    tau = _require_character(cfg)
    if not cfg.vector:
        raise ConfigError("ord needs a vector block in the config")
    _one_field(cfg, *tau.values, *(c for _, c in cfg.vector))
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
    from .identities import run_suite

    tau = cfg.character or Character.trivial(cfg.system.rank)
    _one_field(cfg, *tau.values)
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
    "gen-weight-space": (cmd_weight_space, True),
    "ord": (cmd_ord, True),
    "verify-identities": (cmd_verify_identities, True),
    "example-lemma37": (cmd_example_lemma37, False),
}


# flags that a BLHECKE_<FLAG> variable sets when they are absent, with the
# value taken when neither is given
ENV_FLAGS = {
    "config": None,
    "format": "text",
    "seed": 0,
    "bound-coroot": None,
    "bound-length": None,
    "expect": None,
}


# one parser: the command, then the flags every command takes
PARSER = argparse.ArgumentParser(
    prog="blhecke",
    description="Exact Bernstein-Lusztig-Hecke computations over Kac-Moody root data",
)
PARSER.add_argument("--version", action="version", version=f"blhecke {__version__}")
PARSER.add_argument("command", choices=COMMANDS)
PARSER.add_argument("--config", help="path to the YAML config")
PARSER.add_argument("--format", choices=("text", "json"), help="report format (default text)")
PARSER.add_argument("--seed", type=int, help="seed for randomized checks (default 0)")
PARSER.add_argument("--samples", type=int, default=25, help="sample count for randomized checks")
PARSER.add_argument("--bound-coroot", type=int, help="override coroot height bound")
PARSER.add_argument("--bound-length", type=int, help="override Weyl length bound")
PARSER.add_argument(
    "--expect", choices=("irreducible", "reducible"), help="exit 1 when the kato verdict differs"
)


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv once, then give each absent flag its BLHECKE_ variable,
    parsed as that flag with the command into the same namespace (so a bad
    value exits 2 like a bad flag), or else its fallback."""
    args = PARSER.parse_args(argv)
    extra = []
    for flag, fallback in ENV_FLAGS.items():
        dest = flag.replace("-", "_")
        if getattr(args, dest) is None:
            value = os.environ.get(ENV_PREFIX + dest.upper())
            if value is None:
                setattr(args, dest, fallback)
            else:
                extra.append(f"--{flag}={value}")
    if extra:
        PARSER.parse_args([args.command, *extra], namespace=args)
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    handler, needs_config = COMMANDS[args.command]
    try:
        if args.samples <= 0:
            raise ConfigError(f"--samples must be a positive integer, got {args.samples}")
        cfg = None
        if needs_config:
            if not args.config:
                raise ConfigError("missing --config (or BLHECKE_CONFIG)")
            try:
                cfg = load_config(args.config)
                _datum_table.once((cfg.system, cfg.params), lambda: validate_system(cfg.system, cfg.params))
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
