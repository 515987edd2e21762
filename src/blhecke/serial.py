"""JSON-facing encoders and exact scalar parsing.

Scalars serialize as exact rational strings "p/q"; when the quadratic
extension is active, as {"a": "p/q", "b": "p/q", "square": "d"} meaning
a + b*sqrt(square).  Weyl words serialize as 1-based integer lists.

`dumps` writes `json.dumps(report, sort_keys=True, indent=2)` byte for byte
without `json`'s pure-Python encoder, which it runs whenever `indent` is
given: it walks dicts, lists and tuples and writes each leaf as `json` does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .coxeter import WeylElement
from .errors import ConfigError
from .laurent import Character
from .principal import ModuleVector
from .rootdata import Coroot, ParameterSet, RootGeneratingSystem
from .scalars import QuadExt, Scalar, quadext
from .stabilizer import KatoVerdict, TauAnalysis


def scalar_to_obj(x: Scalar):
    if isinstance(x, QuadExt):
        return {"a": str(x.a), "b": str(x.b), "square": str(x.d)}
    x = Fraction(x)
    return str(x)


def parse_rational(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not an exact rational: {text!r}") from exc


def scalar_from_obj(obj, square=None) -> Scalar:
    """Parse "p/q", an int, or {"a":..., "b":...} (with an extension square)."""
    if isinstance(obj, dict):
        d = obj.get("square", square)
        if d is None:
            raise ConfigError("extension scalar given without a square")
        return quadext(parse_rational(obj.get("a", 0)), parse_rational(obj.get("b", 0)), parse_rational(d))
    if isinstance(obj, (int, str)):
        return parse_rational(obj)
    raise ConfigError(f"unrecognized scalar encoding: {obj!r}")


def word_to_obj(w: WeylElement) -> list[int]:
    return [i + 1 for i in w.word]


def coroot_to_obj(c: Coroot) -> list[int]:
    return list(c.coords)


def vector_to_obj(x: ModuleVector) -> list:
    return [{"word": word_to_obj(w), "value": scalar_to_obj(c)} for w, c in x.items()]


def character_to_obj(tau: Character) -> list:
    return [scalar_to_obj(v) for v in tau.values]


def datum_to_obj(sys: RootGeneratingSystem) -> dict:
    return {
        "matrix": [list(r) for r in sys.matrix.entries],
        "rank": sys.rank,
        "simple_roots": [list(r) for r in sys.simple_roots],
        "simple_coroots": [list(r) for r in sys.simple_coroots],
    }


def parameters_to_obj(params: ParameterSet) -> dict:
    return {
        "sigma": [scalar_to_obj(s) for s in params.sigma],
        "sigma_prime": [scalar_to_obj(s) for s in params.sigma_prime],
    }


def analysis_to_obj(analysis: TauAnalysis) -> dict:
    return {
        "bounds": {"coroot_height": analysis.coroot_bound, "weyl_length": analysis.length_bound},
        "character": character_to_obj(analysis.character),
        "phi_tau": [coroot_to_obj(c) for c in analysis.phi_tau],
        "sigma_tau": [coroot_to_obj(c) for c in analysis.sigma_tau],
        "s_tau_words": [word_to_obj(w) for w in analysis.s_tau],
        "ball_sizes": {
            "w_tau": len(analysis.w_tau_ball),
            "w_paren_tau": len(analysis.w_paren_tau_ball),
            "r_tau": len(analysis.r_tau_ball),
        },
        "w_tau_words": [word_to_obj(w) for w in analysis.w_tau_ball],
        "w_paren_tau_words": [word_to_obj(w) for w in analysis.w_paren_tau_ball],
        "r_tau_words": [word_to_obj(w) for w in analysis.r_tau_ball],
        "sigma_pp": [
            {"coroot": coroot_to_obj(c), "value": scalar_to_obj(v)} for c, v in analysis.sigma_pp
        ],
        "rho_witness": None if analysis.rho_witness is None else scalar_to_obj(analysis.rho_witness),
        "u_c": {
            "status": analysis.u_c.status,
            "witness": None if analysis.u_c.witness is None else coroot_to_obj(analysis.u_c.witness),
        },
    }


def verdict_to_obj(verdict: KatoVerdict) -> dict:
    return {
        "status": verdict.status,
        "bounds": {"coroot_height": verdict.coroot_bound, "weyl_length": verdict.length_bound},
        "absolute": verdict.absolute,
        "witness_coroot": None if verdict.witness_coroot is None else coroot_to_obj(verdict.witness_coroot),
        "witness_element": None if verdict.witness_element is None else word_to_obj(verdict.witness_element),
    }


def dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte."""
    out: list[str] = []
    _dump(obj, "\n", out)
    return "".join(out)


def _dump(obj, newline: str, out: list[str]) -> None:
    """Append obj, whose line starts after `newline`, as `json` writes it."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):  # sorted as sort_keys sorts, before the keys are written
            out.append(sep + _string(key if isinstance(key, str) else _leaf(key)) + ": ")
            _dump(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _dump(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_leaf(obj))


def _leaf(obj) -> str:
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (math.inf, -math.inf):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
