import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import blhecke
from blhecke import cli, serial
from blhecke.cli import JobConfig, main
from blhecke.errors import ConfigError
from blhecke.memo import GROUP_CAP, Memo
from blhecke.rootdata import KacMoodyMatrix, RootGeneratingSystem, standard_system

A1_ADJOINT = {
    "datum": {"matrix": [[2]], "rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
    "parameters": {"q": "4"},
    "character": {"values": ["-1"]},
    "bounds": {"coroot_height": 6, "weyl_length": 3, "ball": 2},
}

A2 = {
    "datum": {"matrix": [[2, -1], [-1, 2]]},
    "parameters": {"q": "4"},
    "character": {"values": ["1", "1"]},
    "vector": [{"word": [1], "coeff": "1"}],
    "bounds": {"coroot_height": 6, "weyl_length": 4, "ball": 3},
}


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def write_json(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, A2)
    assert main(["validate", "--config", path]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_diagonal_violation(tmp_path, capsys):
    bad = {"datum": {"matrix": [[1]]}, "parameters": {"q": "4"}}
    path = write_config(tmp_path, bad)
    assert main(["validate", "--config", path]) == 2
    out = capsys.readouterr().out
    assert "DiagonalNot2" in out and "a[0,0]" in out


@pytest.mark.parametrize("datum", [
    {"matrix": [[2, 1], [-1, 2]]},
    {"matrix": [[2, 1], [-1, 2]], "rank": 2, "simple_roots": [[2, -1], [1, 2]], "simple_coroots": [[1, 0], [0, 1]]},
], ids=["bare", "explicit"])
def test_validate_reports_sign_violation(tmp_path, capsys, datum):
    path = write_config(tmp_path, {"datum": datum, "parameters": {"q": "4"}})
    assert main(["validate", "--config", path, "--format", "json"]) == 2
    report = capsys.readouterr()
    result = json.loads(report.out)["result"]
    assert result["ok"] is False and result["violation"] == "SignViolation"
    assert "a[0,1]" in result["message"]
    assert main(["kato", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: SignViolation: ")


def test_config_error_named_on_stderr(tmp_path, capsys):
    path = write_config(tmp_path, dict(A2, bounds={"x": 1}))
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err == "error: ConfigError: unknown bound 'x'\n"


def test_validate_parameter_violation(tmp_path, capsys):
    bad = {
        "datum": {"matrix": [[2, -1], [-1, 2]]},
        "parameters": {"sigma": ["2", "3"], "sigma_prime": ["2", "3"]},
    }
    path = write_config(tmp_path, bad)
    assert main(["validate", "--config", path]) == 2
    report = capsys.readouterr()
    assert "ParameterConstraintViolation" in report.out or "conjugate" in report.err


@pytest.mark.parametrize("command", ["validate", "kato", "analyze-tau"])
@pytest.mark.parametrize("cfg", [A2, A1_ADJOINT], ids=["standard", "explicit"])
def test_one_validation_per_call(tmp_path, capsys, monkeypatch, command, cfg):
    """A process validates a datum once, and builds a standard datum once,
    however many calls read it."""
    calls = []
    validate = RootGeneratingSystem.validate
    builds = []

    def counted(self):
        calls.append(self)
        validate(self)

    def built(matrix):
        builds.append(matrix)
        return standard_system(matrix)

    monkeypatch.setattr(cli, "_datum_table", Memo(GROUP_CAP))
    monkeypatch.setattr(RootGeneratingSystem, "validate", counted)
    monkeypatch.setattr(cli, "standard_system", built)
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", path]) == 0
    assert main([command, "--config", path]) == 0
    assert len(calls) == 1
    assert len(builds) == (1 if cfg is A2 else 0)  # A1_ADJOINT gives its datum explicitly


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_datum_table_masks_no_error(tmp_path, capsys, monkeypatch):
    """Invalid configs fail after a valid call on the same datum exactly as in
    a fresh process: a failed build or validation stores nothing."""
    good = write_config(tmp_path, A2, "good.yaml")
    conjugate = write_config(tmp_path, dict(A2, parameters={"sigma": ["2", "3"]}), "conjugate.yaml")
    sign = write_config(tmp_path, {"datum": {"matrix": [[2, 1], [-1, 2]]}, "parameters": {"q": "4"}}, "sign.yaml")
    calls = [["kato", "--config", good], ["kato", "--config", conjugate],
             ["validate", "--config", sign, "--format", "json"]]
    monkeypatch.setattr(cli, "_datum_table", Memo(GROUP_CAP))
    shared = [_run(argv, capsys) for argv in calls]
    assert shared[0][0] == 0
    assert shared[1][0] == 2 and shared[1][1] == "" and "conjugate" in shared[1][2]
    assert shared[2][0] == 2 and json.loads(shared[2][1])["result"]["violation"] == "SignViolation"
    for argv, result in zip(calls, shared):
        monkeypatch.setattr(cli, "_datum_table", Memo(GROUP_CAP))
        assert _run(argv, capsys) == result


def test_datum_table_stays_at_cap(monkeypatch):
    monkeypatch.setattr(cli, "_datum_table", Memo(GROUP_CAP))
    matrices = [[[2, -k], [-1, 2]] for k in range(1, GROUP_CAP + 4)]
    systems = [JobConfig.parse({"datum": {"matrix": m}, "parameters": {"q": "4"}}).system for m in matrices]
    table = cli._datum_table
    assert len(table) == GROUP_CAP
    keys = [KacMoodyMatrix.make(m) for m in matrices]
    assert all(k not in table for k in keys[:3]) and all(table[k] is s for k, s in zip(keys[3:], systems[3:]))
    again = JobConfig.parse({"datum": {"matrix": matrices[0]}, "parameters": {"q": "4"}}).system
    assert again == systems[0] and again is not systems[0]  # rebuilt after its eviction
    assert len(table) == GROUP_CAP


@pytest.mark.parametrize("command", ["kato", "analyze-tau"])
def test_invalid_config_rejected_before_computing(tmp_path, capsys, command):
    bad = dict(A2, parameters={"sigma": ["2", "3"]})
    path = write_config(tmp_path, bad)
    assert main([command, "--config", path]) == 2
    report = capsys.readouterr()
    assert report.out == ""
    assert "conjugate" in report.err


def test_invalid_explicit_datum_rejected(tmp_path, capsys):
    bad = dict(A1_ADJOINT, datum={"matrix": [[2]], "rank": 1, "simple_roots": [[3]], "simple_coroots": [[1]]})
    path = write_config(tmp_path, bad)
    assert main(["kato", "--config", path]) == 2
    assert "alpha_0(alpha_0^vee) = 3" in capsys.readouterr().err


def test_kato_reducible_with_expect(tmp_path, capsys):
    path = write_config(tmp_path, A1_ADJOINT)
    assert main(["kato", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "Reducible" in out and "witness element" in out
    assert main(["kato", "--config", path, "--expect", "reducible"]) == 0
    assert main(["kato", "--config", path, "--expect", "irreducible"]) == 1


def test_kato_uc_witness(tmp_path, capsys):
    cfg = dict(A1_ADJOINT)
    cfg["character"] = {"values": ["4"]}
    path = write_config(tmp_path, cfg)
    assert main(["kato", "--config", path]) == 0
    assert "witness coroot: [1]" in capsys.readouterr().out


def test_weight_space_dimension(tmp_path, capsys):
    path = write_config(tmp_path, A1_ADJOINT)
    assert main(["weight-space", "--config", path]) == 0
    assert "dimension: 2" in capsys.readouterr().out


def test_gen_weight_space(tmp_path, capsys):
    path = write_config(tmp_path, A1_ADJOINT)
    assert main(["gen-weight-space", "--config", path]) == 0
    assert "dimension: 2" in capsys.readouterr().out


def test_ord_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, A2)
    assert main(["ord", "--config", path]) == 0
    assert "ord_tau = 2" in capsys.readouterr().out


def test_ord_failure_names_vector_and_character(tmp_path, capsys):
    # tau = (1, 4): T_s2 v lies in no generalized weight space of tau
    cfg = dict(A2, character={"values": ["1", "4"]}, vector=[{"word": [2]}])
    path = write_config(tmp_path, cfg)
    assert main(["ord", "--config", path]) == 2
    report = capsys.readouterr()
    assert report.out == ""
    assert report.err.startswith("error: NotInGenWeightSpace: ")
    assert "support [s2]" in report.err and "tau = (1, 4)" in report.err


def test_roots_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, A2)
    assert main(["roots", "--config", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["count"] == 6


def test_one_enumeration_per_bound_across_calls(tmp_path, capsys, monkeypatch):
    """The enumerations belong to the datum's Weyl group: on a cold group
    memo, five subcommands on one config (coroot height 6, Weyl length 4,
    ball 3) enumerate the coroots once and each ball once."""
    import sys

    from blhecke import coxeter, rootdata
    from blhecke.memo import Memo

    group = coxeter.WeylGroup(JobConfig.parse(A2).system)
    monkeypatch.setattr(group, "memo", Memo())
    calls = []
    for owner, name in ((coxeter, "enumerate_ball"), (rootdata, "enumerate_coroots")):
        original = getattr(owner, name)

        def counted(system, bound, _name=name, _original=original):
            calls.append((_name, bound))
            return _original(system, bound)

        for module_name, module in list(sys.modules.items()):  # every binding, as `from x import f` makes
            if module_name.startswith("blhecke") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    path = write_config(tmp_path, A2)
    for command in ("roots", "weight-space", "gen-weight-space", "kato", "analyze-tau"):
        assert main([command, "--config", path]) == 0
    assert sorted(calls) == [("enumerate_ball", 3), ("enumerate_ball", 4), ("enumerate_coroots", 6)]


def test_kato_reducible_reported_as_proven(tmp_path, capsys):
    assert main(["kato", "--config", write_config(tmp_path, A1_ADJOINT), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["absolute"] is True
    assert main(["kato", "--config", write_config(tmp_path, A1_ADJOINT)]) == 0
    assert "proven by its witness" in capsys.readouterr().out


def test_analyze_tau_json_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, A2)
    assert main(["analyze-tau", "--config", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze-tau", "--config", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["library_version"]
    assert report["bounds"]["coroot_height"] == 6
    assert report["result"]["ball_sizes"]["w_tau"] == 6


def test_verify_identities(tmp_path, capsys):
    path = write_config(tmp_path, A2)
    code = main(["verify-identities", "--config", path, "--seed", "5", "--samples", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "(seed 5)" in out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_samples_rejected(tmp_path, capsys, samples):
    path = write_config(tmp_path, A2)
    assert main(["verify-identities", "--config", path, "--samples", samples]) == 2
    report = capsys.readouterr()
    assert report.out == ""
    assert "--samples must be a positive integer" in report.err


def test_verify_identities_seeded_reports_identical(tmp_path, capsys):
    path = write_config(tmp_path, A2)
    main(["verify-identities", "--config", path, "--seed", "5", "--samples", "3", "--format", "json"])
    first = capsys.readouterr().out
    main(["verify-identities", "--config", path, "--seed", "5", "--samples", "3", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_example_lemma37(capsys):
    assert main(["example-lemma37"]) == 0
    assert "5/5 conjugates certified in S_tau" in capsys.readouterr().out


def test_missing_config_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("BLHECKE_CONFIG", raising=False)
    assert main(["kato"]) == 2


def test_env_override(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, A2)
    monkeypatch.setenv("BLHECKE_CONFIG", path)
    monkeypatch.setenv("BLHECKE_FORMAT", "json")
    assert main(["roots"]) == 0
    json.loads(capsys.readouterr().out)


def test_env_fallbacks_after_one_parse(tmp_path, capsys, monkeypatch):
    """BLHECKE_ variables fill the flags that argv leaves absent, and a flag
    given in argv keeps its value."""
    path = write_config(tmp_path, A2)
    monkeypatch.setenv("BLHECKE_FORMAT", "json")
    monkeypatch.setenv("BLHECKE_SEED", "3")
    assert main(["verify-identities", "--config", path, "--samples", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3
    assert main(["verify-identities", "--config", path, "--samples", "2", "--seed", "5", "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("(seed 5)")


def test_bound_flag_override(tmp_path, capsys):
    path = write_config(tmp_path, A2)
    assert main(["roots", "--config", path, "--bound-coroot", "1", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["count"] == 4  # only the simple coroots and negatives


def test_config_roundtrip(tmp_path):
    path = write_config(tmp_path, A1_ADJOINT)
    from blhecke.cli import load_config

    cfg = load_config(path)
    again = JobConfig.parse(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_extension_config(tmp_path, capsys):
    cfg = {
        "datum": {"matrix": [[2]], "rank": 1, "simple_roots": [[1]], "simple_coroots": [[2]]},
        "parameters": {"q": "4"},
        "character": {"values": [{"a": "0", "b": "1"}], "extension": {"square": "-1"}},
        "bounds": {"coroot_height": 5, "weyl_length": 2, "ball": 1},
    }
    path = write_config(tmp_path, cfg)
    assert main(["kato", "--config", path]) == 0
    assert "Irreducible" in capsys.readouterr().out  # W_tau = {e} = W_(tau)


def test_nonsquare_q_uses_extension(tmp_path, capsys):
    cfg = {
        "datum": {"matrix": [[2]], "rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
        "parameters": {"q": "3"},
        "character": {"values": ["1"]},
        "bounds": {"coroot_height": 4, "weyl_length": 2, "ball": 1},
    }
    path = write_config(tmp_path, cfg)
    assert main(["kato", "--config", path]) == 0
    assert "Irreducible" in capsys.readouterr().out


def test_nonsquare_q_beside_gaussian_character(tmp_path, capsys):
    # sigma = sqrt(2) and tau(alpha_1^vee) = i lie in different quadratic extensions,
    # but with sigma' = sigma the algebra's constants s s' = 2 and s/s' = 1 are rational
    cfg = dict(A2, parameters={"q": "2"},
               character={"values": [{"a": "0", "b": "1"}, "1"], "extension": {"square": "-1"}})
    path = write_config(tmp_path, cfg)
    assert main(["kato", "--config", path]) == 0
    assert "Irreducible" in capsys.readouterr().out
    assert main(["analyze-tau", "--config", path]) == 0
    for command in ("weight-space", "gen-weight-space", "verify-identities"):
        assert main([command, "--config", path]) == 0, command


def test_square_with_a_square_factor_is_one_field(tmp_path, capsys):
    """sigma = sqrt(8) = 2 sqrt(2) beside tau(alpha^vee) = sqrt(2) on A1 with
    alpha(Y) = 2Z: one field, so the subcommands that multiply them compute."""
    cfg = {
        "datum": {"matrix": [[2]], "rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
        "parameters": {"sigma": [{"a": "0", "b": "1", "square": "8"}], "sigma_prime": ["2"]},
        "character": {"values": [{"a": "0", "b": "1"}], "extension": {"square": "2"}},
    }
    path = write_config(tmp_path, cfg)
    for command in ("weight-space", "gen-weight-space"):
        assert main([command, "--config", path]) == 0, command
        assert "dimension: 1" in capsys.readouterr().out.splitlines(), command
    assert main(["verify-identities", "--config", path]) == 0
    assert "24/24 checks passed (seed 0)" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command", ["weight-space", "gen-weight-space", "ord", "verify-identities"])
def test_mixed_extensions_named_on_stderr(tmp_path, capsys, monkeypatch, command):
    """The subcommands that multiply parameters, character and vector exit 2
    on two quadratic extensions before they build an algebra: sigma = sqrt(2)
    beside tau(alpha^vee) = i, and (for ord) q = 4 and tau = i beside a
    coefficient sqrt(2).  The stabilizer only compares t with the parameter
    roots, so validate, roots, kato and analyze-tau still run."""
    mixed = {
        "datum": {"matrix": [[2]], "rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
        "parameters": {"sigma": [{"a": "0", "b": "1", "square": "2"}], "sigma_prime": ["2"]},
        "character": {"values": [{"a": "0", "b": "1"}], "extension": {"square": "-1"}},
        "vector": [{"word": [1]}],
    }
    vector = dict(mixed, parameters={"q": "4"}, vector=[{"word": [1], "coeff": {"a": "0", "b": "1", "square": "2"}}])
    configs = [write_config(tmp_path, mixed, "mixed.yaml")]
    if command == "ord":
        configs.append(write_config(tmp_path, vector, "vector.yaml"))
    for path in configs:
        for runs in ("validate", "roots", "kato", "analyze-tau"):
            assert main([runs, "--config", path]) == 0, (path, runs)
    capsys.readouterr()

    def computes(*args):
        raise AssertionError("an algebra was built before the extensions were checked")

    monkeypatch.setattr("blhecke.cli.HeckeAlgebra", computes)
    for path in configs:
        assert main([command, "--config", path]) == 2, path
        err = capsys.readouterr().err
        assert err.startswith("error: IncompatibleData: mixed quadratic extensions: sqrt(-1) vs sqrt(2)"), err


def test_bad_bound_rejected(tmp_path):
    cfg = dict(A2)
    cfg["bounds"] = {"coroot_height": 0}
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2


@pytest.mark.parametrize("flag", ["--bound-coroot", "--bound-length"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_bad_bound_flag_rejected(tmp_path, capsys, flag, value):
    path = write_config(tmp_path, A2)
    assert main(["kato", "--config", path, flag, value]) == 2
    report = capsys.readouterr()
    assert report.out == ""
    assert "must be positive" in report.err


def test_bad_bound_env_rejected(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, A2)
    monkeypatch.setenv("BLHECKE_BOUND_LENGTH", "0")
    assert main(["kato", "--config", path]) == 2
    assert "bound weyl_length must be positive" in capsys.readouterr().err


def test_non_integer_bound_rejected(tmp_path, capsys):
    for value in ("two", 6.9, True, "3"):  # int() would read the last three as 6, 1 and 3
        path = write_config(tmp_path, dict(A2, bounds={"ball": value}))
        assert main(["weight-space", "--config", path]) == 2, value
        report = capsys.readouterr()
        assert report.out == ""
        assert f"bound ball must be an integer, got {value!r}" in report.err


def test_malformed_yaml_rejected(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("datum: {matrix: [[2, -1], [-1, 2]]\nparameters: [unclosed\n")
    assert main(["kato", "--config", str(path)]) == 2
    report = capsys.readouterr()
    assert report.out == ""
    assert "malformed YAML" in report.err


MALFORMED = {  # config changes that kato rejects, by test id
    "extension-not-mapping": {"character": {"values": ["1", "1"], "extension": "-1"}},
    "vector-record-not-mapping": {"vector": ["1"]},
    "bounds-not-mapping": {"bounds": ["ball", 2]},
    "parameters-not-mapping": {"parameters": "q=4"},
    "matrix-not-list": {"datum": {"matrix": "2 -1 -1 2"}},
    "matrix-entry-not-integer": {"datum": {"matrix": [[2, -1], [-1, "two"]]}},
    "character-value-zero": {"character": {"values": ["0", "1"]}},
    "character-values-not-list": {"character": {"values": "11"}},
    "eigen-character-short": {"eigen_character": {"values": ["1"]}},
    "unknown-bound-dominance-cap": {"bounds": {"dominance_cap": 60}},
    "unknown-bound-probe-coeff": {"bounds": {"probe_coeff": 5}},
    "unknown-top-level-key": {"bound": {"ball": 1}},
    "unknown-datum-key": {"datum": {"matrix": [[2, -1], [-1, 2]], "ranks": 2}},
    "datum-without-coroots": {"datum": {"matrix": [[2]], "rank": 1, "simple_roots": [[1]]}, "character": {"values": ["-1"]}},
    "datum-coroots-only": {"datum": {"matrix": [[2, -1], [-1, 2]], "simple_coroots": [[1, 0], [0, 1]]}},
    "unknown-parameters-key": {"parameters": {"q": "4", "sigma_primes": ["2", "2"]}},
    "q-beside-sigma": {"parameters": {"q": "4", "sigma": ["2", "3"]}},
    "q-beside-sigma-prime": {"parameters": {"q": "4", "sigma_prime": ["2", "3"]}},
    "unknown-character-key": {"character": {"values": ["1", "1"], "value": ["-1", "-1"]}},
    "unknown-extension-key": {"character": {"values": ["1", "1"], "extension": {"square": "-1", "sqare": "2"}}},
    "unknown-eigen-character-key": {"eigen_character": {"values": ["1", "1"], "extension": {"square": "-1"}}},
    "unknown-vector-key": {"vector": [{"word": [1], "coeff": "1", "coef": "2"}]},
}


@pytest.mark.parametrize("change", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_config_rejected(tmp_path, capsys, change):
    path = write_config(tmp_path, dict(A2, **change))
    assert main(["kato", "--config", path]) == 2
    report = capsys.readouterr()
    assert report.out == ""
    assert report.err.startswith("error: ")


IGNORED = {  # config changes that name the key the parser would ignore, by test id
    "top-level": ({"bound": {"ball": 1}}, "unknown key bound"),
    "extension": ({"character": {"values": ["1", "1"], "extension": {"sqare": "2"}}}, "unknown key character.extension.sqare"),
    "vector-record": ({"vector": [{"word": [1], "value": "2"}]}, "unknown key vector.value"),
    "partial-datum": ({"datum": {"matrix": [[2, -1], [-1, 2]], "rank": 2}}, "datum gives only rank of rank, simple_roots, simple_coroots"),
}


@pytest.mark.parametrize("change, named", list(IGNORED.values()), ids=list(IGNORED))
def test_ignored_key_named(tmp_path, capsys, change, named):
    path = write_config(tmp_path, dict(A2, **change))
    assert main(["weight-space", "--config", path]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value, flag",
    [
        ("SEED", "x", ["--seed", "3"]),
        ("FORMAT", "xml", ["--format", "text"]),
        ("EXPECT", "maybe", ["--expect", "irreducible"]),
    ],
)
def test_bad_env_value_rejected(tmp_path, capsys, monkeypatch, name, value, flag):
    path = write_config(tmp_path, A2)
    monkeypatch.setenv("BLHECKE_" + name, value)
    with pytest.raises(SystemExit) as exc:
        main(["kato", "--config", path])
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err
    assert main(["kato", "--config", path, *flag]) == 0  # the flag wins over the variable


# -- config text, reports and argv: the same bytes for less work ----------------------

def test_undecodable_config_rejected(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"datum: {matrix: [[2]]}\ncharacter: {values: ['\xe9']}\n")
    assert main(["kato", "--config", str(path)]) == 2
    report = capsys.readouterr()
    assert report.out == ""
    assert report.err.startswith(f"error: ConfigError: cannot read config {path}: 'utf-8' codec can't decode")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit here")
@pytest.mark.parametrize("text", ['{{"bounds": {{"ball": {}}}}}', "bounds: {{ball: {}}}\n"], ids=["json", "yaml"])
def test_oversized_integer_rejected(tmp_path, capsys, text):
    path = tmp_path / "big.yaml"
    path.write_text(text.format("9" * (sys.get_int_max_str_digits() + 1)))
    assert main(["kato", "--config", str(path)]) == 2
    report = capsys.readouterr()
    assert report.out == ""
    assert report.err.startswith(f"error: ConfigError: cannot read config {path}: Exceeds the limit")


SPELLED_CONFIGS = {
    "A2": A2,
    "A1_ADJOINT": A1_ADJOINT,
    **{f"malformed-{key}": dict(A2, **change) for key, change in MALFORMED.items()},
    **{f"ignored-{key}": dict(A2, **change) for key, (change, _) in IGNORED.items()},
}


@pytest.fixture
def yaml_loads(monkeypatch):
    """The texts that reach yaml.load, in order."""
    texts = []
    load = yaml.load

    def counted(stream, Loader):
        texts.append(stream.getvalue())
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", counted)
    return texts


@pytest.mark.parametrize("cfg", list(SPELLED_CONFIGS.values()), ids=list(SPELLED_CONFIGS))
def test_json_and_yaml_spellings_agree(tmp_path, capsys, yaml_loads, cfg):
    """A config written by json.dumps, which `json` reads, and by
    yaml.safe_dump, which YAML reads, gives the same bytes and exit code."""
    as_json, as_yaml = write_json(tmp_path, cfg), write_config(tmp_path, cfg)
    for command in ("kato", "analyze-tau", "weight-space", "gen-weight-space", "ord"):
        runs = [_run([command, "--config", path, "--format", "json"], capsys) for path in (as_json, as_yaml)]
        assert runs[0] == runs[1], command
    assert yaml_loads == [Path(as_yaml).read_text()] * 5


def _outcome(read, text):
    """What read(text) gives, with every type spelled out, or that it failed."""
    def typed(x):
        if isinstance(x, dict):
            return "dict", [(typed(k), typed(v)) for k, v in x.items()]
        if isinstance(x, list):
            return "list", [typed(v) for v in x]
        return type(x).__name__, repr(x)

    try:
        return typed(read(text))
    except (ConfigError, ValueError, yaml.YAMLError):
        return "error"


def _yaml_reads(text, load=yaml.load):
    return load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


FUZZ_STRINGS = ["", "a", "b", "<<", "1e3", "yes", "null", "~", "#x", "? x", "a: b", "'", '"', "\\", "/", "\t",
                "\x7f", "\x00", "\x85", "\xe9", "\u2603", "\ud800", "!tag", "&a", "*a", "%YAML", "---", "...",
                "2001-12-14", "0x1F", "017", "1_000", "+5", ".5", "1:20", " lead", "trail ", "k" * 600, "k" * 1100]


def _fuzz_value(rng, depth=0, floats=True):
    """A nested value of the kinds a config or a report holds, and some it never does."""
    kind = rng.random()
    if depth < 3 and kind < 0.25:
        return [_fuzz_value(rng, depth + 1, floats) for _ in range(rng.randint(0, 4))]
    if depth < 3 and kind < 0.5:
        return {rng.choice(FUZZ_STRINGS): _fuzz_value(rng, depth + 1, floats) for _ in range(rng.randint(0, 4))}
    leaves = [rng.randint(-9, 9), rng.randint(-10**30, 10**30), rng.choice([True, False, None]), rng.choice(FUZZ_STRINGS)]
    if floats:
        leaves.append(rng.choice([0.0, -0.0, 1.5, 1e3, 1e300, -2.5e-7, math.nan, math.inf, -math.inf]))
    return rng.choice(leaves)


def test_loader_fuzz_matches_yaml(yaml_loads):
    """Seeded texts in several json.dumps layouts, some with a token or
    whitespace spliced in: what the loader reads, by either path, is what
    YAML reads, types and all, and a text YAML rejects is rejected."""
    rng = random.Random(34)
    layouts = [{}, {"indent": 2}, {"indent": 0}, {"separators": (",", ":")}, {"indent": "\t"}, {"ensure_ascii": False}]
    splices = ["", "", " ", "\n", "\t", "\n : ", "1e3", "1.5e+3", "NaN", "#c", "\\u0041", "\x7f", "\xe9", " " * 600]
    by_json = 0
    for _ in range(4000):
        text = json.dumps(_fuzz_value(rng, floats=rng.random() < 0.3), **rng.choice(layouts))
        cut = rng.randint(0, len(text))
        text = text[:cut] + rng.choice(splices) + text[cut:]
        seen = len(yaml_loads)
        assert _outcome(lambda t: cli._config_data(t, "fuzz"), text) == _outcome(_yaml_reads, text), text
        by_json += len(yaml_loads) == seen
    assert by_json > 500, by_json  # the JSON path is exercised


@pytest.mark.parametrize("text", [
    "1e3", '{"a": 1.5e+3}', '{"a": NaN}', '\t{"a": 1}', '{"a": "\\u00e9"}', '{"a": "\xe9"}',
    '{"a": 1}  # a comment', "a: 1\nb: [2]\n", '{"a"\n: 1}', '{"%s": 1}' % ("k" * 1100), '{"a"%s: 1}' % (" " * 1100),
], ids=["exponent", "signed-exponent", "nan", "leading-tab", "u-escape", "non-ascii",
        "comment", "block-style", "key-line-break", "long-key", "long-key-gap"])
def test_text_goes_to_yaml(yaml_loads, text):
    assert _outcome(lambda t: cli._config_data(t, "text"), text) == _outcome(_yaml_reads, text)
    assert yaml_loads == [text]


def test_emitter_matches_json_dumps():
    rng = random.Random(34)
    for _ in range(3000):
        value = _fuzz_value(rng)
        if rng.random() < 0.2:
            value = tuple(value) if isinstance(value, list) else {rng.choice([3, -1.5, True, None]): value}
        assert serial.dumps(value) == json.dumps(value, sort_keys=True, indent=2), value


def test_reports_match_json_dumps(tmp_path, capsys, monkeypatch):
    """Every subcommand's report on A2 is written as json.dumps writes it."""
    reports = []
    dumps = serial.dumps

    def checked(report):
        reports.append(report["command"])
        text = dumps(report)
        assert text == json.dumps(report, sort_keys=True, indent=2)
        return text

    monkeypatch.setattr(serial, "dumps", checked)
    path = write_config(tmp_path, A2)
    for command in cli.COMMANDS:
        assert main([command, "--config", path, "--format", "json", "--samples", "2"]) == 0, command
    assert reports == list(cli.COMMANDS)


@pytest.mark.parametrize("write, loads_yaml", [(write_json, False), (write_config, True)], ids=["json", "yaml"])
def test_imports_follow_the_config(tmp_path, write, loads_yaml):
    """A call imports yaml only for a config that is not JSON, and the
    identities module not at all."""
    path = write(tmp_path, A2)
    code = ("import sys; from blhecke.cli import main; code = main(['kato', '--config', sys.argv[1]]); "
            "print(code, 'yaml' in sys.modules, 'blhecke.identities' in sys.modules)")
    env = {k: v for k, v in os.environ.items() if not k.startswith(cli.ENV_PREFIX)}
    env["PYTHONPATH"] = str(Path(blhecke.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, path], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads_yaml} False"


def test_subcommand_parsed_again_only_for_a_variable(tmp_path, capsys, monkeypatch):
    """With no BLHECKE_ variable, argv is parsed once and the absent flags
    take their fallbacks; a variable is parsed with the command, once more."""
    for flag in cli.ENV_FLAGS:
        monkeypatch.delenv(cli.ENV_PREFIX + flag.upper().replace("-", "_"), raising=False)
    parses = []
    parser = cli.PARSER
    parse = parser.parse_known_args

    def counted(*args):
        parses.append(args[0])
        return parse(*args)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    path = write_config(tmp_path, A2)
    args = cli._parse_args(["kato", "--config", path])
    assert parses == [["kato", "--config", path]]  # argv, in the one parse
    assert (args.format, args.seed, args.expect, args.bound_coroot) == ("text", 0, None, None)
    monkeypatch.setenv("BLHECKE_SEED", "3")
    args = cli._parse_args(["kato", "--config", path])
    assert parses[1:] == [["kato", "--config", path], ["kato", "--seed=3"]]
    assert (args.format, args.seed) == ("text", 3)
