import json

import pytest
import yaml

from blhecke.cli import JobConfig, main

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
    from blhecke.rootdata import RootGeneratingSystem

    calls = []
    validate = RootGeneratingSystem.validate

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(RootGeneratingSystem, "validate", counted)
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 0
    assert len(calls) == 1


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
    from blhecke.memo import GROUP_DATA_CAP, Memo

    group = coxeter.WeylGroup(JobConfig.parse(A2).system)
    monkeypatch.setattr(group, "memo", Memo(GROUP_DATA_CAP))
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
    # sigma = sqrt(2) and tau(alpha_1^vee) = i lie in different quadratic extensions
    cfg = dict(A2, parameters={"q": "2"},
               character={"values": [{"a": "0", "b": "1"}, "1"], "extension": {"square": "-1"}})
    path = write_config(tmp_path, cfg)
    assert main(["kato", "--config", path]) == 0
    assert "Irreducible" in capsys.readouterr().out
    assert main(["analyze-tau", "--config", path]) == 0


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
    path = write_config(tmp_path, dict(A2, bounds={"ball": "two"}))
    assert main(["weight-space", "--config", path]) == 2
    assert "bound ball must be an integer" in capsys.readouterr().err


def test_malformed_yaml_rejected(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("datum: {matrix: [[2, -1], [-1, 2]]\nparameters: [unclosed\n")
    assert main(["kato", "--config", str(path)]) == 2
    report = capsys.readouterr()
    assert report.out == ""
    assert "malformed YAML" in report.err


@pytest.mark.parametrize(
    "change",
    [
        {"character": {"values": ["1", "1"], "extension": "-1"}},
        {"vector": ["1"]},
        {"bounds": ["ball", 2]},
        {"parameters": "q=4"},
        {"datum": {"matrix": "2 -1 -1 2"}},
        {"datum": {"matrix": [[2, -1], [-1, "two"]]}},
        {"character": {"values": ["0", "1"]}},
        {"character": {"values": "11"}},
        {"eigen_character": {"values": ["1"]}},
        {"bounds": {"dominance_cap": 60}},
        {"bounds": {"probe_coeff": 5}},
        {"bound": {"ball": 1}},
        {"datum": {"matrix": [[2, -1], [-1, 2]], "ranks": 2}},
        {"datum": {"matrix": [[2]], "rank": 1, "simple_roots": [[1]]}, "character": {"values": ["-1"]}},
        {"datum": {"matrix": [[2, -1], [-1, 2]], "simple_coroots": [[1, 0], [0, 1]]}},
        {"parameters": {"q": "4", "sigma_primes": ["2", "2"]}},
        {"parameters": {"q": "4", "sigma": ["2", "3"]}},
        {"parameters": {"q": "4", "sigma_prime": ["2", "3"]}},
        {"character": {"values": ["1", "1"], "value": ["-1", "-1"]}},
        {"character": {"values": ["1", "1"], "extension": {"square": "-1", "sqare": "2"}}},
        {"eigen_character": {"values": ["1", "1"], "extension": {"square": "-1"}}},
        {"vector": [{"word": [1], "coeff": "1", "coef": "2"}]},
    ],
    ids=[
        "extension-not-mapping",
        "vector-record-not-mapping",
        "bounds-not-mapping",
        "parameters-not-mapping",
        "matrix-not-list",
        "matrix-entry-not-integer",
        "character-value-zero",
        "character-values-not-list",
        "eigen-character-short",
        "unknown-bound-dominance-cap",
        "unknown-bound-probe-coeff",
        "unknown-top-level-key",
        "unknown-datum-key",
        "datum-without-coroots",
        "datum-coroots-only",
        "unknown-parameters-key",
        "q-beside-sigma",
        "q-beside-sigma-prime",
        "unknown-character-key",
        "unknown-extension-key",
        "unknown-eigen-character-key",
        "unknown-vector-key",
    ],
)
def test_malformed_config_rejected(tmp_path, capsys, change):
    path = write_config(tmp_path, dict(A2, **change))
    assert main(["kato", "--config", path]) == 2
    report = capsys.readouterr()
    assert report.out == ""
    assert report.err.startswith("error: ")


@pytest.mark.parametrize(
    "change, named",
    [
        ({"bound": {"ball": 1}}, "unknown key bound"),
        ({"character": {"values": ["1", "1"], "extension": {"sqare": "2"}}}, "unknown key character.extension.sqare"),
        ({"vector": [{"word": [1], "value": "2"}]}, "unknown key vector.value"),
        ({"datum": {"matrix": [[2, -1], [-1, 2]], "rank": 2}}, "datum gives only rank of rank, simple_roots, simple_coroots"),
    ],
    ids=["top-level", "extension", "vector-record", "partial-datum"],
)
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
