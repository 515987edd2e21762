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
    assert "a[0,0]" in capsys.readouterr().err


def test_validate_parameter_violation(tmp_path, capsys):
    bad = {
        "datum": {"matrix": [[2, -1], [-1, 2]]},
        "parameters": {"sigma": ["2", "3"], "sigma_prime": ["2", "3"]},
    }
    path = write_config(tmp_path, bad)
    assert main(["validate", "--config", path]) == 2
    report = capsys.readouterr()
    assert "ParameterConstraintViolation" in report.out or "conjugate" in report.err


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


def test_bad_bound_rejected(tmp_path):
    cfg = dict(A2)
    cfg["bounds"] = {"coroot_height": 0}
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
