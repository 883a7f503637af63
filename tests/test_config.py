import pytest

from runner_manager.config import (
    Config,
    Policy,
    RepoCoordinates,
    load_config,
    parse_count,
    parse_duration,
)
from runner_manager.errors import ConfigError
from runner_manager.harness.scenario import script_from_dict


def test_defaults_match_paper_setup(tmp_path):
    token_file = tmp_path / "token"
    token_file.write_text("secret\n")
    config = load_config(
        [
            "--owner", "biocore",
            "--repo", "unifrac",
            "--labels", "self-hosted,linux-gpu-cuda",
            "--deployment", "gha-runner",
            "--github-token-file", str(token_file),
        ],
        {},
    )
    assert config.policy.max_runners == 1
    assert config.policy.force_interval == 84 * 3600
    assert config.policy.poll_interval == 60
    assert config.policy.min_dwell == 15 * 60
    assert config.github_api_base == "https://api.github.com"
    assert config.kube_api_base == "in-cluster"
    assert "linux-gpu-cuda" in config.policy.runner_labels


def test_force_interval_beyond_token_lifetime_rejected():
    env = _complete_env()
    env["FORCE_INTERVAL"] = "90h"
    with pytest.raises(ConfigError, match="2 x force_interval"):
        load_config([], env)


def test_environment_only_equals_flag_based():
    env = _complete_env()
    from_env = load_config([], env)
    from_flags = load_config(
        [
            "--owner", "biocore",
            "--repo", "unifrac",
            "--labels", "self-hosted,linux-gpu-cuda",
            "--deployment", "gha-runner",
            "--namespace", "ci",
            "--kube-api", "http://127.0.0.1:1",
        ],
        {"GITHUB_TOKEN": "secret"},
    )
    assert from_env == from_flags


def test_flags_override_environment():
    env = _complete_env()
    config = load_config(["--repo", "unifrac-binaries"], env)
    assert config.repo.repo == "unifrac-binaries"
    assert config.repo.owner == "biocore"


def test_missing_required_field_named():
    with pytest.raises(ConfigError, match="owner"):
        load_config(["--repo", "x", "--deployment", "d"], {"GITHUB_TOKEN": "t"})


def test_unreadable_token_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="token file"):
        load_config(
            ["--owner", "o", "--repo", "r", "--deployment", "d",
             "--github-token-file", str(tmp_path / "nope")],
            {},
        )


def test_empty_token_file_is_config_error(tmp_path):
    token_file = tmp_path / "token"
    token_file.write_text(" \n")
    with pytest.raises(ConfigError, match=f"github token file is empty: {token_file}"):
        load_config(
            ["--owner", "o", "--repo", "r", "--deployment", "d", "--github-token-file", str(token_file)],
            {"GITHUB_TOKEN": "from-the-environment"},
        )


def test_missing_token_entirely():
    with pytest.raises(ConfigError, match="github token"):
        load_config(["--owner", "o", "--repo", "r", "--deployment", "d"], {})


def test_token_not_in_repr():
    config = Config(
        repo=RepoCoordinates("o", "r"),
        policy=Policy(),
        kube_deployment="d",
        github_token="super-secret-value",
    )
    assert "super-secret-value" not in repr(config)


@pytest.mark.parametrize(
    "text,expected",
    [("60", 60.0), ("60s", 60.0), ("15m", 900.0), ("84h", 302400.0), ("3.5d", 302400.0)],
)
def test_duration_parsing(text, expected):
    assert parse_duration(text) == expected


@pytest.mark.parametrize(
    "parse,value",
    [(parse_duration, "fast"), (parse_duration, True), (parse_count, True), (parse_count, False), (parse_count, 2.7)],
)
def test_duration_garbage_rejected(parse, value):
    with pytest.raises(ConfigError):
        parse(value, name="poll_interval")


def test_scenario_policy_refuses_booleans():
    # YAML reads `true` as a boolean; it is not 1 second or 1 runner.
    for policy in ({"poll_interval": True}, {"max_runners": True}):
        with pytest.raises(ValueError, match="scenario policy"):
            script_from_dict({"horizon": 600, "policy": policy})


@pytest.mark.parametrize(
    "kwargs,bound",
    [
        (dict(poll_interval=0), "poll_interval > 0"),
        (dict(min_dwell=30.0), "min_dwell >= poll_interval"),
        (dict(force_interval=600.0), "force_interval > min_dwell"),
        (dict(max_runners=0), "max_runners >= 1"),
    ],
)
def test_policy_bounds_quoted_in_errors(kwargs, bound):
    with pytest.raises(ConfigError, match=bound):
        Policy(**kwargs)


@pytest.mark.parametrize("flags,env", [(["--max-runners", "two"], {}), ([], {"MAX_RUNNERS": "two"})])
def test_non_integer_max_runners_is_config_error(flags, env):
    with pytest.raises(ConfigError, match="max_runners"):
        load_config(flags, {**_complete_env(), **env})


@pytest.mark.parametrize("addr", ["nope", ":abc", ":99999"])
def test_malformed_status_addr_rejected_at_load(addr):
    with pytest.raises(ConfigError, match="status_addr"):
        load_config(["--status-addr", addr], _complete_env())


@pytest.mark.parametrize("addr", [":8080", "127.0.0.1:0"])
def test_status_addr_accepted(addr):
    assert load_config([], {**_complete_env(), "STATUS_ADDR": addr}).status_addr == addr


def test_owner_repo_shape():
    with pytest.raises(ConfigError):
        RepoCoordinates("bad/owner", "repo")
    with pytest.raises(ConfigError):
        RepoCoordinates("owner", "")


def test_a_label_list_that_names_no_label_is_rejected():
    with pytest.raises(ConfigError, match="empty label list"):
        load_config(["--labels", " , "], _complete_env())


def test_namespace_required_with_explicit_kube_api():
    env = _complete_env()
    del env["KUBE_NAMESPACE"]
    with pytest.raises(ConfigError, match="namespace"):
        load_config([], env)


def _complete_env():
    return {
        "GH_OWNER": "biocore",
        "GH_REPO": "unifrac",
        "RUNNER_LABELS": "self-hosted,linux-gpu-cuda",
        "KUBE_DEPLOYMENT": "gha-runner",
        "KUBE_NAMESPACE": "ci",
        "KUBE_API_BASE": "http://127.0.0.1:1",
        "GITHUB_TOKEN": "secret",
    }
