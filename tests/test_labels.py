import pytest
from hypothesis import given
from hypothesis import strategies as st

from runner_manager.labels import LabelSet


def test_requested_subset_of_runner_matches():
    requested = LabelSet(["self-hosted", "linux-gpu-cuda"])
    runner = LabelSet(["self-hosted", "linux-gpu-cuda", "x64"])
    assert requested.issubset(runner)


def test_empty_request_matches_anything():
    assert LabelSet([]).issubset(LabelSet(["whatever"]))
    assert LabelSet([]).issubset(LabelSet([]))


def test_mismatched_os_label_rejected():
    requested = LabelSet(["self-hosted", "windows"])
    runner = LabelSet(["self-hosted", "linux-gpu-cuda"])
    assert not requested.issubset(runner)


def test_comparison_is_case_insensitive():
    assert LabelSet(["Self-Hosted"]).issubset(LabelSet(["self-hosted"]))
    assert LabelSet(["GPU", "gpu"]) == LabelSet(["gpu"])
    assert len(LabelSet(["GPU", "gpu", "Gpu"])) == 1


def test_empty_label_string_rejected():
    with pytest.raises(ValueError):
        LabelSet(["ok", "  "])


def test_parse_ignores_blank_segments():
    parsed = LabelSet.parse("self-hosted, linux-gpu-cuda,,")
    assert parsed == LabelSet(["self-hosted", "linux-gpu-cuda"])


labels = st.lists(st.text(alphabet="abcXYZ-", min_size=1, max_size=8), max_size=6)


@given(a=labels, b=labels, extra=labels)
def test_subset_law_monotone_in_runner_labels(a, b, extra):
    # A <= B and B <= C  =>  A <= C
    requested = LabelSet(a)
    runner = LabelSet(b)
    bigger = LabelSet(list(b) + list(extra))
    if requested.issubset(runner):
        assert requested.issubset(bigger)


@given(a=labels)
def test_every_set_matches_itself(a):
    s = LabelSet(a)
    assert s.issubset(s)
