"""The verification suites pass for multiple seeds and stay deterministic."""

import pytest

from wittkit.suites import SUITES, run_suite, run_suites

FAST_SUITES = ("poly", "identities", "linalg", "closure", "textio")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_default_seed(name):
    for result in run_suite(name, 20250401):
        assert result.ok, f"{result.item}: {result.detail}"


@pytest.mark.parametrize("seed", [1, 424242])
def test_fast_suites_pass_other_seeds(seed):
    for result in run_suites(FAST_SUITES, seed):
        assert result.ok, f"seed {seed}: {result.item}: {result.detail}"


def test_suites_deterministic():
    a = run_suite("bracket", 7)
    b = run_suite("bracket", 7)
    assert a == b


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything", 1)


def test_bracket_suite_checks_the_term_formula():
    items = [r.item for r in run_suite("bracket", 7)]
    assert items.index("bracket.term-formula") == items.index("bracket.derivation-oracle") + 1
