"""Tests for ``repro.analysis``'s lint framework and project rules.

Every rule is exercised positively (its ``*_bad.py`` fixture must fire,
with the right rule name and line) and negatively (its ``*_ok.py`` fixture
must stay silent), plus suppression-comment semantics, output formats, CLI
integration, and the acceptance gate that the shipped tree lints clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (LintConfig, LintRule, Violation,
                            available_rules, lint_paths, lint_source,
                            register_rule, render_json, render_text)
from repro.cli import main

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def lint_fixture(name: str, **config_kwargs):
    path = FIXTURES / name
    return lint_source(path.read_text(encoding="utf-8"), str(path),
                       LintConfig(**config_kwargs) if config_kwargs
                       else LintConfig())


def rules_fired(violations):
    return {violation.rule for violation in violations}


def lines_fired(violations, rule):
    return sorted(v.line for v in violations if v.rule == rule)


class TestNoWallClock:
    def test_fires_on_every_wall_clock_read(self):
        violations = lint_fixture("wall_clock_bad.py")
        assert rules_fired(violations) == {"no-wall-clock"}
        assert lines_fired(violations, "no-wall-clock") == [8, 13, 17, 21]

    def test_silent_on_injected_clock(self):
        assert lint_fixture("wall_clock_ok.py") == []

    def test_core_clock_is_allowlisted(self):
        source = "import time\n\ndef now():\n    return time.monotonic()\n"
        assert lint_source(source, "src/repro/core/clock.py") == []
        assert lint_source(source, "src/repro/sim/server.py") != []

    def test_custom_allowlist(self):
        violations = lint_fixture(
            "wall_clock_bad.py",
            allow_paths={"no-wall-clock": ("*/analysis_fixtures/*",)})
        assert violations == []


class TestSeededRngOnly:
    def test_fires_on_global_rng(self):
        violations = lint_fixture("rng_bad.py")
        assert rules_fired(violations) == {"seeded-rng-only"}
        assert lines_fired(violations, "seeded-rng-only") == [9, 13, 17, 21]

    def test_silent_on_seeded_streams(self):
        assert lint_fixture("rng_ok.py") == []


class TestNoSimtimeFloatEq:
    def test_fires_on_instant_equality(self):
        violations = lint_fixture("float_eq_bad.py")
        assert rules_fired(violations) == {"no-simtime-float-eq"}
        assert lines_fired(violations, "no-simtime-float-eq") == [5, 9, 13]

    def test_message_points_at_at_or_after(self):
        violations = lint_fixture("float_eq_bad.py")
        assert all("at_or_after" in v.message for v in violations)

    def test_silent_on_ordering_comparisons(self):
        assert lint_fixture("float_eq_ok.py") == []

    def test_pytest_approx_is_sanctioned(self):
        source = ("import pytest\n\n"
                  "def check(clock):\n"
                  "    assert clock.now() == pytest.approx(2.0)\n")
        assert lint_source(source, "tests/test_x.py") == []


class TestLockDiscipline:
    def test_fires_on_each_violation_shape(self):
        violations = lint_fixture("lock_bad.py")
        assert rules_fired(violations) == {"lock-discipline"}
        assert lines_fired(violations, "lock-discipline") == [13, 19, 24, 28]

    def test_silent_on_disciplined_usage(self):
        assert lint_fixture("lock_ok.py") == []


class TestNoSwallowedEngineErrors:
    def test_fires_on_swallowing_handlers(self):
        violations = lint_fixture("except_bad.py")
        assert rules_fired(violations) == {"no-swallowed-engine-errors"}
        assert lines_fired(violations,
                           "no-swallowed-engine-errors") == [9, 16]

    def test_silent_when_recorded_or_reraised(self):
        assert lint_fixture("except_ok.py") == []


class TestSuppressions:
    def test_only_the_wrong_rule_name_still_fires(self):
        violations = lint_fixture("suppressed.py")
        assert len(violations) == 1
        assert violations[0].rule == "no-wall-clock"
        assert violations[0].line == 30  # the deliberately unsuppressed one

    def test_allow_all_suppresses_everything(self):
        source = "import time\nnow = time.time()  # repro: allow=all\n"
        assert lint_source(source, "x.py") == []


class TestFramework:
    def test_every_documented_rule_is_registered(self):
        names = set(available_rules())
        assert {"no-wall-clock", "seeded-rng-only", "no-simtime-float-eq",
                "lock-discipline", "no-swallowed-engine-errors"} == names

    def test_select_runs_only_chosen_rules(self):
        violations = lint_fixture("wall_clock_bad.py",
                                  select={"seeded-rng-only"})
        assert violations == []

    def test_syntax_error_is_a_finding_not_a_crash(self):
        violations = lint_source("def broken(:\n", "x.py")
        assert [v.rule for v in violations] == ["syntax-error"]

    def test_fixture_directory_is_excluded_from_tree_runs(self):
        violations, checked = lint_paths([str(FIXTURES)])
        assert checked == 0 and violations == []

    def test_text_output_carries_rule_and_location(self):
        violations = lint_fixture("float_eq_bad.py")
        text = render_text(violations, 1)
        assert "float_eq_bad.py:5:" in text
        assert "no-simtime-float-eq" in text

    def test_json_output_round_trips(self):
        violations = lint_fixture("rng_bad.py")
        payload = json.loads(render_json(violations, 1))
        assert payload["files_checked"] == 1
        assert payload["violations"][0]["rule"] == "seeded-rng-only"
        assert payload["violations"][0]["line"] == 9

    def test_rule_registration_rejects_duplicates(self):
        with pytest.raises(ValueError):
            @register_rule
            class Duplicate(LintRule):
                name = "no-wall-clock"
                description = "duplicate"

    def test_violation_format(self):
        violation = Violation(rule="r", path="a.py", line=3, col=7,
                              message="m")
        assert violation.format() == "a.py:3:7: r: m"


class TestAcceptance:
    def test_shipped_tree_lints_clean(self):
        violations, checked = lint_paths([str(REPO_ROOT / "src")])
        assert checked > 60
        assert violations == []

    def test_tests_lint_clean(self):
        violations, _ = lint_paths([str(REPO_ROOT / "tests")])
        assert violations == []

    def test_benchmarks_and_examples_lint_clean(self):
        violations, checked = lint_paths(
            [str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "examples")])
        assert checked > 0
        assert violations == []


class TestCLI:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(REPO_ROOT / "src" / "repro" / "core")]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_lint_violation_exits_nonzero_with_location(self, capsys):
        code = main(["lint", str(FIXTURES / "wall_clock_bad.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "no-wall-clock" in out
        assert "wall_clock_bad.py:8:" in out

    def test_lint_json_format(self, capsys):
        code = main(["lint", "--format", "json",
                     str(FIXTURES / "rng_bad.py")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"]

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "no-wall-clock" in out and "lock-discipline" in out

    def test_lint_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--select", "no-such-rule", "src"]) == 2

    def test_lint_select(self, capsys):
        code = main(["lint", "--select", "seeded-rng-only",
                     str(FIXTURES / "wall_clock_bad.py")])
        assert code == 0

    def test_lint_without_paths_covers_default_tree(self, capsys,
                                                    monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        assert "0 violations" in capsys.readouterr().out
