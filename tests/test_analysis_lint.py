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


class TestSpanMustFinish:
    #: Fixtures live under ``tests/``, which the rule allowlists by
    #: default — clear the allowlist so the fixtures are actually linted.
    NO_ALLOW = {"span-must-finish": ()}

    def test_fires_on_discarded_and_leaked_handles(self):
        violations = lint_fixture("span_bad.py", allow_paths=self.NO_ALLOW)
        assert rules_fired(violations) == {"span-must-finish"}
        assert lines_fired(violations, "span-must-finish") == [5, 9, 13, 20]

    def test_silent_on_closing_idioms(self):
        assert lint_fixture("span_ok.py", allow_paths=self.NO_ALLOW) == []

    def test_tests_are_allowlisted_by_default(self):
        assert lint_fixture("span_bad.py") == []

    def test_handle_closed_by_nested_def_is_the_one_blind_spot(self):
        # Handles finished only inside a closure still fire: ownership
        # across a nested def is opaque to the per-function analysis, so
        # such code should hand the handle to the closure explicitly.
        source = ("def f(spans, q, now, defer):\n"
                  "    root = spans.begin_trace(q.qid, q.qtype, 'm', now)\n"
                  "    def later(ts):\n"
                  "        root.finish(ts)\n"
                  "    defer(later)\n")
        violations = lint_source(
            source, "src/repro/x.py",
            LintConfig(select={"span-must-finish"}))
        assert lines_fired(violations, "span-must-finish") == [2]


class TestAsyncNoBlocking:
    #: ``async_bad.py`` also trips no-wall-clock (time.sleep) — select the
    #: rule under test so the assertions stay focused.
    SELECT = {"async-no-blocking"}

    def test_fires_on_each_blocking_shape(self):
        violations = lint_fixture("async_bad.py", select=self.SELECT)
        assert rules_fired(violations) == {"async-no-blocking"}
        assert lines_fired(violations, "async-no-blocking") == \
            [8, 9, 10, 11, 12, 13, 14]

    def test_silent_on_awaited_and_sync_code(self):
        assert lint_fixture("async_ok.py", select=self.SELECT) == []

    def test_nested_sync_def_is_not_the_coroutines_problem(self):
        source = ("import time\n\n"
                  "async def f(pool):\n"
                  "    def work():\n"
                  "        time.sleep(1)\n"
                  "    await pool.run(work)\n")
        violations = lint_source(source, "src/repro/x.py",
                                 LintConfig(select=self.SELECT))
        assert violations == []


class TestNoOrphanTask:
    SELECT = {"no-orphan-task"}

    def test_fires_on_discarded_spawns(self):
        violations = lint_fixture("orphan_task_bad.py", select=self.SELECT)
        assert rules_fired(violations) == {"no-orphan-task"}
        assert lines_fired(violations, "no-orphan-task") == [6, 7, 8]

    def test_silent_when_stored_awaited_or_handed_off(self):
        assert lint_fixture("orphan_task_ok.py", select=self.SELECT) == []


class TestForkSafety:
    SELECT = {"fork-safety"}

    def test_fires_on_unpicklable_targets_and_args(self):
        violations = lint_fixture("fork_bad.py", select=self.SELECT)
        assert rules_fired(violations) == {"fork-safety"}
        # Line 22 fires twice: two handle-named args in one Process call.
        assert lines_fired(violations, "fork-safety") == \
            [8, 17, 18, 20, 22, 22]

    def test_silent_on_module_level_entrypoints(self):
        assert lint_fixture("fork_ok.py", select=self.SELECT) == []


class TestShmLifecycle:
    SELECT = {"shm-lifecycle"}

    def test_fires_on_leakable_segments(self):
        violations = lint_fixture("shm_bad.py", select=self.SELECT)
        assert rules_fired(violations) == {"shm-lifecycle"}
        assert lines_fired(violations, "shm-lifecycle") == [6, 12, 16]

    def test_silent_on_exception_safe_ownership(self):
        assert lint_fixture("shm_ok.py", select=self.SELECT) == []

    def test_attach_without_create_is_out_of_scope(self):
        source = ("from multiprocessing import shared_memory\n\n"
                  "def attach(name):\n"
                  "    return shared_memory.SharedMemory(name=name)\n")
        violations = lint_source(source, "src/repro/x.py",
                                 LintConfig(select=self.SELECT))
        assert violations == []


class TestSeqlockDiscipline:
    SELECT = {"seqlock-discipline"}

    def test_fires_on_protocol_violations(self):
        violations = lint_fixture("seqlock_bad.py", select=self.SELECT)
        assert rules_fired(violations) == {"seqlock-discipline"}
        # Line 21 fires twice: the unguarded write is missing both the
        # entry bump and the exit bump.
        assert lines_fired(violations, "seqlock-discipline") == \
            [9, 17, 21, 21]

    def test_silent_on_canonical_reader_and_writer(self):
        assert lint_fixture("seqlock_ok.py", select=self.SELECT) == []

    def test_plain_buffers_are_out_of_scope(self):
        source = ("import struct\n"
                  "_REC = struct.Struct('<I')\n\n"
                  "def f(buf, value):\n"
                  "    _REC.pack_into(buf, 0, value)\n")
        violations = lint_source(source, "src/repro/x.py",
                                 LintConfig(select=self.SELECT))
        assert violations == []


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
                "lock-discipline", "no-swallowed-engine-errors",
                "span-must-finish", "async-no-blocking", "no-orphan-task",
                "fork-safety", "shm-lifecycle",
                "seqlock-discipline"} == names

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


class TestCLIBaseline:
    def test_recorded_findings_stop_failing_new_ones_still_fail(
            self, capsys, tmp_path):
        baseline = tmp_path / "lint_baseline.json"
        bad = str(FIXTURES / "wall_clock_bad.py")
        assert main(["lint", "--baseline", str(baseline),
                     "--update-baseline", bad]) == 0
        assert "recorded" in capsys.readouterr().out
        # Recorded findings no longer fail the run...
        assert main(["lint", "--baseline", str(baseline), bad]) == 0
        capsys.readouterr()
        # ...but findings absent from the baseline still do.
        code = main(["lint", "--baseline", str(baseline), bad,
                     str(FIXTURES / "rng_bad.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "seeded-rng-only" in out
        assert "no-wall-clock" not in out

    def test_update_baseline_without_baseline_is_usage_error(self, capsys):
        assert main(["lint", "--update-baseline",
                     str(FIXTURES / "rng_bad.py")]) == 2

    def test_unreadable_baseline_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["lint", "--baseline", str(missing),
                     str(FIXTURES / "rng_bad.py")]) == 2
