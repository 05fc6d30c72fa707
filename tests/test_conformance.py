"""The anchored self-check registry behind the check subcommand."""

import hashlib
import inspect
import json

import pytest

from weylforge import OpPoly, cli, conformance, render
from weylforge.conformance import SUITES, run_suite

from helpers import GOLDEN_ALL_42

# Every numbered statement the registry promises to exercise.
REQUIRED_ANCHORS = {
    3, 4, 7, 9, 11, 13, 16, 17, 18, 29, 30, 31,
    40, 41, 42, 43, 44, 47, 48, 49, 50, 52, 53, 54,
    55, 56, 58, 59, 60, 63, 64, 65,
}


def covered_anchors(report):
    out = set()
    for check in report["checks"]:
        anchor = check["anchor"]
        if "-" in anchor:
            lo, hi = anchor.split("-")
            out.update(range(int(lo), int(hi) + 1))
        else:
            out.add(int(anchor))
    return out


@pytest.fixture(scope="module")
def reports():
    """run_suite, run once per (suite, seed) for the whole module.

    A full-suite run takes seconds; the tests only read the reports.
    """
    cache = {}

    def get(suite, seed):
        if (suite, seed) not in cache:
            cache[suite, seed] = run_suite(suite, seed)
        return cache[suite, seed]

    return get


class TestSuites:
    @pytest.mark.parametrize("suite", SUITES)
    def test_every_suite_passes(self, reports, suite):
        report = reports(suite, 1)
        assert report["failed"] == 0
        assert report["passed"] == len(report["checks"])
        for check in report["checks"]:
            assert check["status"] == "pass"
            assert check["witness"] is None

    def test_all_is_the_union(self, reports):
        report = reports("all", 3)
        per_suite = sum(len(reports(s, 3)["checks"]) for s in SUITES[1:])
        assert len(report["checks"]) == per_suite

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope")

    def test_check_ids_unique(self, reports):
        report = reports("all", 0)
        ids = [c["id"] for c in report["checks"]]
        assert len(ids) == len(set(ids))

    def test_anchor_coverage(self, reports):
        report = reports("all", 0)
        missing = REQUIRED_ANCHORS - covered_anchors(report)
        assert not missing

    def test_report_shape(self, reports):
        report = reports("weyl", 5)
        assert report["kind"] == "conformance_report"
        assert report["suite"] == "weyl"
        assert report["seed"] == 5
        for check in report["checks"]:
            assert set(check) == {
                "id", "anchor", "suite", "params", "status", "witness", "note",
            }


@pytest.fixture(scope="module")
def rerun_42():
    """A second seed-42 full-suite run, independent of the cached one."""
    return run_suite("all", 42)


class TestDeterminism:
    def test_same_seed_same_bytes(self, reports, rerun_42):
        one = json.dumps(reports("all", 42), sort_keys=True)
        two = json.dumps(rerun_42, sort_keys=True)
        assert one == two

    def test_rendered_report_is_reproducible(self, reports, rerun_42):
        one = render(reports("all", 42))
        two = render(rerun_42)
        assert one == two

    def test_golden_check_output(self, reports, monkeypatch):
        # The whole check command, fed the seed-42 report already run.
        monkeypatch.setattr(cli, "run_suite", reports)
        code, out = cli.run_command(
            ["check", "--suite", "all", "--format", "json", "--seed", "42"]
        )
        assert code == 0
        assert hashlib.sha256((out + "\n").encode()).hexdigest() == GOLDEN_ALL_42

    def test_different_seeds_still_pass(self, reports):
        for seed in (0, 7, 1234):
            assert reports("all", seed)["failed"] == 0


class TestRenderedReport:
    def test_text_lines(self, reports):
        text = render(reports("weyl", 1))
        lines = text.splitlines()
        assert lines[0].startswith("suite weyl:")
        assert all(line.startswith("[PASS]") for line in lines[1:])

    def test_latex_format_renders(self, reports):
        out = render(reports("weyl", 1), "latex")
        assert "tabular" in out

    def test_json_format_renders(self, reports):
        blob = json.loads(render(reports("weyl", 1), "json"))
        assert blob["kind"] == "conformance_report"


def run_with_first(monkeypatch, id, runner):
    """run_suite("weyl", 1) with runner registered ahead of every check.

    A caller comparing against the unpatched rows reads them first: the
    shared reports fixture runs a suite it has not cached yet under
    whatever registry is in place.
    """
    registry = list(conformance._REGISTRY)
    registry.insert(0, conformance._Check(id, "3", "weyl", "inserted", {}, runner))
    monkeypatch.setattr(conformance, "_REGISTRY", registry)
    return run_suite("weyl", 1)


class TestIsolation:
    def test_raising_check_fails_its_row_only(self, reports, monkeypatch):
        def broken(rng):
            raise ZeroDivisionError("boom")

        unpatched = reports("weyl", 1)["checks"]
        report = run_with_first(monkeypatch, "broken", broken)
        first, *rest = report["checks"]
        assert first["id"] == "broken"
        assert first["status"] == "fail"
        assert first["witness"] == "ZeroDivisionError: boom"
        # The checks after it still run, and draw what they drew before.
        assert rest == unpatched
        assert report["failed"] == 1
        assert report["passed"] == len(rest)

    def test_first_mismatch_is_the_witness(self, reports, monkeypatch):
        qh, ph = OpPoly.generator("q"), OpPoly.generator("p")

        def mismatched(rng):
            yield "first", qh, qh
            yield "second", qh, ph
            # Never resumed: a draw here would shift every later row.
            yield "third", rng.random(), None

        unpatched = reports("weyl", 1)["checks"]
        report = run_with_first(monkeypatch, "mismatched", mismatched)
        first, *rest = report["checks"]
        assert first["status"] == "fail"
        assert first["witness"] == "second: qh versus ph"
        assert rest == unpatched

    def test_a_check_must_compare_something(self, monkeypatch):
        def silent(rng):
            return
            yield

        first = run_with_first(monkeypatch, "silent", silent)["checks"][0]
        assert first["status"] == "fail"
        assert first["witness"] == "no comparison made"

    def test_every_runner_is_a_generator(self):
        runners = [check.runner for check in conformance._REGISTRY]
        assert all(inspect.isgeneratorfunction(runner) for runner in runners)
