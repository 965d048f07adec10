"""The repro.api facade and the deprecated pre-1.1 entry points."""

import warnings

import pytest

import repro
from repro import api
from repro.analysis import compare, overview
from repro.core.types import ComponentClass


class TestFacade:
    def test_top_level_reexports(self):
        for name in ("load", "simulate", "analyze", "full_report", "compare",
                     "audit", "AnalysisCache"):
            assert getattr(repro, name) is getattr(api, name)

    def test_load_strict_and_lenient(self, small_dataset, tmp_path):
        from repro.core import io as core_io

        path = tmp_path / "dump.jsonl"
        core_io.save(small_dataset, path)
        with path.open("a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ValueError):
            api.load(path)
        dataset = api.load(path, lenient=True)
        assert len(dataset) == len(small_dataset)

    def test_audit_reports_quarantine(self, small_dataset, tmp_path):
        from repro.core import io as core_io

        path = tmp_path / "dump.jsonl"
        core_io.save(small_dataset, path)
        with path.open("a") as handle:
            handle.write("{not json\n")
        audited = api.audit(path)
        assert audited.quarantine.n_skipped == 1
        assert audited.dirty
        assert ("skipped lines", "1") in audited.rows()

    def test_analyze_registry(self, small_dataset):
        results = api.analyze(small_dataset, "categories", "components")
        assert set(results) == {"categories", "components"}
        assert results["components"][ComponentClass.HDD] > 0.5

    def test_analyze_rejects_unknown(self, small_dataset):
        with pytest.raises(ValueError, match="unknown analyses"):
            api.analyze(small_dataset, "nope")

    def test_analyze_all_with_cache(self, small_dataset):
        cache = api.AnalysisCache()
        policy = api.ExecutionPolicy(cache=cache)
        first = api.analyze(small_dataset, policy=policy)
        assert set(first) == set(api.ANALYSES)
        api.analyze(small_dataset, policy=policy)
        assert cache.stats.hits == len(api.ANALYSES)

    def test_full_report_text(self, small_dataset):
        report = api.full_report(small_dataset)
        text = report.text()
        assert "Table I" in text and "MTBF" in text and "Table V" in text
        assert "Table IV" not in text  # needs the inventory
        assert len(report.rows()) == len(report)

    def test_full_report_headline_only(self, small_dataset):
        text = api.full_report(small_dataset, headline_only=True).text()
        assert "Table I" in text
        assert "Table V" not in text

    def test_compare_roundtrip(self, small_dataset):
        result = api.compare(small_dataset, small_dataset)
        assert result.within(0.01)
        assert any("share:" in name for name, _, _ in result.rows())


class TestResultShapes:
    def test_rows_everywhere(self, small_dataset):
        assert overview.categories(small_dataset).rows()
        assert overview.components(small_dataset).rows()
        assert overview.failure_types(small_dataset, ComponentClass.HDD).rows()
        assert overview.detection_sources(small_dataset).rows()
        assert compare.compare_datasets(small_dataset, small_dataset).rows()

    def test_shares_are_mappings(self, small_dataset):
        shares = overview.components(small_dataset)
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert ComponentClass.HDD in shares
        assert shares.get(ComponentClass.HDD) == shares[ComponentClass.HDD]
        assert list(shares) == sorted(shares, key=shares.get, reverse=True)


class TestDeprecatedAliases:
    def test_canonical_names_do_not_warn(self, small_dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            overview.categories(small_dataset)
            overview.components(small_dataset)
            api.full_report(small_dataset, headline_only=True)
