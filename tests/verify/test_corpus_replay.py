"""The failure corpus: persistence, loading, and full-grid replay."""

import json
import os

import pytest

from repro.trace.trace import Trace
from repro.verify import VerifyConfig, run_verify
from repro.verify.corpus import (
    CRASH_SCHEMA,
    CrashArtifact,
    load_corpus,
    regression_entries,
    save_crash,
    seed_regression_corpus,
)
from repro.verify.oracle import run_grid


class TestRegressionEntries:
    def test_the_known_tricky_shapes_are_pinned(self):
        names = [entry.name for entry in regression_entries()]
        assert names == [
            "reg-single-reference",
            "reg-all-unique",
            "reg-n1-wide-bits",
            "reg-budget0-conflict",
        ]
        for entry in regression_entries():
            assert 0 in entry.budgets

    @pytest.mark.slow
    def test_every_regression_entry_passes_the_full_grid(self):
        for entry in regression_entries():
            outcome = run_grid(entry.trace, entry.budgets, simulate=True)
            assert outcome.ok, (
                entry.name,
                [d.as_dict() for d in outcome.divergences],
            )


class TestPersistence:
    def test_save_load_round_trips(self, tmp_path):
        artifact = CrashArtifact(
            kind="grid",
            name="roundtrip",
            trace=Trace([1, 2, 1, 2], address_bits=7, name="roundtrip"),
            budgets=(0, 3),
            cell="vectorized/cold",
            detail="example",
            shrunk_from=40,
            seed=9,
        )
        path = save_crash(str(tmp_path), artifact)
        assert os.path.isfile(os.path.join(path, "trace.trace"))
        loaded = load_corpus(str(tmp_path))
        assert len(loaded) == 1
        got = loaded[0]
        assert list(got.trace) == [1, 2, 1, 2]
        assert got.trace.address_bits == 7
        assert got.budgets == (0, 3)
        assert got.cell == "vectorized/cold"
        assert got.shrunk_from == 40

    def test_saving_is_idempotent(self, tmp_path):
        artifact = CrashArtifact(
            kind="grid", name="dup", trace=Trace([3, 3, 3], name="dup")
        )
        first = save_crash(str(tmp_path), artifact)
        second = save_crash(str(tmp_path), artifact)
        assert first == second
        assert len(load_corpus(str(tmp_path))) == 1

    def test_corrupt_artifacts_are_skipped(self, tmp_path):
        seed_regression_corpus(str(tmp_path))
        bad = tmp_path / "grid-deadbeef0000"
        bad.mkdir()
        (bad / "crash.json").write_text("{not json")
        (bad / "trace.trace").write_text("zz\n")
        loaded = load_corpus(str(tmp_path))
        assert len(loaded) == len(regression_entries())

    def test_crash_manifest_schema(self, tmp_path):
        artifact = CrashArtifact(
            kind="invariant", name="law", trace=Trace([0, 1]), law="rotate"
        )
        path = save_crash(str(tmp_path), artifact)
        with open(os.path.join(path, "crash.json")) as fh:
            doc = json.load(fh)
        assert doc["schema"] == CRASH_SCHEMA
        assert doc["kind"] == "invariant"
        assert doc["law"] == "rotate"
        assert doc["trace_len"] == 2


class TestSeededReplay:
    def test_seeding_writes_one_artifact_per_entry(self, tmp_path):
        count = seed_regression_corpus(str(tmp_path), seed=1)
        assert count == len(regression_entries())
        assert seed_regression_corpus(str(tmp_path), seed=1) == count  # idempotent
        assert len(load_corpus(str(tmp_path))) == count

    def test_seeded_corpus_replays_clean_through_the_grid(self, tmp_path):
        seed_regression_corpus(str(tmp_path))
        # max_traces covers disk replay + built-in regressions only; the
        # runner replays the on-disk corpus first.
        report = run_verify(
            VerifyConfig(
                max_traces=2 * len(regression_entries()),
                corpus_dir=str(tmp_path),
                laws="none",
            )
        )
        assert report.ok, [f.as_dict() for f in report.failures]
        assert report.corpus_replayed == 2 * len(regression_entries())
