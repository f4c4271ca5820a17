"""Corpus replay ordering: newest failures replay first.

The bug this pins down: ``load_corpus`` used to return artifacts in
directory-name order (``<kind>-<digest12>`` — effectively random), so
under ``--max-traces`` or a wall-clock budget a freshly persisted
failure could sit behind a pile of old regression seeds and never get
replayed.  Replay order must be manifest-mtime descending, name
ascending on ties, and the runner must consume the corpus in that
order.
"""

from __future__ import annotations

import os

from repro.trace.trace import Trace
from repro.verify import VerifyConfig, run_verify
from repro.verify.corpus import (
    CrashArtifact,
    load_corpus,
    save_crash,
    seed_regression_corpus,
)


def _artifact(index: int) -> CrashArtifact:
    low = index % 32
    return CrashArtifact(
        kind="grid",
        name=f"crash-{index}",
        trace=Trace([low, low + 1, low] * 3, address_bits=6),
        detail=f"synthetic failure {index}",
    )


def _stamp(artifact_dir: str, when: float) -> None:
    manifest = os.path.join(artifact_dir, "crash.json")
    os.utime(manifest, (when, when))


class TestLoadOrder:
    def test_newest_first(self, tmp_path) -> None:
        root = str(tmp_path / "corpus")
        base = 1_700_000_000.0
        dirs = {}
        for index in range(4):
            dirs[index] = save_crash(root, _artifact(index))
        # oldest -> newest: 2, 0, 3, 1
        for index, age in ((2, 40.0), (0, 30.0), (3, 20.0), (1, 10.0)):
            _stamp(dirs[index], base - age)
        names = [artifact.name for artifact in load_corpus(root)]
        assert names == ["crash-1", "crash-3", "crash-0", "crash-2"]

    def test_ties_break_by_path_ascending(self, tmp_path) -> None:
        root = str(tmp_path / "corpus")
        dirs = [save_crash(root, _artifact(index)) for index in range(3)]
        for entry_dir in dirs:
            _stamp(entry_dir, 1_700_000_000.0)
        loaded = load_corpus(root)
        assert [artifact.path for artifact in loaded] == sorted(
            artifact.path for artifact in loaded
        )

    def test_mtime_recorded_on_load_and_save(self, tmp_path) -> None:
        root = str(tmp_path / "corpus")
        artifact = _artifact(0)
        save_crash(root, artifact)
        assert artifact.mtime > 0
        loaded = load_corpus(root)[0]
        assert loaded.mtime == artifact.mtime

    def test_fresh_crash_outranks_regression_seeds(self, tmp_path) -> None:
        root = str(tmp_path / "corpus")
        seed_regression_corpus(root)
        for artifact in load_corpus(root):
            _stamp(artifact.path, 1_600_000_000.0)  # old seeds
        fresh_dir = save_crash(root, _artifact(9))
        _stamp(fresh_dir, 1_700_000_000.0)
        assert load_corpus(root)[0].name == "crash-9"


class TestRunnerConsumesNewestFirst:
    def test_max_traces_budget_reaches_fresh_failure(
        self, tmp_path, monkeypatch
    ) -> None:
        """With a replay cap smaller than the corpus, the newest entry
        must be the *first* one replayed — the whole point of the fix."""
        import repro.verify.runner as runner_module

        root = str(tmp_path / "corpus")
        base = 1_700_000_000.0
        for index in range(6):
            _stamp(save_crash(root, _artifact(index)), base - 100.0 + index)
        fresh_dir = save_crash(root, _artifact(77))
        _stamp(fresh_dir, base)

        seen = []
        real_run_grid = runner_module.run_grid

        def spying_run_grid(trace, *args, **kwargs):
            seen.append(trace.name)
            return real_run_grid(trace, *args, **kwargs)

        monkeypatch.setattr(runner_module, "run_grid", spying_run_grid)
        config = VerifyConfig(
            seed=0,
            max_traces=2,  # far fewer than the 7 corpus entries
            engines=("serial",),
            include_warm=False,
            laws="none",
            corpus_dir=root,
            shrink=False,
        )
        report = run_verify(config)
        assert report.stopped_by == "max-traces"
        assert report.corpus_replayed == 2
        assert seen[0] == "crash-77"  # newest replays first
        assert seen == ["crash-77", "crash-5"]  # then next-newest
