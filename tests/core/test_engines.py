"""Unit tests for the explorer's selectable histogram engines."""

import pytest

from repro.core import engines
from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.vectorized import numpy_available
from repro.trace.strip import strip_trace
from repro.trace.synthetic import loop_nest_trace, random_trace, zipf_trace


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            AnalyticalCacheExplorer(loop_nest_trace(4, 2), engine="magic")

    @pytest.mark.parametrize("engine", AnalyticalCacheExplorer.ENGINES)
    def test_every_engine_accepted(self, engine):
        explorer = AnalyticalCacheExplorer(
            loop_nest_trace(8, 4), engine=engine
        )
        assert explorer.engine == engine


class TestOptionValidation:
    """Regression: unknown options used to be silently swallowed by
    ``**_`` in every runner — a typo'd ``proceses=8`` ran the default
    configuration without a whisper.  No engine takes options now, so
    any keyword beyond ``max_level`` must fail loudly."""

    def test_typod_option_raises(self):
        inputs = engines.EngineInputs(loop_nest_trace(8, 4))
        with pytest.raises(TypeError, match="proceses"):
            engines.compute_histograms("serial", inputs, proceses=8)

    def test_option_foreign_to_engine_raises(self):
        inputs = engines.EngineInputs(loop_nest_trace(8, 4))
        with pytest.raises(TypeError, match="processes"):
            engines.compute_histograms("vectorized", inputs, processes=2)


class TestAutoSelection:
    """Regression: ``choose_auto`` treated trace=None as "short trace"
    and always answered ``serial`` for injected prelude products."""

    @pytest.mark.skipif(not numpy_available(), reason="needs NumPy")
    def test_traceless_inputs_size_by_n_unique(self):
        big = strip_trace(random_trace(4 * engines.AUTO_MIN_UNIQUE,
                                       2 * engines.AUTO_MIN_UNIQUE, seed=0))
        assert big.n_unique >= engines.AUTO_MIN_UNIQUE
        assert engines.choose_auto(None, stripped=big) == "vectorized"

    def test_traceless_small_stripped_stays_serial(self):
        small = strip_trace(loop_nest_trace(16, 4))
        assert engines.choose_auto(None, stripped=small) == "serial"

    def test_nothing_known_stays_serial(self):
        assert engines.choose_auto(None) == "serial"

    @pytest.mark.skipif(not numpy_available(), reason="needs NumPy")
    def test_resolve_engine_uses_injected_stripped(self):
        trace = random_trace(4 * engines.AUTO_MIN_UNIQUE,
                             2 * engines.AUTO_MIN_UNIQUE, seed=0)
        stripped = strip_trace(trace)
        inputs = engines.EngineInputs(None, stripped=stripped)
        assert engines.resolve_engine("auto", inputs).name == "vectorized"

    @pytest.mark.skipif(not numpy_available(), reason="needs NumPy")
    def test_million_refs_pick_vectorized_on_any_cpu_count(self, monkeypatch):
        """The walk is single-process: CPU count never changes the pick."""
        import os

        trace = loop_nest_trace(512, 2000)
        assert len(trace) == 1_024_000
        for cpus in (1, 2, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert engines.choose_auto(trace) == "vectorized", cpus

    def test_resolve_never_triggers_prelude(self):
        inputs = engines.EngineInputs(None)  # no trace, nothing injected
        engines.resolve_engine("auto", inputs)  # sizes by nothing: serial
        assert inputs.stripped_if_built is None


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_identical_histograms_across_engines(self, seed):
        trace = zipf_trace(300, 60, seed=seed)
        reference = AnalyticalCacheExplorer(trace, engine="bitmask").histograms
        for engine in engines.engine_names(include_auto=False):
            other = AnalyticalCacheExplorer(trace, engine=engine).histograms
            assert sorted(reference) == sorted(other)
            for level in reference:
                assert reference[level].counts == other[level].counts, (
                    engine,
                    level,
                )

    @pytest.mark.parametrize("engine", AnalyticalCacheExplorer.ENGINES)
    def test_identical_exploration_results(self, engine):
        trace = random_trace(250, 40, seed=3)
        reference = AnalyticalCacheExplorer(trace).explore(5)
        other = AnalyticalCacheExplorer(trace, engine=engine).explore(5)
        assert other.as_dict() == reference.as_dict()
        assert other.misses == reference.misses

    def test_max_depth_respected_by_all_engines(self):
        trace = random_trace(150, 30, seed=4)
        for engine in AnalyticalCacheExplorer.ENGINES:
            explorer = AnalyticalCacheExplorer(
                trace, max_depth=8, engine=engine
            )
            assert max(explorer.histograms) == 3
