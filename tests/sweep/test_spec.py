"""Sweep spec parsing: strictness, trace grammar, validation."""

import pytest

from repro.sweep import SPEC_SCHEMA, SweepSpecError, load_spec, spec_from_dict
from repro.sweep.spec import parse_trace_entry, spec_from_yaml


def minimal_document(**overrides):
    document = {
        "schema": SPEC_SCHEMA,
        "name": "t",
        "axes": {
            "traces": ["loop:8x2"],
            "engines": ["serial"],
        },
        "budgets": [0],
    }
    document.update(overrides)
    return document


class TestParsing:
    def test_minimal_spec(self):
        spec = spec_from_dict(minimal_document())
        assert spec.name == "t"
        assert spec.traces == ("loop:8x2",)
        assert spec.engines == ("serial",)
        assert spec.warmth == ("cold",)
        assert spec.policies == ("lru",)
        assert spec.levels == (1,)

    def test_schema_field_required(self):
        with pytest.raises(SweepSpecError, match="schema"):
            spec_from_dict({"name": "t", "axes": {}})

    def test_not_a_mapping(self):
        with pytest.raises(SweepSpecError, match="mapping"):
            spec_from_dict(["not", "a", "spec"])

    def test_missing_axes(self):
        with pytest.raises(SweepSpecError, match="name.*axes|axes"):
            spec_from_dict({"schema": SPEC_SCHEMA, "name": "t"})

    def test_missing_trace_axis(self):
        document = minimal_document()
        del document["axes"]["traces"]
        with pytest.raises(SweepSpecError, match="traces/engines"):
            spec_from_dict(document)

    def test_full_document_round_trips(self):
        document = {
            "schema": SPEC_SCHEMA,
            "name": "full",
            "seed": 7,
            "scale": "small",
            "axes": {
                "traces": ["crc", "zipf:400:64:1"],
                "engines": ["serial", "vectorized"],
                "warmth": ["cold", "warm"],
                "policies": ["lru", "fifo"],
                "levels": [1, 2],
            },
            "budgets": [0, 8],
            "percents": [5.0],
            "max_depth": 64,
            "l2_depth": 16,
            "include": [{"trace": "crc", "engine": "serial", "warmth": "cold"}],
            "exclude": [{"engine": "vectorized", "policy": "fifo"}],
            "execution": {
                "workers": 3,
                "timeout_s": 10.0,
                "retries": 2,
                "backoff_s": 0.5,
            },
            "report": {"tolerance": 2.0, "baselines": ["BENCH_postlude.json"]},
        }
        spec = spec_from_dict(document)
        assert spec.to_dict() == document
        assert spec_from_dict(spec.to_dict()) == spec


class TestStrictness:
    """Unknown fields fail loudly, mirroring the serve wire protocol."""

    def test_unknown_top_level_field(self):
        with pytest.raises(SweepSpecError, match="unknown fields.*'workerz'"):
            spec_from_dict(minimal_document(workerz=3))

    def test_unknown_axis(self):
        document = minimal_document()
        document["axes"]["engins"] = ["serial"]
        with pytest.raises(SweepSpecError, match="spec.axes.*engins"):
            spec_from_dict(document)

    def test_unknown_execution_field(self):
        document = minimal_document(execution={"worker_count": 2})
        with pytest.raises(SweepSpecError, match="spec.execution"):
            spec_from_dict(document)

    def test_unknown_report_field(self):
        document = minimal_document(report={"toleranse": 1.0})
        with pytest.raises(SweepSpecError, match="spec.report"):
            spec_from_dict(document)

    def test_unknown_rule_axis(self):
        document = minimal_document(exclude=[{"colour": "red"}])
        with pytest.raises(SweepSpecError, match="exclude\\[0\\]"):
            spec_from_dict(document)

    def test_empty_rule(self):
        document = minimal_document(include=[{}])
        with pytest.raises(SweepSpecError, match="at least one axis"):
            spec_from_dict(document)


class TestAxisValidation:
    def test_unknown_engine(self):
        document = minimal_document()
        document["axes"]["engines"] = ["warp-drive"]
        with pytest.raises(ValueError):
            spec_from_dict(document)

    def test_unknown_workload(self):
        document = minimal_document()
        document["axes"]["traces"] = ["quicksort3000"]
        with pytest.raises(SweepSpecError, match="unknown workload"):
            spec_from_dict(document)

    def test_unknown_prelude(self):
        """The prelude axis is gone: even its old values are rejected."""
        document = minimal_document()
        document["axes"]["preludes"] = ["auto"]
        with pytest.raises(SweepSpecError, match="spec.axes.*preludes"):
            spec_from_dict(document)
        document = minimal_document(include=[{"prelude": "python"}])
        with pytest.raises(SweepSpecError, match="include\\[0\\].*prelude"):
            spec_from_dict(document)

    def test_unknown_policy(self):
        document = minimal_document()
        document["axes"]["policies"] = ["mru"]
        with pytest.raises(SweepSpecError, match="policies"):
            spec_from_dict(document)

    def test_bad_warmth(self):
        document = minimal_document()
        document["axes"]["warmth"] = ["lukewarm"]
        with pytest.raises(SweepSpecError, match="warmth"):
            spec_from_dict(document)

    def test_bad_level(self):
        document = minimal_document()
        document["axes"]["levels"] = [3]
        with pytest.raises(SweepSpecError, match="levels"):
            spec_from_dict(document)

    def test_duplicate_axis_entries(self):
        document = minimal_document()
        document["axes"]["engines"] = ["serial", "serial"]
        with pytest.raises(SweepSpecError, match="duplicate"):
            spec_from_dict(document)

    def test_budget_or_percent_required(self):
        document = minimal_document()
        document["budgets"] = []
        with pytest.raises(SweepSpecError, match="budget or percent"):
            spec_from_dict(document)

    def test_max_depth_power_of_two(self):
        with pytest.raises(SweepSpecError, match="power of two"):
            spec_from_dict(minimal_document(max_depth=48))

    def test_negative_budget(self):
        with pytest.raises(SweepSpecError, match="budgets"):
            spec_from_dict(minimal_document(budgets=[-1]))

    def test_bad_scale(self):
        with pytest.raises(SweepSpecError, match="scale"):
            spec_from_dict(minimal_document(scale="gigantic"))


class TestTraceGrammar:
    def test_workload_entry(self):
        assert parse_trace_entry("crc") == {"kind": "workload", "name": "crc"}

    def test_loop_entry(self):
        assert parse_trace_entry("loop:1024x100") == {
            "kind": "loop",
            "footprint": 1024,
            "iterations": 100,
        }

    def test_loop_mix_entry(self):
        assert parse_trace_entry("loop-mix:512x150") == {
            "kind": "loop-mix",
            "footprint": 512,
            "iterations": 150,
        }

    def test_zipf_entry_with_seed(self):
        assert parse_trace_entry("zipf:400:64:9") == {
            "kind": "zipf",
            "n": 400,
            "unique": 64,
            "seed": 9,
        }

    def test_zipf_entry_default_seed(self):
        assert parse_trace_entry("zipf:400:64", default_seed=5)["seed"] == 5

    def test_markov_entry(self):
        assert parse_trace_entry("markov:60000:1000:0.9:3") == {
            "kind": "markov",
            "n": 60000,
            "unique": 1000,
            "locality": 0.9,
            "seed": 3,
        }

    def test_random_entry(self):
        assert parse_trace_entry("random:100:16") == {
            "kind": "random",
            "n": 100,
            "footprint": 16,
            "seed": 0,
        }

    def test_unknown_generator(self):
        with pytest.raises(SweepSpecError, match="unknown synthetic"):
            parse_trace_entry("fractal:10:2")

    def test_malformed_parameters(self):
        with pytest.raises(SweepSpecError, match="bad synthetic"):
            parse_trace_entry("loop:axb")
        with pytest.raises(SweepSpecError, match="bad synthetic"):
            parse_trace_entry("zipf:100")


class TestYaml:
    def test_yaml_round_trip(self):
        spec = spec_from_dict(minimal_document())
        assert spec_from_yaml(spec.to_yaml_text()) == spec

    def test_invalid_yaml(self):
        with pytest.raises(SweepSpecError, match="not valid YAML"):
            spec_from_yaml("{unclosed: [")

    def test_load_spec(self, tmp_path):
        spec = spec_from_dict(minimal_document())
        path = tmp_path / "spec.yaml"
        path.write_text(spec.to_yaml_text(), encoding="utf-8")
        assert load_spec(str(path)) == spec

    def test_committed_specs_parse(self):
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "..")
        sweeps = os.path.join(root, "benchmarks", "sweeps")
        names = sorted(os.listdir(sweeps))
        assert names, "benchmarks/sweeps must carry committed specs"
        for name in names:
            spec = load_spec(os.path.join(sweeps, name))
            assert spec.name == os.path.splitext(name)[0]
