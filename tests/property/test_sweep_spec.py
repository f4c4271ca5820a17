"""Property-based sweep-spec round-trips (hypothesis).

Any valid spec must survive ``to_yaml_text`` -> ``spec_from_yaml``
bit-exactly (the YAML file *is* the sweep's identity — it feeds the
plan fingerprint), and injecting an unknown field anywhere in the
document must be rejected, whatever the rest of the document looks
like.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import engines
from repro.sweep.spec import (
    SPEC_SCHEMA,
    SweepSpecError,
    spec_from_dict,
    spec_from_yaml,
)

WORKLOADS = ("crc", "fir", "adpcm", "bcnt", "qurt")
ENGINES = engines.engine_names()
POLICIES = ("lru", "fifo")
WARMTH = ("cold", "warm")
SCALES = ("tiny", "small", "default", "large")

small = st.integers(min_value=1, max_value=64)


@st.composite
def trace_entries(draw):
    kind = draw(st.sampled_from(("workload", "loop", "loop-mix", "zipf",
                                 "markov", "random")))
    if kind == "workload":
        return draw(st.sampled_from(WORKLOADS))
    if kind in ("loop", "loop-mix"):
        return f"{kind}:{draw(small)}x{draw(small)}"
    n = draw(st.integers(min_value=8, max_value=512))
    unique = draw(st.integers(min_value=1, max_value=8))
    seed_suffix = draw(st.sampled_from(("", ":3")))
    if kind == "zipf":
        return f"zipf:{n}:{unique}{seed_suffix}"
    if kind == "random":
        return f"random:{n}:{unique}{seed_suffix}"
    return f"markov:{n}:{unique}:0.9{seed_suffix}"


def axis_subset(values):
    return st.lists(
        st.sampled_from(values), min_size=1, max_size=len(values), unique=True
    )


@st.composite
def spec_documents(draw):
    document = {
        "schema": SPEC_SCHEMA,
        "name": draw(
            st.text(alphabet="abcdefghij-", min_size=1, max_size=12)
        ),
        "seed": draw(st.integers(min_value=0, max_value=9)),
        "scale": draw(st.sampled_from(SCALES)),
        "axes": {
            "traces": draw(
                st.lists(trace_entries(), min_size=1, max_size=4, unique=True)
            ),
            "engines": draw(axis_subset(ENGINES)),
            "warmth": draw(axis_subset(WARMTH)),
            "policies": draw(axis_subset(POLICIES)),
            "levels": draw(axis_subset((1, 2))),
        },
        "budgets": draw(
            st.lists(
                st.integers(min_value=0, max_value=128),
                min_size=1,
                max_size=4,
                unique=True,
            )
        ),
        "percents": draw(
            st.lists(
                st.sampled_from((0.5, 1.0, 5.0, 25.0)),
                min_size=0,
                max_size=2,
                unique=True,
            )
        ),
        "execution": {
            "workers": draw(st.integers(min_value=1, max_value=8)),
            "timeout_s": draw(st.sampled_from((1.0, 60.0, 300.0))),
            "retries": draw(st.integers(min_value=0, max_value=3)),
            "backoff_s": draw(st.sampled_from((0.01, 0.25, 1.0))),
        },
        "report": {
            "tolerance": draw(st.sampled_from((0.25, 1.0, 9.0))),
            "baselines": draw(
                st.lists(
                    st.sampled_from(
                        ("BENCH_postlude.json", "BENCH_prelude.json")
                    ),
                    min_size=0,
                    max_size=2,
                    unique=True,
                )
            ),
        },
    }
    if draw(st.booleans()):
        document["max_depth"] = draw(st.sampled_from((8, 16, 64)))
    if draw(st.booleans()):
        document["l2_depth"] = draw(st.sampled_from((16, 32, 64)))
    if draw(st.booleans()):
        document["include"] = [
            {"engine": draw(st.sampled_from(ENGINES)),
             "policy": draw(st.sampled_from(POLICIES))}
        ]
    if draw(st.booleans()):
        document["exclude"] = [{"warmth": draw(st.sampled_from(WARMTH))}]
    return document


@settings(max_examples=60, deadline=None)
@given(document=spec_documents())
def test_yaml_round_trip_is_identity(document):
    spec = spec_from_dict(document)
    assert spec_from_yaml(spec.to_yaml_text()) == spec


@settings(max_examples=60, deadline=None)
@given(document=spec_documents())
def test_to_dict_round_trip_is_identity(document):
    spec = spec_from_dict(document)
    assert spec_from_dict(spec.to_dict()) == spec


@settings(max_examples=40, deadline=None)
@given(
    document=spec_documents(),
    section=st.sampled_from(("top", "axes", "execution", "report", "rule")),
    field=st.text(alphabet="xyz_", min_size=1, max_size=8),
)
def test_unknown_field_injection_rejected(document, section, field):
    known = {
        "top": set(document),
        "axes": set(document["axes"]),
        "execution": set(document["execution"]),
        "report": set(document["report"]),
        "rule": {"trace", "engine", "warmth", "policy", "level"},
    }[section]
    if field in known:
        field = field + "_unknown"
    if section == "top":
        document[field] = 1
    elif section == "rule":
        document["include"] = [{"engine": "serial", field: 1}]
    else:
        document[section][field] = 1
    try:
        spec_from_dict(document)
    except SweepSpecError:
        return
    raise AssertionError(
        f"unknown field {field!r} in {section} was not rejected"
    )
