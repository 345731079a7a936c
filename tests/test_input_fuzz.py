"""The JSON loaders either load a value or raise InputError; nothing else escapes.

Arbitrary JSON values go to each loader, both bare and in the shape of a
connection or cycle document with arbitrary values at the leaves, so that
the checks past the top-level type test are reached too.
"""

from hypothesis import example, given, settings, strategies as st

from ipd.connection import connection_from_json
from ipd.cycles import cycle_from_json
from ipd.errors import InputError
from ipd.exact import parse_scalar

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
scalar_text = st.text(alphabet="0123456789/.+-ie ", max_size=12)
# JSON integers are unbounded; 10**400 overflows a float
numbers = st.integers() | st.floats() | st.sampled_from([10**400, -(10**400)]) | json_values
pairs = st.lists(numbers, min_size=2, max_size=2) | json_values
points = st.sampled_from(["0", "inf", "1/2+i"]) | scalar_text | json_values

connection_docs = st.fixed_dictionaries(
    {
        "alpha": st.fixed_dictionaries(
            {
                "num": st.lists(scalar_text | json_values, max_size=4) | json_values,
                "den": st.lists(scalar_text | json_values, max_size=4) | json_values,
            }
        )
        | json_values
    },
    optional={"label": json_values},
)
pieces = st.one_of(
    st.fixed_dictionaries({"type": st.just("line"), "start": pairs, "end": pairs}),
    st.fixed_dictionaries(
        {
            "type": st.just("arc"),
            "center": pairs,
            "radius": numbers,
            "theta0": numbers,
            "theta1": numbers,
        }
    ),
    st.fixed_dictionaries(
        {
            "type": st.just("decay_ray"),
            "point": points,
            "direction": numbers,
            "anchor_radius": numbers,
            "sense": st.sampled_from(["outward", "inward"]) | json_values,
        }
    ),
    json_values,
)
cycle_docs = st.fixed_dictionaries(
    {"pieces": st.lists(pieces, max_size=3) | json_values},
    optional={
        "label": json_values,
        "orientation": st.sampled_from([1, -1]) | json_values,
        "base_args": st.dictionaries(st.sampled_from(["0", "inf"]) | scalar_text, numbers)
        | json_values,
    },
)


def _loads_or_refuses(load, value):
    try:
        load(value)
    except InputError:
        pass


@given(connection_docs | json_values)
@settings(max_examples=100, deadline=None)
def test_connection_loader(doc):
    _loads_or_refuses(connection_from_json, doc)


@given(cycle_docs | json_values)
@example({"pieces": [{"type": "decay_ray", "point": None, "direction": 0.0,
                      "anchor_radius": 1.0, "sense": "inward"}]})
@example({"pieces": [{"type": "arc", "center": [0, 0], "radius": 10**400,
                      "theta0": 0, "theta1": 1}]})
@example({"pieces": [], "base_args": {"0": 10**400}})
@settings(max_examples=100, deadline=None)
def test_cycle_loader(doc):
    _loads_or_refuses(cycle_from_json, doc)


@given(scalar_text | st.text() | json_values)
@settings(max_examples=100, deadline=None)
def test_scalar_parser(text):
    _loads_or_refuses(parse_scalar, text)
