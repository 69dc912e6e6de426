"""The JSON writer of `isgact globalize` against json.dumps(indent=2, sort_keys=True)."""

import json

from hypothesis import given, settings, strategies as st

from isgact import PartialAction, build_globalization, random_partial_action, restrict
from isgact.catalog import catalog, catalog_entry, partial_bijections
from isgact.cli import _globalization_json

from grown_catalog import grow_catalog
from json_oracle import globalization_json

GROWN_SLOTS = [
    (entry, i)
    for entry in map(grow_catalog, catalog())
    for i, ca in enumerate(entry.actions)
    if ca.global_tag
]


def _assert_matches_the_oracle(glob):
    text = _globalization_json(glob)
    assert text == globalization_json(glob)
    return json.loads(text)


@given(slot=st.sampled_from(GROWN_SLOTS), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_json_matches_the_oracle_on_seeded_restrictions(slot, seed):
    entry, index = slot
    _assert_matches_the_oracle(build_globalization(random_partial_action(entry, index, seed)))


def test_empty_carrier_writes_every_list_empty():
    isg = catalog_entry("cyclic-2").structure
    empty = PartialAction(isg, (), {s: () for s in isg.arrows}, {s: {} for s in isg.arrows})
    payload = _assert_matches_the_oracle(build_globalization(empty))
    assert payload["seeds"] == payload["classes"] == payload["embedding"] == []
    assert all(f["classes"] == [] for f in payload["families"])
    assert all(m["pairs"] == [] for m in payload["maps"])


def test_non_ascii_and_quoted_names_are_escaped_as_json_dumps_does():
    points = ("ä", '"', "\\", "☃", "\U0001f600")
    n = len(points)
    maps = {
        name: {points[i]: points[(i + k) % n] for i in range(n)}
        for k, name in enumerate(("é", 'g"', "g\\g", "ğğğ", "\U0001f600"))
    }
    isg, action = partial_bijections(maps, points)
    glob = build_globalization(restrict(action, points[:3]))
    payload = _assert_matches_the_oracle(glob)
    assert {f["arrow"] for f in payload["families"]} == set(maps)
    assert {x for x, _ in payload["embedding"]} == set(points[:3])


def test_arrows_with_empty_families():
    # z, the empty partial injection of I_2, acts on no class
    base = catalog_entry("symmetric-inverse-2").actions[0].action
    payload = _assert_matches_the_oracle(build_globalization(restrict(base, base.carrier[:1])))
    assert [f["arrow"] for f in payload["families"] if not f["classes"]] == ["z"]
    assert [m["pairs"] for m in payload["maps"] if m["arrow"] == "z"] == [[]]
