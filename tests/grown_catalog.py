"""The catalog grown by its globalizations: a larger family of valid actions for the property tests."""

from isgact.catalog import CatalogAction, CatalogEntry
from isgact.globalization import build_globalization


def grow_catalog(entry: CatalogEntry) -> CatalogEntry:
    """Add the globalization of every action as a fresh global action."""
    added = []
    for ca in entry.actions:
        glob = build_globalization(ca.action)
        added.append(CatalogAction(ca.name + "+globalized", glob.global_action, True))
    return CatalogEntry(entry.name, entry.structure, entry.actions + tuple(added))
