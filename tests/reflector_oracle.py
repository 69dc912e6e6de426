"""The globalization as a functor, read off the universal property.

For an action map f from A to B, the globalization of B receives B through
its canonical embedding i_B, so i_B o f maps A into a global action and
factors through the globalization of A:

    G(f) = mediating(glob_A, i_B o f)

Uniqueness of that factoring makes G a functor, G(id_A) = id and
G(g o f) = G(g) o G(f), and the canonical embeddings natural,
G(f) o i_A = i_B o f.  Every map here is built from the class numbering of
both globalizations, so a class numbered or mapped wrongly breaks a law.
"""

from isgact import ActionMap, Globalization, compose, mediating


def reflect(glob_a: Globalization, glob_b: Globalization, f: ActionMap) -> ActionMap:
    """G(f): the globalization of f's source to the globalization of f's target."""
    return mediating(glob_a, compose(glob_b.canonical_embedding, f))
