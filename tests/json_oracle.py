"""Reference oracle for ``globalize --format json``: the payload handed to json.dumps.

The CLI lays the fixed schema out itself, because json.dumps with an indent
runs the pure-Python encoder; the tests require its bytes to equal these.
"""

import json

from isgact import Globalization


def globalization_json(glob: Globalization) -> str:
    isg = glob.action.semigroupoid
    q = glob.quotient
    payload = {
        "seeds": [[s, str(x)] for s, x in q.seeds],
        "classes": [
            {"id": c, "members": [[s, str(x)] for s, x in members]}
            for c, members in enumerate(q.classes)
        ],
        "families": [
            {"arrow": s, "classes": sorted(glob.global_action.dom_of[s])} for s in isg.arrows
        ],
        "maps": [
            {"arrow": s, "pairs": [[c, glob.global_action.theta[s][c]] for c in sorted(glob.global_action.theta[s])]}
            for s in isg.arrows
        ],
        "embedding": [[str(x), glob.canonical_embedding.mapping[x]] for x in glob.action.carrier],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
