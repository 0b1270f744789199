"""An index pass leaves no cyclic garbage.

Everything the server pipeline allocates for one pass -- the storage
facade, its model caches and the models in them, the endpoint's per-query
walks over the parsed query -- is freed by reference counting once the
application goes.  A reference cycle anywhere in it keeps a whole round's
models alive until the collector's oldest generation runs, so the
process's peak memory would track collector timing, not the data.
"""

from __future__ import annotations

import gc

from repro.core import HBold
from repro.datagen import build_world


def test_an_index_pass_leaves_nothing_for_the_collector():
    world = build_world(indexable=6, broken=2, portal_new_indexable=0, seed=1, flaky=False)
    profiles = {world.network.get(url).profile.name for url in world.indexable_urls}
    # a path-rejecting profile walks each query for paths before it runs
    assert {"legacy-sesame", "4store"} & profiles
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        app = HBold(world.network)
        for _ in range(2):  # a first pass and a re-index of unchanged data
            for url in world.indexable_urls:
                assert app.index_endpoint(url)
        assert app.storage.load_indexes(world.indexable_urls[0]) is not None
        del app
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
