"""repro: a from-scratch reproduction of H-BOLD.

"Providing Effective Visualizations over Big Linked Data"
(Desimoni & Po, EDBT/ICDT 2020 workshops).

Subpackages:

* :mod:`repro.rdf`       -- RDF data model, triple store, serializations
* :mod:`repro.sparql`    -- SPARQL subset engine
* :mod:`repro.endpoint`  -- simulated SPARQL endpoint network
* :mod:`repro.docstore`  -- URL-keyed document store (MongoDB substitute)
* :mod:`repro.community` -- community detection algorithms
* :mod:`repro.viz`       -- layout algorithms + SVG/HTML rendering
* :mod:`repro.datagen`   -- synthetic Linked Data generators
* :mod:`repro.core`      -- H-BOLD itself (the paper's contribution)

Quickstart::

    from repro.datagen import build_world
    from repro.core import HBold

    world = build_world(indexable=20, broken=10, flaky=False)
    app = HBold(world.network)
    app.bootstrap_registry(world.listed_urls)
    app.update_all(world.indexable_urls)
    url = world.indexable_urls[0]
    session = app.explore(url)
    session.start_from_cluster_schema()
    app.render_treemap(url).save("figure4.svg")
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
