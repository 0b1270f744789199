"""The full simulated world: the endpoint population H-BOLD indexes.

The paper's registry holds 610 listed endpoints of which 110 are indexed
(working and compatible with index extraction); the portal crawl raises
those to 680 / 130.  :func:`build_world` constructs that world -- or a
scaled-down version for tests -- as one :class:`World` object:

* an :class:`~repro.endpoint.network.EndpointNetwork` on a shared clock,
* ``indexable_urls``: endpoints with real generated datasets,
* ``broken_urls``: endpoints that exist but are dead or incompatible,
* three portal catalogs (queryable as endpoints themselves),
* ``portal_new_indexable``: the 20 crawl-discovered endpoints that extract.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Tuple

from ..endpoint.availability import AlwaysAvailable, MarkovAvailability
from ..endpoint.clock import SimulationClock
from ..endpoint.endpoint import SparqlEndpoint
from ..endpoint.network import EndpointNetwork
from ..rdf.graph import Graph
from .big_lod import big_lod_graph
from .government import government_graph, trafair_graph
from .portals import PORTAL_CENSUS, build_all_portals
from .scholarly import scholarly_graph
from .spec import ClassSpec, DatasetSpec, ObjectPropertySpec, instantiate

__all__ = ["World", "build_world"]

_PROFILE_MIX = (
    ("virtuoso", 0.45),
    ("fuseki", 0.25),
    ("legacy-sesame", 0.12),
    ("4store", 0.08),
    ("slow-shared-host", 0.10),
)


def _pick_profile(rng: random.Random) -> str:
    roll = rng.random()
    cumulative = 0.0
    for name, share in _PROFILE_MIX:
        cumulative += share
        if roll < cumulative:
            return name
    return _PROFILE_MIX[-1][0]


def _small_dataset(index: int, seed: int) -> Graph:
    """A modest themed dataset for rank-and-file indexable endpoints."""
    kind = index % 4
    if kind == 0:
        return government_graph(scale=0.12 + (index % 7) * 0.05, seed=seed + index,
                                name=f"govdata{index}")
    if kind == 1:
        return big_lod_graph(
            class_count=12 + (index % 10) * 4,
            group_count=3 + index % 4,
            instances_per_class=8 + index % 20,
            seed=seed + index,
            name=f"biglod{index}",
        )
    if kind == 2:
        return trafair_graph(scale=0.05 + (index % 5) * 0.03, seed=seed + index)
    return scholarly_graph(scale=0.05 + (index % 6) * 0.04, seed=seed + index)


class World:
    """Everything the experiments need, in one place."""

    def __init__(
        self,
        network: EndpointNetwork,
        indexable_urls: List[str],
        broken_urls: List[str],
        portal_urls: Dict[str, str],
        portal_endpoint_urls: Dict[str, List[str]],
        portal_new_indexable: List[str],
        seed: int,
    ):
        self.network = network
        self.clock = network.clock
        #: registry endpoints that extract successfully (the "110")
        self.indexable_urls = indexable_urls
        #: registry endpoints that are dead or incompatible (the "500")
        self.broken_urls = broken_urls
        #: portal key -> the portal's own query URL
        self.portal_urls = portal_urls
        #: portal key -> sparql endpoint URLs listed in its catalog
        self.portal_endpoint_urls = portal_endpoint_urls
        #: crawl-discovered endpoints that are indexable (the "20")
        self.portal_new_indexable = portal_new_indexable
        self.seed = seed

    @property
    def listed_urls(self) -> List[str]:
        """The initial registry: indexable + broken (the "610")."""
        return self.indexable_urls + self.broken_urls

    def __repr__(self) -> str:
        return (
            f"<World listed={len(self.listed_urls)} indexable={len(self.indexable_urls)} "
            f"portals={sorted(self.portal_urls)}>"
        )


def build_world(
    indexable: int = 110,
    broken: int = 500,
    portal_new_indexable: int = 20,
    seed: int = 0,
    clock: Optional[SimulationClock] = None,
    flaky: bool = True,
) -> World:
    """Construct the simulated endpoint world.

    Defaults reproduce the paper's census (110 indexable + 500 broken =
    610 listed; the crawl then adds 70 of which 20 are indexable).  Tests
    pass small numbers -- the builder scales everything consistently.
    """
    network = EndpointNetwork(clock=clock)
    digest = hashlib.sha256(f"{seed}:world".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))

    # -- the 110 indexable registry endpoints ------------------------------
    indexable_urls: List[str] = []
    for index in range(indexable):
        url = f"http://lod{index}.example.org/sparql"
        graph = _small_dataset(index, seed)
        availability = (
            MarkovAvailability(url, p_fail=0.05, p_recover=0.6, seed=seed)
            if flaky
            else AlwaysAvailable()
        )
        network.register(
            SparqlEndpoint(
                url,
                graph,
                network.clock,
                profile=_pick_profile(rng),
                availability=availability,
                seed=seed + index,
                title=graph.identifier or url,
            )
        )
        indexable_urls.append(url)

    # -- the 500 broken/dead registry endpoints ------------------------------
    broken_urls: List[str] = []
    for index in range(broken):
        url = f"http://dead{index}.example.org/sparql"
        # Dead endpoints: empty graphs and availability so poor extraction
        # never completes (p_recover small keeps them down for long spells).
        availability = MarkovAvailability(
            url, p_fail=0.85, p_recover=0.08, seed=seed, start_up=False
        )
        network.register(
            SparqlEndpoint(
                url,
                Graph(identifier=f"dead{index}"),
                network.clock,
                profile="slow-shared-host",
                availability=availability,
                seed=seed + 10_000 + index,
            )
        )
        broken_urls.append(url)

    # -- the three portals and their catalogs --------------------------------
    # At full size the census needs 19 overlap URLs; shrink it for tiny
    # test worlds so overlaps never exceed the available registry.
    portal_scale = 1.0 if indexable >= 19 else max(0.05, indexable / 110.0)
    catalogs = build_all_portals(indexable_urls, seed=seed, scale=portal_scale)
    portal_urls: Dict[str, str] = {}
    portal_endpoint_urls: Dict[str, List[str]] = {}
    discovered_new: List[str] = []
    for key, (catalog, urls) in catalogs.items():
        portal_url = f"http://{key}.example.org/sparql"
        network.register(
            SparqlEndpoint(
                portal_url,
                catalog,
                network.clock,
                profile="virtuoso",
                availability=AlwaysAvailable(),
                seed=seed,
                title=f"portal {key}",
            )
        )
        portal_urls[key] = portal_url
        portal_endpoint_urls[key] = urls
        discovered_new.extend(u for u in urls if u not in indexable_urls)

    # -- register the crawl-discovered endpoints ------------------------------
    # The first `portal_new_indexable` of them get real datasets; the rest
    # are broken like the long tail of the registry.
    new_indexable: List[str] = []
    for index, url in enumerate(sorted(discovered_new)):
        if index < portal_new_indexable:
            graph = _small_dataset(1000 + index, seed)
            availability = (
                MarkovAvailability(url, p_fail=0.05, p_recover=0.6, seed=seed)
                if flaky
                else AlwaysAvailable()
            )
            profile = _pick_profile(rng)
            new_indexable.append(url)
        else:
            graph = Graph(identifier=f"discovered-dead-{index}")
            availability = MarkovAvailability(
                url, p_fail=0.85, p_recover=0.08, seed=seed, start_up=False
            )
            profile = "slow-shared-host"
        network.register(
            SparqlEndpoint(
                url,
                graph,
                network.clock,
                profile=profile,
                availability=availability,
                seed=seed + 20_000 + index,
            )
        )

    return World(
        network=network,
        indexable_urls=indexable_urls,
        broken_urls=broken_urls,
        portal_urls=portal_urls,
        portal_endpoint_urls=portal_endpoint_urls,
        portal_new_indexable=new_indexable,
        seed=seed,
    )
