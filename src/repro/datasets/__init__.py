"""The paper's three evaluation datasets (§5.3-§5.5).

Names are loaded lazily (PEP 562): the shard map imports
:mod:`repro.datasets.grid`, and that must not load the earthquake, OLAP
and TPC-H generators.
"""

from __future__ import annotations

#: the lazy public surface: name -> module
_LAZY_EXPORTS = {
    "EarthquakeDataset": "repro.datasets.earthquake",
    "LeafLayout": "repro.datasets.earthquake",
    "build_leaf_layouts": "repro.datasets.earthquake",
    "MAPPER_ORDER": "repro.datasets.grid",
    "Chunk": "repro.datasets.grid",
    "GridDataset": "repro.datasets.grid",
    "paper_synthetic_3d": "repro.datasets.grid",
    "OLAP_CHUNK_DIMS": "repro.datasets.olap",
    "OLAP_RAW_DIMS": "repro.datasets.olap",
    "OLAP_ROLLED_DIMS": "repro.datasets.olap",
    "OLAPCube": "repro.datasets.olap",
    "paper_olap_queries": "repro.datasets.olap",
    "P_TYPES": "repro.datasets.tpch",
    "TPCH_DOMAINS": "repro.datasets.tpch",
    "FactTable": "repro.datasets.tpch",
    "generate_fact_table": "repro.datasets.tpch",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name: str):
    try:
        module = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    return getattr(import_module(module), name)


def __dir__():
    return sorted(__all__)
