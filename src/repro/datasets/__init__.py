"""The paper's three evaluation datasets (§5.3-§5.5)."""

from repro.datasets.earthquake import (
    EarthquakeDataset,
    LeafLayout,
    build_leaf_layouts,
)
from repro.datasets.grid import (
    MAPPER_ORDER,
    Chunk,
    GridDataset,
    paper_synthetic_3d,
)
from repro.datasets.olap import (
    OLAP_CHUNK_DIMS,
    OLAP_RAW_DIMS,
    OLAP_ROLLED_DIMS,
    OLAPCube,
    paper_olap_queries,
)
from repro.datasets.tpch import (
    P_TYPES,
    TPCH_DOMAINS,
    FactTable,
    generate_fact_table,
)

__all__ = [
    "Chunk",
    "EarthquakeDataset",
    "FactTable",
    "GridDataset",
    "LeafLayout",
    "MAPPER_ORDER",
    "OLAPCube",
    "OLAP_CHUNK_DIMS",
    "OLAP_RAW_DIMS",
    "OLAP_ROLLED_DIMS",
    "P_TYPES",
    "TPCH_DOMAINS",
    "build_leaf_layouts",
    "generate_fact_table",
    "paper_olap_queries",
    "paper_synthetic_3d",
]
