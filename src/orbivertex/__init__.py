"""Orbifold vertex generating functions computed three independent ways:
direct box enumeration, operator transfer matrices, and closed product
formulas, together with pyramid partitions and their restricted variants.
"""

__all__ = [
    "partition_core", "qseries", "pyramid", "rpc", "fock_transfer",
    "dt_vertex", "routes", "cli",
]
