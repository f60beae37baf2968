"""Non-crossing partitions, non-crossing linked partitions, the bijection
between linked partitions and endpoint-refinement pairs, and the exact
moment-transform calculus built on them.

The exports load lazily (PEP 562): ``import nclab`` loads no submodule,
and the first use of a name loads only the submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "partitions": (
        "InvalidPairError",
        "InvalidPartitionError",
        "ParseError",
        "Partition",
        "Permutation",
        "SizeError",
        "act",
        "block_cycles",
        "catalan",
        "classify_blocks",
        "count_endpoint_coarsenings",
        "count_endpoint_refinements",
        "endpoint_coarsenings",
        "endpoint_floor",
        "endpoint_refinements",
        "endpoint_refines",
        "enumerate_nc",
        "is_noncrossing",
        "make_partition",
        "make_permutation",
        "refines",
    ),
    "linked": (
        "InvalidLinkedPartitionError",
        "LinkedPartition",
        "coloured_count",
        "enumerate_ncl",
        "enumerate_ncl_direct",
        "from_pair",
        "generated_partition",
        "make_linked",
        "ncl_count",
        "schroder",
        "to_pair",
        "unlink",
    ),
    "series": (
        "MomentSequence",
        "NormalizationError",
        "TruncatedSeries",
        "cumulants_from_moments",
        "cumulants_from_moments_by_enumeration",
        "cumulants_from_t",
        "cumulants_from_t_by_enumeration",
        "moment_series",
        "moments_from_cumulants",
        "moments_from_cumulants_by_enumeration",
        "moments_from_t",
        "moments_from_t_by_enumeration",
        "s_transform",
        "t_transform",
    ),
    "polynomials": (
        "Polynomial",
        "cumulant_poly",
        "cumulant_product_identity",
        "moment_poly",
        "moment_poly_cumulants",
        "moment_poly_inner_outer",
        "moment_poly_linked",
        "moment_poly_pairs",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
