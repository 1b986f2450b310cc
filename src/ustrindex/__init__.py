"""Threshold pattern matching and document listing over uncertain strings.

An uncertain string assigns every position a probability distribution over
characters.  This package builds indexes that report, for a deterministic
pattern and a threshold tau, every position where the pattern occurs with
probability at least tau (`build` / `query`), every sufficiently relevant
document in a collection (`build_listing` / `list_docs`), and an
epsilon-approximate variant with tunable space (`build_links` /
`approx_query`).  Brute-force oracles, a seeded data generator, a text
format, and a persistent container round out the toolkit; `ustr` exposes it
all on the command line.
"""

from __future__ import annotations

from .approx import LinkIndex, RawLinks, approx_items, approx_query, build_links, partition_links
from .container import IndexContainer, build_container, container_info, load_container, save_container
from .datagen import GenConfig, generate, generate_collection, sample_world
from .errors import CapacityError, ContainerError, ParseError, ThresholdError
from .factorize import TransformedText, transform
from .listing import METRICS, ListingIndex, build_listing, list_docs, list_items, list_with_stats
from .model import (
    Correlation,
    DocumentCollection,
    UncertainString,
    enumerate_worlds,
    occurrence_probability,
    validate,
)
from .oracle import oracle_list, oracle_relevance, oracle_search
from .qindex import QueryStats, SubstringIndex, build, query, query_items, query_with_stats
from .ustformat import parse_ust, parse_ust_file, serialize_ust, write_ust_file

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ContainerError",
    "Correlation",
    "DocumentCollection",
    "GenConfig",
    "IndexContainer",
    "LinkIndex",
    "ListingIndex",
    "METRICS",
    "ParseError",
    "QueryStats",
    "RawLinks",
    "SubstringIndex",
    "ThresholdError",
    "TransformedText",
    "UncertainString",
    "approx_items",
    "approx_query",
    "build",
    "build_container",
    "build_links",
    "build_listing",
    "container_info",
    "enumerate_worlds",
    "generate",
    "generate_collection",
    "list_docs",
    "list_items",
    "list_with_stats",
    "load_container",
    "occurrence_probability",
    "oracle_list",
    "oracle_relevance",
    "oracle_search",
    "parse_ust",
    "parse_ust_file",
    "partition_links",
    "query",
    "query_items",
    "query_with_stats",
    "sample_world",
    "save_container",
    "serialize_ust",
    "transform",
    "validate",
    "write_ust_file",
]
